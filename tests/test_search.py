"""Structure-constant search, brute-force oracles, instance generators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from homcert.errors import (BudgetError, InputError, PreconditionError,
                            UnsupportedError)
from homcert.exactlin import Matrix, Tensor3, rank
from homcert.harness import _build_epsilon
from homcert.exactlin import vec_sub
from homcert.homcore import (KINDS, CertReport, EpsilonHomBialgebra, HomAlgebra,
                             Identity, Law, Term, _declare_identities, _monomials, _Poly,
                             certification_scope, check_axioms, check_rota_baxter,
                             epsilon_prerequisites, linear_rows, quadratic_rows, unit_basis,
                             yau_twist)
from homcert.hommod import OOP_LAWS, HomModule, _module_env, adjoint_postlie_module, check_oop
from homcert.functors import adjoint_bimodule
from homcert.search import (CATALOG, GENERATORS, RandomInstanceSpec, _catalog_entries,
                            _linear_forms,
                            brute_force_epsilon_bialgebras,
                            brute_force_oop_search, brute_force_rb_search,
                            corpus, iter_postlie_candidates, kernel_points,
                            postlie_candidate_space, postlie_linear_system,
                            postlie_search, random_instance, sc_tensor)

from conftest import catalog_algebra

I2 = Matrix.identity(2)


def test_linear_system_abelian_is_zero():
    abelian = catalog_algebra("hom-lie", "abelian-2")
    system = postlie_linear_system(abelian)
    assert system.rows == 16 and system.cols == 8
    assert system.is_zero()


def test_linear_system_dim_one():
    lie = HomAlgebra(1, "hom-lie", {"bracket": Tensor3.zeros(1)}, Matrix([[1]]))
    system = postlie_linear_system(lie)
    assert (system.rows, system.cols) == (1, 1)
    assert system.is_zero()


def test_linear_system_affine_shape_and_kernel(affine_lie):
    system = postlie_linear_system(affine_lie)
    assert (system.rows, system.cols) == (16, 8)
    assert rank(system) == 4
    space = postlie_candidate_space(affine_lie)
    assert len(space.basis) == 4 and space.rank == 4
    # independent re-substitution: every kernel tensor satisfies the
    # compatibility identity under the axiom checker's own evaluation
    for t in space.basis:
        candidate = HomAlgebra(2, "hom-postlie",
                               {"bracket": affine_lie.op("bracket"), "mul": t},
                               affine_lie.alpha)
        report = check_axioms(candidate)
        assert report.axiom("postlie-bracket-compatibility").passed


def test_linear_system_requires_certified_homlie():
    bad = HomAlgebra(2, "hom-lie",
                     {"bracket": sc_tensor(2, {(0, 1): {1: 1}})}, I2)
    with pytest.raises(PreconditionError):
        postlie_linear_system(bad)


def test_search_bound_zero_gives_zero_product(affine_lie):
    results = postlie_search(affine_lie, 0)
    assert len(results) == 1
    assert results[0].output.op("mul").is_zero()
    assert results[0].cert.passed


def test_search_survivor_includes_known_product():
    abelian = catalog_algebra("hom-lie", "abelian-2")
    results = postlie_search(abelian, 1)
    target = sc_tensor(2, {(0, 0): {1: 1}})
    assert any(r.output.op("mul") == target for r in results)
    # with the zero bracket, surviving is exactly the preLie condition
    for r in results[:25]:
        prelie = HomAlgebra(2, "hom-prelie", {"mul": r.output.op("mul")}, I2)
        assert check_axioms(prelie).passed


def test_search_survivors_certified_and_rejects_fail(affine_lie):
    survivors = {r.output.op("mul") for r in postlie_search(affine_lie, 1)}
    for _, mul in iter_postlie_candidates(affine_lie, 1):
        candidate = HomAlgebra(2, "hom-postlie",
                               {"bracket": affine_lie.op("bracket"), "mul": mul},
                               affine_lie.alpha)
        assert check_axioms(candidate).passed == (mul in survivors)


def test_search_budget_error():
    abelian3 = catalog_algebra("hom-lie", "abelian-3")
    with pytest.raises(BudgetError) as err:
        postlie_search(abelian3, 1)
    assert err.value.needed == 3 ** 27


def test_search_dim_zero_degenerate():
    lie = HomAlgebra(0, "hom-lie", {"bracket": Tensor3.zeros(0)}, Matrix([]))
    results = postlie_search(lie, 1)
    assert len(results) == 1
    assert results[0].cert.passed


def test_candidate_order_deterministic(affine_lie):
    first = [c for c, _ in iter_postlie_candidates(affine_lie, 1)]
    second = [c for c, _ in iter_postlie_candidates(affine_lie, 1)]
    assert first == second
    assert first[0] == (-1, -1, -1, -1)


# --- brute-force oracles -------------------------------------------------------

def test_oop_search_bound_zero(dual_numbers):
    m = adjoint_bimodule(dual_numbers)
    assert brute_force_oop_search(dual_numbers, m, 0) == [Matrix.zeros(2, 2)]


def test_oop_search_finds_rb_fixture(dual_numbers):
    m = adjoint_bimodule(dual_numbers)
    found = brute_force_oop_search(dual_numbers, m, 1)
    assert Matrix([[0, 0], [1, 0]]) in found


def test_oop_search_abelian_zero_rep_full_box():
    abelian = catalog_algebra("hom-lie", "abelian-2")
    zero_rep = HomModule(abelian, 2, I2,
                         {"rho": (Matrix.zeros(2, 2), Matrix.zeros(2, 2))},
                         "lie-representation")
    found = brute_force_oop_search(abelian, zero_rep, 1)
    assert len(found) == 3 ** 4
    # closed under negation
    as_set = {f.data for f in found}
    for f in found:
        assert (-f).data in as_set


def test_oop_search_budget():
    a = catalog_algebra("hom-associative", "truncated-poly-4")
    m = adjoint_bimodule(a)
    with pytest.raises(BudgetError):
        brute_force_oop_search(a, m, 1)


def test_oop_search_rejects_a_module_over_another_dimension(dual_numbers):
    m = adjoint_bimodule(catalog_algebra("hom-associative", "truncated-poly-3"))
    with pytest.raises(InputError):
        brute_force_oop_search(dual_numbers, m, 1)
    # same dimension, another algebra: the module's own operators are not the answer
    m = adjoint_bimodule(catalog_algebra("hom-associative", "null-square"))
    with pytest.raises(InputError):
        brute_force_oop_search(catalog_algebra("hom-associative", "truncated-poly-2"), m, 1)


def test_rb_search_contains_known_operators(dual_numbers):
    found0 = brute_force_rb_search(dual_numbers, 0, 1)
    assert Matrix([[0, 0], [1, 0]]) in found0
    assert Matrix.zeros(2, 2) in found0
    found_minus = brute_force_rb_search(dual_numbers, -1, 1)
    assert Matrix.identity(2) in found_minus


# --- the searches against a naive walk of the whole box --------------------------
# The walks certify every box point with the public certifiers, with no
# linear step, in itertools.product order.

def _box(cells, bound):
    return itertools.product(range(-bound, bound + 1), repeat=cells)


def naive_rb(a, weight, bound):
    n = a.dim
    mats = (Matrix([flat[i * n:(i + 1) * n] for i in range(n)])
            for flat in _box(n * n, bound))
    return [r for r in mats if check_rota_baxter(a, r, weight).passed]


def naive_oop(a, m, bound):
    mats = (Matrix([flat[i * m.mdim:(i + 1) * m.mdim] for i in range(a.dim)])
            for flat in _box(a.dim * m.mdim, bound))
    return [t for t in mats if check_oop(t, m).passed]


def naive_epsilon(mul, alpha, bound):
    n = mul.d1
    cands = (EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, flat), alpha)
             for flat in _box(n ** 3, bound))
    return [b for b in cands if epsilon_prerequisites(b).passed]


def typed(entries):
    return [(v, type(v)) for v in entries]


def same_matrices(found, expected):
    assert [typed(v for row in m.data for v in row) for m in found] == \
        [typed(v for row in m.data for v in row) for m in expected]


ASSOC = {e.name: e.algebra for e in CATALOG["hom-associative"]}
PRELIE = {e.name: e.algebra for e in CATALOG["hom-prelie"]}
FRACTIONAL_TWIST = Matrix([[0, 1], [2, 0]])  # commutant [[p, q], [2q, p]]

RB_INPUTS = {
    "identity-twist": ASSOC["truncated-poly-2"],
    "fractional-twist": HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)},
                                   FRACTIONAL_TWIST),
    "twisted-dual": yau_twist(ASSOC["truncated-poly-2"],
                              Matrix([[1, 0], [0, Fraction(1, 2)]])),
    "twisted-null-square": yau_twist(ASSOC["null-square"], Matrix([[-1, 0], [0, 1]])),
    "dim-1": ASSOC["truncated-poly-1"],
}


@pytest.mark.parametrize("weight", [0, -1, 1])
@pytest.mark.parametrize("name", RB_INPUTS)
def test_rb_search_equals_naive_walk(name, weight):
    a = RB_INPUTS[name]
    found = brute_force_rb_search(a, weight, 1)
    same_matrices(found, naive_rb(a, weight, 1))
    if name == "fractional-twist":
        # r01 = r10 / 2 is a pivot: only the three diagonal matrices survive
        assert [m.data for m in found] == [((p, 0), (0, p)) for p in (-1, 0, 1)]


def test_rb_search_identity_twist_keeps_full_box():
    # commuting with the identity is no constraint: all 81 points are certified
    zero = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)}, Matrix.identity(2))
    assert len(brute_force_rb_search(zero, 0, 1)) == 81


OOP_INPUTS = {
    "assoc": ASSOC["truncated-poly-2"],
    "assoc-twisted": yau_twist(ASSOC["truncated-poly-2"], Matrix([[1, 0], [0, -1]])),
    "prelie-left-shift": PRELIE["left-shift"],
    "prelie-vector-fields": yau_twist(PRELIE["vector-fields"],
                                      Matrix([[Fraction(1, 2), 0], [0, 1]])),
    "lie-affine": catalog_algebra("hom-lie", "affine-line"),
    "lie-abelian": HomAlgebra(2, "hom-lie", {"bracket": Tensor3.zeros(2)},
                              FRACTIONAL_TWIST),
}


@pytest.mark.parametrize("name", OOP_INPUTS)
def test_oop_search_equals_naive_walk(name):
    a = OOP_INPUTS[name]
    m = adjoint_bimodule(a)
    same_matrices(brute_force_oop_search(a, m, 1), naive_oop(a, m, 1))


@pytest.mark.parametrize("item", _build_epsilon(1, 2, 0), ids=lambda item: item[0])
def test_epsilon_search_equals_naive_walk(item):
    _, mul, alpha = item
    found = brute_force_epsilon_bialgebras(mul, alpha, 1)
    expected = naive_epsilon(mul, alpha, 1)
    assert [typed(b.delta.data) for b in found] == [typed(b.delta.data) for b in expected]
    assert all(b.mul == mul and b.alpha == alpha for b in found)


_small_rational = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@settings(max_examples=25, deadline=None)
@given(st.lists(_small_rational, min_size=4, max_size=4),
       st.sampled_from([0, -1, 1]))
def test_rb_search_random_twists_equal_naive_walk(entries, weight):
    alpha = Matrix([entries[:2], entries[2:]])
    a = HomAlgebra(2, "hom-associative", {"mul": ASSOC["truncated-poly-2"].op("mul")}, alpha)
    same_matrices(brute_force_rb_search(a, weight, 1), naive_rb(a, weight, 1))


def test_kernel_points_skip_fractional_pivots():
    # x0 = (x1 + x2) / 2 is the pivot; odd x1 + x2 gives no integer point
    found = kernel_points(3, 2, _linear_forms(Matrix([[2, -1, -1]])))
    assert found == [p for p in _box(3, 2) if 2 * p[0] - p[1] - p[2] == 0]
    assert (0, 1, -1) in found and all(type(v) is int for p in found for v in p)
    # a pivot outside the bound is dropped too: x0 = 2 x1
    assert kernel_points(2, 1, _linear_forms(Matrix([[1, -2]]))) == [(0, 0)]
    assert kernel_points(0, 1, _linear_forms(Matrix([]))) == [()]
    # a system with no rows keeps the whole box
    assert kernel_points(2, 1, _linear_forms(Matrix([]))) == list(_box(2, 1))


_twist_entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@settings(max_examples=10, deadline=None)
@given(st.lists(_twist_entry, min_size=4, max_size=4))
def test_postlie_search_equals_certified_candidate_walk(entries):
    # the oracle certifies every candidate of the unfiltered box, in order
    affine = catalog_algebra("hom-lie", "affine-line")
    lie = HomAlgebra(2, "hom-lie", dict(affine.ops), Matrix([entries[:2], entries[2:]]))
    assume(len(postlie_candidate_space(lie).basis) == 4)  # 81 candidates
    expected = [(coeffs, mul) for coeffs, mul in iter_postlie_candidates(lie, 1)
                if check_axioms(HomAlgebra(2, "hom-postlie", {"bracket": lie.op("bracket"),
                                                              "mul": mul}, lie.alpha)).passed]
    found = postlie_search(lie, 1)
    assert [(r.coeffs, r.output.op("mul")) for r in found] == expected


# Random dim-1/2 inputs from every generator that yields them: the (kind,
# dim, generator) combinations random_instance supports, at any seed.
SPECS = [(kind, dim, generator) for kind in KINDS if kind != "generic" for dim in (1, 2)
         for generator in GENERATORS
         if generator == "zero-product"
         or generator == "nullspace-sample" and kind == "hom-postlie" and dim == 2
         or generator.endswith("catalog") and _catalog_entries(kind, dim)]
OOP_KINDS = ("hom-associative", "hom-prelie", "hom-lie")  # with an adjoint O-operator module


@st.composite
def _instances(draw, kinds=KINDS):
    kind, dim, generator = draw(st.sampled_from([spec for spec in SPECS if spec[0] in kinds]))
    return random_instance(RandomInstanceSpec(kind, dim, draw(st.integers(0, 2 ** 16)),
                                              generator))


@settings(max_examples=60, deadline=None)
@given(_instances(), st.data(), st.integers(0, 1), st.sampled_from([0, -1, 1]))
def test_rb_search_equals_naive_walk_on_random_instances(instance, data, bound, weight):
    # the Rota-Baxter operators of any one product of the instance
    name = data.draw(st.sampled_from(sorted(instance.ops)))
    a = HomAlgebra(instance.dim, "generic", {"mul": instance.op(name)}, instance.alpha)
    same_matrices(brute_force_rb_search(a, weight, bound), naive_rb(a, weight, bound))


@settings(max_examples=40, deadline=None)
@given(_instances(OOP_KINDS), st.integers(0, 1))
def test_oop_search_equals_naive_walk_on_random_instances(a, bound):
    try:
        m = adjoint_bimodule(a)
    except PreconditionError:  # the adjoint module needs a multiplicative twist
        assume(False)
    same_matrices(brute_force_oop_search(a, m, bound), naive_oop(a, m, bound))


@settings(max_examples=8, deadline=None)
@given(_instances(), st.data(), st.integers(0, 1))
def test_epsilon_search_equals_naive_walk_on_random_instances(instance, data, bound):
    # any one product, under the instance's twist or an involution; one scope
    # keeps the product rows' results over the walk (6561 points at dim 2)
    mul = instance.op(data.draw(st.sampled_from(sorted(instance.ops))))
    one = Matrix.identity(instance.dim)
    alpha = data.draw(st.sampled_from([instance.alpha, one, -one]))
    found = brute_force_epsilon_bialgebras(mul, alpha, bound)
    with certification_scope():
        expected = naive_epsilon(mul, alpha, bound)
    assert [typed(b.delta.data) for b in found] == [typed(b.delta.data) for b in expected]


@pytest.mark.parametrize("alpha", [1, -1, 2])
@pytest.mark.parametrize("product", [-2, -1, 0, 1, 2])
def test_epsilon_search_equals_naive_walk_on_dim_one(product, alpha):
    # bound 2, beyond the random draws above
    mul, twist = sc_tensor(1, {(0, 0): {0: product}}), Matrix([[alpha]])
    found = brute_force_epsilon_bialgebras(mul, twist, 2)
    expected = naive_epsilon(mul, twist, 2)
    assert [typed(b.delta.data) for b in found] == [typed(b.delta.data) for b in expected]


@pytest.mark.parametrize("weight, count", [(0, 9), (1, 4)])
def test_rb_search_equals_naive_walk_on_dim_three(weight, count):
    # commuting with the identity twist is no constraint: the quadratic law prunes
    a = ASSOC["truncated-poly-3"]
    found = brute_force_rb_search(a, weight, 1)
    assert len(found) == count
    same_matrices(found, naive_rb(a, weight, 1))


def test_oop_search_equals_naive_walk_on_dim_three():
    a = ASSOC["truncated-poly-3"]
    m = adjoint_bimodule(a)
    found = brute_force_oop_search(a, m, 1)
    assert len(found) == 9
    same_matrices(found, naive_oop(a, m, 1))


@pytest.mark.parametrize("certifier, search", [
    ("check_axioms", lambda a, lie: postlie_search(lie, 1)),
    ("check_rota_baxter", lambda a, lie: brute_force_rb_search(a, 0, 1)),
    ("check_oop", lambda a, lie: brute_force_oop_search(a, adjoint_bimodule(a), 1)),
    ("_epsilon_delta_rows", lambda a, lie: brute_force_epsilon_bialgebras(a.op("mul"), I2, 1))])
def test_box_searches_certify_every_survivor(monkeypatch, dual_numbers, affine_lie, certifier,
                                             search):
    # the one box certifier, standing in for the plain certifier named and
    # rejecting every point: each survivor is refused loudly
    monkeypatch.setattr("homcert.search.check_on_box", lambda laws, env, unknown, basis, points: (
        CertReport(False, ()) for _ in points))
    with pytest.raises(AssertionError, match="disagree on a survivor"):
        search(dual_numbers, affine_lie)


def _canonical(v):
    return type(v) is int or type(v) is Fraction and v.denominator != 1


def _residual(laws, env):
    return [d for law in laws for _, lhs, rhs in Identity(law, env).basis_sides()
            for d in vec_sub(lhs, rhs)]


def _forms_cases():
    """(name, laws, env, unknown, basis) for every law the searches walk
    symbolically, with fractional data and a nonzero base point."""
    laws = _declare_identities()
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = RB_INPUTS["twisted-dual"]
    yield "rota-baxter", laws["rota-baxter"], {
        "mul": a.op("mul"), "weight": half, "alpha": a.alpha,
        "r": Matrix([[1, 0], [third, 0]])}, "r", [
        Matrix([[1, 2], [0, -1]]), Matrix([[0, half], [1, 0]]), Matrix([[3, 0], [0, 0]])]
    for name in ("assoc-twisted", "prelie-vector-fields", "lie-affine"):
        m = adjoint_bimodule(OOP_INPUTS[name])
        yield OOP_LAWS[m.kind], laws[OOP_LAWS[m.kind]], {
            **_module_env(m), "T": Matrix([[half, 0], [1, -1]])}, "T", [
            Matrix([[1, 0], [third, 2]]), Matrix([[0, -half], [1, 0]]), Matrix([[0, 0], [0, 1]])]
    b = EpsilonHomBialgebra(2, ASSOC["truncated-poly-2"].op("mul"),
                            Tensor3(2, 2, 2, [0, 1, 0, half, 0, 0, 1, 0]),
                            Matrix([[1, 0], [0, -1]]))
    coassociativity, = (law for law in laws["epsilon-coproduct"]
                        if law.name == "hom-coassociativity")
    yield "hom-coassociativity", [coassociativity], b.env, "Delta", [
        Matrix([[1, 0], [0, third], [0, 0], [2, 0]]),
        Matrix([[0, 0], [half, 0], [1, 0], [0, 1]]), Matrix([[0, -1], [0, 0], [0, 0], [0, 0]])]
    lie = HomAlgebra(2, "hom-lie", dict(OOP_INPUTS["lie-affine"].ops), Matrix([[1, 0], [0, 2]]))
    basis = postlie_candidate_space(lie).basis
    law, = (law for law in laws["hom-postlie"] if law.name == "postlie-twisted-left-symmetry")
    yield "postlie-twisted-left-symmetry", [law], {
        "bracket": lie.op("bracket"), "alpha": lie.alpha, "mul": basis[3].scale(half)}, "mul", \
        list(basis[:3])


def test_polynomial_scalar_keeps_only_nonzero_coefficients():
    products, keys = _monomials(2)
    assert keys == (None, 0, 1, (0, 0), (0, 1), (1, 1))
    c0, c1 = _Poly({1: 1}, 1, products), _Poly({2: 1}, 1, products)
    p, q = c0 + c1 * Fraction(1, 2), c0 - c1 * Fraction(1, 2)  # c0 + c1 / 2, c0 - c1 / 2
    assert (p * q).coefficients() == {3: 1, 5: Fraction(-1, 4)}  # the c0 c1 terms cancel
    assert (p + q).coefficients() == {1: 2} and type((p + q).coefficients()[1]) is int
    assert not p - p and p * 1 is p and p * 0 == 0 and p + 0 is p
    with pytest.raises(IndexError):  # above degree 2
        p * q * p


def test_quadratic_rows_are_exact_forms():
    # the residuals at env[unknown] + sum c_i B_i, against binding that point
    for name, laws, env, unknown, basis in _forms_cases():
        rows = quadratic_rows(laws, env, unknown, basis)
        for c in _box(len(basis), 2):
            point = env[unknown]
            for ci, b in zip(c, basis):
                point = point + b.scale(ci)
            assert [const + sum(c[i] * v for i, v in linear.items())
                    + sum(c[i] * c[j] * v for (i, j), v in quadratic.items())
                    for const, linear, quadratic in rows] == \
                _residual(laws, {**env, unknown: point}), name
        assert any(quadratic for _, _, quadratic in rows), name
        assert all(_canonical(v) for const, linear, quadratic in rows
                   for v in (const, *linear.values(), *quadratic.values())), name
        assert all(all(linear.values()) and all(quadratic.values())
                   for _, linear, quadratic in rows), name
        # over no basis, the residuals at the base point
        assert quadratic_rows(laws, env, unknown, []) == [
            (d, {}, {}) for d in _residual(laws, env)], name


def test_linear_rows_are_the_residuals_at_each_basis_element():
    for name, laws, env, unknown, basis in _forms_cases():
        system = linear_rows(laws, env, unknown, basis)
        assert system == Matrix.from_columns(
            [_residual(laws, {**env, unknown: b}) for b in basis]), name
        assert all(_canonical(v) for row in system.data for v in row), name
        assert linear_rows(laws, env, unknown, []) == Matrix.zeros(0, 0)


def test_quadratic_rows_reject_a_cubic_law():
    x = Term("var", 0)

    def r(u):
        return Term("map", "r", u)

    cubic = Law("cubic", r(r(r(x))), Term("sum", ()), {"r": "A A"})
    with pytest.raises(InputError, match="degree above 2"):
        quadratic_rows([cubic], {"r": Matrix.zeros(2, 2)}, "r", [])
    with pytest.raises(InputError, match="degree above 2"):  # linear_rows reads those forms
        linear_rows([cubic], {"r": Matrix.zeros(2, 2)}, "r", unit_basis((2, 2)))


def test_forms_reject_a_basis_of_another_shape():
    law, = _declare_identities()["rota-baxter"]
    env = {"mul": ASSOC["truncated-poly-2"].op("mul"), "weight": 0, "r": Matrix.zeros(2, 2)}
    for basis in ([Matrix.zeros(3, 3)], [Matrix.identity(2), Matrix.zeros(2, 1)]):
        with pytest.raises(InputError, match="differ in shape"):
            quadratic_rows([law], env, "r", basis)
    with pytest.raises(InputError, match="differ in shape"):
        linear_rows([law], env, "r", [Matrix.identity(2), Tensor3.zeros(2)])


def test_searches_validate_inputs_before_counting_the_box():
    # bound 20 is far over budget; the inputs are wrong at every bound
    a = ASSOC["truncated-poly-2"]
    postlie = catalog_algebra("hom-postlie", "left-shift-trivial")
    dendriform = catalog_algebra("hom-dendriform", "split-dual")
    for bound in (1, 20):
        with pytest.raises(InputError):
            brute_force_oop_search(a, adjoint_bimodule(ASSOC["null-square"]), bound)
        with pytest.raises(InputError):
            brute_force_oop_search(postlie, adjoint_postlie_module(postlie), bound)
        with pytest.raises(InputError):
            brute_force_rb_search(a, "x", bound)
        with pytest.raises(InputError):
            brute_force_rb_search(dendriform, 0, bound)
    with pytest.raises(BudgetError):
        brute_force_rb_search(a, 0, 20)


def test_forms_reject_an_unknown_that_does_not_fit_the_bound_names():
    # a 3 x 3 operator on a dim-2 algebra: an InputError, not an IndexError
    law, = _declare_identities()["rota-baxter"]
    env = {"mul": ASSOC["truncated-poly-2"].op("mul"), "weight": 0}
    misfit = r"'mul' of shape \(2, 2, 2\) takes length 2 .* 'r' of shape \(3, 3\) gives length 3"
    with pytest.raises(InputError, match=misfit):
        linear_rows([law], env, "r", [Matrix.zeros(3, 3)])
    for basis in ([], [Matrix.zeros(3, 3)]):
        with pytest.raises(InputError, match=misfit):
            quadratic_rows([law], {**env, "r": Matrix.zeros(3, 3)}, "r", basis)


def test_misfit_names_the_bound_name_that_gave_the_length():
    # the unknown 'mul' is 3 x 3 x 3 on a dim-2 Hom-Lie algebra: the length-2
    # vector it meets comes from 'alpha' (or 'bracket'), not from 'mul' itself
    lie = catalog_algebra("hom-lie", "affine-line")
    law, = (law for law in _declare_identities()["hom-postlie"]
            if law.name == "postlie-twisted-left-symmetry")
    env = {"bracket": lie.op("bracket"), "alpha": I2, "mul": Tensor3.zeros(3)}
    with pytest.raises(InputError, match=r"'mul' of shape \(3, 3, 3\) takes length 3 .* "
                                         r"('alpha' of shape \(2, 2\)|'bracket' of shape "
                                         r"\(2, 2, 2\)) gives length 2") as info:
        quadratic_rows([law], env, "mul", [])
    assert str(info.value).count("'mul'") == 1


def test_kernel_points_keep_the_points_where_every_form_vanishes():
    half = Fraction(1, 2)
    assert kernel_points(0, 1, [(0, {}, {})]) == [()]
    assert kernel_points(2, 1, []) == list(_box(2, 1))
    # c0 / 2 - c1: only even c0 survives
    assert kernel_points(2, 2, [(0, {0: half, 1: -1}, {})]) == [(-2, -1), (0, 0), (2, 1)]
    assert kernel_points(2, 1, [(half, {}, {})]) == []
    # c0 c1 - 1
    assert kernel_points(2, 1, [(-1, {}, {(0, 1): 1})]) == [(-1, -1), (1, 1)]


_coefficient = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def _forms(draw):
    d = draw(st.integers(0, 3))
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    form = st.tuples(_coefficient, st.dictionaries(st.sampled_from(range(d)), _coefficient)
                     if d else st.just({}),
                     st.dictionaries(st.sampled_from(pairs), _coefficient) if d else st.just({}))
    return d, draw(st.integers(0, 2)), draw(st.lists(form, max_size=3))


@settings(max_examples=200, deadline=None)
@given(_forms())
def test_kernel_points_equal_a_filtered_box(case):
    d, bound, forms = case

    def value(c, form):
        const, linear, quadratic = form
        return (const + sum(a * c[i] for i, a in linear.items())
                + sum(a * c[i] * c[j] for (i, j), a in quadratic.items()))

    found = kernel_points(d, bound, forms)
    assert found == [c for c in _box(d, bound) if all(value(c, f) == 0 for f in forms)]
    assert all(type(v) is int for c in found for v in c)


def test_rb_search_budget_needs_raw_box():
    a = ASSOC["truncated-poly-4"]
    with pytest.raises(BudgetError) as err:
        brute_force_rb_search(a, 0, 1)
    assert err.value.needed == 3 ** 16
    with pytest.raises(BudgetError) as err:
        brute_force_rb_search(a, 0, 0, max_candidates=0)
    assert err.value.needed == 1


def test_epsilon_search_budget_needs_raw_box():
    with pytest.raises(BudgetError) as err:
        brute_force_epsilon_bialgebras(ASSOC["truncated-poly-3"].op("mul"),
                                       Matrix.identity(3), 1)
    assert err.value.needed == 3 ** 27


def test_negative_entry_bound_is_input_error(dual_numbers):
    failing_mul = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})  # not Hom-associative
    searches = [lambda: brute_force_rb_search(dual_numbers, 0, -1),
                lambda: brute_force_oop_search(dual_numbers, adjoint_bimodule(dual_numbers), -1),
                lambda: brute_force_epsilon_bialgebras(dual_numbers.op("mul"), I2, -1),
                lambda: brute_force_epsilon_bialgebras(failing_mul, I2, -1)]
    for search in searches:
        with pytest.raises(InputError, match="entry_bound must be non-negative"):
            search()


def test_negative_combo_bound_is_input_error(affine_lie):
    searches = [lambda: postlie_search(affine_lie, -1),
                lambda: next(iter_postlie_candidates(affine_lie, -1))]
    for search in searches:
        with pytest.raises(InputError, match="combo_bound must be non-negative"):
            search()


# --- generators ------------------------------------------------------------------

def test_random_instance_deterministic():
    spec = RandomInstanceSpec("hom-lie", 2, 99, "yau-twist-catalog")
    a = random_instance(spec)
    b = random_instance(spec)
    assert a == b
    assert a.digest() == b.digest()


def test_random_instance_zero_product_certifies():
    for kind in ("hom-lie", "hom-postlie", "hom-l-dendriform"):
        a = random_instance(RandomInstanceSpec(kind, 3, 5, "zero-product"))
        assert check_axioms(a).passed
        assert all(t.is_zero() for t in a.ops.values())


def test_random_instance_catalog_examples():
    a = random_instance(RandomInstanceSpec("hom-associative", 2, 3, "hand-catalog"))
    assert check_axioms(a).passed and a.dim == 2
    lie = random_instance(RandomInstanceSpec("hom-lie", 2, 8, "yau-twist-catalog"))
    assert check_axioms(lie).passed


def test_random_instance_nullspace_sample():
    a = random_instance(RandomInstanceSpec("hom-postlie", 2, 17, "nullspace-sample"))
    assert a.kind == "hom-postlie"
    assert check_axioms(a).passed


def test_random_instance_unsupported():
    with pytest.raises(UnsupportedError):
        random_instance(RandomInstanceSpec("hom-l-dendriform", 3, 0, "hand-catalog"))
    with pytest.raises(UnsupportedError):
        random_instance(RandomInstanceSpec("hom-lie", 2, 0, "nullspace-sample"))


def test_corpus_deterministic_and_certified():
    c1 = corpus("hom-lie", 30, 3, 123)
    c2 = corpus("hom-lie", 30, 3, 123)
    assert c1 == c2
    assert all(check_axioms(a).passed for a in c1)
    dims = {a.dim for a in c1}
    assert dims == {1, 2, 3} or dims == {2, 3}


@pytest.mark.parametrize("name", ["assoc_corpus", "prelie_corpus",
                                  "postlie_corpus", "lie_corpus"])
def test_corpus_instances_distinct(name, request):
    c = request.getfixturevalue(name)
    assert len(c) == 100
    assert len({a.digest() for a in c}) == len(c)


def test_corpus_too_few_distinct_raises():
    # dim 1 holds only about a dozen distinct associative instances
    with pytest.raises(UnsupportedError) as info:
        corpus("hom-associative", 30, 1, 0)
    message = str(info.value)
    for part in ("hom-associative", "30", "max_dim=1", "found 16"):
        assert part in message


def test_corpus_rejects_max_dim_below_one():
    with pytest.raises(InputError):
        corpus("hom-associative", 1, 0, 0)
