"""The declared identities against the evaluators they replaced.

Every comparison asserts equal reports, and reprs equal to the oracle's once
its integral Fractions are ints: verdicts, witness indices and values match
what the hand-written evaluators produced, and every entry is an int exactly
when it is integral.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import closure_oracle as oracle
from homcert import functors, harness, hommod
from homcert.errors import CertificationError, InputError, PreconditionError
from homcert.exactlin import Matrix, Tensor3, basis_vec, nullspace, rref
from homcert.functors import adjoint_bimodule
from homcert.harness import _build_epsilon, _search_inputs
from homcert.homcore import (KIND_OPS, PREDICATES, CertReport, EpsilonHomBialgebra,
                             HomAlgebra, Identity, _declare_identities, _end_alpha_rows,
                             _epsilon_delta_rows, _epsilon_mul_rows, certify, check_axioms,
                             check_morphism, check_predicate, check_rota_baxter,
                             commuting_endomorphism_basis, convolution_operator,
                             convolution_rb, epsilon_prerequisites, linear_rows, unit_basis,
                             yau_twist)
from homcert.hommod import (MODULE_KINDS, HomModule, _module_env, adjoint_postlie_module,
                            check_module_axioms, check_oop, twist_beta)
from homcert.search import (CATALOG, TWISTED_LEFT_SYMMETRY, _postlie_law,
                            brute_force_epsilon_bialgebras, iter_postlie_candidates,
                            postlie_env, postlie_linear_system)

ENTRIES = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2)


def canonical(value):
    """value with every integral Fraction in it an int, through tuples,
    lists and dataclasses (reports, rows and witnesses)."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (tuple, list)):
        return type(value)(map(canonical, value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(value, **{f.name: canonical(getattr(value, f.name))
                                             for f in dataclasses.fields(value)})
    return value


def same(new, old):
    assert new == old
    assert repr(new) == repr(canonical(old))


def outcome(fn, *args):
    """The report, or the input error raised, as comparable values."""
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def assert_algebra_matches(a):
    same(check_axioms(a), oracle.check_axioms(a))
    for p in PREDICATES:
        same(outcome(check_predicate, a, p), outcome(oracle.check_predicate, a, p))
    same(CertReport.from_results(check_axioms(a).axioms
                                 + check_predicate(a, PREDICATES[0]).axioms),
         oracle.check_axioms(a, PREDICATES[:1]))


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_catalog_matches_oracle(kind):
    rng = random.Random(kind)
    for entry in CATALOG[kind]:
        a = entry.algebra
        assert_algebra_matches(a)
        g = entry.endo(rng)
        same(check_morphism(g, a, a), oracle.check_morphism(g, a, a))
        if len(a.ops) == 1:
            for weight in (0, -1, Fraction(1, 2)):
                same(check_rota_baxter(a, g, weight), oracle.check_rota_baxter(a, g, weight))


def test_session_corpora_match_oracle(assoc_corpus, prelie_corpus, postlie_corpus,
                                      lie_corpus):
    for corpus in (assoc_corpus, prelie_corpus, postlie_corpus, lie_corpus):
        for a in corpus:
            assert_algebra_matches(a)


def test_search_consistency_candidates_match_oracle():
    for _, lie, bound in _search_inputs():
        br = lie.op("bracket")
        for _, mul in iter_postlie_candidates(lie, bound):
            candidate = HomAlgebra(lie.dim, "hom-postlie", {"bracket": br, "mul": mul},
                                   lie.alpha)
            same(check_axioms(candidate), oracle.check_axioms(candidate))
            row, = certify([_postlie_law(TWISTED_LEFT_SYMMETRY)], postlie_env(lie, mul))
            assert (row.passed
                    == oracle.twisted_left_symmetry_holds(mul, br, lie.alpha, lie.dim))
            if br.is_zero():
                prelie = HomAlgebra(lie.dim, "hom-prelie", {"mul": mul}, lie.alpha)
                same(check_axioms(prelie), oracle.check_axioms(prelie))


def test_linear_system_matches_hand_expansion(lie_corpus):
    for a in [e.algebra for e in CATALOG["hom-lie"]] + lie_corpus[:30]:
        same(postlie_linear_system(a), oracle.postlie_linear_system(a))


def test_rota_baxter_weights_match_oracle():
    """Integral data with a Fraction weight (every coordinate of the weighted
    term turns Fraction) and a zero weight (the term is left out, not added
    as Fraction zeros), where most reports carry a witness."""
    rng = random.Random(3)
    for trial in range(600):
        n = rng.choice((1, 2))
        values = ENTRIES if trial % 2 else (0, 1, -1, 2)
        mul = Tensor3(n, n, n, [rng.choice(values) for _ in range(n ** 3)])
        r = Matrix([[rng.choice((0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
        a = HomAlgebra(n, "hom-associative", {"mul": mul}, Matrix.identity(n))
        for weight in (0, Fraction(1, 2), Fraction(-1, 2), 2):
            same(check_rota_baxter(a, r, weight), oracle.check_rota_baxter(a, r, weight))


# -- random structures -------------------------------------------------------

entries = st.sampled_from(ENTRIES)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([k for k in KIND_OPS if k != "generic"]))

    def tensor():
        return Tensor3(n, n, n, draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3)))

    def matrix():
        return Matrix([draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)])

    a = HomAlgebra(n, kind, {name: tensor() for name in KIND_OPS[kind]}, matrix())
    return a, matrix(), draw(st.sampled_from(ENTRIES)), tensor()


# alpha(e1).e1 and e1.alpha(e1) cancel to Fraction(0): a coproduct row skips
# that factor, so no Fraction zero reaches a witness
CANCELLING = HomAlgebra(2, "hom-associative", {"mul": Tensor3.from_nested(
    [[[1, 0], [Fraction(-1, 2), 0]], [[Fraction(-1, 2), 0], [0, 0]]])}, Matrix([[1, 0], [2, 1]]))


@settings(max_examples=150, deadline=None)
@given(structures(), st.randoms(use_true_random=False))
@example((CANCELLING, Matrix.identity(2), 0, Tensor3.from_nested(
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])), random.Random(0))
def test_random_structures_match_oracle(data, rnd):
    a, op, weight, delta = data
    assert_algebra_matches(a)
    same(check_morphism(op, a, a), oracle.check_morphism(op, a, a))
    if len(a.ops) == 1:
        same(check_rota_baxter(a, op, weight), oracle.check_rota_baxter(a, op, weight))
    mul = next(iter(a.ops.values()))
    b = EpsilonHomBialgebra(a.dim, mul, delta, a.alpha)
    same(epsilon_prerequisites(b), oracle.epsilon_prerequisites(b))
    # the bound identity called on arbitrary rational vectors, not just basis tuples
    for new, old in zip([Identity(law, {**a.ops, "alpha": a.alpha})
                         for law in _declare_identities()[a.kind]], oracle.kind_axioms(a)):
        vectors = [tuple(rnd.choice(ENTRIES) for _ in range(a.dim))
                   for _ in range(new.law.arity)]
        assert (new.name, new.law.arity) == (old.name, old.arity)
        same(new(*vectors), old.evaluate(*vectors))


# -- module axioms ------------------------------------------------------------

def assert_module_matches(m):
    for strict in (False, True):
        same(check_module_axioms(m, strict), oracle.check_module_axioms(m, strict))


@pytest.fixture(scope="module")
def corpus_modules():
    """Every distinct module certified during a small corpus pass."""
    seen = {}

    def collect(m, strict_twist_commute=False):
        seen.setdefault(m.digest(), m)
        return check_module_axioms(m, strict_twist_commute)

    with pytest.MonkeyPatch.context() as mp:
        for namespace in (hommod, functors):
            mp.setattr(namespace, "check_module_axioms", collect)
        harness.run_corpus_certification(4, 3, 2)
    return list(seen.values())


def test_corpus_modules_match_oracle(corpus_modules):
    assert {m.kind for m in corpus_modules} >= {
        "assoc-bimodule", "ldend-bimodule", "lie-representation", "postlie-module",
        "prelie-bimodule"}
    assert any(m.mdim > m.algebra.dim for m in corpus_modules)
    for m in corpus_modules:
        assert_module_matches(m)


def bumped(m, name, i, r, c):
    family = list(m.actions[name])
    rows = [list(row) for row in family[i].data]
    rows[r][c] += 1
    family[i] = Matrix(rows)
    return HomModule(m.algebra, m.mdim, m.beta, {**m.actions, name: tuple(family)}, m.kind)


def test_bumped_corpus_modules_fail_alike(corpus_modules):
    """Bump one action entry at a time, in order, until the module fails;
    every report on the way matches the oracle's."""
    broken = 0
    for m in corpus_modules:
        for name, i, r, c in itertools.product(sorted(m.actions), range(m.algebra.dim),
                                               range(m.mdim), range(m.mdim)):
            report = check_module_axioms(bumped(m, name, i, r, c))
            same(report, oracle.check_module_axioms(bumped(m, name, i, r, c)))
            if not report.passed:
                broken += 1
                break
    # most break; a module over a one-dimensional abelian algebra may not
    assert broken > len(corpus_modules) * 3 // 4


def test_module_without_carrier_matches_oracle(dual_numbers, affine_lie):
    algebras = {"hom-associative": dual_numbers, "hom-lie": affine_lie}
    for kind, (alg_kind, names) in MODULE_KINDS.items():
        a = algebras[alg_kind] if alg_kind in algebras else HomAlgebra(
            1, alg_kind, {op: Tensor3.zeros(1) for op in KIND_OPS[alg_kind]}, Matrix.identity(1))
        m = HomModule(a, 0, Matrix.zeros(0, 0),
                      {name: (Matrix.zeros(0, 0),) * a.dim for name in names}, kind)
        assert check_module_axioms(m, True).passed
        assert_module_matches(m)


@st.composite
def modules(draw):
    kind = draw(st.sampled_from(sorted(MODULE_KINDS)))
    alg_kind, names = MODULE_KINDS[kind]
    n, mdim = draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def matrix(size):
        return Matrix([draw(st.lists(entries, min_size=size, max_size=size))
                       for _ in range(size)])

    ops = {op: Tensor3(n, n, n, draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3)))
           for op in KIND_OPS[alg_kind]}
    a = HomAlgebra(n, alg_kind, ops, matrix(n))
    actions = {name: tuple(matrix(mdim) for _ in range(n)) for name in names}
    return HomModule(a, mdim, matrix(mdim), actions, kind)


@settings(max_examples=200, deadline=None)
@given(modules())
def test_random_modules_match_oracle(m):
    assert_module_matches(m)
    # a declared module law also evaluates on vectors: at a witness's basis
    # vectors (carrier last) it gives the witness's sides
    group = m.kind + ("-literal" if m.kind == "postlie-module" else "")
    specs = {law.name: Identity(law, _module_env(m)) for law in _declare_identities()[group]}
    for row in check_module_axioms(m, True).failing():
        *alg, v = row.witness.indices
        vectors = [basis_vec(m.algebra.dim, i - 1) for i in alg] + [basis_vec(m.mdim, v - 1)]
        same(specs[row.name](*vectors), (row.witness.lhs, row.witness.rhs))


# -- epsilon coproduct rows and the convolution operator ------------------------

@pytest.mark.parametrize("box", _build_epsilon(0, 0, 0), ids=lambda box: box[0])
def test_epsilon_box_matches_oracle(box):
    """Every point of the box: the coproduct rows at each point, and the
    whole report (product rows included, which do not depend on the
    coproduct) at the first point and wherever the prerequisites pass."""
    _, mul, alpha = box
    n = mul.d1
    for flat in itertools.product((-1, 0, 1), repeat=n ** 3):
        b = EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, flat), alpha)
        same(CertReport.from_results(_epsilon_delta_rows(b)),
             CertReport.from_results(oracle.epsilon_delta_rows(b)))
    first = EpsilonHomBialgebra(n, mul, Tensor3.zeros(n), alpha)
    for b in [first] + brute_force_epsilon_bialgebras(mul, alpha, 1):
        same(epsilon_prerequisites(b), oracle.epsilon_prerequisites(b))
        same(convolution_rb(b), oracle.convolution_rb(b))


def random_bialgebra(rng, n):
    """Fraction entries throughout; a quarter of the coproducts are zero."""
    mul = Tensor3(n, n, n, [rng.choice(ENTRIES) for _ in range(n ** 3)])
    zero = rng.random() < 0.25
    delta = Tensor3(n, n, n, [0 if zero or rng.random() < 0.5 else rng.choice(ENTRIES)
                              for _ in range(n ** 3)])
    return EpsilonHomBialgebra(n, mul, delta, involution_like(rng, n))


def test_convolution_rows_on_random_bialgebras_match_oracle():
    """The convolution operator and the End_alpha rows, not gated by the
    prerequisites, on a basis of End_alpha or on matrices that need not
    commute with the twist; each row is seen passing and failing."""
    rng = random.Random(17)
    verdicts = set()
    for trial in range(150):
        n = rng.choice((1, 2, 2, 3))
        b = random_bialgebra(rng, n)
        f = Matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
        same(convolution_operator(b, f), oracle.convolution_operator(b, f))
        basis = (commuting_endomorphism_basis(b.alpha) if trial % 2 else
                 [Matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
                  for _ in range(rng.choice((1, 2, 3)))])
        rows = CertReport.from_results(_end_alpha_rows(b, basis))
        same(rows, CertReport.from_results(oracle.end_alpha_rows(b, basis)))
        verdicts.update((row.name, row.passed) for row in rows.axioms)
    assert verdicts == {(name, passed) for passed in (True, False) for name in (
        "endalg-hom-associative", "convolution-closed", "convolution-rota-baxter")}


# -- O-operators, matrix rows and the linear systems ------------------------------

def oop_modules():
    """Adjoint modules of every dim-2 associative, preLie and Lie catalog
    algebra and of a Yau twist of each (a twist other than the identity)."""
    rng = random.Random(7)
    out = []
    for kind in ("hom-associative", "hom-prelie", "hom-lie"):
        for entry in CATALOG[kind]:
            if entry.algebra.dim == 2:
                out.append(adjoint_bimodule(entry.algebra))
                out.append(adjoint_bimodule(yau_twist(entry.algebra, entry.endo(rng))))
    return out


def test_oop_boxes_match_oracle():
    """Every point of each bound-1 O-operator box, failing points included."""
    modules = oop_modules()
    assert {m.kind for m in modules} == {"assoc-bimodule", "prelie-bimodule",
                                         "lie-representation"}
    verdicts = set()
    for m in modules:
        for flat in itertools.product((-1, 0, 1), repeat=4):
            t = Matrix([flat[:2], flat[2:]])
            report = check_oop(t, m)
            same(report, oracle.check_oop(t, m))
            verdicts.add(tuple(row.passed for row in report.axioms))
    # passing operators, and failures of each row alone
    assert {(True, True), (True, False), (False, True)} <= verdicts


@st.composite
def oop_inputs(draw):
    kind = draw(st.sampled_from(sorted(MODULE_KINDS)))
    alg_kind, names = MODULE_KINDS[kind]
    n, mdim = draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        return Matrix([draw(st.lists(entries, min_size=cols, max_size=cols))
                       for _ in range(rows)])

    ops = {op: Tensor3(n, n, n, draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3)))
           for op in KIND_OPS[alg_kind]}
    a = HomAlgebra(n, alg_kind, ops, matrix(n, n))
    actions = {name: tuple(matrix(mdim, mdim) for _ in range(n)) for name in names}
    m = HomModule(a, mdim, matrix(mdim, mdim), actions, kind)
    rows, cols = draw(st.sampled_from([(n, mdim)] * 4 + [(mdim, n), (n, mdim + 1)]))
    return matrix(rows, cols), m


@settings(max_examples=300, deadline=None)
@given(oop_inputs())
def test_random_oop_match_oracle(data):
    """Fraction entries and carrier dimension apart from the algebra's: a
    variable typed with the wrong space, or an action column left raw, shows
    up as a different report or an error."""
    t, m = data
    same(outcome(check_oop, t, m), outcome(oracle.check_oop, t, m))


# -- products, maps and operators bound to zero --------------------------------------

@st.composite
def zero_bound_inputs(draw):
    """An algebra of any kind at dims 1-3 and an operator r on it, and an
    O-operator module whose products, twists and actions are each zero or
    random, with an operator T into its algebra."""
    n = draw(st.sampled_from((1, 2, 3)))

    def tensor(zero=False):
        return (Tensor3.zeros(n) if zero else
                Tensor3(n, n, n, draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3))))

    def matrix(rows, cols, zero=False):
        return (Matrix.zeros(rows, cols) if zero else
                Matrix([draw(st.lists(entries, min_size=cols, max_size=cols))
                        for _ in range(rows)]))

    kind = draw(st.sampled_from([k for k in KIND_OPS if k != "generic"]))
    a = HomAlgebra(n, kind, {name: tensor() for name in KIND_OPS[kind]}, matrix(n, n))
    module_kind = draw(st.sampled_from(sorted(hommod.OOP_LAWS)))
    alg_kind, names = MODULE_KINDS[module_kind]
    mdim = draw(st.integers(1, 2))
    base = HomAlgebra(n, alg_kind, {name: tensor(draw(st.booleans()))
                                    for name in KIND_OPS[alg_kind]},
                      matrix(n, n, draw(st.booleans())))
    actions = {name: tuple(matrix(mdim, mdim, draw(st.booleans())) for _ in range(n))
               for name in names}
    m = HomModule(base, mdim, matrix(mdim, mdim, draw(st.booleans())), actions, module_kind)
    return a, matrix(n, n), m, matrix(n, mdim)


def zeroed(a, names):
    """a with each product or twist named in ``names`` bound to zero."""
    ops = {name: Tensor3.zeros(a.dim) if name in names else t for name, t in a.ops.items()}
    return HomAlgebra(a.dim, a.kind, ops,
                      Matrix.zeros(a.dim, a.dim) if "alpha" in names else a.alpha)


ZERO_PRODUCT = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)},
                          Matrix([[1, 2], [0, -1]]))
# with tright zeroed, only the left side of l-dendriform-left vanishes
LDEND = HomAlgebra(2, "hom-l-dendriform", {name: Tensor3(2, 2, 2, [1, 2, 0, 1, 1, 0, 0, 3])
                                          for name in ("tleft", "tright")}, Matrix.identity(2))


@settings(max_examples=100, deadline=None)
@given(zero_bound_inputs())
@example((ZERO_PRODUCT, Matrix.identity(2), adjoint_bimodule(ZERO_PRODUCT),
          Matrix.identity(2)))
@example((LDEND, Matrix.identity(2), adjoint_bimodule(ZERO_PRODUCT), Matrix.identity(2)))
def test_zero_bound_structures_match_oracle(data):
    """Rows whose law a zero-bound product or map annihilates pass without a
    walk; every report still equals the oracle's, witnesses included.  The
    algebra is checked with every subset of its products and twist zeroed,
    and r and T also as zero."""
    a, r, m, t = data
    names = [*a.ops, "alpha"]
    for zeros in itertools.chain.from_iterable(
            itertools.combinations(names, k) for k in range(len(names) + 1)):
        b = zeroed(a, zeros)
        assert_algebra_matches(b)
        if len(b.ops) == 1:
            for op in (r, Matrix.zeros(b.dim, b.dim)):
                for weight in (0, Fraction(1, 2)):
                    same(check_rota_baxter(b, op, weight),
                         oracle.check_rota_baxter(b, op, weight))
    for op in (t, Matrix.zeros(t.rows, t.cols)):
        same(check_oop(op, m), oracle.check_oop(op, m))


def involution_like(rng, n):
    """A random twist, half of the time an involution: +-1 on the diagonal
    and blocks [[0, q], [1/q, 0]]."""
    if rng.random() < 0.5:
        return Matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.5:
            q = Fraction(rng.choice((1, 2, -1, Fraction(1, 2))))
            rows[i][i + 1], rows[i + 1][i] = q, 1 / q
            i += 2
        else:
            rows[i][i] = rng.choice((1, -1))
            i += 1
    return Matrix(rows)


def test_matrix_rows_on_random_twists_match_oracle():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        n = rng.choice((1, 2, 3))
        alpha = involution_like(rng, n)
        mul = Tensor3(n, n, n, [rng.choice(ENTRIES) for _ in range(n ** 3)])
        b = EpsilonHomBialgebra(n, mul, Tensor3.zeros(n), alpha)
        rows = CertReport.from_results(_epsilon_mul_rows(b))
        same(rows, CertReport.from_results(oracle.epsilon_mul_rows(b)))
        a = HomAlgebra(n, "hom-associative", {"mul": mul}, alpha)
        # r a polynomial in alpha commutes with it; a random r mostly does not
        r = (Matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
             if rng.random() < 0.5 else alpha.power(2).scale(rng.choice(ENTRIES)) + alpha)
        for weight in (0, Fraction(1, 2)):
            same(check_rota_baxter(a, r, weight), oracle.check_rota_baxter(a, r, weight))
        morphism = check_morphism(r, a, a)
        same(morphism, oracle.check_morphism(r, a, a))
        for row in (rows.axiom("involutive-twist"), morphism.axiom("intertwines-twists"),
                    check_rota_baxter(a, r, 0).axiom("commutes-with-twist")):
            verdicts.add((row.name, row.passed, row.witness and row.witness.indices))
    for name in ("involutive-twist", "intertwines-twists", "commutes-with-twist"):
        assert {(name, True, None), (name, False, (1,)), (name, False, (2,))} <= verdicts


def twist_outcome(m, b, bm, oracle_checks):
    """The PreconditionError message of twist_beta's carrier-map checks, or
    "ok" when they pass."""
    try:
        if oracle_checks:
            oracle.twist_beta_preconditions(m, b, bm)
        else:
            twist_beta(m, b, bm)
    except PreconditionError as exc:
        return str(exc)
    except CertificationError:
        pass
    return "ok"


def test_twist_beta_preconditions_match_oracle():
    rng = random.Random(5)
    modules = [adjoint_postlie_module(e.algebra) for e in CATALOG["hom-postlie"]]
    messages = set()
    for trial in range(120):
        m = modules[trial % len(modules)]
        n = m.mdim
        if trial % 3 == 0:  # a module twist other than the identity
            beta = Matrix([[rng.choice((1, 2)) if i == j else 0 for j in range(n)]
                           for i in range(n)])
            m = HomModule(m.algebra, n, beta, m.actions, m.kind)
        bm = Matrix([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
        if trial % 2:
            bm = Matrix([[bm[i, j] if i == j else 0 for j in range(n)] for i in range(n)])
        b = m.algebra.alpha
        assert twist_outcome(m, b, bm, False) == twist_outcome(m, b, bm, True)
        messages.add(twist_outcome(m, b, bm, False))
    assert "bM does not commute with the module twist" in messages
    assert any("(basis index 2)" in msg or "(basis index 3)" in msg for msg in messages)


def test_twist_beta_names_the_first_unintertwined_index():
    """bM commutes with beta (the identity) but moves e1 to e2, which the
    diamond action of e3 tells apart: the first failing index is reported."""
    m = adjoint_postlie_module(next(e.algebra for e in CATALOG["hom-postlie"]
                                    if e.name == "skew-pair-postlie"))
    bm = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(PreconditionError) as err:
        twist_beta(m, m.algebra.alpha, bm)
    expected = twist_outcome(m, m.algebra.alpha, bm, True)
    assert str(err.value) == expected and "(basis index" in expected


def test_twist_beta_rejects_a_carrier_map_of_the_wrong_shape():
    m = adjoint_postlie_module(next(e.algebra for e in CATALOG["hom-postlie"]
                                    if e.name == "skew-pair-postlie"))
    for bm in (Matrix.identity(2), Matrix([[1, 0], [0, 1], [0, 0]])):
        with pytest.raises(InputError):
            twist_beta(m, m.algebra.alpha, bm)


def flat_difference(sides):
    lhs, rhs = sides
    return [v for row in (lhs - rhs).data for v in row]


def assert_same_kernel(system, hand):
    """Equal nullspace bases and equal nonzero rows of the reduced echelon
    form: the same row space, whatever order the rows come in."""
    assert nullspace(system) == nullspace(hand)
    (reduced, pivots), (hand_reduced, hand_pivots) = rref(system), rref(hand)
    assert pivots == hand_pivots
    assert reduced.data[:len(pivots)] == hand_reduced.data[:len(pivots)]


def test_linear_rows_match_hand_systems():
    rng = random.Random(13)
    laws = _declare_identities()
    for trial in range(60):
        n = rng.choice((1, 2, 3))
        alpha = Matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
        if trial % 2:
            alpha = involution_like(rng, n)

        def as_matrix(flat, rows, cols):
            return Matrix([flat[r * cols:(r + 1) * cols] for r in range(rows)])

        # the Rota-Baxter twist row, and commuting_endomorphism_basis
        system = linear_rows(laws["commutes-with-twist"], {"alpha": alpha}, "r",
                             unit_basis((n, n)))
        hand = oracle.residual_system(lambda flat: flat_difference(
            oracle.rb_twist_sides(alpha, as_matrix(flat, n, n))), n * n)
        assert_same_kernel(system, hand)
        same(commuting_endomorphism_basis(alpha), oracle.commuting_endomorphism_basis(alpha))
        # the O-operator twist row, carrier dimension apart from the algebra's
        mdim = rng.choice((1, 2, 3))
        beta = Matrix([[rng.choice(ENTRIES) for _ in range(mdim)] for _ in range(mdim)])
        a = HomAlgebra(n, "hom-lie", {"bracket": Tensor3.zeros(n)}, alpha)
        m = HomModule(a, mdim, beta, {"rho": (Matrix.zeros(mdim, mdim),) * n},
                      "lie-representation")
        system = linear_rows(laws["oop-twist-compat"], {"alpha": alpha, "beta": beta}, "T",
                             unit_basis((n, mdim)))
        hand = oracle.residual_system(lambda flat: flat_difference(
            oracle.oop_twist_sides(as_matrix(flat, n, mdim), m)), n * mdim)
        assert_same_kernel(system, hand)
        # the coproduct search's rows, linear in the n^2 x n map Delta, whose
        # cell r*n+i is the hand system's delta position i*n^2+r
        mul = Tensor3(n, n, n, [rng.choice(ENTRIES) for _ in range(n ** 3)])
        system = linear_rows(laws["epsilon-coproduct"][1:], {"mul": mul, "alpha": alpha},
                             "Delta", unit_basis((n * n, n)))
        system = Matrix.from_columns([system.column(r * n + i)
                                      for i in range(n) for r in range(n * n)])
        hand = oracle.residual_system(lambda flat: oracle._epsilon_linear_residual(
            EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, flat), alpha)), n ** 3)
        same(system, hand)  # rows in the same order too
        if trial % 5 == 0:
            assert_same_kernel(system, hand)
