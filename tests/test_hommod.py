"""Module structures: axiom systems, constructions, twists, O-operators."""

import itertools

import pytest

from homcert.errors import InputError, PreconditionError
from homcert.exactlin import Matrix, Tensor3
from homcert.homcore import (CertReport, HomAlgebra, _declare_identities, certify,
                             check_axioms, yau_twist)
from homcert.hommod import (HomModule, _module_env, adjoint_postlie_module,
                            bimodule_to_lie_module, check_module_axioms,
                            check_oop, direct_sum, tensor_product, twist_0k,
                            twist_beta, twist_beta_data, twist_n0)
from homcert.functors import adjoint_bimodule
from homcert.search import sc_tensor

from conftest import catalog_algebra

I2 = Matrix.identity(2)


def zero_module(algebra, kind, names, mdim=2, beta=None):
    actions = {n: tuple(Matrix.zeros(mdim, mdim) for _ in range(algebra.dim))
               for n in names}
    return HomModule(algebra, mdim, beta or Matrix.identity(mdim), actions, kind)


def test_zero_actions_pass_every_kind(dual_numbers, affine_lie):
    prelie = catalog_algebra("hom-prelie", "left-shift")
    postlie = catalog_algebra("hom-postlie", "skew-pair-postlie")
    ldend = catalog_algebra("hom-l-dendriform", "split-dual-ld")
    beta = Matrix([[1, 1], [0, 2]])
    cases = [
        zero_module(dual_numbers, "assoc-bimodule", ("l", "r"), beta=beta),
        zero_module(affine_lie, "lie-module", ("rho",), beta=beta),
        zero_module(affine_lie, "lie-representation", ("rho",), beta=beta),
        zero_module(prelie, "prelie-bimodule", ("l", "r"), beta=beta),
        zero_module(postlie, "postlie-module", ("diamond", "bullet"), beta=beta),
        zero_module(ldend, "ldend-bimodule", ("lt", "rt", "lr", "rr"), beta=beta),
    ]
    for m in cases:
        assert check_module_axioms(m).passed, m.kind


def test_adjoint_bimodule_certifies(dual_numbers, affine_lie):
    assert check_module_axioms(adjoint_bimodule(dual_numbers)).passed
    assert check_module_axioms(adjoint_bimodule(affine_lie)).passed
    prelie = catalog_algebra("hom-prelie", "left-shift")
    assert check_module_axioms(adjoint_bimodule(prelie)).passed
    ldend = catalog_algebra("hom-l-dendriform", "split-dual-ld")
    assert check_module_axioms(adjoint_bimodule(ldend)).passed


def test_module_kind_algebra_mismatch(dual_numbers):
    with pytest.raises(InputError):
        zero_module(dual_numbers, "lie-module", ("rho",))


def test_lie_module_twist_compat_counterexample():
    """Brute force over {0,1} matrices finds an action satisfying the bracket
    equation whose twist fails the compatibility equation."""
    abelian = catalog_algebra("hom-lie", "abelian-2")
    found = None
    binary = [Matrix([[a, b], [c, d]])
              for a, b, c, d in itertools.product((0, 1), repeat=4)]
    for rho1, beta in itertools.product(binary, repeat=2):
        m = HomModule(abelian, 2, beta,
                      {"rho": (rho1, Matrix.zeros(2, 2))}, "lie-module")
        report = check_module_axioms(m)
        bracket_ok = report.axiom("lie-action").passed
        twist_ok = report.axiom("module-twist-compat").passed
        if bracket_ok and not twist_ok:
            found = report
            break
    assert found is not None
    assert found.axiom("module-twist-compat").witness is not None


def test_bimodule_to_lie_module(dual_numbers):
    bim = adjoint_bimodule(dual_numbers)
    lie_mod = bimodule_to_lie_module(bim)
    # dual numbers are commutative: l = r, so the action collapses to zero
    assert all(mat.is_zero() for mat in lie_mod.action("rho"))
    assert check_module_axioms(lie_mod).passed


def test_bimodule_to_lie_module_noncommutative():
    # upper-triangular 2x2 matrices: e1 = E11, e2 = E12, e1 e2 = e2, e2 e1 = 0
    t = sc_tensor(2, {(0, 0): {0: 1}, (0, 1): {1: 1}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    assert check_axioms(a).passed
    lie_mod = bimodule_to_lie_module(adjoint_bimodule(a))
    assert not all(mat.is_zero() for mat in lie_mod.action("rho"))
    assert check_module_axioms(lie_mod).passed


def test_adjoint_postlie_module_tautological():
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    m = adjoint_postlie_module(l, 0)
    br, mul = l.op("bracket"), l.op("mul")
    for i in range(l.dim):
        assert m.action("diamond")[i] == br.left_mult_matrix(i)
        assert m.action("bullet")[i] == mul.left_mult_matrix(i)
    assert m.beta == l.alpha


def test_adjoint_postlie_module_requires_multiplicative():
    mul = sc_tensor(2, {(0, 0): {1: 1}})
    l = HomAlgebra(2, "hom-postlie",
                   {"bracket": Tensor3.zeros(2), "mul": mul},
                   Matrix([[1, 1], [0, 1]]))
    assert check_axioms(l).passed
    with pytest.raises(PreconditionError):
        adjoint_postlie_module(l, 1)


@pytest.fixture(scope="module")
def postlie_self_module():
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    return adjoint_postlie_module(l, 0)


def test_direct_sum_with_zero_module(postlie_self_module):
    m = postlie_self_module
    z = zero_module(m.algebra, "postlie-module", ("diamond", "bullet"), mdim=1,
                    beta=Matrix.identity(1))
    s = direct_sum(m, z)
    assert s.mdim == m.mdim + 1
    for i in range(m.algebra.dim):
        for name in ("diamond", "bullet"):
            top_left = Matrix([row[:m.mdim]
                               for row in s.action(name)[i].data[:m.mdim]])
            assert top_left == m.action(name)[i]


def test_direct_sum_algebra_mismatch(postlie_self_module):
    other = catalog_algebra("hom-postlie", "left-shift-trivial")
    m2 = adjoint_postlie_module(other, 0)
    with pytest.raises(InputError):
        direct_sum(postlie_self_module, m2)


def test_tensor_with_trivial_line(postlie_self_module):
    m = postlie_self_module
    one = zero_module(m.algebra, "postlie-module", ("diamond", "bullet"),
                      mdim=1, beta=Matrix.identity(1))
    prod = tensor_product(m, one, 1)
    assert prod.mdim == m.mdim
    a = m.algebra
    ak = a.alpha
    for i in range(a.dim):
        expected = m.act("diamond", ak.column(i))
        assert prod.action("diamond")[i] == expected


def test_tensor_product_corollary_formula(postlie_self_module):
    """x . (y (x) z) = [a(x), y] (x) a(z) + a(y) (x) [a(x), z] on L (x) L."""
    m = postlie_self_module
    l = m.algebra
    prod = tensor_product(m, m, 1)
    br = l.op("bracket")
    al = l.alpha
    n = l.dim
    for i in range(n):
        ad_alpha = Matrix.zeros(n, n)
        for p, w in enumerate(al.column(i)):
            if w:
                ad_alpha = ad_alpha + br.left_mult_matrix(p).scale(w)
        expected = ad_alpha.kron(al) + al.kron(ad_alpha)
        assert prod.action("diamond")[i] == expected


def test_twists_trivial_cases(postlie_self_module):
    m = postlie_self_module
    assert twist_n0(m, 0) == m
    algebra, module = twist_0k(m, 0)
    assert algebra == m.algebra and module == m


def test_twist_n0_nilpotent_twist():
    mul = sc_tensor(2, {(0, 1): {1: 1}})
    l = HomAlgebra(2, "hom-postlie", {"bracket": Tensor3.zeros(2), "mul": mul}, I2)
    m = adjoint_postlie_module(l, 0)
    # precomposing with alpha^n keeps certification for every n
    assert check_module_axioms(twist_n0(m, 2)).passed


def test_twist_beta_matches_composite(postlie_self_module):
    m = postlie_self_module
    l = m.algebra
    for n, k in itertools.product((0, 1, 2), (0, 1)):
        _, via_beta = twist_beta_data(m, l.alpha.power(n), m.beta.power(2 ** k - 1))
        _, composite = twist_0k(twist_n0(m, n), k)
        assert dict(via_beta.actions) == dict(composite.actions)
        assert via_beta.beta == composite.beta


def test_twist_beta_checked_alpha(postlie_self_module):
    m = postlie_self_module
    algebra, module = twist_beta(m, m.algebra.alpha, m.beta)
    assert check_axioms(algebra).passed
    assert check_module_axioms(module).passed


def test_twist_beta_rejects_non_endomorphism(postlie_self_module):
    bad = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 3]])
    with pytest.raises(PreconditionError):
        twist_beta(postlie_self_module, bad, postlie_self_module.beta)


def test_twist_beta_rejects_incompatible_carrier_map(postlie_self_module):
    m = postlie_self_module
    good_b = m.algebra.alpha  # identity here
    # e1 -> e2 does not intertwine the bracket actions: [e2, -] kills e2 but
    # not e1, so bM(diamond) and diamond(bM) differ
    bad_bm = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(PreconditionError):
        twist_beta(m, good_b, bad_bm)


# --- O-operators --------------------------------------------------------------

def test_check_oop_zero_everywhere(dual_numbers, affine_lie):
    prelie = catalog_algebra("hom-prelie", "left-shift")
    for a in (dual_numbers, prelie):
        m = adjoint_bimodule(a)
        assert check_oop(Matrix.zeros(a.dim, m.mdim), m).passed
    rep = adjoint_bimodule(affine_lie)
    assert check_oop(Matrix.zeros(2, 2), rep).passed


def test_check_oop_rb_correspondence(dual_numbers):
    m = adjoint_bimodule(dual_numbers)
    assert check_oop(Matrix([[0, 0], [1, 0]]), m).passed
    assert not check_oop(Matrix([[0, 1], [0, 0]]), m).passed


def test_bimodule_to_lie_module_corpus(assoc_corpus):
    for a in assoc_corpus[:40]:
        lie_mod = bimodule_to_lie_module(adjoint_bimodule(a))
        assert check_module_axioms(lie_mod).passed


def test_literal_twist_commute_rows():
    """The literal printed form of the first module axiom (module twist
    commuting with each action) fails on genuinely twisted instances that the
    adopted element-form axioms certify; no certifier reads its rows."""
    base = catalog_algebra("hom-postlie", "skew-pair-postlie")
    twisted = yau_twist(base, Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 1]]))
    m = adjoint_postlie_module(twisted, 0)
    assert check_module_axioms(m).passed
    literal = CertReport.from_results(
        certify(_declare_identities()["postlie-module-literal"], _module_env(m)))
    assert not literal.passed
    assert not literal.axiom("literal-twist-commute-diamond").passed


def test_check_oop_requires_twist_compat():
    a = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)},
                   Matrix([[1, 0], [0, 2]]))
    m = HomModule(a, 2, I2,
                  {"l": (Matrix.zeros(2, 2),) * 2, "r": (Matrix.zeros(2, 2),) * 2},
                  "assoc-bimodule")
    report = check_oop(Matrix([[0, 0], [1, 0]]), m)
    assert report.axiom("o-operator-associative").passed
    assert not report.axiom("oop-twist-compat").passed
