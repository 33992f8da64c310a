"""Construct-then-certify functors: frozen examples and corpus checks."""

import pytest

from homcert.errors import InputError, PreconditionError
from homcert.exactlin import Matrix, Tensor3, basis_vec, bilinear_eval, vec_add, vec_sub
from homcert.homcore import HomAlgebra, check_axioms, check_predicate
from homcert.functors import (adjoint_bimodule, commutator_lie,
                              horizontal_tensor, ldend_brackets, ldend_semidirect,
                              ldend_to_prelie, ldend_transpose,
                              novikov_to_postlie, oop_assoc_to_dendriform,
                              oop_assoc_to_ldendriform, oop_assoc_to_prelie,
                              oop_lie_to_prelie, oop_prelie_to_dendriform,
                              prelie_module_split, prelie_to_lie,
                              rb_dendriform, reassemble_ldendriform, scale,
                              vertical_tensor)
from homcert.hommod import HomModule, check_module_axioms
from homcert.search import brute_force_oop_search, brute_force_rb_search, sc_tensor

from conftest import catalog_algebra

I2 = Matrix.identity(2)


def test_commutator_lie_commutative_gives_zero(dual_numbers):
    result = commutator_lie(dual_numbers)
    assert result.passed
    assert result.output.op("bracket").is_zero()


def test_commutator_lie_corpus(assoc_corpus):
    assert all(commutator_lie(a).passed for a in assoc_corpus)


def test_commutator_lie_rejects_uncertified():
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    bad = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    with pytest.raises(PreconditionError):
        commutator_lie(bad)


def test_prelie_to_lie_agrees_with_commutator(dual_numbers):
    as_prelie = HomAlgebra(2, "hom-prelie", {"mul": dual_numbers.op("mul")}, I2)
    assert prelie_to_lie(as_prelie).output.op("bracket") == \
        commutator_lie(dual_numbers).output.op("bracket")


def test_prelie_to_lie_corpus(prelie_corpus):
    assert all(prelie_to_lie(a).passed for a in prelie_corpus)


def test_novikov_bridge_null_shift():
    nov = catalog_algebra("hom-novikov", "null-shift")
    result = novikov_to_postlie(nov)
    assert result.passed
    assert result.output.op("bracket").is_zero()  # e2 e2 = e1 is commutative
    assert result.output.op("mul") == nov.op("mul")


def test_novikov_bridge_noncommutative():
    nov = catalog_algebra("hom-novikov", "skew-pair")
    result = novikov_to_postlie(nov)
    assert result.passed
    assert result.output.op("bracket").product_vec(1, 2) == (2, 0, 0)


def test_novikov_bridge_requires_left_commutativity():
    # vector fields on the line (f d/dx) o (g d/dx) = f g' d/dx with basis
    # d/dx, x d/dx: a classical Novikov algebra that is not left-commutative
    t = sc_tensor(2, {(0, 1): {0: 1}, (1, 1): {1: 1}})
    cand = HomAlgebra(2, "hom-novikov", {"mul": t}, I2)
    assert check_axioms(cand).passed
    assert not check_predicate(cand, "left-commutative").passed
    with pytest.raises(PreconditionError):
        novikov_to_postlie(cand)


def test_scale_identity_and_rationals(postlie_corpus):
    sample = postlie_corpus[:20]
    for l in sample:
        assert scale(l, 1).output == l
        assert scale(l, -1).passed
        assert scale(l, "1/2").passed
    with pytest.raises(InputError):
        scale(sample[0], 0)


# --- Rota-Baxter splitting -----------------------------------------------------

def test_rb_dendriform_zero_operator(dual_numbers):
    result = rb_dendriform(dual_numbers, Matrix.zeros(2, 2), 0)
    mul = dual_numbers.op("mul")
    assert result.output.op("left") == -mul
    assert result.output.op("right") == mul


def test_rb_dendriform_identity_weight_minus_one(dual_numbers):
    result = rb_dendriform(dual_numbers, I2, -1)
    assert result.passed
    assert result.output.op("left").is_zero()
    assert result.output.op("right") == dual_numbers.op("mul").scale(2)


def test_rb_dendriform_weight_zero_square_zero(dual_numbers):
    """The square-zero operator on dual numbers: the split fails dendriform
    certification at weight 0 (the defect is alpha(x).(y.z), nonzero here)."""
    result = rb_dendriform(dual_numbers, Matrix([[0, 0], [1, 0]]), 0)
    assert not result.passed
    failing = {r.name for r in result.cert.failing()}
    assert "dendriform-left" in failing


def test_rb_dendriform_weight_zero_three_nilpotent():
    # null-square: products of three vanish, so the weight-0 split certifies
    a = catalog_algebra("hom-associative", "null-square")
    ops = brute_force_rb_search(a, 0, 1)
    assert len(ops) > 1
    for r in ops:
        assert rb_dendriform(a, r, 0).passed


def test_rb_dendriform_rejects_non_rb(dual_numbers):
    with pytest.raises(PreconditionError):
        rb_dendriform(dual_numbers, I2, 0)


# --- O-operator functors --------------------------------------------------------

def test_oop_assoc_functors_on_fixture(dual_numbers):
    m = adjoint_bimodule(dual_numbers)
    r = Matrix([[0, 0], [1, 0]])
    dend = oop_assoc_to_dendriform(m, r)
    assert dend.passed
    # u -| v = u.R(v), u |- v = R(u).v
    assert dend.output.op("left").product_vec(0, 0) == (0, 1)
    assert dend.output.op("right").product_vec(0, 0) == (0, 1)

    pre = oop_assoc_to_prelie(m, r)
    assert pre.passed
    # commutative algebra: l = r so the product collapses to zero
    assert pre.output.op("mul").is_zero()

    ld = oop_assoc_to_ldendriform(m, r)
    assert ld.passed
    assert ld.output.op("tright").product_vec(0, 0) == (0, 1)


def test_oop_assoc_to_prelie_matches_rb_formula():
    # noncommutative: the upper-triangular algebra e1 e2 = e2
    t = sc_tensor(2, {(0, 0): {0: 1}, (0, 1): {1: 1}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    m = adjoint_bimodule(a)
    ops = brute_force_oop_search(a, m, 1)
    assert len(ops) > 1
    for r in ops:
        pre = oop_assoc_to_prelie(m, r)
        assert pre.passed
        for i in range(2):
            for j in range(2):
                x, y = basis_vec(2, i), basis_vec(2, j)
                expected = vec_sub(bilinear_eval(t, r.apply(x), y),
                                   bilinear_eval(t, y, r.apply(x)))
                assert pre.output.op("mul").product_vec(i, j) == expected


def test_oop_lie_to_prelie_corollary(affine_lie):
    rep = adjoint_bimodule(affine_lie)
    r = Matrix([[1, 0], [0, 0]])
    result = oop_lie_to_prelie(rep, r)
    assert result.passed
    # x * y = [R(x), y]: only e1 * e2 = e2 survives
    assert result.output.op("mul").product_vec(0, 1) == (0, 1)
    assert result.output.op("mul").product_vec(1, 0) == (0, 0)


def test_oop_functors_zero_operator(affine_lie, dual_numbers):
    rep = adjoint_bimodule(affine_lie)
    z = Matrix.zeros(2, 2)
    assert oop_lie_to_prelie(rep, z).output.op("mul").is_zero()
    m = adjoint_bimodule(dual_numbers)
    assert oop_assoc_to_dendriform(m, z).output.op("left").is_zero()


def test_oop_prelie_dual_certification():
    prelie = catalog_algebra("hom-prelie", "left-shift")
    m = adjoint_bimodule(prelie)
    ops = brute_force_oop_search(prelie, m, 1)
    assert ops
    for t in ops:
        dual = oop_prelie_to_dendriform(m, t)
        assert dual.dendriform.output.op("left") == dual.l_dendriform.output.op("tleft")
        # zero operator passes both systems
        if t.is_zero():
            assert dual.passing_systems == ("hom-dendriform", "hom-l-dendriform")


# --- L-dendriform layer ---------------------------------------------------------

@pytest.fixture(scope="module")
def ldend():
    return catalog_algebra("hom-l-dendriform", "split-dual-ld")


def test_ldend_to_prelie_both_modes(ldend):
    hor = ldend_to_prelie(ldend, "horizontal")
    ver = ldend_to_prelie(ldend, "vertical")
    assert hor.passed and ver.passed
    assert hor.output.op("mul") == ldend.op("tright") + ldend.op("tleft")


def test_ldend_to_prelie_pure_right():
    # tleft = 0: the first axiom alone must make the horizontal product preLie
    p = sc_tensor(2, {(0, 0): {1: 1}})
    a = HomAlgebra(2, "hom-l-dendriform",
                   {"tleft": Tensor3.zeros(2), "tright": p}, I2)
    assert check_axioms(a).passed
    assert ldend_to_prelie(a, "horizontal").passed


def test_ldend_brackets_equal(ldend):
    result = ldend_brackets(ldend)
    assert result.horizontal.passed and result.vertical.passed
    assert result.brackets_equal


def test_ldend_transpose_involution(ldend):
    t = ldend_transpose(ldend)
    assert t.passed
    assert ldend_transpose(t.output).output == ldend
    # horizontal product of the transpose is the vertical product
    assert horizontal_tensor(t.output) == vertical_tensor(ldend)


def test_ldend_transpose_symmetric_tleft():
    sym = sc_tensor(2, {(0, 1): {0: 1}, (1, 0): {0: 1}})
    zero = Tensor3.zeros(2)
    a = HomAlgebra(2, "hom-l-dendriform", {"tleft": sym, "tright": zero}, I2)
    if check_axioms(a).passed:
        t = ldend_transpose(a)
        assert t.output.op("tleft") == -sym
    else:
        # the transpose formula is data-level regardless of certification
        assert (-sym.swap_arguments()) == -sym


def test_prelie_module_split_both_directions(ldend):
    algebra, module, report = prelie_module_split(ldend, "horizontal")
    assert report.passed
    rebuilt = reassemble_ldendriform(module)
    assert rebuilt.passed
    assert rebuilt.output == ldend
    _, _, vertical_report = prelie_module_split(ldend, "vertical")
    assert vertical_report.passed


def test_reassemble_ldendriform_needs_the_algebra_own_carrier(ldend):
    algebra, _, _ = prelie_module_split(ldend, "horizontal")
    zeros = (Matrix.zeros(1, 1),) * algebra.dim
    line = HomModule(algebra, 1, Matrix.identity(1), {"l": zeros, "r": zeros},
                     "prelie-bimodule")
    assert check_module_axioms(line).passed and line.mdim != algebra.dim
    with pytest.raises(InputError, match="own carrier"):
        reassemble_ldendriform(line)


def test_ldend_semidirect_trivial_module(ldend):
    z = HomModule(ldend, 1, Matrix.identity(1),
                  {name: (Matrix.zeros(1, 1),) * 2
                   for name in ("lt", "rt", "lr", "rr")},
                  "ldend-bimodule")
    result = ldend_semidirect(z)
    assert result.passed
    assert result.output.dim == 3
    # products extend by zero on the module line
    assert result.output.op("tright").product_vec(0, 2) == (0, 0, 0)


def test_ldend_semidirect_regular_bimodule(ldend):
    result = ldend_semidirect(adjoint_bimodule(ldend))
    assert result.passed
    assert result.output.dim == 4


def test_ldend_semidirect_witness_transfer(ldend):
    """A failing bimodule candidate must produce a failing semidirect sum."""
    # non-commuting lr actions over the zero bracket break the first equation
    zeros = (Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    broken = HomModule(ldend, 2, I2,
                       {"lt": zeros, "rt": zeros, "rr": zeros,
                        "lr": (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))},
                       "ldend-bimodule")
    assert not check_module_axioms(broken).passed
    result = ldend_semidirect(broken)
    assert not result.passed
    assert any(r.witness is not None for r in result.cert.failing())


def test_rb_split_sum_product_identity(assoc_corpus):
    """For weight-0 Rota-Baxter operators on corpus instances, the dendriform
    split certifies and its total product is x.R(y) + R(x).y."""
    covered = 0
    for a in (x for x in assoc_corpus if x.dim <= 2):
        mul = a.op("mul")
        for r in brute_force_rb_search(a, 0, 1):
            result = oop_assoc_to_dendriform(adjoint_bimodule(a), r)
            assert result.passed
            total = result.output.op("left") + result.output.op("right")
            for i in range(a.dim):
                for j in range(a.dim):
                    x, y = basis_vec(a.dim, i), basis_vec(a.dim, j)
                    expected = vec_add(bilinear_eval(mul, x, r.apply(y)),
                                       bilinear_eval(mul, r.apply(x), y))
                    assert total.product_vec(i, j) == expected
            covered += 1
        if covered > 30:
            break
    assert covered > 0


def test_ldend_to_prelie_feeds_prelie_to_lie(ldend):
    for mode in ("horizontal", "vertical"):
        prelie = ldend_to_prelie(ldend, mode)
        assert prelie_to_lie(prelie.output).passed


def test_functor_results_replayable(dual_numbers):
    first = commutator_lie(dual_numbers)
    second = commutator_lie(dual_numbers)
    assert first.output == second.output
    assert first.cert == second.cert


def test_ldend_layer_zero_products():
    a = HomAlgebra(2, "hom-l-dendriform",
                   {"tleft": Tensor3.zeros(2), "tright": Tensor3.zeros(2)},
                   Matrix([[1, 1], [0, 1]]))
    assert ldend_to_prelie(a, "horizontal").output.op("mul").is_zero()
    result = ldend_brackets(a)
    assert result.brackets_equal
    assert ldend_transpose(a).output == a
