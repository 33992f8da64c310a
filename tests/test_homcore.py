"""Algebra-level certification: frozen spec examples and random properties."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homcert import homcore
from homcert.errors import InputError, PreconditionError
from homcert.exactlin import Matrix, Tensor3, basis_vec, vec_sub
from homcert.homcore import (KIND_OPS, EpsilonHomBialgebra, HomAlgebra, Identity, Witness,
                             _declare_identities, _specs, check_axioms, check_identity,
                             check_morphism, check_predicate, check_rota_baxter,
                             commuting_endomorphism_basis, convolution_rb,
                             epsilon_prerequisites, hom_associator, kind_axioms,
                             predicate_axioms, yau_twist)
from homcert.search import brute_force_epsilon_bialgebras, sc_tensor

from conftest import catalog_algebra

I2 = Matrix.identity(2)


def test_hom_associator_zero_product():
    a = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)}, I2)
    e1 = basis_vec(2, 0)
    assert hom_associator(a, e1, e1, e1) == (0, 0)


def test_hom_associator_idempotent_line():
    a = HomAlgebra(1, "hom-associative",
                   {"mul": sc_tensor(1, {(0, 0): {0: 1}})}, Matrix.identity(1))
    e1 = basis_vec(1, 0)
    assert hom_associator(a, e1, e1, e1) == (0,)


def test_hom_associator_counterexample():
    # e1.e1 = e2, e1.e2 = e1: (e1 e1) e1 - e1 (e1 e1) = e2 e1 - e1 e2 = -e1
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    e1 = basis_vec(2, 0)
    assert hom_associator(a, e1, e1, e1) == (-1, 0)


def test_hom_associator_refuses_vectors_of_other_lengths():
    a = catalog_algebra("hom-associative", "truncated-poly-2")
    for x in ((1,), (1, 0, 1)):
        with pytest.raises(InputError, match=r"lengths \(2, 2, 2\), got \((1|3), 2, 2\)"):
            hom_associator(a, x, (1, 0), (0, 1))


def test_check_axioms_zero_products_all_kinds():
    alpha = Matrix([[1, 2], [0, 3]])
    for kind, names in KIND_OPS.items():
        if names is None:
            continue
        a = HomAlgebra(2, kind, {n: Tensor3.zeros(2) for n in names}, alpha)
        assert check_axioms(a).passed, kind


def test_check_axioms_homlie_diagonal_twist():
    bracket = sc_tensor(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    a = HomAlgebra(2, "hom-lie", {"bracket": bracket}, Matrix([[1, 0], [0, 2]]))
    assert check_axioms(a).passed


def test_check_axioms_failure_witness():
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    report = check_axioms(a)
    assert not report.passed
    row = report.axiom("hom-associativity")
    assert row.witness.indices == (1, 1, 1)
    assert vec_sub(row.witness.lhs, row.witness.rhs) == (-1, 0)


def test_witness_reproducible():
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, I2)
    row = check_axioms(a).axiom("hom-associativity")
    spec = kind_axioms(a)[0]
    vectors = [basis_vec(2, i - 1) for i in row.witness.indices]
    lhs, rhs = spec(*vectors)
    assert (lhs, rhs) == (row.witness.lhs, row.witness.rhs)


def test_witness_sides_are_canonical():
    # alpha(e1.e1) = 4 * 1/2 = 2 and alpha(e1).alpha(e1) = 16 * 1/2 = 8:
    # integral values computed through Fractions leave as ints
    a = HomAlgebra(1, "hom-associative", {"mul": Tensor3.from_nested([[["1/2"]]])},
                   Matrix([["4"]]))
    row, = check_predicate(a, "multiplicative").axioms
    assert row.witness == Witness(indices=(1, 1), lhs=(2,), rhs=(8,))
    spec, = predicate_axioms(a, "multiplicative")
    for sides in ((row.witness.lhs, row.witness.rhs), spec((Fraction(1),), (1,))):
        assert sides == ((2,), (8,))
        assert [type(q) for side in sides for q in side] == [int, int]


def test_identity_compiles_its_sides_once(monkeypatch):
    """An identity called on vectors compiles its law's sides once: a second
    call compiles nothing and gives the same values and entry types."""
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: Fraction(1, 2)}})
    a = HomAlgebra(2, "hom-associative", {"mul": t}, Matrix([[1, 0], [1, 2]]))
    x, y, z = (1, Fraction(1, 2)), (1, 1), (2, -1)
    first = hom_associator(a, x, y, z)
    compiled = []
    real = homcore._compile
    monkeypatch.setattr(homcore, "_compile", lambda *args: compiled.append(args) or real(*args))
    again = hom_associator(a, x, y, z)
    assert compiled == []
    # (x.y).alpha(z) - alpha(x).(y.z), expanded by hand
    assert first == again == (-1, Fraction(3, 2))
    assert [type(q) for q in again] == [int, Fraction]


def test_law_annihilators():
    """The products and maps that, bound to zero, make both sides vanish."""
    laws = {law.name: law for group in _declare_identities().values() for law in group}
    assert laws["postlie-bracket-compatibility"].annihilators == ("mul", "alpha", "bracket")
    assert laws["rota-baxter"].annihilators == ("mul", "r")
    assert laws["involutive-twist"].annihilators == ()
    assert laws["ldend-bimodule-4"].annihilators == ()
    for name in ("o-operator-associative", "o-operator-prelie", "o-operator-lie",
                 "oop-twist-compat"):
        assert laws[name].annihilators == ("T",)


def test_operator_of_another_size_is_refused_before_its_annihilator():
    # a 3 x 3 operator on a dim-2 product: zero, it would pass through its
    # annihilator; the identity would get a meaningless witness
    mul = catalog_algebra("hom-associative", "truncated-poly-2").op("mul")
    for r in (Matrix.zeros(3, 3), Matrix.identity(3)):
        with pytest.raises(InputError, match=r"'mul' of shape \(2, 2, 2\) .* 'r' of shape"):
            check_identity(*_specs("rota-baxter", {"mul": mul, "r": r, "weight": 0}))


def test_an_empty_tensor_factor_does_not_hide_the_other():
    # over A = 0 the convolution's tensor node has an empty factor; a one-row
    # alpha or f beside it gives the same length 1 * 0 = 0 as a fitting one
    law, = _declare_identities()["convolution"]
    fitting = {"Delta": Matrix.zeros(0, 0), "M": Matrix.zeros(0, 0)}
    assert check_identity(Identity(law, {**fitting, "alpha": Matrix.zeros(0, 0),
                                         "f": Matrix.zeros(0, 0)})).passed
    for name, other in (("alpha", "f"), ("f", "alpha")):
        env = {**fitting, name: Matrix.zeros(1, 0), other: Matrix.zeros(0, 0)}
        with pytest.raises(InputError, match=rf"two empty factors or none.*'{name}' of shape "
                                             r"\(1, 0\) of length 1"):
            check_identity(Identity(law, env))


# Each bound name's shape over the spaces A (an algebra), B (a second
# algebra), M (a carrier), C = A (x) A and K (a basis of End_alpha).  "r" as
# a product is the right action; the convolution's "f" is an endomorphism.
_SPACES = {**dict.fromkeys(("mul", "bracket", "op", "source", "left", "right", "tleft",
                            "tright"), "AAA"),
           **dict.fromkeys(("l", "rho", "diamond", "bullet", "lt", "rt", "lr", "rr", "act"),
                           "AMM"),
           "target": "BBB", "alpha": "AA", "b": "AA", "f": "BA", "target-alpha": "BB",
           "beta": "MM", "bM": "MM", "T": "AM", "Delta": "CA", "M": "AC", "E": "CK",
           "comp": "CCC", "left-alpha": "CC", "right-alpha": "CC", "R": "CC"}

# (law, name, position) of a shape that no term of the law meets with
# another length: any length there binds and evaluates
_FREE = {("skew-symmetry", "bracket", 2), ("left-commutativity", "alpha", 1),
         ("centroid-left", "mul", 1), ("centroid-right", "mul", 0),
         ("literal-twist-commute-diamond", "diamond", 0),
         ("literal-twist-commute-bullet", "bullet", 0), ("hom-coassociativity", "alpha", 0),
         ("convolution", "M", 0), ("convolution", "Delta", 1), ("endalg-hom-associative", "E", 1),
         ("convolution-closed", "E", 1), ("convolution-rota-baxter", "E", 1)}
# of which the row count of alpha in hom-coassociativity is checked where it
# or dim A is 0: a tensor factor is then empty beside a nonempty one (see Term)
_FREE_BUT_BESIDE_EMPTY = {("hom-coassociativity", "alpha", 0)}

_LAWS = [law for laws in _declare_identities().values() for law in laws]


def _fitting_shapes(law, dims):
    """law.names -> the shape its _SPACES give over dims (None for a scalar)."""
    dims = {**dims, "C": dims["A"] ** 2}
    shapes = {}
    for t in law.bound:
        if t.kind in ("op", "map"):
            spaces = ("AMM" if t.kind == "op" else "AA") if t.name == "r" else (
                "AA" if t.name == "f" and law.name == "convolution" else _SPACES[t.name])
            shapes[t.name] = tuple(dims[s] for s in spaces)
        elif t.kind == "scaled":
            shapes[t.name] = None
    return shapes


def _bind(shapes, rnd, zero=()):
    """Random objects of these shapes, with small entries; the names in zero at zero."""
    def entry(name):
        return 0 if name in zero else rnd.choice((0, 1, -1, 2, Fraction(1, 2)))

    return {name: entry(name) if shape is None else
            Tensor3(*shape, [entry(name) for _ in range(shape[0] * shape[1] * shape[2])])
            if len(shape) == 3 else
            Matrix([[entry(name) for _ in range(shape[1])] for _ in range(shape[0])], shape[1])
            for name, shape in shapes.items()}


_SPACE_DIMS = st.fixed_dictionaries({s: st.integers(0, 3) for s in "ABKM"})


@settings(max_examples=25, deadline=None)
@given(_SPACE_DIMS, st.randoms(use_true_random=False))
def test_sides_have_the_lengths_the_size_rule_reads(dims, rnd):
    for law in _LAWS:
        shapes = _fitting_shapes(law, dims)
        ident = Identity(law, _bind(shapes, rnd))
        _, lengths, m = ident.bind()
        assert lengths == tuple(shapes[name][pos] for name, pos in law.domains), law.name
        sides = list(ident.basis_sides())
        assert [idx for idx, _, _ in sides] == list(itertools.product(*map(range, lengths)))
        assert all(len(lhs) == len(rhs) == m for _, lhs, rhs in sides), law.name


@settings(max_examples=150, deadline=None)
@given(_SPACE_DIMS, st.sampled_from(_LAWS), st.data(), st.randoms(use_true_random=False))
def test_a_shape_off_by_one_is_an_input_error_naming_it(dims, law, data, rnd):
    shapes = _fitting_shapes(law, dims)
    name = data.draw(st.sampled_from([n for n, s in shapes.items() if s]))
    pos = data.draw(st.integers(0, len(shapes[name]) - 1))
    off = list(shapes[name])
    off[pos] += data.draw(st.sampled_from((1, -1))) if off[pos] else 1
    shapes[name] = tuple(off)
    env = _bind(shapes, rnd, zero={name} if data.draw(st.booleans()) else ())
    free = (law.name, name, pos)
    if free in _FREE and (free not in _FREE_BUT_BESIDE_EMPTY or dims["A"] and off[pos]):
        assert check_identity(Identity(law, env)).name == law.name
        return
    with pytest.raises(InputError, match=re.escape(repr(name))):
        check_identity(Identity(law, env))


def test_check_axioms_kind_ops_mismatch():
    with pytest.raises(InputError):
        HomAlgebra(2, "hom-dendriform", {"left": Tensor3.zeros(2)}, I2)


def test_random_vector_equivalence():
    """Basis-grid certification agrees with the universally quantified axiom
    on random rational vectors, for passing and failing instances alike."""
    rng = random.Random(5)

    def random_vec(n):
        return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                     for _ in range(n))

    instances = [
        catalog_algebra("hom-associative", "truncated-poly-2"),
        catalog_algebra("hom-lie", "heisenberg"),
        catalog_algebra("hom-postlie", "skew-pair-postlie"),
        catalog_algebra("hom-l-dendriform", "split-dual-ld"),
        HomAlgebra(2, "hom-associative",
                   {"mul": sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})}, I2),
        HomAlgebra(2, "hom-lie",
                   {"bracket": sc_tensor(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})},
                   Matrix([[1, 1], [0, 1]])),
    ]
    for a in instances:
        for spec in kind_axioms(a):
            basis_ok = check_identity(spec).passed
            defect_seen = False
            for _ in range(50):
                vectors = [random_vec(a.dim) for _ in range(spec.law.arity)]
                lhs, rhs = spec(*vectors)
                if lhs != rhs:
                    defect_seen = True
            # basis check passes iff no random defect appears; random vectors
            # with many nonzero coordinates make false negatives implausible
            if basis_ok:
                assert not defect_seen, spec.name
            else:
                assert defect_seen, spec.name


def test_homogeneity_of_degree_one_and_two_axioms():
    for a in (catalog_algebra("hom-associative", "truncated-poly-3"),
              catalog_algebra("hom-lie", "solvable-3"),
              catalog_algebra("hom-prelie", "left-shift")):
        scaled = HomAlgebra(a.dim, a.kind,
                            {n: t.scale(Fraction(3, 2)) for n, t in a.ops.items()},
                            a.alpha)
        assert check_axioms(scaled).passed


def test_assoc_implies_lie_admissible(assoc_corpus):
    for a in assoc_corpus:
        assert check_predicate(a, "lie-admissible").passed


def test_rb_identity_weight_minus_one(assoc_corpus):
    for a in assoc_corpus:
        report = check_rota_baxter(a, Matrix.identity(a.dim), -1)
        assert report.passed


# --- morphisms ---------------------------------------------------------------

def test_morphism_identity_and_zero(dual_numbers):
    a = dual_numbers
    assert check_morphism(Matrix.identity(2), a, a).passed
    assert check_morphism(Matrix.zeros(2, 2), a, a).passed


def test_morphism_twisting_map_of_multiplicative_postlie():
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    tw = yau_twist(l, Matrix([[4, 0, 0], [0, 2, 0], [0, 0, 2]]))
    assert check_predicate(tw, "multiplicative").passed
    assert check_morphism(tw.alpha, tw, tw).passed


def test_morphism_kind_mismatch(dual_numbers, affine_lie):
    with pytest.raises(InputError):
        check_morphism(I2, dual_numbers, affine_lie)


def test_morphism_failure_witness(dual_numbers):
    # f(e1) = 2 e1 breaks f(e1.e1) = f(e1).f(e1) at the first basis pair
    f = Matrix([[2, 0], [0, 1]])
    report = check_morphism(f, dual_numbers, dual_numbers)
    assert not report.passed
    row = report.axiom("preserves:mul")
    assert row.witness.indices == (1, 1)


# --- Rota-Baxter -------------------------------------------------------------

def test_rb_zero_and_identity(dual_numbers):
    assert check_rota_baxter(dual_numbers, Matrix.zeros(2, 2), 0).passed
    assert check_rota_baxter(dual_numbers, I2, -1).passed
    assert not check_rota_baxter(dual_numbers, I2, 0).passed


def test_rb_square_zero_operator(dual_numbers):
    r = Matrix([[0, 0], [1, 0]])
    assert check_rota_baxter(dual_numbers, r, 0).passed


def test_rb_on_lie_bracket(affine_lie):
    # the projection onto the first coordinate is weight-0 Rota-Baxter here
    assert check_rota_baxter(affine_lie, Matrix([[1, 0], [0, 0]]), 0).passed
    assert not check_rota_baxter(affine_lie, Matrix([[0, 0], [0, 1]]), 0).passed


def test_rb_reports_twist_commutation():
    a = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)},
                   Matrix([[0, 1], [0, 0]]))
    r = Matrix([[1, 0], [0, 0]])
    report = check_rota_baxter(a, r, 0)
    assert report.axiom("rota-baxter").passed
    assert not report.axiom("commutes-with-twist").passed
    assert not report.passed


# --- Yau twist ---------------------------------------------------------------

def test_yau_twist_identity_and_zero(affine_lie):
    assert yau_twist(affine_lie, I2) == affine_lie
    twisted = yau_twist(affine_lie, Matrix.zeros(2, 2))
    assert twisted.op("bracket").is_zero()
    assert check_axioms(twisted).passed


def test_yau_twist_example():
    lie = catalog_algebra("hom-lie", "affine-line")
    g = Matrix([[1, 0], [0, 2]])
    twisted = yau_twist(lie, g)
    assert twisted.op("bracket").product_vec(0, 1) == (0, 2)
    assert twisted.alpha == g
    assert check_axioms(twisted).passed


def test_yau_twist_rejects_non_endomorphism(dual_numbers):
    with pytest.raises(PreconditionError):
        yau_twist(dual_numbers, Matrix([[2, 0], [0, 1]]))


# --- epsilon bialgebras ------------------------------------------------------

def test_convolution_zero_coproduct(dual_numbers):
    b = EpsilonHomBialgebra(2, dual_numbers.op("mul"), Tensor3.zeros(2), I2)
    report = convolution_rb(b)
    assert report.passed
    assert report.axiom("convolution-rota-baxter").passed


def test_convolution_zero_product():
    # delta indexes (element, left, right); delta(e2) = e2 (x) e2 is coassociative
    flat = [0] * 8
    flat[(1 * 2 + 1) * 2 + 1] = 1
    b = EpsilonHomBialgebra(2, Tensor3.zeros(2), Tensor3(2, 2, 2, flat), I2)
    assert epsilon_prerequisites(b).passed
    assert convolution_rb(b).passed


def test_convolution_prerequisite_failure_reported():
    # non-coassociative coproduct: delta(e1) = e1 (x) e2
    flat = [0] * 8
    flat[(0 * 2 + 0) * 2 + 1] = 1
    b = EpsilonHomBialgebra(2, Tensor3.zeros(2), Tensor3(2, 2, 2, flat), I2)
    report = convolution_rb(b)
    assert not report.passed
    assert not report.axiom("hom-coassociativity").passed
    assert all(r.name != "convolution-rota-baxter" for r in report.axioms)


def test_commuting_endomorphism_basis():
    basis = commuting_endomorphism_basis(I2)
    assert len(basis) == 4
    basis2 = commuting_endomorphism_basis(Matrix([[1, 0], [0, 2]]))
    assert len(basis2) == 2  # diagonal matrices only


def test_brute_forced_bialgebras_certify(dual_numbers):
    found = brute_force_epsilon_bialgebras(dual_numbers.op("mul"), I2, 1)
    # exactly the zero coproduct and delta(e2) = +-(e2 (x) e2) survive
    assert len(found) == 3
    assert any(b.delta.is_zero() for b in found)
    deltas = {b.delta for b in found}
    group_like = sc_tensor(2, {(1, 1): {1: 1}})
    assert group_like in deltas and -group_like in deltas
    for b in found:
        assert convolution_rb(b).passed
