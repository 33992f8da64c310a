"""The declared identities against the evaluators they replaced.

Every comparison asserts equal reports with identical reprs, so verdicts,
witness indices, witness values and their entry types (int or Fraction) all
match what the hand-written evaluators produced.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import closure_oracle as oracle
from homcert import functors, harness, hommod
from homcert.errors import InputError
from homcert.exactlin import Matrix, Tensor3, basis_vec
from homcert.harness import _build_epsilon, _search_inputs
from homcert.homcore import (KIND_OPS, PREDICATES, CertReport, EpsilonHomBialgebra,
                             HomAlgebra, _epsilon_delta_rows, check_axioms,
                             check_morphism, check_predicate, check_rota_baxter,
                             convolution_rb, epsilon_prerequisites, kind_axioms)
from homcert.homcore import check_identity
from homcert.hommod import MODULE_KINDS, HomModule, check_module_axioms, module_axioms
from homcert.search import (CATALOG, TWISTED_LEFT_SYMMETRY, _postlie_spec,
                            brute_force_epsilon_bialgebras, iter_postlie_candidates,
                            postlie_linear_system)

ENTRIES = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2)


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


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
    same(check_axioms(a, PREDICATES[:1]), oracle.check_axioms(a, PREDICATES[:1]))


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
        br, shared = lie.op("bracket"), {}
        for _, mul in iter_postlie_candidates(lie, bound):
            candidate = HomAlgebra(lie.dim, "hom-postlie", {"bracket": br, "mul": mul},
                                   lie.alpha)
            same(check_axioms(candidate), oracle.check_axioms(candidate))
            spec = _postlie_spec(lie, mul, TWISTED_LEFT_SYMMETRY, shared)
            assert (check_identity(spec, lie.dim).passed
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


def test_user_closure_specs_still_run():
    from homcert.homcore import AxiomSpec, check_identity
    spec = AxiomSpec("first-coordinate", 1, lambda x: ((x[0],), (0,)))
    result = check_identity(spec, 2)
    assert not result.passed and result.witness.indices == (1,)
    assert check_identity(AxiomSpec("trivial", 2, lambda x, y: ((), ())), 2).passed


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


@settings(max_examples=150, deadline=None)
@given(structures(), st.randoms(use_true_random=False))
def test_random_structures_match_oracle(data, rnd):
    a, op, weight, delta = data
    assert_algebra_matches(a)
    same(check_morphism(op, a, a), oracle.check_morphism(op, a, a))
    if len(a.ops) == 1:
        same(check_rota_baxter(a, op, weight), oracle.check_rota_baxter(a, op, weight))
    mul = next(iter(a.ops.values()))
    b = EpsilonHomBialgebra(a.dim, mul, delta, a.alpha)
    same(epsilon_prerequisites(b), oracle.epsilon_prerequisites(b))
    # the declared evaluate on arbitrary rational vectors, not just basis tuples
    for new, old in zip(kind_axioms(a), oracle.kind_axioms(a)):
        vectors = [tuple(rnd.choice(ENTRIES) for _ in range(a.dim))
                   for _ in range(new.arity)]
        assert (new.name, new.arity) == (old.name, old.arity)
        same(new.evaluate(*vectors), old.evaluate(*vectors))


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
    specs = {s.name: s for s in module_axioms(m, True)}
    for row in check_module_axioms(m, True).failing():
        *alg, v = row.witness.indices
        vectors = [basis_vec(m.algebra.dim, i - 1) for i in alg] + [basis_vec(m.mdim, v - 1)]
        same(specs[row.name].evaluate(*vectors), (row.witness.lhs, row.witness.rhs))


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
