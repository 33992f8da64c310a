"""The certification scope: results reused within a scope equal fresh ones,
and no scope, table or result outlives the operation that opened it.

Every comparison asserts equal reports with identical reprs, so verdicts,
witness indices, witness values and their entry types all match.
"""

import itertools
from fractions import Fraction

import pytest

from homcert import functors, harness, homcore, hommod, search
from homcert.exactlin import Matrix, Tensor3
from homcert.homcore import (PREDICATES, HomAlgebra, _declare_identities, certification_scope,
                             check_axioms, check_on_box, check_predicate)
from homcert.hommod import check_module_axioms

from conftest import box_algebra, catalog_algebra


def same(new, old):
    assert new == old
    assert repr(new) == repr(old)


@pytest.fixture
def evaluations(monkeypatch):
    """A list that grows by one for every Identity.basis_sides call."""
    calls = []
    real = homcore.Identity.basis_sides

    def counted(self):
        calls.append(self.law.name)
        return real(self)

    monkeypatch.setattr(homcore.Identity, "basis_sides", counted)
    return calls


@pytest.fixture(scope="module")
def corpus_reports():
    """Every distinct algebra (with the predicates it was checked with) and
    module (with its strictness) certified during a small corpus pass, each
    with the report its work item's scope gave it, batched reports included."""
    algebras, predicates, modules = {}, {}, {}
    real_axioms, real_predicate, real_modules = check_axioms, check_predicate, check_module_axioms
    real_box = check_on_box
    kinds = {laws: kind for kind, laws in _declare_identities().items() if kind in homcore.KINDS}

    def record(seen, key, structure, report):
        first = seen.setdefault(key, (structure, report))[1]
        same(report, first)  # every repeat within the run agrees with the first
        return report

    def collect_algebra(a):
        return record(algebras, (a.digest(), ()), (a, ()), real_axioms(a))

    def collect_box(laws, env, unknown, basis, points):
        points, mine = itertools.tee(points)
        for c, report in zip(mine, real_box(laws, env, unknown, basis, points)):
            if laws not in kinds:  # an operator's or coproduct's laws, not an algebra's
                yield report
                continue
            a = box_algebra(kinds[laws], env, unknown, basis, c)
            yield record(algebras, (a.digest(), ()), (a, ()), report)

    def collect_predicate(a, name):
        report = real_predicate(a, name)
        return record(predicates, (a.digest(), name), (a, name), report)

    def collect_module(m, strict_twist_commute=False):
        report = real_modules(m, strict_twist_commute)
        return record(modules, (m.digest(), strict_twist_commute), (m, strict_twist_commute),
                      report)

    with pytest.MonkeyPatch.context() as mp:
        for namespace in (homcore, functors, hommod, search):
            mp.setattr(namespace, "check_axioms", collect_algebra)
        for namespace in (harness, search):
            mp.setattr(namespace, "check_on_box", collect_box)
        for namespace in (harness, functors, hommod):
            mp.setattr(namespace, "check_predicate", collect_predicate)
        for namespace in (hommod, functors):
            mp.setattr(namespace, "check_module_axioms", collect_module)
        harness.run_corpus_certification(4, 3, 2)
    return list(algebras.values()), list(predicates.values()), list(modules.values())


def test_corpus_reports_in_scope_equal_fresh_ones(corpus_reports):
    algebras, predicates, modules = corpus_reports
    assert homcore._SCOPE.get() is None
    assert {a.kind for (a, _), _ in algebras} >= set(homcore.KINDS) - {"generic"}
    assert {name for (_, name), _ in predicates} == set(PREDICATES)
    assert {m.kind for (m, _), _ in modules} >= {
        "assoc-bimodule", "ldend-bimodule", "lie-representation", "postlie-module",
        "prelie-bimodule"}
    assert any(not r.passed for _, r in algebras) and len(algebras) > 1000
    for (a, _), report in algebras:
        same(report, check_axioms(a))
    for (a, name), report in predicates:
        same(report, check_predicate(a, name))
    for (m, strict), report in modules:
        same(report, check_module_axioms(m, strict))


def test_fraction_entries_reuse_identical_witnesses(evaluations):
    """Equal data given as ints, Fractions and strings is normalized alike,
    so a result reused from another binding has the entry types a fresh
    evaluation gives, Fraction witnesses included."""
    half = Fraction(1, 2)
    entries = [half, 0, Fraction(-3, 2), 1, 0, Fraction(4, 2), 2, half]
    alpha = [[1, 0], [half, 2]]
    a = HomAlgebra(2, "hom-associative", {"mul": Tensor3(2, 2, 2, entries)}, Matrix(alpha))
    as_strings = Tensor3(2, 2, 2, [str(Fraction(e)) for e in entries])
    b = HomAlgebra(2, "hom-associative", {"mul": as_strings},
                   Matrix([[Fraction(2, 2), 0], ["1/2", Fraction(6, 3)]]))
    assert a.op("mul").data == b.op("mul").data and a.alpha.data == b.alpha.data
    c = HomAlgebra(2, "hom-associative", dict(a.ops), Matrix.identity(2))
    fresh, fresh_c = check_axioms(a), check_axioms(c)
    fresh_lie = check_predicate(a, "lie-admissible")
    witness = fresh.axioms[0].witness
    assert any(type(v) is Fraction for v in witness.lhs + witness.rhs)
    evaluations.clear()
    with certification_scope():
        same(check_axioms(a), fresh)
        same(check_axioms(b), fresh)
        assert len(evaluations) == 1  # b's row came from a's
        same(check_predicate(a, "lie-admissible"), fresh_lie)
        same(check_predicate(b, "lie-admissible"), fresh_lie)
        assert len(evaluations) == 2
        same(check_axioms(c), fresh_c)  # a's product under another twist
    assert len(evaluations) == 3


def test_action_tables_persist_across_operators():
    """A module binds the same action tensors on every call, so within one
    scope two O-operators on it share one lookup table per action family.
    A zero operator annihilates both of its rows, so it binds no table."""
    m = functors.adjoint_bimodule(catalog_algebra("hom-prelie", "left-shift"))
    with certification_scope():
        tables, _ = homcore._SCOPE.get()
        assert hommod.check_oop(Matrix.zeros(2, 2), m).passed
        assert not tables
        hommod.check_oop(Matrix.identity(2), m)
        _, held = tables["l"]
        hommod.check_oop(Matrix([[1, 0], [0, 2]]), m)
        assert tables["l"][1] is held


UNIT = Tensor3(2, 2, 2, [1, 0, 0, 1, 0, 0, 0, 0])  # e1.e1 = e1, e1.e2 = e2


@pytest.mark.parametrize("bracket, mul, evaluated", [
    (Tensor3.zeros(2), Tensor3.zeros(2), 0), (UNIT, UNIT, 1), (Tensor3.zeros(2), UNIT, 1)])
def test_reused_row_is_renamed(evaluations, bracket, mul, evaluated):
    """Equal bracket and product: ``multiplicative:mul`` is the reused
    ``multiplicative:bracket`` row under its own name (the zero post-Lie
    algebras of the corpus, and a failing pair with a witness); a product
    that differs from the bracket is evaluated, unless it is zero, which
    makes both sides vanish without a walk."""
    a = HomAlgebra(2, "hom-postlie", {"bracket": bracket, "mul": Tensor3(2, 2, 2, mul.data)},
                   Matrix([[2, 0], [0, 1]]))
    fresh = check_predicate(a, "multiplicative")
    evaluations.clear()
    with certification_scope():
        report = check_predicate(a, "multiplicative")
    assert len(evaluations) == evaluated
    same(report, fresh)
    assert [r.name for r in report.axioms] == ["multiplicative:bracket", "multiplicative:mul"]
    assert [r.passed for r in report.axioms] == [bracket.is_zero(), mul.is_zero()]


# -- isolation ------------------------------------------------------------------

@pytest.fixture
def quick_properties(monkeypatch):
    """The properties without search-consistency, whose items take seconds."""
    monkeypatch.setattr(harness, "PROPERTIES", tuple(
        p for p in harness.PROPERTIES if p.name != "search-consistency"))


def test_no_scope_outlives_a_run_or_a_failing_item(monkeypatch, quick_properties):
    harness.run_corpus_certification(2, 2, 0)
    assert homcore._SCOPE.get() is None
    active = []

    def failing(payload):
        active.append(homcore._SCOPE.get())
        raise RuntimeError("item failed")

    monkeypatch.setattr(harness, "PROPERTIES", (harness.Property(
        "failing", True, lambda trials, max_dim, seed: [0], failing),))
    with pytest.raises(RuntimeError, match="item failed"):
        harness.run_corpus_certification(1, 1, 0)
    assert active[0] is not None
    assert homcore._SCOPE.get() is None


def test_consecutive_runs_evaluate_alike(evaluations, quick_properties):
    """No table or result survives a run: a second run in the same process
    evaluates exactly as many laws as the first."""
    first = harness.run_corpus_certification(4, 3, 2)
    counts = [len(evaluations)]
    evaluations.clear()
    assert harness.run_corpus_certification(4, 3, 2) == first
    counts.append(len(evaluations))
    assert counts[0] == counts[1] > 0


# -- laws that vanish -------------------------------------------------------------

def test_vanishing_rows_pass_the_full_walk(monkeypatch, quick_properties):
    """Every row a corpus pass certifies without a walk, because a product or
    map that annihilates both sides of its law is bound to zero, also passes
    the walk over every basis tuple."""
    vanished, mismatched = [], []
    real = homcore.check_identity

    def checked(ident):
        row = real(ident)
        if any(ident.env[name].is_zero() for name in ident.law.annihilators):
            vanished.append(ident.law.name)
            if not row.passed or homcore._first_failures(ident.basis_sides(), 1) != [(True, None)]:
                mismatched.append(ident.name)
        return row

    monkeypatch.setattr(homcore, "check_identity", checked)
    harness.run_corpus_certification(4, 3, 2)
    assert mismatched == []
    assert len(set(vanished)) >= 10


def test_abelian_search_never_walks_bracket_compatibility(evaluations, monkeypatch):
    """With a zero bracket, postlie-bracket-compatibility holds for every
    candidate product without a walk, while the other laws are walked.  The
    linear step, which needs the law's residual values, is computed first."""
    abelian = catalog_algebra("hom-lie", "abelian-2")
    system = search.postlie_linear_system(abelian)
    monkeypatch.setattr(search, "postlie_linear_system", lambda lie: system)
    evaluations.clear()
    assert harness._eval_search_consistency(("abelian-2", abelian, 0)).ok
    assert "postlie-bracket-compatibility" not in evaluations
    assert "postlie-twisted-left-symmetry" in evaluations


def test_scope_keeps_the_last_candidate_space(monkeypatch):
    solves = []
    real = search.postlie_linear_system
    monkeypatch.setattr(search, "postlie_linear_system", lambda l: solves.append(l) or real(l))
    lie = catalog_algebra("hom-lie", "affine-line")
    twisted = HomAlgebra(2, "hom-lie", dict(lie.ops), Matrix([[1, 0], [0, 2]]))
    with certification_scope():
        space = search.postlie_candidate_space(lie)
        assert search.postlie_candidate_space(lie) is space
        assert solves == [lie]
        assert search.postlie_candidate_space(twisted) is not space
        assert solves == [lie, twisted]
    assert search.postlie_candidate_space(lie) is not search.postlie_candidate_space(lie)
    assert solves == [lie, twisted, lie, lie]
