"""Batched certification: ``check_on_box`` against the plain certifiers,
``check_axioms`` on boxes of every kind and each search's certifier on its
own box.

Every comparison asserts equal reports with identical reprs, so verdicts,
witness indices, witness values and their entry types all match.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from homcert import homcore, search
from homcert.errors import UnsupportedError
from homcert.exactlin import Matrix, Tensor3
from homcert.functors import adjoint_bimodule
from homcert.homcore import (KIND_OPS, CertReport, EpsilonHomBialgebra, HomAlgebra,
                             _declare_identities, _epsilon_delta_rows, check_axioms,
                             check_on_box, check_rota_baxter)
from homcert.hommod import check_oop
from homcert.search import (CATALOG, GENERATORS, RandomInstanceSpec, brute_force_epsilon_bialgebras,
                            brute_force_oop_search, brute_force_rb_search, corpus,
                            postlie_search, random_instance)

from conftest import box_algebra

WIDTH = homcore._BATCH_WIDTH
ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2))
SIZES = st.sampled_from((1, WIDTH - 1, WIDTH, WIDTH + 1))
KINDS = st.sampled_from(sorted(KIND_OPS))
LAWS = _declare_identities()


def same_on_box(kind, env, unknown, basis, points):
    """The box's reports, each equal to the one check_axioms gives on its
    point's algebra."""
    reports = list(check_on_box(LAWS[kind], env, unknown, basis, iter(points)))
    fresh = [check_axioms(box_algebra(kind, env, unknown, basis, c)) for c in points]
    assert reports == fresh
    assert repr(reports) == repr(fresh)
    return reports


def _tensor(dim, rnd):
    return Tensor3(dim, dim, dim, [rnd.choice(ENTRIES) for _ in range(dim ** 3)])


def _twist(dim, rnd):
    if rnd.random() < 0.5:
        return Matrix.identity(dim)
    return Matrix([[rnd.choice(ENTRIES) for _ in range(dim)] for _ in range(dim)])


@settings(max_examples=30, deadline=None)
@given(KINDS, st.integers(1, 3), st.integers(1, 3), SIZES, st.randoms(use_true_random=False))
def test_batched_reports_equal_single_ones(kind, dim, directions, size, rnd):
    """A random base point and 1-3 random directions with fractional
    entries, for one of the kind's products; the other products, the twist
    and the coefficients are random too, so some points pass and most fail."""
    names = KIND_OPS[kind] or ("mul",)
    unknown = rnd.choice(names)
    env = {**{name: _tensor(dim, rnd) for name in names}, "alpha": _twist(dim, rnd)}
    basis = [_tensor(dim, rnd) for _ in range(directions)]
    points = [tuple(rnd.choice(ENTRIES) for _ in basis) for _ in range(size)]
    same_on_box(kind, env, unknown, basis, points)


@settings(max_examples=20, deadline=None)
@given(KINDS, SIZES, st.booleans(), st.randoms(use_true_random=False))
def test_batches_that_all_pass_or_all_fail(kind, size, passing, rnd):
    """Over the directions P and 2P of one product P, every point
    (1 - 2k, k) is P itself, in a lane of its own: a passing algebra's box
    passes at every point, and a failing one's fails at every point."""
    base = rnd.choice(corpus(kind, 6, 3, rnd.randrange(100)))
    ops = base.ops if passing else {name: _tensor(base.dim, rnd) for name in base.ops}
    base = HomAlgebra(base.dim, kind, ops, base.alpha)
    report = check_axioms(base)
    if report.passed != passing:
        return
    unknown = rnd.choice(sorted(ops))
    product = ops[unknown]
    env = {**ops, "alpha": base.alpha, unknown: Tensor3.zeros(base.dim)}
    ks = [rnd.choice(ENTRIES) for _ in range(size)]
    reports = same_on_box(kind, env, unknown, [product, product.scale(2)],
                          [(1 - 2 * k, k) for k in ks])
    assert reports == [report] * size


def test_mixed_kinds_and_dims_keep_input_order():
    """Boxes of several kinds and dims, read in step as search consistency
    reads its two, each keep their input order over several batches."""
    boxes, verdicts = [], set()
    for kind, dim in (("hom-postlie", 3), ("hom-associative", 2), ("hom-lie", 3),
                      ("hom-prelie", 1)):
        a = next(x for x in corpus(kind, 8, 3, 2) if x.dim == dim)
        unknown = a.op_names()[-1]
        basis = [a.ops[unknown], Tensor3(dim, dim, dim, [1] * dim ** 3)]
        points = list(itertools.product((0, 1, -1, Fraction(1, 2)), repeat=2)) * 5
        boxes.append((kind, {**a.ops, "alpha": a.alpha}, unknown, basis, points))
    columns = zip(*zip(*(check_on_box(LAWS[kind], *box) for kind, *box in boxes)))
    for column, (kind, env, unknown, basis, points) in zip(columns, boxes):
        fresh = [check_axioms(box_algebra(kind, env, unknown, basis, c)) for c in points]
        assert list(column) == fresh and repr(list(column)) == repr(fresh)
        verdicts.update(r.passed for r in fresh)
    assert verdicts == {True, False}


def test_check_on_box_is_lazy():
    """Reports come one batch at a time from an endless box."""
    a = next(x for x in corpus("hom-lie", 6, 2, 1) if x.dim == 2)
    env = {"bracket": Tensor3.zeros(2), "alpha": a.alpha}
    reports = check_on_box(LAWS["hom-lie"], env, "bracket", [a.op("bracket")],
                           ((k,) for k in itertools.count()))
    # a Hom-Lie bracket's multiples are Hom-Lie brackets
    assert [next(reports).passed for _ in range(2 * WIDTH + 3)] == [True] * (2 * WIDTH + 3)


def test_lanes_act_lane_by_lane():
    x, y = homcore._Lanes((1, 0, Fraction(1, 2))), homcore._Lanes((2, 3, -1))
    assert (x + y).values == (3, 3, Fraction(-1, 2))
    assert (x - y).values == (-1, -3, Fraction(3, 2))
    assert (1 - x).values == (0, 1, Fraction(1, 2))
    assert (x * y).values == (2, 0, Fraction(-1, 2))
    assert (2 * x).values == (2, 0, 1) and x * 1 is x and x * 0 == 0 and x + 0 is x
    assert homcore._Lanes((0, 1)) and not homcore._Lanes((0, 0))
    assert x != homcore._Lanes(x.values) and x == x
    # numerators over one denominator: lanes over other denominators meet at their lcm
    z = homcore._Lanes((Fraction(1, 3), 2, 0))
    assert (x.nums, x.den) == ((2, 0, 1), 2) and (z.nums, z.den) == ((1, 6, 0), 3)
    assert (x + z).values == (Fraction(4, 3), 2, Fraction(1, 2)) and (x + z).den == 6
    assert (x * z).values == (Fraction(1, 3), 0, 0)
    assert (Fraction(1, 2) - x).values == (Fraction(-1, 2), Fraction(1, 2), 0)
    assert (x * Fraction(2, 3)).values == (Fraction(2, 3), 0, Fraction(1, 3))
    assert not x - x and type((x - x).values[0]) is int


# -- each search's survivors against its plain certifier ----------------------
#
# A search certifies its survivors with check_on_box over its own env and
# basis.  Every survivor passes, so all their reports are equal; the search's
# certifier call is also replayed on its box with other points interleaved,
# whose failing reports tell the lanes apart.

def _at(env, unknown, basis, point):
    """env[unknown] + sum_i point[i] basis[i], by the objects' own arithmetic."""
    out = env[unknown]
    for c, b in zip(point, basis):
        out = out + b.scale(c)
    return out


def same_as_plain(run, bound, plain, structure=lambda value: value):
    """run()'s results, after checking that the report the box certifier gave
    each survivor equals plain(survivor), and that on the search's own
    certifier call, replayed over its survivors and a stride of its box,
    each report equals plain(structure(the point's unknown))."""
    calls, real = [], search.check_on_box

    def spy(laws, env, unknown, basis, points):
        points, reports = list(points), []
        calls.append((laws, env, unknown, basis, points, reports))
        for report in real(laws, env, unknown, basis, points):
            reports.append(report)
            yield report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "check_on_box", spy)
        results = run()
    if not calls:  # a coproduct search whose product side fails walks no box
        assert results == []
        return results
    (laws, env, unknown, basis, points, reports), = calls
    assert len(reports) == len(points) == len(results)
    for result, report in zip(results, reports):
        fresh = plain(getattr(result, "output", result))
        assert report == fresh and repr(report) == repr(fresh)
    box = list(itertools.product(range(-bound, bound + 1), repeat=len(basis)))
    survivors, stride = set(points), max(1, len(box) // 128)
    replay = [c for i, c in enumerate(box) if c in survivors or i % stride == 0]
    reports = list(real(laws, env, unknown, basis, replay))
    fresh = [plain(structure(_at(env, unknown, basis, c))) for c in replay]
    assert reports == fresh and repr(reports) == repr(fresh)
    return results


def _postlie(lie, bound=1):
    def structure(mul):
        return HomAlgebra(lie.dim, "hom-postlie", {"bracket": lie.op("bracket"), "mul": mul},
                          lie.alpha)

    results = same_as_plain(lambda: postlie_search(lie, bound), bound, check_axioms, structure)
    for r in results:
        fresh = check_axioms(r.output)
        assert r.cert == fresh and repr(r.cert) == repr(fresh)
    return results


def _rota_baxter(a, weight, bound=1):
    return same_as_plain(lambda: brute_force_rb_search(a, weight, bound), bound,
                         lambda r: check_rota_baxter(a, r, weight))


def _o_operator(a, bound=1):
    m = adjoint_bimodule(a)
    return same_as_plain(lambda: brute_force_oop_search(a, m, bound), bound,
                         lambda t: check_oop(t, m))


def _coproduct(mul, alpha, bound=1):
    n = mul.d1

    def structure(delta):  # the n^2 x n map back to the coproduct tensor
        return EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, [
            delta.data[r][i] for i in range(n) for r in range(n * n)]), alpha)

    return same_as_plain(lambda: brute_force_epsilon_bialgebras(mul, alpha, bound), bound,
                         lambda b: CertReport.from_results(_epsilon_delta_rows(b)), structure)


def _catalog(kind):
    return [e.algebra for e in CATALOG[kind] if e.algebra.dim <= 2]


def test_abelian_postlie_survivors_span_three_batches():
    """173 survivors: two full batches of 64 lanes and one of 45."""
    abelian, = (a for a in _catalog("hom-lie") if a.dim == 2 and a.op("bracket").is_zero())
    assert len(_postlie(abelian)) == 173 > 2 * WIDTH


def test_catalog_searches_certify_as_the_plain_certifiers():
    for lie in _catalog("hom-lie"):
        _postlie(lie)
    for a in _catalog("hom-associative"):
        for weight in (0, -1, 1, Fraction(1, 2)):
            _rota_baxter(a, weight)
        _coproduct(a.op("mul"), a.alpha)
    for kind in ("hom-associative", "hom-prelie", "hom-lie"):
        for a in _catalog(kind):
            _o_operator(a)
    # every coproduct on the zero product passes the product side: 105 in two batches
    assert len(_coproduct(Tensor3.zeros(2), Matrix.identity(2))) == 105


def _drawn(kind, dim, seed, generator):
    try:
        return random_instance(RandomInstanceSpec(kind, dim, seed, generator))
    except UnsupportedError:  # no catalog entry of this kind at this dim
        assume(False)


DRAWS = (st.integers(1, 2), st.integers(0, 2 ** 20), st.sampled_from(GENERATORS[:3]))


@settings(max_examples=15, deadline=None)
@given(*DRAWS)
def test_drawn_postlie_searches_certify_as_check_axioms(dim, seed, generator):
    _postlie(_drawn("hom-lie", dim, seed, generator))


@settings(max_examples=15, deadline=None)
@given(*DRAWS, st.sampled_from((0, -1, 1, Fraction(1, 2))))
def test_drawn_rota_baxter_searches_certify_as_check_rota_baxter(dim, seed, generator, weight):
    _rota_baxter(_drawn("hom-associative", dim, seed, generator), weight)


@settings(max_examples=15, deadline=None)
@given(*DRAWS, st.sampled_from(("hom-associative", "hom-prelie", "hom-lie")))
def test_drawn_o_operator_searches_certify_as_check_oop(dim, seed, generator, kind):
    _o_operator(_drawn(kind, dim, seed, generator))


@settings(max_examples=10, deadline=None)
@given(*DRAWS)
def test_drawn_coproduct_searches_certify_as_the_coproduct_rows(dim, seed, generator):
    a = _drawn("hom-associative", dim, seed, generator)
    _coproduct(a.op("mul"), a.alpha)
