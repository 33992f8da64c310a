"""Batched certification: ``check_axioms_on_box`` against ``check_axioms``.

Every comparison asserts equal reports with identical reprs, so verdicts,
witness indices, witness values and their entry types all match.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homcert import homcore
from homcert.exactlin import Matrix, Tensor3
from homcert.homcore import KIND_OPS, HomAlgebra, check_axioms, check_axioms_on_box
from homcert.search import corpus

from conftest import box_algebra

WIDTH = homcore._BATCH_WIDTH
ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2))
SIZES = st.sampled_from((1, WIDTH - 1, WIDTH, WIDTH + 1))
KINDS = st.sampled_from(sorted(KIND_OPS))


def same_on_box(kind, env, unknown, basis, points):
    """The box's reports, each equal to the one check_axioms gives on its
    point's algebra."""
    reports = list(check_axioms_on_box(kind, env, unknown, basis, iter(points)))
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
    columns = zip(*zip(*(check_axioms_on_box(*box) for box in boxes)))
    for column, (kind, env, unknown, basis, points) in zip(columns, boxes):
        fresh = [check_axioms(box_algebra(kind, env, unknown, basis, c)) for c in points]
        assert list(column) == fresh and repr(list(column)) == repr(fresh)
        verdicts.update(r.passed for r in fresh)
    assert verdicts == {True, False}


def test_check_axioms_on_box_is_lazy():
    """Reports come one batch at a time from an endless box."""
    a = next(x for x in corpus("hom-lie", 6, 2, 1) if x.dim == 2)
    env = {"bracket": Tensor3.zeros(2), "alpha": a.alpha}
    reports = check_axioms_on_box("hom-lie", env, "bracket", [a.op("bracket")],
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
