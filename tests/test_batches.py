"""Batched certification: ``check_axioms_each`` against ``check_axioms``.

Every comparison asserts equal reports with identical reprs, so verdicts,
witness indices, witness values and their entry types all match.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homcert import homcore
from homcert.exactlin import Matrix, Tensor3
from homcert.homcore import KIND_OPS, HomAlgebra, check_axioms, check_axioms_each
from homcert.search import corpus

WIDTH = homcore._BATCH_WIDTH
ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2))
SIZES = st.sampled_from((1, 2, 3, WIDTH - 1, WIDTH, WIDTH + 1))
KINDS = st.sampled_from(sorted(KIND_OPS))


def same_each(batch):
    """The batched reports, each equal to the one check_axioms gives."""
    reports = list(check_axioms_each(iter(batch)))
    fresh = [check_axioms(a) for a in batch]
    assert reports == fresh
    assert repr(reports) == repr(fresh)
    return reports


def _products(kind, dim, rnd):
    return {name: Tensor3(dim, dim, dim, [rnd.choice(ENTRIES) for _ in range(dim ** 3)])
            for name in KIND_OPS[kind] or ("mul",)}


def _twist(dim, rnd):
    if rnd.random() < 0.5:
        return Matrix.identity(dim)
    return Matrix([[rnd.choice(ENTRIES) for _ in range(dim)] for _ in range(dim)])


def _copy(obj):
    """An equal object that is not the same one."""
    return Tensor3(*obj.dims, obj.data) if isinstance(obj, Tensor3) else Matrix(obj.data)


@settings(max_examples=30, deadline=None)
@given(KINDS, st.integers(1, 3), SIZES, st.integers(1, 3), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_batched_reports_equal_single_ones(kind, dim, size, products, twists, rnd):
    """Random members drawn from a few products and twists: the same
    object in many members, equal data in distinct objects, and distinct
    data, so a name is shared in some batches and bound in lanes in others."""
    pool = [_products(kind, dim, rnd) for _ in range(products)]
    alphas = [_twist(dim, rnd) for _ in range(twists)]
    batch = []
    for _ in range(size):
        ops, alpha = rnd.choice(pool), rnd.choice(alphas)
        if rnd.random() < 0.2:
            ops, alpha = {name: _copy(t) for name, t in ops.items()}, _copy(alpha)
        batch.append(HomAlgebra(dim, kind, ops, alpha))
    same_each(batch)


@settings(max_examples=20, deadline=None)
@given(KINDS, SIZES, st.booleans(), st.randoms(use_true_random=False))
def test_batches_that_all_pass_or_all_fail(kind, size, passing, rnd):
    """Every law is homogeneous of degree 2 in the products taken together
    and of degree 1 in the twist (skew-symmetry: 1 and 0), so nonzero
    multiples of a passing algebra's products and twist all pass, and
    those of a failing one all fail."""
    base = rnd.choice(corpus(kind, 6, 3, rnd.randrange(100)))
    if not passing:
        base = HomAlgebra(base.dim, kind, _products(kind, base.dim, rnd), base.alpha)
    report = check_axioms(base)
    if report.passed != passing:
        return
    scales = [s for s in ENTRIES if s]
    batch = []
    for _ in range(size):
        k = rnd.choice(scales)
        ops = {name: t.scale(k) for name, t in base.ops.items()}
        batch.append(HomAlgebra(base.dim, kind, ops, base.alpha.scale(rnd.choice(scales))))
    assert [r.passed for r in same_each(batch)] == [passing] * size


def test_mixed_kinds_and_dims_keep_input_order():
    """Runs of one kind and dim are batched; the reports keep input order."""
    postlie = corpus("hom-postlie", 8, 3, 2)
    assoc = corpus("hom-associative", 8, 3, 2)
    retwisted = [HomAlgebra(a.dim, a.kind, dict(a.ops), Matrix.identity(a.dim).scale(3))
                 for a in assoc]
    same_each(postlie + assoc + retwisted + postlie[:3] * 2)


def test_check_axioms_each_is_lazy():
    """Reports come one batch at a time from an endless stream."""
    a, b = [x for x in corpus("hom-lie", 6, 2, 1) if x.dim == 2][:2]

    def endless():
        while True:
            yield a
            yield b

    reports = check_axioms_each(endless())
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
