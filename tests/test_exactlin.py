"""Exact linear algebra kernel: frozen examples plus randomized properties."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcert.errors import InputError
from homcert.exactlin import (Matrix, Tensor3, basis_vec, bilinear_eval,
                              exact_div, mat_mul, nullspace, rank, rat, rat_str,
                              rref, vec_add, vec_scale)

import rat_oracle

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals)
def test_rational_round_trip(q):
    assert rat(rat_str(rat(q))) == q


def test_rational_parsing():
    assert rat("3/6") == Fraction(1, 2)
    assert rat("-2/4") == Fraction(-1, 2)
    assert rat("4/2") == 2 and isinstance(rat("4/2"), int)
    assert rat_str(rat("7")) == "7"
    assert rat_str(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat("x")


def test_rationals_past_the_str_digit_limit_are_read_exactly():
    big = 10 ** 5000 - 7
    for q in (big, -big, Fraction(2, big), Fraction(-big, 3)):
        assert rat(rat_str(q)) == q
    assert isinstance(rat(rat_str(big)), int)
    for bad in (rat_str(big) + "/0", rat_str(big) + ".5"):
        with pytest.raises(InputError) as err:
            rat(bad)
        assert len(str(err.value)) < 100


def _read(reader, value):
    """What reader makes of value: (type, value), or the InputError message."""
    try:
        q = reader(value)
    except InputError as exc:
        return ("InputError", str(exc))
    return (type(q), q)


_DIGITS = "0123456789" "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669" "\uff10\uff11\uff15\uff19"
_ALPHABET = _DIGITS + "+-/._e "
# runs of digits from 560 to 640 long, across the 600 characters int() reads at once
_long_runs = st.builds(lambda unit, k: (unit * k)[:k],
                       st.text(_DIGITS, min_size=1, max_size=6), st.integers(560, 640))
_numbers = st.one_of(st.text(_DIGITS, min_size=1, max_size=8), _long_runs)
_canonical = st.builds(lambda sign, num, den, pad: pad + sign + num + den + pad,
                       st.sampled_from(["", "+", "-"]), _numbers,
                       st.one_of(st.just(""), _numbers.map("/".__add__)),
                       st.sampled_from(["", " "]))
_joined = st.lists(st.one_of(st.text(_ALPHABET, max_size=4), _long_runs), max_size=4).map("".join)
_huge_exponent = re.compile(r"e[-+]?[\d_]{5,}")  # Fraction would build 10**exponent


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(_ALPHABET, max_size=24), _canonical, _joined)
       .filter(lambda text: not _huge_exponent.search(text)))
def test_rat_reads_strings_as_the_fraction_reader_did(text):
    assert _read(rat, text) == _read(rat_oracle.rat, text)


@pytest.mark.parametrize("text, expected", [
    ("-0", 0), ("+5", 5), ("0/7", 0), ("4/2", 2), ("-3/6", Fraction(-1, 2)),
    ("1_0", 10), ("0.5", Fraction(1, 2)), ("1e3", 1000), (" 7 ", 7),
    ("\u0663/\u0664", Fraction(3, 4))])
def test_rat_reads_each_spelling(text, expected):
    assert _read(rat, text) == _read(rat_oracle.rat, text) == (type(expected), expected)


@pytest.mark.parametrize("text", ["3/0", "1/-2", "", "/", "5/", "-", "1/2/3"])
def test_rat_rejects_what_the_fraction_reader_rejected(text):
    assert _read(rat, text)[0] == "InputError"
    assert _read(rat, text) == _read(rat_oracle.rat, text)


def test_rat_leaves_spaces_around_the_slash_to_fraction():
    # whether "3 / 4" reads depends on the Python version's Fraction grammar
    assert _read(rat, "3 / 4") == _read(rat_oracle.rat, "3 / 4")


def test_rat_reads_values_past_the_str_digit_limit_as_the_fraction_reader_did():
    nines = "9" * 5000  # 10**5000 - 1, a multiple of 3 and of 9
    for text, expected in (("-" + nines + "/3", -(10 ** 5000 - 1) // 3),
                           (" +" + nines + "/" + nines, 1),
                           ("2/" + nines + "0", Fraction(2, 10 ** 5001 - 10))):
        assert _read(rat, text) == _read(rat_oracle.rat, text) == (type(expected), expected)
    for text in (nines + ".5", "1_" + nines, nines + "/0", nines + "/-1"):
        assert _read(rat, text)[0] == "InputError"
        assert _read(rat, text) == _read(rat_oracle.rat, text)


def test_rat_reads_a_str_subclass_as_its_text():
    class Text(str):
        pass

    assert _read(rat, Text(" 6/4")) == _read(rat_oracle.rat, Text(" 6/4")) == (
        Fraction, Fraction(3, 2))


def test_exact_div():
    assert exact_div(4, 2) == 2
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(Fraction(1, 2), Fraction(1, 4)) == 2


def test_mat_mul_identity():
    m = Matrix([[1, 2], [0, 1]])
    assert mat_mul(Matrix.identity(2), m) == m
    assert mat_mul(m, Matrix.identity(2)) == m


def test_mat_mul_nilpotent_square():
    # hand expansion: the square of the 2x2 shift is zero
    n = Matrix([[0, 1], [0, 0]])
    assert mat_mul(n, n) == Matrix.zeros(2, 2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(InputError):
        mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_nullspace_zero_matrix():
    basis = nullspace(Matrix.zeros(2, 2))
    assert [b.column(0) for b in basis] == [(1, 0), (0, 1)]


def test_nullspace_identity():
    assert nullspace(Matrix.identity(3)) == []


def test_nullspace_one_equation():
    # x1 + x2 = 0, solved by hand: the line through (1, -1)
    basis = nullspace(Matrix([[1, 1]]))
    assert [b.column(0) for b in basis] == [(1, -1)]


def _random_matrix(rng, rows, cols):
    return Matrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])


def test_nullspace_properties_random():
    rng = random.Random(99)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = nullspace(m)
        for v in basis:
            assert all(x == 0 for x in mat_mul(m, v).column(0))
        # independence: the column-stacked basis has full column rank
        if basis:
            stacked = Matrix([[b.column(0)[i] for b in basis] for i in range(cols)])
            assert rank(stacked) == len(basis)
        assert rank(m) + len(basis) == cols


def test_rref_pivots_deterministic():
    m = Matrix([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert reduced.row(0) == (1, 0, -1)
    assert reduced.row(1) == (0, 1, 2)


def test_bilinear_eval_zero_tensor():
    t = Tensor3.zeros(2)
    assert bilinear_eval(t, (1, 2), (3, 4)) == (0, 0)


def test_bilinear_eval_single_term():
    t = Tensor3.from_nested([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    e1 = basis_vec(2, 0)
    assert bilinear_eval(t, e1, e1) == (0, 1)


def test_bilinear_eval_scaling():
    t = Tensor3.from_nested([[[1, 2], [0, 1]], [[3, 0], [1, 1]]])
    x, y = (rat("1/2"), 3), (2, rat("-1/3"))
    doubled = bilinear_eval(t, vec_scale(2, x), y)
    assert doubled == vec_scale(2, bilinear_eval(t, x, y))


def test_bilinear_eval_dimension_mismatch():
    with pytest.raises(InputError):
        bilinear_eval(Tensor3.zeros(2), (1, 2, 3), (1, 2))


@settings(max_examples=50)
@given(st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2),
       rationals, rationals)
def test_bilinear_eval_is_bilinear(x, xp, y, a, b):
    t = Tensor3.from_nested([[[1, 2], [0, -1]], [[rat("1/2"), 0], [5, 1]]])
    combo = vec_add(vec_scale(a, x), vec_scale(b, xp))
    lhs = bilinear_eval(t, combo, y)
    rhs = vec_add(vec_scale(a, bilinear_eval(t, x, y)),
                  vec_scale(b, bilinear_eval(t, xp, y)))
    assert lhs == rhs
    # and in the right slot
    lhs2 = bilinear_eval(t, y, combo)
    rhs2 = vec_add(vec_scale(a, bilinear_eval(t, y, x)),
                   vec_scale(b, bilinear_eval(t, y, xp)))
    assert lhs2 == rhs2


def _naive_sum(pairs):
    s = 0
    for a, b in pairs:
        if a and b:
            s += a * b
    return s


def _typed(v):
    return [(type(q), q) for q in v]


def test_basis_fast_paths_match_the_sums():
    """On basis vectors, a Fraction 1 included, the kernels give the sums,
    entry types included."""
    t = Tensor3.from_nested([[[rat("1/2"), 2], [0, rat("-3/4")]],
                             [[1, 0], [rat("5/3"), -1]]])
    m = Matrix([[rat("1/2"), 0], [3, rat("-2/3")]])
    vectors = [basis_vec(2, 0), basis_vec(2, 1), (Fraction(1), 0),
               (0, Fraction(1)), (2, 0), (1, 1)]
    for x in vectors:
        assert _typed(m.apply(x)) == _typed(
            [_naive_sum(zip(row, x)) for row in m.data])
        for y in vectors:
            expected = [_naive_sum((x[i] * y[j], t[i, j, k])
                                   for i in range(2) for j in range(2))
                        for k in range(2)]
            assert _typed(bilinear_eval(t, x, y)) == _typed(expected)


def test_tensor_indexing_and_slices():
    t = Tensor3(2, 2, 2, [1, 2, 3, 4, 5, 6, 7, 8])
    assert t[0, 0, 0] == 1 and t[0, 1, 1] == 4 and t[1, 0, 0] == 5
    assert t.product_vec(1, 1) == (7, 8)
    assert t.swap_arguments()[0, 1, 0] == t[1, 0, 0]


def test_left_right_mult_matrices():
    t = Tensor3.from_nested([[[0, 1], [2, 0]], [[0, 0], [3, 0]]])
    left = t.left_mult_matrix(0)
    assert left.apply(basis_vec(2, 1)) == t.product_vec(0, 1)


def test_matrix_kron_ordering():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    # (i1,i2),(j1,j2) entry is a[i1,j1] * b[i2,j2] with lexicographic pairs
    assert k[(0 * 2 + 0, 1 * 2 + 1)] == a[0, 1] * b[0, 1]
    assert k[(1 * 2 + 1, 0 * 2 + 0)] == a[1, 0] * b[1, 0]


def test_arithmetic_results_match_the_parsing_constructor():
    """Matrix arithmetic builds its results without re-parsing every entry;
    they equal Matrix(...) on the same raw entries, entry types included
    (Fraction(1, 2) * 2 must come back as the int 1)."""
    rng = random.Random(17)

    def rand_matrix(rows, cols):
        return Matrix([[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4)))
                        for _ in range(cols)] for _ in range(rows)])

    def typed(m):
        return [[(type(v), v) for v in row] for row in m.data]

    for _ in range(200):
        r, c, k = (rng.randint(1, 3) for _ in range(3))
        a, b, d = rand_matrix(r, c), rand_matrix(r, c), rand_matrix(c, k)
        w = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        raw = {
            "add": (a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(a.data, b.data)]),
            "sub": (a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(a.data, b.data)]),
            "neg": (-a, [[-x for x in p] for p in a.data]),
            "scale": (a.scale(w), [[w * x for x in p] for p in a.data]),
            "transpose": (a.transpose(), [list(col) for col in zip(*a.data)]),
            "mat_mul": (mat_mul(a, d), [[sum((x * y for x, y in zip(p, q)), Fraction(0))
                                         for q in zip(*d.data)] for p in a.data]),
            "kron": (a.kron(d), [[x * y for x in p for y in q] for p in a.data for q in d.data]),
        }
        for name, (result, entries) in raw.items():
            expected = Matrix(entries)
            assert (result.rows, result.cols) == (expected.rows, expected.cols), name
            assert typed(result) == typed(expected), name
            assert result == expected and hash(result) == hash(expected), name


def test_a_matrix_without_rows_keeps_its_columns():
    m = Matrix.zeros(0, 3)
    assert m.dims == (0, 3) and m.is_zero() and m != Matrix.zeros(0, 2)
    assert m.transpose().dims == (3, 0) and m.transpose().transpose() == m
    assert Matrix([], 3) == m and Matrix.from_columns([(), (), ()]) == m
    assert (m + m).dims == (-m).dims == m.scale(2).dims == (0, 3)
    assert m.kron(Matrix.identity(2)).dims == (0, 6)
    assert mat_mul(Matrix.zeros(2, 0), m) == Matrix.zeros(2, 3)
    assert mat_mul(m, Matrix.zeros(3, 1)).dims == (0, 1)
    assert rref(m)[0].dims == (0, 3) and len(nullspace(m)) == 3
