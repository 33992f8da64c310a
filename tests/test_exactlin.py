"""Exact linear algebra kernel: frozen examples plus randomized properties."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcert import exactlin
from homcert.errors import BudgetError, InputError
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


_TABLE = [str(n) for n in range(-64, 65)]


def _near_misses(key):
    """Other spellings of the table key's value, none of them the key itself."""
    digits = key.lstrip("-")
    sign = key[:len(key) - len(digits)]
    eastern = digits.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                          "\u0665\u0666\u0667\u0668\u0669"))
    texts = [sign + "0" + digits, " " + key, key + " ", key + "/1", sign + eastern]
    return texts + (["+" + key] if not sign else []) + (["-0"] if key == "0" else [])


def test_rat_reads_each_table_key_and_its_near_misses_as_the_fraction_reader_did():
    for key in _TABLE:
        for text in [key] + _near_misses(key):
            assert _read(rat, text) == _read(rat_oracle.rat, text) == (int, int(key)), text


def test_rat_reads_the_values_past_each_end_of_the_table_as_the_fraction_reader_did():
    for text, expected in (("-65", -65), ("65", 65), ("-064", -64), ("+65", 65)):
        assert _read(rat, text) == _read(rat_oracle.rat, text) == (int, expected), text


def test_rat_reads_a_str_subclass_whose_text_is_a_table_key():
    class Text(str):
        pass

    for key in ("0", "-64", "64", "7"):
        assert _read(rat, Text(key)) == _read(rat_oracle.rat, Text(key)) == (int, int(key))


@pytest.mark.parametrize("text", ["1e1000000000", "1e-1_000_000_000", "-2.5E99999",
                                  " 1e78914", "1E+0_078_914", ".5e" + "9" * 5000])
def test_rat_refuses_an_exponent_past_the_entry_budget_at_once(text, monkeypatch):
    def never(*args):  # Fraction(text) would build 10**exponent, for hours
        raise AssertionError(f"Fraction{args} called")

    monkeypatch.setattr(exactlin, "Fraction", never)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        rat(text)
    assert time.perf_counter() - start < 0.5
    assert err.value.budget == exactlin.EXPONENT_BUDGET == 78913
    assert "\n" not in str(err.value) and len(str(err.value)) < 120


@pytest.mark.parametrize("text, bits", [("1e78913", 262144), ("-1e-78913", 262144),
                                        ("1e00005", 17), ("1_0e0_0003", 14)])
def test_rat_reads_an_exponent_inside_the_entry_budget(text, bits):
    q = rat(text)
    assert max(q.numerator.bit_length(), q.denominator.bit_length()) == bits
    assert bits <= exactlin.POWER_BITS


@pytest.mark.parametrize("text", ["1e5e1000000000", "x1e1000000000", "e1000000000", "1e",
                                  "1__0e1000000000", "1e1__000000000", "1e1000000000_"])
def test_rat_leaves_a_malformed_exponent_spelling_an_input_error(text):
    assert _read(rat, text) == _read(rat_oracle.rat, text)
    assert _read(rat, text)[0] == "InputError"


def test_exact_div():
    assert exact_div(4, 2) == 2
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(Fraction(1, 2), Fraction(1, 4)) == 2


def _quotient(div, a, b):
    """(type, value) of div(a, b), or ZeroDivisionError's type."""
    try:
        q = div(a, b)
    except ZeroDivisionError:
        return ZeroDivisionError
    return type(q), q


operands = st.integers(-60, 60) | st.fractions(-60, 60, max_denominator=12)


@given(operands, operands)
@example(0, -3)
@example(-7, -2)
@example(5, 0)
@example(Fraction(1, 2), 0)
def test_exact_div_agrees_with_fraction_division(a, b):
    # ints divide as ints, any other pair through Fraction: same value and type
    # (zero numerators, negative divisors and b == 0 included)
    assert _quotient(exact_div, a, b) == _quotient(
        lambda a, b: rat(Fraction(a) / Fraction(b)), a, b)


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


def test_power_squares_repeatedly(monkeypatch):
    # 2^64 - 1 factors in at most 2 * 64 products, not one product per factor
    calls = []

    def counted(a, b):
        calls.append(1)
        assert len(calls) <= 128, "more than 128 products"
        return mat_mul(a, b)

    with monkeypatch.context() as patched:
        patched.setattr(exactlin, "mat_mul", counted)
        assert Matrix.identity(2).power(2 ** 64 - 1) == Matrix.identity(2)
    m = Matrix([[1, Fraction(1, 2)], [0, 2]])
    for e in range(9):  # the product of e factors, by hand: [[1, (2^e - 1) / 2], [0, 2^e]]
        assert m.power(e) == Matrix([[1, Fraction(2 ** e - 1, 2)], [0, 2 ** e]])
    assert [type(v) for row in m.power(3).data for v in row] == [int, Fraction, int, int]


def test_power_refuses_entries_past_its_bit_budget():
    # 2^e has e + 1 bits: e = POWER_BITS - 1 is the largest power of 2 within budget
    bits = exactlin.POWER_BITS
    assert Matrix([[2]]).power(bits - 1) == Matrix([[2 ** (bits - 1)]])
    for m in (Matrix([[2]]), Matrix([[Fraction(1, 2)]]), Matrix([[1, 0], [0, -2]])):
        with pytest.raises(BudgetError, match=f"budget is {bits}") as info:
            m.power(bits)
        assert (info.value.needed, info.value.budget) == (bits + 1, bits)
        with pytest.raises(BudgetError):  # an intermediate square passes it
            m.power(2 ** 20 + 1)
    assert Matrix([[1, 0], [0, -1]]).power(2 ** 1000) == Matrix.identity(2)


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
