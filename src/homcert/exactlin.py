"""Exact rational linear algebra: scalars, matrices, rank-3 tensors, nullspaces.

Scalars are exact rationals: a plain int is the canonical form of an
integral rational (denominator 1), and ``fractions.Fraction`` carries the
rest.  The two interoperate exactly under arithmetic, equality, and hashing,
and ints are an order of magnitude faster, which matters in the hot axiom
grids.  Every operation is exact, so axiom residuals computed upstream are
identically zero or honestly nonzero.  Stored entries are canonical
(``Matrix``, ``Matrix._exact`` and ``Tensor3`` make integral values ints).

Documents carry rationals as canonical strings ("p" or "p/q"); ``rat``
reads those directly with ``int()`` at any length, past the int-to-str
digit limit included, and hands only other spellings to ``Fraction``.

Matrices act on column vectors: column ``j`` of a map's matrix is the image
of the ``j``-th basis vector.  Vectors are plain tuples of scalars.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError

Rational = Fraction

ZERO = 0
ONE = 1

_SHORT_DIGITS = 600  # int() converts this many digits under any int-to-str limit (least 640)


def _int_by_halves(digits: str) -> int:
    """int(digits) at any length: int() refuses strings past the int-to-str
    digit limit, so a long one is split in half and joined with 10**k."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_by_halves(digits[:-k]) * 10 ** k + _int_by_halves(digits[-k:])


def _short_repr(value) -> str:
    """repr(value), cut short when it is long."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def rat(value):
    """Read a rational from an int, a Fraction or a string, normalizing
    integral values to int.

    A canonical string, "p" or "p/q" in decimal digits with an optional sign
    on p (surrounding whitespace aside), is read directly at any length.
    Any other string goes to Fraction(text), which also reads "0.5", "1e3"
    or "1_000"; what neither reads raises InputError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("-", "+") else num
        try:
            if digits.isdecimal() and (den.isdecimal() or not slash):
                n = -_int_by_halves(digits) if num[0] == "-" else _int_by_halves(digits)
                if not slash:
                    return n
                d = _int_by_halves(den)
                return Fraction(n, d) if n % d else n // d  # n % 0 raises
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {_short_repr(value)}") from exc
        return q.numerator if q.denominator == 1 else q
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):  # true is not a rational
        return int(value)
    raise InputError(f"not a rational: {_short_repr(value)}")


def rat_str(q) -> str:
    """Render canonically: "p/q", or just "p" when the denominator is 1."""
    try:
        return str(q)
    except ValueError:  # past the int-to-str digit limit; Decimal renders ints of any size
        n, d = q.numerator, q.denominator
        return str(Decimal(n)) + ("" if d == 1 else "/" + str(Decimal(d)))


def exact_div(a, b):
    """Exact division of rationals, normalized back to int when integral."""
    return rat(Fraction(a) / Fraction(b))


# ---------------------------------------------------------------------------
# vectors

def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x):
    return tuple(-a for a in x)


def vec_scale(k, x):
    return tuple(k * a for a in x)


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries: Sequence[Sequence], cols: int = 0):
        """The rows' entries; ``cols`` counts the columns of a matrix without
        rows (else the first row's length, which every row must have)."""
        data = tuple(tuple(rat(v) for v in row) for row in rows_of_entries)
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else cols
        if any(len(row) != self.cols for row in data):
            raise InputError("ragged matrix rows")

    @classmethod
    def _exact(cls, rows_of_entries, cols: int = 0) -> "Matrix":
        """A matrix of exact arithmetic results: ints pass through, and only
        integral Fractions (products can give Fraction(k, 1)) are normalized.
        ``cols`` counts the columns of a matrix without rows."""
        m = object.__new__(cls)
        m.data = tuple(tuple(v if type(v) is int or v.denominator != 1 else v.numerator
                             for v in row) for row in rows_of_entries)
        m.rows = len(m.data)
        m.cols = len(m.data[0]) if m.data else cols
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            return Matrix.zeros(0, 0)
        n = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(n)], len(cols))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[[str(v) for v in row] for row in self.data]})"

    @property
    def dims(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i) -> tuple:
        return self.data[i]

    def column(self, j) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list:
        """Every column, as a tuple of ``rows`` entries."""
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix._exact([vec_add(a, b) for a, b in zip(self.data, other.data)], self.cols)

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix._exact([vec_sub(a, b) for a, b in zip(self.data, other.data)], self.cols)

    def __neg__(self):
        return Matrix._exact([vec_neg(row) for row in self.data], self.cols)

    def scale(self, k) -> "Matrix":
        k = rat(k)
        return Matrix._exact([vec_scale(k, row) for row in self.data], self.cols)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        out = []
        for row in self.data:
            s = ZERO
            for a, b in zip(row, v):
                if a and b:
                    s += a * b
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._exact(self.columns(), self.rows)

    def power(self, e: int) -> "Matrix":
        if self.rows != self.cols:
            raise InputError("power of non-square matrix")
        if e < 0:
            raise InputError("negative matrix power")
        result = Matrix.identity(self.rows)
        for _ in range(e):
            result = mat_mul(result, self)
        return result

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; tensor basis ordered lexicographically (i,j)."""
        out = []
        for a_row in self.data:
            for b_row in other.data:
                out.append(tuple(a * b for a in a_row for b in b_row))
        return Matrix._exact(out, self.cols * other.cols)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise InputError(f"mat_mul dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.columns()
    out = []
    for row in a.data:
        out_row = []
        for col in bt:
            s = ZERO
            for x, y in zip(row, col):
                if x and y:
                    s += x * y
            out_row.append(s)
        out.append(out_row)
    return Matrix._exact(out, b.cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for row in a.data:
        out.append(list(row) + [ZERO] * b.cols)
    for row in b.data:
        out.append([ZERO] * a.cols + list(row))
    return Matrix(out, a.cols + b.cols)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with deterministic pivoting.

    Pivot choice is the first row with a nonzero entry in column order, so
    results are reproducible across runs.
    """
    data = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if data[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        pv = data[r][c]
        if pv != ONE:
            data[r] = [exact_div(x, pv) for x in data[r]]
        for i in range(rows):
            if i != r and data[i][c]:
                f = data[i][c]
                # Matrix(data) normalizes the entries, so skipping y == 0 keeps their types
                data[i] = [x - f * y if y else x for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(data, cols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[Matrix]:
    """Exact basis of {v : m v = 0} as column vectors.

    Free-variable parametrization of the reduced echelon form; each basis
    vector is scaled so its first nonzero coordinate is 1.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r_idx, p in enumerate(pivots):
            v[p] = -reduced.data[r_idx][f]
        for x in v:
            if x:
                if x != ONE:
                    v = [exact_div(y, x) for y in v]
                break
        basis.append(Matrix([[x] for x in v]))
    return basis


class Tensor3:
    """Rank-3 array of Fractions; entry (i,j,k) is stored at i*d2*d3 + j*d3 + k.

    Encodes a bilinear product on a based space: (e_i, e_j) -> sum_k t[i,j,k] e_k.
    """

    __slots__ = ("d1", "d2", "d3", "data")

    def __init__(self, d1: int, d2: int, d3: int, entries: Sequence):
        entries = tuple(rat(v) for v in entries)
        if len(entries) != d1 * d2 * d3:
            raise InputError(
                f"tensor entries length {len(entries)} != {d1}*{d2}*{d3}")
        self.d1, self.d2, self.d3 = d1, d2, d3
        self.data = entries

    @staticmethod
    def zeros(d1: int, d2: int = None, d3: int = None) -> "Tensor3":
        d2 = d1 if d2 is None else d2
        d3 = d1 if d3 is None else d3
        return Tensor3(d1, d2, d3, (ZERO,) * (d1 * d2 * d3))

    @staticmethod
    def from_nested(nested: Sequence[Sequence[Sequence]]) -> "Tensor3":
        d1 = len(nested)
        d2 = len(nested[0]) if d1 else 0
        d3 = len(nested[0][0]) if d2 else 0
        flat = []
        for plane in nested:
            if len(plane) != d2:
                raise InputError("ragged tensor")
            for line in plane:
                if len(line) != d3:
                    raise InputError("ragged tensor")
                flat.extend(line)
        return Tensor3(d1, d2, d3, flat)

    @staticmethod
    def from_basis_products(d1: int, d2: int, d3: int,
                            product: Callable[[int, int], Sequence]) -> "Tensor3":
        flat = []
        for i in range(d1):
            for j in range(d2):
                flat.extend(product(i, j))
        return Tensor3(d1, d2, d3, flat)

    def __eq__(self, other):
        return (isinstance(other, Tensor3) and self.dims == other.dims
                and self.data == other.data)

    def __hash__(self):
        return hash((self.dims, self.data))

    def __repr__(self):
        return f"Tensor3({self.d1},{self.d2},{self.d3})"

    @property
    def dims(self):
        return (self.d1, self.d2, self.d3)

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.data[(i * self.d2 + j) * self.d3 + k]

    def product_vec(self, i: int, j: int) -> tuple:
        """The vector e_i * e_j."""
        base = (i * self.d2 + j) * self.d3
        return self.data[base:base + self.d3]

    def is_zero(self) -> bool:
        return not any(self.data)

    def __add__(self, other):
        self._same_dims(other)
        return Tensor3(*self.dims, tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other):
        self._same_dims(other)
        return Tensor3(*self.dims, tuple(a - b for a, b in zip(self.data, other.data)))

    def __neg__(self):
        return Tensor3(*self.dims, tuple(-a for a in self.data))

    def scale(self, k) -> "Tensor3":
        k = rat(k)
        return Tensor3(*self.dims, tuple(k * a for a in self.data))

    def _same_dims(self, other):
        if self.dims != other.dims:
            raise InputError(f"tensor dims mismatch: {self.dims} vs {other.dims}")

    def swap_arguments(self) -> "Tensor3":
        """(x, y) -> product(y, x)."""
        return Tensor3.from_basis_products(
            self.d2, self.d1, self.d3, lambda i, j: self.product_vec(j, i))

    def postcompose(self, g: Matrix) -> "Tensor3":
        """(x, y) -> g(x * y)."""
        if g.cols != self.d3:
            raise InputError("postcompose dimension mismatch")
        return Tensor3.from_basis_products(
            self.d1, self.d2, g.rows, lambda i, j: g.apply(self.product_vec(i, j)))

    def precompose(self, g: Matrix, h: Matrix) -> "Tensor3":
        """(x, y) -> g(x) * h(y)."""
        if g.rows != self.d1 or h.rows != self.d2:
            raise InputError("precompose dimension mismatch")
        return Tensor3.from_basis_products(
            g.cols, h.cols, self.d3,
            lambda i, j: bilinear_eval(self, g.column(i), h.column(j)))

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of y -> e_i * y."""
        return Matrix([[self[i, j, k] for j in range(self.d2)] for k in range(self.d3)])


def bilinear_eval(t: Tensor3, x: Sequence, y: Sequence) -> tuple:
    """Evaluate the bilinear map encoded by t: result_k = sum x_i y_j t[i,j,k]."""
    if len(x) != t.d1 or len(y) != t.d2:
        raise InputError(
            f"bilinear_eval dimension mismatch: ({len(x)},{len(y)}) vs {t.dims}")
    d2, d3 = t.d2, t.d3
    data = t.data
    out = [ZERO] * d3
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            base = (i * d2 + j) * d3
            for k in range(d3):
                v = data[base + k]
                if v:
                    out[k] += c * v
    return tuple(out)
