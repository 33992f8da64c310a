"""Algebra-level structures and their exact certification.

A HomAlgebra is pure data: dimension, one or two product tensors, and a
twisting map.  Whether it satisfies the axioms of its declared kind is never
assumed; ``check_axioms`` evaluates every axiom on all basis tuples (exact
arithmetic plus multilinearity make that sufficient) and reports a minimal
witness on failure.  Every identity is a declared law evaluated by one sparse
interpreter; the sides of a witness, like stored rationals, are canonical:
an int exactly when integral.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InputError, PreconditionError
from .exactlin import (ONE, ZERO, Matrix, Tensor3, basis_vec, mat_mul, nullspace, rat,
                       rat_str, vec_sub)

# Canonical product names per kind, in serialization order.
KIND_OPS = {
    "generic": None,
    "hom-associative": ("mul",),
    "hom-lie": ("bracket",),
    "hom-prelie": ("mul",),
    "hom-novikov": ("mul",),
    "hom-dendriform": ("left", "right"),
    "hom-postlie": ("bracket", "mul"),
    "hom-l-dendriform": ("tleft", "tright"),
}

KINDS = tuple(KIND_OPS)


@dataclass(frozen=True, eq=False)
class HomAlgebra:
    """A based algebra given by structure constants plus a twisting map."""

    dim: int
    kind: str
    ops: Mapping[str, Tensor3]
    alpha: Matrix

    def __post_init__(self):
        if self.kind not in KIND_OPS:
            raise InputError(f"unknown algebra kind: {self.kind!r}")
        names = KIND_OPS[self.kind]
        if names is not None and tuple(sorted(self.ops)) != tuple(sorted(names)):
            raise InputError(
                f"kind {self.kind!r} needs products {names}, got {tuple(self.ops)}")
        if not self.ops:
            raise InputError("algebra needs at least one product")
        for name, t in self.ops.items():
            if t.dims != (self.dim, self.dim, self.dim):
                raise InputError(f"product {name!r} has dims {t.dims}, expected cube of {self.dim}")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise InputError("alpha must be dim x dim")

    def __eq__(self, other):
        return (isinstance(other, HomAlgebra) and self.dim == other.dim
                and self.kind == other.kind and dict(self.ops) == dict(other.ops)
                and self.alpha == other.alpha)

    def op(self, name: str) -> Tensor3:
        try:
            return self.ops[name]
        except KeyError:
            raise InputError(f"algebra has no product named {name!r}") from None

    def op_names(self) -> tuple[str, ...]:
        names = KIND_OPS[self.kind]
        return tuple(self.ops) if names is None else names

    def single_op(self) -> Tensor3:
        """The unique product of a one-product algebra ("mul" or "bracket")."""
        if "mul" in self.ops and "bracket" not in self.ops:
            return self.ops["mul"]
        if "bracket" in self.ops and "mul" not in self.ops:
            return self.ops["bracket"]
        if len(self.ops) == 1:
            return next(iter(self.ops.values()))
        raise InputError("algebra does not have a single distinguished product")

    def digest(self) -> str:
        return _digest(canonical_algebra_key(self))


def canonical_algebra_key(a: HomAlgebra):
    ops = tuple((name, a.ops[name].dims, tuple(map(rat_str, a.ops[name].data)))
                for name in sorted(a.ops))
    alpha = tuple(tuple(map(rat_str, row)) for row in a.alpha.data)
    return ("algebra", a.kind, a.dim, ops, alpha)


def _digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# certification reports

@dataclass(frozen=True)
class Witness:
    """Basis indices (1-based) plus the two sides evaluated there."""

    indices: tuple[int, ...]
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class CertReport:
    passed: bool
    axioms: tuple[AxiomResult, ...]

    @staticmethod
    def from_results(results: Sequence[AxiomResult]) -> "CertReport":
        return CertReport(all(r.passed for r in results), tuple(results))

    def axiom(self, name: str) -> AxiomResult:
        for r in self.axioms:
            if r.name == name:
                return r
        raise KeyError(name)

    def failing(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.axioms if not r.passed)

    def require(self, error: type, message: str) -> "CertReport":
        """The report if it passed; else raise error("message: failing rows", report)."""
        if not self.passed:
            raise error(f"{message}: {', '.join(r.name for r in self.failing())}", self)
        return self

    def merged_with(self, other: "CertReport", prefix_self="", prefix_other="") -> "CertReport":
        rows = [AxiomResult(prefix_self + r.name, r.passed, r.witness) for r in self.axioms]
        rows += [AxiomResult(prefix_other + r.name, r.passed, r.witness) for r in other.axioms]
        return CertReport.from_results(rows)


# ---------------------------------------------------------------------------
# identities as terms
#
# Each identity is declared once, as a Law between two terms; an Identity binds
# its names to one structure's tensors, matrices and scalars.  Vectors are sparse
# (coordinate, value) pairs: products and maps skip falsy coordinates, and sums
# keep every coordinate they touch.  A tensor node adds up (a * e) * e2 over the
# nonzero coordinates a of its argument and e, e2 of the two images.  Inside the
# interpreter an integral value may be a Fraction; a side that leaves it (a
# witness, or a dense side of Identity.__call__) is canonical, as stored
# rationals are: an int exactly when integral.  A law one of whose annihilators
# (see Law) is bound to zero vanishes (Identity.vanishes): without a walk, it
# passes in check_identity and gives zero rows in linear_rows and
# quadratic_rows.  Each law declares its bound names' shapes over named spaces
# (Law.signature), and _sizes gives every space one dim from a binding's shapes.

class Term:
    """("var", index) for a variable (index -1 is the law's last variable),
    ("op", name, u, v) for a bilinear product, ("map", name, u) for a linear
    map, ("scaled", name, u) for a named scalar times u (a zero scalar drops
    u), ("sum", signs, *terms) for a sum of sign * term with signs +-1
    (nested sums are flattened), or ("tensor", None, f, g, u) for
    (f (x) g)(u).  There u lies in V (x) V, coordinate i * dim V + j on
    e_i (x) e_j, and f and g are one-argument templates over V, terms in
    which ("hole", None) stands for the basis vector they are applied to;
    the image of e_i (x) e_j is f(e_i) (x) g(e_j), coordinate p * len(g) + q.
    With the op or map n bound to zero, a sum vanishes when every term does
    (the empty sum always does), any other node when it is n itself or one
    of its arguments or templates vanishes; a variable or hole never does."""

    __slots__ = ("kind", "name", "args")

    def __init__(self, kind: str, name, *args):
        if kind == "sum":
            flat = [p for s, t in zip(name, args) for p in (
                zip([s * s2 for s2 in t.name], t.args) if t.kind == "sum" else [(s, t)])]
            name, args = tuple(s for s, _ in flat), tuple(t for _, t in flat)
        self.kind, self.name, self.args = kind, name, args

    __add__ = lambda self, other: Term("sum", (1, 1), self, other)  # noqa: E731
    __sub__ = lambda self, other: Term("sum", (1, -1), self, other)  # noqa: E731
    __neg__ = lambda self: Term("sum", (-1,), self)  # noqa: E731


def _nodes(t: Term) -> list[Term]:
    return [t] + [u for arg in t.args for u in _nodes(arg)]


def _vanishes(t: Term, zero: str) -> bool:
    """Whether t is identically zero with the op or map ``zero`` at zero (see Term)."""
    if t.kind == "sum":
        return all(_vanishes(u, zero) for u in t.args)
    return t.kind in ("op", "map") and t.name == zero or any(_vanishes(u, zero) for u in t.args)


def _degree(t: Term, name: str) -> int:
    """The degree of a term in the bound name ``name``: every node is
    linear in each of its arguments and in its own bound name."""
    if t.kind == "sum":
        return max((_degree(u, name) for u in t.args), default=0)
    return (t.kind in ("op", "map", "scaled") and t.name == name) + sum(
        _degree(u, name) for u in t.args)


def _compile(t: Term):
    """fn(indices, tables) -> the term's sparse vector at a tuple of basis
    indices, one per variable: a product or map of variables is a table lookup."""
    name = t.name
    if t.kind == "var":
        return lambda v, T: ((v[name], ONE),)
    # a template's hole: the basis index its tensor node stores under None
    if t.kind == "hole":
        return lambda v, T: ((T[None], ONE),)
    if t.kind == "map" and t.args[0].kind == "hole":
        return lambda v, T: T[name][T[None]]
    if t.kind in ("op", "map") and all(u.kind == "var" for u in t.args):
        if t.kind == "map":
            i, = (u.name for u in t.args)
            return lambda v, T: T[name][v[i]]
        i, j = (u.name for u in t.args)
        return lambda v, T: T[name][v[i]][v[j]]
    fns = [_compile(u) for u in t.args]
    if t.kind == "sum":
        parts = tuple(zip(name, fns))

        def total(v, T):
            out = {}
            for s, fn in parts:
                for k, a in fn(v, T):
                    if k in out:
                        out[k] = out[k] + a if s > 0 else out[k] - a
                    else:
                        out[k] = a if s > 0 else -a
            return out.items()

        return total
    if t.kind == "tensor":
        ff, fg, fu = fns
        fixed_f, fixed_g = (all(u.kind != "var" for u in _nodes(w)) for w in t.args[:2])

        def tensor(v, T):  # a variable-free template's images are kept for the bind
            n, m, kept_f, kept_g = T[t]
            left = kept_f if fixed_f else {}
            right = kept_g if fixed_g else {}
            out = {}
            for k, a in fu(v, T):
                if a:
                    i, j = divmod(k, n)
                    images_f = left.get(i)
                    if images_f is None:
                        T[None] = i
                        images_f = left[i] = [(p * m, e) for p, e in ff(v, T) if e]
                    images_g = right.get(j)
                    if images_g is None:
                        T[None] = j
                        images_g = right[j] = [(q, e) for q, e in fg(v, T) if e]
                    for p, e in images_f:
                        c = a * e
                        for q, e2 in images_g:
                            if p + q in out:
                                out[p + q] += c * e2
                            else:
                                out[p + q] = c * e2
            return out.items()

        return tensor
    fu = fns[0]
    if t.kind == "scaled":
        def scaled(v, T):
            c = T[name]
            return [(k, c * a) for k, a in fu(v, T)] if c else ()

        return scaled
    if t.kind == "map":
        def apply(v, T):
            cols = T[name]
            out = {}
            for j, a in fu(v, T):
                if a:
                    for k, e in cols[j]:
                        out[k] = out[k] + e * a if k in out else e * a
            return out.items()

        return apply
    fw = fns[1]

    def product(v, T):
        table = T[name]
        out = {}
        right = fw(v, T)
        for i, a in fu(v, T):
            if a:
                row = table[i]
                for j, b in right:
                    if b:
                        c = a * b
                        for k, e in row[j]:
                            out[k] = out[k] + c * e if k in out else c * e
        return out.items()

    return product


class Law:
    """A declared identity lhs == rhs: its arity, one node per name a
    structure must bind, its degree in each name, its annihilators (the
    products and maps whose zero makes both sides zero), and both sides
    compiled for basis tuples on first use (a process that never evaluates
    a law holds no closures for it).

    ``signature`` gives each product and map its shape over named spaces,
    one letter a space and several their tensor product ("AA" is A (x) A):
    a product (d1, d2, d3) takes d1 x d2 to d3, a map (rows, cols) takes
    cols to rows.  The terms are typed once against it: each variable's
    space (``spaces``, the same in every slot it fills), both sides' space
    (``side``) and each tensor node's (V, space of g) (``tensors``); a
    declaration that does not type-check raises TypeError.  Each letter's
    dim is read where it stands alone first (``givers``)."""

    def __init__(self, name: str, lhs: Term, rhs: Term, signature: Mapping[str, str]):
        self.name, self.lhs, self.rhs = name, lhs, rhs
        nodes = [t for side in (lhs, rhs) for t in _nodes(side)]
        variables = {t.name for t in nodes if t.kind == "var"}
        self.arity = max((i + 1 for i in variables), default=0) + (-1 in variables)
        self.bound = tuple({t if t.kind == "tensor" else t.name: t for t in nodes
                            if t.kind in ("op", "map", "scaled", "tensor")}.values())
        self.names = tuple(t.name for t in self.bound if t.kind != "tensor")
        self.shaped = tuple(t.name for t in self.bound if t.kind in ("op", "map"))
        self.degrees = {name: max(_degree(lhs, name), _degree(rhs, name)) for name in self.names}
        self.annihilators = tuple(n for n in self.shaped if _vanishes(lhs, n) and _vanishes(rhs, n))
        self.signature = {n: tuple(signature[n].split()) for n in self.shaped}

        def fail(what):
            raise TypeError(f"law {name!r}: {what}")

        spaces = {i: set() for i in range(self.arity)}
        for t in nodes:  # a map's argument is its column: shape position 1
            for pos, u in enumerate(t.args if t.kind in ("op", "map") else (), t.kind == "map"):
                if u.kind == "var":
                    spaces[u.name % self.arity].add(self.signature[t.name][pos])
        if any(len(s) != 1 for s in spaces.values()):
            fail(f"each variable lies in one space, not in {spaces}")
        self.spaces, self.tensors = tuple(min(spaces[i]) for i in range(self.arity)), {}

        def space(t: Term, hole=None):  # the space t lies in; None for an empty sum
            if t.kind in ("var", "hole"):
                return hole if t.kind == "hole" else self.spaces[t.name]
            if t.kind == "tensor":
                u = space(t.args[2], hole) or ""
                v = u[:len(u) // 2]
                f, g = (space(w, v) for w in t.args[:2])
                if not v or u != v + v or None in (f, g):
                    fail(f"a tensor node takes V (x) V to two spaces, not {u!r} to {f} and {g}")
                self.tensors[t] = v, g
                return f + g
            got = [space(u, hole) for u in t.args]
            if t.kind in ("op", "map"):
                sig = self.signature[t.name]
                for pos, s in enumerate(got, t.kind == "map"):
                    if s not in (None, sig[pos]):
                        fail(f"{t.name!r} takes {sig[pos]} at position {pos}, not {s}")
                return sig[2] if t.kind == "op" else sig[0]
            known = set(got) - {None}  # a sum's terms, or a scaled term
            return min(known, default=None) if len(known) < 2 else fail(f"a sum adds {known}")

        self.side = space(lhs - rhs) or fail("both sides are empty sums")
        positions = [(n, pos, s) for n, ss in self.signature.items() for pos, s in enumerate(ss)]
        self.givers = {s: (n, pos) for n, pos, s in reversed(positions) if len(s) == 1}
        if unread := {c for _, _, s in positions for c in s} - set(self.givers):
            fail(f"no shape position holds {', '.join(sorted(unread))} alone")

    @functools.cached_property
    def on_basis(self):
        return _compile(self.lhs), _compile(self.rhs)


@functools.cache  # a law is bound again and again to objects of the same shapes
def _sizes(law: Law, shapes: tuple) -> tuple:
    """(dims, m, tensors) for law.shaped bound to objects of these shapes
    (their dims): each variable's length, both sides' length and each tensor
    node's (dim V, len g).  Each space letter takes its dim from its giver
    (see Law), a tensor space the product of its letters' dims; InputError
    naming both bound names where a shape position has another length."""
    shape = dict(zip(law.shaped, shapes))
    dims = {c: shape[n][pos] for c, (n, pos) in law.givers.items()}
    size = lambda space: math.prod(dims[c] for c in space)  # noqa: E731
    for n, spaces in law.signature.items():
        for pos, space in enumerate(spaces):
            if shape[n][pos] != size(space):
                taken = " and ".join(f"{g!r} of shape {shape[g]} takes length {dims[c]} for {c} "
                                     f"at position {p}" for c in dict.fromkeys(space)
                                     for g, p in [law.givers[c]])
                raise InputError(f"{taken} where {n!r} of shape {shape[n]} gives length "
                                 f"{shape[n][pos]} for {' (x) '.join(space)} at position {pos}")
    return (tuple(map(size, law.spaces)), size(law.side),
            {t: (size(v), size(g)) for t, (v, g) in law.tensors.items()})


def _pairs(values) -> tuple:
    return tuple((k, a) for k, a in enumerate(values) if a)


def _dense(pairs, m: int) -> tuple:
    out = [ZERO] * m
    for k, a in pairs:
        out[k] = a
    return tuple(out)


_SCOPE = contextvars.ContextVar("certification scope", default=None)


class certification_scope:
    """Join the active scope, or open one for the block (never for the process):
    each name's table while its object stays bound, each Law's last result
    and each held_in_scope function's last value."""

    def __enter__(self):
        self.token = _SCOPE.set(_SCOPE.get() or ({}, {}))

    def __exit__(self, *exc):
        _SCOPE.reset(self.token)


def held_in_scope(fn: Callable) -> Callable:
    """fn of one argument, its value kept in the active scope for the last
    argument and returned again for an equal one; outside any scope, fn."""
    @functools.wraps(fn)
    def held(key):
        results = (_SCOPE.get() or ({}, {}))[1]
        if (last := results.get(fn)) is None or last[0] != key:
            last = results[fn] = key, fn(key)
        return last[1]
    return held


def _canonical(obj):
    """A bound name's type and its slots (shape and entries, or columns) or value."""
    slots = getattr(obj, "__slots__", None)
    return type(obj), (attrgetter(*slots)(obj) if slots else obj)


class Identity:
    """A law bound to env in the active scope, or a fresh one: one report
    row, named by the law's name plus ``suffix``.  Called on dense vectors
    it returns both dense sides."""

    def __init__(self, law: Law, env: Mapping, suffix: str = ""):
        self.law, self.env, self.name = law, env, law.name + suffix
        self.tables, self.results = _SCOPE.get() or ({}, {})
        self.measured = None

    def sizes(self) -> tuple:
        """(dims, m, tensors) for the shapes bound here, read once (see _sizes)."""
        if self.measured is None:
            self.measured = _sizes(self.law, tuple([self.env[n].dims for n in self.law.shaped]))
        return self.measured

    def vanishes(self) -> bool:
        """Whether one of the law's annihilators is bound to zero (in every
        lane), so both sides vanish at every tuple; InputError on a misfit
        first, as sizes() reads it, so a zero annihilator never passes one."""
        self.sizes()
        return any(self.env[name].is_zero() for name in self.law.annihilators)

    def bind(self):
        """(tables, dims, m): lookup tables for the bound names, held in the
        scope, and the length of each variable and of both sides (_sizes)."""
        dims, m, tensors = self.sizes()
        tables = {t: (n, len_g, {}, {}) for t, (n, len_g) in tensors.items()}
        for t in self.law.bound:
            if t.kind in ("op", "map"):
                obj, held = self.env[t.name], self.tables.get(t.name)
                if held is None or held[0] is not obj:
                    held = self.tables[t.name] = (obj, (
                        [[_pairs(obj.product_vec(i, j)) for j in range(obj.d2)]
                         for i in range(obj.d1)]
                        if t.kind == "op" else [_pairs(col) for col in obj.columns()]))
                tables[t.name] = held[1]
            elif t.kind == "scaled":
                tables[t.name] = self.env[t.name]
        return tables, dims, m

    def __call__(self, *vectors):
        tables, dims, m = self.bind()
        if (lengths := tuple(map(len, vectors))) != dims:
            raise InputError(f"{self.name!r} takes vectors of lengths {dims}, got {lengths}")
        sides = [ZERO] * m, [ZERO] * m
        for coordinates in itertools.product(*map(_pairs, vectors)):  # the law is multilinear
            idx, c = tuple(i for i, _ in coordinates), math.prod(a for _, a in coordinates)
            for side, fn in zip(sides, self.law.on_basis):
                for k, a in fn(idx, tables):
                    side[k] += c * a
        return tuple(tuple(map(rat, side)) for side in sides)

    def basis_sides(self):
        """(indices, lhs, rhs) at every basis tuple, 0-based indices in
        lexicographic order, each variable over the basis of its own space."""
        tables, dims, m = self.bind()
        fl, fr = self.law.on_basis
        for idx in itertools.product(*map(range, dims)):
            yield idx, _dense(fl(idx, tables), m), _dense(fr(idx, tables), m)


def unit_basis(shape: tuple) -> list:
    """The units of a matrix of shape (rows, cols) or a tensor of shape
    (d1, d2, d3): unit c holds 1 at flat position c (row-major)."""
    cells = math.prod(shape)
    if len(shape) == 2:
        rows, cols = shape
        return [Matrix._exact([[int(r * cols + q == c) for q in range(cols)] for r in range(rows)])
                for c in range(cells)]
    return [Tensor3(*shape, basis_vec(cells, c)) for c in range(cells)]


# ---------------------------------------------------------------------------
# laws over an unknown spanned by a basis
#
# A matrix or tensor unknown = base + sum_i c_i basis[i] is bound once
# (_combined) and runs through the same interpreter.  With c_i the monomials
# of _Poly, a residual coordinate of a law of degree at most 2 in the unknown
# is the exact form const + sum_i c_i linear[i] + sum_{i<=j} c_i c_j
# quadratic[i, j] (quadratic_rows, which linear_rows reads); with c_i the
# _Lanes of many points' coefficients, one walk evaluates every point
# (check_on_box; see below).

@functools.cache
def _monomials(d: int) -> tuple[tuple, tuple]:
    """(products, keys) for monomials of degree at most 2 in c_0..c_{d-1}:
    monomial 0 is 1, 1 + i is c_i, and the pairs i <= j follow in
    lexicographic order.  products[k][k2] is the monomial k * k2, an
    IndexError above degree 2; keys[k] is None, i or (i, j)."""
    keys = (None, *range(d), *itertools.combinations_with_replacement(range(d), 2))
    pair = {key: k for k, key in enumerate(keys) if type(key) is tuple}
    products = (tuple(range(len(keys))),
                *((1 + i, *(pair[min(i, j), max(i, j)] for j in range(d))) for i in range(d)),
                *((k,) for k in range(1 + d, len(keys))))
    return products, keys


class _Poly:
    """A polynomial of degree at most 2 in the coefficients c, the scalar a
    symbolic unknown's entries are: sum_m terms[m] c^m / den over the
    monomials m of _monomials, with nonzero int ``terms`` and a positive int
    ``den``, so a zero polynomial is falsy and the arithmetic stays in ints
    (the fractions are reduced once, when a form is read).  Times a rational
    1 it is itself, times 0 it is int 0."""

    __slots__ = ("terms", "den", "products")

    def __init__(self, terms: dict, den: int, products: tuple):
        self.terms, self.den, self.products = terms, den, products

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return _Poly({k: -a for k, a in self.terms.items()}, self.den, self.products)

    def __add__(self, other):
        if type(other) is not _Poly:
            if not other:
                return self
            other = _Poly({0: other.numerator}, other.denominator, self.products)
        den = self.den
        if den == other.den:
            out, scale = self.terms.copy(), 1
        else:
            den = math.lcm(den, other.den)
            mine, scale = den // self.den, den // other.den
            out = {k: a * mine for k, a in self.terms.items()}
        for k, a in other.terms.items():
            a *= scale
            if k in out:
                a += out[k]
                if not a:
                    del out[k]
                    continue
            out[k] = a
        return _Poly(out, den, self.products)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not _Poly:
            if other == 1:
                return self
            if not other:
                return ZERO
            num = other.numerator
            return _Poly({k: a * num for k, a in self.terms.items()},
                         self.den * other.denominator, self.products)
        products, out = self.products, {}
        for k, a in self.terms.items():
            row = products[k]
            for k2, b in other.terms.items():
                m, ab = row[k2], a * b
                if m in out:
                    ab += out[m]
                    if not ab:
                        del out[m]
                        continue
                out[m] = ab
        return _Poly(out, self.den * other.den, products)

    __rmul__ = __mul__

    def coefficients(self) -> dict:
        """Each monomial's rational coefficient, canonical."""
        den = self.den
        return {k: a // den if a % den == 0 else Fraction(a, den)
                for k, a in self.terms.items()}


def _cells(obj) -> tuple:
    """The entries of a matrix or tensor, row-major."""
    return obj.data if isinstance(obj, Tensor3) else tuple(itertools.chain(*obj.data))


def _combined(base, basis: Sequence, coefficients: Sequence):
    """base + sum_i coefficients[i] * basis[i] (base None: zero), a matrix or
    tensor of their shape whose entries are what that arithmetic gives, not
    normalized: base's rationals where no basis member adds to them, else
    _Poly or _Lanes, as the coefficients are; InputError if the shapes differ."""
    like = basis[0] if basis else base
    if any(b.dims != like.dims for b in (base, *basis) if b is not None):
        raise InputError("the base point and the basis of an unknown differ in shape")
    flat = [ZERO] * len(_cells(like)) if base is None else list(_cells(base))
    for c, b in zip(coefficients, basis):
        for pos, a in enumerate(_cells(b) if c else ()):
            if a:
                flat[pos] = flat[pos] + c * a
    out = copy.copy(like)
    out.data = tuple(flat) if isinstance(like, Tensor3) else tuple(
        tuple(flat[r * like.cols:(r + 1) * like.cols]) for r in range(like.rows))
    return out


def linear_rows(laws: Sequence[Law], env: Mapping, unknown: str, basis: Sequence) -> Matrix:
    """The residuals of ``laws`` over ``basis``: column c holds lhs - rhs of
    every law at every basis tuple, in law, lexicographic tuple and coordinate
    order, with basis[c] bound to ``unknown``: each of quadratic_rows' forms
    over a zero base, read at the unit point c, const + linear[c] +
    quadratic[c, c].  For laws linear in ``unknown`` that is each residual's
    coefficient of c_c, and over ``unit_basis(shape)`` the kernel is the set
    of unknowns on which the laws hold, written row-major; for a law of
    degree 2 it is only the residual at basis[c]."""
    if not (d := len(basis)):
        return Matrix.zeros(0, 0)
    return Matrix._exact(([const + lin.get(c, ZERO) + quad.get((c, c), ZERO) for c in range(d)]
                          for const, lin, quad in quadratic_rows(
                              laws, {**env, unknown: None}, unknown, basis)), d)


def quadratic_rows(laws: Sequence[Law], env: Mapping, unknown: str,
                   basis: Sequence) -> list[tuple]:
    """The residuals lhs - rhs of laws of degree at most 2 in ``unknown``,
    as exact forms in coefficients c over ``basis``: with env[unknown] +
    sum_i c_i basis[i] bound to ``unknown`` (env[unknown] None: zero), row r
    (in law, lexicographic tuple and coordinate order) is

        const + sum_i c_i linear[i] + sum_{i<=j} c_i c_j quadratic[i, j],

    returned as (const, linear, quadratic), dicts keeping nonzero entries,
    each an int exactly when integral.  One walk of the laws, in the active
    scope or one opened for the call, reads them: the unknown's entries are
    polynomials in c (_combined over the monomials c_i), its shape checked by
    _sizes, and a law that vanishes (Identity.vanishes) gives its zero rows
    without a walk.  InputError for a law of higher degree: its forms are
    not exact."""
    for law in laws:
        if law.degrees.get(unknown, 0) > 2:
            raise InputError(f"law {law.name!r} has degree above 2 in {unknown!r}")
    products, keys = _monomials(len(basis))
    monomials = [_Poly({1 + i: 1}, 1, products) for i in range(len(basis))]
    bound = {**env, unknown: _combined(env[unknown], basis, monomials)}
    residuals = []
    with certification_scope():
        for ident in (Identity(law, bound) for law in laws):
            if ident.vanishes():
                dims, m, _ = ident.sizes()
                residuals += [ZERO] * (math.prod(dims) * m)
            else:
                residuals += [r for _, lhs, rhs in ident.basis_sides() for r in vec_sub(lhs, rhs)]
    rows = []
    for residual in residuals:
        const, linear, quadratic = ZERO, {}, {}
        for k, a in sorted((residual.coefficients() if type(residual) is _Poly
                            else {0: rat(residual)}).items()):
            if keys[k] is None:
                const = a
            else:
                (linear if type(keys[k]) is int else quadratic)[keys[k]] = a
        rows.append((const, linear, quadratic))
    return rows


def check_identity(ident: Identity) -> AxiomResult:
    """Evaluate an identity on all basis tuples, lexicographic order, each
    variable over its own space, unless its law's last binding in the scope
    had equal canonical data, or one of its annihilators is bound to zero
    (then it passes, once _sizes has checked its shapes).  The first failing
    tuple (minimal in lex order) becomes the witness."""
    return AxiomResult(ident.name, *_verdicts(ident)[0])


def certify(laws: Sequence[Law], env: Mapping, suffix: str = "") -> list[AxiomResult]:
    """check_identity's row for each law bound to env, in order, in the active
    certification scope or one opened for the call: every plain certifier."""
    with certification_scope():
        return [check_identity(Identity(law, env, suffix)) for law in laws]


def _verdicts(ident: Identity, lanes: int = 1) -> list:
    """(passed, witness) in each of the identity's lanes (see _Lanes; a
    plain binding has one), as check_identity reads them: one walk for all."""
    law, env = ident.law, ident.env
    key = lanes, [_canonical(env[name]) for name in law.names]
    held = ident.results.get(law)
    if held is None or held[0] != key:
        verdicts = ([(True, None)] * lanes if ident.vanishes()
                    else _first_failures(ident.basis_sides(), lanes))
        held = ident.results[law] = key, verdicts
    return held[1]


# ---------------------------------------------------------------------------
# laws over a batch of points: one walk for many bindings
#
# A batch binds its unknown once for all its points, as a matrix or tensor
# of _Lanes (one lane per point; _combined); every other name stays bound
# as it is, so its lookup table is kept in the scope, and a zero annihilator
# (zero in every lane) still passes its law without a walk.  The
# interpreter then evaluates every point at once, and a point's row is its
# first differing tuple.

# Points per batch.  On the five search-consistency inputs (26,408
# reports; best CPU time of three runs of six passes, 2-vCPU host), 16 lanes
# took 0.86 s, 64 took 0.79, 128 took 0.73, 256 and 512 took 0.91 and 1,024
# took 0.96, and peak RSS read 23.1 MB at 128 lanes, 23.5 at 256, 24.7 at
# 512, 27.1 at 1,024 and 42 with a whole 6,561-point box in one batch.
# With perfbench corpus (ten alternating 24-s pairs against the code before
# batches), 128 lanes took 37.0% less wall time but read 0.14 MB more peak
# RSS in every pair, more than the 0.09 MB between the quartiles of the
# runs without batches; 64 lanes took 34.7% less and stayed within them.
# Every box search certifies its survivors at the same width (check_on_box).
_BATCH_WIDTH = 64


class _Lanes:
    """One exact rational per member of a batch: _Lanes(rationals), held
    as int numerators ``nums`` over one ``den`` (``values`` reads them back,
    canonical) so the arithmetic stays in ints, as _Poly's does.  +, - and *
    act lane by lane, a rational acting on every lane; it is truthy when any
    lane is nonzero, and it equals only itself (it has no __eq__), so a scope
    never reuses one batch's verdicts for another.  Times a rational 1 it is
    itself, times 0 it is int 0."""

    __slots__ = ("nums", "den")

    def __init__(self, values: tuple, den: int = 0):
        if not den and (den := math.lcm(*(v.denominator for v in values))) > 1:
            values = tuple(v.numerator * (den // v.denominator) for v in values)
        self.nums, self.den = values, den

    @property
    def values(self) -> tuple:
        den = self.den
        return self.nums if den == 1 else tuple(
            a // den if a % den == 0 else Fraction(a, den) for a in self.nums)

    def __bool__(self):
        return any(self.nums)

    def __neg__(self):
        return _Lanes(tuple(map(operator.neg, self.nums)), self.den)

    def _sum(self, op, other):
        """op (+ or -) lane by lane, with other's lanes or with the rational other."""
        nums, den = ((other.nums, other.den) if type(other) is _Lanes
                     else (itertools.repeat(other.numerator), other.denominator))
        if den == self.den:
            return _Lanes(tuple(map(op, self.nums, nums)), den)
        lcm = math.lcm(self.den, den)
        mine, nums = (map(operator.mul, n, itertools.repeat(lcm // d))
                      for n, d in ((self.nums, self.den), (nums, den)))
        return _Lanes(tuple(map(op, mine, nums)), lcm)

    def __add__(self, other):
        return self._sum(operator.add, other) if other else self

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(operator.sub, other) if other else self

    __rsub__ = lambda self, other: -self + other  # noqa: E731  (other - self, other rational)

    def __mul__(self, other):
        if type(other) is _Lanes:
            return _Lanes(tuple(map(operator.mul, self.nums, other.nums)), self.den * other.den)
        if other == 1:
            return self
        if not other:
            return ZERO
        return _Lanes(tuple(map(operator.mul, self.nums, itertools.repeat(other.numerator))),
                      self.den * other.denominator)

    __rmul__ = __mul__


def _first_failures(sides, lanes: int) -> list:
    """(passed, witness) in each lane of a walk of (indices, lhs, rhs), one
    lane for a plain walk: the first tuple at which the lane's sides differ,
    both sides read in that lane.  Whole sides are compared first."""
    verdicts, open_lanes = [(True, None)] * lanes, range(lanes)
    for idx, lhs, rhs in sides:
        if lhs != rhs and (failed := _differing(lhs, rhs, open_lanes)):
            indices = tuple(i + 1 for i in idx)
            lhs, rhs = _by_lane(lhs, lanes), _by_lane(rhs, lanes)
            for lane in failed:
                verdicts[lane] = False, Witness(indices, tuple(map(rat, lhs[lane])),
                                                tuple(map(rat, rhs[lane])))
            open_lanes = [lane for lane in open_lanes if lane not in failed]
            if not open_lanes:
                break
    return verdicts


def _differing(lhs: tuple, rhs: tuple, lanes: Sequence[int]) -> set:
    """The lanes among ``lanes`` in which lhs and rhs differ."""
    failed = set()
    for a, b in zip(lhs, rhs):
        d = a - b
        if d:
            if type(d) is not _Lanes:  # a rational: every lane differs
                return set(lanes)
            failed.update(lane for lane in lanes if d.nums[lane])
    return failed


def _by_lane(side: tuple, lanes: int) -> list:
    """A side of a walk as one tuple per lane."""
    return list(zip(*(a.values if type(a) is _Lanes else itertools.repeat(a, lanes)
                      for a in side)))


@functools.cache  # on first use: a fresh process imports without building any law
def _declare_identities():
    """Every algebra and module identity, each declared once, by group: a
    kind's axiom system, a predicate, a morphism or operator identity, the
    product or coproduct side of an epsilon-bialgebra, the convolution and
    its End_alpha rows, a module kind's axiom system, or an O-operator
    identity.  Each product and map a law binds has its shape over named
    spaces in the signature table at the end (see Law).

    A matrix equation A = B is declared column by column, as an arity-1 law
    A(x) = B(x), so its first failing basis index and sides are the first
    differing column of the two matrices."""
    x, y, z = (Term("var", i) for i in range(3))
    al, r, f, tal = (lambda u, name=name: Term("map", name, u)
                     for name in ("alpha", "r", "f", "target-alpha"))
    mul, br, op, source, target, lt, rt, tl, tr = (
        lambda u, v, name=name: Term("op", name, u, v) for name in (
            "mul", "bracket", "op", "source", "target", "left", "right", "tleft", "tright"))

    def assoc(u, v, w):  # (u.v).alpha(w) = alpha(u).(v.w)
        return mul(mul(u, v), al(w)), mul(al(u), mul(v, w))

    (l1, r1), (l2, r2) = assoc(x, y, z), assoc(y, x, z)
    left_symmetry = ("hom-left-symmetry", l1 - r1, l2 - r2)
    jacobi = br(al(x), br(y, z)) + br(al(y), br(z, x)) + br(al(z), br(x, y)), Term("sum", ())
    lie = (("skew-symmetry", br(x, y), -br(y, x)), ("hom-jacobi",) + jacobi)
    groups = {
        "generic": (),
        "hom-associative": (("hom-associativity",) + assoc(x, y, z),),
        "hom-lie": lie,
        "hom-prelie": (left_symmetry,),
        "hom-novikov": (("novikov-right-commutativity",
                         mul(mul(x, y), al(z)), mul(mul(x, z), al(y))),
                        left_symmetry),
        "hom-dendriform": (
            ("dendriform-left", lt(lt(x, y), al(z)), lt(al(x), lt(y, z) + rt(y, z))),
            ("dendriform-middle", lt(rt(x, y), al(z)), rt(al(x), lt(y, z))),
            ("dendriform-right", rt(al(x), rt(y, z)), rt(lt(x, y) + rt(x, y), al(z)))),
        "hom-postlie": lie + (
            # alpha(z).[x,y] = [z.x, alpha(y)] + [alpha(x), z.y]
            ("postlie-bracket-compatibility", mul(al(z), br(x, y)),
             br(mul(z, x), al(y)) + br(al(x), mul(z, y))),
            # alpha(z).(y.x) + (y.z).alpha(x) + [y,z].alpha(x)
            #   = alpha(y).(z.x) + (z.y).alpha(x)
            ("postlie-twisted-left-symmetry",
             mul(al(z), mul(y, x)) + mul(mul(y, z), al(x)) + mul(br(y, z), al(x)),
             mul(al(y), mul(z, x)) + mul(mul(z, y), al(x)))),
        "hom-l-dendriform": (
            ("l-dendriform-right", tr(al(x), tr(y, z)),
             tr(tr(x, y), al(z)) + tr(tl(x, y), al(z)) + tr(al(y), tr(x, z))
             - tr(tl(y, x), al(z)) - tr(tr(y, x), al(z))),
            ("l-dendriform-left", tr(al(x), tl(y, z)),
             tl(tr(x, y), al(z)) + tl(al(y), tr(x, z)) + tl(al(y), tl(x, z))
             - tl(tl(y, x), al(z)))),
        "multiplicative": (("multiplicative", al(op(x, y)), op(al(x), al(y))),),
        "left-commutative": (("left-commutativity",
                              mul(mul(x, y), al(z)), mul(mul(y, x), al(z))),),
        "lie-admissible": (("lie-admissibility",) + jacobi,),
        "intertwines-twists": (("intertwines-twists", f(al(x)), tal(f(x))),),
        "preserves": (("preserves", f(source(x, y)), target(f(x), f(y))),),
        # r(x).r(y) = r(r(x).y + x.r(y) + weight x.y)
        "rota-baxter": (("rota-baxter", mul(r(x), r(y)),
                         r(mul(r(x), y) + mul(x, r(y)) + Term("scaled", "weight", mul(x, y)))),),
        "commutes-with-twist": (("commutes-with-twist", r(al(x)), al(r(x))),),
        "epsilon-product": (("hom-associativity",) + assoc(x, y, z),
                            ("centroid-left", mul(al(x), y), al(mul(x, y))),
                            ("centroid-right", mul(x, al(y)), al(mul(x, y))),
                            ("involutive-twist", al(al(x)), x)),
    }

    # module laws: v is the carrier basis vector; an action family acts as
    # act(algebra element, carrier vector), so the matrix identity
    # act_a(x).act_b(y) = ... reads act_a(x, act_b(y, v)) = ... column by column
    v = Term("var", -1)
    be, T, b, bM = (lambda u, name=name: Term("map", name, u) for name in ("beta", "T", "b", "bM"))
    L, R, rho, D, U, LT, RT, LR, RR, Act = (
        lambda u, w, name=name: Term("op", name, u, w) for name in (
            "l", "r", "rho", "diamond", "bullet", "lt", "rt", "lr", "rr", "act"))

    def twist(act):  # beta(x.v) = alpha(x).beta(v)
        return be(act(x, v)), act(al(x), be(v))

    def literal(act):  # the printed variant: beta(x.v) = x.beta(v)
        return be(act(x, v)), act(x, be(v))

    def lie_action(act, bracket):  # [x,y].beta(v) = alpha(x).(y.v) - alpha(y).(x.v)
        return act(bracket(x, y), be(v)), act(al(x), act(y, v)) - act(al(y), act(x, v))

    def hor(u, w):  # the horizontal product tleft + tright
        return tl(u, w) + tr(u, w)

    postlie_twists = (("module-twist-diamond",) + twist(D), ("module-twist-bullet",) + twist(U))
    postlie_actions = (
        ("postlie-module-bracket-diamond",) + lie_action(D, br),
        ("postlie-module-product", D(mul(x, y), be(v)), U(al(x), D(y, v)) - D(al(y), U(x, v))),
        ("postlie-module-bracket-bullet", U(br(x, y), be(v)),
         U(al(x), U(y, v)) - U(al(y), U(x, v)) - U(mul(x, y), be(v)) + U(mul(y, x), be(v))))
    groups.update({
        "assoc-bimodule": (
            ("bimodule-left", L(mul(x, y), be(v)), L(al(x), L(y, v))),
            ("bimodule-mixed", R(al(y), L(x, v)), L(al(x), R(y, v))),
            ("bimodule-right", R(al(y), R(x, v)), R(mul(x, y), be(v)))),
        "lie-module": (("module-twist-compat",) + twist(rho),
                       ("lie-action",) + lie_action(rho, br)),
        "lie-representation": (("lie-representation",) + lie_action(rho, br),),
        "prelie-bimodule": (
            ("prelie-bimodule-left", L(mul(x, y), be(v)) - L(al(x), L(y, v)),
             L(mul(y, x), be(v)) - L(al(y), L(x, v))),
            ("prelie-bimodule-right", L(al(x), R(y, v)) - R(al(y), L(x, v)),
             R(mul(x, y), be(v)) - R(al(y), R(x, v)))),
        "postlie-module": postlie_twists + postlie_actions,
        "postlie-module-literal": postlie_twists + (
            ("literal-twist-commute-diamond",) + literal(D),
            ("literal-twist-commute-bullet",) + literal(U)) + postlie_actions,
        "ldend-bimodule": (
            ("ldend-bimodule-1",) + lie_action(LR, lambda u, w: hor(u, w) - hor(w, u)),
            ("ldend-bimodule-2", LT(tr(x, y) - tl(y, x), be(v)),
             LR(al(x), LT(y, v)) - LT(al(y), LR(x, v)) - LT(al(y), LT(x, v))),
            ("ldend-bimodule-3", RR(tr(x, y), be(v)),
             RR(al(y), RR(x, v)) + RR(al(y), RT(x, v)) + LR(al(x), RR(y, v))
             - RR(al(y), LR(x, v)) - RR(al(y), LT(x, v))),
            ("ldend-bimodule-4", RR(tl(x, y), be(v)),
             RT(al(y), RR(x, v)) + LT(al(x), RR(y, v)) + LT(al(x), RT(y, v))
             - RT(al(y), LT(x, v))),
            ("ldend-bimodule-5", RT(hor(x, y), be(v)),
             LR(al(x), RT(y, v)) - RT(al(y), LR(x, v)) + RT(al(y), RT(x, v)))),
        # bM.act(e_i) = act(b(e_i)).bM, a precondition of the beta twist
        "intertwines-action": (("intertwines-action", bM(Act(x, v)), Act(b(x), bM(v))),),
        "oop-twist-compat": (("oop-twist-compat", al(T(x)), T(be(x))),),
    })

    # O-operators T: carrier -> algebra, over two carrier variables x, y
    assoc_oop = T(L(T(x), y) + R(T(y), x))
    groups.update({
        "o-operator-associative": (("o-operator-associative", mul(T(x), T(y)), assoc_oop),),
        "o-operator-prelie": (("o-operator-prelie", mul(T(x), T(y)), assoc_oop),),
        "o-operator-lie": (("o-operator-lie", br(T(x), T(y)),
                            T(rho(T(x), y) - rho(T(y), x))),),
    })

    # epsilon-bialgebras: "Delta" the coproduct as a map A -> A (x) A, "M" the
    # product as a map A (x) A -> A, and f -> alpha.f, f -> f.alpha, composition
    # and the convolution R on End_alpha, matrices flattened row-major, over a
    # basis "E" of End_alpha
    D, M, E, left_al, right_al, conv = (lambda u, name=name: Term("map", name, u) for name in (
        "Delta", "M", "E", "left-alpha", "right-alpha", "R"))

    def comp(u, w):
        return Term("op", "comp", u, w)

    def tensor(left, right, u):  # (left (x) right)(u), the factors as templates
        hole = Term("hole", None)
        return Term("tensor", None, left(hole), right(hole), u)

    def ident(u):
        return u

    f1, f2, f3 = E(x), E(y), E(z)
    groups.update({
        "epsilon-coproduct": (
            ("hom-coassociativity", tensor(al, D, D(x)), tensor(D, al, D(x))),
            # Delta(x.y) = (alpha(x).- (x) alpha)(Delta y) + (alpha (x) -.alpha(y))(Delta x)
            ("bialgebra-compatibility", D(mul(x, y)),
             tensor(lambda u: mul(al(x), u), al, D(y)) + tensor(al, lambda u: mul(u, al(y)), D(x))),
            ("cocentroid-left", tensor(al, ident, D(x)), D(al(x))),
            ("cocentroid-right", tensor(ident, al, D(x)), D(al(x)))),
        # R(f)(x) = M((alpha (x) f)(Delta x)): the left side is column x of R(f)
        "convolution": (("convolution", M(tensor(al, f, D(x))), Term("sum", ())),),
        "end-alpha": (
            ("endalg-hom-associative", comp(comp(f1, f2), left_al(f3)),
             comp(left_al(f1), comp(f2, f3))),
            ("convolution-closed", right_al(conv(f1)), left_al(conv(f1))),
            ("convolution-rota-baxter", comp(conv(f1), conv(f2)),
             conv(comp(conv(f1), f2)) + conv(comp(f1, conv(f2))))),
    })

    # each product's and map's shape over the spaces A (an algebra), B (the
    # target of a morphism "f"), M (a carrier), C (the n x n matrices on A,
    # flattened) and K (a basis "E" of End_alpha), AA being A (x) A: a kind's
    # products, "op" (multiplicative), the action families (algebra x carrier
    # -> carrier; "r" as a product is the right action), "T" an O-operator,
    # "Delta" and "M" the coproduct and product as maps (EpsilonHomBialgebra.env)
    # and the End_alpha names (_end_alpha_rows)
    signature = {**dict.fromkeys(("mul", "bracket", "op", "source", "left", "right", "tleft",
                                  "tright"), "A A A"),
                 **dict.fromkeys(("l", "r", "rho", "diamond", "bullet", "lt", "rt", "lr", "rr",
                                  "act"), "A M M"),
                 "target": "B B B", "alpha": "A A", "b": "A A", "f": "B A", "target-alpha": "B B",
                 "beta": "M M", "bM": "M M", "T": "A M", "Delta": "AA A", "M": "A AA",
                 "E": "C K", "comp": "C C C", "left-alpha": "C C", "right-alpha": "C C",
                 "R": "C C"}
    # where a name means something else: "r" an operator, the convolution's "f" an endomorphism
    overrides = {"rota-baxter": {"r": "A A"}, "commutes-with-twist": {"r": "A A"},
                 "convolution": {"f": "A A"}}
    return {group: tuple(Law(*decl, {**signature, **overrides.get(group, {})}) for decl in decls)
            for group, decls in groups.items()}


# ---------------------------------------------------------------------------
# the axiom systems

def hom_associator(a: HomAlgebra, x, y, z) -> tuple:
    """(x.y).alpha(z) - alpha(x).(y.z) for the algebra's "mul" product, canonical."""
    law, = _declare_identities()["hom-associative"]
    sides = Identity(law, {"mul": a.op("mul"), "alpha": a.alpha})(x, y, z)
    return tuple(map(rat, vec_sub(*sides)))


def check_axioms(a: HomAlgebra) -> CertReport:
    """Certify the algebra against its kind's axioms."""
    return CertReport.from_results(certify(_declare_identities()[a.kind],
                                           {**a.ops, "alpha": a.alpha}))


def check_on_box(laws: Sequence[Law], env: Mapping, unknown: str, basis: Sequence,
                 points: Iterable[Sequence]) -> Iterator[CertReport]:
    """The report of ``laws`` (one row each, check_identity's) at each point
    c, in input order, lazily: env binds every name the laws read, with
    env[unknown] + sum_i c_i basis[i] bound to ``unknown``.  The points go in
    batches of _BATCH_WIDTH, each binding ``unknown`` once and walking each law
    once (a vanishing law not at all).  Every point whose rows all pass gets
    one shared report, and a failing point builds only its failing rows: the
    reports are immutable, and equal to fresh ones."""
    points, passing = iter(points), [AxiomResult(law.name, True) for law in laws]
    all_pass = CertReport(True, tuple(passing))
    while batch := list(itertools.islice(points, _BATCH_WIDTH)):
        bound = {**env, unknown: _combined(env[unknown], basis, list(map(_Lanes, zip(*batch))))}
        with certification_scope():  # left before yielding: no scope outlives a batch
            rows = [_verdicts(Identity(law, bound), len(batch)) for law in laws]
        for lane in range(len(batch)):
            verdicts = [row[lane] for row in rows]
            yield all_pass if all(ok for ok, _ in verdicts) else CertReport.from_results(
                [result if ok else AxiomResult(result.name, ok, witness)
                 for result, (ok, witness) in zip(passing, verdicts)])


# ---------------------------------------------------------------------------
# auxiliary predicates

PREDICATES = ("multiplicative", "left-commutative", "lie-admissible")


def check_predicate(a: HomAlgebra, name: str) -> CertReport:
    laws, al = _declare_identities().get(name), a.alpha
    if name == "multiplicative":
        rows = [row for op_name in a.op_names()
                for row in certify(laws, {"op": a.ops[op_name], "alpha": al}, f":{op_name}")]
    elif name == "left-commutative":
        rows = certify(laws, {"mul": a.single_op(), "alpha": al})
    elif name == "lie-admissible":
        mul = a.single_op()
        rows = certify(laws, {"bracket": mul - mul.swap_arguments(), "alpha": al})
    else:
        raise InputError(f"unknown predicate {name!r}; available: {PREDICATES}")
    return CertReport.from_results(rows)


def require_certified(a: HomAlgebra, what: str = "input algebra") -> CertReport:
    return check_axioms(a).require(PreconditionError, f"{what} fails {a.kind} axioms")


# ---------------------------------------------------------------------------
# morphisms, Rota-Baxter, Yau twist

def check_morphism(f: Matrix, a: HomAlgebra, b: HomAlgebra) -> CertReport:
    """Certify f : a -> b as a morphism of Hom-algebras of the same kind."""
    if a.kind != b.kind:
        raise InputError(f"morphism kind mismatch: {a.kind} vs {b.kind}")
    if f.rows != b.dim or f.cols != a.dim:
        raise InputError(f"morphism must be {b.dim}x{a.dim}, got {f.rows}x{f.cols}")
    laws = _declare_identities()
    rows = certify(laws["intertwines-twists"], {"f": f, "alpha": a.alpha, "target-alpha": b.alpha})
    for name in a.op_names():
        rows += certify(laws["preserves"], {"source": a.ops[name], "target": b.ops[name], "f": f},
                        f":{name}")
    return CertReport.from_results(rows)


def _rota_baxter_laws(a: HomAlgebra, weight) -> tuple[tuple[Law, ...], dict]:
    """check_rota_baxter's laws and their binding but for "r": the single
    product (InputError first if there is none), then the weight, read by rat."""
    env = {"mul": a.single_op(), "weight": rat(weight), "alpha": a.alpha}
    laws = _declare_identities()
    return laws["rota-baxter"] + laws["commutes-with-twist"], env


def check_rota_baxter(a: HomAlgebra, r: Matrix, weight) -> CertReport:
    """Certify r as a Rota-Baxter operator of the given weight.

    Uses the algebra's single product (the bracket, for Hom-Lie input).  Also
    reports whether r commutes with the twisting map, which the downstream
    splitting constructions require.
    """
    weight = rat(weight)
    if r.rows != a.dim or r.cols != a.dim:
        raise InputError(f"operator must be {a.dim}x{a.dim}")
    laws, env = _rota_baxter_laws(a, weight)
    return CertReport.from_results(certify(laws, {**env, "r": r}))


def yau_twist(a: HomAlgebra, g: Matrix) -> HomAlgebra:
    """Twist every product into g(x*y) and the twist map into g.alpha.

    Mass-produces genuinely twisted test instances: g must be an algebra
    endomorphism commuting with alpha (checked), which makes every axiom
    system considered here stable under the twist.
    """
    check_morphism(g, a, a).require(PreconditionError, "yau twist map is not an endomorphism")
    new_ops = {name: t.postcompose(g) for name, t in a.ops.items()}
    return HomAlgebra(a.dim, a.kind, new_ops, mat_mul(g, a.alpha))


# ---------------------------------------------------------------------------
# epsilon-Hom-bialgebras and the convolution Rota-Baxter operator

@dataclass(frozen=True, eq=False)
class EpsilonHomBialgebra:
    """Hom-associative product plus Hom-coassociative coproduct, linked by
    the infinitesimal compatibility law.  delta[i,j,k] is the coefficient of
    e_j (x) e_k in the coproduct of e_i.  The declared laws read the
    coproduct as a map A -> A (x) A and apply maps to its tensor factors
    through tensor terms (see Term)."""

    dim: int
    mul: Tensor3
    delta: Tensor3
    alpha: Matrix

    def __post_init__(self):
        n = self.dim
        if self.mul.dims != (n, n, n) or self.delta.dims != (n, n, n):
            raise InputError("bialgebra tensors must be cubes of dim")
        if self.alpha.rows != n or self.alpha.cols != n:
            raise InputError("alpha must be dim x dim")

    def __eq__(self, other):
        return (isinstance(other, EpsilonHomBialgebra) and self.dim == other.dim
                and self.mul == other.mul and self.delta == other.delta
                and self.alpha == other.alpha)

    def comul_vec(self, i: int) -> tuple:
        """Coproduct of e_i, flattened on the (j,k) tensor basis."""
        base = i * self.dim * self.dim
        return self.delta.data[base:base + self.dim * self.dim]

    @functools.cached_property
    def env(self) -> dict:
        """The names the coproduct and convolution laws bind: the product as
        a tensor "mul" and as the n x n^2 map "M" (column p*n+q is e_p.e_q),
        the twist, and "Delta", the n^2 x n map whose column i is
        comul_vec(i).  Built once per bialgebra, so a scope keeps its tables."""
        n = self.dim
        return {"mul": self.mul, "alpha": self.alpha,
                "M": Matrix._exact(self.mul.data[k::n] for k in range(n)),
                "Delta": Matrix._exact(self.delta.data[r::n * n] for r in range(n * n))}


def _epsilon_mul_rows(b: EpsilonHomBialgebra) -> list[AxiomResult]:
    """Prerequisites touching only the product and the twist."""
    return certify(_declare_identities()["epsilon-product"], {"mul": b.mul, "alpha": b.alpha})


def _epsilon_delta_laws(b: EpsilonHomBialgebra) -> tuple[tuple[Law, ...], dict]:
    """_epsilon_delta_rows' laws, ``epsilon-coproduct``, and their binding, b.env."""
    return _declare_identities()["epsilon-coproduct"], b.env


def _epsilon_delta_rows(b: EpsilonHomBialgebra) -> list[AxiomResult]:
    """Prerequisites involving the coproduct."""
    return certify(*_epsilon_delta_laws(b))


def epsilon_prerequisites(b: EpsilonHomBialgebra) -> CertReport:
    """All structural prerequisites for the convolution operator."""
    return CertReport.from_results(_epsilon_mul_rows(b) + _epsilon_delta_rows(b))


def commuting_endomorphism_basis(alpha: Matrix) -> list[Matrix]:
    """Basis of {f : f.alpha = alpha.f} inside n x n matrices, deterministic:
    the kernel of the declared ``commutes-with-twist`` row, linear in f."""
    n = alpha.rows
    laws = _declare_identities()["commutes-with-twist"]
    system = linear_rows(laws, {"alpha": alpha}, "r", unit_basis((n, n)))
    return [Matrix([v.column(0)[p * n:(p + 1) * n] for p in range(n)]) for v in nullspace(system)]


def convolution_operator(b: EpsilonHomBialgebra, f: Matrix) -> Matrix:
    """R(f) = mul o (alpha (x) f) o delta, as a matrix: column i is the
    declared ``convolution`` term at e_i."""
    law, = _declare_identities()["convolution"]
    cols = [lhs for _, lhs, _ in Identity(law, {**b.env, "f": f}).basis_sides()]
    return Matrix.from_columns(cols) if cols else Matrix.zeros(0, 0)


def _end_alpha_rows(b: EpsilonHomBialgebra, basis: Sequence[Matrix]) -> list[AxiomResult]:
    """The declared ``end-alpha`` rows with "E" spanned by ``basis``: the
    composition algebra is Hom-associative with twist alpha.f, and the
    convolution R maps it into End_alpha as a weight-0 Rota-Baxter operator."""
    n, cells, one = b.dim, b.dim ** 2, Matrix.identity(b.dim)
    conv = linear_rows(_declare_identities()["convolution"], b.env, "f", unit_basis((n, n)))
    env = {"E": Matrix.from_columns([sum(f.data, ()) for f in basis]),
           # e_pq . e_qs = e_ps, matrix units flattened row-major
           "comp": Tensor3.from_basis_products(cells, cells, cells, lambda u, w: basis_vec(
               cells, u - u % n + w % n) if u % n == w // n else (ZERO,) * cells),
           "left-alpha": b.alpha.kron(one), "right-alpha": one.kron(b.alpha.transpose()),
           # row x*n+p of conv is entry (p, x) of R(f)
           "R": Matrix([conv.row(x * n + p) for p in range(n) for x in range(n)])}
    return certify(_declare_identities()["end-alpha"], env)


def convolution_rb(b: EpsilonHomBialgebra) -> CertReport:
    """Certify the convolution operator as weight-0 Rota-Baxter on End_alpha.

    First checks all prerequisites (Hom-associativity, Hom-coassociativity,
    compatibility, involutive bicentroid); only if they pass are the
    ``end-alpha`` rows certified on a basis of End_alpha under the
    composition product.
    """
    prereq = epsilon_prerequisites(b)
    if not prereq.passed:
        return prereq
    return CertReport.from_results(
        list(prereq.axioms) + _end_alpha_rows(b, commuting_endomorphism_basis(b.alpha)))
