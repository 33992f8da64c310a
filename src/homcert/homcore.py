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
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Optional, Sequence

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
# rationals are: an int exactly when integral.

class Term:
    """("var", index) for a variable (index -1 is the law's last variable),
    ("op", name, u, v) for a bilinear product, ("map", name, u) for a linear
    map, ("scaled", name, u) for a named scalar times u (a zero scalar drops
    u), ("sum", signs, *terms) for a sum of sign * term with signs +-1
    (nested sums are flattened), or ("tensor", None, f, g, u) for
    (f (x) g)(u).  There u lies in V (x) V, coordinate i * dim V + j on
    e_i (x) e_j, and f and g are one-argument templates over V, terms in
    which ("hole", None) stands for the basis vector they are applied to;
    the image of e_i (x) e_j is f(e_i) (x) g(e_j), coordinate p * len(g) + q."""

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


def _length(t: Term, env: Mapping, dims: Sequence[int], hole=None):
    """Length of the term's vector, variable i of length dims[i] and the
    hole of length ``hole``; None if unknown (an empty sum)."""
    if t.kind in ("op", "map"):
        obj = env[t.name]
        return obj.d3 if t.kind == "op" else obj.rows
    if t.kind == "tensor":
        n, m = _tensor_shape(t, env, dims)
        return _length(t.args[0], env, dims, n) * m
    if t.kind in ("var", "hole"):
        return dims[t.name] if t.kind == "var" else hole
    return _length(t.args[0], env, dims, hole) if t.args else None


def _tensor_shape(t: Term, env: Mapping, dims: Sequence[int]) -> tuple[int, int]:
    """(dim V, len(g)) for a tensor node (f (x) g)(u) with u in V (x) V."""
    n = math.isqrt(_length(t.args[2], env, dims))
    return n, _length(t.args[1], env, dims, n)


def _compile(t: Term, basis: bool):
    """fn(variables, tables) -> the term's sparse vector.  With basis=True
    the variables are basis indices, and a product or map of variables is a
    table lookup; otherwise they are sparse vectors."""
    name = t.name
    if t.kind == "var":
        return (lambda v, T: ((v[name], ONE),)) if basis else (lambda v, T: v[name])
    # a template's hole: the basis index its tensor node stores under None
    if t.kind == "hole":
        return lambda v, T: ((T[None], ONE),)
    if t.kind == "map" and t.args[0].kind == "hole":
        return lambda v, T: T[name][T[None]]
    if basis and t.kind in ("op", "map") and all(u.kind == "var" for u in t.args):
        if t.kind == "map":
            i, = (u.name for u in t.args)
            return lambda v, T: T[name][v[i]]
        i, j = (u.name for u in t.args)
        return lambda v, T: T[name][v[i]][v[j]]
    fns = [_compile(u, basis) for u in t.args]
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
    """A declared identity lhs == rhs: its arity, the space each variable
    ranges over, one node per name a structure must bind, and both sides
    compiled for basis tuples on first use (a process that never evaluates
    a law holds no closures for it).

    Variables are typed by use: each ranges over the domain of the first
    product slot or map it is an argument of, so algebra and carrier
    variables mix freely."""

    def __init__(self, name: str, lhs: Term, rhs: Term):
        self.name, self.lhs, self.rhs = name, lhs, rhs
        nodes = [t for side in (lhs, rhs) for t in _nodes(side)]
        variables = {t.name for t in nodes if t.kind == "var"}
        self.arity = max((i + 1 for i in variables), default=0) + (-1 in variables)
        domains = {}  # variable position -> (bound name, attribute giving its length)
        for t in nodes:
            if t.kind in ("op", "map"):
                for slot, u in enumerate(t.args):
                    if u.kind == "var":
                        domains.setdefault(u.name % self.arity,
                                           (t.name, "cols" if t.kind == "map" else ("d1", "d2")[slot]))
        self.domains = tuple(domains[i] for i in range(self.arity))
        self.bound = tuple({t if t.kind == "tensor" else t.name: t for t in nodes
                            if t.kind in ("op", "map", "scaled", "tensor")}.values())
        self.names = tuple(t.name for t in self.bound if t.kind != "tensor")

    @functools.cached_property
    def on_basis(self):
        return _compile(self.lhs, True), _compile(self.rhs, True)


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
    each name's table while its object stays bound, each Law's last result."""

    def __enter__(self):
        self.token = _SCOPE.set(_SCOPE.get() or ({}, {}))

    def __exit__(self, *exc):
        _SCOPE.reset(self.token)


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

    def bind(self):
        """(tables, dims, m): lookup tables for the bound names, held in the
        scope, the length of each variable, and the length m of both sides."""
        law, env = self.law, self.env
        dims = [getattr(env[name], attr) for name, attr in law.domains]
        tables = {}
        for t in law.bound:
            if t.kind == "tensor":
                tables[t] = (*_tensor_shape(t, env, dims), {}, {})
                continue
            obj, held = env[t.name], self.tables.get(t.name)
            if t.kind == "scaled":
                tables[t.name] = obj
                continue
            if held is None or held[0] is not obj:
                held = self.tables[t.name] = (obj, (
                    [[_pairs(obj.product_vec(i, j)) for j in range(obj.d2)] for i in range(obj.d1)]
                    if t.kind == "op" else [_pairs(col) for col in zip(*obj.data)]))
            tables[t.name] = held[1]
        m = _length(law.lhs, env, dims)
        return tables, dims, (_length(law.rhs, env, dims) if m is None else m)

    def __call__(self, *vectors):
        tables, _, m = self.bind()
        v = [tuple(enumerate(x)) for x in vectors]
        return tuple(tuple(map(rat, _dense(_compile(side, False)(v, tables), m)))
                     for side in (self.law.lhs, self.law.rhs))

    def basis_sides(self):
        """(indices, lhs, rhs) at every basis tuple, 0-based indices in
        lexicographic order, each variable over the basis of its own space."""
        tables, dims, m = self.bind()
        fl, fr = self.law.on_basis
        for idx in itertools.product(*map(range, dims)):
            yield idx, _dense(fl(idx, tables), m), _dense(fr(idx, tables), m)


def _specs(group: str, env: Mapping, suffix: str = "") -> list[Identity]:
    """The group's declared laws bound to env, in one scope."""
    with certification_scope():
        return [Identity(law, env, suffix) for law in _declare_identities()[group]]


def _residuals(laws: Sequence[Law], env: Mapping) -> list:
    """lhs - rhs of every law at every basis tuple, in law, lexicographic
    tuple and coordinate order."""
    return [d for law in laws for _, lhs, rhs in Identity(law, env).basis_sides()
            for d in vec_sub(lhs, rhs)]


def unit_basis(shape: tuple) -> list:
    """The units of a matrix of shape (rows, cols) or a tensor of shape
    (d1, d2, d3): unit c holds 1 at flat position c (row-major)."""
    cells = math.prod(shape)
    if len(shape) == 2:
        rows, cols = shape
        return [Matrix._exact([[int(r * cols + q == c) for q in range(cols)] for r in range(rows)])
                for c in range(cells)]
    return [Tensor3(*shape, basis_vec(cells, c)) for c in range(cells)]


def linear_rows(laws: Sequence[Law], env: Mapping, unknown: str, basis: Sequence) -> Matrix:
    """The constraint matrix of laws that are linear in ``unknown``: column
    c holds lhs - rhs of every law at every basis tuple, in law, lexicographic
    tuple and coordinate order, with basis[c] bound to ``unknown``.  Over
    ``unit_basis(shape)`` its kernel is the set of unknowns on which the laws
    hold, written row-major."""
    with certification_scope():
        columns = [_residuals(laws, {**env, unknown: unit}) for unit in basis]
    return Matrix.from_columns(columns)


def _degree(t: Term, unknown: str) -> int:
    """The degree of a term in the bound name ``unknown``: every node is
    linear in each of its arguments and in its own bound name."""
    if t.kind == "sum":
        return max((_degree(u, unknown) for u in t.args), default=0)
    return (t.kind in ("op", "map", "scaled") and t.name == unknown) + sum(
        _degree(u, unknown) for u in t.args)


def quadratic_rows(laws: Sequence[Law], env: Mapping, unknown: str,
                   basis: Sequence) -> list[tuple]:
    """The residuals lhs - rhs of laws of degree at most 2 in ``unknown``,
    as exact forms in coefficients c over ``basis``: with env[unknown] +
    sum_i c_i basis[i] bound to ``unknown``, row r (in linear_rows' order) is

        const + sum_i c_i linear[i] + sum_{i<=j} c_i c_j quadratic[i, j],

    returned as (const, linear, quadratic), dicts keeping nonzero entries.
    Polarization reads them from bindings of the laws at the base point f(0),
    at f(+-basis[i]) and at f(basis[i] + basis[j]).  Raises InputError for a
    law of higher degree, on which these forms would not be exact."""
    for law in laws:
        if max(_degree(law.lhs, unknown), _degree(law.rhs, unknown)) > 2:
            raise InputError(f"law {law.name!r} has degree above 2 in {unknown!r}")
    base = env[unknown]

    def at(point):
        return _residuals(laws, {**env, unknown: point})

    with certification_scope():
        const = at(base)
        plus = [at(base + b) for b in basis]
        minus = [at(base - b) for b in basis]
        cross = {(i, j): at(base + basis[i] + basis[j])
                 for i, j in itertools.combinations(range(len(basis)), 2)}
    rows = []
    for r, k in enumerate(const):
        linear = {i: Fraction(p[r] - m[r], 2) for i, (p, m) in enumerate(zip(plus, minus))}
        quadratic = {(i, i): Fraction(p[r] + m[r], 2) - k for i, (p, m) in enumerate(zip(plus, minus))}
        quadratic.update({(i, j): f[r] - plus[i][r] - plus[j][r] + k
                          for (i, j), f in cross.items()})
        rows.append((k, {i: a for i, a in linear.items() if a},
                     {ij: a for ij, a in quadratic.items() if a}))
    return rows


def check_identity(ident: Identity) -> AxiomResult:
    """Evaluate an identity on all basis tuples, lexicographic order, each
    variable over its own space, unless its law's last binding in the scope
    had equal canonical data.  The first failing tuple (minimal in lex
    order) becomes the witness."""
    key = [_canonical(ident.env[name]) for name in ident.law.names]
    held = ident.results.get(ident.law)
    if held is None or held[0] != key:
        held = ident.results[ident.law] = key, *_first_failure(ident.basis_sides())
    return AxiomResult(ident.name, *held[1:])


def _first_failure(sides) -> tuple:
    """(passed, witness): the first (indices, lhs, rhs) with lhs != rhs."""
    for idx, lhs, rhs in sides:
        if lhs != rhs:
            lhs, rhs = (tuple(map(rat, side)) for side in (lhs, rhs))
            return False, Witness(tuple(i + 1 for i in idx), lhs, rhs)
    return True, None


@functools.cache  # on first use: a fresh process imports without building any law
def _declare_identities():
    """Every algebra and module identity, each declared once, by group: a
    kind's axiom system, a predicate, a morphism or operator identity, the
    product or coproduct side of an epsilon-bialgebra, the convolution and
    its End_alpha rows, a module kind's axiom system, or an O-operator
    identity.  Names to bind: "alpha" the twist and the kind's products;
    "op" one product (multiplicative); "f", "target-alpha", "source" and
    "target" (morphisms); "mul" the single product; "r" and "weight"
    (rota-baxter); for a module also "beta" the carrier twist and each
    action family as a product algebra x carrier -> carrier; "T" an
    O-operator carrier -> algebra; "b", "bM" and "act" (intertwines-action);
    "Delta", "M" and "f" (the coproduct rows and the convolution, see
    EpsilonHomBialgebra.env); "E", "comp", "left-alpha", "right-alpha" and "R"
    (end-alpha, see _end_alpha_rows).

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
    return {group: tuple(Law(*decl) for decl in decls) for group, decls in groups.items()}


# ---------------------------------------------------------------------------
# the axiom systems

def hom_associator(a: HomAlgebra, x, y, z) -> tuple:
    """(x.y).alpha(z) - alpha(x).(y.z) for the algebra's "mul" product."""
    ident, = _specs("hom-associative", {"mul": a.op("mul"), "alpha": a.alpha})
    return vec_sub(*ident(x, y, z))


def kind_axioms(a: HomAlgebra) -> list[Identity]:
    """The defining identities of the algebra's declared kind."""
    return _specs(a.kind, {**a.ops, "alpha": a.alpha})


# ---------------------------------------------------------------------------
# auxiliary predicates

PREDICATES = ("multiplicative", "left-commutative", "lie-admissible")


def predicate_axioms(a: HomAlgebra, name: str) -> list[Identity]:
    al = a.alpha
    if name == "multiplicative":
        return [spec for op_name in a.op_names()
                for spec in _specs(name, {"op": a.ops[op_name], "alpha": al}, f":{op_name}")]
    if name == "left-commutative":
        return _specs(name, {"mul": a.single_op(), "alpha": al})
    if name == "lie-admissible":
        mul = a.single_op()
        return _specs(name, {"bracket": mul - mul.swap_arguments(), "alpha": al})
    raise InputError(f"unknown predicate {name!r}; available: {PREDICATES}")


def check_axioms(a: HomAlgebra, predicates: Sequence[str] = ()) -> CertReport:
    """Certify the algebra against its kind's axioms plus optional predicates."""
    specs = kind_axioms(a) + [s for p in predicates for s in predicate_axioms(a, p)]
    return CertReport.from_results([check_identity(s) for s in specs])


def check_predicate(a: HomAlgebra, name: str) -> CertReport:
    return CertReport.from_results([check_identity(s) for s in predicate_axioms(a, name)])


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
    rows = [check_identity(s) for s in _specs(
        "intertwines-twists", {"f": f, "alpha": a.alpha, "target-alpha": b.alpha})]
    for name in a.op_names():
        env = {"source": a.ops[name], "target": b.ops[name], "f": f}
        rows += [check_identity(s) for s in _specs("preserves", env, f":{name}")]
    return CertReport.from_results(rows)


def check_rota_baxter(a: HomAlgebra, r: Matrix, weight) -> CertReport:
    """Certify r as a Rota-Baxter operator of the given weight.

    Uses the algebra's single product (the bracket, for Hom-Lie input).  Also
    reports whether r commutes with the twisting map, which the downstream
    splitting constructions require.
    """
    weight = rat(weight)
    if r.rows != a.dim or r.cols != a.dim:
        raise InputError(f"operator must be {a.dim}x{a.dim}")
    env = {"mul": a.single_op(), "r": r, "weight": weight, "alpha": a.alpha}
    return CertReport.from_results([check_identity(s) for s in (
        _specs("rota-baxter", env) + _specs("commutes-with-twist", env))])


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
    return [check_identity(s)
            for s in _specs("epsilon-product", {"mul": b.mul, "alpha": b.alpha})]


def _epsilon_delta_rows(b: EpsilonHomBialgebra) -> list[AxiomResult]:
    """Prerequisites involving the coproduct."""
    return [check_identity(s) for s in _specs("epsilon-coproduct", b.env)]


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
    return [check_identity(s) for s in _specs("end-alpha", env)]


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
