"""Algebra-level structures and their exact certification.

A HomAlgebra is pure data: dimension, one or two product tensors, and a
twisting map.  Whether it satisfies the axioms of its declared kind is never
assumed; ``check_axioms`` evaluates every axiom on all basis tuples (exact
arithmetic plus multilinearity make that sufficient) and reports a minimal
witness on failure.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import InputError, PreconditionError
from .exactlin import (Matrix, Tensor3, basis_vec, bilinear_eval, mat_mul,
                       nullspace, rat, rat_str, vec_add, vec_neg, vec_sub,
                       vec_scale, zero_vec, is_zero_vec)

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


def hom_algebra(dim, kind, ops, alpha) -> HomAlgebra:
    return HomAlgebra(dim=dim, kind=kind, ops=dict(ops), alpha=alpha)


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

    def merged_with(self, other: "CertReport", prefix_self="", prefix_other="") -> "CertReport":
        rows = [AxiomResult(prefix_self + r.name, r.passed, r.witness) for r in self.axioms]
        rows += [AxiomResult(prefix_other + r.name, r.passed, r.witness) for r in other.axioms]
        return CertReport.from_results(rows)


@dataclass(frozen=True)
class AxiomSpec:
    """One multilinear identity, split as lhs == rhs on r-tuples of vectors."""

    name: str
    arity: int
    evaluate: Callable[..., tuple]  # (*vectors) -> (lhs, rhs)


def check_identity(spec: AxiomSpec, dim: int) -> AxiomResult:
    """Evaluate an identity on all basis tuples, lexicographic order.

    The first failing tuple (minimal in lex order) becomes the witness.
    """
    basis = [basis_vec(dim, i) for i in range(dim)]
    for idx in itertools.product(range(dim), repeat=spec.arity):
        lhs, rhs = spec.evaluate(*[basis[i] for i in idx])
        if lhs != rhs:
            w = Witness(tuple(i + 1 for i in idx), lhs, rhs)
            return AxiomResult(spec.name, False, w)
    return AxiomResult(spec.name, True, None)


# ---------------------------------------------------------------------------
# the axiom systems

def hom_associator(a: HomAlgebra, x, y, z) -> tuple:
    """(x.y).alpha(z) - alpha(x).(y.z) for the algebra's "mul" product."""
    mul = a.op("mul")
    al = a.alpha
    left = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
    right = bilinear_eval(mul, al.apply(x), bilinear_eval(mul, y, z))
    return vec_sub(left, right)


def _associator_parts(mul: Tensor3, al: Matrix):
    def parts(x, y, z):
        left = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
        right = bilinear_eval(mul, al.apply(x), bilinear_eval(mul, y, z))
        return left, right
    return parts


def kind_axioms(a: HomAlgebra) -> list[AxiomSpec]:
    """The defining identities of the algebra's declared kind."""
    al = a.alpha
    kind = a.kind

    if kind == "generic":
        return []

    if kind == "hom-associative":
        parts = _associator_parts(a.op("mul"), al)
        return [AxiomSpec("hom-associativity", 3, parts)]

    if kind == "hom-lie":
        br = a.op("bracket")
        return [_skew_spec(br), _jacobi_spec(br, al)]

    if kind == "hom-prelie":
        return [_left_symmetry_spec(a.op("mul"), al)]

    if kind == "hom-novikov":
        mul = a.op("mul")

        def right_comm(x, y, z):
            lhs = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
            rhs = bilinear_eval(mul, bilinear_eval(mul, x, z), al.apply(y))
            return lhs, rhs

        return [AxiomSpec("novikov-right-commutativity", 3, right_comm),
                _left_symmetry_spec(mul, al)]

    if kind == "hom-dendriform":
        lt, rt = a.op("left"), a.op("right")

        def dend1(x, y, z):
            lhs = bilinear_eval(lt, bilinear_eval(lt, x, y), al.apply(z))
            inner = vec_add(bilinear_eval(lt, y, z), bilinear_eval(rt, y, z))
            rhs = bilinear_eval(lt, al.apply(x), inner)
            return lhs, rhs

        def dend2(x, y, z):
            lhs = bilinear_eval(lt, bilinear_eval(rt, x, y), al.apply(z))
            rhs = bilinear_eval(rt, al.apply(x), bilinear_eval(lt, y, z))
            return lhs, rhs

        def dend3(x, y, z):
            lhs = bilinear_eval(rt, al.apply(x), bilinear_eval(rt, y, z))
            outer = vec_add(bilinear_eval(lt, x, y), bilinear_eval(rt, x, y))
            rhs = bilinear_eval(rt, outer, al.apply(z))
            return lhs, rhs

        return [AxiomSpec("dendriform-left", 3, dend1),
                AxiomSpec("dendriform-middle", 3, dend2),
                AxiomSpec("dendriform-right", 3, dend3)]

    if kind == "hom-postlie":
        br, mul = a.op("bracket"), a.op("mul")

        def compat(x, y, z):
            # alpha(z).[x,y] = [z.x, alpha(y)] + [alpha(x), z.y]
            lhs = bilinear_eval(mul, al.apply(z), bilinear_eval(br, x, y))
            rhs = vec_add(
                bilinear_eval(br, bilinear_eval(mul, z, x), al.apply(y)),
                bilinear_eval(br, al.apply(x), bilinear_eval(mul, z, y)))
            return lhs, rhs

        def twisted_ls(x, y, z):
            # alpha(z).(y.x) + (y.z).alpha(x) + [y,z].alpha(x)
            #   = alpha(y).(z.x) + (z.y).alpha(x)
            ax = al.apply(x)
            lhs = vec_add(
                bilinear_eval(mul, al.apply(z), bilinear_eval(mul, y, x)),
                vec_add(bilinear_eval(mul, bilinear_eval(mul, y, z), ax),
                        bilinear_eval(mul, bilinear_eval(br, y, z), ax)))
            rhs = vec_add(
                bilinear_eval(mul, al.apply(y), bilinear_eval(mul, z, x)),
                bilinear_eval(mul, bilinear_eval(mul, z, y), ax))
            return lhs, rhs

        return [_skew_spec(br), _jacobi_spec(br, al),
                AxiomSpec("postlie-bracket-compatibility", 3, compat),
                AxiomSpec("postlie-twisted-left-symmetry", 3, twisted_ls)]

    if kind == "hom-l-dendriform":
        tl, tr = a.op("tleft"), a.op("tright")

        def ldend1(x, y, z):
            lhs = bilinear_eval(tr, al.apply(x), bilinear_eval(tr, y, z))
            az = al.apply(z)
            rhs = bilinear_eval(tr, bilinear_eval(tr, x, y), az)
            rhs = vec_add(rhs, bilinear_eval(tr, bilinear_eval(tl, x, y), az))
            rhs = vec_add(rhs, bilinear_eval(tr, al.apply(y), bilinear_eval(tr, x, z)))
            rhs = vec_sub(rhs, bilinear_eval(tr, bilinear_eval(tl, y, x), az))
            rhs = vec_sub(rhs, bilinear_eval(tr, bilinear_eval(tr, y, x), az))
            return lhs, rhs

        def ldend2(x, y, z):
            lhs = bilinear_eval(tr, al.apply(x), bilinear_eval(tl, y, z))
            az = al.apply(z)
            ay = al.apply(y)
            rhs = bilinear_eval(tl, bilinear_eval(tr, x, y), az)
            rhs = vec_add(rhs, bilinear_eval(tl, ay, bilinear_eval(tr, x, z)))
            rhs = vec_add(rhs, bilinear_eval(tl, ay, bilinear_eval(tl, x, z)))
            rhs = vec_sub(rhs, bilinear_eval(tl, bilinear_eval(tl, y, x), az))
            return lhs, rhs

        return [AxiomSpec("l-dendriform-right", 3, ldend1),
                AxiomSpec("l-dendriform-left", 3, ldend2)]

    raise InputError(f"no axiom system for kind {kind!r}")


def _skew_spec(br: Tensor3) -> AxiomSpec:
    def skew(x, y):
        return bilinear_eval(br, x, y), vec_neg(bilinear_eval(br, y, x))
    return AxiomSpec("skew-symmetry", 2, skew)


def _jacobi_spec(br: Tensor3, al: Matrix) -> AxiomSpec:
    def jacobi(x, y, z):
        s = bilinear_eval(br, al.apply(x), bilinear_eval(br, y, z))
        s = vec_add(s, bilinear_eval(br, al.apply(y), bilinear_eval(br, z, x)))
        s = vec_add(s, bilinear_eval(br, al.apply(z), bilinear_eval(br, x, y)))
        return s, zero_vec(len(s))
    return AxiomSpec("hom-jacobi", 3, jacobi)


def _left_symmetry_spec(mul: Tensor3, al: Matrix) -> AxiomSpec:
    parts = _associator_parts(mul, al)

    def left_sym(x, y, z):
        l1, r1 = parts(x, y, z)
        l2, r2 = parts(y, x, z)
        return vec_sub(l1, r1), vec_sub(l2, r2)

    return AxiomSpec("hom-left-symmetry", 3, left_sym)


# ---------------------------------------------------------------------------
# auxiliary predicates

PREDICATES = ("multiplicative", "left-commutative", "lie-admissible")


def predicate_axioms(a: HomAlgebra, name: str) -> list[AxiomSpec]:
    al = a.alpha
    if name == "multiplicative":
        specs = []
        for op_name in a.op_names():
            t = a.ops[op_name]

            def mult(x, y, t=t):
                return al.apply(bilinear_eval(t, x, y)), bilinear_eval(t, al.apply(x), al.apply(y))

            specs.append(AxiomSpec(f"multiplicative:{op_name}", 2, mult))
        return specs

    if name == "left-commutative":
        mul = a.single_op()

        def left_comm(x, y, z):
            lhs = bilinear_eval(mul, bilinear_eval(mul, x, y), al.apply(z))
            rhs = bilinear_eval(mul, bilinear_eval(mul, y, x), al.apply(z))
            return lhs, rhs

        return [AxiomSpec("left-commutativity", 3, left_comm)]

    if name == "lie-admissible":
        mul = a.single_op()
        commutator = mul - mul.swap_arguments()
        return [AxiomSpec("lie-admissibility", 3, _jacobi_spec(commutator, al).evaluate)]

    raise InputError(f"unknown predicate {name!r}; available: {PREDICATES}")


def check_axioms(a: HomAlgebra, predicates: Sequence[str] = ()) -> CertReport:
    """Certify the algebra against its kind's axioms plus optional predicates."""
    specs = kind_axioms(a)
    for p in predicates:
        specs.extend(predicate_axioms(a, p))
    return CertReport.from_results([check_identity(s, a.dim) for s in specs])


def check_predicate(a: HomAlgebra, name: str) -> CertReport:
    specs = predicate_axioms(a, name)
    return CertReport.from_results([check_identity(s, a.dim) for s in specs])


def is_multiplicative(a: HomAlgebra) -> bool:
    return check_predicate(a, "multiplicative").passed


def require_certified(a: HomAlgebra, what: str = "input algebra") -> CertReport:
    report = check_axioms(a)
    if not report.passed:
        failing = ", ".join(r.name for r in report.failing())
        raise PreconditionError(f"{what} fails {a.kind} axioms: {failing}", report)
    return report


# ---------------------------------------------------------------------------
# morphisms, Rota-Baxter, Yau twist

def check_morphism(f: Matrix, a: HomAlgebra, b: HomAlgebra) -> CertReport:
    """Certify f : a -> b as a morphism of Hom-algebras of the same kind."""
    if a.kind != b.kind:
        raise InputError(f"morphism kind mismatch: {a.kind} vs {b.kind}")
    if f.rows != b.dim or f.cols != a.dim:
        raise InputError(f"morphism must be {b.dim}x{a.dim}, got {f.rows}x{f.cols}")
    rows = []
    lhs_m = mat_mul(f, a.alpha)
    rhs_m = mat_mul(b.alpha, f)
    rows.append(_matrix_equation_result("intertwines-twists", lhs_m, rhs_m))
    for name in a.op_names():
        ta, tb = a.ops[name], b.ops[name]

        def preserves(x, y, ta=ta, tb=tb):
            return f.apply(bilinear_eval(ta, x, y)), bilinear_eval(tb, f.apply(x), f.apply(y))

        rows.append(check_identity(AxiomSpec(f"preserves:{name}", 2, preserves), a.dim))
    return CertReport.from_results(rows)


def _matrix_equation_result(name: str, lhs: Matrix, rhs: Matrix) -> AxiomResult:
    if lhs == rhs:
        return AxiomResult(name, True, None)
    for j in range(lhs.cols):
        cl, cr = lhs.column(j), rhs.column(j)
        if cl != cr:
            return AxiomResult(name, False, Witness((j + 1,), cl, cr))
    return AxiomResult(name, False, Witness((), (), ()))


def check_rota_baxter(a: HomAlgebra, r: Matrix, weight) -> CertReport:
    """Certify r as a Rota-Baxter operator of the given weight.

    Uses the algebra's single product (the bracket, for Hom-Lie input).  Also
    reports whether r commutes with the twisting map, which the downstream
    splitting constructions require.
    """
    weight = rat(weight)
    if r.rows != a.dim or r.cols != a.dim:
        raise InputError(f"operator must be {a.dim}x{a.dim}")
    mul = a.single_op()

    def rb(x, y):
        rx, ry = r.apply(x), r.apply(y)
        lhs = bilinear_eval(mul, rx, ry)
        inner = vec_add(bilinear_eval(mul, rx, y), bilinear_eval(mul, x, ry))
        if weight:
            inner = vec_add(inner, vec_scale(weight, bilinear_eval(mul, x, y)))
        return lhs, r.apply(inner)

    rows = [check_identity(AxiomSpec("rota-baxter", 2, rb), a.dim),
            _matrix_equation_result("commutes-with-twist",
                                    *rb_twist_sides(a.alpha, r))]
    return CertReport.from_results(rows)


def rb_twist_sides(alpha: Matrix, r: Matrix) -> tuple[Matrix, Matrix]:
    """Both sides of the ``commutes-with-twist`` row, r.alpha = alpha.r;
    linear in r, so the Rota-Baxter search solves it before certifying."""
    return mat_mul(r, alpha), mat_mul(alpha, r)


def yau_twist(a: HomAlgebra, g: Matrix) -> HomAlgebra:
    """Twist every product into g(x*y) and the twist map into g.alpha.

    Mass-produces genuinely twisted test instances: g must be an algebra
    endomorphism commuting with alpha (checked), which makes every axiom
    system considered here stable under the twist.
    """
    report = check_morphism(g, a, a)
    if not report.passed:
        failing = ", ".join(x.name for x in report.failing())
        raise PreconditionError(f"yau twist map is not an endomorphism: {failing}", report)
    new_ops = {name: t.postcompose(g) for name, t in a.ops.items()}
    return HomAlgebra(a.dim, a.kind, new_ops, mat_mul(g, a.alpha))


# ---------------------------------------------------------------------------
# epsilon-Hom-bialgebras and the convolution Rota-Baxter operator

@dataclass(frozen=True, eq=False)
class EpsilonHomBialgebra:
    """Hom-associative product plus Hom-coassociative coproduct, linked by
    the infinitesimal compatibility law.  delta[i,j,k] is the coefficient of
    e_j (x) e_k in the coproduct of e_i."""

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


def _comul_of_vector(b: EpsilonHomBialgebra, x) -> tuple:
    out = [0] * (b.dim * b.dim)
    for i, xi in enumerate(x):
        if xi:
            for pos, v in enumerate(b.comul_vec(i)):
                if v:
                    out[pos] += xi * v
    return tuple(out)


def _epsilon_mul_rows(b: EpsilonHomBialgebra) -> list[AxiomResult]:
    """Prerequisites touching only the product and the twist."""
    n = b.dim
    al = b.alpha
    rows = [check_identity(
        AxiomSpec("hom-associativity", 3, _associator_parts(b.mul, al)), n)]

    def centroid_left(x, y):
        return (bilinear_eval(b.mul, al.apply(x), y),
                al.apply(bilinear_eval(b.mul, x, y)))

    def centroid_right(x, y):
        return (bilinear_eval(b.mul, x, al.apply(y)),
                al.apply(bilinear_eval(b.mul, x, y)))

    rows.append(check_identity(AxiomSpec("centroid-left", 2, centroid_left), n))
    rows.append(check_identity(AxiomSpec("centroid-right", 2, centroid_right), n))
    rows.append(_matrix_equation_result("involutive-twist",
                                        mat_mul(al, al), Matrix.identity(n)))
    return rows


def _epsilon_delta_rows(b: EpsilonHomBialgebra) -> list[AxiomResult]:
    """Prerequisites involving the coproduct."""
    n = b.dim
    rows = [_indexed_equation("hom-coassociativity", n, _coassociativity_sides(b))]
    rows += [_indexed_equation(name, n, sides, arity)
             for name, arity, sides in _epsilon_linear_equations(b)]
    return rows


def _coassociativity_sides(b: EpsilonHomBialgebra):
    """Both sides of Hom-coassociativity at e_i; quadratic in the coproduct."""
    n = b.dim
    al = b.alpha

    def coassoc(i):
        lhs = [0] * (n ** 3)
        rhs = [0] * (n ** 3)
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if not d:
                    continue
                aj = al.column(j)
                for p in range(n):
                    if aj[p]:
                        for q in range(n):
                            for s in range(n):
                                v = b.delta[k, q, s]
                                if v:
                                    lhs[(p * n + q) * n + s] += d * aj[p] * v
                ak = al.column(k)
                for p in range(n):
                    for q in range(n):
                        v = b.delta[j, p, q]
                        if v:
                            for s in range(n):
                                if ak[s]:
                                    rhs[(p * n + q) * n + s] += d * v * ak[s]
        return tuple(lhs), tuple(rhs)

    return coassoc


def _epsilon_linear_equations(b: EpsilonHomBialgebra) -> list[tuple]:
    """The coproduct prerequisites that are linear in the coproduct, as
    (name, arity, sides) with sides(index) -> (lhs, rhs).  The certifier
    checks them as rows; the coproduct search solves them before certifying."""
    n = b.dim
    al = b.alpha

    def compat(ij):
        i, j = ij
        lhs = [0] * (n * n)
        for k, mk in enumerate(b.mul.product_vec(i, j)):
            if mk:
                for pos, v in enumerate(b.comul_vec(k)):
                    if v:
                        lhs[pos] += mk * v
        rhs = [0] * (n * n)
        ai = al.column(i)
        for u in range(n):
            for v in range(n):
                d = b.delta[j, u, v]
                if d:
                    prod = bilinear_eval(b.mul, ai, basis_vec(n, u))
                    av = al.column(v)
                    for p in range(n):
                        if prod[p]:
                            for q in range(n):
                                if av[q]:
                                    rhs[p * n + q] += d * prod[p] * av[q]
        aj = al.column(j)
        for u in range(n):
            for v in range(n):
                d = b.delta[i, u, v]
                if d:
                    au = al.column(u)
                    prod = bilinear_eval(b.mul, basis_vec(n, v), aj)
                    for p in range(n):
                        if au[p]:
                            for q in range(n):
                                if prod[q]:
                                    rhs[p * n + q] += d * au[p] * prod[q]
        return tuple(lhs), tuple(rhs)

    def cocentroid(i, side):
        out = [0] * (n * n)
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if not d:
                    continue
                col = al.column(j) if side == 0 else al.column(k)
                for p in range(n):
                    if col[p]:
                        pos = p * n + k if side == 0 else j * n + p
                        out[pos] += d * col[p]
        return tuple(out)

    def cocent_left(i):
        return cocentroid(i, 0), _comul_of_vector(b, al.column(i))

    def cocent_right(i):
        return cocentroid(i, 1), _comul_of_vector(b, al.column(i))

    return [("bialgebra-compatibility", 2, compat),
            ("cocentroid-left", 1, cocent_left),
            ("cocentroid-right", 1, cocent_right)]


def _epsilon_linear_residual(b: EpsilonHomBialgebra) -> list:
    """lhs - rhs of every linear coproduct equation at every index, in the
    certifier's order: zero exactly when all those rows pass."""
    out = []
    for _, arity, sides in _epsilon_linear_equations(b):
        for idx in _equation_indices(b.dim, arity):
            lhs, rhs = sides(idx)
            out.extend(vec_sub(lhs, rhs))
    return out


def epsilon_prerequisites(b: EpsilonHomBialgebra) -> CertReport:
    """All structural prerequisites for the convolution operator."""
    return CertReport.from_results(_epsilon_mul_rows(b) + _epsilon_delta_rows(b))


def _equation_indices(n: int, arity: int):
    return itertools.product(range(n), repeat=arity) if arity > 1 else range(n)


def _indexed_equation(name, n, fn, arity=1) -> AxiomResult:
    for idx in _equation_indices(n, arity):
        lhs, rhs = fn(idx)
        if lhs != rhs:
            pretty = (idx + 1,) if isinstance(idx, int) else tuple(i + 1 for i in idx)
            return AxiomResult(name, False, Witness(pretty, lhs, rhs))
    return AxiomResult(name, True, None)


def commuting_endomorphism_basis(alpha: Matrix) -> list[Matrix]:
    """Basis of {f : f.alpha = alpha.f} inside n x n matrices, deterministic."""
    n = alpha.rows
    rows = []
    # unknown f flattened row-major: f[p][q] at p*n+q
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            # (f A - A f)[i][j] = sum_k f[i][k] A[k][j] - A[i][k] f[k][j]
            for k in range(n):
                row[i * n + k] += alpha[k, j]
                row[k * n + j] -= alpha[i, k]
            rows.append(row)
    basis = []
    for v in nullspace(Matrix(rows)):
        flat = v.column(0)
        basis.append(Matrix([flat[p * n:(p + 1) * n] for p in range(n)]))
    return basis


def convolution_operator(b: EpsilonHomBialgebra, f: Matrix) -> Matrix:
    """R(f) = mul o (alpha (x) f) o delta, as a matrix."""
    n = b.dim
    cols = []
    for i in range(n):
        acc = [0] * n
        for j in range(n):
            for k in range(n):
                d = b.delta[i, j, k]
                if d:
                    term = bilinear_eval(b.mul, b.alpha.column(j), f.column(k))
                    for p, t in enumerate(term):
                        if t:
                            acc[p] += d * t
        cols.append(tuple(acc))
    return Matrix.from_columns(cols) if cols else Matrix.zeros(0, 0)


def convolution_rb(b: EpsilonHomBialgebra) -> CertReport:
    """Certify the convolution operator as weight-0 Rota-Baxter on End_alpha.

    First checks all prerequisites (Hom-associativity, Hom-coassociativity,
    compatibility, involutive bicentroid); only if they pass is the operator
    built and the Rota-Baxter identity verified on a basis of End_alpha under
    the composition product.
    """
    prereq = epsilon_prerequisites(b)
    if not prereq.passed:
        return prereq

    basis = commuting_endomorphism_basis(b.alpha)
    rows = list(prereq.axioms)

    def gamma(f: Matrix) -> Matrix:
        return mat_mul(b.alpha, f)

    def flat(m: Matrix) -> tuple:
        return tuple(v for row in m.data for v in row)

    # composition algebra on End_alpha is Hom-associative with twist gamma
    ok = AxiomResult("endalg-hom-associative", True, None)
    for idx in itertools.product(range(len(basis)), repeat=3):
        f, g, h = (basis[i] for i in idx)
        lhs = mat_mul(mat_mul(f, g), gamma(h))
        rhs = mat_mul(gamma(f), mat_mul(g, h))
        if lhs != rhs:
            ok = AxiomResult("endalg-hom-associative", False,
                             Witness(tuple(i + 1 for i in idx), flat(lhs), flat(rhs)))
            break
    rows.append(ok)

    images = [convolution_operator(b, f) for f in basis]

    ok = AxiomResult("convolution-closed", True, None)
    for i, rf in enumerate(images):
        if mat_mul(rf, b.alpha) != mat_mul(b.alpha, rf):
            ok = AxiomResult("convolution-closed", False,
                             Witness((i + 1,), flat(mat_mul(rf, b.alpha)),
                                     flat(mat_mul(b.alpha, rf))))
            break
    rows.append(ok)

    ok = AxiomResult("convolution-rota-baxter", True, None)
    for gi, fi in itertools.product(range(len(basis)), repeat=2):
        g, f = basis[gi], basis[fi]
        rg, rf = images[gi], images[fi]
        lhs = mat_mul(rg, rf)
        rhs = (convolution_operator(b, mat_mul(rg, f))
               + convolution_operator(b, mat_mul(g, rf)))
        if lhs != rhs:
            ok = AxiomResult("convolution-rota-baxter", False,
                             Witness((gi + 1, fi + 1), flat(lhs), flat(rhs)))
            break
    rows.append(ok)
    return CertReport.from_results(rows)
