"""Searching for Hom-post-Lie products, plus the instance generators and
box searches the test corpus is built from.

Every search is one call of ``_box_search`` over the laws and binding it
reads from its plain certifier, one list that both filters the box and
certifies what survives.  It walks the integer coefficients c of a basis:
the kernel basis of the bracket-compatibility rows for the post-Lie search,
the unknown's own units for an operator or coproduct box.  One walk of the
laws, with the unknown bound to a matrix or tensor of polynomials in c
(``homcore.quadratic_rows``), gives every residual as an exact form.  The
linear step: each row of the reduced echelon form of the purely linear
forms is a form.  The quadratic step: the forms of degree 2 (the twisted
left-symmetry identity; the Rota-Baxter, O-operator or Hom-coassociativity
law) are kept as they are; the post-Lie search's other rows give zero forms.
One enumerator, ``kernel_points``, takes both, and whatever survives is
certified in full by ``homcore.check_on_box``, the one box certifier (the
search-consistency oracle's too): one law walk per batch of 64 survivors,
and one shared immutable report for every survivor whose rows all pass.  A
law with an annihilator bound to zero gives its zero rows, and passes,
without a walk.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import BudgetError, CertificationError, InputError, UnsupportedError
from .exactlin import ONE, ZERO, Matrix, Tensor3, nullspace, rat, rref
from .homcore import (KIND_OPS, EpsilonHomBialgebra, HomAlgebra, _declare_identities,
                      _epsilon_delta_laws, _epsilon_mul_rows, _rota_baxter_laws,
                      certification_scope, certify, check_axioms, check_on_box, held_in_scope,
                      linear_rows, quadratic_rows, require_certified, unit_basis, yau_twist)
from .functors import FunctorResult
from .hommod import HomModule, _oop_laws

DEFAULT_CANDIDATE_BUDGET = 200_000
TWISTED_LEFT_SYMMETRY = "postlie-twisted-left-symmetry"  # the quadratic step


# ---------------------------------------------------------------------------
# the linear system from the bracket-compatibility identity

def postlie_linear_system(l: HomAlgebra) -> Matrix:
    """Coefficient matrix of the linear constraints on a candidate product.

    Unknowns are the n^3 structure constants m[p,l,q] of the product, column
    index (p*n + l)*n + q; rows are indexed lexicographically by
    (k, i, j, output coordinate) for lhs - rhs of the declared
    ``postlie-bracket-compatibility`` identity

        alpha(z).[x, y] = [z.x, alpha(y)] + [alpha(x), z.y]

    at x = e_i, y = e_j, z = e_k: the rows of ``linear_rows``, which come in
    (i, j, k, output coordinate) order, with z's index moved first.
    """
    if l.kind != "hom-lie":
        raise InputError("postlie_linear_system expects a hom-lie algebra")
    require_certified(l)
    n = l.dim
    rows = linear_rows([_postlie_law("postlie-bracket-compatibility")],
                       postlie_env(l, Tensor3.zeros(n)), "mul", unit_basis((n, n, n))).data
    return Matrix([rows[((i * n + j) * n + k) * n + q]
                   for k, i, j, q in itertools.product(range(n), repeat=4)])


@dataclass(frozen=True)
class PostLieCandidateSpace:
    """Kernel of the linear constraints: every integer combination of the
    basis tensors satisfies the bracket-compatibility identity exactly."""

    basis: tuple[Tensor3, ...]
    ambient_dim: int
    rank: int


def _postlie_law(name: str):
    law, = (law for law in _declare_identities()["hom-postlie"] if law.name == name)
    return law


def postlie_env(l: HomAlgebra, product: Tensor3) -> dict:
    """check_axioms' binding of the Hom-post-Lie algebra on l's bracket and
    twist with ``product`` as its "mul"."""
    return {"bracket": l.op("bracket"), "mul": product, "alpha": l.alpha}


@held_in_scope
def postlie_candidate_space(l: HomAlgebra) -> PostLieCandidateSpace:
    """The kernel of ``postlie_linear_system(l)``, each basis tensor
    re-checked; one solve per equal algebra in a certification scope."""
    n, law = l.dim, _postlie_law("postlie-bracket-compatibility")
    basis = [Tensor3(n, n, n, v.column(0)) for v in nullspace(postlie_linear_system(l))]
    if not all(certify([law], postlie_env(l, t))[0].passed for t in basis):
        raise AssertionError("nullspace tensor fails re-evaluation of the linear identity")
    ambient = n ** 3
    return PostLieCandidateSpace(tuple(basis), ambient, ambient - len(basis))


def _require_box(what: str, cells: int, bound: int, max_candidates: int,
                 name: str = "entry_bound", directions: str = "") -> None:
    if bound < 0:
        raise InputError(f"{name} must be non-negative")
    total = (2 * bound + 1) ** cells
    if total > max_candidates:
        raise BudgetError(f"{what} box has {total} points{directions}, budget is "
                          f"{max_candidates}", needed=total, budget=max_candidates)


def _kernel_basis(l: HomAlgebra, combo_bound: int, max_candidates: int) -> tuple:
    basis = postlie_candidate_space(l).basis
    _require_box("candidate", len(basis), combo_bound, max_candidates, "combo_bound",
                 f" over {len(basis)} kernel directions")
    return basis


def iter_postlie_candidates(l: HomAlgebra, combo_bound: int,
                            max_candidates: int = DEFAULT_CANDIDATE_BUDGET
                            ) -> Iterator[tuple[tuple[int, ...], Tensor3]]:
    """All bounded integer combinations of the kernel basis, in lexicographic
    coefficient order; raises BudgetError before enumerating too many.  The
    unfiltered box, kept as the oracle ``postlie_search`` is checked against."""
    basis = _kernel_basis(l, combo_bound, max_candidates)
    for coeffs in itertools.product(range(-combo_bound, combo_bound + 1), repeat=len(basis)):
        yield coeffs, _combination(l.dim, basis, coeffs)


def _combination(n: int, basis: Sequence[Tensor3], coeffs) -> Tensor3:
    flat = [ZERO] * (n ** 3)
    for coeff, t in zip(coeffs, basis):
        if coeff:
            for pos, v in enumerate(t.data):
                if v:
                    flat[pos] += coeff * v
    return Tensor3(n, n, n, flat)


@dataclass(frozen=True)
class PostLieSurvivor(FunctorResult):
    """A certified post-Lie survivor and its coefficients over the kernel basis."""

    coeffs: tuple[int, ...]


def postlie_search(l: HomAlgebra, combo_bound: int,
                   max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[PostLieSurvivor]:
    """Every bounded-box candidate product satisfying both defining identities,
    each returned as a fully certified Hom-post-Lie algebra: the box over
    the kernel basis, filtered and certified by check_axioms' ``hom-postlie``
    laws, whose twisted left-symmetry law is its quadratic step."""
    basis = _kernel_basis(l, combo_bound, max_candidates)
    n, bracket = l.dim, l.op("bracket")

    def build(coeffs, report):
        out = HomAlgebra(n, "hom-postlie", {"bracket": bracket,
                                            "mul": _combination(n, basis, coeffs)}, l.alpha)
        return PostLieSurvivor(out, report, coeffs)

    return _box_search(_declare_identities()["hom-postlie"], postlie_env(l, Tensor3.zeros(n)),
                       "mul", basis, combo_bound, build)


# ---------------------------------------------------------------------------
# the enumerator: the linear step, then the quadratic step
#
# A search's unknown is an integer vector c of a box: the coefficients of a
# post-Lie candidate over its kernel basis, or a box search's own entries.
# Every certification row of degree at most 2 in the unknown is an exact
# form in c: the reduced rows of the linear system, or the forms
# homcore.quadratic_rows reads from its symbolic walk.  A depth-first walk
# sets c_0, c_1, ... in the order itertools.product visits them, keeps each
# form's running sum, and checks a form as soon as the last coefficient it
# involves is set, so a failing prefix cuts its whole subtree.

def kernel_points(d: int, bound: int, forms: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Every integer vector c in [-bound, bound]^d, in ``itertools.product``
    order, at which each form (const, linear, quadratic) vanishes:

        const + sum_i c_i linear[i] + sum_{i<=j} c_i c_j quadratic[i, j],

    the type ``homcore.quadratic_rows`` returns."""
    # Each form is scaled to integers and kept once, up to a factor; its
    # running sum must be 0 once its last coordinate is set.
    start, moves, checks, seen = [], [[] for _ in range(d)], [[] for _ in range(d)], set()
    for const, lin, quad in forms:
        terms = [(None, const), *lin.items(), *quad.items()]
        scale = math.lcm(*(a.denominator for _, a in terms))
        terms = [(key, a.numerator * (scale // a.denominator)) for key, a in terms]
        first = next((a for _, a in terms if a), 0)
        unit = math.gcd(*(a for _, a in terms)) * (1 if first > 0 else -1)
        if not unit or (terms := tuple((key, a // unit) for key, a in terms)) in seen:
            continue
        seen.add(terms)
        (_, const), *terms = terms
        lin = {k: a for k, a in terms if type(k) is int}
        quad = {k: a for k, a in terms if type(k) is tuple}
        moving = set(lin).union(*quad)
        if not moving:  # a nonzero constant
            return []
        f = len(start)
        start.append(const)
        for k in moving:
            moves[k].append((f, lin.get(k, 0), quad.get((k, k), 0),
                             [(j, a) for (j, i), a in quad.items() if i == k and j < k]))
        checks[max(moving)].append(f)
    # past the last level a form moves at, every combination survives
    depth = max((k + 1 for k in range(d) if moves[k]), default=0)
    values = range(-bound, bound + 1)
    tails = list(itertools.product(values, repeat=d - depth))
    points, c = [], [0] * depth

    def descend(k: int, sums: list) -> None:
        if k == depth:
            points.extend((*c, *tail) for tail in tails)
            return
        # each form's coefficient of c_k, given c_0..c_{k-1}
        slopes = [(f, a + sum(b * c[j] for j, b in cross) if cross else a, square)
                  for f, a, square, cross in moves[k]]
        for v in values:
            c[k] = v
            s = sums
            if v:
                s = sums.copy()
                for f, slope, square in slopes:
                    s[f] += v * (slope + v * square)
            for f in checks[k]:
                if s[f]:
                    break
            else:
                descend(k + 1, s)

    descend(0, start)
    return points


def _linear_forms(system: Matrix) -> list[tuple]:
    """The rows of the reduced echelon form of ``system``, as forms that
    must vanish.  That form is unique for the row space, so the points do
    not depend on row order."""
    return [(ZERO, {c: a for c, a in enumerate(row) if a}, {})
            for row in rref(system)[0].data if any(row)]


def _box_search(laws: Sequence, env: dict, unknown: str, basis: Sequence, bound: int,
                build: Callable) -> list:
    """build(c, report) for every c in [-bound, bound]^len(basis), in product
    order, at which env[unknown] + sum_i c_i basis[i] satisfies the ``laws``
    (each of degree at most 2 in it); report is check_on_box's over them."""
    with certification_scope():
        forms = quadratic_rows(laws, env, unknown, basis if bound else ())
        system = Matrix._exact([[lin.get(c, ZERO) for c in range(len(basis))]
                                for const, lin, quad in forms if lin and not const and not quad])
        points = kernel_points(len(basis), bound, _linear_forms(system)
                               + [f for f in forms if f[0] or f[2]])
        reports = list(check_on_box(laws, env, unknown, basis, points))
        if not all(r.passed for r in reports):
            raise AssertionError("search enumerator and certifier disagree on a survivor")
        return list(map(build, points, reports))


# ---------------------------------------------------------------------------
# brute-force oracles: box searches through the enumerator
#
# Each search returns the integer points of a box [-bound, bound]^cells that
# pass its certification: the same list, in the same lexicographic order, as
# a certified walk of the whole box.  Only the points the enumerator finds
# are certified.

def _matrix(flat: Sequence, cols: int) -> Matrix:
    return Matrix._exact([flat[r:r + cols] for r in range(0, len(flat), cols)])


def brute_force_oop_search(a: HomAlgebra, m: HomModule, entry_bound: int,
                           max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[Matrix]:
    """All integer matrices T with entries in [-bound, bound] passing the
    O-operator certification, in row-major lexicographic order.

    The enumerator solves the linear ``oop-twist-compat`` rows and the
    quadratic O-operator law of the module's kind, and each point it finds
    is certified."""
    if m.algebra != a:
        raise InputError("the module is not over the given algebra")
    laws, env = _oop_laws(m)
    _require_box("operator", a.dim * m.mdim, entry_bound, max_candidates)
    return _box_search(laws, {**env, "T": Matrix.zeros(a.dim, m.mdim)}, "T",
                       unit_basis((a.dim, m.mdim)), entry_bound,
                       lambda flat, _: _matrix(flat, m.mdim))


def brute_force_rb_search(a: HomAlgebra, weight, entry_bound: int,
                          max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[Matrix]:
    """All integer matrices in the box certified as Rota-Baxter operators of
    the given weight (including the twist-commutation requirement), in
    row-major lexicographic order.

    The enumerator solves the linear ``commutes-with-twist`` rows and the
    quadratic ``rota-baxter`` law, and each point it finds is certified."""
    laws, env = _rota_baxter_laws(a, weight)  # InputError before the box is counted
    n = a.dim
    _require_box("operator", n * n, entry_bound, max_candidates)
    return _box_search(laws, {**env, "r": Matrix.zeros(n, n)}, "r", unit_basis((n, n)),
                       entry_bound, lambda flat, _: _matrix(flat, n))


def brute_force_epsilon_bialgebras(mul: Tensor3, alpha: Matrix, entry_bound: int = 1,
                                   max_candidates: int = DEFAULT_CANDIDATE_BUDGET
                                   ) -> list[EpsilonHomBialgebra]:
    """All coproducts with entries in [-bound, bound] making (mul, delta,
    alpha) satisfy the bialgebra prerequisites, in lexicographic order of
    the flat coproduct.  Returns [] when the fixed product-side prerequisites
    already fail, but refuses a negative bound first.

    The enumerator solves the linear compatibility and cocentroid rows and
    the quadratic ``hom-coassociativity`` row; each point it finds must pass
    all four coproduct rows."""
    if entry_bound < 0:
        raise InputError("entry_bound must be non-negative")
    n = mul.d1
    probe = EpsilonHomBialgebra(n, mul, Tensor3.zeros(n), alpha)
    if not all(r.passed for r in _epsilon_mul_rows(probe)):
        return []
    _require_box("coproduct", n ** 3, entry_bound, max_candidates)
    # the rows are over the n^2 x n coproduct map, whose cell (r, i) is
    # delta's flat position i*n^2+r: the transposed n x n^2 units walk delta
    laws, env = _epsilon_delta_laws(probe)
    return _box_search(laws, env, "Delta", [u.transpose() for u in unit_basis((n, n * n))],
                       entry_bound,
                       lambda flat, _: EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, flat), alpha))


# ---------------------------------------------------------------------------
# deterministic instance generation

GENERATORS = ("zero-product", "hand-catalog", "yau-twist-catalog", "nullspace-sample")


@dataclass(frozen=True)
class RandomInstanceSpec:
    kind: str
    dim: int
    seed: int
    generator: str


def _rng_for(spec: RandomInstanceSpec) -> random.Random:
    tag = f"{spec.kind}|{spec.dim}|{spec.generator}".encode()
    return random.Random((zlib.crc32(tag) << 32) ^ (spec.seed & 0xFFFFFFFFFFFF))


def _rnd_rat(rng: random.Random):
    return rat(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))


def _rnd_nonzero(rng: random.Random):
    while True:
        q = _rnd_rat(rng)
        if q:
            return q


def sc_tensor(n: int, entries: dict) -> Tensor3:
    """Structure constants from a sparse {(i, j): {k: coeff}} map, 0-based."""
    flat = [ZERO] * (n ** 3)
    for (i, j), targets in entries.items():
        for k, v in targets.items():
            flat[(i * n + j) * n + k] = rat(v)
    return Tensor3(n, n, n, flat)


def _diag(*values) -> Matrix:
    n = len(values)
    return Matrix([[rat(values[i]) if i == j else ZERO for j in range(n)]
                   for i in range(n)])


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: HomAlgebra
    endo: Callable[[random.Random], Matrix]


def _unit_like(n: int) -> Tensor3:
    """Truncated polynomial algebra on basis 1, x, ..., x^(n-1)."""
    entries = {}
    for i in range(n):
        for j in range(n):
            k = i + j  # e_i = x^i with 0-based exponents
            if k < n:
                entries[(i, j)] = {k: 1}
    return sc_tensor(n, entries)


def _truncated_endo(n: int):
    def endo(rng):
        s = _rnd_rat(rng)
        return _diag(*[s ** i for i in range(n)])
    return endo


def _build_catalog() -> dict[str, tuple[CatalogEntry, ...]]:
    I2, I3 = Matrix.identity(2), Matrix.identity(3)

    catalog: dict[str, list[CatalogEntry]] = {k: [] for k in (
        "hom-associative", "hom-lie", "hom-prelie", "hom-novikov",
        "hom-postlie", "hom-dendriform", "hom-l-dendriform")}

    # associative: truncated polynomial algebras and a square-zero line
    for n in (1, 2, 3, 4):
        catalog["hom-associative"].append(CatalogEntry(
            f"truncated-poly-{n}",
            HomAlgebra(n, "hom-associative", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))
    null_square = sc_tensor(2, {(0, 0): {1: 1}})
    catalog["hom-associative"].append(CatalogEntry(
        "null-square",
        HomAlgebra(2, "hom-associative", {"mul": null_square}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    # lie: abelian, the nonabelian 2-dim algebra, heisenberg, a solvable 3-dim
    catalog["hom-lie"].append(CatalogEntry(
        "abelian-2", HomAlgebra(2, "hom-lie", {"bracket": Tensor3.zeros(2)}, I2),
        lambda rng: Matrix([[_rnd_rat(rng) for _ in range(2)] for _ in range(2)])))
    catalog["hom-lie"].append(CatalogEntry(
        "abelian-3", HomAlgebra(3, "hom-lie", {"bracket": Tensor3.zeros(3)}, I3),
        lambda rng: Matrix([[_rnd_rat(rng) for _ in range(3)] for _ in range(3)])))
    affine = sc_tensor(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    catalog["hom-lie"].append(CatalogEntry(
        "affine-line", HomAlgebra(2, "hom-lie", {"bracket": affine}, I2),
        lambda rng: Matrix([[ONE, ZERO], [_rnd_rat(rng), _rnd_rat(rng)]])))
    heis = sc_tensor(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    catalog["hom-lie"].append(CatalogEntry(
        "heisenberg", HomAlgebra(3, "hom-lie", {"bracket": heis}, I3),
        lambda rng: (lambda a, b: _diag(a, b, a * b))(_rnd_rat(rng), _rnd_rat(rng))))
    solv = sc_tensor(3, {(0, 1): {1: 1}, (1, 0): {1: -1},
                         (0, 2): {2: 2}, (2, 0): {2: -2}})
    catalog["hom-lie"].append(CatalogEntry(
        "solvable-3", HomAlgebra(3, "hom-lie", {"bracket": solv}, I3),
        lambda rng: _diag(1, _rnd_rat(rng), _rnd_rat(rng))))

    # prelie: non-associative instances plus the associative family
    left_shift = sc_tensor(2, {(0, 1): {1: 1}})
    catalog["hom-prelie"].append(CatalogEntry(
        "left-shift", HomAlgebra(2, "hom-prelie", {"mul": left_shift}, I2),
        lambda rng: _diag(1, _rnd_rat(rng))))
    vector_fields = sc_tensor(2, {(0, 1): {0: 1}, (1, 1): {1: 1}})
    catalog["hom-prelie"].append(CatalogEntry(
        "vector-fields", HomAlgebra(2, "hom-prelie", {"mul": vector_fields}, I2),
        lambda rng: _diag(_rnd_rat(rng), 1)))
    for n in (1, 2, 3):
        catalog["hom-prelie"].append(CatalogEntry(
            f"truncated-poly-{n}",
            HomAlgebra(n, "hom-prelie", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))
    catalog["hom-prelie"].append(CatalogEntry(
        "null-square", HomAlgebra(2, "hom-prelie", {"mul": null_square}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    # novikov: all left-commutative
    null_shift = sc_tensor(2, {(1, 1): {0: 1}})
    catalog["hom-novikov"].append(CatalogEntry(
        "null-shift", HomAlgebra(2, "hom-novikov", {"mul": null_shift}, I2),
        lambda rng: (lambda s: _diag(s * s, s))(_rnd_rat(rng))))
    skew_pair = sc_tensor(3, {(1, 2): {0: 1}, (2, 1): {0: -1}})
    catalog["hom-novikov"].append(CatalogEntry(
        "skew-pair", HomAlgebra(3, "hom-novikov", {"mul": skew_pair}, I3),
        lambda rng: (lambda b, c: _diag(b * c, b, c))(_rnd_rat(rng), _rnd_rat(rng))))
    for n in (2, 3):
        catalog["hom-novikov"].append(CatalogEntry(
            f"truncated-poly-{n}",
            HomAlgebra(n, "hom-novikov", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))

    # postlie: preLie instances with zero bracket, plus a nonzero-bracket one
    catalog["hom-postlie"].append(CatalogEntry(
        "left-shift-trivial",
        HomAlgebra(2, "hom-postlie", {"bracket": Tensor3.zeros(2), "mul": left_shift}, I2),
        lambda rng: _diag(1, _rnd_rat(rng))))
    catalog["hom-postlie"].append(CatalogEntry(
        "dual-numbers-trivial",
        HomAlgebra(2, "hom-postlie", {"bracket": Tensor3.zeros(2), "mul": _unit_like(2)}, I2),
        _truncated_endo(2)))
    skew_bracket = sc_tensor(3, {(1, 2): {0: 2}, (2, 1): {0: -2}})
    catalog["hom-postlie"].append(CatalogEntry(
        "skew-pair-postlie",
        HomAlgebra(3, "hom-postlie", {"bracket": skew_bracket, "mul": skew_pair}, I3),
        lambda rng: (lambda b, c: _diag(b * c, b, c))(_rnd_rat(rng), _rnd_nonzero(rng))))
    catalog["hom-postlie"].append(CatalogEntry(
        "truncated-poly-1-trivial",
        HomAlgebra(1, "hom-postlie",
            {"bracket": Tensor3.zeros(1), "mul": _unit_like(1)}, Matrix.identity(1)),
        lambda rng: _diag(rng.choice((0, 1)))))

    # dendriform / l-dendriform: the split of dual numbers along its
    # square-zero Rota-Baxter operator, plus double-product variants
    split = sc_tensor(2, {(0, 0): {1: 1}})
    catalog["hom-dendriform"].append(CatalogEntry(
        "split-dual",
        HomAlgebra(2, "hom-dendriform", {"left": split, "right": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))
    catalog["hom-dendriform"].append(CatalogEntry(
        "double-dual",
        HomAlgebra(2, "hom-dendriform",
            {"left": Tensor3.zeros(2), "right": _unit_like(2).scale(2)}, I2),
        _truncated_endo(2)))
    catalog["hom-l-dendriform"].append(CatalogEntry(
        "split-dual-ld",
        HomAlgebra(2, "hom-l-dendriform", {"tleft": split, "tright": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))
    catalog["hom-l-dendriform"].append(CatalogEntry(
        "split-dual-ld-transpose",
        HomAlgebra(2, "hom-l-dendriform", {"tleft": -split, "tright": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    return {k: tuple(v) for k, v in catalog.items()}


CATALOG = _build_catalog()


def _catalog_entries(kind: str, dim: int) -> list[CatalogEntry]:
    return [e for e in CATALOG.get(kind, ()) if e.algebra.dim == dim]


def random_instance(spec: RandomInstanceSpec) -> HomAlgebra:
    """A certified instance of the requested kind, bit-stable per spec."""
    return _certified(_generate(spec), spec)


def _generate(spec: RandomInstanceSpec) -> HomAlgebra:
    """The instance a spec determines, not yet certified."""
    rng = _rng_for(spec)
    gen = spec.generator

    if gen == "zero-product":
        alpha = Matrix([[_rnd_rat(rng) for _ in range(spec.dim)]
                        for _ in range(spec.dim)])
        zero = {name: Tensor3.zeros(spec.dim) for name in KIND_OPS[spec.kind] or ("mul",)}
        out = HomAlgebra(spec.dim, spec.kind, zero, alpha)

    elif gen in ("hand-catalog", "yau-twist-catalog"):
        entries = _catalog_entries(spec.kind, spec.dim)
        if not entries:
            raise UnsupportedError(
                f"no catalog entry for {spec.kind} at dim {spec.dim}")
        entry = entries[rng.randrange(len(entries))]
        out = (entry.algebra if gen == "hand-catalog"
               else yau_twist(entry.algebra, entry.endo(rng)))

    elif gen == "nullspace-sample":
        if spec.kind != "hom-postlie":
            raise UnsupportedError(
                "nullspace sampling is only implemented for hom-postlie")
        lie_entries = _catalog_entries("hom-lie", spec.dim)
        if not lie_entries:
            raise UnsupportedError(f"no hom-lie seed at dim {spec.dim}")
        lie = lie_entries[rng.randrange(len(lie_entries))].algebra
        space = postlie_candidate_space(lie)
        product, law = Tensor3.zeros(spec.dim), _postlie_law(TWISTED_LEFT_SYMMETRY)
        with certification_scope():
            for _ in range(40):
                cand = _combination(spec.dim, space.basis,
                                    [rng.randint(-1, 1) for _ in space.basis])
                if certify([law], postlie_env(lie, cand))[0].passed:
                    product = cand
                    break
        out = HomAlgebra(spec.dim, "hom-postlie",
                         {"bracket": lie.op("bracket"), "mul": product}, lie.alpha)

    else:
        raise UnsupportedError(f"unknown generator {spec.generator!r}")
    return out


def _certified(a: HomAlgebra, spec: RandomInstanceSpec) -> HomAlgebra:
    report = check_axioms(a)
    if not report.passed:
        raise CertificationError(
            f"generator {spec.generator!r} produced an uncertified {spec.kind} "
            "instance", report)
    return a


def corpus(kind: str, count: int, max_dim: int, seed: int,
           generators: Sequence[str] = ("hand-catalog", "yau-twist-catalog",
                                        "zero-product")) -> list[HomAlgebra]:
    """A deterministic corpus of ``count`` distinct certified instances
    (distinct by digest), cycling generators and dimensions that can actually
    produce the kind; repeats are skipped.  Raises UnsupportedError when the
    kind and dimension bound cannot supply that many within the attempt
    budget."""
    if max_dim < 1:
        raise InputError(f"max_dim must be at least 1, got {max_dim}")
    dims = [d for d in range(1, max_dim + 1)]
    out = []
    seen = set()
    attempt = 0
    while len(out) < count:
        if attempt >= 40 * count:
            raise UnsupportedError(
                f"cannot build a corpus of {count} distinct {kind} instances "
                f"with max_dim={max_dim}: found {len(out)} in {attempt} attempts")
        gen = generators[attempt % len(generators)]
        dim = dims[(attempt // len(generators)) % len(dims)]
        spec = RandomInstanceSpec(kind, dim, seed + attempt, gen)
        attempt += 1
        try:
            instance = _generate(spec)
        except UnsupportedError:
            continue
        digest = instance.digest()
        if digest not in seen:  # a repeat was certified at its first draw
            seen.add(digest)
            out.append(_certified(instance, spec))
    return out
