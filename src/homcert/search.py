"""Searching for Hom-post-Lie products, plus the instance generators and
box searches the test corpus is built from.

Finding a post-Lie product on a given Hom-Lie algebra splits into an exact
linear step (the bracket-compatibility identity is linear in the unknown
structure constants) and a quadratic filter (the twisted left-symmetry
identity), handled by bounded integer enumeration over the kernel basis.
The O-operator, Rota-Baxter and coproduct box searches take the same two
steps: integer box points in the kernel of their linear certification rows,
then full certification of each.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetError, CertificationError, InputError, UnsupportedError
from .exactlin import ONE, ZERO, Matrix, Tensor3, nullspace, rat, rref
from .homcore import (AxiomSpec, EpsilonHomBialgebra, HomAlgebra, _declare_identities,
                      _epsilon_delta_rows, _epsilon_mul_rows,
                      _specs, check_axioms, check_identity, check_rota_baxter,
                      linear_rows, require_certified, yau_twist)
from .functors import FunctorResult
from .hommod import HomModule, check_oop

DEFAULT_CANDIDATE_BUDGET = 200_000
TWISTED_LEFT_SYMMETRY = "postlie-twisted-left-symmetry"  # the quadratic filter


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
    laws = [law for law in _declare_identities()["hom-postlie"]
            if law.name == "postlie-bracket-compatibility"]
    env = {"bracket": l.op("bracket"), "alpha": l.alpha}
    rows = linear_rows(laws, env, "mul", (n, n, n)).data
    return Matrix([rows[((i * n + j) * n + k) * n + q]
                   for k, i, j, q in itertools.product(range(n), repeat=4)])


@dataclass(frozen=True)
class PostLieCandidateSpace:
    """Kernel of the linear constraints: every integer combination of the
    basis tensors satisfies the bracket-compatibility identity exactly."""

    homlie: HomAlgebra
    basis: tuple[Tensor3, ...]
    ambient_dim: int
    rank: int


def _postlie_spec(l: HomAlgebra, product: Tensor3, name: str,
                  shared: Optional[dict] = None) -> AxiomSpec:
    """The declared post-Lie axiom ``name`` for l's bracket and twist and a
    candidate product; specs made with one ``shared`` dict build those tables once."""
    env = {"bracket": l.op("bracket"), "mul": product, "alpha": l.alpha}
    spec, = (s for s in _specs("hom-postlie", env, shared=shared) if s.name == name)
    return spec


def postlie_candidate_space(l: HomAlgebra) -> PostLieCandidateSpace:
    n = l.dim
    system = postlie_linear_system(l)
    basis = []
    for v in nullspace(system):
        t = Tensor3(n, n, n, v.column(0))
        if not check_identity(_postlie_spec(l, t, "postlie-bracket-compatibility"), n).passed:
            raise AssertionError(
                "nullspace tensor fails re-evaluation of the linear identity")
        basis.append(t)
    ambient = n ** 3
    return PostLieCandidateSpace(l, tuple(basis), ambient, ambient - len(basis))


def iter_postlie_candidates(l: HomAlgebra, combo_bound: int,
                            max_candidates: int = DEFAULT_CANDIDATE_BUDGET
                            ) -> Iterator[tuple[tuple[int, ...], Tensor3]]:
    """All bounded integer combinations of the kernel basis, in lexicographic
    coefficient order; raises BudgetError before enumerating too many."""
    if combo_bound < 0:
        raise InputError("combo_bound must be non-negative")
    space = postlie_candidate_space(l)
    d = len(space.basis)
    total = (2 * combo_bound + 1) ** d
    if total > max_candidates:
        raise BudgetError(
            f"candidate box has {total} points over {d} kernel directions, "
            f"budget is {max_candidates}", needed=total, budget=max_candidates)
    for coeffs in itertools.product(range(-combo_bound, combo_bound + 1), repeat=d):
        yield coeffs, _combination(l.dim, space.basis, coeffs)


def _combination(n: int, basis: Sequence[Tensor3], coeffs) -> Tensor3:
    flat = [ZERO] * (n ** 3)
    for coeff, t in zip(coeffs, basis):
        if coeff:
            for pos, v in enumerate(t.data):
                if v:
                    flat[pos] += coeff * v
    return Tensor3(n, n, n, flat)


def postlie_search(l: HomAlgebra, combo_bound: int,
                   max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[FunctorResult]:
    """Every bounded-box candidate product satisfying both defining identities,
    each returned as a fully certified Hom-post-Lie algebra."""
    survivors, shared = [], {}
    for coeffs, mul in iter_postlie_candidates(l, combo_bound, max_candidates):
        if check_identity(_postlie_spec(l, mul, TWISTED_LEFT_SYMMETRY, shared), l.dim).passed:
            out = HomAlgebra(l.dim, "hom-postlie",
                             {"bracket": l.op("bracket"), "mul": mul}, l.alpha)
            cert = check_axioms(out)
            if not cert.passed:
                raise AssertionError(
                    "search filter and axiom checker disagree on a survivor")
            prov = ("postlie-search",
                    (("bound", combo_bound), ("coeffs", coeffs)), (l.digest(),))
            survivors.append(FunctorResult(out, cert, prov))
    return survivors


# ---------------------------------------------------------------------------
# brute-force oracles: the linear step, then certification
#
# Each search certifies every integer point of a box [-bound, bound]^cells.
# Some of its certification rows are linear in the unknown entries, and most
# box points fail them, so only the points in their kernel are enumerated:
# the same list, in the same row-major lexicographic order, as a walk of the
# whole box would certify.

def _box_points_in_kernel(system: Matrix, cells: int, bound: int) -> list[tuple[int, ...]]:
    """The integer points of [-bound, bound]^cells in the kernel of the
    constraint matrix ``system`` (``cells`` columns; it may have no rows),
    sorted as ``itertools.product`` would visit them.

    The reduced echelon form writes each pivot coordinate in terms of the
    free ones, so the free coordinates run over the box and a point is kept
    when every pivot value is an integer inside the bound.  That form is
    unique for the row space, so the points do not depend on row order.
    """
    reduced, pivots = rref(system)
    free = [c for c in range(cells) if c not in pivots]
    solve = [(p, [(f, -reduced[r, f]) for f in free if reduced[r, f]])
             for r, p in enumerate(pivots)]
    points = []
    point = [0] * cells
    for values in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        for f, v in zip(free, values):
            point[f] = v
        for p, terms in solve:
            x = sum(c * point[f] for f, c in terms)
            if x.denominator != 1 or not -bound <= x <= bound:
                break
            point[p] = int(x)
        else:
            points.append(tuple(point))
    points.sort()
    return points


def _require_box(what: str, cells: int, bound: int, max_candidates: int) -> None:
    total = (2 * bound + 1) ** cells
    if total > max_candidates:
        raise BudgetError(f"{what} box has {total} points, budget is {max_candidates}",
                          needed=total, budget=max_candidates)


def _operator_box(group: str, env: dict, unknown: str, rows: int, cols: int,
                  bound: int) -> list[Matrix]:
    """The integer rows x cols matrices in the box on which the group's
    declared laws (linear in the unknown) hold."""
    system = linear_rows(_declare_identities()[group], env, unknown, (rows, cols))
    return [Matrix([flat[r * cols:(r + 1) * cols] for r in range(rows)])
            for flat in _box_points_in_kernel(system, rows * cols, bound)]


def brute_force_oop_search(a: HomAlgebra, m: HomModule, entry_bound: int,
                           max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[Matrix]:
    """All integer matrices T with entries in [-bound, bound] passing the
    O-operator certification, in row-major lexicographic order.

    Only the box points solving the linear ``oop-twist-compat`` row are
    certified; the list equals a certified walk of the whole box."""
    if entry_bound < 0:
        raise InputError("entry_bound must be non-negative")
    _require_box("operator", a.dim * m.mdim, entry_bound, max_candidates)
    if a.dim != m.algebra.dim:
        raise InputError(f"module is over a dim-{m.algebra.dim} algebra, not dim {a.dim}")
    env = {"alpha": m.algebra.alpha, "beta": m.beta}
    return [t for t in _operator_box("oop-twist-compat", env, "T", a.dim, m.mdim, entry_bound)
            if check_oop(t, m).passed]


def brute_force_rb_search(a: HomAlgebra, weight, entry_bound: int,
                          max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> list[Matrix]:
    """All integer matrices in the box certified as Rota-Baxter operators of
    the given weight (including the twist-commutation requirement), in
    row-major lexicographic order.

    Only the box points solving the linear ``commutes-with-twist`` row are
    certified; the list equals a certified walk of the whole box."""
    if entry_bound < 0:
        raise InputError("entry_bound must be non-negative")
    _require_box("operator", a.dim * a.dim, entry_bound, max_candidates)
    return [r for r in _operator_box("commutes-with-twist", {"alpha": a.alpha}, "r",
                                     a.dim, a.dim, entry_bound)
            if check_rota_baxter(a, r, weight).passed]


def brute_force_epsilon_bialgebras(mul: Tensor3, alpha: Matrix, entry_bound: int = 1,
                                   max_candidates: int = DEFAULT_CANDIDATE_BUDGET
                                   ) -> list[EpsilonHomBialgebra]:
    """All coproducts with entries in [-bound, bound] making (mul, delta,
    alpha) satisfy the bialgebra prerequisites, in lexicographic order of
    the flat coproduct.  Returns [] when the fixed product-side prerequisites
    already fail.

    Only the box points solving the linear compatibility and cocentroid rows
    are certified; the list equals a certified walk of the whole box."""
    if entry_bound < 0:
        raise InputError("entry_bound must be non-negative")
    n = mul.d1
    probe = EpsilonHomBialgebra(n, mul, Tensor3.zeros(n), alpha)
    if not all(r.passed for r in _epsilon_mul_rows(probe)):
        return []
    _require_box("coproduct", n ** 3, entry_bound, max_candidates)

    # the compatibility and cocentroid rows, linear in the n^2 x n coproduct
    # map: its cell r*n+i is delta's flat position i*n^2+r
    _, *linear = _declare_identities()["epsilon-coproduct"]
    system = linear_rows(linear, {"mul": mul, "alpha": alpha}, "Delta", (n * n, n))
    kernel = sorted(tuple(point[r * n + i] for i in range(n) for r in range(n * n))
                    for point in _box_points_in_kernel(system, n ** 3, entry_bound))
    shared = {}
    return [b for b in (EpsilonHomBialgebra(n, mul, Tensor3(n, n, n, flat), alpha)
                        for flat in kernel)
            if all(r.passed for r in _epsilon_delta_rows(b, shared, until_failure=True))]


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

    def alg(dim, kind, ops, alpha):
        return HomAlgebra(dim, kind, ops, alpha)

    catalog: dict[str, list[CatalogEntry]] = {k: [] for k in (
        "hom-associative", "hom-lie", "hom-prelie", "hom-novikov",
        "hom-postlie", "hom-dendriform", "hom-l-dendriform")}

    # associative: truncated polynomial algebras and a square-zero line
    for n in (1, 2, 3, 4):
        catalog["hom-associative"].append(CatalogEntry(
            f"truncated-poly-{n}",
            alg(n, "hom-associative", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))
    null_square = sc_tensor(2, {(0, 0): {1: 1}})
    catalog["hom-associative"].append(CatalogEntry(
        "null-square",
        alg(2, "hom-associative", {"mul": null_square}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    # lie: abelian, the nonabelian 2-dim algebra, heisenberg, a solvable 3-dim
    catalog["hom-lie"].append(CatalogEntry(
        "abelian-2", alg(2, "hom-lie", {"bracket": Tensor3.zeros(2)}, I2),
        lambda rng: Matrix([[_rnd_rat(rng) for _ in range(2)] for _ in range(2)])))
    catalog["hom-lie"].append(CatalogEntry(
        "abelian-3", alg(3, "hom-lie", {"bracket": Tensor3.zeros(3)}, I3),
        lambda rng: Matrix([[_rnd_rat(rng) for _ in range(3)] for _ in range(3)])))
    affine = sc_tensor(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    catalog["hom-lie"].append(CatalogEntry(
        "affine-line", alg(2, "hom-lie", {"bracket": affine}, I2),
        lambda rng: Matrix([[ONE, ZERO], [_rnd_rat(rng), _rnd_rat(rng)]])))
    heis = sc_tensor(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    catalog["hom-lie"].append(CatalogEntry(
        "heisenberg", alg(3, "hom-lie", {"bracket": heis}, I3),
        lambda rng: (lambda a, b: _diag(a, b, a * b))(_rnd_rat(rng), _rnd_rat(rng))))
    solv = sc_tensor(3, {(0, 1): {1: 1}, (1, 0): {1: -1},
                         (0, 2): {2: 2}, (2, 0): {2: -2}})
    catalog["hom-lie"].append(CatalogEntry(
        "solvable-3", alg(3, "hom-lie", {"bracket": solv}, I3),
        lambda rng: _diag(1, _rnd_rat(rng), _rnd_rat(rng))))

    # prelie: non-associative instances plus the associative family
    left_shift = sc_tensor(2, {(0, 1): {1: 1}})
    catalog["hom-prelie"].append(CatalogEntry(
        "left-shift", alg(2, "hom-prelie", {"mul": left_shift}, I2),
        lambda rng: _diag(1, _rnd_rat(rng))))
    vector_fields = sc_tensor(2, {(0, 1): {0: 1}, (1, 1): {1: 1}})
    catalog["hom-prelie"].append(CatalogEntry(
        "vector-fields", alg(2, "hom-prelie", {"mul": vector_fields}, I2),
        lambda rng: _diag(_rnd_rat(rng), 1)))
    for n in (1, 2, 3):
        catalog["hom-prelie"].append(CatalogEntry(
            f"truncated-poly-{n}",
            alg(n, "hom-prelie", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))
    catalog["hom-prelie"].append(CatalogEntry(
        "null-square", alg(2, "hom-prelie", {"mul": null_square}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    # novikov: all left-commutative
    null_shift = sc_tensor(2, {(1, 1): {0: 1}})
    catalog["hom-novikov"].append(CatalogEntry(
        "null-shift", alg(2, "hom-novikov", {"mul": null_shift}, I2),
        lambda rng: (lambda s: _diag(s * s, s))(_rnd_rat(rng))))
    skew_pair = sc_tensor(3, {(1, 2): {0: 1}, (2, 1): {0: -1}})
    catalog["hom-novikov"].append(CatalogEntry(
        "skew-pair", alg(3, "hom-novikov", {"mul": skew_pair}, I3),
        lambda rng: (lambda b, c: _diag(b * c, b, c))(_rnd_rat(rng), _rnd_rat(rng))))
    for n in (2, 3):
        catalog["hom-novikov"].append(CatalogEntry(
            f"truncated-poly-{n}",
            alg(n, "hom-novikov", {"mul": _unit_like(n)}, Matrix.identity(n)),
            _truncated_endo(n)))

    # postlie: preLie instances with zero bracket, plus a nonzero-bracket one
    catalog["hom-postlie"].append(CatalogEntry(
        "left-shift-trivial",
        alg(2, "hom-postlie", {"bracket": Tensor3.zeros(2), "mul": left_shift}, I2),
        lambda rng: _diag(1, _rnd_rat(rng))))
    catalog["hom-postlie"].append(CatalogEntry(
        "dual-numbers-trivial",
        alg(2, "hom-postlie", {"bracket": Tensor3.zeros(2), "mul": _unit_like(2)}, I2),
        _truncated_endo(2)))
    skew_bracket = sc_tensor(3, {(1, 2): {0: 2}, (2, 1): {0: -2}})
    catalog["hom-postlie"].append(CatalogEntry(
        "skew-pair-postlie",
        alg(3, "hom-postlie", {"bracket": skew_bracket, "mul": skew_pair}, I3),
        lambda rng: (lambda b, c: _diag(b * c, b, c))(_rnd_rat(rng), _rnd_nonzero(rng))))
    catalog["hom-postlie"].append(CatalogEntry(
        "truncated-poly-1-trivial",
        alg(1, "hom-postlie",
            {"bracket": Tensor3.zeros(1), "mul": _unit_like(1)}, Matrix.identity(1)),
        lambda rng: _diag(rng.choice((0, 1)))))

    # dendriform / l-dendriform: the split of dual numbers along its
    # square-zero Rota-Baxter operator, plus double-product variants
    split = sc_tensor(2, {(0, 0): {1: 1}})
    catalog["hom-dendriform"].append(CatalogEntry(
        "split-dual",
        alg(2, "hom-dendriform", {"left": split, "right": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))
    catalog["hom-dendriform"].append(CatalogEntry(
        "double-dual",
        alg(2, "hom-dendriform",
            {"left": Tensor3.zeros(2), "right": _unit_like(2).scale(2)}, I2),
        _truncated_endo(2)))
    catalog["hom-l-dendriform"].append(CatalogEntry(
        "split-dual-ld",
        alg(2, "hom-l-dendriform", {"tleft": split, "tright": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))
    catalog["hom-l-dendriform"].append(CatalogEntry(
        "split-dual-ld-transpose",
        alg(2, "hom-l-dendriform", {"tleft": -split, "tright": split}, I2),
        lambda rng: (lambda s: _diag(s, s * s))(_rnd_rat(rng))))

    return {k: tuple(v) for k, v in catalog.items()}


CATALOG = _build_catalog()


def _zero_ops(kind: str, dim: int) -> dict[str, Tensor3]:
    from .homcore import KIND_OPS
    names = KIND_OPS[kind] or ("mul",)
    return {name: Tensor3.zeros(dim) for name in names}


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
        out = HomAlgebra(spec.dim, spec.kind, _zero_ops(spec.kind, spec.dim), alpha)

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
        product, shared = Tensor3.zeros(spec.dim), {}
        for _ in range(40):
            cand = _combination(spec.dim, space.basis,
                                [rng.randint(-1, 1) for _ in space.basis])
            if check_identity(_postlie_spec(lie, cand, TWISTED_LEFT_SYMMETRY, shared),
                              spec.dim).passed:
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
