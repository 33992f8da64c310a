"""Module structures over Hom-algebras and their constructions.

Actions are stored as one carrier-sized matrix per algebra basis element;
the action of a general element is the linear extension.  The axiom systems,
the O-operator identities and the carrier-map preconditions of
``twist_beta`` are declared with the algebra identities in ``homcore``, and
each certifier is one ``homcore.certify`` call over them: an action family
binds as ``HomModule.tensors[name]``, the product algebra x carrier ->
carrier, an O-operator as a map carrier -> algebra (``_oop_laws`` states its
laws and binding for ``check_oop`` and the box search).  That tensor is
built once per module, so a certification scope keeps its lookup tables
across calls; ``_family`` turns a tensor back into an action family.  The
laws are checked exactly on every basis tuple, each variable over its own
space; module witnesses end with the first differing column, and their
entries are canonical rationals, as every witness's are.

The post-Lie module axioms follow the element/operator form (the one every
proof in the source theory actually uses); the literal printed variant of
the first axiom is available behind ``strict_twist_commute`` for comparison
only.  The L-dendriform bimodule equations are the five multilinear
components of the semidirect-sum characterization; see the first preLie
bimodule axiom for the analogous printed-typo correction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import CertificationError, InputError, PreconditionError
from .exactlin import Matrix, Tensor3, block_diag, mat_mul, rat_str
from .homcore import (CertReport, HomAlgebra, Law, _declare_identities, _digest,
                      canonical_algebra_key, certify, check_axioms, check_morphism,
                      check_predicate)

MODULE_KINDS = {
    "assoc-bimodule": ("hom-associative", ("l", "r")),
    "lie-module": ("hom-lie", ("rho",)),
    "lie-representation": ("hom-lie", ("rho",)),
    "prelie-bimodule": ("hom-prelie", ("l", "r")),
    "postlie-module": ("hom-postlie", ("diamond", "bullet")),
    # lt/rt act for the tleft product, lr/rr for the tright product
    "ldend-bimodule": ("hom-l-dendriform", ("lt", "rt", "lr", "rr")),
}


@dataclass(frozen=True, eq=False)
class HomModule:
    """Carrier of dimension mdim with a module twist and named action families."""

    algebra: HomAlgebra
    mdim: int
    beta: Matrix
    actions: Mapping[str, tuple[Matrix, ...]]
    kind: str

    def __post_init__(self):
        if self.kind not in MODULE_KINDS:
            raise InputError(f"unknown module kind: {self.kind!r}")
        alg_kind, names = MODULE_KINDS[self.kind]
        if self.algebra.kind != alg_kind:
            raise InputError(
                f"module kind {self.kind!r} needs a {alg_kind} algebra, got {self.algebra.kind}")
        if tuple(sorted(self.actions)) != tuple(sorted(names)):
            raise InputError(
                f"module kind {self.kind!r} needs actions {names}, got {tuple(self.actions)}")
        m = self.mdim
        if self.beta.rows != m or self.beta.cols != m:
            raise InputError("beta must be mdim x mdim")
        for name, fam in self.actions.items():
            if len(fam) != self.algebra.dim:
                raise InputError(
                    f"action {name!r} needs {self.algebra.dim} matrices, got {len(fam)}")
            for mat in fam:
                if mat.rows != m or mat.cols != m:
                    raise InputError(f"action {name!r} matrices must be {m}x{m}")

    def __eq__(self, other):
        return (isinstance(other, HomModule) and self.kind == other.kind
                and self.mdim == other.mdim and self.algebra == other.algebra
                and self.beta == other.beta and dict(self.actions) == dict(other.actions))

    @functools.cached_property
    def tensors(self) -> dict[str, Tensor3]:
        """Each action family as the product algebra x carrier -> carrier that
        module laws bind: product_vec(i, v) is column v of the matrix of e_i.
        Built once per module, so a scope keeps its lookup tables."""
        m = self.mdim
        return {name: Tensor3(len(fam), m, m, [x for mat in fam for col in zip(*mat.data)
                                               for x in col])
                for name, fam in self.actions.items()}

    def action(self, name: str) -> tuple[Matrix, ...]:
        return self.actions[name]

    def act(self, name: str, weights: Sequence) -> Matrix:
        """Action of the algebra element with the given basis coefficients."""
        fam = self.actions[name]
        out = Matrix.zeros(self.mdim, self.mdim)
        for w, mat in zip(weights, fam):
            if w:
                out = out + mat.scale(w)
        return out

    def digest(self) -> str:
        actions = tuple(
            (name, tuple(tuple(tuple(map(rat_str, row)) for row in m.data)
                         for m in self.actions[name]))
            for name in sorted(self.actions))
        beta = tuple(tuple(map(rat_str, row)) for row in self.beta.data)
        return _digest(("module", self.kind, self.mdim,
                        canonical_algebra_key(self.algebra), beta, actions))


# ---------------------------------------------------------------------------
# axiom checking

def _family(t: Tensor3) -> tuple[Matrix, ...]:
    """The action family of a product algebra x carrier -> carrier: the
    matrix of y -> e_i * y for each algebra basis index i (the inverse of
    ``HomModule.tensors``)."""
    return tuple(t.left_mult_matrix(i) for i in range(t.d1))


def _module_env(m: HomModule) -> dict:
    """The names a module law binds: the algebra's products and twist, the
    carrier twist and each action family."""
    a = m.algebra
    return {**a.ops, "alpha": a.alpha, "beta": m.beta, **m.tensors}


def check_module_axioms(m: HomModule, strict_twist_commute: bool = False) -> CertReport:
    """Certify the module against the axiom system of its kind, declared in
    ``homcore``; a post-Lie module with ``strict_twist_commute`` also gets
    the literal twist rows.  Witness indices are the algebra basis indices,
    then the first carrier index (the matrix column) where the sides differ."""
    group = m.kind + ("-literal" if strict_twist_commute and m.kind == "postlie-module" else "")
    return CertReport.from_results(certify(_declare_identities()[group], _module_env(m)))


def require_module_certified(m: HomModule, what="input module") -> CertReport:
    return check_module_axioms(m).require(PreconditionError, f"{what} fails {m.kind} axioms")


def _certified_output(m: HomModule, what: str) -> HomModule:
    check_module_axioms(m).require(CertificationError, f"{what} fails certification")
    return m


def _require_multiplicative(a: HomAlgebra):
    report = check_predicate(a, "multiplicative")
    if not report.passed:
        raise PreconditionError("algebra is not multiplicative", report)


# ---------------------------------------------------------------------------
# constructions

def bimodule_to_lie_module(m: HomModule) -> HomModule:
    """(V, l - r, beta) as a module over the commutator Hom-Lie algebra."""
    if m.kind != "assoc-bimodule":
        raise InputError("expected an assoc-bimodule")
    require_module_certified(m)
    mul = m.algebra.op("mul")
    lie = HomAlgebra(m.algebra.dim, "hom-lie",
                     {"bracket": mul - mul.swap_arguments()}, m.algebra.alpha)
    lie_report = check_axioms(lie)
    if not lie_report.passed:
        raise CertificationError("commutator bracket fails hom-lie axioms", lie_report)
    rho = tuple(l - r for l, r in zip(m.action("l"), m.action("r")))
    out = HomModule(lie, m.mdim, m.beta, {"rho": rho}, "lie-module")
    return _certified_output(out, "derived lie-module")


def adjoint_postlie_module(l: HomAlgebra, k: int = 0) -> HomModule:
    """Self-module of a multiplicative Hom-post-Lie algebra.

    Acts by x (diamond) m = [alpha^k(x), m] and x (bullet) m = alpha^k(x).m;
    k = 0 is the tautological self-module.
    """
    if l.kind != "hom-postlie":
        raise InputError("expected a hom-postlie algebra")
    if k < 0:
        raise InputError("k must be non-negative")
    _require_multiplicative(l)
    ak, one = l.alpha.power(k), Matrix.identity(l.dim)
    out = HomModule(l, l.dim, l.alpha,
                    {"diamond": _family(l.op("bracket").precompose(ak, one)),
                     "bullet": _family(l.op("mul").precompose(ak, one))},
                    "postlie-module")
    return _certified_output(out, "adjoint post-Lie module")


def direct_sum(m1: HomModule, m2: HomModule) -> HomModule:
    """Block-diagonal sum of two post-Lie modules over the same algebra."""
    if m1.kind != "postlie-module" or m2.kind != "postlie-module":
        raise InputError("direct_sum expects postlie-modules")
    if m1.algebra != m2.algebra:
        raise InputError("direct_sum needs modules over the same algebra")
    require_module_certified(m1, "first module")
    require_module_certified(m2, "second module")
    actions = {
        name: tuple(block_diag(x, y)
                    for x, y in zip(m1.action(name), m2.action(name)))
        for name in ("diamond", "bullet")
    }
    out = HomModule(m1.algebra, m1.mdim + m2.mdim,
                    block_diag(m1.beta, m2.beta), actions, "postlie-module")
    return _certified_output(out, "direct sum module")


def tensor_product(m1: HomModule, m2: HomModule, k: int = 1) -> HomModule:
    """Tensor product module with the algebra twisted into the action by alpha^k.

    Carrier basis e_p (x) f_q ordered lexicographically (p, q).
    """
    if m1.kind != "postlie-module" or m2.kind != "postlie-module":
        raise InputError("tensor_product expects postlie-modules")
    if m1.algebra != m2.algebra:
        raise InputError("tensor_product needs modules over the same algebra")
    if k < 0:
        raise InputError("k must be non-negative")
    _require_multiplicative(m1.algebra)
    require_module_certified(m1, "first module")
    require_module_certified(m2, "second module")
    a = m1.algebra
    ak = a.alpha.power(k)

    def family(name):
        f1, f2 = m1.action(name), m2.action(name)
        mats = []
        for i in range(a.dim):
            acc = Matrix.zeros(m1.mdim * m2.mdim, m1.mdim * m2.mdim)
            for u, w in enumerate(ak.column(i)):
                if w:
                    acc = acc + (f1[u].kron(m2.beta) + m1.beta.kron(f2[u])).scale(w)
            mats.append(acc)
        return tuple(mats)

    out = HomModule(a, m1.mdim * m2.mdim, m1.beta.kron(m2.beta),
                    {"diamond": family("diamond"), "bullet": family("bullet")},
                    "postlie-module")
    return _certified_output(out, "tensor product module")


def twist_n0(m: HomModule, n: int) -> HomModule:
    """Precompose both actions with alpha^n; same algebra, same module twist."""
    if m.kind != "postlie-module":
        raise InputError("twist_n0 expects a postlie-module")
    if n < 0:
        raise InputError("n must be non-negative")
    _require_multiplicative(m.algebra)
    require_module_certified(m)
    an, one = m.algebra.alpha.power(n), Matrix.identity(m.mdim)
    actions = {name: _family(m.tensors[name].precompose(an, one))
               for name in ("diamond", "bullet")}
    out = HomModule(m.algebra, m.mdim, m.beta, actions, "postlie-module")
    return _certified_output(out, "alpha^n twisted module")


def twist_0k(m: HomModule, k: int) -> tuple[HomAlgebra, HomModule]:
    """Postcompose actions with beta^(2^k - 1) over the correspondingly
    twisted algebra (products composed with alpha^(2^k - 1), twist alpha^(2^k))."""
    if m.kind != "postlie-module":
        raise InputError("twist_0k expects a postlie-module")
    if k < 0:
        raise InputError("k must be non-negative")
    _require_multiplicative(m.algebra)
    require_module_certified(m)
    e = 2 ** k - 1
    a = m.algebra
    ae = a.alpha.power(e)
    algebra = HomAlgebra(a.dim, "hom-postlie",
                         {name: t.postcompose(ae) for name, t in a.ops.items()},
                         a.alpha.power(e + 1))
    alg_report = check_axioms(algebra)
    if not alg_report.passed:
        raise CertificationError("twisted algebra fails hom-postlie axioms", alg_report)
    be = m.beta.power(e)
    actions = {
        name: tuple(mat_mul(be, mat) for mat in m.action(name))
        for name in ("diamond", "bullet")
    }
    out = HomModule(algebra, m.mdim, m.beta.power(e + 1), actions, "postlie-module")
    return algebra, _certified_output(out, "beta-power twisted module")


def twist_beta_data(m: HomModule, b: Matrix, bm: Matrix) -> tuple[HomAlgebra, HomModule]:
    """The twist formulas alone, with no compatibility checking.

    Used to compare against composites of the elementary twists; prefer
    ``twist_beta`` which verifies the hypotheses and certifies the output.
    """
    a = m.algebra
    algebra = HomAlgebra(a.dim, a.kind,
                         {name: t.postcompose(b) for name, t in a.ops.items()},
                         mat_mul(b, a.alpha))
    one = Matrix.identity(m.mdim)
    actions = {name: _family(t.precompose(b, one).postcompose(bm))
               for name, t in m.tensors.items()}
    module = HomModule(algebra, m.mdim, mat_mul(m.beta, bm), actions, m.kind)
    return algebra, module


def twist_beta(m: HomModule, b: Matrix, bm: Matrix) -> tuple[HomAlgebra, HomModule]:
    """Twist a post-Lie module by an algebra endomorphism b and a compatible
    carrier map bm; returns the twisted algebra and module, both certified."""
    if m.kind != "postlie-module":
        raise InputError("twist_beta expects a postlie-module")
    a = m.algebra
    check_morphism(b, a, a).require(PreconditionError, "b is not an algebra endomorphism")
    if bm.rows != m.mdim or bm.cols != m.mdim:
        raise InputError(f"bM must be {m.mdim}x{m.mdim}, got {bm.rows}x{bm.cols}")
    laws = _declare_identities()
    commutes, = certify(laws["commutes-with-twist"], {"r": bm, "alpha": m.beta})
    if not commutes.passed:
        raise PreconditionError("bM does not commute with the module twist")
    for name in ("diamond", "bullet"):
        row, = certify(laws["intertwines-action"], {"act": m.tensors[name], "b": b, "bM": bm})
        if not row.passed:
            raise PreconditionError(f"bM does not intertwine the {name} action with b "
                                    f"(basis index {row.witness.indices[0]})")
    algebra, module = twist_beta_data(m, b, bm)
    alg_report = check_axioms(algebra)
    if not alg_report.passed:
        raise CertificationError("beta-twisted algebra fails certification", alg_report)
    return algebra, _certified_output(module, "beta-twisted module")


# ---------------------------------------------------------------------------
# O-operators

# the O-operator identity of each module kind, declared in ``homcore``
OOP_LAWS = {"assoc-bimodule": "o-operator-associative", "prelie-bimodule": "o-operator-prelie",
            "lie-module": "o-operator-lie", "lie-representation": "o-operator-lie"}


def _oop_laws(m: HomModule) -> tuple[tuple[Law, ...], dict]:
    """check_oop's laws and their binding but for "T" (_module_env);
    InputError for a module kind with no O-operator law."""
    if m.kind not in OOP_LAWS:
        raise InputError(f"O-operators are not defined for module kind {m.kind!r}")
    laws = _declare_identities()
    return laws["oop-twist-compat"] + laws[OOP_LAWS[m.kind]], _module_env(m)


def check_oop(t: Matrix, m: HomModule) -> CertReport:
    """Certify t : carrier -> algebra as an O-operator for the module's kind.

    The associative and preLie variants include the twist-compatibility
    alpha.T = T.beta from their definitions; the Lie variant requires it as
    well, since the functor proofs rewrite rho(T(beta(u))) as rho(alpha(T(u))).
    The module itself is assumed certified (callers enforce it).  Witness
    indices of the O-operator row are two carrier basis indices.
    """
    a = m.algebra
    if t.rows != a.dim or t.cols != m.mdim:
        raise InputError(f"operator must be {a.dim}x{m.mdim}, got {t.rows}x{t.cols}")
    laws, env = _oop_laws(m)
    return CertReport.from_results(certify(laws, {**env, "T": t}))
