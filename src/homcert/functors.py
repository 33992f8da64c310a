"""Algebra-to-algebra constructions, always construct-then-certify.

No theorem is trusted: every output is re-checked against its target axiom
system and the certification report travels with the result.  A failing
report is a counterexample, not an error; preconditions on inputs, by
contrast, are hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, PreconditionError
from .exactlin import ZERO, Matrix, Tensor3, block_diag, rat
from .homcore import (AxiomResult, CertReport, HomAlgebra, check_axioms, check_predicate,
                      check_rota_baxter, require_certified)
from .hommod import (HomModule, check_module_axioms, check_oop,
                     require_module_certified)


@dataclass(frozen=True)
class FunctorResult:
    """A constructed structure, its certification, and enough provenance to
    replay the construction bit-identically."""

    output: object
    cert: CertReport
    provenance: tuple

    @property
    def passed(self) -> bool:
        return self.cert.passed


def _result(name: str, output: HomAlgebra, inputs: Sequence[str], **params) -> FunctorResult:
    prov = (name, tuple(sorted(params.items())), tuple(inputs))
    return FunctorResult(output, check_axioms(output), prov)


def commutator_tensor(t: Tensor3) -> Tensor3:
    return t - t.swap_arguments()


def commutator_lie(a: HomAlgebra) -> FunctorResult:
    """Commutator bracket of a certified Hom-associative algebra."""
    if a.kind != "hom-associative":
        raise InputError("commutator_lie expects a hom-associative algebra")
    require_certified(a)
    out = HomAlgebra(a.dim, "hom-lie",
                     {"bracket": commutator_tensor(a.op("mul"))}, a.alpha)
    return _result("commutator-lie", out, [a.digest()])


def prelie_to_lie(a: HomAlgebra) -> FunctorResult:
    """Commutator bracket of a certified Hom-preLie algebra."""
    if a.kind != "hom-prelie":
        raise InputError("prelie_to_lie expects a hom-prelie algebra")
    require_certified(a)
    out = HomAlgebra(a.dim, "hom-lie",
                     {"bracket": commutator_tensor(a.op("mul"))}, a.alpha)
    return _result("prelie-to-lie", out, [a.digest()])


def novikov_to_postlie(a: HomAlgebra) -> FunctorResult:
    """Left-commutative Hom-Novikov -> Hom-post-Lie with the commutator bracket."""
    if a.kind != "hom-novikov":
        raise InputError("novikov_to_postlie expects a hom-novikov algebra")
    require_certified(a)
    lc = check_predicate(a, "left-commutative")
    if not lc.passed:
        raise PreconditionError("Novikov product is not left-commutative", lc)
    out = HomAlgebra(a.dim, "hom-postlie",
                     {"bracket": commutator_tensor(a.op("mul")), "mul": a.op("mul")},
                     a.alpha)
    return _result("novikov-to-postlie", out, [a.digest()])


def scale(l: HomAlgebra, k) -> FunctorResult:
    """Scale both post-Lie products by a nonzero scalar."""
    if l.kind != "hom-postlie":
        raise InputError("scale expects a hom-postlie algebra")
    k = rat(k)
    if not k:
        raise InputError("scaling parameter must be nonzero")
    require_certified(l)
    out = HomAlgebra(l.dim, "hom-postlie",
                     {name: t.scale(k) for name, t in l.ops.items()}, l.alpha)
    return _result("scale", out, [l.digest()], k=str(k))


def rb_dendriform(a: HomAlgebra, r: Matrix, weight=0) -> FunctorResult:
    """Split a Hom-associative product along a Rota-Baxter operator:
    x -| y = x.R(y) - x.y and x |- y = R(x).y + x.y.

    The certification report is returned either way; whether the dendriform
    axioms hold at a given weight is an empirical question the caller records.
    """
    if a.kind != "hom-associative":
        raise InputError("rb_dendriform expects a hom-associative algebra")
    require_certified(a)
    check_rota_baxter(a, r, weight).require(
        PreconditionError, "operator fails Rota-Baxter preconditions")
    mul = a.op("mul")
    left = mul.precompose(Matrix.identity(a.dim), r) - mul
    right = mul.precompose(r, Matrix.identity(a.dim)) + mul
    out = HomAlgebra(a.dim, "hom-dendriform", {"left": left, "right": right}, a.alpha)
    return _result("rb-dendriform", out, [a.digest()], weight=str(rat(weight)))


# ---------------------------------------------------------------------------
# adjoint (regular) modules

def adjoint_bimodule(a: HomAlgebra) -> HomModule:
    """The algebra acting on itself by left/right multiplications, with the
    module kind matching the algebra kind."""
    require_certified(a)
    n = a.dim
    if a.kind == "hom-associative":
        mul = a.op("mul")
        actions = {"l": tuple(mul.left_mult_matrix(i) for i in range(n)),
                   "r": tuple(mul.right_mult_matrix(i) for i in range(n))}
        kind = "assoc-bimodule"
    elif a.kind == "hom-prelie":
        mul = a.op("mul")
        actions = {"l": tuple(mul.left_mult_matrix(i) for i in range(n)),
                   "r": tuple(mul.right_mult_matrix(i) for i in range(n))}
        kind = "prelie-bimodule"
    elif a.kind == "hom-lie":
        br = a.op("bracket")
        actions = {"rho": tuple(br.left_mult_matrix(i) for i in range(n))}
        kind = "lie-representation"
    elif a.kind == "hom-l-dendriform":
        q, p = a.op("tleft"), a.op("tright")
        actions = {"lt": tuple(q.left_mult_matrix(i) for i in range(n)),
                   "rt": tuple(q.right_mult_matrix(i) for i in range(n)),
                   "lr": tuple(p.left_mult_matrix(i) for i in range(n)),
                   "rr": tuple(p.right_mult_matrix(i) for i in range(n))}
        kind = "ldend-bimodule"
    else:
        raise InputError(f"no adjoint module for algebra kind {a.kind!r}")
    module = HomModule(a, n, a.alpha, actions, kind)
    require_module_certified(module, "adjoint module")
    return module


# ---------------------------------------------------------------------------
# O-operator functors

def _require_oop(t: Matrix, m: HomModule):
    require_module_certified(m)
    check_oop(t, m).require(PreconditionError, "operator fails O-operator conditions")


def _oop_actions(m: HomModule, t: Matrix, name: str) -> list[Matrix]:
    """The ``name`` action of T(e_i) for each carrier basis index i."""
    return [m.act(name, t.column(i)) for i in range(m.mdim)]


def _carrier_tensor(mats: Sequence[Matrix], transpose: bool = False) -> Tensor3:
    """e_i . e_j = column j of mats[i], or column i of mats[j] if ``transpose``."""
    d = len(mats)
    return Tensor3.from_basis_products(d, d, d, (lambda i, j: mats[j].column(i)) if transpose
                                       else (lambda i, j: mats[i].column(j)))


def _assoc_oop_products(m: HomModule, t: Matrix) -> tuple[Tensor3, Tensor3]:
    """u . v = r(T(v)) u and u . v = l(T(u)) v on the carrier."""
    return (_carrier_tensor(_oop_actions(m, t, "r"), transpose=True),
            _carrier_tensor(_oop_actions(m, t, "l")))


def oop_lie_to_prelie(l: HomAlgebra, rho: HomModule, t: Matrix) -> FunctorResult:
    """u * v = rho(T(u)) v on the carrier of a Lie representation."""
    if l.kind != "hom-lie" or rho.algebra != l:
        raise InputError("expected a representation of the given hom-lie algebra")
    if rho.kind not in ("lie-representation", "lie-module"):
        raise InputError("expected a lie representation or module")
    require_certified(l)
    _require_oop(t, rho)
    mul = _carrier_tensor(_oop_actions(rho, t, "rho"))
    out = HomAlgebra(rho.mdim, "hom-prelie", {"mul": mul}, rho.beta)
    return _result("oop-lie-to-prelie", out, [l.digest(), rho.digest()])


def oop_assoc_to_dendriform(a: HomAlgebra, m: HomModule, t: Matrix) -> FunctorResult:
    """u -| v = r(T(v)) u and u |- v = l(T(u)) v on the carrier."""
    if a.kind != "hom-associative" or m.algebra != a or m.kind != "assoc-bimodule":
        raise InputError("expected a bimodule over the given hom-associative algebra")
    require_certified(a)
    _require_oop(t, m)
    left, right = _assoc_oop_products(m, t)
    out = HomAlgebra(m.mdim, "hom-dendriform", {"left": left, "right": right}, m.beta)
    return _result("oop-assoc-to-dendriform", out, [a.digest(), m.digest()])


def oop_assoc_to_prelie(a: HomAlgebra, m: HomModule, t: Matrix) -> FunctorResult:
    """u * v = l(T(u)) v - r(T(u)) v on the carrier."""
    if a.kind != "hom-associative" or m.algebra != a or m.kind != "assoc-bimodule":
        raise InputError("expected a bimodule over the given hom-associative algebra")
    require_certified(a)
    _require_oop(t, m)
    mul = _carrier_tensor([l - r for l, r in zip(_oop_actions(m, t, "l"), _oop_actions(m, t, "r"))])
    out = HomAlgebra(m.mdim, "hom-prelie", {"mul": mul}, m.beta)
    return _result("oop-assoc-to-prelie", out, [a.digest(), m.digest()])


def oop_assoc_to_ldendriform(a: HomAlgebra, m: HomModule, t: Matrix) -> FunctorResult:
    """u |> v = l(T(u)) v and u <| v = r(T(v)) u on the carrier."""
    if a.kind != "hom-associative" or m.algebra != a or m.kind != "assoc-bimodule":
        raise InputError("expected a bimodule over the given hom-associative algebra")
    require_certified(a)
    _require_oop(t, m)
    tleft, tright = _assoc_oop_products(m, t)
    out = HomAlgebra(m.mdim, "hom-l-dendriform", {"tleft": tleft, "tright": tright}, m.beta)
    return _result("oop-assoc-to-ldendriform", out, [a.digest(), m.digest()])


@dataclass(frozen=True)
class DualCertResult:
    """Outcome of a construction whose target axiom system is ambiguous in
    the source theory; both candidate systems are certified."""

    dendriform: FunctorResult
    l_dendriform: FunctorResult

    @property
    def passing_systems(self) -> tuple[str, ...]:
        out = []
        if self.dendriform.passed:
            out.append("hom-dendriform")
        if self.l_dendriform.passed:
            out.append("hom-l-dendriform")
        return tuple(out)

    @property
    def output(self) -> HomAlgebra:
        return self.dendriform.output

    @property
    def cert(self) -> CertReport:
        """Both systems' rows; passes when either system certifies."""
        merged = self.dendriform.cert.merged_with(
            self.l_dendriform.cert, "dendriform:", "l-dendriform:")
        return CertReport(bool(self.passing_systems), merged.axioms)


def oop_prelie_to_dendriform(a: HomAlgebra, m: HomModule, t: Matrix) -> DualCertResult:
    """u <| v = l(T(u)) v and u |> v = -r(T(u)) v on the carrier of a preLie
    bimodule, certified against BOTH the dendriform and L-dendriform systems
    (reading -| = <| and |- = |> for the former)."""
    if a.kind != "hom-prelie" or m.algebra != a or m.kind != "prelie-bimodule":
        raise InputError("expected a bimodule over the given hom-prelie algebra")
    require_certified(a)
    _require_oop(t, m)
    d = m.mdim
    tleft = _carrier_tensor(_oop_actions(m, t, "l"))
    tright = _carrier_tensor([-r for r in _oop_actions(m, t, "r")])
    inputs = [a.digest(), m.digest()]
    dend = HomAlgebra(d, "hom-dendriform", {"left": tleft, "right": tright}, m.beta)
    ldend = HomAlgebra(d, "hom-l-dendriform", {"tleft": tleft, "tright": tright}, m.beta)
    return DualCertResult(_result("oop-prelie-to-dendriform", dend, inputs),
                          _result("oop-prelie-to-l-dendriform", ldend, inputs))


# ---------------------------------------------------------------------------
# the L-dendriform layer

def horizontal_tensor(a: HomAlgebra) -> Tensor3:
    """x.y = x |> y + x <| y."""
    return a.op("tright") + a.op("tleft")


def vertical_tensor(a: HomAlgebra) -> Tensor3:
    """x * y = x |> y - y <| x."""
    return a.op("tright") - a.op("tleft").swap_arguments()


def ldend_to_prelie(a: HomAlgebra, mode: str = "horizontal") -> FunctorResult:
    """The associated horizontal or vertical Hom-preLie product."""
    if a.kind != "hom-l-dendriform":
        raise InputError("ldend_to_prelie expects a hom-l-dendriform algebra")
    if mode not in ("horizontal", "vertical"):
        raise InputError("mode must be 'horizontal' or 'vertical'")
    require_certified(a)
    mul = horizontal_tensor(a) if mode == "horizontal" else vertical_tensor(a)
    out = HomAlgebra(a.dim, "hom-prelie", {"mul": mul}, a.alpha)
    return _result("ldend-to-prelie", out, [a.digest()], mode=mode)


@dataclass(frozen=True)
class BracketsResult:
    horizontal: FunctorResult
    vertical: FunctorResult
    brackets_equal: bool

    @property
    def output(self) -> HomAlgebra:
        return self.horizontal.output

    @property
    def cert(self) -> CertReport:
        """Both brackets' rows, then whether the brackets are equal."""
        merged = self.horizontal.cert.merged_with(self.vertical.cert, "horizontal:", "vertical:")
        return CertReport.from_results(
            merged.axioms + (AxiomResult("brackets-equal", self.brackets_equal),))


def ldend_brackets(a: HomAlgebra) -> BracketsResult:
    """Commutator brackets of the horizontal and vertical products; both are
    certified Hom-Lie and verified equal as tensors."""
    if a.kind != "hom-l-dendriform":
        raise InputError("ldend_brackets expects a hom-l-dendriform algebra")
    require_certified(a)
    hor = commutator_tensor(horizontal_tensor(a))
    ver = commutator_tensor(vertical_tensor(a))
    out_h = HomAlgebra(a.dim, "hom-lie", {"bracket": hor}, a.alpha)
    out_v = HomAlgebra(a.dim, "hom-lie", {"bracket": ver}, a.alpha)
    inputs = [a.digest()]
    return BracketsResult(_result("ldend-bracket-horizontal", out_h, inputs),
                          _result("ldend-bracket-vertical", out_v, inputs),
                          hor == ver)


def ldend_transpose(a: HomAlgebra) -> FunctorResult:
    """x |>^t y = x |> y, x <|^t y = -(y <| x); an involution swapping the
    horizontal and vertical preLie products."""
    if a.kind != "hom-l-dendriform":
        raise InputError("ldend_transpose expects a hom-l-dendriform algebra")
    require_certified(a)
    out = HomAlgebra(a.dim, "hom-l-dendriform",
                     {"tleft": -a.op("tleft").swap_arguments(), "tright": a.op("tright")},
                     a.alpha)
    return _result("ldend-transpose", out, [a.digest()])


def ldend_semidirect(a: HomAlgebra, m: HomModule) -> FunctorResult:
    """Semidirect sum A (+) M of an L-dendriform algebra and a candidate
    bimodule; basis is algebra-first then module.

    The bimodule axioms hold iff the sum is L-dendriform, so a failing
    candidate is deliberately not an error: the sum is built anyway and its
    certification failure witnesses the defect.
    """
    if a.kind != "hom-l-dendriform":
        raise InputError("ldend_semidirect expects a hom-l-dendriform algebra")
    if m.kind != "ldend-bimodule" or m.algebra != a:
        raise InputError("expected an ldend-bimodule over the given algebra")
    require_certified(a)
    n, md = a.dim, m.mdim
    total = n + md

    def build(prod: Tensor3, left_name: str, right_name: str) -> Tensor3:
        lf, rf = m.action(left_name), m.action(right_name)

        def product(i, j):
            out = [ZERO] * total
            if i < n and j < n:
                for k, v in enumerate(prod.product_vec(i, j)):
                    out[k] = v
            elif i < n:
                col = lf[i].column(j - n)
                for k, v in enumerate(col):
                    out[n + k] = v
            elif j < n:
                col = rf[j].column(i - n)
                for k, v in enumerate(col):
                    out[n + k] = v
            return tuple(out)

        return Tensor3.from_basis_products(total, total, total, product)

    out = HomAlgebra(total, "hom-l-dendriform",
                     {"tleft": build(a.op("tleft"), "lt", "rt"),
                      "tright": build(a.op("tright"), "lr", "rr")},
                     block_diag(a.alpha, m.beta))
    return _result("ldend-semidirect", out, [a.digest(), m.digest()])


def prelie_module_split(a: HomAlgebra, mode: str = "horizontal"
                        ) -> tuple[HomAlgebra, HomModule, CertReport]:
    """Decompose an L-dendriform algebra into its horizontal (resp. vertical)
    preLie algebra plus the bimodule (A, l_|>, r_<|, alpha) (resp.
    (A, l_|>, -l_<|, alpha)); both parts certified, merged report returned."""
    if a.kind != "hom-l-dendriform":
        raise InputError("prelie_module_split expects a hom-l-dendriform algebra")
    if mode not in ("horizontal", "vertical"):
        raise InputError("mode must be 'horizontal' or 'vertical'")
    require_certified(a)
    n = a.dim
    q, p = a.op("tleft"), a.op("tright")
    if mode == "horizontal":
        mul = horizontal_tensor(a)
        r_actions = tuple(q.right_mult_matrix(i) for i in range(n))
    else:
        mul = vertical_tensor(a)
        r_actions = tuple(-q.left_mult_matrix(i) for i in range(n))
    algebra = HomAlgebra(n, "hom-prelie", {"mul": mul}, a.alpha)
    module = HomModule(algebra, n, a.alpha,
                       {"l": tuple(p.left_mult_matrix(i) for i in range(n)),
                        "r": r_actions},
                       "prelie-bimodule")
    report = check_axioms(algebra).merged_with(
        check_module_axioms(module), "algebra:", "module:")
    return algebra, module, report


def reassemble_ldendriform(algebra: HomAlgebra, module: HomModule) -> FunctorResult:
    """Inverse of the horizontal split: x |> y = l(x) y, x <| y = r(y) x,
    rebuilt on the carrier and certified as Hom-L-dendriform."""
    if module.kind != "prelie-bimodule" or module.mdim != algebra.dim:
        raise InputError("expected a prelie-bimodule on the algebra's own carrier")
    n = algebra.dim
    lf, rf = module.action("l"), module.action("r")
    tright = Tensor3.from_basis_products(n, n, n, lambda i, j: lf[i].column(j))
    tleft = Tensor3.from_basis_products(n, n, n, lambda i, j: rf[j].column(i))
    out = HomAlgebra(n, "hom-l-dendriform",
                     {"tleft": tleft, "tright": tright}, algebra.alpha)
    return _result("reassemble-ldendriform", out, [algebra.digest(), module.digest()])
