"""The theorem suite run by ``certify-corpus``.

Each property builds a deterministic list of work items from seeded corpora
and evaluates them independently, so items may be distributed over worker
processes; results are merged in enumeration order, which keeps summaries
byte-identical across reruns and parallelism levels.

Must-pass properties gate the exit status.  Empirical properties (the
Rota-Baxter splitting weights and the dual certification of the preLie
O-operator construction) are recorded, never asserted: their counterexample
documents are written out and the run still passes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Optional

from . import docs
from .errors import CertificationError, InputError, PreconditionError
from .exactlin import Matrix, Tensor3
from .homcore import (HomAlgebra, certification_scope, check_axioms_each, check_predicate,
                      convolution_rb)
from .hommod import (adjoint_postlie_module, direct_sum, tensor_product, twist_0k,
                     twist_beta, twist_beta_data, twist_n0)
from .functors import (adjoint_bimodule, commutator_lie, ldend_brackets,
                       ldend_semidirect, ldend_to_prelie, ldend_transpose,
                       novikov_to_postlie, oop_assoc_to_dendriform,
                       oop_assoc_to_ldendriform, oop_assoc_to_prelie,
                       oop_lie_to_prelie, oop_prelie_to_dendriform,
                       prelie_module_split, prelie_to_lie, rb_dendriform,
                       reassemble_ldendriform)
from .search import (CATALOG, brute_force_epsilon_bialgebras,
                     brute_force_oop_search, brute_force_rb_search, corpus,
                     iter_postlie_candidates, postlie_search, sc_tensor)


@dataclass
class ItemResult:
    ok: bool
    tally: tuple = ()          # ((key, numerator, denominator), ...)
    counterexamples: tuple = ()  # ((stem, document), ...)


@dataclass(frozen=True)
class Property:
    name: str
    must_pass: bool
    build: Callable[[int, int, int], list]
    evaluate: Callable[[object], ItemResult]


def _ok(flag: bool) -> ItemResult:
    return ItemResult(bool(flag))


def _counterexample(stem: str, algebra: HomAlgebra, note: str) -> tuple:
    doc = docs.algebra_to_doc(algebra)
    doc["provenance"] = {"functor": "counterexample", "params": {"note": note},
                         "inputs": []}
    return (stem, doc)


# -- section 2: implications over the associative / preLie corpora ----------

def _build_assoc(trials, max_dim, seed):
    return corpus("hom-associative", trials, max_dim, seed)


def _eval_assoc_implications(a: HomAlgebra) -> ItemResult:
    admissible = check_predicate(a, "lie-admissible").passed
    comm = commutator_lie(a).passed
    return _ok(admissible and comm)


def _build_prelie(trials, max_dim, seed):
    return corpus("hom-prelie", trials, max_dim, seed)


def _eval_prelie_to_lie(a: HomAlgebra) -> ItemResult:
    return _ok(prelie_to_lie(a).passed)


# -- section 3: module theorems over multiplicative post-Lie instances ------

def _build_postlie(trials, max_dim, seed):
    return corpus("hom-postlie", trials, max_dim, seed,
                  generators=("hand-catalog", "yau-twist-catalog",
                              "zero-product", "nullspace-sample"))


def _eval_module_theorems(l: HomAlgebra) -> ItemResult:
    try:
        if not check_predicate(l, "multiplicative").passed:
            return _ok(False)
        self_mod = adjoint_postlie_module(l, 0)
        for k in (1, 2):
            adjoint_postlie_module(l, k)
        direct_sum(self_mod, self_mod)
        for k in (0, 1):
            tensor_product(self_mod, self_mod, k)
        for n in (0, 1, 2):
            twist_n0(self_mod, n)
        for k in (0, 1):
            twist_0k(self_mod, k)
        twist_beta(self_mod, l.alpha, self_mod.beta)
        # trivial twists are the identity on module data
        if twist_n0(self_mod, 0) != self_mod:
            return _ok(False)
        alg0, mod0 = twist_0k(self_mod, 0)
        if alg0 != l or mod0 != self_mod:
            return _ok(False)
        # the beta-twist formulas agree with the composite of the two
        # elementary twists (action matrices and module twist)
        for n in (0, 1, 2):
            for k in (0, 1):
                _, via_beta = twist_beta_data(
                    self_mod, l.alpha.power(n), self_mod.beta.power(2 ** k - 1))
                _, composite = twist_0k(twist_n0(self_mod, n), k)
                if (dict(via_beta.actions) != dict(composite.actions)
                        or via_beta.beta != composite.beta):
                    return _ok(False)
        return _ok(True)
    except (PreconditionError, CertificationError):
        return _ok(False)


def _build_novikov(trials, max_dim, seed):
    return corpus("hom-novikov", trials, max_dim, seed)


def _eval_novikov_bridge(a: HomAlgebra) -> ItemResult:
    if not check_predicate(a, "left-commutative").passed:
        return _ok(False)
    return _ok(novikov_to_postlie(a).passed)


# -- section 4: O-operator functors ------------------------------------------

def _build_oop(trials, max_dim, seed):
    items = []
    items += [("assoc", a) for a in corpus("hom-associative", trials, min(max_dim, 2), seed)]
    items += [("lie", a) for a in corpus("hom-lie", trials, min(max_dim, 2), seed + 1)]
    return items


def _eval_oop_functors(item) -> ItemResult:
    tag, a = item
    module = adjoint_bimodule(a)
    operators = [Matrix.zeros(a.dim, module.mdim)]
    if a.dim * module.mdim <= 4:
        operators = brute_force_oop_search(a, module, 1)
    tried = 0
    good = 0
    for t in operators:
        tried += 1
        if tag == "assoc":
            ok = (oop_assoc_to_dendriform(module, t).passed
                  and oop_assoc_to_prelie(module, t).passed
                  and oop_assoc_to_ldendriform(module, t).passed)
        else:
            ok = oop_lie_to_prelie(module, t).passed
        good += ok
    return ItemResult(good == tried, tally=((f"{tag}-operators", good, tried),))


# -- section 4: the L-dendriform layer ---------------------------------------

def _build_ldend(trials, max_dim, seed):
    return corpus("hom-l-dendriform", trials, max_dim, seed)


def _eval_ldend_layer(a: HomAlgebra) -> ItemResult:
    try:
        if not ldend_to_prelie(a, "horizontal").passed:
            return _ok(False)
        if not ldend_to_prelie(a, "vertical").passed:
            return _ok(False)
        brackets = ldend_brackets(a)
        if not (brackets.horizontal.passed and brackets.vertical.passed
                and brackets.brackets_equal):
            return _ok(False)
        transp = ldend_transpose(a)
        if not transp.passed:
            return _ok(False)
        if ldend_transpose(transp.output).output != a:
            return _ok(False)
        algebra, module, report = prelie_module_split(a, "horizontal")
        if not report.passed:
            return _ok(False)
        if reassemble_ldendriform(module).output != a:
            return _ok(False)
        _, _, vertical_report = prelie_module_split(a, "vertical")
        if not vertical_report.passed:
            return _ok(False)
        regular = adjoint_bimodule(a)
        if not ldend_semidirect(regular).passed:
            return _ok(False)
        return _ok(True)
    except (PreconditionError, CertificationError):
        return _ok(False)


# -- search consistency -------------------------------------------------------

def _search_inputs():
    affine = next(e.algebra for e in CATALOG["hom-lie"] if e.name == "affine-line")
    twisted = HomAlgebra(2, "hom-lie", dict(affine.ops), Matrix([[1, 0], [0, 2]]))
    abelian2 = next(e.algebra for e in CATALOG["hom-lie"] if e.name == "abelian-2")
    abelian2_tw = HomAlgebra(2, "hom-lie", dict(abelian2.ops), Matrix([[1, 0], [0, 2]]))
    abelian3 = next(e.algebra for e in CATALOG["hom-lie"] if e.name == "abelian-3")
    return [("abelian-2", abelian2, 1), ("abelian-2-twisted", abelian2_tw, 1),
            ("abelian-3", abelian3, 0), ("affine-line", affine, 1),
            ("affine-line-twisted", twisted, 1)]


def _build_search(trials, max_dim, seed):
    return _search_inputs()


def _eval_search_consistency(item) -> ItemResult:
    """The search's survivors against the unfiltered box, every candidate
    certified in full as a post-Lie algebra and, on a zero bracket, as a
    pre-Lie one; the two must agree there."""
    name, lie, bound = item
    n, bracket, alpha = lie.dim, lie.op("bracket"), lie.alpha
    abelian = bracket.is_zero()
    with certification_scope():  # the search and the walk share one candidate space
        survivors = {r.output.op("mul") for r in postlie_search(lie, bound)}
        # one walk of the box, read in step by each batched certification
        muls, *copies = itertools.tee(
            (mul for _, mul in iter_postlie_candidates(lie, bound)), 2 + abelian)
        posts = check_axioms_each(HomAlgebra(n, "hom-postlie", {"bracket": bracket, "mul": m},
                                             alpha) for m in copies[0])
        pres = (check_axioms_each(HomAlgebra(n, "hom-prelie", {"mul": m}, alpha)
                                  for m in copies[1]) if abelian else itertools.repeat(None))
        checked = 0
        for mul, post, pre in zip(muls, posts, pres):
            if post.passed != (mul in survivors) or pre is not None and pre.passed != post.passed:
                return _ok(False)
            checked += 1
    return ItemResult(True, tally=((f"{name}-candidates", len(survivors), checked),))


# -- empirical questions ------------------------------------------------------

def _build_rb_weights(trials, max_dim, seed):
    algebras = corpus("hom-associative", max(trials // 2, 4), min(max_dim, 2), seed)
    return [(a, w) for a in algebras for w in (0, -1, 1)]


def _eval_rb_dendriform(item) -> ItemResult:
    a, weight = item
    operators = brute_force_rb_search(a, weight, 1)
    good = 0
    counter = []
    for idx, r in enumerate(operators):
        result = rb_dendriform(a, r, weight)
        if result.passed:
            good += 1
        else:
            stem = f"rb-dendriform-w{weight}-{a.digest()}-{idx:03d}"
            counter.append(_counterexample(
                stem, result.output,
                f"dendriform axioms fail at weight {weight}: "
                + ", ".join(x.name for x in result.cert.failing())))
    return ItemResult(True, tally=((f"weight={weight}", good, len(operators)),),
                      counterexamples=tuple(counter))


def _build_oop_dual(trials, max_dim, seed):
    return corpus("hom-prelie", max(trials // 2, 4), min(max_dim, 2), seed)


def _eval_oop_dual(a: HomAlgebra) -> ItemResult:
    module = adjoint_bimodule(a)
    if a.dim * module.mdim > 4:
        return ItemResult(True)
    operators = brute_force_oop_search(a, module, 1)
    dend = 0
    ldend = 0
    counter = []
    for idx, t in enumerate(operators):
        dual = oop_prelie_to_dendriform(module, t)
        dend += dual.dendriform.passed
        ldend += dual.l_dendriform.passed
        if not (dual.dendriform.passed and dual.l_dendriform.passed):
            stem = f"oop-prelie-dual-{a.digest()}-{idx:03d}"
            counter.append(_counterexample(
                stem, dual.l_dendriform.output,
                f"systems passing: {dual.passing_systems or ('none',)}"))
    total = len(operators)
    return ItemResult(True,
                      tally=(("dendriform", dend, total), ("l-dendriform", ldend, total)),
                      counterexamples=tuple(counter))


# -- epsilon bialgebra convolution --------------------------------------------

def _build_epsilon(trials, max_dim, seed):
    unit1 = sc_tensor(1, {(0, 0): {0: 1}})
    dual = next(e.algebra for e in CATALOG["hom-associative"]
                if e.name == "truncated-poly-2").op("mul")
    null_sq = next(e.algebra for e in CATALOG["hom-associative"]
                   if e.name == "null-square").op("mul")
    neg = Matrix([[-1, 0], [0, -1]])
    return [("unit-1", unit1, Matrix.identity(1)),
            ("zero-1", Tensor3.zeros(1), Matrix.identity(1)),
            ("dual-numbers", dual, Matrix.identity(2)),
            ("null-square", null_sq, Matrix.identity(2)),
            ("null-square-negated", null_sq, neg),
            ("zero-2", Tensor3.zeros(2), Matrix.identity(2))]


def _eval_epsilon(item) -> ItemResult:
    name, mul, alpha = item
    found = brute_force_epsilon_bialgebras(mul, alpha, 1)
    good = sum(1 for b in found if convolution_rb(b).passed)
    return ItemResult(good == len(found), tally=((name, good, len(found)),))


# -- the table ----------------------------------------------------------------

PROPERTIES: tuple[Property, ...] = (
    Property("sec2-assoc-implications", True, _build_assoc, _eval_assoc_implications),
    Property("sec2-prelie-to-lie", True, _build_prelie, _eval_prelie_to_lie),
    Property("sec3-module-theorems", True, _build_postlie, _eval_module_theorems),
    Property("sec3-novikov-bridge", True, _build_novikov, _eval_novikov_bridge),
    Property("sec4-oop-functors", True, _build_oop, _eval_oop_functors),
    Property("sec4-ldend-layer", True, _build_ldend, _eval_ldend_layer),
    Property("search-consistency", True, _build_search, _eval_search_consistency),
    Property("empirical-rb-dendriform", False, _build_rb_weights, _eval_rb_dendriform),
    Property("empirical-oop-prelie-dual", False, _build_oop_dual, _eval_oop_dual),
    Property("epsilon-convolution", True, _build_epsilon, _eval_epsilon),
)


def _eval_indexed(arg):
    prop_index, payload = arg
    with certification_scope():
        return PROPERTIES[prop_index].evaluate(payload)


def run_corpus_certification(trials: int, max_dim: int, seed: int,
                             out_dir: Optional[str] = None,
                             jobs: int = 1) -> tuple[str, bool]:
    """Run the whole suite; returns (summary text, all must-pass passed).
    At most ``jobs`` worker processes run, and never more than there are
    work items."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    items = []
    spans = []
    for idx, prop in enumerate(PROPERTIES):
        payloads = prop.build(trials, max_dim, seed + idx * 1009) if trials > 0 else []
        start = len(items)
        items.extend((idx, p) for p in payloads)
        spans.append((start, len(items)))

    workers = min(jobs, len(items))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_eval_indexed, items, chunksize=1)
    else:
        results = [_eval_indexed(item) for item in items]

    lines = [f"corpus certification: trials={trials} max-dim={max_dim} seed={seed}"]
    all_pass = True
    written: set[str] = set()   # distinct paths: equal stems overwrite one file
    for idx, prop in enumerate(PROPERTIES):
        start, end = spans[idx]
        chunk = results[start:end]
        tried = len(chunk)
        passed = sum(1 for r in chunk if r.ok)
        counters = [ce for r in chunk for ce in r.counterexamples]
        tag = "must-pass" if prop.must_pass else "recorded"
        lines.append(f"PROPERTY {prop.name}: tried={tried} passed={passed} "
                     f"counterexamples={len(counters)} [{tag}]")
        tallies: dict[str, list[int]] = {}
        for r in chunk:
            for key, num, den in r.tally:
                acc = tallies.setdefault(key, [0, 0])
                acc[0] += num
                acc[1] += den
        for key in sorted(tallies):
            num, den = tallies[key]
            lines.append(f"  {key}: {num}/{den}")
        if prop.must_pass and passed != tried:
            all_pass = False
        if out_dir is not None:
            for stem, doc in counters:
                path = os.path.join(out_dir, stem + ".json")
                docs.save_json(path, doc)
                written.add(path)
    if out_dir is not None:
        lines.append(f"counterexample documents written: {len(written)}")
    lines.append("RESULT: PASS" if all_pass else "RESULT: FAIL")
    return "\n".join(lines) + "\n", all_pass
