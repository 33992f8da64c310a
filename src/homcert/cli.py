"""Command-line surface: check documents, derive structures, search for
post-Lie products, and run the corpus certification harness.

Exit codes are a stable contract: 0 all checks passed, 1 axiom or
precondition failure, 2 input/parse error, 3 combinatorial budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import docs
from .errors import (BudgetError, CertificationError, InputError,
                     PreconditionError)
from .exactlin import Matrix, rat
from .homcore import (CertReport, HomAlgebra, _epsilon_delta_rows, check_axioms,
                      check_predicate, check_rota_baxter, convolution_rb,
                      epsilon_prerequisites, yau_twist)
from .hommod import (HomModule, adjoint_postlie_module, bimodule_to_lie_module,
                     check_module_axioms, direct_sum, tensor_product,
                     twist_0k, twist_beta, twist_n0)
from . import functors
from .harness import run_corpus_certification
from .search import postlie_candidate_space, postlie_search

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _fmt_vec(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def render_report(report: CertReport, out=None) -> None:
    out = out or sys.stdout
    for row in report.axioms:
        if row.passed:
            print(f"{_paint('PASS', '32')}  {row.name}", file=out)
        else:
            line = f"{_paint('FAIL', '31')}  {row.name}"
            if row.witness is not None:
                w = row.witness
                line += (f"  witness at {w.indices}: "
                         f"lhs={_fmt_vec(w.lhs)} rhs={_fmt_vec(w.rhs)}")
            print(line, file=out)


def report_to_doc(report: CertReport) -> dict:
    rows = []
    for row in report.axioms:
        entry = {"name": row.name, "passed": row.passed}
        if row.witness is not None:
            entry["witness"] = {"indices": list(row.witness.indices),
                                "lhs": [str(v) for v in row.witness.lhs],
                                "rhs": [str(v) for v in row.witness.rhs]}
        rows.append(entry)
    return {"passed": report.passed, "axioms": rows}


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    rota_baxter = args.predicate == "rota-baxter"
    if len(args.paths) > 1 + rota_baxter:
        raise InputError("check takes one document"
                         + (" and one operator document" if rota_baxter else
                            "; an operator document needs --predicate rota-baxter"))
    if args.weight is not None and not rota_baxter:
        raise InputError("--weight is only used with --predicate rota-baxter")
    doc = docs.load_json(args.paths[0])
    dtype = docs.document_type(doc)
    base_dir = os.path.dirname(os.path.abspath(args.paths[0]))

    if args.predicate:
        name = args.predicate
        if dtype == "bialgebra" and name in ("convolution-rb", "epsilon-prerequisites"):
            b = docs.bialgebra_from_doc(doc)
            report = (convolution_rb(b) if name == "convolution-rb"
                      else epsilon_prerequisites(b))
        elif name == "rota-baxter":
            if len(args.paths) < 2:
                raise InputError("--predicate rota-baxter needs an operator document")
            a = docs.algebra_from_doc(doc)
            r = docs.operator_from_doc(docs.load_json(args.paths[1]))
            report = check_rota_baxter(a, r, rat("0" if args.weight is None else args.weight))
        else:
            a = docs.algebra_from_doc(doc)
            report = check_predicate(a, name)
    elif dtype == "module":
        report = check_module_axioms(docs.module_from_doc(doc, base_dir))
    elif dtype in ("algebra", "bialgebra"):
        report = check_axioms(docs.algebra_from_doc(doc))
        if dtype == "bialgebra":  # the coproduct rows too, never a PASS that ignored delta
            report = CertReport.from_results(
                report.axioms + tuple(_epsilon_delta_rows(docs.bialgebra_from_doc(doc))))
    else:
        raise InputError(f"cannot check a document of type {dtype!r}")

    render_report(report)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# derive

def _provenance(name: str, params: dict, inputs) -> dict:
    return {"functor": name, "params": {k: str(v) for k, v in sorted(params.items())},
            "inputs": list(inputs)}


def _load_algebra(path: str) -> HomAlgebra:
    return docs.algebra_from_doc(docs.load_json(path))


def _load_module(path: str) -> HomModule:
    return docs.module_from_doc(docs.load_json(path),
                                os.path.dirname(os.path.abspath(path)))


def _load_operator(path: str) -> Matrix:
    return docs.operator_from_doc(docs.load_json(path))


def cmd_derive(args) -> int:
    name = args.functor
    paths = args.inputs

    def int_param(raw, default, what):
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise InputError(f"{what} must be an integer, got {raw!r}") from None

    def path(i, what):
        if i >= len(paths):
            raise InputError(f"{name} needs {what} as input {i + 1}")
        return paths[i]

    def out_doc_for_algebra(result, params):
        prov = _provenance(name, params, [p for p in result.provenance[2]])
        return docs.algebra_to_doc(result.output, provenance=prov), result.cert

    if name == "commutator-lie":
        result = functors.commutator_lie(_load_algebra(paths[0]))
        out, cert = out_doc_for_algebra(result, {})
    elif name == "prelie-to-lie":
        result = functors.prelie_to_lie(_load_algebra(paths[0]))
        out, cert = out_doc_for_algebra(result, {})
    elif name == "novikov-to-postlie":
        result = functors.novikov_to_postlie(_load_algebra(paths[0]))
        out, cert = out_doc_for_algebra(result, {})
    elif name == "scale":
        if args.k is None:
            raise InputError("scale needs --k")
        result = functors.scale(_load_algebra(paths[0]), rat(args.k))
        out, cert = out_doc_for_algebra(result, {"k": args.k})
    elif name == "yau-twist":
        a = _load_algebra(paths[0])
        g = _load_operator(path(1, "the twist map (an operator document)"))
        twisted = yau_twist(a, g)
        cert = check_axioms(twisted)
        out = docs.algebra_to_doc(twisted, provenance=_provenance(
            name, {}, [a.digest()]))
    elif name == "rb-dendriform":
        a = _load_algebra(paths[0])
        r = _load_operator(path(1, "the Rota-Baxter operator (an operator document)"))
        result = functors.rb_dendriform(a, r, rat(args.weight))
        out, cert = out_doc_for_algebra(result, {"weight": args.weight})
    elif name == "adjoint-bimodule":
        a = _load_algebra(paths[0])
        module = functors.adjoint_bimodule(a)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(name, {}, [a.digest()]))
    elif name == "adjoint-postlie-module":
        l = _load_algebra(paths[0])
        k = int_param(args.k, 1, "--k")
        module = adjoint_postlie_module(l, k)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {"k": k}, [l.digest()]))
    elif name == "bimodule-to-lie-module":
        m = _load_module(paths[0])
        module = bimodule_to_lie_module(m)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(name, {}, [m.digest()]))
    elif name == "direct-sum-modules":
        m1 = _load_module(paths[0])
        m2 = _load_module(path(1, "a second module document"))
        module = direct_sum(m1, m2)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {}, [m1.digest(), m2.digest()]))
    elif name == "tensor-modules":
        m1 = _load_module(paths[0])
        m2 = _load_module(path(1, "a second module document"))
        k = int_param(args.k, 1, "--k")
        module = tensor_product(m1, m2, k)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {"k": k}, [m1.digest(), m2.digest()]))
    elif name == "twist-n0":
        m = _load_module(paths[0])
        n = int_param(args.n, 1, "--n")
        module = twist_n0(m, n)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {"n": n}, [m.digest()]))
    elif name == "twist-0k":
        m = _load_module(paths[0])
        k = int_param(args.k, 1, "--k")
        _, module = twist_0k(m, k)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {"k": k}, [m.digest()]))
    elif name == "twist-beta":
        m = _load_module(paths[0])
        b = _load_operator(path(1, "the algebra twist b (an operator document)"))
        bm = _load_operator(path(2, "the carrier twist bM (an operator document)"))
        _, module = twist_beta(m, b, bm)
        cert = check_module_axioms(module)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {}, [m.digest()]))
    elif name == "oop-lie-to-prelie":
        m = _load_module(paths[0])
        t = _load_operator(path(1, "the O-operator (an operator document)"))
        result = functors.oop_lie_to_prelie(m.algebra, m, t)
        out, cert = out_doc_for_algebra(result, {})
    elif name == "oop-assoc-to-dendriform":
        m = _load_module(paths[0])
        t = _load_operator(path(1, "the O-operator (an operator document)"))
        result = functors.oop_assoc_to_dendriform(m.algebra, m, t)
        out, cert = out_doc_for_algebra(result, {})
    elif name == "oop-assoc-to-prelie":
        m = _load_module(paths[0])
        t = _load_operator(path(1, "the O-operator (an operator document)"))
        result = functors.oop_assoc_to_prelie(m.algebra, m, t)
        out, cert = out_doc_for_algebra(result, {})
    elif name == "oop-assoc-to-ldendriform":
        m = _load_module(paths[0])
        t = _load_operator(path(1, "the O-operator (an operator document)"))
        result = functors.oop_assoc_to_ldendriform(m.algebra, m, t)
        out, cert = out_doc_for_algebra(result, {})
    elif name == "oop-prelie-to-dendriform":
        m = _load_module(paths[0])
        t = _load_operator(path(1, "the O-operator (an operator document)"))
        dual = functors.oop_prelie_to_dendriform(m.algebra, m, t)
        cert = dual.dendriform.cert.merged_with(
            dual.l_dendriform.cert, "dendriform:", "l-dendriform:")
        # ambiguous target system: succeed when either candidate certifies
        cert = CertReport(bool(dual.passing_systems), cert.axioms)
        out = docs.algebra_to_doc(dual.dendriform.output, provenance=_provenance(
            name, {"passing": ",".join(dual.passing_systems) or "none"},
            dual.dendriform.provenance[2]))
    elif name == "ldend-to-prelie":
        result = functors.ldend_to_prelie(_load_algebra(paths[0]), args.mode)
        out, cert = out_doc_for_algebra(result, {"mode": args.mode})
    elif name == "ldend-brackets":
        brackets = functors.ldend_brackets(_load_algebra(paths[0]))
        cert = brackets.horizontal.cert.merged_with(
            brackets.vertical.cert, "horizontal:", "vertical:")
        from .homcore import AxiomResult
        cert = CertReport.from_results(
            list(cert.axioms) + [AxiomResult("brackets-equal", brackets.brackets_equal)])
        out = docs.algebra_to_doc(brackets.horizontal.output, provenance=_provenance(
            name, {}, brackets.horizontal.provenance[2]))
    elif name == "ldend-transpose":
        result = functors.ldend_transpose(_load_algebra(paths[0]))
        out, cert = out_doc_for_algebra(result, {})
    elif name == "ldend-semidirect":
        m = _load_module(paths[0])
        result = functors.ldend_semidirect(m.algebra, m)
        out, cert = out_doc_for_algebra(result, {})
    elif name == "prelie-module-split":
        mode = args.mode or "horizontal"
        algebra, module, cert = functors.prelie_module_split(_load_algebra(paths[0]), mode)
        out = docs.module_to_doc(module, provenance=_provenance(
            name, {"mode": mode}, [algebra.digest()]))
    else:
        raise InputError(f"unknown functor {name!r}")

    if args.out:
        docs.save_json(args.out, out)
        docs.save_json(args.out + ".cert.json", report_to_doc(cert))
    render_report(cert)
    return EXIT_PASS if cert.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# search-postlie

def cmd_search_postlie(args) -> int:
    lie = _load_algebra(args.path)
    space = postlie_candidate_space(lie)
    survivors = postlie_search(lie, args.bound)
    bound = args.bound
    tested = (2 * bound + 1) ** len(space.basis)
    summary = {
        "schema_version": docs.SCHEMA_VERSION,
        "input_digest": lie.digest(),
        "bound": bound,
        "ambient_dim": space.ambient_dim,
        "linear_rank": space.rank,
        "nullspace_dim": len(space.basis),
        "candidates_tested": tested,
        "survivors": len(survivors),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for idx, result in enumerate(survivors):
            prov = {"functor": "search-postlie",
                    "params": {"bound": str(bound),
                               "coeffs": ",".join(map(str, result.provenance[1][1][1]))},
                    "inputs": [lie.digest()]}
            docs.save_json(os.path.join(args.out, f"survivor_{idx:04d}.json"),
                           docs.algebra_to_doc(result.output, provenance=prov))
        docs.save_json(os.path.join(args.out, "summary.json"), summary)
    print(f"nullspace dimension: {summary['nullspace_dim']} "
          f"(rank {summary['linear_rank']} of {summary['ambient_dim']})")
    print(f"candidates tested: {tested}")
    print(f"survivors: {len(survivors)}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# certify-corpus

def cmd_certify_corpus(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    summary, all_pass = run_corpus_certification(
        args.trials, args.max_dim, args.seed, args.out, args.jobs)
    sys.stdout.write(summary)
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcert",
        description="Exact certification of twisted algebra structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a document against its axioms")
    p.add_argument("paths", nargs="+",
                   help="document to check (plus an operator document for "
                        "--predicate rota-baxter)")
    p.add_argument("--predicate", help="auxiliary predicate: multiplicative, "
                   "left-commutative, lie-admissible, rota-baxter, "
                   "epsilon-prerequisites, convolution-rb")
    p.add_argument("--weight", help="Rota-Baxter weight (rational, default 0)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="run a construction and certify its output")
    p.add_argument("functor")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="output document path (a .cert.json sibling "
                   "is written next to it)")
    p.add_argument("--k", help="integer power parameter (rational for scale)")
    p.add_argument("--n", help="integer power parameter")
    p.add_argument("--weight", default="0", help="Rota-Baxter weight")
    p.add_argument("--mode", choices=("horizontal", "vertical"))
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("search-postlie",
                       help="search for post-Lie products on a Hom-Lie algebra")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=1,
                   help="integer box bound for kernel combinations")
    p.add_argument("--out", help="directory for survivor documents and summary")
    p.set_defaults(fn=cmd_search_postlie)

    p = sub.add_parser("certify-corpus", help="run the theorem suite on "
                       "generated corpora")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for counterexample documents")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (summaries are identical at any level)")
    p.set_defaults(fn=cmd_certify_corpus)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: in-process callers run main() many times
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionError, CertificationError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None:
            render_report(report, out=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
