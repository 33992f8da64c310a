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
from dataclasses import dataclass
from typing import Callable

from . import docs
from .errors import BudgetError, CertificationError, InputError, PreconditionError
from .exactlin import Matrix, rat, rat_str
from .homcore import (PREDICATES, CertReport, _digest, _epsilon_delta_rows,
                      certification_scope, check_axioms, check_predicate, check_rota_baxter,
                      convolution_rb, epsilon_prerequisites, yau_twist)
from .hommod import (HomModule, adjoint_postlie_module, bimodule_to_lie_module,
                     check_module_axioms, direct_sum, tensor_product,
                     twist_0k, twist_beta, twist_n0)
from . import functors
from .functors import FunctorResult
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
    return "(" + ", ".join(map(rat_str, values)) + ")"


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
                                "lhs": list(map(rat_str, row.witness.lhs)),
                                "rhs": list(map(rat_str, row.witness.rhs))}
        rows.append(entry)
    return {"passed": report.passed, "axioms": rows}


# ---------------------------------------------------------------------------
# the tables: each functor and predicate declares the documents it reads and
# the flags it takes, so an input or flag it would ignore is an input error

@dataclass(frozen=True)
class Entry:
    """The kinds of the documents read, in argument order; each flag taken,
    as ``(parser, default)``, a default of None making it required; the
    function, called with the documents and the parsed flags as keywords;
    and what it returns: an "algebra" or "module", certified by the caller,
    or a "report", an object with ``output`` and ``cert`` (for a predicate,
    a CertReport)."""

    inputs: tuple
    flags: dict
    run: Callable
    returns: str = "report"


_K, _MODE, _WEIGHT = {"k": (int, 1)}, {"mode": (str, "horizontal")}, {"weight": (rat, 0)}
_ALG, _ALG_OP = ("algebra",), ("algebra", "operator")
_MOD, _MOD2, _MOD_OP = ("module",), ("module", "module"), ("module", "operator")

# every flag of derive and of check, with its help text
DERIVE_FLAGS = {"k": "integer power parameter (rational for scale)",
                "n": "integer power parameter",
                "weight": "Rota-Baxter weight (rational, default 0)",
                "mode": "horizontal (the default) or vertical"}
CHECK_FLAGS = {"weight": DERIVE_FLAGS["weight"]}


# The lambdas look their function up when called, so a function replaced on
# its module after import (perfbench's tracer wraps them) is the one run.
FUNCTORS = {
    "commutator-lie": Entry(_ALG, {}, lambda a: functors.commutator_lie(a)),
    "prelie-to-lie": Entry(_ALG, {}, lambda a: functors.prelie_to_lie(a)),
    "novikov-to-postlie": Entry(_ALG, {}, lambda a: functors.novikov_to_postlie(a)),
    "scale": Entry(_ALG, {"k": (rat, None)}, lambda a, k: functors.scale(a, k)),
    "yau-twist": Entry(_ALG_OP, {}, lambda a, g: yau_twist(a, g), "algebra"),
    "rb-dendriform": Entry(_ALG_OP, _WEIGHT, lambda a, r, weight: functors.rb_dendriform(
        a, r, weight)),
    "adjoint-bimodule": Entry(_ALG, {}, lambda a: functors.adjoint_bimodule(a), "module"),
    "adjoint-postlie-module": Entry(_ALG, _K, lambda a, k: adjoint_postlie_module(a, k), "module"),
    "bimodule-to-lie-module": Entry(_MOD, {}, lambda m: bimodule_to_lie_module(m), "module"),
    "direct-sum-modules": Entry(_MOD2, {}, lambda m1, m2: direct_sum(m1, m2), "module"),
    "tensor-modules": Entry(_MOD2, _K, lambda m1, m2, k: tensor_product(m1, m2, k), "module"),
    "twist-n0": Entry(_MOD, {"n": (int, 1)}, lambda m, n: twist_n0(m, n), "module"),
    "twist-0k": Entry(_MOD, _K, lambda m, k: twist_0k(m, k)[1], "module"),
    "twist-beta": Entry(("module", "operator", "operator"), {},
                        lambda m, b, bm: twist_beta(m, b, bm)[1], "module"),
    "oop-lie-to-prelie": Entry(_MOD_OP, {}, lambda m, t: functors.oop_lie_to_prelie(m, t)),
    "oop-assoc-to-dendriform": Entry(_MOD_OP, {}, lambda m, t: functors.oop_assoc_to_dendriform(m, t)),
    "oop-assoc-to-prelie": Entry(_MOD_OP, {}, lambda m, t: functors.oop_assoc_to_prelie(m, t)),
    "oop-assoc-to-ldendriform": Entry(_MOD_OP, {}, lambda m, t: functors.oop_assoc_to_ldendriform(m, t)),
    "oop-prelie-to-dendriform": Entry(_MOD_OP, {}, lambda m, t: functors.oop_prelie_to_dendriform(m, t)),
    "ldend-to-prelie": Entry(_ALG, _MODE, lambda a, mode: functors.ldend_to_prelie(a, mode)),
    "ldend-brackets": Entry(_ALG, {}, lambda a: functors.ldend_brackets(a)),
    "ldend-transpose": Entry(_ALG, {}, lambda a: functors.ldend_transpose(a)),
    "ldend-semidirect": Entry(_MOD, {}, lambda m: functors.ldend_semidirect(m)),
    "prelie-module-split": Entry(_ALG, _MODE, lambda a, mode: FunctorResult(
        *functors.prelie_module_split(a, mode)[1:])),
}

CHECKS = {
    **{name: Entry(_ALG, {}, lambda a, name=name: check_predicate(a, name))
       for name in PREDICATES},
    "rota-baxter": Entry(_ALG_OP, _WEIGHT, lambda a, r, weight: check_rota_baxter(a, r, weight)),
    "epsilon-prerequisites": Entry(("bialgebra",), {}, lambda b: epsilon_prerequisites(b)),
    "convolution-rb": Entry(("bialgebra",), {}, lambda b: convolution_rb(b)),
}


def _check_document(loaded) -> CertReport:
    """``check`` without --predicate: the axioms of the document's type."""
    doc, base_dir = loaded
    dtype = docs.document_type(doc)
    if dtype == "module":
        return check_module_axioms(docs.module_from_doc(doc, base_dir))
    if dtype == "operator":
        raise InputError("cannot check a document of type 'operator'")
    algebra = docs.algebra_from_doc(doc)
    report = check_axioms(algebra)
    if dtype == "bialgebra":  # the coproduct rows too, never a PASS that ignored delta
        report = CertReport.from_results(
            report.axioms + tuple(_epsilon_delta_rows(docs.bialgebra_over(algebra, doc))))
    return report


_AXIOMS = Entry(("any",), {}, _check_document)

# one loader per document kind, given the parsed JSON and its directory
_FROM_DOC = {"algebra": lambda doc, _: docs.algebra_from_doc(doc),
             "bialgebra": lambda doc, _: docs.bialgebra_from_doc(doc),
             "module": lambda doc, base_dir: docs.module_from_doc(doc, base_dir),
             "operator": lambda doc, _: docs.operator_from_doc(doc),
             "any": lambda doc, base_dir: (doc, base_dir)}


def _lookup(table: dict, name: str, what: str) -> Entry:
    if name not in table:
        raise InputError(f"unknown {what} {name!r}; available: {', '.join(table)}")
    return table[name]


def _bind(name: str, entry: Entry, paths: list, args, flags: dict) -> tuple[list, dict]:
    """The entry's documents, loaded, and its flags, parsed."""
    if len(paths) != len(entry.inputs):
        raise InputError(f"{name} needs {len(entry.inputs)} input(s): "
                         + ", ".join(f"{kind} document" for kind in entry.inputs)
                         + f"; got {len(paths)}")
    for flag in flags:
        if getattr(args, flag) is not None and flag not in entry.flags:
            raise InputError(f"{name} takes no --{flag}")
    params = {}
    for flag, (parse, default) in entry.flags.items():
        raw = getattr(args, flag)
        if raw is None and default is None:
            raise InputError(f"{name} needs --{flag}")
        try:
            params[flag] = default if raw is None else parse(raw)
        except ValueError as exc:  # InputError included
            raise InputError(f"--{flag}: {exc}") from None
    return [_FROM_DOC[kind](docs.load_json(path), os.path.dirname(os.path.abspath(path)))
            for kind, path in zip(entry.inputs, paths)], params


# what an entry's function returns -> (output structure, its certification)
_CERTIFY = {"algebra": lambda a: (a, check_axioms(a)),
            "module": lambda m: (m, check_module_axioms(m)),
            "report": lambda result: (result.output, result.cert)}


def _input_digest(x) -> str:
    if isinstance(x, Matrix):  # an operator document: the digest of its canonical data
        return _digest(("operator", x.rows, x.cols, tuple(tuple(map(rat_str, r)) for r in x.data)))
    return x.digest()


# ---------------------------------------------------------------------------
# check and derive

def cmd_check(args) -> int:
    name = args.predicate
    entry = _AXIOMS if name is None else _lookup(CHECKS, name, "predicate")
    inputs, params = _bind(name or "check", entry, args.paths, args, CHECK_FLAGS)
    report = entry.run(*inputs, **params)
    render_report(report)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_derive(args) -> int:
    """Run one FUNCTORS entry.  The output document's provenance names the
    functor, every parsed flag as a canonical string (defaults included) and
    the digest of every input document, in argument order."""
    name = args.functor
    entry = _lookup(FUNCTORS, name, "functor")
    inputs, params = _bind(name, entry, args.inputs, args, DERIVE_FLAGS)
    output, cert = _CERTIFY[entry.returns](entry.run(*inputs, **params))
    if args.out:
        to_doc = docs.module_to_doc if isinstance(output, HomModule) else docs.algebra_to_doc
        doc = to_doc(output)
        doc["provenance"] = {"functor": name,
                             "params": {k: str(v) for k, v in sorted(params.items())},
                             "inputs": [_input_digest(x) for x in inputs]}
        docs.save_json(args.out, doc)
        docs.save_json(args.out + ".cert.json", report_to_doc(cert))
    render_report(cert)
    return EXIT_PASS if cert.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# search-postlie

def cmd_search_postlie(args) -> int:
    lie = docs.algebra_from_doc(docs.load_json(args.path))
    with certification_scope():  # the summary and the search share one candidate space
        space = postlie_candidate_space(lie)
        survivors = postlie_search(lie, args.bound)
    bound, digest = args.bound, lie.digest()
    tested = (2 * bound + 1) ** len(space.basis)
    summary = {
        "schema_version": docs.SCHEMA_VERSION,
        "input_digest": digest,
        "bound": bound,
        "ambient_dim": space.ambient_dim,
        "linear_rank": space.rank,
        "nullspace_dim": len(space.basis),
        "candidates_tested": tested,
        "survivors": len(survivors),
    }
    if args.out:
        docs.make_dir(args.out)
        for idx, result in enumerate(survivors):
            doc = docs.algebra_to_doc(result.output)
            doc["provenance"] = {"functor": "search-postlie",
                                 "params": {"bound": str(bound),
                                            "coeffs": ",".join(map(str, result.coeffs))},
                                 "inputs": [digest]}
            docs.save_json(os.path.join(args.out, f"survivor_{idx:04d}.json"), doc)
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
        docs.make_dir(args.out)
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

    raw = argparse.RawTextHelpFormatter  # never wraps a name at one of its hyphens
    p = sub.add_parser("check", help="certify a document against its axioms", formatter_class=raw)
    p.add_argument("paths", nargs="*", help="document to check (plus an operator document\n"
                                            "for --predicate rota-baxter)")
    p.add_argument("--predicate", help="auxiliary predicate, one of:\n" + "\n".join(CHECKS))
    for flag, text in CHECK_FLAGS.items():
        p.add_argument(f"--{flag}", help=text)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="run a construction and certify its output",
                       formatter_class=raw)
    p.add_argument("functor", help="one of:\n" + "\n".join(FUNCTORS))
    p.add_argument("inputs", nargs="*", help="the functor's input documents, in order")
    p.add_argument("--out", help="output document path (a .cert.json sibling\n"
                   "is written next to it)")
    for flag, text in DERIVE_FLAGS.items():
        p.add_argument(f"--{flag}", help=text)
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
