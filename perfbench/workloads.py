"""The benchmark's workloads.

Each is a closed loop driven from this process: the next call starts when
the previous one has returned.  A workload builds its inputs from the seed in
``setup`` (the program only ever sees the generated inputs or arguments),
then ``run_pass`` makes one pass over them and checks every output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import re
import shutil
import sys
import time
from fractions import Fraction

import oracle
from spans import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "homcert")


def load_homcert():
    """Import homcert from this checkout's ``src`` through an absolute path,
    and refuse any other copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import homcert
    for layer in LAYERS:
        importlib.import_module(f"homcert.{layer}")
    found = os.path.dirname(os.path.abspath(homcert.__file__))
    if found != PACKAGE_DIR:
        raise ImportError(f"homcert imported from {found}, expected {PACKAGE_DIR}")
    return homcert


@dataclasses.dataclass
class PassResult:
    start: float           # perf_counter readings at the start and end of the pass
    end: float
    ops: int
    failed: int
    op_spans: list         # (start, end) per op in input order; None when the pass is the op
    notes: dict = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.hc = None

    def setup(self):
        self.hc = load_homcert()

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def install_trace(self, tracer):
        tracer.install_layers(self.hc, PACKAGE_DIR)

    def layer_metrics(self, tracer, passes: list[PassResult]) -> dict:
        """Per-layer numbers this workload observes beyond the tracer's."""
        return {}


# ---------------------------------------------------------------------------
# corpus: the certify-corpus suite

TRIALS = 20
MAX_DIM = 3

PROPERTY_LINE = re.compile(
    r"^PROPERTY (\S+): tried=(\d+) passed=(\d+) counterexamples=\d+ "
    r"\[(must-pass|recorded)\]$", re.M)
WRITTEN_LINE = re.compile(r"^counterexample documents written: (\d+)$", re.M)


def check_summary(text: str) -> tuple[int, int, int]:
    """(ops, failed ops, counterexample documents reported) of a summary.
    A must-pass item that did not pass is a failed op; a summary without a
    PASS verdict fails every op."""
    rows = PROPERTY_LINE.findall(text)
    ops = sum(int(tried) for _, tried, _, _ in rows)
    failed = sum(int(tried) - int(passed) for _, tried, passed, tag in rows
                 if tag == "must-pass")
    if not rows or not text.endswith("RESULT: PASS\n"):
        failed = max(ops, 1)
    written = WRITTEN_LINE.search(text)
    return max(ops, 1), failed, int(written.group(1)) if written else -1


class ItemClock:
    """Times every harness work item in a traced run by wrapping the
    ``harness.PROPERTIES`` entries through the tracer, which also restores
    them."""

    def __init__(self, harness, tracer):
        self.properties = harness.PROPERTIES
        self.records: list[tuple[int, float, float]] = []
        wrapped = []
        for idx, prop in enumerate(self.properties):
            evaluate = tracer.span(f"harness.{prop.name}", prop.evaluate)
            wrapped.append(dataclasses.replace(
                prop, build=tracer.span(f"harness.{prop.name}.build", prop.build),
                evaluate=self._timed(idx, evaluate)))
        tracer.patch(harness, "PROPERTIES", tuple(wrapped))

    def _timed(self, idx, evaluate):
        clock, records = time.perf_counter, self.records

        def timed(payload):
            start = clock()
            try:
                return evaluate(payload)
            finally:
                records.append((idx, start, clock()))

        return timed

    def take(self) -> list[tuple[int, float, float]]:
        """The (property index, start, end) records since the last take."""
        records = list(self.records)
        self.records.clear()
        return records


class Corpus(Workload):
    """``run_corpus_certification(TRIALS, MAX_DIM, seed, out_dir)`` with an
    output directory, as users run ``certify-corpus --out``.  One op is one
    harness work item; the latency a user sees is that of the whole run, so
    a pass is the one latency sample.  Item times come from the traced run."""

    name = "corpus"

    def setup(self):
        super().setup()
        self.clock = None
        self.reference = None

    def run_pass(self) -> PassResult:
        out_dir = os.path.join(self.work_dir, "counterexamples")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        start = time.perf_counter()
        summary, _ = self.hc.harness.run_corpus_certification(
            TRIALS, MAX_DIM, self.seed, out_dir)
        end = time.perf_counter()
        on_disk = sum(1 for f in os.listdir(out_dir) if f.endswith(".json"))
        ops, failed, reported = check_summary(summary)
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            failed = ops
        return PassResult(start, end, ops, failed, None,
                          {"items": self.clock.take() if self.clock else [],
                           "ce_docs_reported": reported, "ce_docs_on_disk": on_disk})

    def install_trace(self, tracer):
        super().install_trace(tracer)
        self.clock = ItemClock(self.hc.harness, tracer)

    def layer_metrics(self, tracer, passes):
        return harness_metrics(self.clock.properties, tracer, passes)


def harness_metrics(properties, tracer, passes) -> dict:
    per_pass = len(passes)
    agg = tracer.aggregate()
    out = {}
    slowest = 0.0
    for idx, prop in enumerate(properties):
        times = [end - start for p in passes for i, start, end in p.notes["items"]
                 if i == idx]
        build = agg.get(f"harness.{prop.name}.build", {}).get("total_s", 0.0)
        out[f"harness.{prop.name}.wall_s"] = (sum(times) + build) / per_pass
        out[f"harness.{prop.name}.items"] = len(times) / per_pass
        out[f"harness.{prop.name}.max_item_s"] = max(times, default=0.0)
        slowest = max(slowest, out[f"harness.{prop.name}.max_item_s"])
    walls = sorted(p.wall_s for p in passes)
    out["harness.critical_path_share"] = slowest / walls[len(walls) // 2]
    out["harness.ce_docs_reported"] = passes[-1].notes["ce_docs_reported"]
    out["harness.ce_docs_on_disk"] = passes[-1].notes["ce_docs_on_disk"]
    return out


# ---------------------------------------------------------------------------
# search: the candidate-enumeration layer on its own

# Coproduct counts of the six epsilon-convolution inputs in the box
# [-1, 1]^(n^3), recorded when the benchmark was written.  The box is over
# raw integer entries, so these do not depend on the implementation.
EPSILON_COUNTS = {"unit-1": 1, "zero-1": 3, "dual-numbers": 3, "null-square": 7,
                  "null-square-negated": 7, "zero-2": 105}


def epsilon_items(hc):
    """The six (name, product, twist) inputs of the epsilon-convolution
    property, built from the public catalog."""
    Matrix, Tensor3 = hc.exactlin.Matrix, hc.exactlin.Tensor3
    catalog = {e.name: e.algebra for e in hc.search.CATALOG["hom-associative"]}
    null_sq = catalog["null-square"].op("mul")
    return [("unit-1", hc.search.sc_tensor(1, {(0, 0): {0: 1}}), Matrix.identity(1)),
            ("zero-1", Tensor3.zeros(1), Matrix.identity(1)),
            ("dual-numbers", catalog["truncated-poly-2"].op("mul"), Matrix.identity(2)),
            ("null-square", null_sq, Matrix.identity(2)),
            ("null-square-negated", null_sq, Matrix([[-1, 0], [0, -1]])),
            ("zero-2", Tensor3.zeros(2), Matrix.identity(2))]


def _rows(m) -> tuple:
    return tuple(tuple(row) for row in m.data)


# The 6561-point post-Lie boxes (zero bracket at dim 2, kernel dimension 8)
# cost 0.2-1.7 s each depending on the twist, so a seeded draw of a dozen
# moves a pass by a third.  They come from this pinned corpus instead; the
# seed draws every cheaper call and the order.
PINNED_LIE_CORPUS = ("hom-lie", 40, 2, 7)
PINNED_OOP_SEED = 7

GENERATORS = ("hand-catalog", "yau-twist-catalog", "zero-product")
RB_GENERATORS = ("yau-twist-catalog", "zero-product")


def _abelian_dim2(a) -> bool:
    return a.dim == 2 and a.op("bracket").is_zero()


class Search(Workload):
    """One op is one search call, so the op count is fixed by the inputs and
    not by how many candidates the program visits."""

    name = "search"
    pinned_boxes = 6      # abelian dim-2 Hom-Lie algebras searched at bound 1
    seeded_lie = 24       # seeded dim <= 2 Hom-Lie algebras
    rb_algebras = 450     # seeded dim-2 associative algebras
    oop_algebras = 20     # pinned dim-2 algebras per O-operator kind

    def setup(self):
        super().setup()
        hc, seed = self.hc, self.seed
        corpus = hc.search.corpus
        pinned, seen = [], set()
        for lie in corpus(*PINNED_LIE_CORPUS):
            if _abelian_dim2(lie) and lie.digest() not in seen:
                seen.add(lie.digest())
                pinned.append(lie)
        calls = [("postlie", lie, 1) for lie in pinned[:self.pinned_boxes]]
        # seeded: abelian dim-2 algebras at bound 0 (one candidate each),
        # the rest at bound 1 (81 or 3 box points); dim-3 algebras at bound 0
        calls += [("postlie", lie, 0 if _abelian_dim2(lie) else 1)
                  for lie in corpus("hom-lie", self.seeded_lie, 2, seed)]
        calls += [("postlie", lie, 0) for lie in corpus("hom-lie", 12, 3, seed + 1)
                  if lie.dim == 3]
        calls += [("epsilon",) + item for item in epsilon_items(hc)]
        # Rota-Baxter and O-operator boxes on dim-2 algebras (81 points).
        # Dim-1 boxes have 3 points and take 0.1 ms, and an O-operator box
        # costs about three times a Rota-Baxter one: mixed in equal numbers,
        # the median call sat on the edge between two clusters of cost.
        # Each generator gives its own cluster of Rota-Baxter cost (middle
        # half about 3.5-4.4 ms for hand-catalog, 3.9-7.5 for
        # yau-twist-catalog, 8-11 for zero-product).  With all three in equal
        # shares the median call sat where they meet and moved by 12%
        # between seeds; drawn from ``corpus()``, whose mix shifts with the
        # seed, by 25%.  So the Rota-Baxter inputs alternate between the two
        # generators whose clusters overlap, every instance with its own
        # seeded spec, and each generator takes weights 0, -1 and 1 in turn.
        rng = random.Random(seed)
        calls += [("rb", a, (0, -1, 1)[i // 2 % 3]) for i, a in
                  enumerate(self._draw("hom-associative", self.rb_algebras, rng,
                                       RB_GENERATORS))]
        # The O-operator boxes cost 14-31 ms, above nearly every Rota-Baxter
        # box, so the p95 call falls among them; drawn from the seed, their
        # costs moved that call by 19% between seeds.  They are pinned.
        pinned_rng = random.Random(PINNED_OOP_SEED)
        for kind in ("hom-associative", "hom-prelie", "hom-lie"):
            calls += [("oop", a, hc.functors.adjoint_bimodule(a))
                      for a in self._draw(kind, self.oop_algebras, pinned_rng, GENERATORS)]
        random.Random(seed).shuffle(calls)
        self.calls = calls
        self.expected = None

    def _draw(self, kind: str, count: int, rng, generators: tuple) -> list:
        """``count`` dim-2 instances of ``kind``, the generators taking turns."""
        search = self.hc.search
        return [search.random_instance(search.RandomInstanceSpec(
                    kind, 2, rng.randrange(2 ** 31), generators[i % len(generators)]))
                for i in range(count)]

    def _call(self, call):
        search = self.hc.search
        kind = call[0]
        if kind == "postlie":
            return search.postlie_search(call[1], call[2])
        if kind == "epsilon":
            return search.brute_force_epsilon_bialgebras(call[2], call[3], 1)
        if kind == "rb":
            return search.brute_force_rb_search(call[1], call[2], 1)
        return search.brute_force_oop_search(call[1], call[2], 1)

    @staticmethod
    def _fingerprint(call, result) -> tuple:
        kind = call[0]
        if kind == "postlie":
            return tuple(r.output.op("mul") for r in result)
        if kind == "epsilon":
            return tuple(b.delta for b in result)
        return tuple(_rows(m) for m in result)

    def _verify(self, call, result) -> bool:
        """Every returned structure re-certifies; the brute-force searches
        also find exactly what an independent walk of the same box finds."""
        hc = self.hc
        kind = call[0]
        if kind == "postlie":
            lie = call[1]
            return all(r.output.kind == "hom-postlie"
                       and r.output.op("bracket") == lie.op("bracket")
                       and hc.homcore.check_axioms(r.output).passed for r in result)
        if kind == "epsilon":
            return (len(result) == EPSILON_COUNTS[call[1]]
                    and all(hc.homcore.epsilon_prerequisites(b).passed for b in result))
        if kind == "rb":
            a, weight = call[1], call[2]
            return (all(hc.homcore.check_rota_baxter(a, r, weight).passed for r in result)
                    and [_rows(r) for r in result]
                    == oracle.rota_baxter_box(a.op("mul"), a.alpha, weight, 1))
        module = call[2]
        return (all(hc.hommod.check_oop(t, module).passed for t in result)
                and [_rows(t) for t in result] == oracle.o_operator_box(module, 1))

    def run_pass(self) -> PassResult:
        clock = time.perf_counter
        results, spans = [], []
        start = clock()
        for call in self.calls:
            t0 = clock()
            try:
                result = self._call(call)
            except Exception as exc:  # counted as a failed op, never fatal
                result = exc
            spans.append((t0, clock()))
            results.append(result)
        end = clock()
        prints = [None if isinstance(result, Exception) else self._fingerprint(call, result)
                  for call, result in zip(self.calls, results)]
        if self.expected is None:
            self.expected = [fp if fp is not None and self._verify(call, result) else None
                             for call, result, fp in zip(self.calls, results, prints)]
        failed = sum(1 for fp, want in zip(prints, self.expected)
                     if fp is None or want is None or fp != want)
        return PassResult(start, end, len(self.calls), failed, spans)


# ---------------------------------------------------------------------------
# check-docs: in-process CLI calls on JSON documents

ALGEBRA_KINDS = ("hom-associative", "hom-lie", "hom-prelie", "hom-novikov",
                 "hom-dendriform", "hom-postlie", "hom-l-dendriform")


@dataclasses.dataclass
class Case:
    argv: list
    expected: int          # exit code known from how the inputs were built
    out_path: str = None   # derive output that must exist afterwards
    out_kind: str = None


class CheckDocs(Workload):
    """``cli.main([...])`` in-process on generated documents.  Expected exit
    codes come from how each document was built, never from the checker."""

    name = "check-docs"
    docs_per_kind = 100   # valid documents per algebra kind
    cases_per_kind = 40   # documents per kind in each of the other groups

    def setup(self):
        super().setup()
        self.doc_dir = os.path.join(self.work_dir, "docs")
        self.out_dir = os.path.join(self.work_dir, "derived")
        os.makedirs(self.doc_dir)
        os.makedirs(self.out_dir)
        self.cases = self._build_cases()
        random.Random(self.seed).shuffle(self.cases)
        self.sink = io.StringIO()

    def _write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.doc_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.hc.docs.dumps(doc))
        return path

    def _build_cases(self) -> list[Case]:
        hc, seed = self.hc, self.seed
        to_doc = hc.docs.algebra_to_doc
        cases = []
        by_kind = {}
        # valid documents of every kind at dims 1-4: exit 0
        for offset, kind in enumerate(ALGEBRA_KINDS):
            algebras = hc.search.corpus(kind, self.docs_per_kind, 4, seed + 101 * offset)
            by_kind[kind] = [(self._write(f"{kind}-{i}", to_doc(a)), a)
                             for i, a in enumerate(algebras)]
            cases += [Case(["check", path], 0) for path, _ in by_kind[kind]]
        # a nonzero diagonal bracket entry breaks skew-symmetry: exit 1
        rng = random.Random(seed)
        for kind in ("hom-lie", "hom-postlie"):
            for i, (_, a) in enumerate(by_kind[kind][:self.cases_per_kind]):
                doc = to_doc(a)
                d = rng.randrange(a.dim)
                doc["ops"]["bracket"][d][d][rng.randrange(a.dim)] = "1"
                cases.append(Case(["check", self._write(f"{kind}-broken-{i}", doc)], 1))
        # e0*e0 = e1, e1*e0 = e0 with identity twist is neither associative
        # ((e0 e0) e0 = e0, e0 (e0 e0) = 0) nor left-symmetric: exit 1
        for kind in ("hom-associative", "hom-prelie"):
            for n in (2, 3, 4):
                doc = _doc(hc.docs.SCHEMA_VERSION, kind, n,
                           {"mul": {(0, 0, 1): 1, (1, 0, 0): 1}}, _identity(n))
                cases.append(Case(["check", self._write(f"{kind}-nonassoc-{n}", doc)], 1))
        # predicates
        assoc = by_kind["hom-associative"]
        nonzero = [(p, a) for p, a in assoc if not a.op("mul").is_zero()]
        for path, a in assoc[:self.cases_per_kind]:
            # Hom-associative algebras are Hom-Lie-admissible
            cases.append(Case(["check", "--predicate", "lie-admissible", path], 0))
        zero = [(p, a) for kind in ALGEBRA_KINDS for p, a in by_kind[kind]
                if all(t.is_zero() for t in a.ops.values())]
        for path, a in zero[:self.cases_per_kind]:
            # zero products are preserved by any twist
            cases.append(Case(["check", "--predicate", "multiplicative", path], 0))
        for i, (_, a) in enumerate(nonzero[:self.cases_per_kind]):
            # twist 2I: alpha(xy) = 2xy but alpha(x)alpha(y) = 4xy, and xy != 0
            doc = to_doc(a)
            doc["alpha"] = _identity(a.dim, "2")
            path = self._write(f"doubled-{i}", doc)
            cases.append(Case(["check", "--predicate", "multiplicative", path], 1))
        # Rota-Baxter operators on algebras with a nonzero product:
        # 0 (any weight) and -I (weight 1) pass, I at weight 0 gives 2xy != xy
        for i, (path, a) in enumerate(nonzero[:self.cases_per_kind // 4]):
            n = a.dim
            for tag, entries, weight, code in (("zero", _identity(n, "0"), "0", 0),
                                               ("minus-id", _identity(n, "-1"), "1", 0),
                                               ("id", _identity(n), "0", 1)):
                op = self._write(f"rb-{tag}-{i}", {
                    "schema_version": hc.docs.SCHEMA_VERSION, "kind": "operator",
                    "rows": n, "cols": n, "entries": entries})
                cases.append(Case(["check", "--predicate", "rota-baxter", path, op,
                                   "--weight", weight], code))
        # adjoint modules of certified algebras are modules: exit 0
        for kind in ("hom-associative", "hom-prelie", "hom-lie", "hom-l-dendriform"):
            for i, (_, a) in enumerate(by_kind[kind][:self.cases_per_kind // 4]):
                module = hc.functors.adjoint_bimodule(a)
                path = self._write(f"{kind}-adjoint-{i}", hc.docs.module_to_doc(module))
                cases.append(Case(["check", path], 0))
        for i, entry in enumerate(hc.search.CATALOG["hom-postlie"]):
            a = entry.algebra
            if a.alpha == hc.exactlin.Matrix.identity(a.dim):
                # identity twist: multiplicative, so the adjoint module exists
                module = hc.hommod.adjoint_postlie_module(a, 1)
                path = self._write(f"postlie-module-{i}", hc.docs.module_to_doc(module))
                cases.append(Case(["check", path], 0))
        # a few derive functors writing --out: theorems, so exit 0
        for functor, kind, out_kind in (
                ("commutator-lie", "hom-associative", "hom-lie"),
                ("prelie-to-lie", "hom-prelie", "hom-lie"),
                ("adjoint-bimodule", "hom-associative", "assoc-bimodule"),
                ("ldend-transpose", "hom-l-dendriform", "hom-l-dendriform")):
            for i, (path, _) in enumerate(by_kind[kind][:self.cases_per_kind // 8]):
                out = os.path.join(self.out_dir, f"{functor}-{i}.json")
                cases.append(Case(["derive", functor, path, "--out", out], 0, out, out_kind))
        return cases

    def run_pass(self) -> PassResult:
        main = self.hc.cli
        clock = time.perf_counter
        sink = self.sink
        spans = []
        failed = 0
        start = clock()
        for case in self.cases:
            if case.out_path:
                for path in (case.out_path, case.out_path + ".cert.json"):
                    if os.path.exists(path):
                        os.remove(path)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = clock()
                try:
                    code = main.main(case.argv)
                except (Exception, SystemExit):  # counted as a failed op
                    code = None
                spans.append((t0, clock()))
            sink.seek(0)
            sink.truncate()
            if code != case.expected or (case.out_path and not _derived_ok(case)):
                failed += 1
        return PassResult(start, clock(), len(self.cases), failed, spans)


def _derived_ok(case: Case) -> bool:
    try:
        with open(case.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(case.out_path + ".cert.json", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError):
        return False
    return doc.get("kind") == case.out_kind and cert.get("passed") is True


def _identity(n: int, diag: str = "1") -> list:
    return [[diag if i == j else "0" for j in range(n)] for i in range(n)]


def _doc(schema: str, kind: str, n: int, ops: dict, alpha: list) -> dict:
    """An algebra document from sparse {name: {(i, j, k): value}} products."""
    return {"schema_version": schema, "kind": kind, "dim": n, "alpha": alpha,
            "ops": {name: [[[str(Fraction(entries.get((i, j, k), 0)))
                             for k in range(n)] for j in range(n)] for i in range(n)]
                    for name, entries in ops.items()}}


WORKLOADS = {w.name: w for w in (Corpus, Search, CheckDocs)}
