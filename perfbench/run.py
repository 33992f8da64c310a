"""homcert's benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing, its times
corrected for the host's speed (hostclock.py).  ``--trace 1``
runs the same loop twice, first untraced and then with layer-boundary spans,
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See METRICS.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostclock
import workloads
from hostclock import HostClock
from spans import LAYERS, Tracer

# Fresh-interpreter set-ups per run: at least 3, more while they are cheap.
SETUP_PROBES = (3, 9)
SETUP_PROBE_BUDGET_S = 2.0
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PROPERTY_NAMES = ("sec2-assoc-implications", "sec2-prelie-to-lie",
                  "sec3-module-theorems", "sec3-novikov-bridge", "sec4-oop-functors",
                  "sec4-ldend-layer", "search-consistency", "empirical-rb-dendriform",
                  "empirical-oop-prelie-dual", "epsilon-convolution")

PER_LAYER = (
    [(f"exactlin.{fn}.{m}", u) for fn in ("bilinear_eval", "mat_mul", "rref", "nullspace")
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"homcore.{fn}.{m}", u)
       for fn in ("check_axioms", "check_predicate", "check_identity",
                  "check_rota_baxter", "convolution_rb", "_epsilon_delta_rows")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("homcore.check_axioms.repeat_ratio", "ratio")]
    + [(f"hommod.{fn}.{m}", u) for fn in ("check_module_axioms", "check_oop")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("hommod.check_module_axioms.repeat_ratio", "ratio")]
    + [("functors.calls", "count"), ("functors.cert_share", "ratio")]
    + [(f"search.{fn}.{m}", u)
       for fn in ("postlie_search", "brute_force_epsilon_bialgebras",
                  "brute_force_rb_search", "brute_force_oop_search", "corpus")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("search.candidates", "count"), ("search.found", "count"),
       ("search.yield_ratio", "ratio"), ("search.corpus.distinct_ratio", "ratio")]
    + [(f"harness.{p}.{m}", u) for p in PROPERTY_NAMES
       for m, u in (("wall_s", "s"), ("items", "count"), ("max_item_s", "s"))]
    + [("harness.critical_path_share", "ratio"), ("harness.ce_docs_reported", "count"),
       ("harness.ce_docs_on_disk", "count")]
    + [(f"docs.{fn}.self_s", "s")
       for fn in ("load_json", "save_json", "algebra_from_doc", "module_from_doc",
                  "algebra_to_doc", "module_to_doc")]
    + [("docs.bytes_written", "B")]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [(f"cli.exit_code.{c}", "count") for c in range(4)]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")])


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of n samples beyond
    it, or None when n < 20."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def measure(wl, seconds: float, before_pass=None) -> list:
    """Closed loop: passes back to back until ``seconds`` have gone by, and
    at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if before_pass is not None:
            before_pass()
        passes.append(wl.run_pass())
    return passes


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up.
    The probe times its own set-up with a host clock, so that part is
    corrected for the host's speed like every other time; interpreter
    start-up before it is not."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    fields = line.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe for {name} failed with code {proc.returncode}")
    raw, corrected = float(fields[1]), float(fields[2])
    return elapsed - raw + corrected


def probe(wl) -> None:
    """The set-up probe's side: set up once and report the raw and the
    corrected seconds it took."""
    with HostClock() as host:
        start = time.perf_counter()
        wl.setup()
        end = time.perf_counter()
    print(f"ready {end - start!r} {host.seconds(start, end)!r}", flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes, setup_samples, host) -> tuple[dict, list[str]]:
    # Times are corrected for the host's speed (see hostclock.py); the
    # median pass and the pooled per-op latencies of all passes are reported.
    walls = [host.seconds(p.start, p.end) for p in passes]
    wall = statistics.median(walls)
    latencies = (walls if passes[0].op_spans is None
                 else [host.seconds(t0, t1) for p in passes for t0, t1 in p.op_spans])
    # Chosen from the samples of one pass, so the percentile depends on the
    # input size and not on how many passes fit in the run; every pass puts
    # at least ten samples beyond it.  One sample per pass gives the maximum.
    per_pass = len(passes[0].op_spans or [None])
    tail = tail_percentile(per_pass) or 100.0
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "ops_per_s": passes[0].ops / wall,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * percentile(latencies, tail),
        "peak_rss_mb": peak_rss_mb(),
    }
    readings = host.took
    notes = [f"setup_s: median of {len(setup_samples)} fresh-interpreter set-ups, "
             f"each set-up at reference speed",
             f"wall_s: median of {len(passes)} passes ({passes[0].ops} ops per pass), "
             f"at reference speed; uncorrected median "
             f"{statistics.median(p.wall_s for p in passes):.4g} s",
             f"op_tail_ms: p{tail:g} of {len(latencies)} latency samples ({per_pass} per pass)",
             f"host speed: {len(readings)} reference readings, median "
             f"{1e6 * statistics.median(readings):.4g} us (REF_S {1e6 * hostclock.REF_S:g} us)"]
    return values, notes


def per_layer(wl, tracer, base, traced) -> dict:
    agg = tracer.aggregate()
    n = len(traced)
    values = {}
    for name, unit in PER_LAYER:
        key, _, metric = name.rpartition(".")
        if metric in ("calls", "self_s") and key in agg:
            values[name] = agg[key][metric] / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row["self_s"] for k, row in agg.items()
                                        if k.startswith(layer + ".")) / n
    counters = tracer.counters
    for key in ("homcore.check_axioms", "hommod.check_module_axioms"):
        calls = agg.get(key, {}).get("calls", 0)
        values[f"{key}.repeat_ratio"] = counters[key + ".repeats"] / calls if calls else 0.0
    values["functors.calls"] = sum(row["calls"] for k, row in agg.items()
                                   if k.startswith("functors.")) / n
    values["functors.cert_share"] = tracer.functor_cert_share()
    candidates = counters["search.postlie_candidates"] + tracer.brute_force_candidates()
    values["search.candidates"] = candidates / n
    values["search.found"] = counters["search.found"] / n
    values["search.yield_ratio"] = counters["search.found"] / candidates if candidates else 0.0
    items = counters["search.corpus.items"]
    values["search.corpus.distinct_ratio"] = (counters["search.corpus.distinct"] / items
                                              if items else 0.0)
    values["docs.bytes_written"] = counters["docs.bytes_written"] / n
    for code in range(4):
        values[f"cli.exit_code.{code}"] = counters[f"cli.exit_code.{code}"] / n
    values.update(wl.layer_metrics(tracer, traced))
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in base))
    values["trace.spans"] = sum(tracer.calls) / n
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def run_untraced(wl, args):
    setup_samples = []
    low, high = SETUP_PROBES
    while len(setup_samples) < low or (sum(setup_samples) < SETUP_PROBE_BUDGET_S
                                        and len(setup_samples) < high):
        setup_samples.append(probe_setup(args.workload, args.seed))
    wl.setup()
    with HostClock() as host:
        passes = measure(wl, args.seconds)
    metrics, notes = end_to_end(passes, setup_samples, host)
    return passes, metrics, dict(END_TO_END), notes


def run_traced(wl, args):
    wl.setup()
    base = measure(wl, args.seconds / 2)
    tracer = Tracer()
    try:
        wl.install_trace(tracer)
        traced = measure(wl, args.seconds / 2, tracer.new_pass)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(workloads.ROOT, ".bench_out", f"trace-{args.workload}")
    tracer.write(spans_path)
    notes = [f"untraced passes: {len(base)}, traced passes: {len(traced)}; "
             f"spans in {os.path.relpath(spans_path, workloads.ROOT)}.bin"]
    return base + traced, per_layer(wl, tracer, base, traced), dict(PER_LAYER), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = os.path.join(workloads.ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.setup_probe:
            probe(wl)
            return 0
        passes, metrics, units, notes = (run_traced if args.trace else run_untraced)(wl, args)
        attempted = sum(p.ops for p in passes)
        failed = sum(p.failed for p in passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in notes:
        print(line)
    print(f"fail_ratio = {failed / attempted:g} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
