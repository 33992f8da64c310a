"""Span tracing for the benchmark's traced run.

The tracer wraps, in the benchmark process only, every function that one
homcert module imports from another: those names are the layer boundaries.
Each wrapped call records a span (name, parent, start, end) in compact
arrays kept in memory.  Self time is span time minus the time of the child
spans, which each call hands to its parent's frame as it returns.  Nothing
under ``src/`` is edited: the wrappers replace module attributes and are
removed again by ``uninstall``.
"""

from __future__ import annotations

import array
import ast
import functools
import inspect
import json
import os
import time
from collections import Counter

LAYERS = ("exactlin", "homcore", "hommod", "functors", "search", "harness",
          "docs", "cli")

# Entry points the metric table names although no other module imports
# them: the rref kernel, and the CLI entry the benchmark itself calls.
EXTRA_BOUNDARY = (("exactlin", "rref"), ("cli", "main"))

# Certification entry points: a functor's time inside these is its
# certification share, and a brute-force search's calls to the per-candidate
# ones count the box points it visited.
CERTIFIERS = frozenset({
    "homcore.check_axioms", "homcore.check_predicate", "homcore.require_certified",
    "homcore.check_morphism", "homcore.check_rota_baxter",
    "hommod.check_module_axioms", "hommod.require_module_certified",
    "hommod.check_oop"})
CANDIDATE_CHECKS = {
    "search.brute_force_rb_search": "homcore.check_rota_baxter",
    "search.brute_force_oop_search": "hommod.check_oop",
    "search.brute_force_epsilon_bialgebras": "homcore._epsilon_delta_rows",
}
SEARCHES = ("search.postlie_search",) + tuple(CANDIDATE_CHECKS)
# Span names kept as aggregates only: millions of kernel calls per pass.
UNSTORED = ("exactlin.",)
REPEAT_TRACKED = ("homcore.check_axioms", "hommod.check_module_axioms")


def boundary_names(src_dir: str) -> set[tuple[str, str]]:
    """(defining module, name) for every name one layer imports from another,
    including imports made inside functions.  ``from . import m`` makes every
    public function of ``m`` a boundary, since callers reach them as
    attributes of the module."""
    pairs = set(EXTRA_BOUNDARY)
    whole_modules = set()
    for layer in LAYERS:
        with open(os.path.join(src_dir, layer + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module is None:
                whole_modules.update(a.name for a in node.names if a.name in LAYERS)
            elif node.module in LAYERS and node.module != layer:
                pairs.update((node.module, a.name) for a in node.names)
    return pairs | {(m, "*") for m in whole_modules}


class Tracer:
    """Records spans around layer-boundary calls; see module docstring.

    Every wrapped call pushes a frame that collects the time of its child
    calls, so calls and self time per name are aggregated as calls return.
    Spans themselves (name, parent, start, end) are stored for every layer
    but ``exactlin``, whose kernels run millions of times per pass and are
    kept as aggregates only; a stored span's parent is the nearest stored
    ancestor.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stored = [-1]
        self._child = [0.0]
        self._on = [True]
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self._seen: dict[str, set] = {name: set() for name in REPEAT_TRACKED}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped so each call records one span named ``name``.
        ``before(args)`` runs ahead of the span and ``after(args, result)``
        once it has ended; both run with recording paused."""
        nid = self._name_id(name)
        store = not name.startswith(UNSTORED)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        stored, child, on, clock = self._stored, self._child, self._on, time.perf_counter

        def paused(hook, *args):
            on[0] = False
            try:
                hook(*args)
            finally:
                on[0] = True

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            if before is not None:
                paused(before, args)
            if store:
                idx = len(ids)
                ids.append(nid)
                parents.append(stored[-1])
                starts.append(0.0)
                ends.append(0.0)
                stored.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                inner = child.pop()
                child[-1] += took
                calls[nid] += 1
                total_s[nid] += took
                self_s[nid] += took - inner
                if store:
                    stored.pop()
                    starts[idx] = start
                    ends[idx] = end
            if after is not None:
                paused(after, args, result)
            return result

        return traced

    def count_yields(self, counter: str, fn):
        """A generator function wrapped to count the items it yields."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        return counted

    # -- installing --------------------------------------------------------

    def patch(self, obj, attr: str, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def install_layers(self, package, src_dir: str):
        """Wrap every boundary function wherever a homcert module binds it."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for mod_name, name in sorted(boundary_names(src_dir)):
            source = getattr(package, mod_name)
            if name == "*":
                fns = [(n, f) for n, f in vars(source).items()
                       if inspect.isfunction(f) and not n.startswith("_")
                       and f.__module__ == source.__name__]
            else:
                f = getattr(source, name, None)
                fns = [(name, f)] if inspect.isfunction(f) else []
            for fname, fn in fns:
                key = f"{mod_name}.{fname}"
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._boundary_wrapper(key, fn)
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self.patch(module, attr, wrappers[id(value)])

    def _boundary_wrapper(self, key: str, fn):
        counters = self.counters
        if key == "search.iter_postlie_candidates":
            return self.count_yields("search.postlie_candidates", fn)
        before = after = None
        if key in REPEAT_TRACKED:
            seen = self._seen[key]

            def before(args, key=key, seen=seen):
                digest = (args[0].digest(), repr(args[1:]))
                if digest in seen:
                    counters[key + ".repeats"] += 1
                seen.add(digest)
        elif key in SEARCHES:
            def after(args, result):
                counters["search.found"] += len(result)
        elif key == "search.corpus":
            def after(args, result):
                counters["search.corpus.items"] += len(result)
                counters["search.corpus.distinct"] += len({a.digest() for a in result})
        elif key == "docs.save_json":
            def after(args, result):
                counters["docs.bytes_written"] += os.path.getsize(args[0])
        elif key == "cli.main":
            def after(args, result):
                counters[f"cli.exit_code.{result}"] += 1
        return self.span(key, fn, before, after)

    def new_pass(self):
        """Repeat ratios count re-certification within one pass."""
        for seen in self._seen.values():
            seen.clear()

    # -- analysis ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total span seconds and self seconds."""
        return {name: {"calls": self.calls[i], "total_s": self.total_s[i],
                       "self_s": self.self_s[i]} for i, name in enumerate(self.names)}

    def functor_cert_share(self) -> float:
        """Share of outermost functor span time spent in the outermost
        certification calls made from inside those functors."""
        is_functor = [n.startswith("functors.") for n in self.names]
        is_cert = [n in CERTIFIERS for n in self.names]
        n = len(self.name_ids)
        in_functor, in_cert = bytearray(n), bytearray(n)
        functor_total = cert_total = 0.0
        for i in range(n):
            nid, p = self.name_ids[i], self.parents[i]
            pf, pc = (in_functor[p], in_cert[p]) if p >= 0 else (0, 0)
            if is_functor[nid] and not pf:
                functor_total += self.ends[i] - self.starts[i]
            elif is_cert[nid] and pf and not pc:
                cert_total += self.ends[i] - self.starts[i]
            in_functor[i] = pf or is_functor[nid]
            in_cert[i] = pc or is_cert[nid]
        return cert_total / functor_total if functor_total else 0.0

    def brute_force_candidates(self) -> int:
        """Per-candidate certification calls made directly by brute-force
        searches: the box points those searches visited."""
        names, ids, parents = self.names, self.name_ids, self.parents
        visited = 0
        for i, nid in enumerate(ids):
            p = parents[i]
            if p >= 0 and CANDIDATE_CHECKS.get(names[ids[p]]) == names[nid]:
                visited += 1
        return visited

    def write(self, path: str):
        """Spans as four raw arrays plus a JSON index of names."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name_ids),
                       "layout": ["name_id:i32", "parent:i32", "start:f64", "end:f64"]},
                      fh)

