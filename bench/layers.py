"""Outside-in layer trace for the traced benchmark run.

Nothing inside ``entroute`` is changed: the tracer rebinds names in the
modules that call them (``harness.best_path_exhaustive``,
``routing._optimize_floored``, ``chainopt.distillable`` ...) and restores
them afterwards. Layers called a few thousand times per round get a span
(name, start, end, parent, instance); the hottest leaves (called up to a
million times per round) get a counter only, so the trace stays small.
Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from entroute import chainopt, dmsim, harness, purify, routing

# (module, attribute as bound there, layer name). The same layer may be
# bound in several calling modules.
SPANS = [
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "write_results", "harness.write_results"),
    (harness, "generate_network", "netgraph.generate_network"),
    (harness, "best_path_exhaustive", "routing.best_path_exhaustive"),
    (harness, "shortest_weighted_path", "routing.shortest_weighted_path"),
    (routing, "shortest_weighted_path", "routing.shortest_weighted_path"),
    (harness, "multipath_greedy", "routing.multipath_greedy"),
    (routing, "_optimize_floored", "routing._optimize_floored"),
    (harness, "optimize_chain", "chainopt.optimize_chain"),
    (routing, "optimize_chain", "chainopt.optimize_chain"),
    (chainopt, "optimize_chain", "chainopt.optimize_chain"),
    (chainopt, "evaluate_circuit", "purify.evaluate_circuit"),
]
COUNTS = [
    (chainopt, "distillable", "chainopt.distillable"),
    (purify, "purify_pair", "purify.purify_pair"),
    (chainopt, "swap_fidelity", "werner.swap_fidelity"),
    (routing, "swap_fidelity", "werner.swap_fidelity"),
    (dmsim, "simulate_purify_step", "dmsim"),
    (dmsim, "simulate_swap_step", "dmsim"),
]
CACHES = [
    (chainopt, "_segment_table", "chainopt.segment_table"),
    (purify, "_evaluate_cached", "purify.evaluate_cache"),
]


class Tracer:
    """Span and counter recorder; ``instance`` is set by the caller per instance."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span, instance]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.nones: Counter = Counter()
        self.instance = -1
        self._saved: list = []
        self._cache_before: dict = {}
        self._cache_delta: Counter = Counter()

    def _span(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_index, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if result is None:
                self.nones[name] += 1
            return result
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._span(getattr(module, attr), name))
        for module, attr, name in COUNTS:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._count(getattr(module, attr), name))
        self._cache_before = {name: getattr(module, attr).cache_info()
                              for module, attr, name in CACHES}

    def collect_caches(self) -> None:
        """Add the cache hits and misses since the last call; call it just before a cache_clear."""
        for module, attr, name in CACHES:
            before, after = self._cache_before[name], getattr(module, attr).cache_info()
            self._cache_delta[name, "hits"] += after.hits - before.hits
            self._cache_delta[name, "misses"] += after.misses - before.misses
            self._cache_before[name] = after._replace(hits=0, misses=0)

    def uninstall(self) -> None:
        self.collect_caches()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self, spans_path) -> dict:
        """Write the spans once; return calls, time and self time per span layer, and counts."""
        child = [0.0] * len(self.spans)
        for name_index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tinstance\n")
            for index, (name_index, start, end, parent, instance) in enumerate(self.spans):
                name = self.names[name_index]
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - child[index]
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{instance}\n")

        def hit_frac(name):
            hits, misses = self._cache_delta[name, "hits"], self._cache_delta[name, "misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        optimize_calls = calls["routing._optimize_floored"]
        useful = optimize_calls - self.nones["routing._optimize_floored"]
        metrics = {
            "routing.optimize_calls": optimize_calls,
            "routing.optimize_useful_frac": useful / optimize_calls if optimize_calls else 0.0,
            "chainopt.plans_scored": self.counts["chainopt.distillable"],
            "chainopt.segment_table.hit_frac": hit_frac("chainopt.segment_table"),
            "purify.purify_pair.calls": self.counts["purify.purify_pair"],
            "purify.evaluate_cache.hit_frac": hit_frac("purify.evaluate_cache"),
            "werner.swap_fidelity.calls": self.counts["werner.swap_fidelity"],
            "dmsim.calls": self.counts["dmsim"],
        }
        for name in self.names:
            metrics.update({f"{name}.calls": calls[name], f"{name}.s": total[name],
                            f"{name}.self_s": own[name]})
        return metrics
