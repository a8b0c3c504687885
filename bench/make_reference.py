"""Regenerate the instance pools and reference outputs under bench/reference/.

Usage: PYTHONPATH=src python3 bench/make_reference.py WORKLOAD

Run it only to redefine a workload: the stored references are the outputs of
the commit that generated them, and later commits must match or beat them.
Each pool entry holds one instance's program input, its reference output
and the median time it took from empty caches when the pool was made. That
time only sorts the entries into strata of similar cost; a benchmark run
draws one entry from every stratum, so blocks picked by different seeds cost
about the same.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from entroute import __version__

import worker

ROUTE_SEEDS = range(1, 321)
MULTIPATH_SEEDS = range(1, 61)
CHAIN_HOPS = range(2, 11)
CHAINS_PER_HOPS = 100
COST_PASSES = 9
# Strata per pool, which is also the block size of a run.
STRATA = {"route-exhaustive": 40, "multipath-lattice": 40, "chain-random": 60}


def random_chain(hops: int, index: int) -> dict:
    rng = random.Random(f"chain-random/{hops}/{index}")
    return {
        "key": f"{hops}h{index}",
        "egrs": [rng.randint(4, 64) for _ in range(hops)],
        "fidelities": [rng.uniform(0.85, 0.999) for _ in range(hops)],
        "p2": rng.uniform(0.985, 1.0),
    }


def reference_output(workload: str, output):
    if workload == "route-exhaustive":
        return {row.cost_variant: row.d_total for row in output}
    if workload == "multipath-lattice":
        return [row.d_total for row in output]
    return output[1].d_total


def measure(workload: str, entry_input: dict) -> tuple[str, object, float]:
    """Run one pool entry, which is one instance, from cold caches."""
    spec = worker.WORKLOADS[workload]
    (key, item), = spec.build([entry_input])
    worker.clear_caches()
    start = time.perf_counter()
    output = spec.run(item)
    cost = time.perf_counter() - start
    reference = reference_output(workload, output)
    problems = spec.check(key, item, output, reference)
    if problems:
        raise SystemExit(f"{workload} {key}: fails its own check: {problems}")
    return key, reference, cost


def cost_strata(entries: list, count: int) -> list[list[int]]:
    order = sorted(range(len(entries)), key=lambda i: entries[i]["cost_s"])
    n = len(order)
    return [sorted(order[i * n // count:(i + 1) * n // count]) for i in range(count)]


def pool_inputs(workload: str) -> list[dict]:
    if workload == "route-exhaustive":
        return [{"seed": seed} for seed in ROUTE_SEEDS]
    if workload == "multipath-lattice":
        return [{"seed": seed, "topology": topology, "equivalence": equivalence, "gate": gate}
                for seed in MULTIPATH_SEEDS
                for topology in ("triangular", "square", "hexagonal")
                for equivalence in ("channel", "repeater")
                for gate in (1.0, 0.99)]
    if workload == "chain-random":
        return [random_chain(hops, index)
                for hops in CHAIN_HOPS for index in range(CHAINS_PER_HOPS)]
    raise SystemExit(f"unknown workload {workload!r}")


def main(argv) -> int:
    (workload,) = argv
    entries = [{"input": entry_input, "reference": None, "cost_s": None}
               for entry_input in pool_inputs(workload)]
    # A shared host changes speed from second to second, so each pass visits
    # the entries in a new order and an entry's cost is its median over passes.
    costs = [[] for _ in entries]
    for cost_pass in range(COST_PASSES):
        order = list(range(len(entries)))
        random.Random(f"{workload}/pass{cost_pass}").shuffle(order)
        for i in order:
            key, reference, cost = measure(workload, entries[i]["input"])
            if entries[i]["reference"] not in (None, {key: reference}):
                raise SystemExit(f"{workload} {key}: output differs between passes")
            entries[i]["reference"] = {key: reference}
            costs[i].append(cost)
    for entry, entry_costs in zip(entries, costs):
        entry["cost_s"] = round(statistics.median(entry_costs), 6)
    strata = cost_strata(entries, STRATA[workload])
    pool = {"workload": workload, "generated_with": f"entroute/{__version__}",
            "strata": strata, "entries": entries}
    with open(worker.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{workload}: {len(entries)} entries, {len(strata)} strata, "
          f"{sum(e['cost_s'] for e in entries):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
