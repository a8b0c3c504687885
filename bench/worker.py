"""One benchmark round in a fresh interpreter, as one ``entroute`` CLI call is.

Usage: python3 bench/worker.py JOB.json RESULT.json

The job names a workload, its instance inputs and whether to trace. The
worker imports the package, builds the inputs (the end of set-up), runs and
times every instance, writes the result table where the workload has one,
then checks every output against the stored reference, untimed. Its
``lru_cache``s start empty because the process is new, and they are emptied
again, untimed, before every instance: an instance costs what one
``entroute`` call on it alone would, whatever ran before it in the block.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from entroute import chainopt, harness
from entroute.chainopt import Chain, evaluate_plan
from entroute.werner import NoiseParams, distillable

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
REL_TOL = 1e-9

# configs/route_compare.json with perfect gates only, and hop separation 3
# and cutoff 7 instead of 4 and 10 so that a block fits a run (see README.md).
ROUTE_CONFIG = {
    "id": "bench-route-exhaustive", "kind": "route-compare",
    "gate_fidelities": [1.0], "channel_fidelities": [0.99],
    "topologies": ["triangular"], "hop_separation": 3, "egr_range": [8, 32],
    "cost_variants": ["hop", "inv_egr", "inv_egr_sq"],
    "include_exhaustive": True, "cutoff": 7,
}
# The settings of configs/multipath_*_egr.json; an instance is one cell.
MULTIPATH_CONFIG = {
    "id": "bench-multipath-lattice", "kind": "multipath-compare",
    "channel_fidelities": [0.91], "hop_separation": 4, "egr_range": [8, 32],
    "repeater_egr_range": [16, 128], "max_paths": 8, "multipath_cost": "inv_egr",
}


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def below(value: float, reference: float) -> bool:
    """True when ``value`` is lower than ``reference`` by more than REL_TOL relative."""
    return value < reference - REL_TOL * abs(reference)


def _row_problems(key: str, rows) -> list[str]:
    """distillable(rate, final_fidelity) must reproduce each row's own D."""
    problems = []
    for row in rows:
        if row.plan == "-":
            if row.d_total != 0.0:
                problems.append(f"{key}/{row.cost_variant}: unusable route has d_total {row.d_total}")
        elif not close(distillable(row.rate, row.final_fidelity), row.d_total):
            problems.append(f"{key}/{row.cost_variant}: distillable(rate, F) != d_total {row.d_total}")
    return problems


def check_route(key: str, config, rows, reference: dict) -> list[str]:
    """Rows of one route-compare seed against its reference D per variant."""
    problems = _row_problems(key, rows)
    by_variant = {row.cost_variant: row.d_total for row in rows}
    if set(by_variant) != set(reference):
        return problems + [f"{key}: variants {sorted(by_variant)} != {sorted(reference)}"]
    for variant, d_total in by_variant.items():
        if below(d_total, reference[variant]):
            problems.append(f"{key}/{variant}: d_total {d_total} below reference {reference[variant]}")
    exhaustive = by_variant["exhaustive"]
    for variant, d_total in by_variant.items():
        if below(exhaustive, d_total):
            problems.append(f"{key}: exhaustive {exhaustive} below {variant} {d_total}")
    return problems


def check_multipath(key: str, config, rows, reference: list) -> list[str]:
    """Rows of one multipath cell: cumulative D per path, in discovery order."""
    if len(rows) != len(reference):
        return [f"{key}: {len(rows)} rows, reference has {len(reference)}"]
    problems = []
    total = 0.0
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if row.plan != "-":
            total += distillable(row.rate, row.final_fidelity)
        if not close(total, row.d_total):
            problems.append(f"{key}#{i}: cumulative distillable {total} != d_total {row.d_total}")
        if below(row.d_total, ref):
            problems.append(f"{key}#{i}: d_total {row.d_total} below reference {ref}")
    return problems


def check_chain(key: str, chain: Chain, result, reference: float) -> list[str]:
    """An optimized chain plan: re-evaluated, re-scored and compared to the reference."""
    plan, evaluation = result
    problems = []
    if not close(distillable(evaluation.rate, evaluation.final_fidelity), evaluation.d_total):
        problems.append(f"{key}: distillable(rate, F) != d_total {evaluation.d_total}")
    again = evaluate_plan(chain, plan)
    for name in ("final_fidelity", "rate", "d_total"):
        if not close(getattr(again, name), getattr(evaluation, name)):
            problems.append(f"{key}: evaluate_plan {name} {getattr(again, name)} "
                            f"!= returned {getattr(evaluation, name)}")
    if below(evaluation.d_total, reference):
        problems.append(f"{key}: d_total {evaluation.d_total} below reference {reference}")
    return problems


def route_instances(inputs):
    for entry in inputs:
        seed = entry["seed"]
        config = harness.ExperimentConfig.from_dict(dict(ROUTE_CONFIG, seeds=[seed]))
        yield str(seed), config


def multipath_instances(inputs):
    for entry in inputs:
        config = harness.ExperimentConfig.from_dict(dict(
            MULTIPATH_CONFIG, seeds=[entry["seed"]], topologies=[entry["topology"]],
            egr_equivalence=entry["equivalence"], gate_fidelities=[entry["gate"]]))
        yield "/".join(str(entry[k]) for k in ("seed", "topology", "equivalence", "gate")), config


def chain_instances(inputs):
    for entry in inputs:
        p2 = entry["p2"]
        chain = Chain(tuple(entry["egrs"]), tuple(entry["fidelities"]), NoiseParams(p2, p2))
        yield entry["key"], chain


def run_experiment(config):
    return harness.run_experiment(config)


def optimize_chain(chain):
    return chainopt.optimize_chain(chain)


class Workload(NamedTuple):
    build: Callable  # pool inputs -> (instance key, program input) pairs
    run: Callable  # program input -> output
    check: Callable  # (key, program input, output, reference) -> problems
    writes_table: bool


WORKLOADS = {
    "route-exhaustive": Workload(route_instances, run_experiment, check_route, True),
    "multipath-lattice": Workload(multipath_instances, run_experiment, check_multipath, True),
    "chain-random": Workload(chain_instances, optimize_chain, check_chain, False),
}


def load_reference(workload: str) -> dict:
    """Reference outputs keyed by instance key, as stored by make_reference.py."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        pool = json.load(fh)
    refs = {}
    for entry in pool["entries"]:
        refs.update(entry["reference"])
    return refs


def clear_caches(tracer=None) -> None:
    """Empty every ``lru_cache`` of the package, as a fresh process has them."""
    if tracer is not None:
        tracer.collect_caches()
    for name, module in list(sys.modules.items()):
        if name == "entroute" or name.startswith("entroute."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks how fast the machine is right now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def run_round(job: dict, out_dir: Path) -> dict:
    workload = WORKLOADS[job["workload"]]
    instances = list(workload.build(job["inputs"]))
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    errors = {}
    instance_s = []
    calib_s = []
    table = out_dir / f"{job['workload']}-{os.getpid()}.csv"
    for index, (key, item) in enumerate(instances):
        calib_s.append(calibrate())
        clear_caches(tracer)
        if tracer is not None:
            tracer.instance = index
        start = time.perf_counter()
        try:
            outputs.append(workload.run(item))
        except Exception:
            outputs.append(None)
            errors[index] = traceback.format_exc(limit=3)
        instance_s.append(time.perf_counter() - start)
    write_s = 0.0
    if workload.writes_table:
        rows = [row for out in outputs if out is not None for row in out]
        start = time.perf_counter()
        harness.write_results(rows, "csv", table)
        write_s = time.perf_counter() - start
        table.unlink()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary(out_dir / f"spans-{job['workload']}-seed{job['seed']}.tsv")

    references = load_reference(job["workload"])
    problems = []
    failed = 0
    for index, ((key, item), out) in enumerate(zip(instances, outputs)):
        if index in errors:
            found = [f"{key}: raised {errors[index]}"]
        else:
            try:
                found = workload.check(key, item, out, references[key])
            except Exception:
                found = [f"{key}: check raised {traceback.format_exc(limit=3)}"]
        if found:
            failed += 1
            problems.extend(found)
    return {
        "ready": ready, "instance_s": instance_s, "write_s": write_s,
        "wall_s": sum(instance_s) + write_s, "calib_s": calib_s, "rss_kb": rss_kb,
        "failed": failed, "problems": problems[:20], "layers": layers,
    }


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_round(job, Path(result_path).parent)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
