"""The entroute benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks the block of instances from the workload's stored pool (one
entry from each cost stratum, see make_reference.py). Untraced runs repeat
the block in fresh worker processes, each starting with empty caches as one
``entroute`` CLI call does, until ``--seconds`` are used up (at least three
rounds). Before each instance the worker times a fixed pure-Python loop;
every time a round measured is scaled by CALIBRATION_REF_S over that
round's median loop time, so the timings read as on a machine of fixed
speed. wall_s adds up the instances' median times; the percentiles are
taken over every instance time of every round. A traced run
alternates three untraced and three traced rounds and reports the
per-layer metrics instead.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("route-exhaustive", "multipath-lattice", "chain-random")
MIN_ROUNDS = 3
TRACE_PAIRS = 3  # a traced run alternates untraced and traced rounds
ROUND_TIMEOUT_S = 60
LAST_ROUND_START_S = 100  # with ROUND_TIMEOUT_S, a run ends within 180 s
TAIL_BEYOND = 10
# The calibration loop's median time on the 2-core Xeon VM the benchmark was
# written on; timings are scaled to a machine on which the loop takes this.
CALIBRATION_REF_S = 2e-3

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move). BENCHMARK.json's per_layer list holds the same names; the
# traced worker measures them (layers.py).
LAYER_METRICS = {
    "harness.run_experiment.calls": ("count", "wall_s on multipath-lattice"),
    "harness.run_experiment.self_s": ("s", "wall_s on multipath-lattice"),
    "harness.write_results.s": ("s", "wall_s on multipath-lattice"),
    "netgraph.generate_network.calls": ("count", "instance_p50_ms on multipath-lattice"),
    "netgraph.generate_network.s": ("s", "instance_p50_ms on multipath-lattice"),
    "routing.best_path_exhaustive.calls": ("count", "wall_s on route-exhaustive"),
    "routing.best_path_exhaustive.s": ("s", "wall_s on route-exhaustive"),
    "routing.best_path_exhaustive.self_s": ("s", "wall_s on route-exhaustive"),
    "routing.shortest_weighted_path.calls": ("count", "wall_s on route-exhaustive"),
    "routing.shortest_weighted_path.s": ("s", "wall_s on route-exhaustive"),
    "routing.multipath_greedy.calls": ("count", "wall_s on multipath-lattice"),
    "routing.multipath_greedy.s": ("s", "wall_s on multipath-lattice"),
    "routing.multipath_greedy.self_s": ("s", "wall_s on multipath-lattice"),
    "routing.optimize_calls": ("count", "wall_s and instance_p50_ms on route-exhaustive"),
    "routing.optimize_useful_frac": ("ratio", "wall_s and instance_p50_ms on route-exhaustive"),
    "chainopt.optimize_chain.calls": ("count", "wall_s on chain-random and multipath-lattice"),
    "chainopt.optimize_chain.s": ("s", "wall_s on chain-random and multipath-lattice"),
    "chainopt.optimize_chain.self_s": ("s", "wall_s on chain-random and multipath-lattice"),
    "chainopt.plans_scored": ("count", "wall_s on chain-random and multipath-lattice"),
    "chainopt.segment_table.hit_frac": ("ratio", "wall_s on chain-random and multipath-lattice"),
    "purify.evaluate_circuit.calls": ("count", "wall_s and peak_rss_mb on chain-random"),
    "purify.evaluate_circuit.s": ("s", "wall_s and peak_rss_mb on chain-random"),
    "purify.purify_pair.calls": ("count", "wall_s and peak_rss_mb on chain-random"),
    "purify.evaluate_cache.hit_frac": ("ratio", "wall_s and peak_rss_mb on chain-random"),
    "werner.swap_fidelity.calls": ("count", "wall_s on chain-random"),
    "dmsim.calls": ("count", "nothing: a test oracle no workload reaches"),
    "trace_overhead_frac": ("ratio", "nothing: traced wall_s over untraced wall_s"),
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def pick_block(workload: str, seed: int, limit: int | None = None) -> list[dict]:
    """The seed's instance inputs: one entry from every stratum, in pool order."""
    path = BENCH / "reference" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        pool = json.load(fh)
    chosen = [min(stratum, key=lambda i: hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest())
              for stratum in pool["strata"]]
    inputs = [pool["entries"][i]["input"] for i in sorted(chosen)]
    return inputs[:limit] if limit else inputs


def run_round(workload: str, seed: int, inputs: list[dict], trace: bool) -> dict:
    """One fresh worker process over the whole block; returns its record."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-{os.getpid()}"
    job_path, result_path = OUT / f"job-{stem}.json", OUT / f"result-{stem}.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "inputs": inputs}, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stdout[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    job_path.unlink()
    result_path.unlink()
    record["setup_s"] = record["ready"] - spawned
    return record


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": loadavg()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def tail(times: list[float], instances: int) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND instances beyond it.

    ``times`` holds every instance's time in each of the same number of
    rounds, so the percentile depends on the block alone, not on how many
    rounds fitted.
    """
    if instances < 2 * TAIL_BEYOND:
        return None
    beyond = instances - TAIL_BEYOND
    return 100.0 * beyond / instances, sorted(times)[len(times) * beyond // instances - 1]


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def speed_scale(record: dict) -> float:
    """Factor that takes a round's timings to the reference machine speed."""
    return CALIBRATION_REF_S / statistics.median(record["calib_s"])


def samples(rounds: list[dict], scaled: bool = True) -> list[list[float]]:
    """Per instance, its time in every round."""
    scales = [speed_scale(r) if scaled else 1.0 for r in rounds]
    return [[t * k for t, k in zip(times, scales)]
            for times in zip(*(r["instance_s"] for r in rounds))]


def wall(rounds: list[dict], scaled: bool = True) -> float:
    """The instances' median times over the rounds, plus the median table write."""
    write = statistics.median(r["write_s"] * (speed_scale(r) if scaled else 1.0) for r in rounds)
    return sum(statistics.median(times) for times in samples(rounds, scaled)) + write


def summarize(rounds: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics over rounds of the same block, plus lines describing them.

    A shared host changes speed from second to second, by up to 1.5 times,
    so every timing is first scaled to the reference speed by its round's
    calibration loop. wall_s is the sum of the instances' median times over
    the rounds plus the median table write. The percentiles are taken over
    every instance time of every round. Set-up time is the median over
    rounds.
    """
    per_instance = samples(rounds)
    pooled = [t for times in per_instance for t in times]
    setups = [r["setup_s"] * speed_scale(r) for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall(rounds), "s"),
        "instance_p50_ms": (1e3 * statistics.median(pooled), "ms"),
    }
    lines = []
    tail_at = tail(pooled, len(per_instance))
    if tail_at is None:
        lines.append(f"instance_tail_ms not reported: {len(per_instance)} instances, "
                     f"needs {2 * TAIL_BEYOND}")
    else:
        metrics["instance_tail_ms"] = (1e3 * tail_at[1], "ms")
        lines.append(f"instance_tail_ms is p{tail_at[0]:.1f} of {len(per_instance)} instances "
                     f"x {len(rounds)} rounds ({TAIL_BEYOND} instances beyond it)")
    metrics["peak_rss_mb"] = (statistics.median(r["rss_kb"] for r in rounds) / 1024.0, "MB")
    raw = [t for times in samples(rounds, scaled=False) for t in times]
    lines.append(f"unscaled: setup_s {statistics.median(r['setup_s'] for r in rounds):.6g} s, "
                 f"wall_s {wall(rounds, scaled=False):.6g} s, "
                 f"instance_p50_ms {1e3 * statistics.median(raw):.6g} ms")
    walls = [r["wall_s"] for r in rounds]
    lines.append(f"spread over {len(rounds)} rounds (IQR/median): round wall "
                 f"{quartile_spread(walls):.3f}, setup {quartile_spread(setups):.3f}")
    return metrics, lines


def main(argv=None, limit: int | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), limit)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run(workload: str, seed: int, seconds: int, trace: bool, limit: int | None) -> int:
    if not (ROOT / "src" / "entroute" / "__init__.py").is_file():
        raise BenchError(f"no entroute sources under {ROOT / 'src'}; run from a full checkout")
    try:
        inputs = pick_block(workload, seed, limit)
    except OSError as exc:
        raise BenchError(f"cannot read the {workload} pool: {exc}") from exc
    print(f"# entroute benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}; {len(inputs)} pool entries")
    print("env " + json.dumps(environment()))

    rounds = []
    started = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        record = run_round(workload, seed, inputs, traced)
        record["traced"] = traced
        rounds.append(record)
        calib = statistics.median(record["calib_s"]) * 1e6
        print(f"round {len(rounds)}{' traced' if traced else ''}: setup {record['setup_s']:.4f} s, "
              f"wall {record['wall_s']:.4f} s, calibration loop median {calib:.1f} us, "
              f"failed {record['failed']} of {len(record['instance_s'])}")
        for problem in record["problems"]:
            print(f"  check failed: {problem}")
        elapsed = time.monotonic() - started
        per_round = elapsed / len(rounds)
        if trace:
            done = len(rounds) == 2 * TRACE_PAIRS or (
                len(rounds) % 2 == 0 and elapsed + 2 * per_round > LAST_ROUND_START_S)
        else:
            done = (len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds
                    or elapsed + per_round > LAST_ROUND_START_S)
        if done:
            break
    print("env at end: loadavg " + loadavg())
    calibs = [statistics.median(r["calib_s"]) for r in rounds]
    print(f"drift: calibration loop median per round {[round(c * 1e6, 1) for c in calibs]} us, "
          f"IQR/median {quartile_spread(calibs):.3f}; timings scaled to "
          f"{CALIBRATION_REF_S * 1e6:.0f} us")

    attempted = sum(len(r["instance_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        untraced_rounds = [r for r in rounds if not r["traced"]]
        layers = dict(min(traced_rounds, key=lambda r: r["wall_s"])["layers"])
        layers["trace_overhead_frac"] = wall(traced_rounds) / wall(untraced_rounds)
        metrics = {}
        for name, (unit, moves) in LAYER_METRICS.items():
            metrics[name] = (layers[name], unit)
            print(f"layer {name} = {layers[name]} {unit}  (should move {moves})")
    else:
        metrics, lines = summarize(rounds)
        for line in lines:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
