"""The benchmark's own test.

Runs every workload at tiny size, untraced and traced, and checks that every
metric named in BENCHMARK.json is printed with its unit; then feeds the
output check deliberately corrupted results. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from entroute.chainopt import evaluate_plan, no_purification_plan  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Instances per tiny run: too few route seeds for a tail, and just enough
# multipath cells and chains for one.
TINY = {"route-exhaustive": 2, "multipath-lattice": 24, "chain-random": 27}
PRINTED = re.compile(r"^(?:metric|layer) (\S+) = (\S+) (\S+)", re.M)


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)], limit=TINY[workload])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out
    printed = {name: unit for name, _, unit in PRINTED.findall(out)}
    return out, result, printed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    out, result, printed = run_tiny(capsys, workload, 0)
    assert printed["failed_frac"] == "ratio"
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name == "instance_tail_ms" and "instance_tail_ms not reported" in out:
            continue
        assert printed[name] == unit, name
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "env {" in out and "drift: calibration loop" in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    _, result, printed = run_tiny(capsys, workload, 1)
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        assert printed[name] == unit, name
        assert result["metrics"][name]["unit"] == unit
    assert result["metrics"]["dmsim.calls"]["value"] == 0
    assert result["metrics"]["trace_overhead_frac"]["value"] > 0


def test_tail_is_reported_from_twenty_instances():
    assert run.tail([1.0] * 38, 19) is None
    percentile, value = run.tail(list(range(30)), 30)
    assert percentile == pytest.approx(100 * 20 / 30) and value == 19
    # Two rounds of 30 instances: the same percentile, 20 times beyond it.
    percentile, value = run.tail(list(range(60)), 30)
    assert percentile == pytest.approx(100 * 20 / 30) and value == 39


def first_instance(workload, positive=lambda reference, item: True):
    """The first instance of seed 1's block whose reference and input pass ``positive``."""
    spec = worker.WORKLOADS[workload]
    references = worker.load_reference(workload)
    for key, item in spec.build(run.pick_block(workload, 1)):
        if positive(references[key], item):
            return spec, key, item, spec.run(item), references[key]
    raise AssertionError(f"no suitable {workload} instance")


def test_route_check_flags_lowered_d_total():
    spec, key, config, rows, reference = first_instance("route-exhaustive",
                                                        lambda ref, _: ref["exhaustive"] > 0)
    assert spec.check(key, config, rows, reference) == []
    lowered = [dataclasses.replace(row, d_total=row.d_total * 0.5)
               if row.cost_variant == "exhaustive" else row for row in rows]
    problems = spec.check(key, config, lowered, reference)
    assert any("below reference" in p for p in problems)
    assert any("exhaustive" in p and "below inv_egr" in p for p in problems)
    assert any("distillable" in p for p in problems)


def test_multipath_check_flags_lowered_d_total():
    spec, key, config, rows, reference = first_instance("multipath-lattice",
                                                        lambda ref, _: ref[-1] > 0)
    assert spec.check(key, config, rows, reference) == []
    lowered = rows[:-1] + [dataclasses.replace(rows[-1], d_total=rows[-1].d_total * 0.5)]
    problems = spec.check(key, config, lowered, reference)
    assert any("below reference" in p for p in problems)
    assert any("cumulative distillable" in p for p in problems)


def test_chain_check_flags_lowered_d_total_and_disagreeing_plan():
    def purifies(reference, chain):
        return evaluate_plan(chain, no_purification_plan(chain.n_hops)).d_total < reference

    spec, key, chain, (plan, evaluation), reference = first_instance("chain-random", purifies)
    assert spec.check(key, chain, (plan, evaluation), reference) == []
    lowered = dataclasses.replace(evaluation, d_total=evaluation.d_total * 0.5)
    problems = spec.check(key, chain, (plan, lowered), reference)
    assert any("below reference" in p for p in problems)
    assert any("distillable" in p for p in problems)
    other = no_purification_plan(chain.n_hops)
    assert other != plan
    problems = spec.check(key, chain, (other, evaluation), reference)
    assert any("evaluate_plan" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "chain-random", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    out = capsys.readouterr().out
    assert "correct" not in out
