import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entroute import cli, harness, routing
from entroute.chainopt import (MAX_CHAIN_HOPS, chain_from_path, evaluate_plan,
                               no_purification_plan, optimize_chain)
from entroute.cli import main
from entroute.harness import (EXPERIMENT_KINDS, MAX_SEED_COUNT, ConfigError,
                              ExperimentConfig, RESULT_FIELDS, ResultRow, build_metadata,
                              run_experiment, write_results)
from entroute.netgraph import (LATTICE_KINDS, MAX_EGR, TopologySpec, generate_network,
                               endpoints_for_separation)
from entroute.routing import LinkCost, best_path_exhaustive, shortest_weighted_path
from entroute.werner import NoiseParams


def _chain_config(**overrides):
    base = dict(
        id="t-chain", kind="chain-sweep", seeds=(1,),
        gate_fidelities=(1.0, 0.995, 0.99, 0.985),
        channel_fidelities=(0.91, 0.93, 0.95, 0.97),
        chain_hops=4, chain_egr=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _route_config(**overrides):
    base = dict(
        id="t-route", kind="route-compare", seeds=(1, 2),
        gate_fidelities=(0.99,), channel_fidelities=(0.95,),
        topologies=("square",), hop_separation=3, extent=(3, 6),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_chain_sweep_grid_cardinality():
    rows = run_experiment(_chain_config())
    assert len(rows) == 16
    assert {(r.gate_fidelity, r.channel_fidelity) for r in rows} == {
        (g, c) for g in (1.0, 0.995, 0.99, 0.985) for c in (0.91, 0.93, 0.95, 0.97)
    }


def test_chain_sweep_normalization():
    for row in run_experiment(_chain_config()):
        assert abs(row.d_total_normalized * 20 - row.d_total) < 1e-9


def test_route_compare_rows_and_normalization():
    config = _route_config()
    rows = run_experiment(config)
    # one exhaustive row plus one per cost variant, per seed
    assert len(rows) == 2 * (1 + 3)
    variants = {r.cost_variant for r in rows}
    assert variants == {"exhaustive", "hop", "inv_egr", "inv_egr_sq"}
    for row in rows:
        net = generate_network(
            TopologySpec("square", (3, 6), 8, 32, 0.95, seed=row.seed),
            NoiseParams(0.99, 0.99))
        assert abs(row.d_total_normalized * net.mean_channel_egr() - row.d_total) < 1e-9


def test_route_compare_dominates_no_purification_baseline():
    config = _route_config()
    rows = run_experiment(config)
    for row in rows:
        if row.cost_variant == "exhaustive":
            continue
        net = generate_network(
            TopologySpec("square", (3, 6), 8, 32, 0.95, seed=row.seed),
            NoiseParams(0.99, 0.99))
        s, d = endpoints_for_separation((3, 6), 3)
        path = shortest_weighted_path(net, s, d, LinkCost(row.cost_variant))
        baseline = evaluate_plan(chain_from_path(net, path),
                                 no_purification_plan(len(path) - 1))
        assert row.d_total >= baseline.d_total - 1e-12


def test_routes_beyond_decoherence_budget_become_zero_rows():
    # Separation 11 on a line: every route is 11 hops, exceeding the 10-hop
    # chain cap; the exhaustive search finds nothing within its cutoff.
    config = ExperimentConfig(
        id="t-far", kind="route-compare", seeds=(1,),
        gate_fidelities=(1.0,), channel_fidelities=(0.95,),
        topologies=("square",), hop_separation=11, extent=(1, 13),
    )
    rows = run_experiment(config)
    assert len(rows) == 4
    for row in rows:
        assert row.d_total == 0.0
        assert row.rate == 0.0
        assert row.plan == "-"
        if row.cost_variant != "exhaustive":
            assert row.path_hops == 11


def _route_rows_one_search_per_variant(config):
    """Route-compare rows built as the harness once did: the exhaustive search
    on its own, then one shortest-path search and one optimization per
    variant, whether or not the paths repeat."""
    rows = []
    for seed in config.seeds:
        for gate in config.gate_fidelities:
            for channel in config.channel_fidelities:
                for topology in config.topologies:
                    extent = config.resolved_extent()
                    net = generate_network(
                        TopologySpec(topology, extent, *config.egr_range, channel, seed),
                        NoiseParams(gate, gate))
                    s, d = endpoints_for_separation(extent, config.hop_separation)
                    scale = net.mean_channel_egr()

                    def row(variant, hops=0, result=None):
                        if result is None:
                            return ResultRow(config.id, seed, topology, gate, channel, variant,
                                             hops, "-", 0.0, 0.0, 0.0, 0.0)
                        plan, evaluation = result
                        return ResultRow(config.id, seed, topology, gate, channel, variant,
                                         hops, plan.summary(), evaluation.rate,
                                         evaluation.final_fidelity, evaluation.d_total,
                                         evaluation.d_total / scale)
                    if config.include_exhaustive:
                        best = best_path_exhaustive(net, s, d, config.cutoff)
                        if best is None:
                            rows.append(row("exhaustive"))
                        else:
                            rows.append(row("exhaustive", len(best.path) - 1,
                                            (best.plan, best.evaluation)))
                    for variant in config.cost_variants:
                        path = shortest_weighted_path(net, s, d, LinkCost(variant))
                        if path is None:
                            rows.append(row(variant))
                            continue
                        hops = len(path) - 1
                        rows.append(row(variant, hops,
                                        optimize_chain(chain_from_path(net, path))
                                        if hops <= MAX_CHAIN_HOPS else None))
    rows.sort(key=lambda r: (r.seed, r.gate_fidelity, r.channel_fidelity,
                             r.topology, r.cost_variant))
    return rows


@pytest.mark.parametrize("overrides", [
    {},
    {"include_exhaustive": False},
    {"cost_variants": ("inv_egr",)},
    {"cost_variants": ("inv_egr_sq", "hop")},
    {"cost_variants": ("inv_egr_sq", "hop"), "include_exhaustive": False},
    {"cost_variants": ()},
    {"topologies": ("triangular", "hexagonal"), "channel_fidelities": (0.95, 0.99),
     "gate_fidelities": (1.0, 0.99), "cutoff": 6},
    # Every route is 11 hops: zero rows with and without a path length.
    {"hop_separation": 11, "extent": (1, 13), "seeds": (1,)},
], ids=["all", "no-exhaustive", "one-variant", "reordered-subset",
        "reordered-subset-no-exhaustive", "no-variants", "mixed-cells", "too-long"])
def test_route_compare_rows_equal_one_search_per_variant(overrides):
    config = _route_config(**overrides)
    assert run_experiment(config) == _route_rows_one_search_per_variant(config)


def test_route_compare_searches_and_optimizes_each_path_once(monkeypatch):
    config = _route_config(seeds=(1, 2, 3), gate_fidelities=(1.0, 0.99),
                           topologies=("square", "triangular"))
    searches = []  # (network, path) per shortest-path search
    optimized = []  # chains optimized while weighted_routes runs
    routing_now = []  # one entry per weighted_routes call under way

    def count_searches(search):
        def wrapper(net, *args, **kwargs):
            path = search(net, *args, **kwargs)
            searches.append((net, tuple(path)))
            return path
        return wrapper

    def track(routes):
        def wrapper(*args, **kwargs):
            routing_now.append(None)
            try:
                return routes(*args, **kwargs)
            finally:
                routing_now.pop()
        return wrapper

    def count_optimized(optimize):
        def wrapper(chain, *args, **kwargs):
            if routing_now:
                optimized.append(chain)
            return optimize(chain, *args, **kwargs)
        return wrapper
    for module in (routing, harness):
        monkeypatch.setattr(module, "shortest_weighted_path",
                            count_searches(module.shortest_weighted_path))
    monkeypatch.setattr(harness, "weighted_routes", track(harness.weighted_routes))
    monkeypatch.setattr(routing, "optimize_chain", count_optimized(routing.optimize_chain))
    run_experiment(config)
    by_cell: dict[int, list] = {}
    for net, path in searches:  # searches holds every network, so ids stay unique
        by_cell.setdefault(id(net), []).append(path)
    assert len(by_cell) == 3 * 2 * 2
    assert all(len(paths) == len(config.cost_variants) for paths in by_cell.values())
    assert 0 < len(optimized) <= sum(len(set(paths)) for paths in by_cell.values())


def test_multipath_rows_are_cumulative():
    config = ExperimentConfig(
        id="t-multi", kind="multipath-compare", seeds=(3,),
        gate_fidelities=(1.0,), channel_fidelities=(0.91,),
        topologies=("triangular", "square", "hexagonal"),
        hop_separation=4, max_paths=8,
    )
    rows = run_experiment(config)
    for topology in ("triangular", "square", "hexagonal"):
        sub = [r for r in rows if r.topology == topology]
        assert len(sub) >= 2
        totals = [r.d_total for r in sub]
        assert totals == sorted(totals)


# sha256 of the CSV and JSON bytes of a multi-cell multipath run whose lists
# are all given out of ascending order, computed before the three per-kind
# sweep loops became one walk of the cell grid. The golden tables run one
# seed each, so this is what pins the row order across seeds, gates,
# channels and topologies, and the JSON writer's bytes.
ORDER_CONFIG = dict(
    id="t-order", kind="multipath-compare", seeds=(3, 1, 2),
    gate_fidelities=(0.99, 1.0), channel_fidelities=(0.95, 0.91),
    topologies=("hexagonal", "triangular", "square"),
)
ORDER_SHA256 = {
    "csv": "562f106411503f393e975b53acc81dd24dbaa043e5654a9392d154c05b0c2786",
    "json": "bd7b869392217250f7a110ec866c8751078df06d7f603cdcfd4d55339c3ee11f",
}


def test_multi_cell_run_writes_its_pinned_bytes(tmp_path):
    config = ExperimentConfig(**ORDER_CONFIG)
    rows = run_experiment(config)
    assert [r.seed for r in rows] == sorted(r.seed for r in rows)
    for fmt, digest in ORDER_SHA256.items():
        path = tmp_path / f"rows.{fmt}"
        write_results(rows, fmt, path, build_metadata(config))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt


def test_chain_sweep_runs_only_its_first_listed_seed():
    config = _chain_config(seeds=(5, 2), gate_fidelities=(0.99, 1.0),
                           channel_fidelities=(0.95, 0.91))
    rows = run_experiment(config)
    assert {r.seed for r in rows} == {5}
    assert {r.topology for r in rows} == {"chain"}
    assert [(r.gate_fidelity, r.channel_fidelity) for r in rows] == [
        (0.99, 0.91), (0.99, 0.95), (1.0, 0.91), (1.0, 0.95)]


def test_rerun_is_byte_identical(tmp_path):
    config = _route_config(seeds=(5,))
    meta = build_metadata(config)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    write_results(run_experiment(config), "csv", out_a, meta)
    write_results(run_experiment(config), "csv", out_b, meta)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_json_parse_identical(tmp_path):
    config = _chain_config()
    rows = run_experiment(config)
    meta = build_metadata(config)
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    write_results(rows, "csv", csv_path, meta)
    write_results(rows, "json", json_path, meta)
    with open(csv_path, encoding="utf-8") as fh:
        data = [line for line in fh if not line.startswith("#")]
    parsed_csv = list(csv.DictReader(data))
    doc = json.loads(json_path.read_text())
    assert doc["metadata"] == meta
    assert len(doc["rows"]) == len(parsed_csv)
    for jrow, crow in zip(doc["rows"], parsed_csv):
        for name in RESULT_FIELDS:
            assert type(jrow[name])(crow[name]) == jrow[name]


def test_empty_rows_give_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], "csv", path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(RESULT_FIELDS)]


def test_single_row_csv_layout(tmp_path):
    rows = run_experiment(_chain_config(gate_fidelities=(1.0,),
                                        channel_fidelities=(0.95,)))
    path = tmp_path / "one.csv"
    write_results(rows, "csv", path, {"generator": "splitmix64/v1"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# generator=splitmix64/v1"
    assert lines[1] == ",".join(RESULT_FIELDS)
    assert len(lines) == 3


def test_metadata_content():
    meta = build_metadata(_chain_config())
    assert meta["config_hash"].startswith("sha256:")
    assert meta["generator"] == "splitmix64/v1"
    assert meta["artifact"].startswith("entroute/")


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="seeds"):
        _chain_config(seeds=(1, 1))
    with pytest.raises(ConfigError, match="gate_fidelities"):
        _chain_config(gate_fidelities=())
    with pytest.raises(ConfigError, match="gate_fidelities"):
        _chain_config(gate_fidelities=(0.3,))
    with pytest.raises(ConfigError, match="gate_fidelities"):
        _chain_config(gate_fidelities=(0.5,))
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig(id="x", kind="other")
    with pytest.raises(ConfigError, match="extent"):
        _route_config(extent=(3, 3), hop_separation=4)
    with pytest.raises(ConfigError, match="egr_equivalence"):
        _route_config(egr_equivalence="node")
    with pytest.raises(ConfigError, match="seeds"):
        _chain_config(seeds=(1.5,))
    with pytest.raises(ConfigError, match="cutoff"):
        _route_config(cutoff=11)
    with pytest.raises(ConfigError, match="channel_fidelities"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep",
                                    "channel_fidelities": ["a"]})
    # Either would run no cell and write an empty table.
    with pytest.raises(ConfigError, match="topologies"):
        _route_config(topologies=())
    with pytest.raises(ConfigError, match="topologies"):
        ExperimentConfig.from_dict({"id": "x", "kind": "multipath-compare", "topologies": []})
    with pytest.raises(ConfigError, match="cost_variants"):
        _route_config(cost_variants=(), include_exhaustive=False)
    with pytest.raises(ConfigError, match="cost_variants"):
        ExperimentConfig.from_dict({"id": "x", "kind": "route-compare", "cost_variants": [],
                                    "include_exhaustive": False})
    for name, repeated in (("gate_fidelities", (1.0, 0.99, 1)),
                           ("channel_fidelities", (0.95, 0.95)),
                           ("topologies", ("square", "square")),
                           ("cost_variants", ("hop", "inv_egr", "hop"))):
        with pytest.raises(ConfigError, match=f"{name}: values must be distinct"):
            _route_config(**{name: repeated})
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict({"id": "x", "kind": "route-compare",
                                        name: list(repeated)})


def test_config_rejects_egr_ranges_wider_than_a_draw():
    # Lattice generation draws each EGR from a 64-bit word; a wider range
    # would reject every draw and never return. Nothing is generated here.
    with pytest.raises(ConfigError, match="egr_range"):
        ExperimentConfig.from_dict({"id": "x", "kind": "route-compare",
                                    "egr_range": [1, 10**30]})
    # Every EGR lies in 1..2**64, so no range inside it is wider than a draw.
    _route_config(egr_range=(5, 2**64))
    for egr_range in ((5, 2**64 + 1), (5, 2**64 + 5), (10**400, 10**400)):
        with pytest.raises(ConfigError, match="egr_range"):
            _route_config(egr_range=egr_range)
    for repeater in ((1, 2**70), (1, 10**400), (1, 2**64 + 1), (10**400, 10**400)):
        with pytest.raises(ConfigError, match="repeater_egr_range"):
            _route_config(repeater_egr_range=repeater)
    # A repeater range inside 1..2**64 scales inside it on every lattice.
    _route_config(repeater_egr_range=(1, 2**64), topologies=tuple(LATTICE_KINDS))
    for chain_egr in (2**64 + 1, 10**400):
        with pytest.raises(ConfigError, match="chain_egr"):
            _chain_config(chain_egr=chain_egr)


def test_cli_rejects_a_wide_egr_range_as_a_config_error(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"id": "x", "kind": "route-compare",
                                       "egr_range": [1, 10**30]}))

    def never_run(config):  # were the config accepted, the run would not return
        raise AssertionError("the config was accepted")
    monkeypatch.setattr(cli, "run_experiment", never_run)
    capsys.readouterr()
    assert main(["route", "--config", str(config_path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith("entroute: config error: egr_range: ")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("kind, field, value", [
    ("route-compare", "egr_range", [10**400, 10**400]),
    ("chain-sweep", "chain_egr", 10**400),
    ("multipath-compare", "repeater_egr_range", [10**400, 10**400]),
], ids=("egr_range", "chain_egr", "repeater_egr_range"))
def test_cli_rejects_an_egr_above_2_64_as_a_config_error(tmp_path, monkeypatch, capsys,
                                                         kind, field, value):
    # Such an EGR overflows a float once the run computes a rate or a mean.
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"id": "x", "kind": kind, field: value}))

    def never_run(config):
        raise AssertionError("the config was accepted")
    monkeypatch.setattr(cli, "run_experiment", never_run)
    command = {"route-compare": "route", "chain-sweep": "chain",
               "multipath-compare": "multipath"}[kind]
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"entroute: config error: {field}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("overrides", [
    {"channel_fidelities": (0.25, 1.0)},
    {"chain_hops": 1},
    {"chain_hops": MAX_CHAIN_HOPS},
    {"chain_egr": 1},
    {"chain_egr": MAX_EGR},
    {"hop_separation": 1},
    {"extent": (1, 4)},  # cols == hop_separation + 1
    {"egr_range": (1, 1)},
    {"egr_range": (MAX_EGR, MAX_EGR)},
    {"cutoff": 1},
    {"max_paths": 1},
    {"repeater_egr_range": (16, 16)},
    {"repeater_egr_range": (MAX_EGR, MAX_EGR)},
], ids=lambda overrides: next(iter(overrides)))
def test_config_accepts_the_ends_of_its_ranges(overrides):
    config = _route_config(**overrides)
    assert all(getattr(config, name) == value for name, value in overrides.items())


def test_seed_ranges_may_hold_one_seed_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(harness, "MAX_SEED_COUNT", 3)
    for count in (1, 3):
        config = ExperimentConfig.from_dict(
            {"id": "x", "kind": "chain-sweep", "seeds": {"start": 7, "count": count}})
        assert config.seeds == tuple(range(7, 7 + count))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep",
                                    "seeds": {"start": 7, "count": 4}})


def test_config_from_dict_diagnostics():
    with pytest.raises(ConfigError, match="id"):
        ExperimentConfig.from_dict({"kind": "chain-sweep"})
    with pytest.raises(ConfigError, match="unknown fields"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep", "bogus": 1})
    config = ExperimentConfig.from_dict(
        {"id": "x", "kind": "chain-sweep", "seeds": {"start": 4, "count": 3}})
    assert config.seeds == (4, 5, 6)
    with pytest.raises(ConfigError, match="gate_fidelities"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep", "gate_fidelities": 0.99})
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep", "seeds": [1.7, 2.2]})
    with pytest.raises(ConfigError, match="egr_range"):
        ExperimentConfig.from_dict({"id": "x", "kind": "route-compare", "egr_range": ["a", 32]})
    # Rejected before the range is built.
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"id": "x", "kind": "chain-sweep",
                                    "seeds": {"start": 0, "count": MAX_SEED_COUNT + 1}})
    with pytest.raises(ConfigError, match="id"):
        ExperimentConfig.from_dict({"id": ["a"], "kind": "route-compare"})
    # A JSON string is truthy; it must not switch the exhaustive search on.
    with pytest.raises(ConfigError, match="include_exhaustive"):
        ExperimentConfig.from_dict({"id": "x", "kind": "route-compare",
                                    "include_exhaustive": "false"})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8)
# Values near the valid ones, so that the fuzz also reaches the field checks.
NEAR_VALID = (st.sampled_from(EXPERIMENT_KINDS + ("triangular", "hexagonal", "hop",
                                                  "inv_egr_sq", "channel", "repeater"))
              | st.integers(-2, 40) | st.floats(0.2, 1.1)
              | st.lists(st.integers(-2, 40) | st.floats(0.2, 1.1)
                         | st.sampled_from(("square", "inv_egr")), max_size=4)
              | st.fixed_dictionaries({"start": st.integers(-5, 5),
                                       "count": st.integers(-2, 5)}))
FIELD_VALUES = {f.name: JSON_VALUES | NEAR_VALID for f in dataclasses.fields(ExperimentConfig)}
RAW_CONFIGS = (
    st.fixed_dictionaries({}, optional={**FIELD_VALUES, "bogus": JSON_VALUES})
    | st.fixed_dictionaries({"id": st.text(max_size=4), "kind": st.sampled_from(EXPERIMENT_KINDS)},
                            optional={name: values for name, values in FIELD_VALUES.items()
                                      if name not in ("id", "kind")}))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=RAW_CONFIGS)
def test_config_from_dict_fuzz_returns_a_config_or_raises_config_error(raw):
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    assert isinstance(config.id, str)
    assert isinstance(config.include_exhaustive, bool)


def test_cli_round_trip(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "id": "cli-chain", "kind": "chain-sweep",
        "gate_fidelities": [1.0], "channel_fidelities": [0.95],
        "chain_hops": 3, "chain_egr": 12,
    }))
    out = tmp_path / "rows.csv"
    assert main(["chain", "--config", str(config_path), "--out", str(out)]) == 0
    content = out.read_text()
    assert content.startswith("# artifact=entroute/")
    assert "cli-chain" in content


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"id": "x", "kind": "chain-sweep"}))
    # kind mismatch -> config error
    assert main(["route", "--config", str(config_path), "--out", str(tmp_path / "o.csv")]) == 1
    # unreadable config -> config error
    assert main(["chain", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")]) == 1
    # invalid JSON -> config error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["chain", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    # unwritable output -> i/o error
    assert main(["chain", "--config", str(config_path),
                 "--out", str(tmp_path / "missing-dir" / "o.csv")]) == 2
    # a failure inside the experiment -> runtime error, one line, no traceback
    def fail(config):
        raise ValueError("chain has 11 hops")
    monkeypatch.setattr(cli, "run_experiment", fail)
    capsys.readouterr()
    assert main(["chain", "--config", str(config_path), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "entroute: runtime error: ValueError: chain has 11 hops\n"


@pytest.mark.parametrize("content", [
    b"[]", b"[1, 2]", b"3.5", b'"chain"', b"null",
    b'{"id": "caf\xe9", "kind": "chain-sweep"}',
    b"[" * 100_000,
], ids=["empty-list", "list", "number", "string", "null", "not-utf8", "nested-too-deep"])
def test_cli_rejects_non_object_configs_in_one_line(tmp_path, capsys, content):
    config_path = tmp_path / "cfg.json"
    config_path.write_bytes(content)
    capsys.readouterr()
    assert main(["chain", "--config", str(config_path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("entroute: config error: ") and err.count("\n") == 1


_RUN_PATH_PROBE = """
import sys
import entroute, entroute.cli
assert entroute.cli.main(["chain", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "numpy" not in sys.modules, "the run path loaded numpy"
from entroute.purify import oracle_simulate_step
outcome = oracle_simulate_step(0.9, 0.9)
assert 0.9 < outcome.f_out < 1.0 and 0.0 < outcome.p_succ < 1.0
assert "numpy" in sys.modules
"""


def test_cli_run_path_leaves_numpy_unloaded(tmp_path):
    # A fresh interpreter: this test process has numpy loaded already.
    repo = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _RUN_PATH_PROBE, str(repo / "configs" / "chain_sweep.json"),
         str(tmp_path / "chain.csv")],
        env={**os.environ, "PYTHONPATH": str(repo / "src")}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "chain.csv").read_text().startswith("# artifact=entroute/")


def test_cli_seed_override(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "id": "x", "kind": "route-compare", "seeds": [1, 2, 3],
        "gate_fidelities": [1.0], "channel_fidelities": [0.95],
        "topologies": ["square"], "hop_separation": 3, "extent": [3, 6],
    }))
    out = tmp_path / "o.csv"
    assert main(["route", "--config", str(config_path), "--out", str(out),
                 "--seed-override", "9"]) == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {r["seed"] for r in rows} == {"9"}


# sha256 of the CSV that the CLI writes for each configs/*.json at two seed
# overrides, computed at the commit before route-compare shared its
# shortest-path seeds with the exhaustive search. Unlike the rerun check,
# this catches a result that changes from one commit to the next. The
# header holds the package version, so a version bump changes every digest.
GOLDEN_CSV_SHA256 = {
    ("chain_sweep", 3): "0dc92653d25d93beaa5c993a25188bee6f39f593058aa1de939d89a0df3ccc71",
    ("chain_sweep", 4): "4373f7a8498e91b537036881715dc8321904fd03dbde08d5d26e1b55d325b5bb",
    ("multipath_channel_egr", 3): "d827fa62a5f3a3d8e2d8b57c12343715891f943ec313527bd8184b13fc60b934",
    ("multipath_channel_egr", 4): "acbf7639e5ff0b34691d71b87d2f1346c9711d1089aa7d17ae06c9727ee3b4ce",
    ("multipath_repeater_egr", 3): "db531a2a0b5634f83f863d08efb2ef13570f03be5ddf7dd90695ed9f1748a73a",
    ("multipath_repeater_egr", 4): "9fce9e24ff31af39c8c4a0fa91caf13ec9ff990b074c8393fbebb108209ee9c7",
    ("route_compare", 3): "3430f360537c212d0b537bfaff5fcc4d66bbc90c3ea1af78aa4987b37d781bde",
    ("route_compare", 4): "62a5a0da51f7f8fe13d38dda2f5fb52809c2fc353a851307f81c33069e3e6d6c",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_CSV_SHA256))
def test_configs_write_the_golden_tables(tmp_path, name, seed):
    config_path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    command = {"chain_sweep": "chain", "route_compare": "route"}.get(name, "multipath")
    out = tmp_path / f"{name}-{seed}.csv"
    assert main([command, "--config", str(config_path), "--out", str(out),
                 "--seed-override", str(seed)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[name, seed]
