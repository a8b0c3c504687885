import csv
import json

import pytest

from entroute import cli
from entroute.chainopt import chain_from_path, evaluate_plan, no_purification_plan
from entroute.cli import main
from entroute.harness import (ConfigError, ExperimentConfig, RESULT_FIELDS,
                              build_metadata, run_experiment, write_results)
from entroute.netgraph import TopologySpec, generate_network, endpoints_for_separation
from entroute.routing import LinkCost, shortest_weighted_path
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
