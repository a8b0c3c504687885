"""Experiment runner: declarative sweep configs to deterministic result tables.

Three experiment kinds mirror the simulation studies this package exists to
run: ``chain-sweep`` optimizes purification plans on a uniform repeater
chain over a gate/channel fidelity grid, ``route-compare`` scores exhaustive
and weighted-shortest-path routing on seeded lattices, and
``multipath-compare`` runs greedy edge-disjoint multipath routing across
lattice topologies under channel- or repeater-EGR resource equivalence.
Output is a pure function of the config: rows are canonically sorted and
floats rendered at 12 significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, fields

from . import __version__
from .chainopt import MAX_CHAIN_HOPS, Chain, optimize_chain
from .netgraph import (GENERATOR_NAME, LATTICE_KINDS, MAX_EGR, TopologySpec,
                       default_extent, endpoints_for_separation,
                       generate_network, scaled_egr_range)
from .routing import LinkCost, best_path_exhaustive, multipath_greedy, weighted_routes
from .routing import shortest_weighted_path  # noqa: F401  (rebound by bench/layers.py)
from .werner import NoiseParams

EXPERIMENT_KINDS = ("chain-sweep", "route-compare", "multipath-compare")
# A {start, count} seed range is built as a tuple; far above any real sweep.
MAX_SEED_COUNT = 10**6


class ConfigError(ValueError):
    """An experiment config is structurally or semantically invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    kind: str
    seeds: tuple[int, ...] = (0,)
    gate_fidelities: tuple[float, ...] = (1.0, 0.99)
    channel_fidelities: tuple[float, ...] = (0.91, 0.99)
    # chain-sweep
    chain_hops: int = 6
    chain_egr: int = 20
    # route-compare / multipath-compare
    topologies: tuple[str, ...] = ("triangular",)
    hop_separation: int = 4
    extent: tuple[int, int] | None = None
    egr_range: tuple[int, int] = (8, 32)
    cutoff: int = 10
    # route-compare
    cost_variants: tuple[str, ...] = ("hop", "inv_egr", "inv_egr_sq")
    include_exhaustive: bool = True
    # multipath-compare
    max_paths: int = 8
    egr_equivalence: str = "channel"
    repeater_egr_range: tuple[int, int] = (16, 128)
    multipath_cost: str = "inv_egr"

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ConfigError(f"id: must be a string, got {self.id!r}")
        if not isinstance(self.include_exhaustive, bool):
            raise ConfigError(
                f"include_exhaustive: must be true or false, got {self.include_exhaustive!r}")
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind: must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if not self.seeds:
            raise ConfigError("seeds: must be non-empty")
        for name in ("seeds", "egr_range", "repeater_egr_range", "extent"):
            values = getattr(self, name)
            if values is not None and not all(map(_is_int, values)):
                raise ConfigError(f"{name}: values must be integers, got {values!r}")
        for name in ("chain_hops", "chain_egr", "hop_separation", "cutoff", "max_paths"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        for name in ("gate_fidelities", "channel_fidelities"):
            for value in getattr(self, name):
                if not (_is_int(value) or isinstance(value, float)):
                    raise ConfigError(f"{name}: values must be numbers, got {value!r}")
        if not self.gate_fidelities:
            raise ConfigError("gate_fidelities: must be non-empty")
        for g in self.gate_fidelities:
            # Sets eta too, and a swap with eta <= 0.5 leaves no entanglement.
            if not 0.5 < g <= 1.0:
                raise ConfigError(f"gate_fidelities: values must be in (0.5, 1], got {g}")
        if not self.channel_fidelities:
            raise ConfigError("channel_fidelities: must be non-empty")
        for f in self.channel_fidelities:
            if not 0.25 <= f <= 1.0:
                raise ConfigError(f"channel_fidelities: values must be in [0.25, 1], got {f}")
        if not 1 <= self.chain_hops <= MAX_CHAIN_HOPS:
            raise ConfigError(f"chain_hops: must be 1..{MAX_CHAIN_HOPS}, got {self.chain_hops}")
        if not 1 <= self.chain_egr <= MAX_EGR:
            raise ConfigError(f"chain_egr: must be 1..2**64, got {self.chain_egr}")
        if not self.topologies:
            raise ConfigError("topologies: must be non-empty")
        for kind in self.topologies:
            if kind not in LATTICE_KINDS:
                raise ConfigError(f"topologies: unknown lattice {kind!r}")
        if self.hop_separation < 1:
            raise ConfigError(f"hop_separation: must be >= 1, got {self.hop_separation}")
        rows, cols = self.resolved_extent()
        if cols < self.hop_separation + 1 or rows < 1:
            raise ConfigError(
                f"extent: {rows}x{cols} cannot hold hop separation {self.hop_separation}")
        if not 1 <= self.egr_range[0] <= self.egr_range[1] <= MAX_EGR:
            raise ConfigError(f"egr_range: invalid range {self.egr_range}, must be in 1..2**64")
        if not 1 <= self.cutoff <= MAX_CHAIN_HOPS:
            # A longer path has no purification plan to score.
            raise ConfigError(f"cutoff: must be 1..{MAX_CHAIN_HOPS}, got {self.cutoff}")
        if self.kind == "route-compare" and not (self.cost_variants or self.include_exhaustive):
            raise ConfigError(
                "cost_variants: must be non-empty when include_exhaustive is false")
        for variant in self.cost_variants:
            if variant not in [c.value for c in LinkCost]:
                raise ConfigError(f"cost_variants: unknown cost {variant!r}")
        if self.max_paths < 1:
            raise ConfigError(f"max_paths: must be >= 1, got {self.max_paths}")
        if self.egr_equivalence not in ("channel", "repeater"):
            raise ConfigError(
                f"egr_equivalence: must be 'channel' or 'repeater', got {self.egr_equivalence!r}")
        # A repeater range inside 1..2**64 scales to a channel range inside it too.
        if not 1 <= self.repeater_egr_range[0] <= self.repeater_egr_range[1] <= MAX_EGR:
            raise ConfigError(f"repeater_egr_range: invalid range {self.repeater_egr_range}, "
                              "must be in 1..2**64")
        if self.multipath_cost not in [c.value for c in LinkCost]:
            raise ConfigError(f"multipath_cost: unknown cost {self.multipath_cost!r}")
        # A repeated value would run its cells again and write their rows twice.
        for name in ("seeds", "gate_fidelities", "channel_fidelities", "topologies",
                     "cost_variants"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name}: values must be distinct, got {values!r}")

    def resolved_extent(self) -> tuple[int, int]:
        return self.extent if self.extent is not None else default_extent(self.hop_separation)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        for required in ("id", "kind"):
            if required not in raw:
                raise ConfigError(f"{required}: field is required")
        data = dict(raw)
        if "seeds" in data:
            data["seeds"] = _parse_seeds(data["seeds"])
        pairs = ("egr_range", "repeater_egr_range", "extent")
        for name in ("gate_fidelities", "channel_fidelities", "topologies",
                     "cost_variants") + pairs:
            if name not in data or (name == "extent" and data[name] is None):
                continue
            if not isinstance(data[name], (list, tuple)):
                raise ConfigError(f"{name}: expected a list, got {data[name]!r}")
            if name in pairs and len(data[name]) != 2:
                raise ConfigError(f"{name}: expected two values, got {data[name]!r}")
            data[name] = tuple(data[name])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, or nesting too deep to parse.
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
        return cls.from_dict(raw)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_seeds(raw) -> tuple[int, ...]:
    """A seed list or ``{start, count}`` as a tuple; the config checks the values."""
    if isinstance(raw, dict) and all(map(_is_int, (raw.get("start"), raw.get("count")))):
        if not 1 <= raw["count"] <= MAX_SEED_COUNT:
            raise ConfigError(
                f"seeds: count must be 1..{MAX_SEED_COUNT}, got {raw['count']}")
        return tuple(range(raw["start"], raw["start"] + raw["count"]))
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    raise ConfigError(f"seeds: expected a list of integers or {{start, count}}, got {raw!r}")


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    seed: int
    topology: str
    gate_fidelity: float
    channel_fidelity: float
    cost_variant: str
    path_hops: int
    plan: str
    rate: float
    final_fidelity: float
    d_total: float
    d_total_normalized: float


RESULT_FIELDS = [f.name for f in fields(ResultRow)]


def _row(config, seed, topology, gate, channel, variant, hops=0, result=None,
         d_total=None, scale=1.0) -> ResultRow:
    """One table row. ``result`` is the route's (plan, evaluation); without
    one the route is recorded as unusable, all zeros. ``d_total`` defaults
    to the plan's own; its normalized column divides it by ``scale``."""
    if result is None:
        return ResultRow(config.id, seed, topology, gate, channel, variant, hops,
                         "-", 0.0, 0.0, 0.0, 0.0)
    plan, evaluation = result
    if d_total is None:
        d_total = evaluation.d_total
    return ResultRow(config.id, seed, topology, gate, channel, variant, hops,
                     plan.summary(), evaluation.rate, evaluation.final_fidelity,
                     d_total, d_total / scale)


def _network(config, seed, gate, channel, topology, egr_range):
    """The cell's lattice, with its source and destination nodes."""
    extent = config.resolved_extent()
    spec = TopologySpec(topology, extent, *egr_range, channel, seed)
    net = generate_network(spec, NoiseParams(gate, gate))
    s, d = endpoints_for_separation(extent, config.hop_separation)
    return net, s, d


def _chain_rows(config, seed, gate, channel, topology) -> list[ResultRow]:
    hops = config.chain_hops
    chain = Chain((config.chain_egr,) * hops, (channel,) * hops, NoiseParams(gate, gate))
    return [_row(config, seed, topology, gate, channel, "-", hops, optimize_chain(chain),
                 scale=config.chain_egr)]


def _route_rows(config, seed, gate, channel, topology) -> list[ResultRow]:
    # The exhaustive search starts from every cost's path, whichever rows
    # the config asks for.
    costs = (tuple(LinkCost) if config.include_exhaustive
             else tuple(map(LinkCost, config.cost_variants)))
    net, s, d = _network(config, seed, gate, channel, topology, config.egr_range)
    cell = (config, seed, topology, gate, channel)
    mean_egr = net.mean_channel_egr()
    routes = weighted_routes(net, s, d, costs)
    rows = []
    if config.include_exhaustive:
        routed = best_path_exhaustive(net, s, d, config.cutoff, routes)
        if routed is None:
            rows.append(_row(*cell, "exhaustive"))
        else:
            rows.append(_row(*cell, "exhaustive", len(routed.path) - 1,
                             (routed.plan, routed.evaluation), scale=mean_egr))
    for variant in config.cost_variants:
        if not routes:
            rows.append(_row(*cell, variant))
            continue
        # A route beyond the decoherence budget exists but no repeater chain
        # that long works: its result is None, an unusable row.
        path, result = routes[LinkCost(variant)]
        rows.append(_row(*cell, variant, len(path) - 1, result, scale=mean_egr))
    return rows


def _multipath_rows(config, seed, gate, channel, topology) -> list[ResultRow]:
    if config.egr_equivalence == "repeater":
        egr_range = scaled_egr_range(topology, *config.repeater_egr_range)
    else:
        egr_range = config.egr_range
    net, s, d = _network(config, seed, gate, channel, topology, egr_range)
    cell = (config, seed, topology, gate, channel, config.multipath_cost)
    routed, cumulative = multipath_greedy(
        net, s, d, config.max_paths, LinkCost(config.multipath_cost))
    if not routed:
        return [_row(*cell)]
    mean_egr = net.mean_channel_egr()
    return [_row(*cell, len(rp.path) - 1, (rp.plan, rp.evaluation), d_total=cum_d,
                 scale=mean_egr)
            for rp, cum_d in zip(routed, cumulative)]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured experiment; rows come back canonically sorted.

    One walk of the cell grid, seeds x gate fidelities x channel fidelities
    x topologies, runs every kind; each cell's rows come from the kind's
    row builder. A chain sweep has no lattice: it walks only its first
    listed seed and the one topology ``chain``. The rows are then sorted
    by (seed, gate, channel, topology, cost variant), stably.

    Multipath rows report the cumulative d_total after each discovered path
    (discovery order preserved within a group); rate, fidelity and plan
    columns always describe the individual path.
    """
    chain = config.kind == "chain-sweep"
    cell_rows = {"chain-sweep": _chain_rows, "route-compare": _route_rows,
                 "multipath-compare": _multipath_rows}[config.kind]
    grid = itertools.product(config.seeds[:1] if chain else config.seeds,
                             config.gate_fidelities, config.channel_fidelities,
                             ("chain",) if chain else config.topologies)
    rows = [row for cell in grid for row in cell_rows(config, *cell)]
    rows.sort(key=lambda r: (r.seed, r.gate_fidelity, r.channel_fidelity,
                             r.topology, r.cost_variant))
    return rows


def build_metadata(config: ExperimentConfig) -> dict:
    digest = hashlib.sha256(config.canonical_json().encode("utf-8")).hexdigest()
    return {
        "config_hash": f"sha256:{digest}",
        "generator": GENERATOR_NAME,
        "artifact": f"entroute/{__version__}",
    }


def _quantize(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_results(rows: list[ResultRow], fmt: str, path, metadata: dict | None = None) -> None:
    """Write rows as CSV (comment-header metadata) or JSON (metadata object).

    Floats are rendered at 12 significant digits in both formats, so a CSV
    and a JSON dump of the same rows parse field-for-field identical.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    metadata = metadata or {}
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(metadata):
                fh.write(f"# {key}={metadata[key]}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            for row in rows:
                writer.writerow([_csv_cell(getattr(row, name)) for name in RESULT_FIELDS])
    else:
        doc = {
            "metadata": metadata,
            "rows": [
                {name: _quantize(getattr(row, name)) for name in RESULT_FIELDS}
                for row in rows
            ],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
