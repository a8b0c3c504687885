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
import itertools
import json
from dataclasses import MISSING, asdict, dataclass, fields

from . import __version__
from .chainopt import MAX_CHAIN_HOPS, Chain, optimize_chain
from .netgraph import (GENERATOR_NAME, LATTICE_KINDS, TopologySpec, check_egr, check_egr_range,
                       check_int, default_extent, endpoints_for_separation, generate_network,
                       scaled_egr_range)
from .routing import LinkCost, best_path_exhaustive, multipath_greedy, weighted_routes
from .routing import shortest_weighted_path  # noqa: F401  (rebound by bench/layers.py)
from .werner import NoiseParams, check_fidelity

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
        for name, (shape, test) in _RULES.items():
            value = getattr(self, name)
            try:
                if shape == "one":
                    test(value)
                elif not (value is None and shape == "pair or none"):
                    object.__setattr__(self, name, _tested(shape, test, value))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        try:
            endpoints_for_separation(self.resolved_extent(), self.hop_separation)
        except ValueError as exc:
            raise ConfigError(f"extent: {exc}") from None
        if self.kind == "route-compare" and not (self.cost_variants or self.include_exhaustive):
            raise ConfigError(
                "cost_variants: must be non-empty when include_exhaustive is false")

    def resolved_extent(self) -> tuple[int, int]:
        return self.extent if self.extent is not None else default_extent(self.hop_separation)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
        unknown = set(raw) - _RULES.keys()
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in raw:
                raise ConfigError(f"{f.name}: field is required")
        data = dict(raw)
        if "seeds" in data:
            data["seeds"] = _parse_seeds(data["seeds"])
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


def _parse_seeds(raw):
    """A ``{start, count}`` seed range as a tuple; any other value is left as it is."""
    if not isinstance(raw, dict):
        return raw
    if raw.keys() != {"start", "count"}:
        raise ConfigError(f"seeds: a range must be {{start, count}}, got {raw!r}")
    try:
        start = check_int(raw["start"], "start")
        return tuple(range(start, start + check_int(raw["count"], "count", 1, MAX_SEED_COUNT)))
    except ValueError as exc:
        raise ConfigError(f"seeds: {exc}") from None


def _test(holds, want: str):
    """A value test: it returns the value if ``holds(value)``, else raises ValueError."""
    def test(value):
        if not holds(value):
            raise ValueError(f"must be {want}, got {value!r}")
        return value
    return test


_NUMBER = _test(lambda v: type(v) is int or isinstance(v, float), "a number")
_POSITIVE = _test(lambda n: type(n) is int and n >= 1, "an integer >= 1")
# A longer chain or path has no purification plan to score.
_HOPS = _test(lambda n: type(n) is int and 1 <= n <= MAX_CHAIN_HOPS,
              f"an integer in 1..{MAX_CHAIN_HOPS}")

# Each field's rule: its shape and a test that raises ValueError on a bad
# value, mostly the check of the module that owns the value. A shape is
# "one" value; a "list" of distinct values, non-empty ("list or empty" may
# be empty), each value tested; or a "pair" of values, tested as one value
# ("pair or none" may be None). A list or pair is held as a tuple.
_RULES = {
    "id": ("one", _test(lambda v: isinstance(v, str), "a string")),
    "kind": ("one", _test(lambda v: v in EXPERIMENT_KINDS, f"one of {EXPERIMENT_KINDS}")),
    "seeds": ("list", _test(lambda v: type(v) is int, "an integer")),
    # A gate fidelity sets both p2 and eta.
    "gate_fidelities": ("list", lambda g: NoiseParams(_NUMBER(g), g)),
    "channel_fidelities": ("list", lambda f: check_fidelity(_NUMBER(f))),
    "chain_hops": ("one", _HOPS),
    "chain_egr": ("one", lambda egr: check_egr(egr, "chain egr")),
    "topologies": ("list", _test(lambda v: v in LATTICE_KINDS, f"one of {LATTICE_KINDS}")),
    "hop_separation": ("one", _POSITIVE),
    "extent": ("pair or none", lambda pair: tuple(map(_POSITIVE, pair))),
    "egr_range": ("pair", lambda pair: check_egr_range(*pair)),
    "cutoff": ("one", _HOPS),
    "cost_variants": ("list or empty", LinkCost),
    "include_exhaustive": ("one", _test(lambda v: isinstance(v, bool), "true or false")),
    "max_paths": ("one", _POSITIVE),
    "egr_equivalence": ("one", _test(lambda v: v in ("channel", "repeater"),
                                     "'channel' or 'repeater'")),
    # A repeater range of EGRs scales to a channel range of EGRs on every lattice.
    "repeater_egr_range": ("pair", lambda pair: check_egr_range(*pair)),
    "multipath_cost": ("one", LinkCost),
}


def _tested(shape: str, test, values) -> tuple:
    """``values``, a list or pair of the given shape, as a tested tuple."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list, got {values!r}")
    values = tuple(values)
    if shape.startswith("pair"):
        if len(values) != 2:
            raise ValueError(f"expected two values, got {values!r}")
        test(values)
    elif not values and shape == "list":
        raise ValueError("must be non-empty")
    else:
        for value in values:
            test(value)
        # A repeated value would run its cells again and write their rows twice.
        if len(set(values)) != len(values):
            raise ValueError(f"values must be distinct, got {values!r}")
    return values


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
    costs = tuple(LinkCost) if config.include_exhaustive else config.cost_variants
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
    routed, cumulative = multipath_greedy(net, s, d, config.max_paths, config.multipath_cost)
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
    # Imported here, so that importing the package does not load hashlib.
    import hashlib

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
