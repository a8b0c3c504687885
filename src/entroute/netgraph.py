"""Repeater-network model and seeded lattice generators.

Networks are undirected simple graphs of repeater nodes joined by channels,
each channel carrying an integer entanglement generation rate (raw pairs per
timestep) and a raw pair fidelity. Triangular, square and hexagonal grids
are generated deterministically from a topology spec: identical specs yield
byte-identical networks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .werner import NoiseParams, PERFECT, check_fidelity, check_type

NETWORK_FORMAT = "entroute-network/1"
GENERATOR_NAME = "splitmix64/v1"

LATTICE_KINDS = ("triangular", "square", "hexagonal")
INTERIOR_DEGREE = {"triangular": 6, "square": 4, "hexagonal": 3}

_MASK64 = (1 << 64) - 1
# The generator draws each EGR from one 64-bit word, so any EGR range inside
# 1..MAX_EGR holds at most the 2**64 values a draw can pick from.
MAX_EGR = 1 << 64


def check_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` if it is an exact ``int`` (no bool, float or other subclass)
    in lo..hi, else a ValueError naming ``what``. A bound of None is open;
    ``hi`` is given only with ``lo``."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValueError(f"{what} must be an integer{span}, got {value!r}")


def is_egr(egr) -> bool:
    """Whether ``egr`` is a valid EGR: an exact ``int`` in 1..MAX_EGR.

    Every rate and D computed from such an EGR is a finite float.
    """
    return type(egr) is int and 1 <= egr <= MAX_EGR


def check_egr(egr, what: str) -> None:
    """Raise ValueError, naming ``what``, unless ``egr`` is an EGR."""
    if not is_egr(egr):
        raise ValueError(f"{what} must be an integer in 1..2**64, got {egr!r}")


def check_egr_range(lo, hi, what: str = "egr range bounds") -> None:
    """Raise ValueError, naming ``what``, unless ``lo`` and ``hi`` are EGRs with lo <= hi."""
    if not (is_egr(lo) and is_egr(hi) and lo <= hi):
        raise ValueError(f"{what} must be integers in 1..2**64, in order, got [{lo!r}, {hi!r}]")


def splitmix64(seed: int):
    """Infinite stream of 64-bit integers from the splitmix64 generator."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class Channel:
    """An undirected channel between two repeaters (stored with u < v)."""

    u: int
    v: int
    egr: int
    raw_fidelity: float

    def __post_init__(self):
        check_int(self.u, "channel endpoint u")
        check_int(self.v, "channel endpoint v")
        if self.u == self.v:
            raise ValueError("channel endpoints must be distinct")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)
        check_egr(self.egr, "channel egr")
        check_fidelity(self.raw_fidelity)

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v)


def _check_extent(extent) -> list[int]:
    """The (rows, cols) of ``extent``, a pair of integers >= 1, else a ValueError."""
    if not (type(extent) is tuple and len(extent) == 2):
        raise ValueError(f"extent must be a (rows, cols) pair, got {extent!r}")
    return [check_int(n, f"each entry of extent {extent!r}", lo=1) for n in extent]


@dataclass(frozen=True)
class TopologySpec:
    """Parameters of one generated lattice instance."""

    kind: str
    extent: tuple[int, int]  # (rows, cols) of lattice sites
    egr_min: int
    egr_max: int
    raw_fidelity: float
    seed: int

    def __post_init__(self):
        if self.kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        rows, cols = _check_extent(self.extent)
        if rows * cols < 2:
            raise ValueError(f"extent {self.extent} has fewer than 2 nodes")
        check_egr_range(self.egr_min, self.egr_max)
        check_fidelity(self.raw_fidelity)
        check_int(self.seed, "seed")


class Network:
    """Immutable repeater network: two flat link tables and the noise model.

    ``links`` maps each channel's endpoints (u, v), u < v, to its
    (egr, raw_fidelity), in ascending key order. ``peers`` maps each node to
    its ((peer, egr), ...) in ascending peer order. Searches read the two
    tables directly, and neither may be mutated. ``Channel`` objects are made
    only at the API: the constructor validates through them, and
    ``channel()`` and ``channels()`` build them on request.
    """

    def __init__(self, channels, noise: NoiseParams = PERFECT, seed: int | None = None):
        if seed is not None:
            check_int(seed, "seed")
        links: dict[tuple[int, int], tuple[int, float]] = {}
        try:
            channels = iter(channels)
        except TypeError:
            raise ValueError(f"channels must be an iterable of Channel, got {channels!r}") from None
        for ch in channels:
            if check_type(ch, Channel, "channel").key in links:
                raise ValueError(f"duplicate channel {ch.key}")
            links[ch.key] = (ch.egr, ch.raw_fidelity)
        self._fill(dict(sorted(links.items())), noise, seed)

    @classmethod
    def _from_links(cls, links: dict, noise: NoiseParams, seed: int | None) -> Network:
        """A network on ``links``, already valid and in ascending key order."""
        net = cls.__new__(cls)
        net._fill(links, noise, seed)
        return net

    def _fill(self, links: dict, noise: NoiseParams, seed: int | None) -> None:
        self.noise = check_type(noise, NoiseParams, "noise")
        self.seed = seed
        self.links = links
        # Walking the keys in ascending order appends each node's lower peers
        # (keys (w, x), w < x) before its higher ones (keys (x, v)), each in
        # ascending order, so no node's peers need a sort.
        peers: dict[int, list] = {}
        for (u, v), (egr, _) in links.items():
            peers.setdefault(u, []).append((v, egr))
            peers.setdefault(v, []).append((u, egr))
        self.nodes = tuple(sorted(peers))
        self.peers = {node: tuple(peers[node]) for node in self.nodes}

    def __contains__(self, node) -> bool:
        return type(node) is int and node in self.peers

    def channel(self, u, v) -> Channel:
        key = (u, v) if u < v else (v, u)
        return Channel(*key, *self.links[key])

    def channels(self) -> list[Channel]:
        return [Channel(u, v, egr, f) for (u, v), (egr, f) in self.links.items()]

    def mean_channel_egr(self) -> float:
        return sum(egr for egr, _ in self.links.values()) / len(self.links)


def _lattice_edges(kind: str, rows: int, cols: int) -> list[tuple[int, int]]:
    """Every channel of the lattice, in ascending key order: for ascending
    node u, (u, u + 1), then (u, u + cols), then (u, u + cols + 1)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                if kind != "hexagonal" or (r + c) % 2 == 0:
                    edges.append((u, u + cols))
                if kind == "triangular" and c + 1 < cols:
                    edges.append((u, u + cols + 1))
    return edges


def generate_network(spec: TopologySpec, noise: NoiseParams = PERFECT) -> Network:
    """Generate the lattice described by ``spec``.

    Channel EGRs are drawn independently and uniformly from the integer
    range [egr_min, egr_max] using a splitmix64 stream seeded from
    spec.seed, visiting channels in canonical (sorted endpoint) order; a
    draw at or above the largest multiple of the range's size below 2**64 is
    rejected, so no EGR is favoured. The draws fill ``Network.links``
    directly: the spec has validated the range and the fidelity.
    """
    rows, cols = check_type(spec, TopologySpec, "spec").extent
    low, span = spec.egr_min, spec.egr_max - spec.egr_min + 1
    limit = ((1 << 64) // span) * span
    stream = splitmix64(spec.seed)
    links = {}
    for key in _lattice_edges(spec.kind, rows, cols):
        value = next(stream)
        while value >= limit:
            value = next(stream)
        links[key] = (low + value % span, spec.raw_fidelity)
    return Network._from_links(links, noise, spec.seed)


def repeater_egr(net: Network, node) -> int:
    """Sum of raw EGR over the channels incident to ``node``."""
    if node not in check_type(net, Network, "net"):
        raise ValueError(f"node {node!r} not in network")
    return sum(egr for _, egr in net.peers[node])


def default_extent(hops: int) -> tuple[int, int]:
    """Smallest lattice extent placing the endpoints ``hops`` apart along a
    central row with two rings of slack on every side."""
    return (5, check_int(hops, "hops", lo=1) + 5)


def endpoints_for_separation(extent: tuple[int, int], hops: int) -> tuple[int, int]:
    """Source and destination node ids at the given hop separation.

    Both nodes sit on the central row, so their hop distance equals the
    column difference on all three lattice kinds.
    """
    rows, cols = _check_extent(extent)
    if check_int(hops, "hops", lo=1) + 1 > cols:
        raise ValueError(f"extent {extent} cannot hold hop separation {hops}")
    row = rows // 2
    col = (cols - 1 - hops) // 2
    return (row * cols + col, row * cols + col + hops)


def scaled_egr_range(kind: str, repeater_lo: int, repeater_hi: int) -> tuple[int, int]:
    """Channel EGR range giving every lattice the same mean repeater EGR.

    Interior repeater EGR is degree * mean channel EGR; dividing the target
    repeater range by the interior degree (6, 4, 3) puts the channel ranges
    in the 2:3:4 ratio for triangular, square, hexagonal grids. The bounds
    are integers with 1 <= repeater_lo <= repeater_hi; the rounding is in
    integers, so they need no cap.
    """
    if kind not in LATTICE_KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    check_int(repeater_lo, "repeater_lo", lo=1)
    check_int(repeater_hi, "repeater_hi", lo=repeater_lo)
    degree = INTERIOR_DEGREE[kind]
    lo = max(1, _nearest(repeater_lo, degree))
    hi = max(lo, _nearest(repeater_hi, degree))
    return lo, hi


def _nearest(n: int, d: int) -> int:
    """``round(n / d)``, halves to even, in integers: no float to overflow."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - (r == 0 and q % 2 == 1)


def network_to_json(net: Network) -> str:
    """Serialize a network as a versioned JSON document."""
    check_type(net, Network, "net")
    doc = {
        "format": NETWORK_FORMAT,
        "nodes": list(net.nodes),
        "channels": [
            {"u": u, "v": v, "egr": egr, "raw_fidelity": raw_fidelity}
            for (u, v), (egr, raw_fidelity) in net.links.items()
        ],
        "noise": {"p2": net.noise.p2, "eta": net.noise.eta},
        "seed": net.seed,
    }
    return json.dumps(doc, indent=2) + "\n"


_JSON_TYPES = {"integer": int, "number": (int, float), "list": list}


def _field(doc, name: str, where: str, kind: str | None = None):
    """``doc[name]``; a ValueError naming the field if ``doc`` has none, or if
    ``kind`` ("integer", "number" or "list") is given and the value is not
    one. A JSON true or false is not a number."""
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"{where}: expected a JSON object with field {name!r}")
    value = doc[name]
    if kind is not None and (isinstance(value, bool)
                             or not isinstance(value, _JSON_TYPES[kind])):
        raise ValueError(f"{where}: field {name!r} must be a JSON {kind}, got {value!r}")
    return value


_CHANNEL_FIELDS = (("u", "integer"), ("v", "integer"), ("egr", "integer"),
                   ("raw_fidelity", "number"))


def network_from_json(text: str) -> Network:
    """Load a ``network_to_json`` document; a malformed one raises ValueError
    naming the field. Keys the format does not use, as the ``t_decoh`` of
    older files, are ignored."""
    try:
        doc = json.loads(check_type(text, str, "text"))
    except RecursionError as exc:  # nesting too deep to parse
        raise ValueError(f"network: not valid JSON ({exc})") from exc
    if _field(doc, "format", "network") != NETWORK_FORMAT:
        raise ValueError(f"unsupported network format {doc['format']!r}")
    channels = [Channel(*(_field(ch, name, "channel", kind) for name, kind in _CHANNEL_FIELDS))
                for ch in _field(doc, "channels", "network", "list")]
    noise = _field(doc, "noise", "network")
    noise = NoiseParams(_field(noise, "p2", "noise", "number"),
                        _field(noise, "eta", "noise", "number"))
    seed = None if doc.get("seed") is None else _field(doc, "seed", "network", "integer")
    return Network(channels, noise=noise, seed=seed)


def save_network(net: Network, path) -> None:
    text = network_to_json(net)  # a bad net raises before the file is opened
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_network(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return network_from_json(fh.read())
