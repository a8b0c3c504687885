import hashlib
import itertools
import json
import re
from collections import deque
from enum import IntEnum
from statistics import mean

import pytest

from entroute import chainopt, harness, netgraph
from entroute.chainopt import (MAX_CHAIN_HOPS, Chain, PurificationPlan, d_bound_by_hops,
                               enumerate_segmentations, no_purification_plan, optimize_chain)
from entroute.harness import ExperimentConfig
from entroute.netgraph import (LATTICE_KINDS, Channel, Network, TopologySpec, default_extent,
                               endpoints_for_separation, generate_network, load_network,
                               network_from_json, network_to_json, repeater_egr,
                               save_network, scaled_egr_range)
from entroute.purify import LEAF, PurificationCircuit, circuit_for
from entroute.routing import best_path_exhaustive, enumerate_paths, multipath_greedy
from entroute.werner import PERFECT, NoiseParams


def _bfs_distance(net, a, b):
    dist = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            return dist[u]
        for v, _ in net.peers[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return None


def test_square_3x3_counts():
    net = generate_network(TopologySpec("square", (3, 3), 8, 32, 0.99, seed=1))
    assert len(net.nodes) == 9
    assert len(net.channels()) == 12
    assert len(net.peers[4]) == 4  # center node


def test_interior_degrees():
    for kind, degree in (("triangular", 6), ("square", 4), ("hexagonal", 3)):
        net = generate_network(TopologySpec(kind, (5, 9), 8, 32, 0.99, seed=3))
        center = 2 * 9 + 4
        assert len(net.peers[center]) == degree


def test_degree_ordering_across_sizes():
    for extent in ((5, 7), (5, 9), (7, 11)):
        center = (extent[0] // 2) * extent[1] + extent[1] // 2
        degrees = {
            kind: len(generate_network(
                TopologySpec(kind, extent, 8, 32, 0.99, seed=5)).peers[center])
            for kind in ("triangular", "square", "hexagonal")
        }
        assert degrees["triangular"] > degrees["square"] > degrees["hexagonal"]


def test_generated_lattices_connected_simple():
    for kind in ("triangular", "square", "hexagonal"):
        net = generate_network(TopologySpec(kind, (5, 9), 8, 32, 0.99, seed=2))
        reached = {net.nodes[0]}
        queue = deque([net.nodes[0]])
        while queue:
            u = queue.popleft()
            for v, _ in net.peers[u]:
                if v not in reached:
                    reached.add(v)
                    queue.append(v)
        assert reached == set(net.nodes)
        for ch in net.channels():
            assert ch.u < ch.v  # no self loops, canonical order


def test_egr_bounds():
    spec = TopologySpec("triangular", (5, 9), 8, 32, 0.99, seed=9)
    net = generate_network(spec)
    egrs = [ch.egr for ch in net.channels()]
    assert all(8 <= e <= 32 for e in egrs)
    assert len(set(egrs)) > 1  # actually random, not constant


def test_generation_is_deterministic():
    spec = TopologySpec("hexagonal", (5, 9), 8, 32, 0.91, seed=123)
    a = network_to_json(generate_network(spec))
    b = network_to_json(generate_network(spec))
    assert a == b
    other = network_to_json(generate_network(
        TopologySpec("hexagonal", (5, 9), 8, 32, 0.91, seed=124)))
    assert other != a


def test_generated_networks_match_their_pinned_digest():
    # sha256 of network_to_json over every lattice kind, two extents, the
    # configs' two kinds of EGR range and five seeds: a changed draw, channel
    # order, node set or field changes it.
    digest = hashlib.sha256()
    for kind in LATTICE_KINDS:
        for extent in ((3, 4), (5, 9)):
            for lo, hi in ((8, 32), scaled_egr_range(kind, 16, 128)):
                for seed in (0, 1, 7, 123, 2**63 + 5):
                    spec = TopologySpec(kind, extent, lo, hi, 0.91, seed)
                    digest.update(network_to_json(
                        generate_network(spec, NoiseParams(0.99, 0.98))).encode())
    assert digest.hexdigest() == (
        "1a0a008f93c01429c2e662f396a05b6295a46737b4f8e0f26961fddcc4bc2a1c")


def test_generated_network_equals_one_built_from_its_channels(monkeypatch):
    # Generation emits its channels in key order without a sort. A one-row
    # extent has no down channel, a one-column one no right or diagonal one.
    for kind, extent in itertools.product(LATTICE_KINDS, ((4, 6), (1, 5), (5, 1), (2, 2))):
        with monkeypatch.context() as patch:
            patch.setattr(netgraph, "Channel", None)  # generation builds none
            net = generate_network(TopologySpec(kind, extent, 3, 21, 0.93, seed=11),
                                   NoiseParams(0.99, 0.98))
        again = Network(reversed(net.channels()), net.noise, net.seed)
        assert again.nodes == net.nodes
        assert list(again.links.items()) == list(net.links.items())
        assert again.peers == net.peers
        for node in net.nodes:
            peers = [peer for peer, _ in net.peers[node]]
            assert peers == sorted(peers)
        assert again.channels() == net.channels()


def test_repeater_egr_sums_incident_channels():
    net = Network([Channel(0, 1, 10, 0.9), Channel(0, 2, 6, 0.9)])
    assert repeater_egr(net, 0) == 16
    assert repeater_egr(net, 1) == 10
    with pytest.raises(ValueError, match="node 99 not in network"):
        repeater_egr(net, 99)


def test_scaled_ranges_follow_2_3_4_rule():
    tri = scaled_egr_range("triangular", 16, 128)
    sq = scaled_egr_range("square", 16, 128)
    hexa = scaled_egr_range("hexagonal", 16, 128)
    assert tri == (3, 21)
    assert sq == (4, 32)
    assert hexa == (5, 43)
    # Range midpoints are exactly 2:3:4, so interior repeater EGR means match.
    mids = [sum(r) / 2 for r in (tri, sq, hexa)]
    assert mids == [12.0, 18.0, 24.0]
    assert 6 * mids[0] == 4 * mids[1] == 3 * mids[2] == 72.0


def test_scaled_ranges_round_as_float_division_does():
    # Integer rounding, so a huge repeater range cannot overflow a float;
    # halves go to the even integer, as round() does.
    for kind, degree in netgraph.INTERIOR_DEGREE.items():
        for lo in range(1, 400):
            assert scaled_egr_range(kind, lo, lo) == (max(1, round(lo / degree)),) * 2
    assert scaled_egr_range("hexagonal", 1, 10**400) == (1, 10**400 // 3)


def test_scaled_ranges_reject_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown lattice kind 'ring'"):
        scaled_egr_range("ring", 16, 128)


def test_repeater_egr_means_match_across_topologies():
    # Recompute interior repeater EGR after scaling: per-node means across
    # topologies agree within sampling error.
    means = {}
    for kind, degree in (("triangular", 6), ("square", 4), ("hexagonal", 3)):
        lo, hi = scaled_egr_range(kind, 16, 128)
        samples = []
        for seed in range(40):
            net = generate_network(TopologySpec(kind, (5, 9), lo, hi, 0.91, seed=seed))
            center = 2 * 9 + 4
            assert len(net.peers[center]) == degree
            samples.append(repeater_egr(net, center))
        means[kind] = mean(samples)
    for value in means.values():
        assert value == pytest.approx(72.0, rel=0.06)


def test_endpoints_separation_is_exact_hop_distance():
    for kind in ("triangular", "square", "hexagonal"):
        for hops in (2, 4):
            extent = default_extent(hops)
            net = generate_network(TopologySpec(kind, extent, 8, 32, 0.99, seed=4))
            s, d = endpoints_for_separation(extent, hops)
            assert _bfs_distance(net, s, d) == hops


def test_endpoints_require_large_enough_extent():
    with pytest.raises(ValueError):
        endpoints_for_separation((5, 4), 4)


def test_export_import_round_trip():
    spec = TopologySpec("triangular", (3, 5), 8, 32, 0.97, seed=77)
    net = generate_network(spec, NoiseParams(0.99, 0.98))
    text = network_to_json(net)
    back = network_from_json(text)
    assert network_to_json(back) == text
    assert back.noise == net.noise
    assert back.seed == 77
    # A network built without a seed writes null, and reads back the same.
    unseeded = Network(net.channels(), net.noise)
    assert network_from_json(network_to_json(unseeded)).seed is None


def test_import_rejects_unknown_format():
    with pytest.raises(ValueError):
        network_from_json('{"format": "something-else/9"}')


def _doc(**changes):
    doc = {"format": "entroute-network/1", "nodes": [0, 1],
           "channels": [{"u": 0, "v": 1, "egr": 3, "raw_fidelity": 0.9}],
           "noise": {"p2": 1.0, "eta": 1.0}, "seed": 4}
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


def test_import_ignores_the_old_t_decoh_key():
    net = network_from_json(json.dumps(_doc(t_decoh=7)))
    assert [(ch.key, ch.egr) for ch in net.channels()] == [((0, 1), 3)]
    assert "t_decoh" not in network_to_json(net)
    assert not hasattr(net, "t_decoh")


@pytest.mark.parametrize("text, field", [
    ("[]", "network"),
    (json.dumps(_doc(channels=None)), "channels"),
    (json.dumps(_doc(noise=None)), "noise"),
    (json.dumps(_doc(noise={"p2": 1.0})), "eta"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "raw_fidelity": 0.9}])), "egr"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "egr": "3", "raw_fidelity": 0.9}])), "egr"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "egr": 3.5, "raw_fidelity": 0.9}])), "egr"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "egr": 2**64 + 1, "raw_fidelity": 0.9}])),
     "egr"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "egr": 3, "raw_fidelity": "0.9"}])),
     "raw_fidelity"),
    (json.dumps(_doc(channels=[{"u": 0, "v": 1, "egr": 3, "raw_fidelity": True}])),
     "raw_fidelity"),
    (json.dumps(_doc(channels=[{"u": "a", "v": 1, "egr": 3, "raw_fidelity": 0.9}])), "'u'"),
    (json.dumps(_doc(channels=[{"u": 0.0, "v": 1, "egr": 3, "raw_fidelity": 0.9}])), "'u'"),
    (json.dumps(_doc(noise={"p2": "1", "eta": 1.0})), "p2"),
    (json.dumps({**_doc(), "channels": None}), "channels"),
    (json.dumps(_doc(seed="abc")), "seed"),
    (json.dumps(_doc(seed=2.5)), "seed"),
    (json.dumps(_doc(seed=True)), "seed"),
])
def test_import_rejects_malformed_documents_naming_the_field(text, field):
    with pytest.raises(ValueError, match=field):
        network_from_json(text)


def test_import_rejects_a_document_nested_too_deep_to_parse():
    with pytest.raises(ValueError, match="not valid JSON"):
        network_from_json("[" * 100000)


def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec("octagonal", (5, 9), 8, 32, 0.99, seed=1)
    with pytest.raises(ValueError):
        TopologySpec("square", (1, 1), 8, 32, 0.99, seed=1)
    with pytest.raises(ValueError):
        TopologySpec("square", (3, 3), 9, 8, 0.99, seed=1)
    # A negative pair passes the node-count check but has no nodes; a float
    # breaks range().
    for extent in ((-1, -5), (0, 5), (5, 0), (2.5, 4), (4, 2.0), (True, 4)):
        with pytest.raises(ValueError, match="extent"):
            TopologySpec("square", extent, 8, 32, 0.9, seed=1)
    # Each EGR is drawn from one 64-bit word: a wider range would reject
    # every draw, and generating from it would never return.
    for lo, hi in ((1, 10**30), (1, 2**64 + 1), (5, 2**64 + 5)):
        with pytest.raises(ValueError, match="egr range"):
            TopologySpec("square", (3, 3), lo, hi, 0.99, seed=1)
    # The generator fills the link table from the spec, so the spec's EGR
    # bounds must be integers.
    for lo, hi in ((8.0, 32), (8, 32.5), (True, 32)):
        with pytest.raises(ValueError, match="integers"):
            TopologySpec("square", (3, 3), lo, hi, 0.99, seed=1)
    # The generator's splitmix64 stream masks the seed as a 64-bit integer.
    for seed in (1.5, "1", None, True):
        with pytest.raises(ValueError, match="seed"):
            TopologySpec("square", (3, 4), 8, 32, 0.9, seed)
    with pytest.raises(ValueError):
        Channel(2, 2, 10, 0.9)
    with pytest.raises(ValueError):
        Channel(0, 1, 0, 0.9)
    for egr in ("3", 3.5, 3.0, True):
        with pytest.raises(ValueError, match="egr"):
            Channel(0, 1, egr, 0.9)
    # True passes the range test as 1, but network_to_json would write it as
    # `true`, which network_from_json refuses as a fidelity.
    with pytest.raises(ValueError, match="fidelity"):
        Channel(0, 1, 8, True)
    with pytest.raises(ValueError, match="fidelity"):
        TopologySpec("square", (2, 2), 8, 8, True, 1)


def test_one_egr_range_rule_keeps_each_callers_message():
    rule = r" must be integers in 1\.\.2\*\*64, in order, got \[9, 8\]$"
    with pytest.raises(ValueError, match="^egr range bounds" + rule):
        TopologySpec("square", (3, 3), 9, 8, 0.99, seed=1)
    with pytest.raises(ValueError, match="^min and max EGR" + rule):
        d_bound_by_hops(0.9, NoiseParams(), 9, 8, MAX_CHAIN_HOPS)
    netgraph.check_egr_range(8, 8)
    netgraph.check_egr_range(1, netgraph.MAX_EGR)
    for lo, hi in ((9, 8), (0, 8), (8, netgraph.MAX_EGR + 1), (True, 8), (8, 9.0)):
        with pytest.raises(ValueError, match="^egr range bounds"):
            netgraph.check_egr_range(lo, hi)


def test_channel_endpoints_canonicalized():
    ch = Channel(5, 2, 10, 0.9)
    assert (ch.u, ch.v) == (2, 5)


def test_generation_accepts_the_widest_egr_range():
    # 2**64 values: no draw is rejected, and each EGR is 1 plus its word.
    spec = TopologySpec("square", (2, 3), 1, 2**64, 0.99, seed=7)
    words = netgraph.splitmix64(7)
    assert [egr for egr, _ in generate_network(spec).links.values()] == [
        1 + next(words) for _ in range(7)]


def test_generation_rejects_a_draw_equal_to_the_rejection_limit():
    # Seed 0's first word w is above 2**63, so over the range [1, w] the
    # limit (2**64 // w) * w is w itself: that draw is rejected, and the
    # first channel takes the next word.
    words = netgraph.splitmix64(0)
    first, second = next(words), next(words)
    spec = TopologySpec("square", (1, 2), 1, first, 0.99, seed=0)
    assert generate_network(spec).links == {(0, 1): (1 + second % first, 0.99)}


def test_spec_accepts_the_ends_of_its_ranges():
    # Two nodes, and a range holding one EGR.
    spec = TopologySpec("square", (1, 2), 7, 7, 0.99, seed=1)
    assert generate_network(spec).links == {(0, 1): (7, 0.99)}


def test_endpoints_at_the_smallest_separation_and_extent():
    assert endpoints_for_separation((3, 2), 1) == (2, 3)
    assert endpoints_for_separation((5, 5), 4) == (10, 14)


@pytest.mark.parametrize("seed", [7, None], ids=("seed", "no-seed"))
def test_save_and_load_round_trip_to_the_same_bytes(tmp_path, seed):
    net = generate_network(TopologySpec("hexagonal", (3, 4), 8, 32, 0.97, seed=7),
                           NoiseParams(0.99, 0.98))
    net = Network(net.channels(), noise=net.noise, seed=seed)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_network(net, first)
    loaded = load_network(first)
    save_network(loaded, second)
    assert first.read_text(encoding="utf-8") == network_to_json(net)
    assert second.read_bytes() == first.read_bytes()
    assert (loaded.links, loaded.noise, loaded.seed) == (net.links, net.noise, seed)


def test_network_checks_its_seed_so_its_file_loads(tmp_path):
    # A seed that is not an exact int would be written to a file that
    # load_network rejects, so the constructor rejects it.
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            Network([Channel(0, 1, 8, 0.9)], seed=bad)
    path = tmp_path / "net.json"
    save_network(Network([Channel(0, 1, 8, 0.9)], seed=7), path)
    assert load_network(path).seed == 7


def test_a_refused_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("kept", encoding="utf-8")
    with pytest.raises(ValueError, match="^net must be a Network"):
        save_network(None, path)
    assert path.read_text(encoding="utf-8") == "kept"


_SMALL = generate_network(TopologySpec("square", (2, 3), 8, 32, 0.99, seed=1))
_CHAIN = Chain(egrs=(16, 16), fidelities=(0.9, 0.9))
_ONE = IntEnum("Count", "ONE").ONE  # == 1, but not an exact int


def _pumping_tree(k):
    tree = LEAF
    for _ in range(k - 1):
        tree = (tree, LEAF)
    return tree


def _config(kind="route-compare", **fields):
    return ExperimentConfig(id="x", kind=kind, **fields)


def _seed_range(start, count):
    return ExperimentConfig.from_dict(
        {"id": "x", "kind": "chain-sweep", "seeds": {"start": start, "count": count}})


# Every integer parameter: (id, call with the value, the start of its error
# message as a regex, lo, hi). A bound of None is open. The seed-range cap
# is patched down to 3.
_INT_PARAMS = [
    ("segment-length", lambda v: PurificationPlan(((v, 1),)), "segment length", 1, 3),
    ("segment-width", lambda v: PurificationPlan(((1, v),)), "segment circuit width", 1, 8),
    ("no-purification-plan", no_purification_plan, "n_hops", 1, None),
    ("enumerate-segmentations", enumerate_segmentations, "n_hops", 1, MAX_CHAIN_HOPS),
    ("segment-table-max-k", lambda v: chainopt._segment_table(0.9, 16, 1.0, 1.0, v),
     "max_k", 1, 8),
    ("segment-table-min-egr", lambda v: chainopt._segment_table(0.9, v, 1.0, 1.0, 8),
     "min_egr", 0, netgraph.MAX_EGR),
    ("optimize-chain", lambda v: optimize_chain(_CHAIN, max_k=v), "max_k", 1, 8),
    ("bound-max-hops", lambda v: d_bound_by_hops(0.9, PERFECT, 8, 16, v),
     "max_hops", 1, MAX_CHAIN_HOPS),
    ("circuit", lambda v: PurificationCircuit(v, _pumping_tree(int(v))),
     "circuit width k", 1, 8),
    ("circuit-for", circuit_for, "circuit width k", 1, 8),
    ("enumerate-paths", lambda v: enumerate_paths(_SMALL, 0, 5, cutoff=v), "cutoff", 1, None),
    ("exhaustive", lambda v: best_path_exhaustive(_SMALL, 0, 5, cutoff=v),
     "cutoff", 1, MAX_CHAIN_HOPS),
    ("multipath", lambda v: multipath_greedy(_SMALL, 0, 5, max_paths=v), "max_paths", 1, None),
    ("spec-rows", lambda v: TopologySpec("square", (v, 4), 8, 32, 0.9, seed=1),
     r"each entry of extent \(.+\)", 1, None),
    ("spec-cols", lambda v: TopologySpec("square", (4, v), 8, 32, 0.9, seed=1),
     r"each entry of extent \(.+\)", 1, None),
    ("spec-seed", lambda v: TopologySpec("square", (3, 4), 8, 32, 0.9, seed=v), "seed",
     None, None),
    ("network-seed", lambda v: Network([Channel(0, 1, 8, 0.9)], seed=v), "seed", None, None),
    ("channel-u", lambda v: Channel(v, 99, 8, 0.9), "channel endpoint u", None, None),
    ("channel-v", lambda v: Channel(0, v, 8, 0.9), "channel endpoint v", None, None),
    ("separation-hops", lambda v: endpoints_for_separation((5, 9), v), "hops", 1, None),
    ("separation-rows", lambda v: endpoints_for_separation((v, 9), 2),
     r"each entry of extent \(.+\)", 1, None),
    ("default-extent", default_extent, "hops", 1, None),
    ("scaled-egr-lo", lambda v: scaled_egr_range("square", v, 2**70), "repeater_lo", 1, None),
    ("scaled-egr-hi", lambda v: scaled_egr_range("square", 5, v), "repeater_hi", 5, None),
    ("config-seeds", lambda v: _config(seeds=(v,)), "seeds:", None, None),
    ("config-seed-start", lambda v: _seed_range(v, 1), "seeds: start", None, None),
    ("config-seed-count", lambda v: _seed_range(0, v), "seeds: count", 1, 3),
    ("config-chain-hops", lambda v: _config("chain-sweep", chain_hops=v), "chain_hops:",
     1, MAX_CHAIN_HOPS),
    ("config-hop-separation", lambda v: _config(hop_separation=v), "hop_separation:", 1, None),
    ("config-extent", lambda v: _config(extent=(v, 9)), "extent:", 1, None),
    ("config-cutoff", lambda v: _config(cutoff=v), "cutoff:", 1, MAX_CHAIN_HOPS),
    ("config-max-paths", lambda v: _config("multipath-compare", max_paths=v), "max_paths:",
     1, None),
]


@pytest.mark.parametrize("call, what, lo, hi", [row[1:] for row in _INT_PARAMS],
                         ids=[row[0] for row in _INT_PARAMS])
def test_every_integer_parameter_takes_one_rule(monkeypatch, call, what, lo, hi):
    # One rule and one message: an exact int in lo..hi, else "<what> must be
    # an integer[ >= lo| in lo..hi], got <value>". A bool, a float and an
    # IntEnum member are not exact ints, even where they equal one in range.
    monkeypatch.setattr(harness, "MAX_SEED_COUNT", 3)
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    bad = [True, 2.0, _ONE] + [n + step for n, step in ((lo, -1), (hi, 1)) if n is not None]
    for value in bad:
        rule = f"^{what} must be an integer{re.escape(span)}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=rule):
            call(value)
    for value in (lo, hi):
        if value is not None:
            call(value)
