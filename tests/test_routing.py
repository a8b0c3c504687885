import hashlib
import itertools
import math
import random

import pytest

from entroute import routing
from entroute.chainopt import MAX_CHAIN_HOPS, Chain, chain_from_path, optimize_chain
from entroute.netgraph import (Channel, Network, TopologySpec, default_extent,
                               endpoints_for_separation, generate_network)
from entroute.routing import (LinkCost, RoutedPath, best_path_exhaustive,
                              enumerate_paths, multipath_greedy,
                              shortest_weighted_path, weighted_routes)
from entroute.werner import NoiseParams, PERFECT

NOISY = NoiseParams(0.99, 0.99)


def _net(edges, noise=PERFECT, fid=0.99):
    return Network([Channel(u, v, egr, fid) for u, v, egr in edges], noise=noise)


def _all_simple_paths_reference(net, s, d, cutoff):
    # Independent depth-first enumeration with an explicit visited set.
    found = []

    def walk(u, path, visited):
        if len(path) - 1 > cutoff:
            return
        if u == d:
            found.append(list(path))
            return
        for v in net.neighbors(u):
            if v not in visited:
                walk(v, path + [v], visited | {v})

    walk(s, [s], {s})
    return found


def test_four_cycle_has_two_paths():
    net = _net([(0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 0, 10)])
    paths = enumerate_paths(net, 0, 2)
    assert paths == [[0, 1, 2], [0, 3, 2]]


def test_path_graph_single_path():
    net = _net([(0, 1, 10), (1, 2, 10)])
    assert enumerate_paths(net, 0, 2) == [[0, 1, 2]]


def test_grid_3x3_has_12_corner_paths():
    net = generate_network(TopologySpec("square", (3, 3), 8, 32, 0.99, seed=2))
    paths = enumerate_paths(net, 0, 8, cutoff=10)
    assert len(paths) == 12
    reference = _all_simple_paths_reference(net, 0, 8, 10)
    assert sorted(map(tuple, paths)) == sorted(map(tuple, reference))
    assert paths == sorted(paths)  # lexicographic order
    assert len(set(map(tuple, paths))) == len(paths)  # each exactly once


def test_cutoff_limits_path_length():
    net = _net([(0, 1, 10), (1, 2, 10), (0, 3, 10), (3, 4, 10), (4, 2, 10)])
    assert enumerate_paths(net, 0, 2, cutoff=2) == [[0, 1, 2]]
    assert enumerate_paths(net, 0, 2, cutoff=10) == [[0, 1, 2], [0, 3, 4, 2]]
    assert enumerate_paths(net, 0, 1, cutoff=1) == [[0, 1]]


def test_unreachable_within_cutoff_is_empty():
    net = _net([(0, 1, 10), (1, 2, 10), (2, 3, 10)])
    assert enumerate_paths(net, 0, 3, cutoff=2) == []


def test_long_line_paths_need_no_recursion():
    # 1,200 hops is far past the interpreter's recursion limit.
    net = _net([(i, i + 1, 10) for i in range(1200)])
    line = list(range(1201))
    assert enumerate_paths(net, 0, 1200, cutoff=1200) == [line]
    assert shortest_weighted_path(net, 0, 1200) == line


def test_enumerate_validates_endpoints():
    net = _net([(0, 1, 10)])
    with pytest.raises(ValueError):
        enumerate_paths(net, 0, 0)
    with pytest.raises(ValueError):
        enumerate_paths(net, 0, 5)
    for bad in (0, 3.0, True):
        with pytest.raises(ValueError, match="cutoff"):
            enumerate_paths(net, 0, 1, cutoff=bad)


DIAMOND = [(0, 1, 8), (1, 4, 8), (0, 2, 32), (2, 3, 32), (3, 4, 32)]


def test_diamond_link_costs():
    net = _net(DIAMOND)
    # 2-hop branch costs: inv_egr 2/8 = 0.25, inv_egr_sq 2/64 = 0.03125;
    # 3-hop branch: 3/32 = 0.09375 and 3/1024 ~ 0.00293.
    assert shortest_weighted_path(net, 0, 4, LinkCost.HOP) == [0, 1, 4]
    assert shortest_weighted_path(net, 0, 4, LinkCost.INV_EGR) == [0, 2, 3, 4]
    assert shortest_weighted_path(net, 0, 4, LinkCost.INV_EGR_SQ) == [0, 2, 3, 4]
    assert LinkCost.INV_EGR.edge_cost(8) * 2 == 0.25
    assert LinkCost.INV_EGR.edge_cost(32) * 3 == 0.09375
    assert LinkCost.INV_EGR_SQ.edge_cost(32) * 3 == pytest.approx(0.00293, abs=5e-6)


def test_dijkstra_returns_none_when_unreachable():
    net = _net([(0, 1, 10), (2, 3, 10)])
    assert shortest_weighted_path(net, 0, 3) is None


def test_every_search_answers_an_unreachable_destination_with_its_empty_value():
    # Two components: no search finds a route, and none raises.
    net = _net([(0, 1, 10), (1, 2, 12), (0, 2, 9), (3, 4, 10), (4, 5, 16)])
    for s, d in ((0, 5), (4, 1)):
        for cost in LinkCost:
            assert shortest_weighted_path(net, s, d, cost) is None
        assert weighted_routes(net, s, d) == {}
        assert best_path_exhaustive(net, s, d) is None
        assert multipath_greedy(net, s, d, 4) == ([], [])


def _search_without(net, excluded, s, d, cost):
    # shortest_weighted_path on the network rebuilt without the excluded
    # channels; None when s or d loses every channel and so leaves it.
    reduced = Network([ch for ch in net.channels() if ch.key not in excluded], noise=net.noise)
    return shortest_weighted_path(reduced, s, d, cost) if s in reduced and d in reduced else None


def _brute_force_best(net, paths, cost, excluded=frozenset()):
    # The least (total, hops, path) key over the paths that use no excluded
    # channel; None when every path does.
    best = None
    for path in paths:
        keys = [(u, v) if u < v else (v, u) for u, v in zip(path, path[1:])]
        if excluded.intersection(keys):
            continue
        total = 0.0
        for key in keys:
            total += cost.edge_cost(net.links[key][0])
        key = (total, len(path) - 1, tuple(path))
        if best is None or key < best:
            best = key
    return best


def test_dijkstra_optimal_on_random_graphs():
    # Random endpoints on random graphs, some with gaps in their node ids and
    # some in two components, whose first draw joins the two. The last draw
    # per graph searches the graph rebuilt without some of its channels.
    # Fewest hops (the DFS cut off at the BFS distance) and every other search
    # (Dijkstra) must both meet the brute-force key, and return None exactly
    # when no path is left.
    rng = random.Random(19)
    for trial in range(60):
        n = rng.randint(4, 12)
        nodes = sorted(rng.sample(range(3 * n), n)) if trial % 2 else list(range(n))
        # Two components, nodes[:split] and nodes[split:], each of 2 or more.
        split = rng.randint(2, n - 2) if trial % 3 == 2 else n
        edges = {}
        for i, j in itertools.combinations(range(n), 2):
            if (i < split) == (j < split) and rng.random() < 0.35:
                edges[nodes[i], nodes[j]] = rng.randint(1, 32)
        for i in range(1, n):  # spanning chains keep each component connected
            if i != split:
                edges[nodes[i - 1], nodes[i]] = rng.randint(1, 32)
        net = _net([(u, v, egr) for (u, v), egr in edges.items()])
        links = list(net.links)
        pairs = [rng.sample(nodes, 2) for _ in range(3)]
        if split < n:
            pairs[0] = rng.sample([rng.choice(nodes[:split]), rng.choice(nodes[split:])], 2)
        draws = [(s, d, frozenset()) for s, d in pairs]
        draws.append((*rng.sample(nodes, 2),
                      frozenset(rng.sample(links, rng.randint(1, len(links) // 3 + 1)))))
        for index, (s, d, excluded) in enumerate(draws):
            paths = _all_simple_paths_reference(net, s, d, cutoff=n)
            if index == 0 and split < n:
                assert paths == []
            for cost in LinkCost:
                path = _search_without(net, excluded, s, d, cost)
                expected = _brute_force_best(net, paths, cost, excluded)
                if expected is None:
                    assert path is None
                    continue
                total = sum(cost.edge_cost(net.channel(u, v).egr)
                            for u, v in zip(path, path[1:]))
                assert (total, len(path) - 1, tuple(path)) == expected


def test_weighted_routes_optimize_each_distinct_path_once(monkeypatch):
    net = _net(DIAMOND)
    calls = []

    def optimize(chain, *args, **kwargs):
        calls.append(chain)
        return optimize_chain(chain, *args, **kwargs)
    monkeypatch.setattr(routing, "optimize_chain", optimize)
    routes = weighted_routes(net, 0, 4)
    assert list(routes) == list(LinkCost)
    assert routes[LinkCost.HOP][0] == (0, 1, 4)
    assert routes[LinkCost.INV_EGR][0] == routes[LinkCost.INV_EGR_SQ][0] == (0, 2, 3, 4)
    assert len(calls) == 2
    assert routes[LinkCost.INV_EGR][1] is routes[LinkCost.INV_EGR_SQ][1]
    for path, result in routes.values():
        assert result == optimize_chain(chain_from_path(net, path))
    assert list(weighted_routes(net, 0, 4, (LinkCost.INV_EGR_SQ,))) == [LinkCost.INV_EGR_SQ]


def test_weighted_routes_beyond_the_chain_cap_have_no_plan():
    line = _net([(i, i + 1, 10) for i in range(MAX_CHAIN_HOPS + 1)])
    routes = weighted_routes(line, 0, MAX_CHAIN_HOPS + 1)
    assert all(routes[cost] == (tuple(range(MAX_CHAIN_HOPS + 2)), None) for cost in LinkCost)
    # A path of exactly the cap still has its plan.
    path = tuple(range(MAX_CHAIN_HOPS + 1))
    assert weighted_routes(line, 0, MAX_CHAIN_HOPS, (LinkCost.HOP,)) == {
        LinkCost.HOP: (path, optimize_chain(chain_from_path(line, path)))}
    # Multipath stops at a path over the cap and routes one of exactly the cap.
    assert multipath_greedy(line, 0, MAX_CHAIN_HOPS + 1, 2) == ([], [])
    assert [rp.path for rp in multipath_greedy(line, 0, MAX_CHAIN_HOPS, 2)[0]] == [path]
    assert weighted_routes(_net([(0, 1, 10), (2, 3, 10)]), 0, 3) == {}


def test_exhaustive_answer_does_not_depend_on_its_seeds():
    extent = (4, 6)
    s, d = endpoints_for_separation(extent, 3)
    for seed in (1, 2, 3):
        for noise in (PERFECT, NOISY):
            net = generate_network(TopologySpec("triangular", extent, 8, 32, 0.97, seed=seed),
                                   noise)
            best = best_path_exhaustive(net, s, d, 6)
            routes = weighted_routes(net, s, d)
            for seeds in ({}, routes, {LinkCost.HOP: routes[LinkCost.HOP]},
                          dict(reversed(routes.items()))):
                assert best_path_exhaustive(net, s, d, 6, seeds) == best


def test_exhaustive_matches_brute_force_in_the_benchmark_regime():
    # The benchmark's setting: triangular lattice, hop separation 3, cutoff 7,
    # perfect gates, one raw fidelity. There the joint bound prunes, and most
    # prefixes at a new minimum EGR are cut by the bound held for a larger one.
    # On seeds 17, 20 and 22 an unsound reuse, of a smaller minimum EGR's
    # bound, returns a worse path. Seeds 71 and 72 mix raw fidelities, so the
    # bound is taken at the highest, with perfect and with noisy gates.
    extent = default_extent(3)
    s, d = endpoints_for_separation(extent, 3)
    nets = [generate_network(TopologySpec("triangular", extent, *egr_range, 0.99, seed=seed))
            for seed, egr_range in ((1, (8, 32)), (17, (8, 32)), (20, (8, 32)),
                                    (22, (8, 32)), (5, (16, 16)))]
    for seed, noise in ((71, PERFECT), (72, NOISY)):
        nets.append(_mixed_fidelity(generate_network(
            TopologySpec("triangular", extent, 8, 32, 0.99, seed=seed), noise), seed))
    for net in nets:
        best = best_path_exhaustive(net, s, d, 7)
        d_total, path = _brute_force_exhaustive(net, s, d, 7)
        assert (best.evaluation.d_total, list(best.path)) == (d_total, path)
        assert best == RoutedPath(tuple(path), *optimize_chain(chain_from_path(net, path)))


def _decision_digest_networks(mixed):
    """Seeded lattices for the pinned digests. The uniform ones are the
    benchmark regime (triangular, hop 3, cutoff 7, EGR 8-32, F 0.99, perfect
    gates; seeds 1-60), then noisy gates (seeds 61-70); the mixed ones (seeds
    71-73) draw each channel's raw fidelity as ``_mixed_fidelity`` does."""
    extent = default_extent(3)
    if mixed:
        for seed in range(71, 74):
            yield _mixed_fidelity(generate_network(
                TopologySpec("triangular", extent, 8, 32, 0.99, seed=seed)), seed)
        return
    for seed in range(1, 61):
        yield generate_network(TopologySpec("triangular", extent, 8, 32, 0.99, seed=seed))
    for seed in range(61, 71):
        yield generate_network(TopologySpec("triangular", extent, 8, 32, 0.99, seed=seed), NOISY)


def _decision_digest(monkeypatch, nets):
    """sha256 over the repr of every (path, floor) the search hands to
    _optimize_floored, in order, and of every answer: a changed pruning
    decision, optimizer call, floor or tie-break changes the digest. Also
    returns the answers, in order."""
    s, d = endpoints_for_separation(default_extent(3), 3)
    digest = hashlib.sha256()
    last_path = []
    answers = []

    def chain_of(net, path):
        last_path[:] = [tuple(path)]
        return chain_from_path(net, path)

    def optimize(chain, floor):
        digest.update(repr((last_path[0], floor)).encode())
        return optimize_floored(chain, floor)
    optimize_floored = routing._optimize_floored
    monkeypatch.setattr(routing, "chain_from_path", chain_of)
    monkeypatch.setattr(routing, "_optimize_floored", optimize)
    for net in nets:
        answers.append(best_path_exhaustive(net, s, d, 7))
        digest.update(repr(answers[-1]).encode())
    return digest.hexdigest(), answers


@pytest.fixture(scope="module")
def digest_runs():
    """One search of the uniform and one of the mixed digest networks, by
    ``mixed``: the decision digest and the answers, which all three digest
    tests read."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {mixed: _decision_digest(monkeypatch, _decision_digest_networks(mixed))
                for mixed in (False, True)}


def test_exhaustive_search_decisions_on_uniform_networks_match_their_pinned_digest(
        digest_runs):
    assert digest_runs[False][0] == (
        "df18ad52a6cf52077777b4963e2119268eca3b657bba8a43fe2d3567f37d2b53")


def test_exhaustive_search_decisions_on_mixed_networks_match_their_pinned_digest(
        digest_runs):
    # Pins how the search prunes on networks of mixed raw fidelity.
    assert digest_runs[True][0] == (
        "9a85fd2e805212bf92b60ac44161016bb69da04d86c8a1f00e882fee10c60fa1")


def test_exhaustive_search_answers_match_their_pinned_digest(digest_runs):
    # sha256 over the repr of every answer on all the digest networks, uniform
    # then mixed: a pruning rule may change the decisions, never this.
    digest = hashlib.sha256()
    for mixed in (False, True):
        for answer in digest_runs[mixed][1]:
            digest.update(repr(answer).encode())
    assert digest.hexdigest() == (
        "51706e123ce7453551f451391f774e07ca26110da5094bda9243c9d3eca626f6")


def test_exhaustive_on_chain_equals_dijkstra():
    net = _net([(0, 1, 12), (1, 2, 20), (2, 3, 9)], noise=NOISY)
    best = best_path_exhaustive(net, 0, 3)
    assert list(best.path) == [0, 1, 2, 3]
    for cost in LinkCost:
        assert shortest_weighted_path(net, 0, 3, cost) == [0, 1, 2, 3]


def test_exhaustive_dominates_heuristics():
    for seed in range(1, 6):
        for noise in (PERFECT, NOISY):
            net = generate_network(
                TopologySpec("triangular", (3, 7), 8, 32, 0.99, seed=seed), noise)
            s, d = 8, 12  # middle row, 4 hops apart
            best = best_path_exhaustive(net, s, d, cutoff=8)
            for cost in LinkCost:
                path = shortest_weighted_path(net, s, d, cost)
                _, evaluation = optimize_chain(chain_from_path(net, path))
                assert best.evaluation.d_total >= evaluation.d_total


def _brute_force_exhaustive(net, s, d, cutoff):
    # Optimize every path; the highest D wins, then fewer hops, then node order.
    best = None
    for path in enumerate_paths(net, s, d, cutoff):
        _, evaluation = optimize_chain(chain_from_path(net, path))
        key = (-evaluation.d_total, len(path) - 1, path)
        if best is None or key < best:
            best = key
    return -best[0], best[2]


def _mixed_fidelity(net, seed):
    rng = random.Random(seed)
    return Network([Channel(ch.u, ch.v, ch.egr, rng.choice((0.95, 0.97, 0.99)))
                    for ch in net.channels()], noise=net.noise)


@pytest.mark.parametrize("kind,extent,hops,cutoff", [
    ("triangular", (3, 5), 3, 6), ("triangular", (4, 5), 3, 6),
    ("square", (3, 5), 3, 7), ("square", (4, 4), 2, 8)])
def test_exhaustive_matches_brute_force(kind, extent, hops, cutoff):
    s, d = endpoints_for_separation(extent, hops)
    nets = []
    for seed in (1, 2, 3):
        for noise in (PERFECT, NOISY):
            nets.append(generate_network(TopologySpec(kind, extent, 8, 32, 0.95, seed=seed), noise))
        # Ties on D: equal EGRs, or perfect channels (D is the min EGR).
        nets.append(generate_network(TopologySpec(kind, extent, 16, 16, 0.99, seed=seed)))
        nets.append(generate_network(TopologySpec(kind, extent, 8, 32, 1.0, seed=seed)))
    nets.append(_mixed_fidelity(nets[0], seed=4))
    nets.append(_mixed_fidelity(nets[1], seed=5))
    for net in nets:
        best = best_path_exhaustive(net, s, d, cutoff)
        assert (best.evaluation.d_total, list(best.path)) == _brute_force_exhaustive(
            net, s, d, cutoff)


def test_exhaustive_without_seeds_breaks_zero_d_ties_like_brute_force(monkeypatch):
    # Nothing distills from these channels, so every path ties at D = 0 and
    # the joint bound reads exactly the best D found. A prefix whose bound
    # only equals it may still hold a shorter path, which must win the tie;
    # one whose paths are all longer than the best path is cut. The search
    # walks paths in node order, so the paths it optimizes never grow longer.
    # Every held bound is 0, so the nearest larger minimum EGR's bound cuts a
    # longer prefix and the nearest smaller one's lets any other through: a
    # bound is built only for a minimum EGR above or below every one held.
    built, optimized = [], []

    def bound(f_raw, noise, min_egr, *args):
        built.append(min_egr)
        return d_bound_by_hops(f_raw, noise, min_egr, *args)

    def optimize(chain, floor):
        optimized.append(chain.n_hops)
        return optimize_floored(chain, floor)
    d_bound_by_hops, optimize_floored = routing.d_bound_by_hops, routing._optimize_floored
    monkeypatch.setattr(routing, "d_bound_by_hops", bound)
    monkeypatch.setattr(routing, "_optimize_floored", optimize)
    cells = itertools.product((("triangular", (3, 5), 1, 6), ("square", (4, 5), 2, 7),
                               ("hexagonal", (4, 6), 2, 8)),
                              ((0.5, PERFECT), (0.6, NoiseParams(0.9, 0.9))))
    for (kind, extent, seed, cutoff), (f_raw, noise) in cells:
        s, d = endpoints_for_separation(extent, 3)
        net = generate_network(TopologySpec(kind, extent, 8, 32, f_raw, seed=seed), noise)
        built.clear()
        optimized.clear()
        best = best_path_exhaustive(net, s, d, cutoff, {})
        assert best.evaluation.d_total == 0.0
        assert (best.evaluation.d_total, list(best.path)) == _brute_force_exhaustive(
            net, s, d, cutoff)
        assert len(built) > 1
        assert all(egr > max(built[:i]) or egr < min(built[:i])
                   for i, egr in enumerate(built) if i)
        assert optimized and all(a >= b for a, b in zip(optimized, optimized[1:]))


@pytest.mark.parametrize("kind,extent,ends,cutoff", [
    ("triangular", (3, 5), (5, 8), 6), ("square", (4, 5), (10, 13), 7),
    ("hexagonal", (4, 6), (13, 16), 8), ("square", (3, 4), (0, 11), 7)])
def test_exhaustive_matches_brute_force_where_nothing_distils(kind, extent, ends, cutoff):
    # Every path ties at D = 0, so the fewest hops, then node order, decide;
    # prefixes that can only tie and are longer than the best path are cut.
    # Seeded with any one fewest-hop path, the search must still reach the
    # first in node order; corner to corner, a square lattice has several.
    s, d = ends
    for seed in (1, 2, 3, 4):
        for f_raw, noise in ((0.5, PERFECT), (0.6, NoiseParams(0.9, 0.9)), (0.88, NOISY)):
            net = generate_network(TopologySpec(kind, extent, 8, 32, f_raw, seed=seed), noise)
            paths = enumerate_paths(net, s, d, cutoff)
            fewest = min(map(len, paths))
            lone = [{LinkCost.INV_EGR: (tuple(path), optimize_chain(chain_from_path(net, path)))}
                    for path in paths if len(path) == fewest]
            want = (0.0, _brute_force_exhaustive(net, s, d, cutoff)[1])
            for seeds in (None, {}, *lone):
                best = best_path_exhaustive(net, s, d, cutoff, seeds)
                assert (best.evaluation.d_total, list(best.path)) == want


def test_exhaustive_where_nothing_distils_optimizes_few_paths(monkeypatch):
    # Route-compare cells at hop 4 and cutoff 10: 0.91 channels under p2 =
    # eta = 0.99 distil nothing, and the seeded fewest-hop path wins the tie
    # at D = 0. Were prefixes cut only below the best D, the search would
    # optimize 76,952 paths here.
    calls = []

    def optimize(chain, floor):
        calls.append(chain)
        if len(calls) > 100:
            raise AssertionError("the search optimizes paths that can only tie")
        return optimize_floored(chain, floor)
    optimize_floored = routing._optimize_floored
    monkeypatch.setattr(routing, "_optimize_floored", optimize)
    extent = default_extent(4)
    s, d = endpoints_for_separation(extent, 4)
    for seed in (1, 2, 3):
        net = generate_network(TopologySpec("triangular", extent, 8, 32, 0.91, seed=seed), NOISY)
        best = best_path_exhaustive(net, s, d, 10)
        assert best.evaluation.d_total == 0.0 and len(best.path) == 5


def test_exhaustive_does_not_optimize_a_seed_of_exactly_cutoff_hops_again(monkeypatch):
    line = _net([(0, 1, 10), (1, 2, 12), (2, 3, 9)])
    seeds = weighted_routes(line, 0, 3)

    def optimized_again(*args, **kwargs):
        raise AssertionError("the search optimized a seeded path")
    monkeypatch.setattr(routing, "_optimize_floored", optimized_again)
    assert best_path_exhaustive(line, 0, 3, 3, seeds).path == (0, 1, 2, 3)


def test_optimize_floored_contract():
    chain = Chain((16, 8, 32, 20), (0.95, 0.9, 0.92, 0.97), NOISY)
    best = optimize_chain(chain)
    d_best = best[1].d_total
    # A tie at the floor is returned: the search breaks it.
    assert routing._optimize_floored(chain, d_best) == best
    assert routing._optimize_floored(chain, 0.5 * d_best) == best
    assert routing._optimize_floored(chain, math.nextafter(d_best, math.inf)) is None
    # No plan distils anything: a zero floor still returns the best, any positive one nothing.
    worthless = Chain((16, 8, 32), (0.7, 0.75, 0.7), NOISY)
    best = optimize_chain(worthless)
    assert best[1].d_total == 0.0
    assert routing._optimize_floored(worthless, 0.0) == best
    assert routing._optimize_floored(worthless, math.nextafter(0.0, 1.0)) is None


def test_exhaustive_tie_prefers_shorter_then_lexicographic():
    # Two symmetric 2-hop branches tie exactly; node order decides.
    net = _net([(0, 1, 16), (1, 3, 16), (0, 2, 16), (2, 3, 16)])
    best = best_path_exhaustive(net, 0, 3)
    assert list(best.path) == [0, 1, 3]


def test_exhaustive_no_path_returns_none():
    net = _net([(0, 1, 10), (2, 3, 10)])
    assert best_path_exhaustive(net, 0, 3) is None


def test_exhaustive_respects_cutoff():
    net = _net([(0, 1, 10), (1, 2, 10), (2, 3, 10)])
    assert best_path_exhaustive(net, 0, 3, cutoff=2) is None
    assert best_path_exhaustive(net, 0, 1, cutoff=1).path == (0, 1)
    # The optimizer plans at most MAX_CHAIN_HOPS hops; a longer cutoff is
    # refused up front, not only when pruning fails to cut a long path.
    # So is a cutoff that is not an integer: True would search one hop.
    for bad in (0, MAX_CHAIN_HOPS + 1, 3.0, True):
        with pytest.raises(ValueError, match="cutoff"):
            best_path_exhaustive(net, 0, 3, cutoff=bad)


def test_multipath_square_corner_limited_by_degree():
    net = generate_network(TopologySpec("square", (3, 3), 8, 32, 0.99, seed=6))
    routed, cumulative = multipath_greedy(net, 0, 8, max_paths=8)
    assert len(routed) == 2  # corner degree bounds edge-disjoint paths
    assert cumulative == sorted(cumulative)


def test_multipath_paths_are_edge_disjoint():
    net = generate_network(TopologySpec("triangular", (5, 9), 8, 32, 0.91, seed=8), NOISY)
    routed, cumulative = multipath_greedy(net, 2 * 9 + 2, 2 * 9 + 6, max_paths=8)
    seen = set()
    for rp in routed:
        for u, v in zip(rp.path, rp.path[1:]):
            key = (u, v) if u < v else (v, u)
            assert key not in seen
            seen.add(key)
    assert len(routed) >= 2
    # cumulative totals are the running sum of per-path contributions
    total = 0.0
    for rp, cum in zip(routed, cumulative):
        total += rp.evaluation.d_total
        assert cum == pytest.approx(total, abs=1e-12)


def test_multipath_cumulative_nondecreasing():
    net = generate_network(TopologySpec("hexagonal", (5, 9), 8, 32, 0.91, seed=10))
    routed, cumulative = multipath_greedy(net, 2 * 9 + 2, 2 * 9 + 6, max_paths=8)
    assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))


@pytest.mark.parametrize("kind", ["triangular", "square", "hexagonal"])
def test_multipath_routes_as_the_loop_of_excluded_searches(kind):
    # The greedy search deletes each routed path's channels from its own copy
    # of the peer rows and shares one edge-cost memo. It must route exactly
    # as searching the network rebuilt without the routed channels does, ties
    # included: equal EGRs ([5, 5]) and few distinct ones ([1, 3]) tie many
    # paths, and the reference loop's hop-cost searches are the DFS hop
    # route, not Dijkstra.
    extent = default_extent(3)
    s, d = endpoints_for_separation(extent, 3)
    for egr_range in ((5, 5), (1, 3), (8, 32), (16, 128)):
        for seed in (1, 2):
            net = generate_network(TopologySpec(kind, extent, *egr_range, 0.95, seed), NOISY)
            for cost in LinkCost:
                used = set()
                expected = []
                for _ in range(8):
                    path = _search_without(net, used, s, d, cost)
                    if path is None or len(path) - 1 > MAX_CHAIN_HOPS:
                        break
                    expected.append(RoutedPath(tuple(path),
                                               *optimize_chain(chain_from_path(net, path))))
                    used.update((u, v) if u < v else (v, u) for u, v in zip(path, path[1:]))
                routed, cumulative = multipath_greedy(net, s, d, 8, cost)
                assert routed == expected
                assert cumulative == list(itertools.accumulate(
                    rp.evaluation.d_total for rp in expected))


def test_multipath_validates_arguments():
    net = _net([(0, 1, 10)])
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match="max_paths"):
            multipath_greedy(net, 0, 1, max_paths=bad)
    routed, cumulative = multipath_greedy(net, 0, 1, max_paths=1)
    assert [rp.path for rp in routed] == [(0, 1)] and len(cumulative) == 1


def test_searches_take_a_link_cost_by_its_value():
    net = _net(DIAMOND)
    for cost in LinkCost:
        assert shortest_weighted_path(net, 0, 4, cost.value) == shortest_weighted_path(
            net, 0, 4, cost)
        assert multipath_greedy(net, 0, 4, 2, cost.value) == multipath_greedy(net, 0, 4, 2, cost)
    routes = weighted_routes(net, 0, 4, tuple(cost.value for cost in LinkCost))
    assert [type(cost) for cost in routes] == [LinkCost] * len(LinkCost)
    assert routes == weighted_routes(net, 0, 4)
    for search in (lambda: shortest_weighted_path(net, 0, 4, "bogus"),
                   lambda: multipath_greedy(net, 0, 4, 2, "bogus"),
                   lambda: weighted_routes(net, 0, 4, ("hop", "bogus"))):
        with pytest.raises(ValueError, match="bogus"):
            search()
