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


def test_enumerate_validates_endpoints():
    net = _net([(0, 1, 10)])
    with pytest.raises(ValueError):
        enumerate_paths(net, 0, 0)
    with pytest.raises(ValueError):
        enumerate_paths(net, 0, 5)
    with pytest.raises(ValueError):
        enumerate_paths(net, 0, 1, cutoff=0)


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


def _brute_force_best(net, s, d, cost):
    best = None
    for path in _all_simple_paths_reference(net, s, d, cutoff=len(net.nodes)):
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += cost.edge_cost(net.channel(u, v).egr)
        key = (total, len(path) - 1, tuple(path))
        if best is None or key < best:
            best = key
    return best


def test_dijkstra_optimal_on_random_graphs():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(4, 12)
        edges = []
        nodes = list(range(n))
        for u, v in itertools.combinations(nodes, 2):
            if rng.random() < 0.35:
                edges.append((u, v, rng.randint(1, 32)))
        for u in nodes[1:]:  # spanning chain keeps it connected
            edges.append((u - 1, u, rng.randint(1, 32)))
        net = _net(list({(u, v): (u, v, e) for u, v, e in edges}.values()))
        s, d = 0, n - 1
        for cost in LinkCost:
            path = shortest_weighted_path(net, s, d, cost)
            total = sum(cost.edge_cost(net.channel(u, v).egr)
                        for u, v in zip(path, path[1:]))
            expected = _brute_force_best(net, s, d, cost)
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
    # bound, returns a worse path.
    extent = default_extent(3)
    s, d = endpoints_for_separation(extent, 3)
    for seed, egr_range in ((1, (8, 32)), (17, (8, 32)), (20, (8, 32)), (22, (8, 32)),
                            (5, (16, 16))):
        net = generate_network(TopologySpec("triangular", extent, *egr_range, 0.99, seed=seed))
        best = best_path_exhaustive(net, s, d, 7)
        d_total, path = _brute_force_exhaustive(net, s, d, 7)
        assert (best.evaluation.d_total, list(best.path)) == (d_total, path)
        assert best == RoutedPath(tuple(path), *optimize_chain(chain_from_path(net, path)))


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


def test_exhaustive_without_seeds_breaks_zero_d_ties_like_brute_force():
    # Nothing distills from these channels, so every path ties at D = 0 and
    # the joint bound reads exactly the best D found. A prefix whose bound
    # only equals it may still hold a shorter path, which must win the tie.
    extent = (3, 5)
    s, d = endpoints_for_separation(extent, 3)
    for f_raw, noise in ((0.5, PERFECT), (0.6, NoiseParams(0.9, 0.9))):
        net = generate_network(TopologySpec("triangular", extent, 8, 32, f_raw, seed=1), noise)
        best = best_path_exhaustive(net, s, d, 6, {})
        assert best.evaluation.d_total == 0.0
        assert (best.evaluation.d_total, list(best.path)) == _brute_force_exhaustive(
            net, s, d, 6)


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
    for bad in (0, MAX_CHAIN_HOPS + 1):
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


def test_multipath_validates_arguments():
    net = _net([(0, 1, 10)])
    with pytest.raises(ValueError):
        multipath_greedy(net, 0, 1, max_paths=0)
    routed, cumulative = multipath_greedy(net, 0, 1, max_paths=1)
    assert [rp.path for rp in routed] == [(0, 1)] and len(cumulative) == 1
