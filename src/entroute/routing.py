"""Path selection on a repeater network.

Three routing strategies over an immutable network: exhaustive enumeration
of all simple paths up to a hop cutoff (every candidate scored by the chain
optimizer), weighted shortest paths under pluggable link costs, and greedy
edge-disjoint multipath routing. All tie-breaks are fixed (fewer hops, then
lexicographic node order) so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush

from .chainopt import (MAX_CHAIN_HOPS, PlanEvaluation, PurificationPlan,
                       chain_from_path, d_bound_by_hops, optimize_chain)
from .netgraph import Network, check_int
from .werner import swap_fidelity  # noqa: F401  (rebound by bench/layers.py)


# The exhaustive search's optimizer calls go through this function, which
# bench/layers.py rebinds to count them and their None results. It also
# rebinds routing.swap_fidelity, which routing no longer calls; both names
# stay until bench/ changes.
def _optimize_floored(chain, floor: float):
    """``optimize_chain(chain)``, or None when its D falls below ``floor``."""
    result = optimize_chain(chain)
    return None if result[1].d_total < floor else result


class LinkCost(str, Enum):
    """Pluggable channel cost for weighted shortest-path search; the searches
    also take a cost by its value, such as "hop", and reject any other name."""

    HOP = "hop"
    INV_EGR = "inv_egr"
    INV_EGR_SQ = "inv_egr_sq"

    def edge_cost(self, egr: int) -> float:
        if self is LinkCost.HOP:
            return 1.0
        if self is LinkCost.INV_EGR:
            return 1.0 / egr
        return 1.0 / (egr * egr)


@dataclass(frozen=True)
class RoutedPath:
    """A selected path with its optimized purification plan and evaluation."""

    path: tuple[int, ...]
    plan: PurificationPlan
    evaluation: PlanEvaluation


def _check_endpoints(net: Network, s, d) -> None:
    if s not in net:
        raise ValueError(f"source {s!r} not in network")
    if d not in net:
        raise ValueError(f"destination {d!r} not in network")
    if s == d:
        raise ValueError("source and destination must differ")


@lru_cache(maxsize=16, typed=True)
def _bfs_hops(net: Network, target) -> dict:
    """Hop distance from every reachable node to ``target``; the caller must
    not change it.

    Cached per network object and target, so an exhaustive route-compare
    cell's fewest-hop route, which reads it for its cutoff and again in its
    DFS, and its path enumeration share one BFS.
    """
    peers = net.peers
    dist = {target: 0}
    queue = deque([target])
    while queue:
        u = queue.popleft()
        hops = dist[u] + 1
        for v, _ in peers[u]:
            if v not in dist:
                dist[v] = hops
                queue.append(v)
    return dist


def _iter_simple_paths(net: Network, s, d, cutoff: int, prune=None):
    """Yield all simple s-d paths of at most ``cutoff`` hops, in lexicographic
    order of the node sequence.

    ``prune(hops_used, hops_to_go, min_egr)`` may cut subtrees that provably
    cannot contain a useful path; distance-based pruning is always applied.
    The walk is an iterative DFS: its stack holds, per node of the path, an
    iterator over that node's (peer, EGR) row of ``net.peers`` and the
    least EGR on the path up to it. The path list is its own visited set,
    short at the cutoffs (at most 10) that experiments search. Each peer's hop
    distance to d comes from one BFS; every peer of a node d reaches is in
    that BFS too.
    """
    dist = _bfs_hops(net, d)
    if dist.get(s, cutoff + 1) > cutoff:
        return
    peers = net.peers
    path = [s]
    stack = [(iter(peers[s]), float("inf"))]
    while stack:
        row, min_egr = stack[-1]
        hops_used = len(path)
        for v, egr in row:
            to_go = dist[v]
            if hops_used + to_go > cutoff or v in path:
                continue
            new_min = egr if egr < min_egr else min_egr
            if prune is not None and prune(hops_used, to_go, new_min):
                continue
            if v == d:
                yield path + [v]
            else:
                path.append(v)
                stack.append((iter(peers[v]), new_min))
                break
        else:
            path.pop()
            stack.pop()


def enumerate_paths(net: Network, s, d, cutoff: int = 10) -> list[list[int]]:
    """All simple paths from s to d of length <= cutoff hops, each exactly
    once, in deterministic lexicographic order. Disconnected endpoints give
    an empty list."""
    _check_endpoints(net, s, d)
    return list(_iter_simple_paths(net, s, d, check_int(cutoff, "cutoff", lo=1)))


def _dijkstra(peers, s, d, edge_cost, weights: dict) -> list[int] | None:
    """Least (total cost, hops, node sequence) path from s to d, or None.

    ``peers`` maps each node to its ((peer, EGR), ...) in ascending peer
    order, as ``Network.peers`` does; a channel missing from both rows is
    not searched. ``weights`` memoizes ``edge_cost`` by EGR, so searches of
    one cost may share it.
    """
    heap = [(0.0, 0, (s,))]
    # The least total pushed per node. A label above it, as one to a finished
    # node is unless rounding ties them, is never a first pop and is not
    # pushed; a tie still is, and the heap, or ``done`` at its pop, settles it.
    pushed = {s: 0.0}
    done = set()
    while heap:
        total, hops, path = heappop(heap)
        u = path[-1]
        if u in done:
            continue
        done.add(u)
        if u == d:
            return list(path)
        for v, egr in peers[u]:
            edge = weights.get(egr)
            if edge is None:
                edge = weights[egr] = edge_cost(egr)
            reached = total + edge
            if reached > pushed.get(v, reached):
                continue
            pushed[v] = reached
            heappush(heap, (reached, hops + 1, path + (v,)))
    return None


def shortest_weighted_path(net: Network, s, d, cost: LinkCost = LinkCost.HOP) -> list[int] | None:
    """Minimum-total-cost path under the chosen link cost.

    Ties break toward fewer hops, then the lexicographically smallest node
    sequence. Returns None when the destination is unreachable. Under the
    hop cost that is the first path of the simple-path DFS cut off at the
    source's BFS distance to d: every step it takes goes one hop closer, so
    it never backtracks. Every other cost runs Dijkstra on ``net.peers``.
    """
    _check_endpoints(net, s, d)
    cost = LinkCost(cost)
    if cost is LinkCost.HOP:
        # An unreachable s gets cutoff 0, which no path meets.
        cutoff = _bfs_hops(net, d).get(s, 0)
        return next(_iter_simple_paths(net, s, d, cutoff), None)
    return _dijkstra(net.peers, s, d, cost.edge_cost, {})


def weighted_routes(net: Network, s, d, costs=tuple(LinkCost)) -> dict:
    """The weighted shortest path under each of ``costs``, with its best plan.

    Maps each cost to (path, ``optimize_chain``'s result). Each distinct path
    is optimized once, however many costs select it. A path of more hops than
    the chain optimizer allows exists but has no plan: its result is None.
    Reachability does not depend on the cost, so an unreachable ``d`` gives {}.
    """
    plans: dict[tuple[int, ...], tuple | None] = {}
    routes = {}
    for cost in map(LinkCost, costs):
        path = shortest_weighted_path(net, s, d, cost)
        if path is None:
            return {}
        path = tuple(path)
        if path not in plans:
            plans[path] = (optimize_chain(chain_from_path(net, path))
                           if len(path) - 1 <= MAX_CHAIN_HOPS else None)
        routes[cost] = path, plans[path]
    return routes


def best_path_exhaustive(net: Network, s, d, cutoff: int = 10,
                         seeds: dict | None = None) -> RoutedPath | None:
    """Optimize every simple path within the cutoff and return the best.

    The maximum is exact: a DFS prefix, and with it every path through it,
    is skipped only when a sound upper bound on its distillable entanglement
    falls strictly below the best already found. The first, cheap bound is
    the prefix's minimum hop EGR, since D <= rate <= min EGR. The second is
    ``chainopt.d_bound_by_hops`` at the network's highest raw fidelity, for
    that minimum EGR and the network's maximum EGR, which bounds rate and
    fidelity together, and a prefix is cut when no reachable path length
    beats the best D, or ties it with no more hops than the best path. That
    bound never falls as the minimum EGR rises, and the best D never falls;
    so a minimum EGR whose bound is not yet held first reads the bounds held
    for the nearest larger and smaller ones, and a prefix that the larger
    one already cuts, or the smaller one already lets through, costs no new
    bound.

    The search starts from the weighted shortest paths and their plans, so
    the bounds start tight. They are ``weighted_routes``' result, which
    ``seeds`` passes in from a caller that has it already, as route-compare
    does for its heuristic rows; without it the search computes it for every
    link cost. The answer does not depend on the seeds. Ties break toward
    shorter paths, then lexicographic node order. ``cutoff`` is at most
    ``MAX_CHAIN_HOPS``, the longest chain the optimizer plans. Returns None
    when no path lies within the cutoff.
    """
    _check_endpoints(net, s, d)
    check_int(cutoff, "cutoff", 1, MAX_CHAIN_HOPS)
    if seeds is None:
        seeds = weighted_routes(net, s, d)
    links = net.links.values()
    f_raw = max(raw_fidelity for _, raw_fidelity in links)
    top = max(egr for egr, _ in links)
    # min EGR -> its bound's suffix maxima: entry L bounds every length >= L
    bounds: dict[int, list[float]] = {}

    best: RoutedPath | None = None
    best_d = -1.0
    best_hops = 0

    def consider(path, result) -> None:
        nonlocal best, best_d, best_hops
        if result is None:
            return
        plan, evaluation = result
        if best is None or evaluation.d_total > best_d or (
            evaluation.d_total == best_d
            and (len(path), path) < (len(best.path), best.path)
        ):
            best = RoutedPath(path, plan, evaluation)
            best_d = evaluation.d_total
            best_hops = len(path) - 1

    seeded = set()
    for path, result in seeds.values():
        if len(path) - 1 <= cutoff and path not in seeded:
            seeded.add(path)
            consider(path, result)

    def loses(bound, hops):
        # Below the best D, or tying it with more hops than the best path.
        return bound < best_d or (bound == best_d and hops > best_hops)

    def prune(hops_used, hops_to_go, min_egr):
        if min_egr < best_d:
            return True
        if best is None:
            return False
        # Every path through the prefix has at least ``hops`` hops.
        hops = hops_used + hops_to_go
        held = bounds.get(min_egr)
        if held is None:
            # The bound never falls as min EGR rises, so the nearest larger
            # min EGR's may cut the prefix already, and the nearest smaller
            # one's may let it through already.
            larger = smaller = None
            for egr in bounds:
                if egr > min_egr:
                    if larger is None or egr < larger:
                        larger = egr
                elif smaller is None or egr > smaller:
                    smaller = egr
            if larger is not None and loses(bounds[larger][hops], hops):
                return True
            if smaller is not None and not loses(bounds[smaller][hops], hops):
                return False
            bound = d_bound_by_hops(f_raw, net.noise, min_egr, top, cutoff)
            held = bounds[min_egr] = [max(bound[length:]) for length in range(cutoff + 1)]
        return loses(held[hops], hops)

    for path in _iter_simple_paths(net, s, d, cutoff, prune=prune):
        path = tuple(path)
        if path not in seeded:
            consider(path, _optimize_floored(chain_from_path(net, path), best_d))
    return best


def multipath_greedy(net: Network, s, d, max_paths: int,
                     cost: LinkCost = LinkCost.INV_EGR) -> tuple[list[RoutedPath], list[float]]:
    """Greedy edge-disjoint multipath routing.

    Repeatedly finds the cheapest remaining path, optimizes its plan, and
    removes its channels from the working graph, stopping at ``max_paths``,
    on disconnection, or when the cheapest path no longer fits the
    decoherence budget (more hops than the chain optimizer allows). Returns
    the routed paths in discovery order and the cumulative distillable
    entanglement after each path.
    """
    _check_endpoints(net, s, d)
    check_int(max_paths, "max_paths", lo=1)
    edge_cost = LinkCost(cost).edge_cost
    # The working graph: each routed path's channels leave both endpoints'
    # rows, which keep their order, so each search sees the network less the
    # channels routed so far. The searches share one memo of edge costs.
    peers = dict(net.peers)
    weights: dict = {}
    routed: list[RoutedPath] = []
    cumulative: list[float] = []
    total = 0.0
    for _ in range(max_paths):
        path = _dijkstra(peers, s, d, edge_cost, weights)
        if path is None or len(path) - 1 > MAX_CHAIN_HOPS:
            break
        plan, evaluation = optimize_chain(chain_from_path(net, path))
        total += evaluation.d_total
        routed.append(RoutedPath(tuple(path), plan, evaluation))
        cumulative.append(total)
        for u, v in zip(path, path[1:]):
            peers[u] = [hop for hop in peers[u] if hop[0] != v]
            peers[v] = [hop for hop in peers[v] if hop[0] != u]
    return routed, cumulative
