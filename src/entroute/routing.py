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
from heapq import heappop, heappush

from .chainopt import (MAX_CHAIN_HOPS, PlanEvaluation, PurificationPlan,
                       chain_from_path, d_bound_by_hops, optimize_chain)
from .netgraph import Network
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
    """Pluggable channel cost for weighted shortest-path search."""

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


def _edge_key(u, v):
    return (u, v) if u < v else (v, u)


def _bfs_hops(net: Network, target) -> dict:
    """Hop distance from every reachable node to ``target``."""
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
    The walk reads each node's (peer, EGR) pairs from ``net.peers`` and each
    peer's hop distance to d from one BFS; every peer of a node d reaches
    is in that BFS too.
    """
    dist = _bfs_hops(net, d)
    if dist.get(s, cutoff + 1) > cutoff:
        return
    peers = net.peers
    path = [s]
    visited = {s}

    def walk(u, hops_used, min_egr):
        hops_used += 1
        for v, egr in peers[u]:
            to_go = dist[v]
            if v in visited or hops_used + to_go > cutoff:
                continue
            new_min = egr if egr < min_egr else min_egr
            if prune is not None and prune(hops_used, to_go, new_min):
                continue
            path.append(v)
            visited.add(v)
            if v == d:
                yield list(path)
            else:
                yield from walk(v, hops_used, new_min)
            path.pop()
            visited.remove(v)

    yield from walk(s, 0, float("inf"))


def enumerate_paths(net: Network, s, d, cutoff: int = 10) -> list[list[int]]:
    """All simple paths from s to d of length <= cutoff hops, each exactly
    once, in deterministic lexicographic order. Disconnected endpoints give
    an empty list."""
    _check_endpoints(net, s, d)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return list(_iter_simple_paths(net, s, d, cutoff))


def shortest_weighted_path(net: Network, s, d, cost: LinkCost = LinkCost.HOP,
                           excluded: frozenset = frozenset()) -> list[int] | None:
    """Minimum-total-cost path under the chosen link cost.

    Ties break toward fewer hops, then the lexicographically smallest node
    sequence. Returns None when the destination is unreachable. Each
    relaxation reads the (peer, EGR) pairs of ``net.peers``; a channel's
    (u, v) key is built only to test it against a non-empty ``excluded``.
    """
    _check_endpoints(net, s, d)
    peers = net.peers
    weights = {}  # edge cost by EGR
    heap = [(0.0, 0, (s,))]
    # The least total pushed per node. A label above it can never be the
    # node's first pop, so it is not pushed; one that ties it still is, and
    # the heap breaks the tie on hops and path.
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
            if v in done:
                continue
            if excluded and ((u, v) if u < v else (v, u)) in excluded:
                continue
            edge = weights.get(egr)
            if edge is None:
                edge = weights[egr] = cost.edge_cost(egr)
            reached = total + edge
            if reached > pushed.get(v, reached):
                continue
            pushed[v] = reached
            heappush(heap, (reached, hops + 1, path + (v,)))
    return None


def weighted_routes(net: Network, s, d, costs=tuple(LinkCost)) -> dict:
    """The weighted shortest path under each of ``costs``, with its best plan.

    Maps each cost to (path, ``optimize_chain``'s result). Each distinct path
    is optimized once, however many costs select it. A path of more hops than
    the chain optimizer allows exists but has no plan: its result is None.
    Reachability does not depend on the cost, so an unreachable ``d`` gives {}.
    """
    plans: dict[tuple[int, ...], tuple | None] = {}
    routes = {}
    for cost in costs:
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
    the prefix's minimum hop EGR, since D <= rate <= min EGR. When every
    channel has the same raw fidelity, the second is
    ``chainopt.d_bound_by_hops`` for that minimum EGR and the network's
    maximum EGR, which bounds rate and fidelity together, and a prefix is cut
    when no reachable path length beats the best D. That bound never falls
    as the minimum EGR rises, and the best D never falls; so a minimum EGR
    whose bound is not yet held first reads the bound held for the nearest
    larger one, and a prefix that bound already cuts costs no new bound.
    A network of mixed raw fidelities uses the first bound only.

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
    if not 1 <= cutoff <= MAX_CHAIN_HOPS:
        raise ValueError(f"cutoff must be 1..{MAX_CHAIN_HOPS}, got {cutoff}")
    if seeds is None:
        seeds = weighted_routes(net, s, d)
    links = net.links.values()
    fidelities = {raw_fidelity for _, raw_fidelity in links}
    f_raw = fidelities.pop() if len(fidelities) == 1 else None
    top = max(egr for egr, _ in links)
    # min EGR -> its bound's suffix maxima: entry L bounds every length >= L
    bounds: dict[int, list[float]] = {}

    best: RoutedPath | None = None
    best_d = -1.0

    def consider(path, result) -> None:
        nonlocal best, best_d
        if result is None:
            return
        plan, evaluation = result
        if best is None or evaluation.d_total > best_d or (
            evaluation.d_total == best_d
            and (len(path), path) < (len(best.path), best.path)
        ):
            best = RoutedPath(path, plan, evaluation)
            best_d = evaluation.d_total

    seeded = set()
    for path, result in seeds.values():
        if len(path) - 1 <= cutoff and path not in seeded:
            seeded.add(path)
            consider(path, result)

    def prune(hops_used, hops_to_go, min_egr):
        if min_egr < best_d:
            return True
        if f_raw is None or best is None:
            return False
        hops = hops_used + hops_to_go
        held = bounds.get(min_egr)
        if held is None:
            # The bound never falls as min EGR rises, so the nearest larger
            # min EGR's may cut the prefix already.
            larger = [egr for egr in bounds if egr > min_egr]
            if larger and bounds[min(larger)][hops] < best_d:
                return True
            bound = d_bound_by_hops(f_raw, net.noise, min_egr, top, cutoff)
            held = bounds[min_egr] = [max(bound[length:]) for length in range(cutoff + 1)]
        return held[hops] < best_d

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
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    excluded: set = set()
    routed: list[RoutedPath] = []
    cumulative: list[float] = []
    total = 0.0
    for _ in range(max_paths):
        path = shortest_weighted_path(net, s, d, cost, frozenset(excluded))
        if path is None or len(path) - 1 > MAX_CHAIN_HOPS:
            break
        plan, evaluation = optimize_chain(chain_from_path(net, path))
        total += evaluation.d_total
        routed.append(RoutedPath(tuple(path), plan, evaluation))
        cumulative.append(total)
        for u, v in zip(path, path[1:]):
            excluded.add(_edge_key(u, v))
    return routed, cumulative
