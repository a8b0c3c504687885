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

# The exhaustive search's floored optimizer calls go through this name, which
# bench/layers.py rebinds to count them apart from the unfloored ones. It
# also rebinds routing.swap_fidelity, which routing no longer calls; both
# names stay until bench/ changes.
_optimize_floored = optimize_chain


class NoPathError(Exception):
    """No usable path exists between the requested endpoints."""


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


def _bfs_hops(net: Network, target, excluded: frozenset) -> dict:
    """Hop distance from every reachable node to ``target``."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v in net.neighbors(u):
            if v in dist or _edge_key(u, v) in excluded:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    return dist


def _iter_simple_paths(net: Network, s, d, cutoff: int,
                       excluded: frozenset = frozenset(), prune=None):
    """Yield all simple s-d paths of at most ``cutoff`` hops, in lexicographic
    order of the node sequence.

    ``prune(hops_used, hops_to_go, min_egr)`` may cut subtrees that provably
    cannot contain a useful path; distance-based pruning is always applied.
    """
    dist = _bfs_hops(net, d, excluded)
    if dist.get(s, cutoff + 1) > cutoff:
        return
    path = [s]
    visited = {s}

    def walk(u, hops_used, min_egr):
        for v in net.neighbors(u):
            if v in visited or _edge_key(u, v) in excluded:
                continue
            to_go = dist.get(v)
            if to_go is None or hops_used + 1 + to_go > cutoff:
                continue
            new_min = min(min_egr, net.channel(u, v).egr)
            if prune is not None and prune(hops_used + 1, to_go, new_min):
                continue
            path.append(v)
            visited.add(v)
            if v == d:
                yield list(path)
            else:
                yield from walk(v, hops_used + 1, new_min)
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
                           excluded: frozenset = frozenset()) -> list[int]:
    """Minimum-total-cost path under the chosen link cost.

    Ties break toward fewer hops, then the lexicographically smallest node
    sequence. Raises NoPathError when the destination is unreachable.
    """
    _check_endpoints(net, s, d)
    heap = [(0.0, 0, (s,))]
    done = set()
    while heap:
        total, hops, path = heappop(heap)
        u = path[-1]
        if u in done:
            continue
        done.add(u)
        if u == d:
            return list(path)
        for v in net.neighbors(u):
            if v in done or _edge_key(u, v) in excluded:
                continue
            edge = cost.edge_cost(net.channel(u, v).egr)
            heappush(heap, (total + edge, hops + 1, path + (v,)))
    raise NoPathError(f"no path from {s!r} to {d!r}")


def best_path_exhaustive(net: Network, s, d, cutoff: int = 10) -> RoutedPath:
    """Optimize every simple path within the cutoff and return the best.

    The maximum is exact: a DFS prefix, and with it every path through it,
    is skipped only when a sound upper bound on its distillable entanglement
    falls strictly below the best already found. The first, cheap bound is
    the prefix's minimum hop EGR, since D <= rate <= min EGR. When every
    channel has the same raw fidelity, the second is
    ``chainopt.d_bound_by_hops`` for that minimum EGR and the network's
    maximum EGR, which bounds rate and fidelity together; it is computed
    once per minimum EGR and call, and a prefix is cut when no reachable
    path length beats the best D. A network of mixed raw fidelities uses the
    first bound only. The weighted shortest paths are scored first so the
    bounds start tight. Ties break toward shorter paths, then lexicographic
    node order.
    """
    _check_endpoints(net, s, d)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    channels = net.channels()
    fidelities = {ch.raw_fidelity for ch in channels}
    f_raw = fidelities.pop() if len(fidelities) == 1 else None
    top = max(ch.egr for ch in channels)
    # min EGR -> (its bound by hop count, the bound's suffix maxima)
    bounds: dict[int, tuple[tuple[float, ...], list[float]]] = {}

    best: RoutedPath | None = None
    best_d = -1.0

    def consider(path) -> None:
        nonlocal best, best_d
        hops = len(path) - 1
        result = _optimize_floored(chain_from_path(net, path),
                                   floor=best_d if best is not None else None)
        if result is None:
            return
        plan, evaluation = result
        if best is None or evaluation.d_total > best_d or (
            evaluation.d_total == best_d
            and (hops, tuple(path)) < (len(best.path) - 1, best.path)
        ):
            best = RoutedPath(tuple(path), plan, evaluation)
            best_d = evaluation.d_total
    # Score the weighted shortest paths first: they are near-optimal in
    # practice, which makes the bounds below prune most of the enumeration.
    seeded = set()
    for cost in LinkCost:
        try:
            seed_path = shortest_weighted_path(net, s, d, cost)
        except NoPathError:
            break
        if len(seed_path) - 1 <= cutoff and tuple(seed_path) not in seeded:
            seeded.add(tuple(seed_path))
            consider(seed_path)

    def prune(hops_used, hops_to_go, min_egr):
        if min_egr < best_d:
            return True
        if f_raw is None or best is None:
            return False
        if min_egr not in bounds:
            # Entries below best_d only say so, and best_d never falls.
            bound = d_bound_by_hops(f_raw, net.noise, min_egr, top, cutoff, floor=best_d)
            bounds[min_egr] = bound, [max(bound[length:]) for length in range(cutoff + 1)]
        bound, bound_from = bounds[min_egr]
        hops = hops_used + hops_to_go
        # With no hops to go the prefix is a whole path of exactly that length.
        return (bound if hops_to_go == 0 else bound_from)[hops] < best_d

    for path in _iter_simple_paths(net, s, d, cutoff, prune=prune):
        if tuple(path) not in seeded:
            consider(path)
    if best is None:
        raise NoPathError(f"no path from {s!r} to {d!r} within {cutoff} hops")
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
        try:
            path = shortest_weighted_path(net, s, d, cost, frozenset(excluded))
        except NoPathError:
            break
        if len(path) - 1 > MAX_CHAIN_HOPS:
            break
        plan, evaluation = optimize_chain(chain_from_path(net, path))
        total += evaluation.d_total
        routed.append(RoutedPath(tuple(path), plan, evaluation))
        cumulative.append(total)
        for u, v in zip(path, path[1:]):
            excluded.add(_edge_key(u, v))
    return routed, cumulative
