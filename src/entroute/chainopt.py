"""Purification-plan optimization for a fixed repeater chain.

A chain is segmented into contiguous runs of at most three hops; each
segment first swaps its raw links into one longer pair per raw round, then
applies a k-to-1 purification circuit, and finally all segment outputs are
swapped end to end. The optimizer is exact: it returns the plan with the
highest distillable entanglement over every segmentation and every circuit
width, so it is never below the paper's selectivity relaxation (which walks
k down from 8 on the rate bottleneck and can miss the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .netgraph import Network
from .purify import MAX_CIRCUIT_K, circuit_for, evaluate_circuit, post_purification_rate
from .werner import (NoiseParams, PERFECT, check_fidelity, distillable,
                     distillable_per_pair, fidelity_to_w, swap_fidelity)

MAX_CHAIN_HOPS = 10
MAX_SEGMENT_HOPS = 3
# The bound multiplies fidelities in another order than the optimizer does,
# so without this relative slack an exact bound could sit an ulp below a D.
_BOUND_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class Chain:
    """A path of repeaters: per-hop raw EGRs and fidelities plus the noise model."""

    egrs: tuple[int, ...]
    fidelities: tuple[float, ...]
    noise: NoiseParams = PERFECT

    def __post_init__(self):
        if len(self.egrs) != len(self.fidelities):
            raise ValueError("egrs and fidelities must have equal length")
        if len(self.egrs) < 1:
            raise ValueError("chain must have at least one hop")
        for egr in self.egrs:
            if egr < 1:
                raise ValueError(f"hop egr must be >= 1, got {egr}")
        for f in self.fidelities:
            check_fidelity(f)

    @property
    def n_hops(self) -> int:
        return len(self.egrs)


def chain_from_path(net: Network, path) -> Chain:
    """The chain induced by walking ``path`` through ``net``."""
    channels = [net.channel(u, v) for u, v in zip(path, path[1:])]
    return Chain(
        egrs=tuple(ch.egr for ch in channels),
        fidelities=tuple(ch.raw_fidelity for ch in channels),
        noise=net.noise,
    )


@dataclass(frozen=True)
class PurificationPlan:
    """An ordered segmentation of a chain with one circuit width per segment."""

    segments: tuple[tuple[int, int], ...]  # (hop count, circuit k) per segment

    def __post_init__(self):
        if not self.segments:
            raise ValueError("plan must have at least one segment")
        for hops, k in self.segments:
            if not 1 <= hops <= MAX_SEGMENT_HOPS:
                raise ValueError(f"segment length must be 1..{MAX_SEGMENT_HOPS}, got {hops}")
            if not 1 <= k <= 8:
                raise ValueError(f"segment circuit width must be 1..8, got {k}")

    @property
    def n_hops(self) -> int:
        return sum(hops for hops, _ in self.segments)

    def summary(self) -> str:
        """Compact text form, e.g. ``3:8+2:1`` (hops:k per segment)."""
        return "+".join(f"{hops}:{k}" for hops, k in self.segments)


@dataclass(frozen=True)
class PlanEvaluation:
    final_fidelity: float
    rate: float
    d_total: float


def no_purification_plan(n_hops: int) -> PurificationPlan:
    """Plain swapping: single-hop segments, identity circuits."""
    return PurificationPlan(segments=tuple((1, 1) for _ in range(n_hops)))


@lru_cache(maxsize=None)
def enumerate_segmentations(n_hops: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of ``n_hops`` into parts of size 1..3.

    Counts follow the tribonacci recurrence T(n) = T(n-1) + T(n-2) + T(n-3).
    """
    if not 1 <= n_hops <= MAX_CHAIN_HOPS:
        raise ValueError(f"n_hops must be 1..{MAX_CHAIN_HOPS}, got {n_hops}")
    result = []

    def extend(prefix, remaining):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(1, min(MAX_SEGMENT_HOPS, remaining) + 1):
            prefix.append(part)
            extend(prefix, remaining - part)
            prefix.pop()

    extend([], n_hops)
    return tuple(result)


@lru_cache(maxsize=None)
def _segment_table(f_raw: float, min_egr: int, p2: float, eta: float,
                   max_k: int) -> tuple[tuple[float, float, float], ...]:
    """Per-k table for one segment: (output fidelity, its W value, rate)."""
    noise = NoiseParams(p2, eta)
    rows = []
    for k in range(1, max_k + 1):
        circuit = circuit_for(k)
        outcome = evaluate_circuit(circuit, f_raw, noise)
        rate = post_purification_rate(min_egr, circuit, outcome)
        rows.append((outcome.f_out, fidelity_to_w(outcome.f_out), rate))
    return tuple(rows)


def evaluate_plan(chain: Chain, plan: PurificationPlan) -> PlanEvaluation:
    """Evaluate one plan on one chain.

    Per segment: the raw links are swapped into min-EGR longer pairs, the
    segment circuit purifies them; the segment outputs are then swapped
    together and the end-to-end rate is the minimum post-purification
    segment rate.
    """
    if plan.n_hops != chain.n_hops:
        raise ValueError(
            f"plan covers {plan.n_hops} hops but chain has {chain.n_hops}")
    noise = chain.noise
    seg_fids = []
    seg_rates = []
    start = 0
    for hops, k in plan.segments:
        f_raw = swap_fidelity(chain.fidelities[start:start + hops], noise)
        min_egr = min(chain.egrs[start:start + hops])
        circuit = circuit_for(k)
        outcome = evaluate_circuit(circuit, f_raw, noise)
        seg_fids.append(outcome.f_out)
        seg_rates.append(post_purification_rate(min_egr, circuit, outcome))
        start += hops
    final_fidelity = swap_fidelity(seg_fids, noise)
    rate = min(seg_rates)
    return PlanEvaluation(
        final_fidelity=final_fidelity,
        rate=rate,
        d_total=distillable(rate, final_fidelity),
    )


def optimize_chain(chain: Chain, max_k: int = 8, floor: float | None = None,
                   ) -> tuple[PurificationPlan, PlanEvaluation] | None:
    """Best purification plan for ``chain`` by distillable entanglement.

    Exact over every segmentation and every circuit width 1..``max_k``. A
    plan's D is at most its rate, the slowest segment's. So every segment
    rate r is tried as the bottleneck, fastest first: each slice of the
    chain takes its highest-W circuit with rate >= r, and a DP over segment
    boundaries keeps, per segment count, the highest-W plan. The sweep stops
    once r falls below the best D found (or ``floor``). Ties break toward
    higher fidelity, then fewer segments, then smaller k-vectors, then
    shorter leading segments.

    With ``floor`` set, plans below it are ignored and None is returned when
    none reaches it; a plan at exactly ``floor`` is still returned, so that
    an outer search can break ties.
    """
    n = chain.n_hops
    if n > MAX_CHAIN_HOPS:
        raise ValueError(
            f"chain has {n} hops; optimizer handles at most {MAX_CHAIN_HOPS}")
    noise = chain.noise
    # Every circuit on every (start, hops) slice, fastest first.
    rows = []
    for start in range(n):
        for hops in range(1, min(MAX_SEGMENT_HOPS, n - start) + 1):
            table = _segment_table(
                swap_fidelity(chain.fidelities[start:start + hops], noise),
                min(chain.egrs[start:start + hops]), noise.p2, noise.eta, max_k)
            rows.extend((rate, start, hops, (w, f_out, -k))
                        for k, (f_out, w, rate) in enumerate(table, 1))
    rows.sort(key=lambda row: row[0], reverse=True)
    # No plan is faster than the slowest hop's raw rate.
    top = min(chain.egrs)
    swap = noise.swap_factor
    bar = -math.inf if floor is None else floor
    admitted: dict[tuple[int, int], tuple] = {}  # slice -> (w, f_out, -k, rate)
    # states[end][segs]: the best cover of hops [0, end) by segs segments, as
    # (W product, -k per segment, -length per segment, rate), compared on the
    # first three. W is multiplied left to right, as swap_fidelity does; a
    # full cover carries its end-to-end fidelity instead. Covers ending at or
    # before the first slice admitted since the last pass stay as they are.
    states: list[dict[int, tuple]] = [{0: (1.0, (), (), math.inf)}] + [{} for _ in range(n)]
    stale = 0
    best_key = best = None
    i = 0
    while i < len(rows) and rows[i][0] >= bar:
        threshold = rows[i][0]
        while i < len(rows) and rows[i][0] == threshold:
            rate, start, hops, choice = rows[i]
            i += 1
            held = admitted.get((start, hops))
            if held is None or choice > held[:3]:
                admitted[start, hops] = choice + (rate,)
                stale = min(stale, start)
        if threshold > top or stale == n:
            continue
        scored = states[n]  # full covers scored on the last pass
        for end in range(stale + 1, n + 1):
            layer = {}
            for hops in range(1, min(MAX_SEGMENT_HOPS, end) + 1):
                row = admitted.get((end - hops, hops))
                if row is None:
                    continue
                w, f_out, neg_k, rate = row
                for segs, (prod, neg_ks, neg_lens, low) in states[end - hops].items():
                    value = prod * w
                    if end == n:
                        value = f_out if segs == 0 else 0.25 + 0.75 * swap ** segs * value
                    state = (value, neg_ks + (neg_k,), neg_lens + (-hops,), min(low, rate))
                    held = layer.get(segs + 1)
                    if held is None or state[:3] > held[:3]:
                        layer[segs + 1] = state
            states[end] = layer
        stale = n
        for segs, state in states[n].items():
            fid, neg_ks, neg_lens, rate = state
            if rate < bar or scored.get(segs) == state:
                continue
            d_total = distillable(rate, fid)
            key = (d_total, fid, -segs, neg_ks, neg_lens)
            if d_total >= bar and (best_key is None or key > best_key):
                best_key, bar = key, d_total
                segments = tuple((-h, -k) for h, k in zip(neg_lens, neg_ks))
                best = (PurificationPlan(segments=segments),
                        PlanEvaluation(final_fidelity=fid, rate=rate, d_total=d_total))
    return best


def d_bound_by_hops(f_raw: float, noise: NoiseParams, min_egr: int, max_egr: int,
                    max_hops: int, floor: float | None = None) -> tuple[float, ...]:
    """Upper bound on the optimal D of a uniform chain, by hop count.

    Entry L (0..``max_hops``) bounds ``optimize_chain(chain).d_total``
    for every L-hop chain of raw fidelity ``f_raw`` under ``noise`` whose hop
    EGRs are at most ``max_egr`` with minimum ``min_egr``. A plan's fidelity
    does not depend on EGRs and a segment's rate can only rise with its EGR,
    so the segment holding the minimum hop is rated at ``min_egr`` and every
    other one at ``max_egr``. Every such segment rate r is tried as the
    bottleneck: a DP over hop count places exactly one min-EGR segment, takes
    per segment the highest-W circuit with rate >= r, and scores r * d(F).
    The bound never falls as ``min_egr`` or ``max_egr`` rises.

    With ``floor`` set, bottlenecks too slow to reach it are skipped: an entry
    at or above ``floor`` is exact, one below it only says "below floor".
    """
    swap = noise.swap_factor
    # (rate, holds the minimum hop, hops, W * swap) for every segment circuit.
    rows = []
    for hops in range(1, MAX_SEGMENT_HOPS + 1):
        f_seg = swap_fidelity([f_raw] * hops, noise)
        for pinned, egr in ((True, min_egr), (False, max_egr)):
            table = _segment_table(f_seg, egr, noise.p2, noise.eta, MAX_CIRCUIT_K)
            rows.extend((rate, pinned, hops, w * swap) for _, w, rate in table)
    rows.sort(key=lambda row: row[0], reverse=True)
    bar = -math.inf if floor is None else floor / _BOUND_SLACK
    bound = [0.0] * (max_hops + 1)
    # The highest W * swap per segment length at least as fast as the
    # current threshold, for segments rated at max_egr (free) and at min_egr
    # (held); 0, a useless W, until a circuit is admitted.
    free = [0.0] * (MAX_SEGMENT_HOPS + 1)
    held = [0.0] * (MAX_SEGMENT_HOPS + 1)
    # Best W * swap product over covers of L hops without / with the
    # min-EGR segment, at the current threshold.
    without = [1.0] + [0.0] * max_hops
    with_min = [0.0] * (max_hops + 1)
    i = 0
    # D <= r, so a threshold below every entry (or the floor) raises none.
    while i < len(rows) and rows[i][0] * _BOUND_SLACK >= max(bar, min(bound[1:], default=0.0)):
        threshold = rows[i][0]
        while i < len(rows) and rows[i][0] == threshold:
            _, pinned, hops, w_swap = rows[i]
            i += 1
            admitted = held if pinned else free
            if w_swap > admitted[hops]:
                admitted[hops] = w_swap
        if threshold > min_egr:
            continue  # no segment holding the minimum hop is this fast
        reach = threshold * _BOUND_SLACK
        for length in range(1, max_hops + 1):
            best_without = best_with = 0.0
            for hops in range(1, min(MAX_SEGMENT_HOPS, length) + 1):
                rest = length - hops
                value = without[rest] * free[hops]
                if value > best_without:
                    best_without = value
                value = max(with_min[rest] * free[hops], without[rest] * held[hops])
                if value > best_with:
                    best_with = value
            without[length] = best_without
            # Products only rise as the threshold falls; one that did not
            # rise scores lower than at the last threshold.
            if best_with > with_min[length]:
                with_min[length] = best_with
                if reach > bound[length]:
                    fid = min(1.0, 0.25 + 0.75 * best_with / swap)
                    bound[length] = max(bound[length], reach * distillable_per_pair(fid))
    return tuple(bound)
