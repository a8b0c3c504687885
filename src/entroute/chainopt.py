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
from operator import itemgetter

from .netgraph import Network, is_egr
from .purify import (MAX_CIRCUIT_K, _evaluate_cached, _rate, circuit_for, evaluate_circuit,
                     post_purification_rate)
from .werner import (F_MIN, NoiseParams, PERFECT, check_fidelity, distillable,
                     distillable_per_pair, swap_fidelity)

MAX_CHAIN_HOPS = 10
MAX_SEGMENT_HOPS = 3
# The bounds multiply fidelities in another order than the optimizer does
# and read d(F), which rises with F only up to rounding; so without this
# relative slack an exact bound could sit an ulp below a D.
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
            if not is_egr(egr):
                raise ValueError(f"hop egr must be an integer in 1..2**64, got {egr!r}")
        for f in self.fidelities:
            check_fidelity(f)

    @property
    def n_hops(self) -> int:
        return len(self.egrs)


def chain_from_path(net: Network, path) -> Chain:
    """The chain induced by walking ``path`` through ``net``'s link table."""
    links = net.links
    hops = [links[(u, v) if u < v else (v, u)] for u, v in zip(path, path[1:])]
    return Chain(egrs=tuple([egr for egr, _ in hops]),
                 fidelities=tuple([raw_fidelity for _, raw_fidelity in hops]),
                 noise=net.noise)


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
            if not 1 <= k <= MAX_CIRCUIT_K:
                raise ValueError(f"segment circuit width must be 1..{MAX_CIRCUIT_K}, got {k}")

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


@lru_cache(maxsize=4096)
def _segment_table(f_raw: float, min_egr: int, p2: float, eta: float,
                   max_k: int) -> tuple[tuple[float, float, int, float], ...]:
    """Per-k rows for one segment, in the optimizer's form (W, f_out, -k, rate).

    Row k - 1 is ``purify._evaluate_cached``'s row for width k, its p_succ
    rated at ``min_egr`` by ``purify._rate``; no circuit is looked up or
    evaluated per width.
    """
    if not 1 <= max_k <= MAX_CIRCUIT_K:
        raise ValueError(f"circuit width k must be in 1..{MAX_CIRCUIT_K}, got {max_k}")
    return tuple([(w, f_out, -k, _rate(min_egr, k, p_succ)) for k, (f_out, p_succ, w)
                  in enumerate(_evaluate_cached(f_raw, p2, eta)[:max_k], 1)])


@lru_cache(maxsize=4096)
def _uniform_segments(f_raw: float, noise: NoiseParams, max_egr: int
                      ) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """Every circuit on a segment of 1..MAX_SEGMENT_HOPS hops at ``f_raw``
    each, for ``d_bound_by_hops``.

    Returns the circuits as (hops, W * swap, k, p_succ), read from
    ``purify._evaluate_cached``, and their bound rows rated at ``max_egr``,
    as (rate, False, hops, W * swap). A search asks for one fidelity, noise
    and maximum EGR many times, with a different minimum EGR each time.
    """
    swap = noise.swap_factor
    circuits = tuple((hops, w * swap, k, p_succ)
                     for hops in range(1, MAX_SEGMENT_HOPS + 1)
                     for k, (_, p_succ, w) in enumerate(_evaluate_cached(
                         swap_fidelity([f_raw] * hops, noise), noise.p2, noise.eta), 1))
    return circuits, tuple((_rate(max_egr, k, p_succ), False, hops, w_swap)
                           for hops, w_swap, k, p_succ in circuits)


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


def _cover(admitted: list[dict], states: list[dict], stale: int, swap: float) -> None:
    """Rebuild the covers ending after hop ``stale`` from the ``admitted`` circuits.

    ``admitted[end]`` maps the length of a slice ending after hop ``end`` to
    its circuit (w, f_out, -k, rate). ``states[end][segs]`` is the best cover
    of hops [0, end) by segs segments, as (W product, -k per segment, -length
    per segment, rate), compared on the first three. W is multiplied left to
    right, as swap_fidelity does; a full cover carries its end-to-end
    fidelity instead. Covers ending at or before hop ``stale`` are kept as
    they are: a slice enters only the covers ending where it ends and after,
    so a caller that changed one ending at ``end`` passes ``end - 1``. A
    candidate's tuples are built only when its W product reaches the held
    cover's; on an equal product the rest of the key decides.
    """
    n = len(states) - 1
    for end in range(stale + 1, n + 1):
        layer = {}
        for hops, (w, f_out, neg_k, rate) in admitted[end].items():
            for segs, (prod, neg_ks, neg_lens, low) in states[end - hops].items():
                value = prod * w
                if end == n:
                    value = f_out if segs == 0 else 0.25 + 0.75 * swap ** segs * value
                held = layer.get(segs + 1)
                if held is not None:
                    if value < held[0]:
                        continue
                    if value == held[0] and (neg_ks + (neg_k,), neg_lens + (-hops,)) <= held[1:3]:
                        continue
                layer[segs + 1] = (value, neg_ks + (neg_k,), neg_lens + (-hops,),
                                   rate if rate < low else low)
        states[end] = layer


def _score(covers: dict, scored: dict, bar: float, best: tuple | None):
    """The best of ``best`` and the full ``covers`` not in ``scored`` that reach ``bar``.

    A best is (key, cover), its key (D, fidelity, -segments, -k per segment,
    -length per segment). Returns it and the bar it raises.
    """
    for segs, cover in covers.items():
        fid, neg_ks, neg_lens, rate = cover
        if rate < bar or scored.get(segs) == cover:
            continue
        d_total = distillable(rate, fid)
        key = (d_total, fid, -segs, neg_ks, neg_lens)
        if d_total >= bar and (best is None or key > best[0]):
            best, bar = (key, cover), d_total
    return best, bar


def optimize_chain(chain: Chain, max_k: int = 8) -> tuple[PurificationPlan, PlanEvaluation]:
    """Best purification plan for ``chain`` by distillable entanglement.

    Exact over every segmentation and every circuit width 1..``max_k``. A
    ceiling pass comes first: each slice of the chain takes its highest-W
    circuit, and a DP over segment boundaries keeps, per segment count, the
    highest-W cover. Its best fidelity F_c is the highest any plan reaches.
    When d(F_c) is 0, every plan has D = 0, plans rank by fidelity and the
    tie-breaks alone, and the ceiling's best cover is the answer. (At F_c =
    1/4 a hop holds no entanglement and every plan ties at 1/4, whatever its
    other circuits; the sweep below breaks those ties as it always has.)

    Otherwise a plan's D is at most its rate, the slowest segment's, times
    d(F_c). So every segment rate r is tried as the bottleneck, fastest
    first: each slice takes its highest-W circuit with rate >= r and the DP
    runs again. The sweep stops once r * d(F_c) falls below the best D found.
    Ties break toward higher fidelity, then fewer segments, then smaller
    k-vectors, then shorter leading segments.

    One exception: on a chain with a hop at a fixed point of the purify step
    (F = 1/4, or F = 1/2 with perfect gates), D and the delivered fidelity are
    exact, but the plan among D = 0 ties may differ from the argmax of the
    full tie-break key. There, plans tie on fidelity to the last bit, and the
    per-slice highest-W choice can take a larger k whose W is higher only by
    an ulp.
    """
    n = chain.n_hops
    if n > MAX_CHAIN_HOPS:
        raise ValueError(
            f"chain has {n} hops; optimizer handles at most {MAX_CHAIN_HOPS}")
    noise = chain.noise
    p2, eta, swap = noise.p2, noise.eta, noise.swap_factor
    bar = -math.inf
    # Every slice's circuits (w, f_out, -k, rate), and its highest-W one, by
    # the hop the slice ends after and its length. A slice's raw fidelity and
    # minimum EGR grow hop by hop from its start: its W product is taken left
    # to right and scaled by the swap factor's power, as swap_fidelity does,
    # so every fidelity is swap_fidelity's to the bit; a one-hop slice keeps
    # its hop's own fidelity.
    fids, egrs = chain.fidelities, chain.egrs
    ws = [(4.0 * f - 1.0) / 3.0 for f in fids]  # fidelity_to_w of each hop
    scales = [0.75 * swap ** joins for joins in range(MAX_SEGMENT_HOPS)]
    tables = []
    ceiling: list[dict] = [{} for _ in range(n + 1)]
    for start in range(n):
        w, min_egr = 1.0, egrs[start]
        for end in range(start + 1, min(start + MAX_SEGMENT_HOPS, n) + 1):
            w *= ws[end - 1]
            if egrs[end - 1] < min_egr:
                min_egr = egrs[end - 1]
            f_raw = fids[start] if end == start + 1 else 0.25 + scales[end - start - 1] * w
            circuits = _segment_table(f_raw, min_egr, p2, eta, max_k)
            tables.append((end, end - start, circuits))
            ceiling[end][end - start] = max(circuits)
    states: list[dict[int, tuple]] = [{0: (1.0, (), (), math.inf)}] + [{} for _ in range(n)]
    _cover(ceiling, states, 0, swap)
    f_ceiling = max(fid for fid, *_ in states[n].values())
    d_ceiling = distillable_per_pair(f_ceiling)
    if d_ceiling == 0.0 and f_ceiling > F_MIN:
        best, _ = _score(states[n], {}, bar, None)
    else:
        best = None
        reach = d_ceiling * _BOUND_SLACK
        rows = [(circuit[3], end, hops, circuit) for end, hops, circuits in tables
                for circuit in circuits]
        rows.sort(key=itemgetter(0), reverse=True)
        # No plan is faster than the slowest hop's raw rate.
        top = min(chain.egrs)
        admitted: list[dict] = [{} for _ in range(n + 1)]
        states = [{0: (1.0, (), (), math.inf)}] + [{} for _ in range(n)]
        stale = 0  # covers ending after this hop are rebuilt on the next pass
        i = 0
        while i < len(rows) and rows[i][0] * reach >= bar:
            threshold = rows[i][0]
            while i < len(rows) and rows[i][0] == threshold:
                _, end, hops, circuit = rows[i]
                i += 1
                held = admitted[end].get(hops)
                if held is None or circuit > held:
                    admitted[end][hops] = circuit
                    stale = min(stale, end - 1)
            if threshold > top or stale == n:
                continue
            scored = states[n]  # full covers scored on the last pass
            _cover(admitted, states, stale, swap)
            stale = n
            best, bar = _score(states[n], scored, bar, best)
    (d_total, fid, *_), (_, neg_ks, neg_lens, rate) = best
    segments = tuple((-h, -k) for h, k in zip(neg_lens, neg_ks))
    return (PurificationPlan(segments=segments),
            PlanEvaluation(final_fidelity=fid, rate=rate, d_total=d_total))


@lru_cache(maxsize=4096, typed=True)
def d_bound_by_hops(f_raw: float, noise: NoiseParams, min_egr: int, max_egr: int,
                    max_hops: int) -> tuple[float, ...]:
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
    """
    if not (is_egr(min_egr) and is_egr(max_egr) and min_egr <= max_egr):
        raise ValueError("min and max EGR must be integers in 1..2**64, in order, "
                         f"got [{min_egr!r}, {max_egr!r}]")
    if not (type(max_hops) is int and 1 <= max_hops <= MAX_CHAIN_HOPS):
        raise ValueError(f"max_hops must be an integer in 1..{MAX_CHAIN_HOPS}, got {max_hops!r}")
    swap = noise.swap_factor
    # D <= r, so a threshold below every entry raises none.
    stop = 0.0
    # (rate, holds the minimum hop, hops, W * swap) for every segment circuit;
    # only the rate depends on EGR.
    circuits, free_rows = _uniform_segments(f_raw, noise, max_egr)
    rows = [(_rate(min_egr, k, p_succ), True, hops, w_swap)
            for hops, w_swap, k, p_succ in circuits]
    rows += free_rows
    rows.sort(key=itemgetter(0), reverse=True)
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
    while i < len(rows) and rows[i][0] * _BOUND_SLACK >= stop:
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
        raised = False
        for length in range(1, max_hops + 1):
            best_without = best_with = 0.0
            for hops in range(1, min(MAX_SEGMENT_HOPS, length) + 1):
                rest = length - hops
                value = without[rest] * free[hops]
                if value > best_without:
                    best_without = value
                value = with_min[rest] * free[hops]
                pinned = without[rest] * held[hops]
                if pinned > value:
                    value = pinned
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
                    raised = True
        if raised:
            stop = min(bound[1:])
    return tuple(bound)
