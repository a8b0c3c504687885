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
from itertools import groupby
from operator import itemgetter

from .netgraph import Network, check_egr, check_egr_range, check_int
from .purify import (MAX_CIRCUIT_K, _evaluate_cached, circuit_for, evaluate_circuit,
                     post_purification_rate)
from .werner import (F_MIN, NoiseParams, PERFECT, check_fidelity, distillable,
                     distillable_per_pair, swap_fidelity)

MAX_CHAIN_HOPS = 10
MAX_SEGMENT_HOPS = 3
# _SPLITS[L]: the (rest, segment hops) pairs that cover L hops; the optimizer
# reads the segment as the last, enumerate_segmentations as the first.
_SPLITS = tuple(tuple((length - hops, hops)
                      for hops in range(1, min(MAX_SEGMENT_HOPS, length) + 1))
                for length in range(MAX_CHAIN_HOPS + 1))
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
            check_egr(egr, "hop egr")
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
            check_int(hops, "segment length", 1, MAX_SEGMENT_HOPS)
            check_int(k, "segment circuit width", 1, MAX_CIRCUIT_K)

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
    return PurificationPlan(segments=((1, 1),) * check_int(n_hops, "n_hops", lo=1))


@lru_cache(maxsize=None, typed=True)
def enumerate_segmentations(n_hops: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of ``n_hops`` into parts of size 1..3, in
    lexicographic order, read off ``_SPLITS``.

    Counts follow the tribonacci recurrence T(n) = T(n-1) + T(n-2) + T(n-3).
    The cache is typed, so True and 2.0 miss the entries of 1 and 2 and are
    rejected.
    """
    check_int(n_hops, "n_hops", 1, MAX_CHAIN_HOPS)
    return tuple((hops,) + tail for rest, hops in _SPLITS[n_hops]
                 for tail in (enumerate_segmentations(rest) if rest else ((),)))


@lru_cache(maxsize=4096, typed=True)
def _segment_table(f_raw: float, min_egr: int, p2: float, eta: float,
                   max_k: int) -> tuple[tuple[float, float, int, float], ...]:
    """Per-k rows for one segment, in the optimizer's form (W, f_out, -k, rate).

    Row k - 1 is ``purify._evaluate_cached``'s row for width k, rated
    inline at ``min_egr`` as p_succ * float(min_egr // k); width 1's p_succ
    is exactly 1.0, so its rate is the raw rate, float(min_egr). The cache
    is typed, so a bool misses the entry of 1.0 and is rejected.
    """
    check_int(max_k, "max_k", 1, MAX_CIRCUIT_K)
    check_int(min_egr, "min_egr", lo=0)
    rows = _evaluate_cached(f_raw, p2, eta)[0]
    return tuple([(w, f_out, -k, p_succ * float(min_egr // k)) for k, (f_out, p_succ, w)
                  in enumerate(rows[:max_k], 1)])


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
                         swap_fidelity([f_raw] * hops, noise), noise.p2, noise.eta)[0], 1))
    return circuits, tuple((p_succ * float(max_egr // k), False, hops, w_swap)
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


def _score(covers: dict, best: tuple | None):
    """The best of ``best`` and the full ``covers``: the argmax of the key.

    A best is (key, cover), its key (D, fidelity, -segments, -k per segment,
    -length per segment).
    """
    for segs, cover in covers.items():
        fid, neg_ks, neg_lens, rate = cover
        d_total = distillable(rate, fid)
        key = (d_total, fid, -segs, neg_ks, neg_lens)
        if best is None or key > best[0]:
            best = (key, cover)
    return best


def optimize_chain(chain: Chain, max_k: int = 8) -> tuple[PurificationPlan, PlanEvaluation]:
    """Best purification plan for ``chain`` by distillable entanglement.

    Exact over every segmentation and every circuit width 1..``max_k``. A
    ceiling pass comes first: each slice of the chain takes its highest-W
    circuit, and a DP over segment boundaries keeps, per segment count, the
    highest-W cover. Its best fidelity F_c is the highest any plan reaches.
    A slice's highest-W circuit does not depend on EGR: it is the width that
    ``purify._evaluate_cached`` names as the best up to ``max_k``, so this
    pass reads no per-EGR circuit table, and only that circuit is rated.
    When d(F_c) is 0, every plan has D = 0, plans rank by fidelity and the
    tie-breaks alone, and the ceiling's best cover is the answer. (At F_c =
    1/4 a hop holds no entanglement and every plan ties at 1/4, whatever its
    other circuits; the sweep below breaks those ties as it always has.)

    Otherwise a plan's D is at most its rate, the slowest segment's, times
    d(F_c). So every segment rate r is tried as the bottleneck, fastest
    first: each slice takes its highest-W circuit with rate >= r, the DP
    runs again, and one argmax of the key (D, F, -segments, -k per segment,
    -length per segment) scores its full covers: ties break toward higher
    fidelity, then fewer segments, smaller k-vectors, shorter leading
    segments. The sweep stops once r * d(F_c) falls below the best D found.

    While no pass may distil, each one first takes the best W product of
    its covers by a scalar DP, G[end] = max over slices of G[end - hops] *
    W * (swap if end > hops else 1), rebuilt from the earliest slice that
    changed; a pass whose 1/4 + 3/4 G[n] gives d = 0, as every pass above
    the slowest hop's raw rate does, runs no ``_cover``. Its circuits stay
    admitted and ``stale`` keeps the earliest changed slice, so the next
    pass rebuilds the covers that every pass would have. The skip is exact
    for three reasons. A slice's best W never falls as the threshold does,
    so the passes that cannot distil come first, and once one pass may
    distil the check stops. A pass is skipped only when its G[n], raised by
    the bound slack, gives d = 0, so rounding cannot hide a pass that
    distils. And the skip is taken only when d(F_c) > 0: the answer then
    has D > 0, or is a D = 0 cover at F_c, above the fidelity of every
    skipped cover. At F_c = 1/4 every pass runs.

    One exception: on a chain with a hop at a fixed point of the purify step
    (F = 1/4, or F = 1/2 with perfect gates), D and the delivered fidelity are
    exact, but the plan among D = 0 ties may differ from the argmax of the
    full tie-break key. There, plans tie on fidelity to the last bit, and the
    per-slice highest-W choice can take a larger k whose W is higher only by
    an ulp.
    """
    check_int(max_k, "max_k", 1, MAX_CIRCUIT_K)
    n = chain.n_hops
    if n > MAX_CHAIN_HOPS:
        raise ValueError(
            f"chain has {n} hops; optimizer handles at most {MAX_CHAIN_HOPS}")
    noise = chain.noise
    p2, eta, swap = noise.p2, noise.eta, noise.swap_factor
    # Every slice as (end, length, raw fidelity, minimum EGR), from which the
    # sweep reads its circuit table, and its highest-W circuit (w, f_out, -k,
    # rate) by the hop the slice ends after and its length. A slice's raw
    # fidelity and minimum EGR grow hop by hop from its start: its W product
    # is taken left to right and scaled by the swap factor's power, as
    # swap_fidelity does, so every fidelity is swap_fidelity's to the bit; a
    # one-hop slice keeps its hop's own fidelity.
    fids, egrs = chain.fidelities, chain.egrs
    ws = [(4.0 * f - 1.0) / 3.0 for f in fids]  # fidelity_to_w of each hop
    scales = [0.75 * swap ** joins for joins in range(MAX_SEGMENT_HOPS)]
    slices = []
    ceiling: list[dict] = [{} for _ in range(n + 1)]
    for start in range(n):
        w, min_egr = 1.0, egrs[start]
        for end in range(start + 1, min(start + MAX_SEGMENT_HOPS, n) + 1):
            w *= ws[end - 1]
            if egrs[end - 1] < min_egr:
                min_egr = egrs[end - 1]
            f_raw = fids[start] if end == start + 1 else 0.25 + scales[end - start - 1] * w
            slices.append((end, end - start, f_raw, min_egr))
            # Rated as _segment_table rates it, so it is that table's max.
            outcomes, tops = _evaluate_cached(f_raw, p2, eta)
            k = tops[max_k - 1]
            f_out, p_succ, top_w = outcomes[k - 1]
            ceiling[end][end - start] = (top_w, f_out, -k, p_succ * float(min_egr // k))
    states: list[dict[int, tuple]] = [{0: (1.0, (), (), math.inf)}] + [{} for _ in range(n)]
    _cover(ceiling, states, 0, swap)
    f_ceiling = max(fid for fid, *_ in states[n].values())
    d_ceiling = distillable_per_pair(f_ceiling)
    if d_ceiling == 0.0 and f_ceiling > F_MIN:
        best = _score(states[n], None)
    else:
        best = None
        reach = d_ceiling * _BOUND_SLACK
        rows = [(circuit[3], end, hops, circuit) for end, hops, f_raw, min_egr in slices
                for circuit in _segment_table(f_raw, min_egr, p2, eta, max_k)]
        rows.sort(key=itemgetter(0), reverse=True)
        admitted: list[dict] = [{} for _ in range(n + 1)]
        states = [{0: (1.0, (), (), math.inf)}] + [{} for _ in range(n)]
        stale = 0  # covers ending after this hop are rebuilt on the next pass
        # Until a pass may distil: g[end] is the highest W product of a cover
        # of hops [0, end) by the admitted circuits, and every entry after
        # ``dead`` is rebuilt at the next pass. None once a pass may distil.
        g = [1.0] + [0.0] * n
        dead = 0 if d_ceiling > 0.0 else None
        for threshold, group in groupby(rows, key=itemgetter(0)):
            if best is not None and threshold * reach < best[0][0]:
                break
            for _, end, hops, circuit in group:
                held = admitted[end].get(hops)
                if held is None or circuit > held:
                    admitted[end][hops] = circuit
                    stale = min(stale, end - 1)
                    if dead is not None and end - 1 < dead:
                        dead = end - 1
            if stale == n:
                continue
            if dead is not None:
                for end in range(dead + 1, n + 1):
                    value = 0.0
                    for hops, circuit in admitted[end].items():
                        w = g[end - hops] * circuit[0] * (swap if end > hops else 1.0)
                        if w > value:
                            value = w
                    g[end] = value
                if distillable_per_pair(min(1.0, 0.25 + 0.75 * g[n] * _BOUND_SLACK)) == 0.0:
                    dead = n
                    continue
                dead = None
            _cover(admitted, states, stale, swap)
            stale = n
            best = _score(states[n], best)
    (d_total, fid, *_), (_, neg_ks, neg_lens, rate) = best
    segments = tuple((-h, -k) for h, k in zip(neg_lens, neg_ks))
    return (PurificationPlan(segments=segments),
            PlanEvaluation(final_fidelity=fid, rate=rate, d_total=d_total))


@lru_cache(maxsize=4096, typed=True)
def d_bound_by_hops(f_raw: float, noise: NoiseParams, min_egr: int, max_egr: int,
                    max_hops: int) -> tuple[float, ...]:
    """Upper bound on the optimal D of a chain, by hop count.

    Entry L (0..``max_hops``) bounds ``optimize_chain(chain).d_total`` for
    every L-hop chain under ``noise`` whose hop fidelities are at most
    ``f_raw`` and hop EGRs at most ``max_egr`` with minimum ``min_egr``.
    Each hop is taken at ``f_raw``, since a purify step's f_out and p_succ,
    swapping and d(F) never fall as an input fidelity rises. A plan's
    fidelity does not depend on EGRs and a segment's rate can only rise with
    its EGR, so the segment holding the minimum hop is rated at ``min_egr``
    and every other one at ``max_egr``. Every such segment rate r is tried
    as the bottleneck: a DP over hop count places exactly one min-EGR
    segment, takes per segment the highest-W circuit with rate >= r, and
    scores r * d(F). The bound never falls as ``min_egr`` or ``max_egr`` rises.
    """
    check_egr_range(min_egr, max_egr, "min and max EGR")
    check_int(max_hops, "max_hops", 1, MAX_CHAIN_HOPS)
    swap = noise.swap_factor
    # D <= r, so a threshold below every entry raises none.
    stop = 0.0
    # (rate, holds the minimum hop, hops, W * swap) for every segment circuit;
    # only the rate depends on EGR.
    circuits, free_rows = _uniform_segments(f_raw, noise, max_egr)
    rows = [(p_succ * float(min_egr // k), True, hops, w_swap)
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
    for threshold, group in groupby(rows, key=itemgetter(0)):
        reach = threshold * _BOUND_SLACK
        if reach < stop:
            break
        for _, pinned, hops, w_swap in group:
            admitted = held if pinned else free
            if w_swap > admitted[hops]:
                admitted[hops] = w_swap
        # Every row at the threshold is admitted: score it, unless no
        # segment holding the minimum hop is that fast.
        if threshold > min_egr:
            continue
        raised = False
        for length in range(1, max_hops + 1):
            best_without = best_with = 0.0
            for rest, seg in _SPLITS[length]:
                value = without[rest] * free[seg]
                if value > best_without:
                    best_without = value
                value = with_min[rest] * free[seg]
                pin = without[rest] * held[seg]
                if pin > value:
                    value = pin
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
