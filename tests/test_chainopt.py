import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from entroute import chainopt, purify, routing
from entroute.chainopt import (MAX_CHAIN_HOPS, Chain, PurificationPlan, chain_from_path,
                               d_bound_by_hops, enumerate_segmentations, evaluate_plan,
                               no_purification_plan, optimize_chain)
from entroute.netgraph import Channel, Network
from entroute.purify import (LEAF, CircuitOutcome, circuit_for, evaluate_circuit,
                             oracle_simulate_step, post_purification_rate, purify_pair)
from entroute.werner import (NoiseParams, PERFECT, distillable, distillable_per_pair,
                             fidelity_to_w, swap_fidelity)

NOISY = NoiseParams(0.99, 0.99)


def _brute_force_segmentations(n):
    # Independent iterative enumeration with dedup, for cross-checking.
    partial = [()]
    complete = set()
    while partial:
        prefix = partial.pop()
        total = sum(prefix)
        if total == n:
            complete.add(prefix)
            continue
        for part in (1, 2, 3):
            if total + part <= n:
                partial.append(prefix + (part,))
    return complete


def test_segmentation_counts_follow_tribonacci():
    counts = [len(enumerate_segmentations(n)) for n in range(1, 11)]
    assert counts == [1, 2, 4, 7, 13, 24, 44, 81, 149, 274]


def test_segmentations_small_cases():
    assert enumerate_segmentations(1) == ((1,),)
    assert set(enumerate_segmentations(3)) == {(1, 1, 1), (1, 2), (2, 1), (3,)}


def test_segmentations_match_brute_force():
    for n in (4, 5, 6):
        got = enumerate_segmentations(n)
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == _brute_force_segmentations(n)


def test_segmentations_domain_errors():
    with pytest.raises(ValueError):
        enumerate_segmentations(0)
    with pytest.raises(ValueError):
        enumerate_segmentations(11)
    # The cache is typed: True and 2.0 miss the entries held for 1 and 2.
    assert enumerate_segmentations(1) == ((1,),)
    assert len(enumerate_segmentations(2)) == 2
    for bad in (True, False, 2.0, 1.5):
        with pytest.raises(ValueError, match="n_hops"):
            enumerate_segmentations(bad)
        with pytest.raises(ValueError, match="n_hops"):
            no_purification_plan(bad)


def test_evaluate_plan_two_hop_raw_swap():
    # Hand-composed swap-chain fidelity plus hashing bound.
    chain = Chain((20, 20), (0.99, 0.99))
    evaluation = evaluate_plan(chain, PurificationPlan(((2, 1),)))
    w = (4 * 0.99 - 1) / 3
    fid = 0.25 + 0.75 * w * w
    d = 20 * (1 + fid * math.log2(fid) + (1 - fid) * math.log2((1 - fid) / 3))
    assert evaluation.final_fidelity == pytest.approx(fid, abs=1e-12)
    assert evaluation.rate == 20.0
    assert evaluation.d_total == pytest.approx(d, abs=1e-9)


def test_all_k1_plans_agree_across_segmentations():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        chain = Chain(
            tuple(rng.randint(8, 32) for _ in range(n)),
            tuple(rng.uniform(0.85, 0.999) for _ in range(n)),
            NOISY if rng.random() < 0.5 else PERFECT,
        )
        reference = evaluate_plan(chain, no_purification_plan(n))
        for seg_lens in enumerate_segmentations(n):
            plan = PurificationPlan(tuple((h, 1) for h in seg_lens))
            other = evaluate_plan(chain, plan)
            assert other.final_fidelity == pytest.approx(reference.final_fidelity, abs=1e-12)
            assert other.rate == reference.rate
            assert other.d_total == pytest.approx(reference.d_total, abs=1e-12)


def test_single_hop_k8_plan_matches_oracle_fold():
    chain = Chain((8,), (0.7,))
    evaluation = evaluate_plan(chain, PurificationPlan(((1, 8),)))
    # Fold the density-matrix oracle over the balanced k=8 tree.
    f, p = 0.7, 1.0
    for _ in range(3):
        step = oracle_simulate_step(f, f)
        p = p * p * step.p_succ
        f = step.f_out
    assert evaluation.final_fidelity == pytest.approx(f, abs=1e-9)
    assert evaluation.rate == pytest.approx(p * 1, abs=1e-9)


def test_evaluate_plan_catches_a_corrupted_circuit_table(monkeypatch):
    """``evaluate_plan`` folds every circuit itself, so a fault in the cached
    rows the optimizer reads shows as a mismatch instead of being read back."""
    table = purify._evaluate_cached

    def corrupted(f_in, p2, eta):
        rows, tops = table(f_in, p2, eta)
        raised = [(f + 1e-6, p, (4.0 * (f + 1e-6) - 1.0) / 3.0) for f, p, _ in rows[1:]]
        return (rows[0], *raised), tops

    monkeypatch.setattr(purify, "_evaluate_cached", corrupted)
    monkeypatch.setattr(chainopt, "_evaluate_cached", corrupted)
    # The uncached table function, so no corrupted row outlives the test.
    monkeypatch.setattr(chainopt, "_segment_table", chainopt._segment_table.__wrapped__)
    chain = Chain((64, 64), (0.91, 0.92))
    plan, evaluation = optimize_chain(chain)
    assert any(k > 1 for _, k in plan.segments)
    assert evaluate_plan(chain, plan) != evaluation


def test_evaluate_plan_rejects_bad_partition():
    chain = Chain((20, 20), (0.99, 0.99))
    with pytest.raises(ValueError):
        evaluate_plan(chain, PurificationPlan(((3, 1),)))
    with pytest.raises(ValueError):
        evaluate_plan(chain, PurificationPlan(((1, 1),)))


def test_plan_validation():
    with pytest.raises(ValueError):
        PurificationPlan(())
    with pytest.raises(ValueError):
        PurificationPlan(((4, 1),))
    with pytest.raises(ValueError):
        PurificationPlan(((2, 9),))
    for hops in (True, 2.0):
        with pytest.raises(ValueError, match="segment length"):
            PurificationPlan(((hops, 1),))
    for k in (True, 2.0):
        with pytest.raises(ValueError, match="circuit width"):
            PurificationPlan(((1, k),))
    assert PurificationPlan(((3, 8), (2, 1))).summary() == "3:8+2:1"


def test_chain_from_path_follows_channels_and_names_a_path_that_does_not():
    net = Network([Channel(0, 1, 8, 0.95), Channel(1, 5, 16, 0.9)])
    assert chain_from_path(net, [5, 1, 0]) == Chain((16, 8), (0.9, 0.95))
    # 0-5 is not a channel; 0-"1" compares an int with a str.
    for path in ([0, 5], [0, "1"]):
        with pytest.raises(ValueError, match="^path must be "):
            chain_from_path(net, path)


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain((), ())
    with pytest.raises(ValueError):
        Chain((10,), (0.9, 0.9))
    with pytest.raises(ValueError):
        Chain((0,), (0.9,))
    with pytest.raises(ValueError):
        Chain((10,), (0.1,))
    with pytest.raises(ValueError, match="fidelity"):
        Chain((8,), (True,))
    for egr in (True, 2.5, 2**64 + 1):
        with pytest.raises(ValueError, match="egr"):
            Chain((10, egr), (0.9, 0.9))
    # The largest EGR still gives a finite rate and D.
    evaluation = optimize_chain(Chain((2**64,) * 3, (0.95,) * 3))[1]
    assert math.isfinite(evaluation.rate) and math.isfinite(evaluation.d_total)
    assert evaluation.d_total > 0


def test_optimize_perfect_link_needs_no_purification():
    plan, evaluation = optimize_chain(Chain((16,), (1.0,)))
    assert plan.segments == ((1, 1),)
    assert evaluation.final_fidelity == 1.0
    assert evaluation.rate == 16.0


def test_optimize_single_hop_matches_brute_force_over_k():
    chain = Chain((8,), (0.85,))
    plan, evaluation = optimize_chain(chain)
    best = max(
        (evaluate_plan(chain, PurificationPlan(((1, k),))).d_total, k)
        for k in range(1, 9)
    )
    assert evaluation.d_total == best[0]


@pytest.mark.parametrize("max_k", [4, 8])
def test_optimize_matches_small_instance_brute_force(max_k):
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(1, 3)
        chain = Chain(
            tuple(rng.randint(1, 32) for _ in range(n)),
            tuple(round(rng.uniform(0.75, 0.999), 6) for _ in range(n)),
            PERFECT if trial % 2 == 0 else NOISY,
        )
        plan, evaluation = optimize_chain(chain, max_k=max_k)
        best = max(
            evaluate_plan(chain, PurificationPlan(tuple(zip(seg_lens, ks)))).d_total
            for seg_lens in enumerate_segmentations(n)
            for ks in itertools.product(range(1, max_k + 1), repeat=len(seg_lens))
        )
        assert evaluation.d_total == best
        assert evaluate_plan(chain, plan) == evaluation


def _brute_force_best(chain, max_k):
    """The plan and evaluation with the highest full tie-break key over every plan."""
    best = None
    for seg_lens in enumerate_segmentations(chain.n_hops):
        for ks in itertools.product(range(1, max_k + 1), repeat=len(seg_lens)):
            plan = PurificationPlan(tuple(zip(seg_lens, ks)))
            evaluation = evaluate_plan(chain, plan)
            key = (evaluation.d_total, evaluation.final_fidelity, -len(ks),
                   tuple(-k for k in ks), tuple(-h for h in seg_lens))
            if best is None or key > best[0]:
                best = (key, plan, evaluation)
    return best[1:]


def test_optimize_tie_breaks_match_brute_force():
    # Perfect links, unit EGRs and repeated values make many plans tie on D.
    rng = random.Random(5)
    for trial in range(150):
        n = rng.randint(1, 4)
        max_k = rng.choice((2, 3, 4))
        chain = Chain(
            tuple(rng.choice((1, 2, 4, 8, rng.randint(1, 40))) for _ in range(n)),
            tuple(rng.choice((1.0, 0.99, 0.9, rng.uniform(0.7, 1.0))) for _ in range(n)),
            PERFECT if trial % 2 else NOISY,
        )
        assert optimize_chain(chain, max_k=max_k) == _brute_force_best(chain, max_k)
    # Every plan has D = 0 on these, so fidelity and the tie-breaks alone rank them.
    for _ in range(30):
        n = rng.randint(3, 4)
        max_k = rng.choice((2, 3, 4))
        chain = Chain(
            tuple(rng.choice((1, 2, 8, rng.randint(1, 40))) for _ in range(n)),
            tuple(rng.choice((0.7, 0.75)) for _ in range(n)),
            rng.choice((NOISY, NoiseParams(0.97, 0.995))),
        )
        best = _brute_force_best(chain, max_k)
        assert best[1].d_total == 0.0
        assert optimize_chain(chain, max_k=max_k) == best
    # A hop at F = 1/4 holds no entanglement: every plan ties at fidelity 1/4.
    for chain in (Chain((8, 8, 8, 8), (0.9, 0.25, 0.9, 0.9)),
                  Chain((16, 8, 32, 20), (0.95, 0.25, 0.92, 0.97), NOISY),
                  Chain((20,) * 5, (0.99, 0.99, 0.25, 0.99, 0.99))):
        assert optimize_chain(chain, max_k=4) == _brute_force_best(chain, 4)
    # Six hops at max_k = 4: 12,240 plans per chain. The last distils nothing.
    for chain in (Chain((16, 8, 32, 20, 12, 40), (0.95, 0.9, 0.92, 0.97, 0.93, 0.96)),
                  Chain((16,) * 6, (0.95,) * 6),
                  Chain((16, 8, 32, 20, 12, 40), (0.99, 0.98, 0.99, 0.97, 0.99, 0.98), NOISY),
                  Chain((24, 24, 48, 12, 36, 20), (0.7, 0.75, 0.7, 0.75, 0.75, 0.7), NOISY)):
        best = _brute_force_best(chain, 4)
        assert optimize_chain(chain, max_k=4) == best
    assert best[1].d_total == 0.0


def test_optimize_is_exact_in_d_and_fidelity_at_purify_fixed_points():
    # F = 1/4 and, with perfect gates, F = 1/2 are fixed points of the purify
    # step; there the plan among D = 0 ties may differ from the brute force's.
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(2, 4)
        max_k = rng.randint(2, 4)
        chain = Chain(
            tuple(rng.choice((1, 2, 8, rng.randint(1, 40))) for _ in range(n)),
            tuple(rng.choice((0.25, 0.5, 0.7, 0.75, 0.9, rng.uniform(0.7, 1.0)))
                  for _ in range(n)),
            PERFECT if trial % 2 else NOISY,
        )
        plan, evaluation = optimize_chain(chain, max_k=max_k)
        best = _brute_force_best(chain, max_k)[1]
        assert evaluation.d_total == best.d_total
        assert evaluation.final_fidelity == best.final_fidelity
        assert evaluate_plan(chain, plan) == evaluation


def _rates_between(chain, max_k, low, high):
    """The distinct segment rates in [low, high] over every slice of ``chain``."""
    n, noise = chain.n_hops, chain.noise
    return {rate for start in range(n) for end in range(start + 1, min(start + 3, n) + 1)
            for *_, rate in chainopt._segment_table(
                swap_fidelity(chain.fidelities[start:end], noise),
                min(chain.egrs[start:end]), noise.p2, noise.eta, max_k)
            if low <= rate <= high}


def test_optimize_skips_the_passes_before_the_first_that_distils(monkeypatch):
    # 0.91 channels at max_k = 4 distil over 3-4 hops only from a slow
    # bottleneck on (5-6 hops of them, or 4 with noisy gates, distil
    # nothing). A sweep that runs every pass runs, after the ceiling pass,
    # one per rate from the slowest hop's down to the answer's; the passes
    # that cannot distil are skipped, and each chain needs fewer.
    calls = []
    cover = chainopt._cover
    monkeypatch.setattr(chainopt, "_cover", lambda *args: calls.append(None) or cover(*args))
    for egrs, fids, noise in (((29, 15, 32, 22), (0.91,) * 4, PERFECT),
                              ((30, 32, 29, 31), (0.91,) * 4, PERFECT),
                              ((21, 25, 13, 9), (0.91,) * 4, PERFECT),
                              ((10, 10, 19), (0.91, 0.93, 0.93), NOISY),
                              ((18, 19, 28), (0.97, 0.91, 0.91), NOISY),
                              ((32, 23, 14, 11), (0.97, 0.93, 0.95, 0.95), NOISY)):
        chain = Chain(egrs, fids, noise)
        calls.clear()
        plan, evaluation = optimize_chain(chain, max_k=4)
        assert (plan, evaluation) == _brute_force_best(chain, 4)
        assert evaluation.d_total > 0.0
        assert len(calls) < len(_rates_between(chain, 4, evaluation.rate, min(egrs)))


def test_optimize_skips_to_unrated_circuits_when_only_they_distil(monkeypatch):
    # The ceiling distils, but only through k = 4 on EGRs of 2 and 3, rated 0.
    # Every pass at a positive rate distils nothing, and the answer, a D = 0
    # tie, is the ceiling's fidelity, above each of theirs: only the rate-0
    # pass builds covers, not the ceiling pass nor the one at the slowest
    # hop's rate.
    calls = []
    cover = chainopt._cover
    monkeypatch.setattr(chainopt, "_cover", lambda *args: calls.append(None) or cover(*args))
    for egrs, fids in (((2, 3), (0.88, 0.8)), ((3, 2, 3), (0.9, 0.88, 0.9))):
        chain = Chain(egrs, fids)
        calls.clear()
        plan, evaluation = optimize_chain(chain, max_k=4)
        assert (plan, evaluation) == _brute_force_best(chain, 4)
        assert evaluation.rate == evaluation.d_total == 0.0
        assert distillable_per_pair(evaluation.final_fidelity) > 0.0
        assert len(_rates_between(chain, 4, 1e-300, min(egrs))) >= 5
        assert len(calls) == 1


def test_optimize_finds_pinned_optimum():
    # Lowering k one step at a time from 8 stops at 1:4+1:2+1:5 (D = 0.7496).
    plan, evaluation = optimize_chain(Chain((16, 8, 32), (0.95, 0.9, 0.92)))
    assert plan.summary() == "1:4+1:2+1:4"
    assert evaluation.d_total == 0.7758025885474138


CHAINS = st.integers(1, 6).flatmap(lambda n: st.builds(
    Chain, st.tuples(*[st.integers(1, 64)] * n), st.tuples(*[st.floats(0.8, 0.999)] * n),
    st.sampled_from([PERFECT, NOISY])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain=CHAINS, hop=st.integers(0, 5), rise=st.integers(1, 32))
# Lowering k one step at a time from 8 dropped D here: 0.6790 -> 0.6302.
@example(chain=Chain((53, 48), (0.837, 0.862)), hop=0, rise=32)
def test_optimize_d_never_falls_when_an_egr_rises(chain, hop, rise):
    egrs = list(chain.egrs)
    egrs[hop % chain.n_hops] += rise
    raised = dataclasses.replace(chain, egrs=tuple(egrs))
    assert optimize_chain(raised)[1].d_total >= optimize_chain(chain)[1].d_total


UNIFORM_CHAINS = st.tuples(st.integers(1, 10), st.floats(0.8, 0.999)).flatmap(
    lambda nf: st.builds(Chain, st.tuples(*[st.integers(1, 64)] * nf[0]),
                         st.just((nf[1],) * nf[0]),
                         st.sampled_from([PERFECT, NOISY, NoiseParams(0.97, 0.995)])))


# Each hop's raw fidelity drawn on its own, the bound taken at the chain's
# highest. Equal EGRs make the bound tight, so a bound at a lower fidelity
# fails there; the examples put hops at the fixed points 1/4 and 1/2 and at 1.
MIXED_CHAINS = st.integers(1, 10).flatmap(lambda n: st.builds(
    Chain,
    st.integers(1, 64).map(lambda egr: (egr,) * n) | st.tuples(*[st.integers(1, 64)] * n),
    st.tuples(*[st.floats(0.8, 1.0)] * n),
    st.sampled_from([PERFECT, NOISY, NoiseParams(0.97, 0.995), NoiseParams(0.8, 0.9)])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(chain=UNIFORM_CHAINS | MIXED_CHAINS, rise=st.integers(1, 32))
@example(chain=Chain((20, 20, 20), (0.9, 0.25, 1.0)), rise=1)
@example(chain=Chain((20, 12, 20, 20), (0.5, 0.97, 1.0, 0.95), NOISY), rise=4)
def test_d_bound_by_hops_is_sound_and_monotone(chain, rise):
    n, low, high = chain.n_hops, min(chain.egrs), max(chain.egrs)
    f_raw = max(chain.fidelities)
    bound = d_bound_by_hops(f_raw, chain.noise, low, high, MAX_CHAIN_HOPS)
    assert len(bound) == MAX_CHAIN_HOPS + 1
    assert bound[n] >= optimize_chain(chain)[1].d_total
    raised = d_bound_by_hops(f_raw, chain.noise, low + rise, max(high, low + rise),
                             MAX_CHAIN_HOPS)
    assert all(b >= a for a, b in zip(bound, raised))


def test_d_bound_by_hops_is_tight_on_equal_egrs():
    for noise in (PERFECT, NOISY):
        bound = d_bound_by_hops(0.95, noise, 20, 20, MAX_CHAIN_HOPS)
        assert bound[0] == 0.0
        for n in range(1, MAX_CHAIN_HOPS + 1):
            d_total = optimize_chain(Chain((20,) * n, (0.95,) * n, noise))[1].d_total
            assert d_total <= bound[n] <= d_total * (1 + 1e-8)


def _fold(tree, f, noise):
    """(f_out, p_succ) of ``tree`` by ``purify_pair`` alone, kept pair first."""
    if tree is LEAF:
        return f, 1.0
    f_kept, p_kept = _fold(tree[0], f, noise)
    f_cons, p_cons = _fold(tree[1], f, noise)
    step = purify_pair(f_kept, f_cons, noise)
    return step.f_out, p_kept * p_cons * step.p_succ


def _public_segment_table(f_raw, min_egr, p2, eta, max_k):
    """``_segment_table`` from public names, each circuit folded by ``_fold``.

    A fold of ``purify_pair`` shares no code with the cached fold the table
    reads, so it shows a drift in that fold's step formula as well.
    """
    noise = NoiseParams(p2, eta)
    rows = []
    for k in range(1, max_k + 1):
        circuit = circuit_for(k)
        outcome = CircuitOutcome(*_fold(circuit.tree, f_raw, noise))
        rate = post_purification_rate(min_egr, circuit, outcome)
        rows.append((fidelity_to_w(outcome.f_out), outcome.f_out, -k, rate))
    return tuple(rows)


def _d_bound_by_hops_from_tables(f_raw, noise, min_egr, max_egr, max_hops):
    """``d_bound_by_hops`` as it was when each EGR had its own segment table,
    the tables built by ``_public_segment_table``."""
    swap = noise.swap_factor
    rows = []
    for hops in range(1, chainopt.MAX_SEGMENT_HOPS + 1):
        f_seg = swap_fidelity([f_raw] * hops, noise)
        for pinned, egr in ((True, min_egr), (False, max_egr)):
            table = _public_segment_table(f_seg, egr, noise.p2, noise.eta, 8)
            rows.extend((rate, pinned, hops, w * swap) for w, _, _, rate in table)
    rows.sort(key=lambda row: row[0], reverse=True)
    slack = chainopt._BOUND_SLACK
    bound = [0.0] * (max_hops + 1)
    free = [0.0] * (chainopt.MAX_SEGMENT_HOPS + 1)
    held = [0.0] * (chainopt.MAX_SEGMENT_HOPS + 1)
    without = [1.0] + [0.0] * max_hops
    with_min = [0.0] * (max_hops + 1)
    i = 0
    while i < len(rows) and rows[i][0] * slack >= min(bound[1:], default=0.0):
        threshold = rows[i][0]
        while i < len(rows) and rows[i][0] == threshold:
            _, pinned, hops, w_swap = rows[i]
            i += 1
            admitted = held if pinned else free
            if w_swap > admitted[hops]:
                admitted[hops] = w_swap
        if threshold > min_egr:
            continue
        reach = threshold * slack
        for length in range(1, max_hops + 1):
            best_without = best_with = 0.0
            for hops in range(1, min(chainopt.MAX_SEGMENT_HOPS, length) + 1):
                rest = length - hops
                value = without[rest] * free[hops]
                if value > best_without:
                    best_without = value
                value = max(with_min[rest] * free[hops], without[rest] * held[hops])
                if value > best_with:
                    best_with = value
            without[length] = best_without
            if best_with > with_min[length]:
                with_min[length] = best_with
                if reach > bound[length]:
                    fid = min(1.0, 0.25 + 0.75 * best_with / swap)
                    bound[length] = max(bound[length], reach * distillable_per_pair(fid))
    return tuple(bound)


def test_d_bound_by_hops_equals_the_per_egr_table_build():
    # The min-EGR rows reuse the max-EGR table's W and the cached outcomes'
    # p_succ; the bound must give every float the per-EGR tables gave.
    for f_raw in (0.25, 0.8, 0.91, 0.95, 0.99, 1.0):
        for noise in (PERFECT, NOISY, NoiseParams(0.97, 0.995)):
            for min_egr, max_egr in ((1, 1), (3, 5), (7, 9), (8, 32), (16, 16), (20, 64)):
                for max_hops in (7, 10):
                    args = f_raw, noise, min_egr, max_egr, max_hops
                    assert d_bound_by_hops(*args) == _d_bound_by_hops_from_tables(*args)


def test_segment_tables_and_bound_equal_the_public_fold_bit_for_bit():
    rng = random.Random(23)
    fidelities = [0.25, 0.5, 1.0] + [rng.uniform(0.25, 1.0) for _ in range(12)]
    for f_raw in fidelities:
        for noise in (PERFECT, NOISY, NoiseParams(0.97, 0.995)):
            for max_k in range(1, 9):
                # EGRs below k rate a circuit at 0; odd ones leave a remainder.
                for egr in (0, 1, 3, 7, 8, 20, 33):
                    args = f_raw, egr, noise.p2, noise.eta, max_k
                    assert chainopt._segment_table(*args) == _public_segment_table(*args)
            for min_egr, max_egr in ((1, 1), (3, 7), (5, 40)):
                args = f_raw, noise, min_egr, max_egr, MAX_CHAIN_HOPS
                assert d_bound_by_hops(*args) == _d_bound_by_hops_from_tables(*args)


def test_segment_table_and_bound_keep_their_checks():
    for bad in (1.0 + 1e-9, 0.25 - 1e-9):
        with pytest.raises(ValueError):
            chainopt._segment_table(bad, 16, 1.0, 1.0, 8)
        with pytest.raises(ValueError):
            d_bound_by_hops(bad, PERFECT, 8, 16, MAX_CHAIN_HOPS)
    with pytest.raises(ValueError):
        chainopt._segment_table(0.9, -1, 1.0, 1.0, 8)
    # The EGR rule of TopologySpec: integers in 1..2**64, min <= max. The
    # cache is typed, so True and 16.0 miss the entries held for 1 and 16.
    d_bound_by_hops(0.9, PERFECT, 1, 16, MAX_CHAIN_HOPS)
    d_bound_by_hops(0.9, PERFECT, 8, 16, MAX_CHAIN_HOPS)
    for low, high in ((-1, 16), (0, 16), (20, 8), (True, 16), (8, True), (2.5, 16),
                      (8, 16.0), (2**64 + 1, 2**64 + 1), (10**400, 10**400)):
        with pytest.raises(ValueError, match="EGR"):
            d_bound_by_hops(0.9, PERFECT, low, high, MAX_CHAIN_HOPS)
    # The search passes its cutoff, checked to 1..MAX_CHAIN_HOPS; the bound
    # keeps the same rule, and the typed cache keeps True apart from 1.
    d_bound_by_hops(0.9, PERFECT, 8, 16, 1)
    for bad_hops in (0, -1, True, 2.5, MAX_CHAIN_HOPS + 1):
        with pytest.raises(ValueError, match="max_hops"):
            d_bound_by_hops(0.9, PERFECT, 8, 16, bad_hops)
    with pytest.raises(ValueError):
        chainopt._segment_table(0.9, 16, 1.0, 0.5, 8)
    chain = Chain(egrs=(16, 16), fidelities=(0.9, 0.9))
    for bad_k in (0, -1, purify.MAX_CIRCUIT_K + 1):
        with pytest.raises(ValueError):
            chainopt._segment_table(0.9, 16, 1.0, 1.0, bad_k)
        with pytest.raises(ValueError):
            optimize_chain(chain, max_k=bad_k)
    # One cached fold per segment length: the min-EGR rows read the max-EGR
    # tables' fold again.
    misses = purify._evaluate_cached.cache_info().misses
    d_bound_by_hops(0.9123456789, NOISY, 5, 30, MAX_CHAIN_HOPS)
    assert purify._evaluate_cached.cache_info().misses <= misses + 3


def _segment(chain, start, hops, k):
    """(f_out, rate) of one plan segment, as ``evaluate_plan`` computes them."""
    f_raw = swap_fidelity(chain.fidelities[start:start + hops], chain.noise)
    circuit = circuit_for(k)
    outcome = evaluate_circuit(circuit, f_raw, chain.noise)
    rate = post_purification_rate(min(chain.egrs[start:start + hops]), circuit, outcome)
    return outcome.f_out, rate


def _relaxation_d(chain, max_k=8):
    """The paper's search: per segmentation, start every segment at k = max_k
    and lower k by one on the rate-bottleneck segments (when those are all at
    k = 1, on the slowest segment still purifying), scoring every state.

    Each (start, hops, k) segment is computed once, and a state's D combines
    the segments as ``evaluate_plan`` does."""
    segments = {}

    def segment(*seg):
        if seg not in segments:
            segments[seg] = _segment(chain, *seg)
        return segments[seg]

    best = 0.0
    for seg_lens in enumerate_segmentations(chain.n_hops):
        starts = [sum(seg_lens[:i]) for i in range(len(seg_lens))]
        ks = [max_k] * len(seg_lens)
        while True:
            fids, rates = zip(*(segment(*seg) for seg in zip(starts, seg_lens, ks)))
            best = max(best, distillable(min(rates), swap_fidelity(fids, chain.noise)))
            above = [i for i, k in enumerate(ks) if k > 1]
            if not above:
                break
            relax = [i for i in above if rates[i] == min(rates)]
            if not relax:
                lowest = min(rates[i] for i in above)
                relax = [i for i in above if rates[i] == lowest]
            for i in relax:
                ks[i] -= 1
    return best


def test_optimize_never_below_the_relaxation():
    rng = random.Random(23)
    above = 0
    trials = 40
    for _ in range(trials):
        n = rng.randint(4, 10)
        gate = rng.uniform(0.985, 1.0)
        chain = Chain(
            tuple(rng.randint(4, 64) for _ in range(n)),
            tuple(rng.uniform(0.85, 0.999) for _ in range(n)),
            NoiseParams(gate, gate),
        )
        exact = optimize_chain(chain)[1].d_total
        relaxed = _relaxation_d(chain)
        assert exact >= relaxed
        above += exact > relaxed
    print(f"exact optimizer above the relaxation on {above} of {trials} chains")


def test_fidelity_keyed_caches_are_bounded():
    caches = (chainopt._segment_table, chainopt._uniform_segments, d_bound_by_hops,
              purify._evaluate_cached, routing._bfs_hops)
    maxsize = max(cache.cache_info().maxsize for cache in caches)
    for i in range(maxsize + 100):
        chainopt._segment_table(0.9 + i * 1e-6, 16, 1.0, 1.0, 8)
        chainopt._uniform_segments(0.9 + i * 1e-6, PERFECT, 16)
        d_bound_by_hops(0.9 + i * 1e-6, PERFECT, 16, 16, 3)
        routing._bfs_hops(Network([Channel(0, 1, 16, 0.9)]), 1)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses >= info.maxsize + 100
        assert info.currsize <= info.maxsize


def test_ceiling_circuit_is_the_segment_tables_greatest_row():
    # The ceiling pass rates the EGR-free highest-(W, f_out, -k) circuit, the
    # width the cached fold's tops name, as _segment_table rates its rows, so
    # it is that table's max to the bit.
    for f in (0.25, 0.5, 0.6, 0.81, 0.91, 0.97, 0.99, 1.0):
        for p2, eta in ((1.0, 1.0), (0.99, 0.99), (0.9, 0.95), (1.0, 0.99)):
            rows, tops = purify._evaluate_cached(f, p2, eta)
            for max_k in range(1, purify.MAX_CIRCUIT_K + 1):
                k = tops[max_k - 1]
                f_out, p_succ, w = rows[k - 1]
                for egr in (1, 2, 3, 7, 16, 129, 2**64):
                    assert max(chainopt._segment_table(f, egr, p2, eta, max_k)) == (
                        w, f_out, -k, p_succ * float(egr // k))


def test_a_chain_that_cannot_distil_reads_no_segment_table():
    # 0.91 channels under p2 = eta = 0.99 distil nothing over 4 hops: the
    # ceiling pass is the answer, and it reads no per-EGR circuit table.
    chain = Chain((16, 9, 30, 12), (0.91,) * 4, NOISY)
    before = chainopt._segment_table.cache_info()
    result = optimize_chain(chain)
    after = chainopt._segment_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert result[1].d_total == 0.0
    assert result == _brute_force_best(chain, 8)
    # With perfect gates the same chain distils, and the sweep reads them.
    assert optimize_chain(Chain(chain.egrs, chain.fidelities))[1].d_total > 0.0
    assert chainopt._segment_table.cache_info().misses > after.misses


def test_optimize_rejects_long_chains():
    with pytest.raises(ValueError):
        optimize_chain(Chain((10,) * 11, (0.95,) * 11))


def test_optimize_rejects_a_max_k_that_is_not_a_width():
    chain = Chain((16, 16), (0.9, 0.9))
    tables = chainopt._segment_table.cache_info().currsize
    for bad_k in (0, -1, purify.MAX_CIRCUIT_K + 1, 2.5, 4.0, "3", True, False, None):
        with pytest.raises(ValueError, match="max_k"):
            optimize_chain(chain, max_k=bad_k)
    # Rejected before any table is looked up.
    assert chainopt._segment_table.cache_info().currsize == tables
    for k in (1, purify.MAX_CIRCUIT_K):
        assert optimize_chain(chain, max_k=k) == _brute_force_best(chain, k)


def test_bottleneck_law():
    chain = Chain((8, 30, 14), (0.92, 0.95, 0.9), NOISY)
    for seg_lens in enumerate_segmentations(3):
        for ks in itertools.product((1, 3, 8), repeat=len(seg_lens)):
            plan = PurificationPlan(tuple(zip(seg_lens, ks)))
            evaluation = evaluate_plan(chain, plan)
            rates = []
            start = 0
            for hops, k in plan.segments:
                rates.append(_segment(chain, start, hops, k)[1])
                start += hops
            assert evaluation.rate == min(rates)
            assert evaluation.d_total <= distillable(min(rates), 1.0) + 1e-12


def test_optimizer_dominates_baselines():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 6)
        chain = Chain(
            tuple(rng.randint(8, 32) for _ in range(n)),
            tuple(rng.uniform(0.85, 0.99) for _ in range(n)),
            NOISY if rng.random() < 0.5 else PERFECT,
        )
        _, evaluation = optimize_chain(chain)
        no_pur = evaluate_plan(chain, no_purification_plan(n))
        all_k8 = evaluate_plan(chain, PurificationPlan(tuple((1, 8) for _ in range(n))))
        assert evaluation.d_total >= no_pur.d_total
        assert evaluation.d_total >= all_k8.d_total


def test_noise_strictly_degrades_multi_hop_fidelity():
    for n in (2, 4, 6):
        chain_ideal = Chain((20,) * n, (0.96,) * n, PERFECT)
        chain_noisy = Chain((20,) * n, (0.96,) * n, NOISY)
        plan = no_purification_plan(n)
        assert evaluate_plan(chain_noisy, plan).final_fidelity < \
            evaluate_plan(chain_ideal, plan).final_fidelity


def test_optimize_tie_breaks_are_deterministic():
    chain = Chain((20, 20), (1.0, 1.0))
    plan, evaluation = optimize_chain(chain)
    # Perfect links: every k=1 plan ties at fidelity 1; fewest segments wins.
    assert evaluation.final_fidelity == 1.0
    assert plan.segments == ((2, 1),)


def _pinned_digest_inputs():
    """Seeded optimizer and bound inputs for the pinned output digest.

    Chains of 1-10 hops with EGRs 1-64 (many below the widest k); 70% draw
    high fidelities, the rest purify fixed points and low ones; perfect and
    noisy gates and every ``max_k``. Then the bound on a grid of EGR pairs.
    Each chain still carries a spare uniform draw, and the generator is
    returned, so that the seeded draws, and with them the digest, stay fixed.
    """
    rng = random.Random(2011)
    noises = (PERFECT, NOISY, NoiseParams(0.97, 0.995))
    chains = []
    for _ in range(1500):
        n = rng.randint(1, MAX_CHAIN_HOPS)
        egrs = tuple(rng.choice((1, 2, 3, 5, 7, rng.randint(1, 64), rng.randint(1, 64)))
                     for _ in range(n))
        if rng.random() < 0.3:
            fids = tuple(rng.choice((0.25, 0.5, 1.0, rng.uniform(0.25, 1.0),
                                     rng.uniform(0.8, 1.0), rng.uniform(0.9, 1.0)))
                         for _ in range(n))
        else:  # distillable over many hops, so the threshold sweep runs
            fids = tuple(rng.choice((1.0, rng.uniform(0.9, 1.0), rng.uniform(0.97, 1.0)))
                         for _ in range(n))
        noise = rng.choice(noises + (NoiseParams(rng.uniform(0.97, 1.0),
                                                 rng.uniform(0.97, 1.0)),))
        chains.append((Chain(egrs, fids, noise), rng.randint(1, 8), rng.random()))
    bounds = []
    for f_raw in (0.25, 0.5, 1.0, 0.91, 0.99) + tuple(rng.uniform(0.8, 1.0) for _ in range(5)):
        for noise in noises:
            for min_egr, max_egr in ((1, 1), (1, 64), (3, 7), (8, 32), (16, 16), (29, 40)):
                bounds.append((f_raw, noise, min_egr, max_egr, rng.choice((7, 10))))
    return chains, bounds, rng


def test_optimizer_and_bound_unfloored_outputs_match_their_pinned_digest():
    # sha256 of the repr of every output: any changed float, plan or tie-break
    # changes the digest.
    chains, bounds, _ = _pinned_digest_inputs()
    digest = hashlib.sha256()
    for chain, max_k, _ in chains:
        digest.update(repr(optimize_chain(chain, max_k=max_k)).encode())
    for f_raw, noise, min_egr, max_egr, max_hops in bounds:
        digest.update(repr(d_bound_by_hops(f_raw, noise, min_egr, max_egr, max_hops)).encode())
    assert digest.hexdigest() == (
        "2745f5b019d884462859c6068f340b5faeaf2195a1d76520e3116d98162b2b49")


# Hop fidelities where the optimizer's tests of 1/4 and of d = 0 decide: at
# and an ulp or two above 1/4, the fixed point 1/2, around the hashing root
# (about 0.81071), high, and at and an ulp below 1.
_EDGE_FIDELITIES = (0.25, math.nextafter(0.25, 1.0), 0.25 + 1e-16, 0.25 + 1e-12, 0.5, 0.8107,
                    0.81071, 0.8108, 0.9, math.nextafter(1.0, 0.0), 1.0)


def test_optimizer_at_edge_fidelities_matches_its_pinned_digest():
    # Chains of 1-6 hops drawn from the edge fidelities: a product of W
    # values can be positive while its fidelity rounds to exactly 1/4, and
    # a cover can sit within rounding of the hashing root.
    rng = random.Random(34)
    noises = (PERFECT, NOISY, NoiseParams(0.97, 0.995))
    digest = hashlib.sha256()
    for _ in range(4000):
        n = rng.randint(1, 6)
        chain = Chain(tuple(rng.choice((1, 2, 3, 8, rng.randint(1, 64))) for _ in range(n)),
                      tuple(rng.choice(_EDGE_FIDELITIES) for _ in range(n)), rng.choice(noises))
        for max_k in (8, 4, 2):
            digest.update(repr(optimize_chain(chain, max_k=max_k)).encode())
    assert digest.hexdigest() == (
        "b302e1fe4cb99baf2e8b88c66a12a173372ec966af65fc07b86b160df78c08e6")


def test_the_cover_dp_runs_only_where_its_covers_are_scored(monkeypatch):
    # The ceiling pass and each skipped pass ask ``_distils`` alone, so every
    # ``_cover`` run is followed by a ``_score`` of its full covers, also on
    # the chains that sweep.
    calls = []
    for name in ("_cover", "_score"):
        inner = getattr(chainopt, name)
        monkeypatch.setattr(chainopt, name, lambda *args, name=name, inner=inner:
                            calls.append(name) or inner(*args))
    swept = 0
    for chain, max_k, _ in _pinned_digest_inputs()[0][:500]:
        calls.clear()
        optimize_chain(chain, max_k=max_k)
        assert calls.count("_cover") == calls.count("_score") >= 1
        swept += calls.count("_score") > 1
    assert swept > 100
