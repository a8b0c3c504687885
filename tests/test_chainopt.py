import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from entroute.chainopt import (MAX_CHAIN_HOPS, Chain, PurificationPlan, d_bound_by_hops,
                               enumerate_segmentations, evaluate_plan,
                               no_purification_plan, optimize_chain)
from entroute.purify import (circuit_for, evaluate_circuit, oracle_simulate_step,
                             post_purification_rate)
from entroute.werner import NoiseParams, PERFECT, distillable, swap_fidelity

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
    assert PurificationPlan(((3, 8), (2, 1))).summary() == "3:8+2:1"


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain((), ())
    with pytest.raises(ValueError):
        Chain((10,), (0.9, 0.9))
    with pytest.raises(ValueError):
        Chain((0,), (0.9,))
    with pytest.raises(ValueError):
        Chain((10,), (0.1,))


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
        best = None
        for seg_lens in enumerate_segmentations(n):
            for ks in itertools.product(range(1, max_k + 1), repeat=len(seg_lens)):
                plan = PurificationPlan(tuple(zip(seg_lens, ks)))
                evaluation = evaluate_plan(chain, plan)
                key = (evaluation.d_total, evaluation.final_fidelity, -len(ks),
                       tuple(-k for k in ks), tuple(-h for h in seg_lens))
                if best is None or key > best[0]:
                    best = (key, plan, evaluation)
        assert optimize_chain(chain, max_k=max_k) == best[1:]


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


def test_optimize_floor_contract():
    chain = Chain((16, 8, 32, 20), (0.95, 0.9, 0.92, 0.97), NOISY)
    best = optimize_chain(chain)
    d_best = best[1].d_total
    # A tie at the floor is returned: an outer search breaks it.
    assert optimize_chain(chain, floor=d_best) == best
    assert optimize_chain(chain, floor=0.5 * d_best) == best
    assert optimize_chain(chain, floor=math.nextafter(d_best, math.inf)) is None


UNIFORM_CHAINS = st.tuples(st.integers(1, 10), st.floats(0.8, 0.999)).flatmap(
    lambda nf: st.builds(Chain, st.tuples(*[st.integers(1, 64)] * nf[0]),
                         st.just((nf[1],) * nf[0]),
                         st.sampled_from([PERFECT, NOISY, NoiseParams(0.97, 0.995)])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain=UNIFORM_CHAINS, rise=st.integers(1, 32), cut=st.floats(0.0, 1.0))
def test_d_bound_by_hops_is_sound_monotone_and_floored(chain, rise, cut):
    n, low, high = chain.n_hops, min(chain.egrs), max(chain.egrs)
    f_raw = chain.fidelities[0]
    bound = d_bound_by_hops(f_raw, chain.noise, low, high, MAX_CHAIN_HOPS)
    assert len(bound) == MAX_CHAIN_HOPS + 1
    assert bound[n] >= optimize_chain(chain)[1].d_total
    raised = d_bound_by_hops(f_raw, chain.noise, low + rise, max(high, low + rise),
                             MAX_CHAIN_HOPS)
    assert all(b >= a for a, b in zip(bound, raised))
    floor = cut * max(bound)
    floored = d_bound_by_hops(f_raw, chain.noise, low, high, MAX_CHAIN_HOPS, floor=floor)
    for exact, entry in zip(bound, floored):
        assert entry == exact if exact >= floor else entry < floor


def test_d_bound_by_hops_is_tight_on_equal_egrs():
    for noise in (PERFECT, NOISY):
        bound = d_bound_by_hops(0.95, noise, 20, 20, MAX_CHAIN_HOPS)
        assert bound[0] == 0.0
        for n in range(1, MAX_CHAIN_HOPS + 1):
            d_total = optimize_chain(Chain((20,) * n, (0.95,) * n, noise))[1].d_total
            assert d_total <= bound[n] <= d_total * (1 + 1e-8)


def _segment_rate(chain, start, hops, k):
    f_seg = swap_fidelity(chain.fidelities[start:start + hops], chain.noise)
    circuit = circuit_for(k)
    outcome = evaluate_circuit(circuit, f_seg, chain.noise)
    return post_purification_rate(min(chain.egrs[start:start + hops]), circuit, outcome)


def _relaxation_d(chain, max_k=8):
    """The paper's search: per segmentation, start every segment at k = max_k
    and lower k by one on the rate-bottleneck segments (when those are all at
    k = 1, on the slowest segment still purifying), scoring every state."""
    best = 0.0
    for seg_lens in enumerate_segmentations(chain.n_hops):
        starts = [sum(seg_lens[:i]) for i in range(len(seg_lens))]
        ks = [max_k] * len(seg_lens)
        while True:
            plan = PurificationPlan(tuple(zip(seg_lens, ks)))
            best = max(best, evaluate_plan(chain, plan).d_total)
            above = [i for i, k in enumerate(ks) if k > 1]
            if not above:
                break
            rates = [_segment_rate(chain, *seg) for seg in zip(starts, seg_lens, ks)]
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


def test_optimize_rejects_long_chains():
    with pytest.raises(ValueError):
        optimize_chain(Chain((10,) * 11, (0.95,) * 11))


def test_bottleneck_law():
    chain = Chain((8, 30, 14), (0.92, 0.95, 0.9), NOISY)
    for seg_lens in enumerate_segmentations(3):
        for ks in itertools.product((1, 3, 8), repeat=len(seg_lens)):
            plan = PurificationPlan(tuple(zip(seg_lens, ks)))
            evaluation = evaluate_plan(chain, plan)
            rates = []
            start = 0
            for hops, k in plan.segments:
                rates.append(_segment_rate(chain, start, hops, k))
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
