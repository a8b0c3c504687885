import random

import pytest

from entroute import purify
from entroute.purify import (LEAF, CircuitOutcome, PurificationCircuit,
                             circuit_for, evaluate_circuit,
                             oracle_simulate_step, post_purification_rate,
                             purify_pair)
from entroute.werner import NoiseParams

NOISY = NoiseParams(0.99, 0.99)


def _leaves(tree):
    if tree is LEAF:
        return 1
    return _leaves(tree[0]) + _leaves(tree[1])


def _internal(tree):
    if tree is LEAF:
        return 0
    return 1 + _internal(tree[0]) + _internal(tree[1])


def test_purify_perfect_inputs_are_fixed():
    out = purify_pair(1.0, 1.0)
    assert out.f_out == pytest.approx(1.0, abs=1e-15)
    assert out.p_succ == pytest.approx(1.0, abs=1e-15)


def test_purify_maximally_mixed_fixed_point():
    out = purify_pair(0.25, 0.25)
    assert out.f_out == pytest.approx(0.25, abs=1e-15)
    assert out.p_succ == pytest.approx(0.5, abs=1e-15)


def test_purify_recurrence_step_values():
    out = purify_pair(0.7, 0.7)
    assert out.p_succ == pytest.approx(0.68, abs=1e-12)
    assert out.f_out == pytest.approx(0.5 / 0.68, abs=1e-12)
    assert abs(out.f_out - 0.735294) < 1e-6


def test_purify_matches_oracle_perfect_gates():
    for i in range(11):
        for j in range(11):
            f1 = 0.5 + 0.05 * i
            f2 = 0.5 + 0.05 * j
            a = purify_pair(f1, f2)
            o = oracle_simulate_step(f1, f2)
            assert abs(a.f_out - o.f_out) < 1e-9
            assert abs(a.p_succ - o.p_succ) < 1e-9


def test_purify_matches_oracle_noisy():
    a = purify_pair(0.8, 0.6, NOISY)
    o = oracle_simulate_step(0.8, 0.6, NOISY)
    assert abs(a.f_out - o.f_out) < 1e-6
    assert abs(a.p_succ - o.p_succ) < 1e-6


def test_purify_is_asymmetric_under_noise():
    # First argument is the kept pair; swapping roles changes the noisy outcome.
    ab = purify_pair(0.8, 0.6, NOISY)
    ba = purify_pair(0.6, 0.8, NOISY)
    assert ab.f_out != ba.f_out
    assert oracle_simulate_step(0.8, 0.6, NOISY).f_out == pytest.approx(ab.f_out, abs=1e-9)
    assert oracle_simulate_step(0.6, 0.8, NOISY).f_out == pytest.approx(ba.f_out, abs=1e-9)


def test_gain_region_perfect_gates():
    for i in range(1, 51):
        f = 0.5 + 0.5 * i / 51
        assert purify_pair(f, f).f_out > f


def test_noise_ordering_single_step():
    base = purify_pair(0.85, 0.85, NoiseParams(0.99, 0.99))
    worse_gate = purify_pair(0.85, 0.85, NoiseParams(0.98, 0.99))
    worse_meas = purify_pair(0.85, 0.85, NoiseParams(0.99, 0.98))
    assert worse_gate.f_out <= base.f_out
    assert worse_meas.f_out <= base.f_out
    assert worse_gate.p_succ <= base.p_succ


def test_circuit_tree_shapes():
    for k in range(1, 9):
        circuit = circuit_for(k)
        assert circuit.k == k
        assert _leaves(circuit.tree) == k
        assert _internal(circuit.tree) == k - 1


def test_circuit_width_bounds():
    with pytest.raises(ValueError):
        circuit_for(0)
    with pytest.raises(ValueError):
        circuit_for(9)
    with pytest.raises(ValueError):
        PurificationCircuit(k=2, tree=LEAF)


def test_identity_circuit():
    out = evaluate_circuit(circuit_for(1), 0.9, NOISY)
    assert out == CircuitOutcome(0.9, 1.0)


def test_k2_circuit_equals_single_step():
    out = evaluate_circuit(circuit_for(2), 0.7)
    step = purify_pair(0.7, 0.7)
    assert out.f_out == step.f_out
    assert out.p_succ == step.p_succ


def test_k4_circuit_against_oracle_rounds():
    # Two recurrence rounds simulated with the density-matrix oracle.
    round1 = oracle_simulate_step(0.7, 0.7)
    round2 = oracle_simulate_step(round1.f_out, round1.f_out)
    expected_p = round1.p_succ * round1.p_succ * round2.p_succ
    out = evaluate_circuit(circuit_for(4), 0.7)
    assert abs(out.f_out - round2.f_out) < 1e-9
    assert abs(out.p_succ - expected_p) < 1e-9
    assert abs(out.f_out - 0.773172) < 2e-6
    assert abs(out.p_succ - 0.3280) < 1e-4


def test_pumping_circuit_against_oracle():
    # k = 3: one recurrence round, then the running output is pumped by a raw pair.
    round1 = oracle_simulate_step(0.75, 0.75, NOISY)
    pump = oracle_simulate_step(round1.f_out, 0.75, NOISY)
    out = evaluate_circuit(circuit_for(3), 0.75, NOISY)
    assert abs(out.f_out - pump.f_out) < 1e-6
    assert abs(out.p_succ - round1.p_succ * pump.p_succ) < 1e-6


def test_circuit_noise_ordering():
    for k in (2, 4, 8):
        clean = evaluate_circuit(circuit_for(k), 0.85, NoiseParams(1.0, 1.0))
        noisy = evaluate_circuit(circuit_for(k), 0.85, NOISY)
        assert noisy.f_out <= clean.f_out
        assert noisy.p_succ <= clean.p_succ


def test_post_purification_rate_examples():
    assert post_purification_rate(20, circuit_for(8), CircuitOutcome(0.9, 0.6)) == 1.2
    assert post_purification_rate(20, circuit_for(1), CircuitOutcome(0.9, 1.0)) == 20.0
    assert post_purification_rate(7, circuit_for(8), CircuitOutcome(0.9, 0.9)) == 0.0


def test_post_purification_rate_rejects_negative():
    with pytest.raises(ValueError):
        post_purification_rate(-1, circuit_for(2), CircuitOutcome(0.9, 0.5))


def test_yield_sanity():
    for k in range(2, 9):
        for egr in (0, 1, 8, 20, 32):
            out = evaluate_circuit(circuit_for(k), 0.8)
            rate = post_purification_rate(egr, circuit_for(k), out)
            assert rate <= egr / k + 1e-12
            assert rate <= egr
    assert post_purification_rate(20, circuit_for(1), CircuitOutcome(0.8, 1.0)) <= 20


def _fold(tree, f, noise):
    if tree is LEAF:
        return f, 1.0
    f_kept, p_kept = _fold(tree[0], f, noise)
    f_cons, p_cons = _fold(tree[1], f, noise)
    step = purify_pair(f_kept, f_cons, noise)
    return step.f_out, p_kept * p_cons * step.p_succ


def test_standard_circuits_are_the_step_fold_from_one_walk():
    rng = random.Random(9)
    for _ in range(50):
        f = rng.uniform(0.5, 1.0)
        noise = NoiseParams(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0))
        misses = purify._evaluate_cached.cache_info().misses
        for k in range(1, 9):
            out = evaluate_circuit(circuit_for(k), f, noise)
            assert (out.f_out, out.p_succ) == _fold(circuit_for(k).tree, f, noise)
        # All eight widths at one (f, noise) come from one cached walk.
        assert purify._evaluate_cached.cache_info().misses == misses + 1


def test_checks_and_non_standard_trees_survive_the_fold():
    for bad in (1.0 + 1e-9, 0.25 - 1e-9):
        with pytest.raises(ValueError):
            purify_pair(bad, 0.9)
        with pytest.raises(ValueError):
            purify_pair(0.9, bad, NOISY)
        with pytest.raises(ValueError):
            evaluate_circuit(circuit_for(8), bad, NOISY)
    # Pumping first, and a kept raw pair against a purified one: neither is
    # a standard circuit, so both fold their own step schedule.
    for tree in ((((LEAF, LEAF), LEAF), LEAF), (LEAF, (LEAF, LEAF))):
        circuit = PurificationCircuit(k=_leaves(tree), tree=tree)
        assert circuit != circuit_for(circuit.k)
        for f in (0.25, 0.6, 0.8, 0.95, 1.0):
            for noise in (NoiseParams(1.0, 1.0), NOISY):
                out = evaluate_circuit(circuit, f, noise)
                assert (out.f_out, out.p_succ) == _fold(tree, f, noise)
