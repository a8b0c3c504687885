import itertools
import random

import pytest

from entroute import chainopt, purify
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
    # The cache is typed: True and 2.0 miss the entries held for 1 and 2.
    assert circuit_for(1).k == 1 and circuit_for(2).k == 2
    for bad in (True, 2.0, 1.5):
        with pytest.raises(ValueError, match="width"):
            circuit_for(bad)
    with pytest.raises(ValueError, match="width"):
        PurificationCircuit(k=True, tree=LEAF)


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
    # Width 1 is no purification: the raw rate passes through, whatever its p_succ.
    assert post_purification_rate(20, circuit_for(1), CircuitOutcome(0.8, 0.5)) == 20.0
    assert post_purification_rate(7, circuit_for(8), CircuitOutcome(0.9, 0.9)) == 0.0


def test_post_purification_rate_rejects_negative():
    with pytest.raises(ValueError):
        post_purification_rate(-1, circuit_for(2), CircuitOutcome(0.9, 0.5))


def test_post_purification_rate_takes_integer_egrs_up_to_the_egr_cap():
    outcome = CircuitOutcome(0.9, 0.5)
    assert post_purification_rate(0, circuit_for(1), outcome) == 0.0
    assert post_purification_rate(2**64, circuit_for(1), outcome) == float(2**64)
    assert post_purification_rate(2**64, circuit_for(2), outcome) == 0.5 * float(2**63)
    for bad in (True, False, 2.5, 20.0, 2**64 + 1, 10**400):
        for k in (1, 2):
            with pytest.raises(ValueError, match="egr"):
                post_purification_rate(bad, circuit_for(k), outcome)


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


# Noise pairs spanning the valid range, p2 from 1e-3 to 1 and eta from just
# above 1/2 to 1, for the monotonicity checks below.
MONOTONE_NOISE = list(itertools.product((1e-3, 0.3, 0.7, 0.9, 0.99, 1.0),
                                        (0.5001, 0.6, 0.8, 0.95, 0.99, 1.0)))


def _fidelity_grid(n):
    return [0.25 + 0.75 * i / n for i in range(n + 1)]


def test_step_is_nondecreasing_in_each_operand():
    """The exhaustive search bounds a chain of mixed raw fidelities by the same
    chain at its highest one; that is sound because a purify step never does
    worse on a better operand.

    With the other operand fixed, s_even, keep_even and keep_odd are linear
    in this one, so p_succ is too, with slope
    g2 * (m_eq - m_x) * (2/3) * (f_other - a_other) >= 0: m_eq - m_x is
    (2 eta - 1)**2 and f - (1 - f) / 3 >= 0 on [1/4, 1]. f_out = f_num /
    p_succ is a ratio of two linear functions with a positive denominator,
    so it is monotone in the operand, its sign fixed by its values at
    F = 1/4 and F = 1; this grid, which holds both, shows it rises.

    Checked up to a fall of 2**-54, one ulp of the floats just below 1/2:
    where the other operand is 1/4 the slope is exactly 0, p_succ is the
    constant 1/2, and the rounding of its sums lands it one ulp below 1/2 at
    some inputs and not at others.
    """
    tolerance = 2.0 ** -54
    grid = _fidelity_grid(60)
    for p2, eta in MONOTONE_NOISE:
        noise = NoiseParams(p2, eta)
        for other in grid:
            for step in (lambda f: purify_pair(f, other, noise),
                         lambda f: purify_pair(other, f, noise)):
                outs = [(out.f_out, out.p_succ) for out in map(step, grid)]
                for lower, higher in zip(outs, outs[1:]):
                    assert all(b >= a - tolerance for a, b in zip(lower, higher))


def test_circuit_rows_are_nondecreasing_in_the_input_fidelity():
    # Every standard circuit is a tree of purify steps whose operands are the
    # outputs of subtrees at f_in, so by the step's monotonicity its f_out,
    # its p_succ (a product of nonnegative rising factors) and W = (4F - 1) / 3
    # rise with f_in. The fold's rounding never showed a fall here, so the
    # check is exact. The wrapped fold keeps the grid out of the cache.
    grid = _fidelity_grid(600)
    for p2, eta in MONOTONE_NOISE:
        rows = [purify._evaluate_cached.__wrapped__(f, p2, eta)[0] for f in grid]
        for lower, higher in zip(rows, rows[1:]):
            for low, high in zip(lower, higher):
                assert all(b >= a for a, b in zip(low, high))


def test_tops_name_the_best_width_under_each_cap():
    # tops[m - 1] is the brute-force argmax of (W, f_out, -k) over widths
    # 1..m. The grid holds the fixed points F = 1/4 and, with perfect gates,
    # F = 1/2, where widths tie to the last bit, and F = 1.
    for p2, eta in ((1.0, 1.0), (0.99, 0.99), (0.9, 0.95), (1e-3, 0.5000001)):
        for f in _fidelity_grid(12) + [0.5, 0.91, 0.99]:
            rows, tops = purify._evaluate_cached(f, p2, eta)
            assert len(tops) == purify.MAX_CIRCUIT_K
            for m in range(1, purify.MAX_CIRCUIT_K + 1):
                best = max((rows[k - 1][2], rows[k - 1][0], -k) for k in range(1, m + 1))
                assert tops[m - 1] == -best[2]


def _step_formula(f1, f2, p2, eta):
    """The purify step as written before the inline fold, term by term."""
    g2, m_eq, m_x = p2 * p2, eta * eta + (1.0 - eta) * (1.0 - eta), 2.0 * eta * (1.0 - eta)
    a1 = (1.0 - f1) / 3.0
    a2 = (1.0 - f2) / 3.0
    s_even = f1 * f2 + f1 * a2 + f2 * a1 + 5.0 * a1 * a2
    keep_even = f1 * f2 + a1 * a2
    keep_odd = f1 * a2 + a1 * a2
    p_succ = g2 * (m_eq * s_even + m_x * (1.0 - s_even)) + (1.0 - g2) * 0.5
    f_num = g2 * (m_eq * keep_even + m_x * keep_odd) + (1.0 - g2) * 0.125
    return f_num / p_succ, p_succ


def test_purify_pair_is_the_step_formula_to_the_bit():
    rng = random.Random(23)
    anchors = (0.25, 0.5, 1.0)
    noises = [(1.0, 1.0), (0.99, 0.99), (1e-3, 0.5000001), (1e-3, 1.0), (1.0, 0.5000001)]
    pairs = list(itertools.product(anchors, anchors))
    pairs += [(rng.uniform(0.25, 1.0), rng.uniform(0.25, 1.0)) for _ in range(2000)]
    for i, (f1, f2) in enumerate(pairs):
        p2, eta = noises[i % len(noises)] if i % 2 else (rng.uniform(1e-3, 1.0),
                                                          rng.uniform(0.5000001, 1.0))
        out = purify_pair(f1, f2, NoiseParams(p2, eta))
        assert (out.f_out, out.p_succ) == _step_formula(f1, f2, p2, eta)


def test_fold_rejects_what_noise_params_rejects():
    # The caches are typed: the entries held for p2 = eta = 1.0 do not answer
    # the equal keys of True (True == 1) before the fold checks.
    f = 0.8765432101
    purify._evaluate_cached(f, 1.0, 1.0)
    chainopt._segment_table(f, 16, 1.0, 1.0, 8)
    bad = [(p2, 1.0, "p2") for p2 in (0.0, -0.0, 1.0 + 1e-12, float("nan"), True)]
    bad += [(1.0, eta, "eta") for eta in (0.5, 1.0 + 1e-12, float("nan"), True)]
    for p2, eta, field in bad:
        with pytest.raises(ValueError, match=field):
            NoiseParams(p2, eta)
        with pytest.raises(ValueError, match=field):
            purify._evaluate_cached(f, p2, eta)
        with pytest.raises(ValueError, match=field):
            chainopt._segment_table(f, 16, p2, eta, 8)
    for p2, eta in ((1e-3, 1.0), (1.0, 0.5000001), (1e-3, 0.5000001)):
        rows = purify._evaluate_cached(f, p2, eta)[0]
        assert len(rows) == purify.MAX_CIRCUIT_K
        assert chainopt._segment_table(f, 16, p2, eta, 8)[0] == (rows[0][2], f, -1, 16.0)


def test_fold_rejects_a_bool_fidelity():
    # True == 1 passes a range test; the fold rejects it as check_fidelity
    # does. The typed caches first hold the entries of F = 1.0, so none of
    # them answers the equal key True.
    purify._evaluate_cached(1.0, 1.0, 1.0)
    chainopt._segment_table(1.0, 16, 1.0, 1.0, 2)
    for call in (lambda: purify_pair(True, 0.9), lambda: purify_pair(0.9, True),
                 lambda: purify._evaluate_cached(True, 1.0, 1.0),
                 lambda: chainopt._segment_table(True, 16, 1.0, 1.0, 2)):
        with pytest.raises(ValueError, match="fidelity"):
            call()


def test_circuit_tree_must_be_a_leaf_or_a_pair():
    for bad in (5, (LEAF,), "ab", (LEAF, LEAF, LEAF), ((LEAF,), LEAF)):
        with pytest.raises(ValueError, match="tree"):
            PurificationCircuit(k=2, tree=bad)


def test_a_tree_too_deep_to_recurse_has_the_wrong_leaf_count():
    # 5,000 levels on either side, far past the interpreter's recursion limit.
    for grow in (lambda tree: (tree, LEAF), lambda tree: (LEAF, tree)):
        tree = LEAF
        for _ in range(5000):
            tree = grow(tree)
        with pytest.raises(ValueError, match="exactly k leaves"):
            PurificationCircuit(k=8, tree=tree)
