import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from entroute import purify, werner
from entroute.chainopt import (Chain, PurificationPlan, chain_from_path, d_bound_by_hops,
                               evaluate_plan, optimize_chain)
from entroute.dmsim import simulate_swap_step
from entroute.netgraph import (Channel, Network, TopologySpec, endpoints_for_separation,
                               generate_network, network_from_json, network_to_json, repeater_egr)
from entroute.purify import (CircuitOutcome, circuit_for, evaluate_circuit, oracle_simulate_step,
                             post_purification_rate, purify_pair)
from entroute.routing import best_path_exhaustive, enumerate_paths, multipath_greedy
from entroute.werner import (NoiseParams, PERFECT, distillable,
                             distillable_per_pair, fidelity_to_w,
                             swap_fidelity, w_to_fidelity)

NOISY = NoiseParams(0.99, 0.99)


def test_fidelity_w_conversion_anchor_points():
    assert fidelity_to_w(1.0) == 1.0
    assert fidelity_to_w(0.25) == 0.0
    assert fidelity_to_w(0.91) == pytest.approx(0.88, abs=1e-15)
    assert w_to_fidelity(1.0) == 1.0
    assert w_to_fidelity(0.0) == 0.25


def test_conversion_round_trip():
    for i in range(1001):
        w = i / 1000
        assert abs(fidelity_to_w(w_to_fidelity(w)) - w) <= 1e-15


@pytest.mark.parametrize("bad", [-0.1, 0.0, 0.2499, 1.0001, 2.0])
def test_fidelity_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        fidelity_to_w(bad)


def test_w_out_of_range_rejected():
    with pytest.raises(ValueError):
        w_to_fidelity(-0.01)
    with pytest.raises(ValueError):
        w_to_fidelity(1.01)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(0.0, 1.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0, 1.5)
    with pytest.raises(ValueError, match="eta"):
        NoiseParams(0.99, 0.5)
    # True passes each range test as 1; network JSON would write it as `true`.
    with pytest.raises(ValueError, match="p2"):
        NoiseParams(True, 1.0)
    with pytest.raises(ValueError, match="eta"):
        NoiseParams(1.0, True)
    assert PERFECT.swap_factor == 1.0


_NOT_REAL = [
    pytest.param(lambda: werner.check_fidelity(None), "fidelity", id='check_fidelity(None)'),
    pytest.param(lambda: werner.check_fidelity("0.9"), "fidelity", id='check_fidelity("0.9")'),
    pytest.param(lambda: werner.check_fidelity(1j), "fidelity", id='check_fidelity(1j)'),
    pytest.param(lambda: purify_pair(None, 0.9), "fidelity", id='purify_pair(None, 0.9)'),
    pytest.param(lambda: purify_pair(0.9, "0.9"), "fidelity", id='purify_pair(0.9, "0.9")'),
    pytest.param(lambda: evaluate_circuit(circuit_for(2), None), "fidelity",
                 id="evaluate_circuit(circuit_for(2), None)"),
    pytest.param(lambda: evaluate_circuit(circuit_for(8), 1j, NOISY), "fidelity",
                 id="evaluate_circuit(circuit_for(8), 1j, NOISY)"),
    pytest.param(lambda: NoiseParams("1", 1.0), "p2", id='NoiseParams("1", 1.0)'),
    pytest.param(lambda: NoiseParams(1.0, None), "eta", id='NoiseParams(1.0, None)'),
    pytest.param(lambda: NoiseParams(1j, 1.0), "p2", id='NoiseParams(1j, 1.0)'),
    pytest.param(lambda: distillable_per_pair(None), "fidelity", id='distillable_per_pair(None)'),
    pytest.param(lambda: Chain((8,), (None,)), "fidelity", id='Chain((8,), (None,))'),
    pytest.param(lambda: purify._evaluate_cached(0.9, None, 1.0), "p2",
                 id="_evaluate_cached(0.9, None, 1.0)"),
    pytest.param(lambda: purify._evaluate_cached(0.9, 1.0, "1"), "eta",
                 id='_evaluate_cached(0.9, 1.0, "1")'),
    pytest.param(lambda: purify._evaluate_cached(None, 1.0, 1.0), "fidelity",
                 id="_evaluate_cached(None, 1.0, 1.0)"),
    # A number is an exact int or a float: these compare with a float, but
    # are not one, and would fail later in float arithmetic.
    pytest.param(lambda: werner.check_fidelity(Decimal("0.9")), "fidelity",
                 id='check_fidelity(Decimal("0.9"))'),
    pytest.param(lambda: werner.check_fidelity(Fraction(9, 10)), "fidelity",
                 id="check_fidelity(Fraction(9, 10))"),
    pytest.param(lambda: werner.check_fidelity(np.float32(0.9)), "fidelity",
                 id="check_fidelity(np.float32(0.9))"),
    pytest.param(lambda: Chain((8, 8), (Decimal("0.9"),) * 2), "fidelity",
                 id='Chain((8, 8), (Decimal("0.9"),) * 2)'),
    pytest.param(lambda: NoiseParams(Decimal("0.99"), 1.0), "p2",
                 id='NoiseParams(Decimal("0.99"), 1.0)'),
    pytest.param(lambda: NoiseParams(1.0, Fraction(99, 100)), "eta",
                 id="NoiseParams(1.0, Fraction(99, 100))"),
    pytest.param(lambda: NoiseParams(np.int64(1), 1.0), "p2", id="NoiseParams(np.int64(1), 1.0)"),
    pytest.param(lambda: distillable("1", 0.9), "pair count", id='distillable("1", 0.9)'),
    pytest.param(lambda: distillable(True, 0.95), "pair count", id="distillable(True, 0.95)"),
    pytest.param(lambda: w_to_fidelity(None), "Werner parameter", id="w_to_fidelity(None)"),
    pytest.param(lambda: w_to_fidelity(True), "Werner parameter", id="w_to_fidelity(True)"),
    # inf * d(F) is NaN at d = 0 and inf above it, and a NaN p_succ gives a
    # NaN rate, whatever the width.
    pytest.param(lambda: distillable(math.inf, 0.5), "pair count", id="distillable(inf, 0.5)"),
    pytest.param(lambda: distillable(math.inf, 0.95), "pair count", id="distillable(inf, 0.95)"),
    pytest.param(lambda: post_purification_rate(8, circuit_for(2), CircuitOutcome(math.nan, math.nan)),
                 "outcome", id="post_purification_rate(8, circuit_for(2), CircuitOutcome(nan, nan))"),
    pytest.param(lambda: post_purification_rate(8, circuit_for(1), CircuitOutcome(0.9, math.inf)),
                 "outcome", id="post_purification_rate(8, circuit_for(1), CircuitOutcome(0.9, inf))"),
]


@pytest.mark.parametrize("call, field", _NOT_REAL)
def test_a_value_that_is_not_a_real_number_raises_value_error(call, field):
    # None, a string or a complex does not compare with a float; the checks
    # name the parameter instead of letting that comparison's TypeError out.
    with pytest.raises(ValueError, match=field):
        call()


def test_a_number_is_an_exact_int_or_a_float():
    for v in (0, 1, 2**70, 0.9, float("nan"), np.float64(0.9)):
        assert werner.is_number(v), v
    for v in (True, False, None, "0.9", 1j, Decimal("0.9"), Fraction(9, 10),
              np.float32(0.9), np.int64(1)):
        assert not werner.is_number(v), v
    assert werner.check_fidelity(np.float64(0.9)) == 0.9


_SPEC = TopologySpec("square", (3, 4), 8, 32, 0.9, seed=1)
_WRONG_TYPE = [
    pytest.param(lambda: Chain((8,), (0.9,), None), "noise", id="Chain((8,), (0.9,), None)"),
    pytest.param(lambda: Network([Channel(0, 1, 8, 0.9)], noise=None), "noise",
                 id="Network([...], noise=None)"),
    pytest.param(lambda: generate_network(_SPEC, None), "noise",
                 id="generate_network(spec, None)"),
    pytest.param(lambda: purify_pair(0.9, 0.9, None), "noise", id="purify_pair(0.9, 0.9, None)"),
    pytest.param(lambda: purify_pair(0.9, 0.9, (0.99, 0.99)), "noise",
                 id="purify_pair(0.9, 0.9, (0.99, 0.99))"),
    pytest.param(lambda: evaluate_circuit(circuit_for(2), 0.9, None), "noise",
                 id="evaluate_circuit(circuit_for(2), 0.9, None)"),
    pytest.param(lambda: evaluate_circuit(None, 0.9), "circuit", id="evaluate_circuit(None, 0.9)"),
    pytest.param(lambda: oracle_simulate_step(0.9, 0.9, None), "noise",
                 id="oracle_simulate_step(0.9, 0.9, None)"),
    pytest.param(lambda: swap_fidelity([0.9, 0.9], None), "noise",
                 id="swap_fidelity([0.9, 0.9], None)"),
    pytest.param(lambda: swap_fidelity([0.9], None), "noise", id="swap_fidelity([0.9], None)"),
    pytest.param(lambda: swap_fidelity(None), "fids", id="swap_fidelity(None)"),
    pytest.param(lambda: d_bound_by_hops(0.9, None, 8, 16, 3), "noise",
                 id="d_bound_by_hops(0.9, None, 8, 16, 3)"),
    pytest.param(lambda: optimize_chain(None), "chain", id="optimize_chain(None)"),
    pytest.param(lambda: evaluate_plan(None, None), "chain", id="evaluate_plan(None, None)"),
    pytest.param(lambda: evaluate_plan(Chain((8,), (0.9,)), None), "plan",
                 id="evaluate_plan(Chain((8,), (0.9,)), None)"),
    pytest.param(lambda: chain_from_path(None, [0, 1]), "net", id="chain_from_path(None, [0, 1])"),
    pytest.param(lambda: Chain(8, 0.9), "egrs and fidelities", id="Chain(8, 0.9)"),
    pytest.param(lambda: post_purification_rate(8, None, None), "circuit",
                 id="post_purification_rate(8, None, None)"),
    pytest.param(lambda: post_purification_rate(8, circuit_for(2), None), "outcome",
                 id="post_purification_rate(8, circuit_for(2), None)"),
    pytest.param(lambda: best_path_exhaustive(None, 0, 1), "net",
                 id="best_path_exhaustive(None, 0, 1)"),
    pytest.param(lambda: multipath_greedy(None, 0, 1, 2), "net",
                 id="multipath_greedy(None, 0, 1, 2)"),
    pytest.param(lambda: enumerate_paths(None, 0, 1), "net", id="enumerate_paths(None, 0, 1)"),
    pytest.param(lambda: repeater_egr(None, 0), "net", id="repeater_egr(None, 0)"),
    pytest.param(lambda: network_to_json(None), "net", id="network_to_json(None)"),
    pytest.param(lambda: generate_network(None), "spec", id="generate_network(None)"),
    pytest.param(lambda: Network([None]), "channel", id="Network([None])"),
    pytest.param(lambda: Network(None), "channels", id="Network(None)"),
    pytest.param(lambda: TopologySpec("square", None, 8, 32, 0.9, 1), "extent",
                 id="TopologySpec('square', None, 8, 32, 0.9, 1)"),
    pytest.param(lambda: endpoints_for_separation(None, 2), "extent",
                 id="endpoints_for_separation(None, 2)"),
    pytest.param(lambda: endpoints_for_separation((1, 2, 3), 1), "extent",
                 id="endpoints_for_separation((1, 2, 3), 1)"),
    pytest.param(lambda: PurificationPlan(5), "segments", id="PurificationPlan(5)"),
    pytest.param(lambda: PurificationPlan(((1,),)), "segments", id="PurificationPlan(((1,),))"),
    pytest.param(lambda: best_path_exhaustive(generate_network(_SPEC), 0, 3, seeds=5), "seeds",
                 id="best_path_exhaustive(net, 0, 3, seeds=5)"),
    pytest.param(lambda: network_from_json(None), "text", id="network_from_json(None)"),
    pytest.param(lambda: chain_from_path(generate_network(_SPEC), None), "path",
                 id="chain_from_path(net, None)"),
]


@pytest.mark.parametrize("call, name", _WRONG_TYPE)
def test_an_object_of_the_wrong_type_raises_value_error_naming_it(call, name):
    # A noise model must be a NoiseParams, a circuit a PurificationCircuit
    # and fids a list or tuple; otherwise the failure would come later, as
    # an AttributeError or a TypeError from deep in the code.
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_swap_single_pair_unchanged():
    assert swap_fidelity([0.95]) == 0.95
    assert swap_fidelity([0.95], NOISY) == 0.95


def test_swap_empty_rejected():
    with pytest.raises(ValueError):
        swap_fidelity([])


def test_swap_anchor_value():
    # 1/4 + 3/4 * ((4*0.99-1)/3)^2 = 0.98013333...
    got = swap_fidelity([0.99, 0.99])
    assert abs(got - 0.980133) < 1e-6
    assert got == pytest.approx(0.25 + 0.75 * (2.96 / 3.0) ** 2, abs=1e-15)


def test_swap_noisy_anchor_value():
    got = swap_fidelity([0.99, 0.99], NOISY)
    assert abs(got - 0.953654) < 2e-6
    assert got == pytest.approx(simulate_swap_step(0.99, 0.99, 0.99, 0.99), abs=1e-12)


def test_swap_matches_density_matrix_oracle():
    for noise in (PERFECT, NOISY, NoiseParams(0.97, 0.95)):
        for i in range(6):
            for j in range(6):
                f1 = 0.5 + 0.1 * i
                f2 = 0.5 + 0.1 * j
                sim = simulate_swap_step(f1, f2, noise.p2, noise.eta)
                assert swap_fidelity([f1, f2], noise) == pytest.approx(sim, abs=1e-12)


def test_swap_associativity_random_lists():
    rng = random.Random(7)
    for trial in range(1000):
        n = rng.randint(2, 8)
        fids = [rng.uniform(0.5, 1.0) for _ in range(n)]
        noise = PERFECT if trial % 2 == 0 else NOISY
        flat = swap_fidelity(fids, noise)
        folded = fids[0]
        for f in fids[1:]:
            folded = swap_fidelity([folded, f], noise)
        assert abs(flat - folded) <= 1e-12


def test_swap_monotone_in_link_fidelity():
    base = swap_fidelity([0.9, 0.9, 0.9])
    assert swap_fidelity([0.95, 0.9, 0.9]) > base
    assert swap_fidelity([0.9, 0.9, 0.9, 0.999]) < base
    assert swap_fidelity([0.9, 0.9, 0.9], NOISY) < base
    assert swap_fidelity([0.9, 0.9, 0.9], NoiseParams(0.99, 1.0)) > \
        swap_fidelity([0.9, 0.9, 0.9], NoiseParams(0.98, 1.0))


def test_distillable_perfect_pairs():
    assert distillable(10, 1.0) == 10.0
    assert distillable_per_pair(1.0) == 1.0


def test_distillable_hashing_value():
    # Independent evaluation of the hashing expression at f = 0.95.
    f = 0.95
    expected = 1.0 + f * math.log2(f) + (1.0 - f) * math.log2((1.0 - f) / 3.0)
    assert distillable(1, f) == pytest.approx(expected, abs=1e-15)
    assert abs(distillable(1, f) - 0.634355) < 1e-6


def test_distillable_below_threshold_clamps_to_zero():
    assert distillable(5, 0.75) == 0.0
    assert distillable_per_pair(0.25) == 0.0


def test_distillable_rejects_negative_pair_count():
    for bad in (-1, -1e-300, float("nan")):
        with pytest.raises(ValueError):
            distillable(bad, 0.9)
    assert distillable(0, 0.9) == 0.0


def test_hashing_threshold_by_bisection():
    lo, hi = 0.7, 0.9
    for _ in range(60):
        mid = (lo + hi) / 2
        if distillable_per_pair(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    threshold = (lo + hi) / 2
    assert abs(threshold - 0.8107) < 0.0005


def test_per_pair_shape():
    # Zero below the threshold, strictly increasing above, continuous at it.
    threshold = 0.8107
    prev = 0.0
    for i in range(200):
        f = 0.25 + (1.0 - 0.25) * i / 199
        value = distillable_per_pair(f)
        if f < threshold - 0.001:
            assert value == 0.0
        if f > threshold + 0.001:
            assert value > prev
        prev = value
    assert distillable_per_pair(threshold) < 1e-3


def test_distillable_below_the_root_is_the_floored_formula():
    # Up to 0.81 the yield returns its floor without the logarithms; that
    # must equal the floored formula on a dense grid up to past the root and
    # on the floats next to 0.81.
    def floored(f):
        return max(0.0, 1.0 + f * math.log2(f) + (1.0 - f) * math.log2((1.0 - f) / 3.0))

    fids = [0.25 + (0.82 - 0.25) * i / 20000 for i in range(20001)]
    up = down = werner._BELOW_HASHING_ROOT
    for _ in range(64):
        up, down = math.nextafter(up, 1.0), math.nextafter(down, 0.0)
        fids += [up, down]
    for f in fids + [werner._BELOW_HASHING_ROOT]:
        assert distillable_per_pair(f) == floored(f)
    # The constant sits below the root 0.81071..., where the formula is
    # negative by far more than rounding.
    f = werner._BELOW_HASHING_ROOT
    assert 1.0 + f * math.log2(f) + (1.0 - f) * math.log2((1.0 - f) / 3.0) < -1e-3
    assert distillable_per_pair(0.8108) > 0.0
