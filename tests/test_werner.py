import math
import random

import pytest

from entroute import werner
from entroute.dmsim import simulate_swap_step
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
