"""Werner-state fidelity calculus.

A two-qubit Werner state is a Bell state mixed with isotropic noise and is
fully described by its fidelity F to the target Bell state (equivalently by
the Werner parameter W). This module implements the F/W conversions, the
fidelity of a state produced by swapping a chain of Werner pairs with noisy
gates and measurements, and the hashing-bound metric of distillable
entanglement used as the optimization objective throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

F_MIN = 0.25  # fidelity of the maximally mixed two-qubit state (W = 0)
# The hashing yield rises on [1/4, 1] through its root near 0.81071. At 0.81
# it is about -0.0026, negative by far more than any rounding error, so no
# fidelity up to this constant distils and its logarithms need not be taken.
_BELOW_HASHING_ROOT = 0.81


def is_number(v) -> bool:
    """An exact ``int`` or a ``float`` (as numpy's float64), not a bool,
    Decimal, Fraction or float32: the float counterpart of ``check_int``."""
    return type(v) is int or isinstance(v, float)


def check_type(value, cls: type, what: str):
    """``value`` if its type is exactly ``cls``, else a ValueError naming
    ``what``: the one rule for an argument that must be an object of a class."""
    if type(value) is cls:
        return value
    raise ValueError(f"{what} must be a {cls.__name__}, got {value!r}")


def check_fidelity(f: float) -> float:
    """Validate a Werner fidelity; returns it unchanged.

    Fidelities outside [0.25, 1] cannot arise from valid operations on valid
    states, so they are rejected rather than clamped, as is a non-number.
    """
    if is_number(f) and F_MIN <= f <= 1.0:
        return f
    raise ValueError(f"Werner fidelity must be a number in [0.25, 1], got {f!r}")


def check_noise(p2: float, eta: float) -> None:
    """Raise ValueError, naming the parameter, unless ``p2`` is a number in
    (0, 1] and ``eta`` a number in (1/2, 1] (see ``NoiseParams``)."""
    if not (is_number(p2) and 0.0 < p2 <= 1.0):
        raise ValueError(f"p2 must be a number in (0, 1], got {p2!r}")
    if not (is_number(eta) and 0.5 < eta <= 1.0):
        raise ValueError(f"eta must be a number in (0.5, 1], got {eta!r}")


@dataclass(frozen=True)
class NoiseParams:
    """Gate and measurement error model for repeater operations.

    p2:  survival probability of a two-qubit gate; with probability 1 - p2
         the gate depolarizes the pair of qubits it acts on.
    eta: probability that a measurement reports the correct outcome; it
         must exceed 1/2, or a swap leaves no entanglement (the swap factor
         p2 (4 eta^2 - 1) / 3 would be <= 0).
    """

    p2: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        check_noise(self.p2, self.eta)

    @property
    def swap_factor(self) -> float:
        """Attenuation of the Werner parameter contributed by one swap."""
        return self.p2 * (4.0 * self.eta ** 2 - 1.0) / 3.0


PERFECT = NoiseParams(1.0, 1.0)


def fidelity_to_w(f: float) -> float:
    """Werner parameter W = (4F - 1) / 3 of a state with fidelity ``f``."""
    check_fidelity(f)
    return (4.0 * f - 1.0) / 3.0


def w_to_fidelity(w: float) -> float:
    """Fidelity F = (3W + 1) / 4 of a Werner state with parameter ``w``."""
    if not (is_number(w) and 0.0 <= w <= 1.0):
        raise ValueError(f"Werner parameter must be a number in [0, 1], got {w!r}")
    return (3.0 * w + 1.0) / 4.0


def swap_fidelity(fids: list[float] | tuple[float, ...], noise: NoiseParams = PERFECT) -> float:
    """Fidelity of the pair obtained by swapping a chain of Werner pairs.

    ``fids`` holds the fidelities of the n chained pairs, joined by n - 1
    Bell-state measurements. Each measurement is performed with a noisy
    two-qubit gate (survival probability p2) and two noisy readouts
    (correctness eta), contributing one factor p2 * (4 eta^2 - 1) / 3 to the
    Werner parameter. A single pair is returned unchanged.
    """
    if not (isinstance(fids, (list, tuple)) and fids):
        raise ValueError(f"fids must be a non-empty list or tuple of fidelities, got {fids!r}")
    check_type(noise, NoiseParams, "noise")
    if len(fids) == 1:
        return check_fidelity(fids[0])
    w = 1.0
    for f in fids:
        w *= fidelity_to_w(f)
    return 0.25 + 0.75 * noise.swap_factor ** (len(fids) - 1) * w


def distillable_per_pair(f: float) -> float:
    """Hashing-bound yield, in ebits per pair, of Werner pairs of fidelity ``f``.

    Evaluates 1 + F log2 F + (1 - F) log2((1 - F) / 3), floored at zero:
    a negative rate means nothing is distillable by the one-way protocol.
    At F <= 0.81, below the root, that floor is returned without a logarithm.
    """
    check_fidelity(f)
    if f <= _BELOW_HASHING_ROOT:
        return 0.0
    if f == 1.0:
        return 1.0
    h = 1.0 + f * math.log2(f) + (1.0 - f) * math.log2((1.0 - f) / 3.0)
    return max(0.0, h)


def distillable(m: float, f: float) -> float:
    """Total ebits distillable from ``m`` Werner pairs of fidelity ``f``."""
    if not (is_number(m) and 0 <= m < math.inf):  # also rejects NaN
        raise ValueError(f"pair count must be a finite number >= 0, got {m!r}")
    return m * distillable_per_pair(f)
