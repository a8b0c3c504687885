"""k-to-1 purification circuits on Werner pairs.

A circuit consumes k identical raw pairs (k = 1..8) and, when every one of
its k - 1 two-pair steps succeeds, outputs a single higher-fidelity pair.
Circuits are built as recurrence/pumping trees: the largest power of two
below k is purified as a balanced recurrence tree and any remaining raw
pairs pump the running output one at a time. k = 1 is the identity
(no purification).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .werner import PERFECT, NoiseParams, check_fidelity

MAX_CIRCUIT_K = 8

LEAF = "raw"  # tree leaf: one raw entangled pair


@dataclass(frozen=True)
class CircuitOutcome:
    """Output fidelity and total success probability of a circuit run."""

    f_out: float
    p_succ: float


@dataclass(frozen=True)
class PurificationCircuit:
    """A k-to-1 combination tree; internal nodes are two-pair purify steps.

    Each internal node is a (kept, consumed) pair of subtrees; the kept
    side's output survives the step, the consumed side's is measured.
    """

    k: int
    tree: object

    def __post_init__(self):
        if not 1 <= self.k <= MAX_CIRCUIT_K:
            raise ValueError(f"circuit width k must be in 1..{MAX_CIRCUIT_K}, got {self.k}")
        if _count_leaves(self.tree) != self.k:
            raise ValueError("circuit tree must have exactly k leaves")


def _count_leaves(tree) -> int:
    if tree is LEAF:
        return 1
    kept, consumed = tree
    return _count_leaves(kept) + _count_leaves(consumed)


def _balanced_tree(width: int):
    if width == 1:
        return LEAF
    return (_balanced_tree(width // 2), _balanced_tree(width - width // 2))


@lru_cache(maxsize=None)
def circuit_for(k: int) -> PurificationCircuit:
    """The recurrence/pumping circuit consuming ``k`` raw pairs."""
    if not 1 <= k <= MAX_CIRCUIT_K:
        raise ValueError(f"circuit width k must be in 1..{MAX_CIRCUIT_K}, got {k}")
    base = 1
    while base * 2 <= k:
        base *= 2
    tree = _balanced_tree(base)
    for _ in range(k - base):
        tree = (tree, LEAF)
    return PurificationCircuit(k=k, tree=tree)


def purify_pair(f1: float, f2: float, noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """One two-pair purification step; the first pair is kept.

    Both pairs are Werner states; the step applies bilateral CNOTs (each
    depolarizing with survival probability p2), measures the consumed pair
    with per-measurement flip probability 1 - eta, and keeps the first pair
    when the reported outcomes coincide. The kept state is re-twirled to
    Werner form, so only its fidelity is tracked.
    """
    check_fidelity(f1)
    check_fidelity(f2)
    a1 = (1.0 - f1) / 3.0
    a2 = (1.0 - f2) / 3.0
    # True-coincidence probability and the phi+ weights of the kept pair in
    # the coinciding / anti-coinciding branches (perfect-gate values).
    s_even = f1 * f2 + f1 * a2 + f2 * a1 + 5.0 * a1 * a2
    keep_even = f1 * f2 + a1 * a2
    keep_odd = f1 * a2 + a1 * a2
    g2 = noise.p2 * noise.p2
    m_eq = noise.eta * noise.eta + (1.0 - noise.eta) * (1.0 - noise.eta)
    m_x = 2.0 * noise.eta * (1.0 - noise.eta)
    p_succ = g2 * (m_eq * s_even + m_x * (1.0 - s_even)) + (1.0 - g2) * 0.5
    f_num = g2 * (m_eq * keep_even + m_x * keep_odd) + (1.0 - g2) * 0.125
    return CircuitOutcome(f_out=f_num / p_succ, p_succ=p_succ)


def _evaluate_tree(tree, f_in: float, noise: NoiseParams, memo: dict) -> tuple[float, float]:
    """(f_out, p_succ) of ``tree``; ``memo`` holds the subtrees already folded
    at this ``f_in`` and ``noise``, so a subtree shared by several trees costs
    its purify steps once."""
    if tree is LEAF:
        return f_in, 1.0
    if tree not in memo:
        kept, consumed = tree
        f_kept, p_kept = _evaluate_tree(kept, f_in, noise, memo)
        f_cons, p_cons = _evaluate_tree(consumed, f_in, noise, memo)
        step = purify_pair(f_kept, f_cons, noise)
        memo[tree] = step.f_out, p_kept * p_cons * step.p_succ
    return memo[tree]


@lru_cache(maxsize=4096)
def _evaluate_cached(f_in: float, p2: float, eta: float) -> tuple[CircuitOutcome, ...]:
    """Every standard circuit, k = 1..MAX_CIRCUIT_K, at input ``f_in``; entry k - 1 is k.

    One walk with one memo: the eight trees share their subtrees, so it takes
    7 purify steps instead of 28. Each subtree is folded in the same operand
    order as on its own, so every float is the same as a walk of one tree.
    """
    noise = NoiseParams(p2, eta)
    memo: dict = {}
    return tuple(CircuitOutcome(*_evaluate_tree(circuit_for(k).tree, f_in, noise, memo))
                 for k in range(1, MAX_CIRCUIT_K + 1))


def evaluate_circuit(circuit: PurificationCircuit, f_in: float,
                     noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """Fold the purify step over the circuit tree with all leaves at ``f_in``.

    The success probability is the product of every step's success
    probability; k = 1 returns (f_in, 1). A standard circuit (``circuit_for``)
    is read from the cached walk of all eight at this ``f_in`` and noise.
    """
    check_fidelity(f_in)
    if circuit.tree is LEAF:
        return CircuitOutcome(f_out=f_in, p_succ=1.0)
    if circuit == circuit_for(circuit.k):
        return _evaluate_cached(f_in, noise.p2, noise.eta)[circuit.k - 1]
    f_out, p_succ = _evaluate_tree(circuit.tree, f_in, noise, {})
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)


def post_purification_rate(egr: int, circuit: PurificationCircuit,
                           outcome: CircuitOutcome) -> float:
    """Expected pairs per timestep surviving purification on one segment.

    A width-k circuit consumes k of the egr raw pairs per run, and all runs
    must succeed: the rate is p_succ * floor(egr / k). Without purification
    (k = 1) the raw rate passes through.
    """
    if egr < 0:
        raise ValueError(f"egr must be >= 0, got {egr}")
    if circuit.k == 1:
        return float(egr)
    return outcome.p_succ * float(egr // circuit.k)


def oracle_simulate_step(f1: float, f2: float,
                         noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """Density-matrix ground truth for :func:`purify_pair`.

    Builds the 16x16 joint state of the two Werner pairs explicitly and
    simulates the noisy step exactly; see :mod:`entroute.dmsim`. That module
    needs numpy and is imported on the first call, so importing this package
    never loads numpy.
    """
    from . import dmsim

    check_fidelity(f1)
    check_fidelity(f2)
    f_out, p_succ = dmsim.simulate_purify_step(f1, f2, noise.p2, noise.eta)
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)
