"""k-to-1 purification circuits on Werner pairs.

A circuit consumes k identical raw pairs (k = 1..8) and, when every one of
its k - 1 two-pair steps succeeds, outputs a single higher-fidelity pair.
Circuits are built as recurrence/pumping trees: the largest power of two
below k is purified as a balanced recurrence tree and any remaining raw
pairs pump the running output one at a time. k = 1 is the identity
(no purification).

Every tree is evaluated by one fold over its step schedule: the distinct
purify steps of the tree, children first. The eight standard circuits share
their subtrees, so their schedule has 7 steps, and one fold gives every
width's (f_out, p_succ, W) at one input fidelity and noise. The fold is the
only copy of the purify step's formula, run inline with no call per step;
``purify_pair`` is a one-step fold. This module owns the one cache of those
rows and of the best width under each cap, per (f_in, p2, eta), which the
chain optimizer reads. A non-standard tree folds its own schedule, uncached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .netgraph import MAX_EGR, check_int
from .werner import F_MIN, PERFECT, NoiseParams, check_fidelity

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
        check_int(self.k, "circuit width k", 1, MAX_CIRCUIT_K)
        if _count_leaves(self.tree) != self.k:
            raise ValueError("circuit tree must have exactly k leaves")


def _count_leaves(tree) -> int:
    """How many leaves ``tree`` has, counted up to one past ``MAX_CIRCUIT_K``
    on an explicit stack, so no depth meets the recursion limit."""
    count = 0
    stack = [tree]
    while stack and count <= MAX_CIRCUIT_K:
        tree = stack.pop()
        if tree is LEAF:
            count += 1
        elif type(tree) is tuple and len(tree) == 2:
            stack += tree[1], tree[0]
        else:
            raise ValueError(f"circuit tree must be {LEAF!r} or a (kept, consumed) pair, got {tree!r}")
    return count


def _balanced_tree(width: int):
    if width == 1:
        return LEAF
    return (_balanced_tree(width // 2), _balanced_tree(width - width // 2))


@lru_cache(maxsize=None, typed=True)
def circuit_for(k: int) -> PurificationCircuit:
    """The recurrence/pumping circuit consuming ``k`` raw pairs.

    The cache is typed, so True and 2.0 miss the entries of 1 and 2 and are
    rejected."""
    check_int(k, "circuit width k", 1, MAX_CIRCUIT_K)
    base = 1
    while base * 2 <= k:
        base *= 2
    tree = _balanced_tree(base)
    for _ in range(k - base):
        tree = (tree, LEAF)
    return PurificationCircuit(k=k, tree=tree)


def _schedule(trees) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """``trees`` as one step schedule over slots.

    Slot 0 holds the raw pair; step i reads the (kept, consumed) slots it
    names and writes slot i + 1. The steps are the distinct subtrees of
    ``trees``, children first, so trees share theirs. Also returns each
    tree's root slot, in order.
    """
    slots = {LEAF: 0}
    steps = []

    def place(tree) -> int:
        if tree not in slots:
            kept, consumed = tree
            steps.append((place(kept), place(consumed)))
            slots[tree] = len(steps)
        return slots[tree]

    roots = tuple(place(tree) for tree in trees)
    return tuple(steps), roots


_STEPS, _ROOTS = _schedule(circuit_for(k).tree for k in range(1, MAX_CIRCUIT_K + 1))


def _fold(steps, roots, leaves, p2: float, eta: float
          ) -> tuple[tuple[float, float, float], ...]:
    """(f_out, p_succ, W) at each root of a schedule, slot i holding ``leaves[i]``.

    This is the one copy of the purify step's formula; ``purify_pair`` is a
    one-step fold. The step runs inline over flat lists of fidelities and
    success probabilities, with no call per step. A subtree's success
    probability is p_kept * p_cons * p_succ, in that order, so every float
    is the one a walk of its tree gives. W is fidelity_to_w's (4F - 1) / 3.
    A leaf that is a bool or outside [1/4, 1], or a step output outside
    [1/4, 1], raises check_fidelity's ValueError (a step output is a float
    quotient, never a bool), and a noise pair outside NoiseParams' ranges
    its ValueError.
    """
    if p2 is True or eta is True or not (0.0 < p2 <= 1.0 and 0.5 < eta <= 1.0):
        NoiseParams(p2, eta)  # raises for the invalid value
    for f in leaves:
        if f is True or not F_MIN <= f <= 1.0:
            check_fidelity(f)
    # Both CNOTs survive with g2; the two readouts are both right or both
    # wrong with m_eq, and exactly one is wrong with m_x.
    g2 = p2 * p2
    m_eq = eta * eta + (1.0 - eta) * (1.0 - eta)
    m_x = 2.0 * eta * (1.0 - eta)
    half, eighth = (1.0 - g2) * 0.5, (1.0 - g2) * 0.125
    fids, probs = list(leaves), [1.0] * len(leaves)
    for kept, consumed in steps:
        f1, f2 = fids[kept], fids[consumed]
        a1 = (1.0 - f1) / 3.0
        a2 = (1.0 - f2) / 3.0
        ff, fa, aa = f1 * f2, f1 * a2, a1 * a2
        # True-coincidence probability; the kept pair's phi+ weights in the
        # coinciding and anti-coinciding branches are ff + aa and fa + aa.
        s_even = ff + fa + f2 * a1 + 5.0 * a1 * a2
        p_succ = g2 * (m_eq * s_even + m_x * (1.0 - s_even)) + half
        f_out = (g2 * (m_eq * (ff + aa) + m_x * (fa + aa)) + eighth) / p_succ
        if not F_MIN <= f_out <= 1.0:
            check_fidelity(f_out)
        fids.append(f_out)
        probs.append(probs[kept] * probs[consumed] * p_succ)
    return tuple([(fids[root], probs[root], (4.0 * fids[root] - 1.0) / 3.0) for root in roots])


def purify_pair(f1: float, f2: float, noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """One two-pair purification step; the first pair is kept.

    Both pairs are Werner states; the step applies bilateral CNOTs (each
    depolarizing with survival probability p2), measures the consumed pair
    with per-measurement flip probability 1 - eta, and keeps the first pair
    when the reported outcomes coincide. The kept state is re-twirled to
    Werner form, so only its fidelity is tracked. This is a one-step
    ``_fold``: slot 0 (``f1``) kept, slot 1 (``f2``) consumed.
    """
    f_out, p_succ, _ = _fold(((0, 1),), (2,), (f1, f2), noise.p2, noise.eta)[0]
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)


@lru_cache(maxsize=4096, typed=True)
def _evaluate_cached(f_in: float, p2: float, eta: float) -> tuple[tuple, tuple[int, ...]]:
    """(rows, tops) at input ``f_in``. Row k - 1 is (f_out, p_succ, W) of the
    standard width-k circuit: one fold of the 7 shared steps, not the 28 of
    eight separate trees. tops[m - 1] is the best width in 1..m: the highest
    (W, f_out), the smaller width on a tie. No EGR enters, so every segment
    at one fidelity and noise reads the same entry. The cache is typed, so a
    bool misses the entry of 1.0 and is rejected."""
    rows = _fold(_STEPS, _ROOTS, (f_in,), p2, eta)
    f_top, _, w_top = rows[0]
    top, tops = 1, [1]
    for k, (f_out, _, w) in enumerate(rows[1:], 2):
        if w > w_top or (w == w_top and f_out > f_top):
            top, f_top, w_top = k, f_out, w
        tops.append(top)
    return rows, tuple(tops)


def evaluate_circuit(circuit: PurificationCircuit, f_in: float,
                     noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """Fold the purify step over the circuit tree with all leaves at ``f_in``.

    The success probability is the product of every step's success
    probability; k = 1 gives (f_in, 1). A standard circuit (``circuit_for``)
    reads its row of the cached fold of all eight at this ``f_in`` and
    noise; any other tree folds its own schedule with the same ``_fold``.
    """
    check_fidelity(f_in)
    if circuit == circuit_for(circuit.k):
        f_out, p_succ, _ = _evaluate_cached(f_in, noise.p2, noise.eta)[0][circuit.k - 1]
    else:
        f_out, p_succ, _ = _fold(*_schedule((circuit.tree,)), (f_in,), noise.p2, noise.eta)[0]
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)


def post_purification_rate(egr: int, circuit: PurificationCircuit,
                           outcome: CircuitOutcome) -> float:
    """Expected pairs per timestep surviving purification on one segment.

    A width-k circuit consumes k of the egr raw pairs per run, and all runs
    must succeed: the rate is p_succ * floor(egr / k). Without purification
    (k = 1) the raw rate passes through. ``egr`` is an integer, not a bool,
    in 0..2**64: an idle segment rates 0, and netgraph's MAX_EGR caps the
    rest.
    """
    if not (type(egr) is int and 0 <= egr <= MAX_EGR):
        raise ValueError(f"egr must be an integer in 0..2**64, got {egr!r}")
    return float(egr) if circuit.k == 1 else outcome.p_succ * float(egr // circuit.k)


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
