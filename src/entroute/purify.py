"""k-to-1 purification circuits on Werner pairs.

A circuit consumes k identical raw pairs (k = 1..8) and, when every one of
its k - 1 two-pair steps succeeds, outputs a single higher-fidelity pair.
Circuits are built as recurrence/pumping trees: the largest power of two
below k is purified as a balanced recurrence tree and any remaining raw
pairs pump the running output one at a time. k = 1 is the identity
(no purification).

Every tree is evaluated by one fold over its step schedule: the distinct
purify steps of the tree, children first. Each schedule is compiled once into
a straight-line kernel that holds every slot in a local variable, so the
steps run with no loop, list or call; the kernel's template is the only copy
of the purify step's formula, and ``purify_pair`` is a one-step kernel. The
fold checks its inputs through their owners in ``werner``, and the kernel
returns each root's (F, p_succ, W). The eight standard circuits share their
subtrees, so one fold of 7 steps, built at import, gives every width's row
at one input fidelity and noise. This module caches those rows and the best
width under each cap, per (f_in, p2, eta), for the chain optimizer alone.
``evaluate_circuit`` runs each tree's own kernel, from a bounded cache by
tree, and never reads those rows, so it checks that table.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass
from functools import lru_cache

from .netgraph import MAX_EGR, check_int
from .werner import PERFECT, NoiseParams, check_fidelity, check_noise, check_type, is_number

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


def circuit_for(k: int) -> PurificationCircuit:
    """The recurrence/pumping circuit consuming ``k`` raw pairs. ``k`` is
    checked before the cache, so no bool, float or unhashable value reaches it."""
    return _circuit_for(check_int(k, "circuit width k", 1, MAX_CIRCUIT_K))


@lru_cache(maxsize=None)
def _circuit_for(k: int) -> PurificationCircuit:
    base = 1
    while base * 2 <= k:
        base *= 2
    tree = _balanced_tree(base)
    for _ in range(k - base):
        tree = (tree, LEAF)
    return PurificationCircuit(k=k, tree=tree)


def _schedule(trees, leaves=(LEAF,)) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """``trees`` as one step schedule over slots.

    Slot i < len(leaves) holds the leaf ``leaves[i]``, by default the one
    raw pair; step i reads the (kept, consumed) slots it names and writes
    slot len(leaves) + i. The steps are the distinct subtrees of ``trees``,
    children first, so trees share theirs. Also returns each tree's root
    slot, in order.
    """
    slots = {leaf: slot for slot, leaf in enumerate(leaves)}
    steps = []

    def place(tree) -> int:
        if tree not in slots:
            kept, consumed = tree
            steps.append((place(kept), place(consumed)))
            slots[tree] = len(slots)
        return slots[tree]

    roots = tuple(place(tree) for tree in trees)
    return tuple(steps), roots


# A schedule's fold is compiled into one straight-line function, its kernel,
# that runs every step with no loop, list or call. Slot i's fidelity, its
# (1 - F) / 3 and its success probability are the kernel's locals f{i}, a{i}
# and prob{i}; only these integer slot numbers are formatted into the source.
# _STEP is the one copy of the purify step's formula. A subtree's success
# probability is prob_kept * prob_cons * p_succ, in that order, so every float
# is the one a walk of its tree gives.
_HEAD = """\
def kernel(leaves, p2, eta):
    # Both CNOTs survive with g2; the two readouts are both right or both
    # wrong with m_eq, and exactly one is wrong with m_x.
    g2 = p2 * p2
    m_eq = eta * eta + (1.0 - eta) * (1.0 - eta)
    m_x = 2.0 * eta * (1.0 - eta)
    half, eighth = (1.0 - g2) * 0.5, (1.0 - g2) * 0.125
"""
# s_even is the true-coincidence probability; the kept pair's phi+ weights in
# the coinciding and anti-coinciding branches are ff + aa and fa + aa.
_STEP = """\
    ff, fa, aa = f{kept} * f{consumed}, f{kept} * a{consumed}, a{kept} * a{consumed}
    s_even = ff + fa + f{consumed} * a{kept} + 5.0 * a{kept} * a{consumed}
    p_succ = g2 * (m_eq * s_even + m_x * (1.0 - s_even)) + half
    f{slot} = (g2 * (m_eq * (ff + aa) + m_x * (fa + aa)) + eighth) / p_succ
    prob{slot} = prob{kept} * prob{consumed} * p_succ
"""


def _compile(steps, roots, n_leaves: int):
    """The kernel of a schedule whose first ``n_leaves`` slots are leaves.

    ``kernel(leaves, p2, eta)`` returns (f_out, p_succ, W) at each root, W
    being fidelity_to_w's (4F - 1) / 3. It checks nothing: ``_fold`` checks
    its inputs.
    The source is registered in ``linecache`` under a name that spells the
    schedule, so tracebacks and ``inspect.getsource`` show its lines; trees
    of at most 8 leaves have finitely many schedules, so those entries stay
    few.
    """
    read = {slot for step in steps for slot in step}
    lines = [_HEAD]
    for slot in range(n_leaves + len(steps)):
        if slot < n_leaves:
            lines.append(f"    f{slot}, prob{slot} = leaves[{slot}], 1.0\n")
        else:
            kept, consumed = steps[slot - n_leaves]
            lines.append(_STEP.format(kept=kept, consumed=consumed, slot=slot))
        if slot in read:
            lines.append(f"    a{slot} = (1.0 - f{slot}) / 3.0\n")
    rows = "".join(f"(f{slot}, prob{slot}, (4.0 * f{slot} - 1.0) / 3.0), " for slot in roots)
    lines.append(f"    return ({rows})\n")
    source = "".join(lines)
    name = f"<entroute.purify kernel: {len(steps)} steps {steps}, roots {roots}, leaves={n_leaves}>"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {}
    exec(compile(source, name, "exec"), namespace)
    return namespace["kernel"]


_STEPS, _ROOTS = _schedule(circuit_for(k).tree for k in range(1, MAX_CIRCUIT_K + 1))
# Built here, not in a cache: emptying the package's caches, as every
# benchmark instance does, must not compile it again.
_STANDARD = _compile(_STEPS, _ROOTS, 1)
# purify_pair's tree: one step over two distinct leaves, the first kept.
_PAIR = ("kept", "consumed")


@lru_cache(maxsize=128)
def _tree_kernel(tree, leaves=(LEAF,)):
    """The kernel of ``tree``'s own schedule over ``leaves``."""
    return _compile(*_schedule((tree,), leaves), len(leaves))


def _fold(kernel, leaves, p2: float, eta: float) -> tuple[tuple[float, float, float], ...]:
    """(f_out, p_succ, W) at each root of ``kernel``'s schedule, slot i
    holding ``leaves[i]``. The noise pair and each leaf raise their owner's
    ValueError; no step of valid inputs leaves [1/4, 1], so none is checked."""
    check_noise(p2, eta)
    for f in leaves:
        check_fidelity(f)
    return kernel(leaves, p2, eta)


def purify_pair(f1: float, f2: float, noise: NoiseParams = PERFECT) -> CircuitOutcome:
    """One two-pair purification step; the first pair is kept.

    Both pairs are Werner states; the step applies bilateral CNOTs (each
    depolarizing with survival probability p2), measures the consumed pair
    with per-measurement flip probability 1 - eta, and keeps the first pair
    when the reported outcomes coincide. The kept state is re-twirled to
    Werner form, so only its fidelity is tracked. This is a one-step
    fold: slot 0 (``f1``) kept, slot 1 (``f2``) consumed.
    """
    check_type(noise, NoiseParams, "noise")
    f_out, p_succ, _ = _fold(_tree_kernel(_PAIR, _PAIR), (f1, f2), noise.p2, noise.eta)[0]
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)


@lru_cache(maxsize=4096, typed=True)
def _evaluate_cached(f_in: float, p2: float, eta: float) -> tuple[tuple, tuple[int, ...]]:
    """(rows, tops) at input ``f_in``. Row k - 1 is (f_out, p_succ, W) of the
    standard width-k circuit: one fold of the 7 shared steps, not the 28 of
    eight separate trees. tops[m - 1] is the best width in 1..m: the highest
    (W, f_out), the smaller width on a tie. No EGR enters, so every segment
    at one fidelity and noise reads the same entry. The cache is typed, so a
    bool misses the entry of 1.0 and is rejected."""
    rows = _fold(_STANDARD, (f_in,), p2, eta)
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
    probability; k = 1 gives (f_in, 1). Every tree runs the kernel of its
    own schedule, cached by tree: this shares the step formula and the trees
    with the optimizer's cached rows, not the rows, so it checks them. A bad
    ``f_in``, a ``circuit`` that is not a ``PurificationCircuit`` or a
    ``noise`` that is not a ``NoiseParams`` raises ValueError.
    """
    tree = check_type(circuit, PurificationCircuit, "circuit").tree
    check_type(noise, NoiseParams, "noise")
    f_out, p_succ, _ = _fold(_tree_kernel(tree), (f_in,), noise.p2, noise.eta)[0]
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)


def post_purification_rate(egr: int, circuit: PurificationCircuit,
                           outcome: CircuitOutcome) -> float:
    """Expected pairs per timestep surviving purification on one segment.

    A width-k circuit consumes k of the egr raw pairs per run, and all runs
    must succeed: the rate is p_succ * floor(egr / k). Without purification
    (k = 1) the raw rate passes through. ``egr`` is an integer, not a bool,
    in 0..2**64: an idle segment rates 0, and netgraph's MAX_EGR caps the
    rest. ``outcome`` is a ``CircuitOutcome`` whose p_succ is a number in
    [0, 1], so no rate is NaN or infinite; the rate checks it, whatever k.
    """
    if not (type(egr) is int and 0 <= egr <= MAX_EGR):
        raise ValueError(f"egr must be an integer in 0..2**64, got {egr!r}")
    k = check_type(circuit, PurificationCircuit, "circuit").k
    if not (type(outcome) is CircuitOutcome and is_number(outcome.p_succ)
            and 0.0 <= outcome.p_succ <= 1.0):
        raise ValueError(f"outcome must be a CircuitOutcome with p_succ in [0, 1], "
                         f"got {outcome!r}")
    return float(egr) if k == 1 else outcome.p_succ * float(egr // k)


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
    check_type(noise, NoiseParams, "noise")
    f_out, p_succ = dmsim.simulate_purify_step(f1, f2, noise.p2, noise.eta)
    return CircuitOutcome(f_out=f_out, p_succ=p_succ)
