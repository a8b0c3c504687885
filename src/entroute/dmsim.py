"""Dense density-matrix simulation of noisy purification and swapping steps.

Ground-truth validator for the analytic Werner-state formulas: four-qubit
joint states are tracked as explicit 16x16 matrices, two-qubit gates
depolarize the qubits they act on with probability 1 - p2, and each
measurement misreports its outcome with probability 1 - eta.
"""

from __future__ import annotations

import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)
PHI_PLUS = np.array([_SQ2, 0.0, 0.0, _SQ2])
PHI_MINUS = np.array([_SQ2, 0.0, 0.0, -_SQ2])
PSI_PLUS = np.array([0.0, _SQ2, _SQ2, 0.0])
PSI_MINUS = np.array([0.0, _SQ2, -_SQ2, 0.0])

_CNOT = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])
_HADAMARD = _SQ2 * np.array([[1.0, 1.0], [1.0, -1.0]])
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def werner_dm(f: float) -> np.ndarray:
    """4x4 Werner density matrix with fidelity ``f`` to the phi+ Bell state."""
    rho = f * np.outer(PHI_PLUS, PHI_PLUS)
    for bell in (PHI_MINUS, PSI_PLUS, PSI_MINUS):
        rho += (1.0 - f) / 3.0 * np.outer(bell, bell)
    return rho


def partial_trace(rho: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (kept order preserved)."""
    traced = [q for q in range(n) if q not in keep]
    order = list(keep) + traced
    tensor = rho.reshape([2] * (2 * n)).transpose(order + [n + q for q in order])
    dim_keep, dim_traced = 1 << len(keep), 1 << len(traced)
    return np.einsum("ajbj->ab", tensor.reshape(dim_keep, dim_traced, dim_keep, dim_traced))


def _reorder(rho: np.ndarray, current_order: list[int], n: int) -> np.ndarray:
    """Permute qubit axes so that qubit q sits at tensor position q."""
    axes = [current_order.index(q) for q in range(n)]
    tensor = rho.reshape([2] * (2 * n))
    tensor = tensor.transpose(axes + [n + a for a in axes])
    return tensor.reshape(1 << n, 1 << n)


def embed(gate: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """Embed an operator acting on ``qubits`` (in that order) into an n-qubit operator."""
    rest = [q for q in range(n) if q not in qubits]
    return _reorder(np.kron(gate, np.eye(1 << len(rest))), list(qubits) + rest, n)


def apply(rho: np.ndarray, gate: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """Act with a real or complex ``gate`` on ``qubits``: op rho op^dagger."""
    op = embed(gate, qubits, n)
    return op @ rho @ op.conj().T


def product_state(rho_a: np.ndarray, qubits_a: list[int], rho_b: np.ndarray,
                  qubits_b: list[int], n: int) -> np.ndarray:
    """Joint state of two density matrices placed on disjoint qubit sets."""
    big = np.kron(rho_a, rho_b)
    return _reorder(big, qubits_a + qubits_b, n)


def depolarize_pair(rho: np.ndarray, q1: int, q2: int, p2: float, n: int) -> np.ndarray:
    """Two-qubit depolarizing channel: with probability 1 - p2 the state of
    (q1, q2) is replaced by the maximally mixed state."""
    if p2 >= 1.0:
        return rho
    keep = [q for q in range(n) if q not in (q1, q2)]
    reduced = partial_trace(rho, keep, n)
    mixed = np.kron(reduced, np.eye(4) / 4.0)
    mixed = _reorder(mixed, keep + [q1, q2], n)
    return p2 * rho + (1.0 - p2) * mixed


def project_qubit(rho: np.ndarray, q: int, value: int, n: int) -> np.ndarray:
    """Project qubit ``q`` onto |value> and remove it (unnormalized result)."""
    tensor = rho.reshape([2] * (2 * n)).take(value, axis=q).take(value, axis=n - 1 + q)
    return tensor.reshape(1 << (n - 1), 1 << (n - 1))


def simulate_purify_step(f1: float, f2: float, p2: float = 1.0,
                         eta: float = 1.0) -> tuple[float, float]:
    """Simulate one two-pair purification step on Werner inputs.

    Pair 1 (kept) and pair 2 (measured) start as explicit Werner states;
    both parties apply a CNOT from their half of pair 1 onto their half of
    pair 2, each CNOT depolarizing with survival probability p2; both halves
    of pair 2 are then measured with per-measurement flip probability
    1 - eta, and the step succeeds when the reported outcomes coincide.
    Returns (fidelity of the kept pair after twirling, success probability).
    """
    n = 4  # qubit order: A1, A2, B1, B2; pair 1 = (0, 2), pair 2 = (1, 3)
    rho = product_state(werner_dm(f1), [0, 2], werner_dm(f2), [1, 3], n)

    rho = apply(depolarize_pair(rho, 0, 1, p2, n), _CNOT, [0, 1], n)
    rho = apply(depolarize_pair(rho, 2, 3, p2, n), _CNOT, [2, 3], n)

    coincide_same = eta * eta + (1.0 - eta) * (1.0 - eta)
    coincide_diff = 2.0 * eta * (1.0 - eta)
    kept = np.zeros((4, 4))
    for z_a in (0, 1):
        for z_b in (0, 1):
            weight = coincide_same if z_a == z_b else coincide_diff
            sub = project_qubit(rho, 3, z_b, n)     # drop B2 -> (A1, A2, B1)
            sub = project_qubit(sub, 1, z_a, n - 1)  # drop A2 -> (A1, B1)
            kept += weight * sub
    p_succ = float(np.trace(kept))
    f_out = float(PHI_PLUS @ (kept / p_succ) @ PHI_PLUS)
    return f_out, p_succ


def simulate_swap_step(f1: float, f2: float, p2: float = 1.0,
                       eta: float = 1.0) -> float:
    """Simulate one entanglement swap joining two Werner pairs.

    The middle node holds one half of each pair and performs a Bell-state
    measurement (CNOT with survival probability p2, then Hadamard, then two
    measurements each misreporting with probability 1 - eta); the far node
    applies the Pauli correction selected by the reported outcome. Returns
    the fidelity of the resulting pair after twirling (swaps always succeed).
    """
    n = 4  # qubit order: A, B1, B2, C; pairs (0, 1) and (2, 3); BSM on (1, 2)
    rho = product_state(werner_dm(f1), [0, 1], werner_dm(f2), [2, 3], n)

    rho = apply(depolarize_pair(rho, 1, 2, p2, n), _CNOT, [1, 2], n)
    rho = apply(rho, _HADAMARD, [1], n)

    corrections = {}
    for r1 in (0, 1):
        for r2 in (0, 1):
            pauli = np.eye(2)
            if r2:
                pauli = _PAULI_X @ pauli
            if r1:
                pauli = _PAULI_Z @ pauli
            corrections[r1, r2] = np.kron(np.eye(2), pauli)  # acts on C

    out = np.zeros((4, 4))
    for a1 in (0, 1):  # actual outcomes: qubit 1 (phase bit), qubit 2 (parity bit)
        for a2 in (0, 1):
            sub = project_qubit(rho, 2, a2, n)       # drop B2 -> (A, B1, C)
            sub = project_qubit(sub, 1, a1, n - 1)   # drop B1 -> (A, C)
            for e1 in (0, 1):
                for e2 in (0, 1):
                    p_report = (eta if e1 == 0 else 1.0 - eta) * \
                               (eta if e2 == 0 else 1.0 - eta)
                    corr = corrections[a1 ^ e1, a2 ^ e2]
                    out += p_report * (corr @ sub @ corr.T)
    return float(PHI_PLUS @ out @ PHI_PLUS)
