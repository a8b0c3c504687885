"""The density-matrix oracle's operators on complex inputs.

Each helper is checked against an explicit construction that shares no code
with it: Kronecker products of identities and the gate, conjugated by a chain
of adjacent SWAPs that brings the gate's qubits to the front.
"""

import itertools

import numpy as np
import pytest

from entroute.dmsim import apply, embed, partial_trace, product_state

N = 4
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _to_front(qubits, n):
    """Permutation operator that moves ``qubits`` (in that order) to the
    first tensor positions, built from adjacent SWAPs."""
    order = list(range(n))
    perm = np.eye(1 << n)
    for pos, q in enumerate(qubits):
        for i in range(order.index(q), pos, -1):
            step = np.kron(np.kron(np.eye(1 << (i - 1)), _SWAP), np.eye(1 << (n - i - 1)))
            perm = step @ perm
            order[i - 1], order[i] = order[i], order[i - 1]
    return perm


def test_embed_matches_the_explicit_construction_for_complex_gates():
    rng = np.random.default_rng(16)
    gate = _random_unitary(rng, 4)
    for qubits in itertools.permutations(range(N), 2):
        perm = _to_front(list(qubits), N)
        explicit = perm.T @ np.kron(gate, np.eye(4)) @ perm
        full = embed(gate, list(qubits), N)
        assert np.iscomplexobj(full)
        assert np.allclose(full, explicit, rtol=0.0, atol=1e-12)
    one = _random_unitary(rng, 2)
    for q in range(N):
        explicit = np.kron(np.kron(np.eye(1 << q), one), np.eye(1 << (N - q - 1)))
        assert np.allclose(embed(one, [q], N), explicit, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("qa", [[0, 1], [2, 0], [3, 1], [1, 2]])
def test_partial_trace_returns_a_complex_factor_of_a_product_state(qa):
    rng = np.random.default_rng(sum(qa))
    a, b = _random_state(rng, 4), _random_state(rng, 4)
    qb = [q for q in range(N) if q not in qa]
    reduced = partial_trace(product_state(a, qa, b, qb, N), qa, N)
    assert np.iscomplexobj(reduced)
    assert np.allclose(reduced, reduced.conj().T, rtol=0.0, atol=1e-12)
    assert np.allclose(reduced, a, rtol=0.0, atol=1e-12)


def test_apply_keeps_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    rho = _random_state(rng, 1 << N)
    for qubits in itertools.permutations(range(N), 2):
        gate = _random_unitary(rng, 4)
        out = apply(rho, gate, list(qubits), N)
        perm = _to_front(list(qubits), N)
        op = perm.T @ np.kron(gate, np.eye(4)) @ perm
        assert np.allclose(out, op @ rho @ op.conj().T, rtol=0.0, atol=1e-12)
        assert np.isclose(np.trace(out), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(out, out.conj().T, rtol=0.0, atol=1e-12)
