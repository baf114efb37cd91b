import math

import numpy as np
import pytest

from etoff import linalg
from etoff.quantum import sample_haar_unitary

from conftest import random_hermitian


def test_eigh_identity():
    w, _ = linalg.eigh(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eigh_diagonal_sorted_ascending():
    w, v = linalg.eigh(np.diag([3.0, -1.0]))
    assert np.allclose(w, [-1.0, 3.0])
    # eigenvectors form a permuted identity
    assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])


def test_eigh_trace_matches_eigenvalue_sum(rng):
    h = random_hermitian(rng, 4)
    w, _ = linalg.eigh(h)
    assert abs(w.sum() - np.trace(h).real) < 1e-9


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.eigh(np.zeros((2, 3)))


def test_eigh_reconstruction_residual(rng):
    for _ in range(200):
        d = int(rng.integers(2, 9))
        h = random_hermitian(rng, d)
        w, v = linalg.eigh(h)
        recon = (v * w) @ v.conj().T
        assert linalg.max_abs(recon - h) <= 1e-9
        assert linalg.max_abs(v.conj().T @ v - np.eye(d)) <= 1e-9


def test_spectral_norm_identity():
    eye = np.eye(5)[None]
    assert linalg.pair_overlaps(eye, eye)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_zero():
    zero = np.zeros((1, 3, 3))
    assert linalg.pair_overlaps(zero, np.eye(3)[None])[0, 0] == 0.0


def test_spectral_norm_rank_one_product():
    # || |a><a| |b><b| || = |<a|b>|; oracle: the explicit inner product
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    pa = np.outer(a, a.conj())[None]
    pb = np.outer(b, b.conj())[None]
    overlap = abs(np.vdot(a, b))
    assert linalg.pair_overlaps(pa, pb)[0, 0] == pytest.approx(overlap, abs=1e-9)
    assert overlap == pytest.approx(0.70710678, abs=1e-8)


def test_trace_norm_values(rng):
    assert linalg.trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-12)
    assert linalg.trace_norm(np.diag([2.0, -3.0])) == pytest.approx(5.0, abs=1e-12)
    u = sample_haar_unitary(3, rng)
    assert linalg.trace_norm(u) == pytest.approx(3.0, abs=1e-9)


def test_unitary_norms_haar(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        u = sample_haar_unitary(d, rng)
        assert linalg.pair_overlaps(u[None], np.eye(d)[None])[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert linalg.trace_norm(u) == pytest.approx(d, abs=1e-9)


def test_partial_trace_entangled_pair():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2)
    state = np.outer(phi, phi.conj())
    reduced = linalg.partial_trace(state, (2, 2), keep="A")
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state(rng):
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    a /= np.trace(a)
    b = random_hermitian(rng, 3)
    b = b @ b.conj().T
    b /= np.trace(b)
    prod = np.kron(a, b)
    assert np.allclose(linalg.partial_trace(prod, (2, 3), keep="A"), a, atol=1e-10)
    assert np.allclose(linalg.partial_trace(prod, (2, 3), keep="B"), b, atol=1e-10)


def test_partial_trace_composition_gives_scalar_trace(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    first = linalg.partial_trace(m, (2, 3), keep="A")
    assert abs(np.trace(first) - np.trace(m)) < 1e-10
    assert abs(np.trace(linalg.partial_trace(m, (2, 3), keep="B")) - np.trace(m)) < 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(5), (2, 3), keep="A")


def test_fidelity_self_is_one(rng):
    h = random_hermitian(rng, 3)
    rho = h @ h.conj().T
    rho /= np.trace(rho)
    assert linalg.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_orthogonal_pure_states():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert linalg.fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_mixed_vs_pure():
    # ||sqrt(I/2) sqrt(|0><0|)||_1^2 = 1/2 by direct singular values
    rho = np.eye(2, dtype=complex) / 2
    omega = np.diag([1.0, 0.0]).astype(complex)
    assert linalg.fidelity(rho, omega) == pytest.approx(0.5, abs=1e-9)


def test_fidelity_symmetric(rng):
    for _ in range(20):
        a = random_hermitian(rng, 3)
        a = a @ a.conj().T
        a /= np.trace(a)
        b = random_hermitian(rng, 3)
        b = b @ b.conj().T
        b /= np.trace(b)
        assert abs(linalg.fidelity(a, b) - linalg.fidelity(b, a)) < 1e-9


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
