import math

import numpy as np
import pytest

from etoff import linalg
from etoff.quantum import sample_haar_unitary

from conftest import random_hermitian


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


def test_unitary_norms_haar(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        u = sample_haar_unitary(d, rng)
        assert linalg.pair_overlaps(u[None], np.eye(d)[None])[0, 0] == pytest.approx(1.0, abs=1e-9)


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


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
