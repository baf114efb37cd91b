import math

import numpy as np
import pytest

from etoff import linalg
from etoff.quantum import sample_haar_unitary


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


def random_projectors(d, rng, draws):
    """(draws, d + 1, d, d): per draw, a random projector of each rank 0, 1, ..., d."""
    u = np.array([sample_haar_unitary(d, rng) for _ in range(draws * (d + 1))])
    u = u.reshape(draws, d + 1, d, d) * (np.arange(d) < np.arange(d + 1)[:, None])[:, None, :]
    return u @ linalg.dagger(u)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pair_overlaps_match_an_explicit_svd_at_every_rank_pair(d, rng):
    # rank 0 and rank d are the zero and identity projectors; the square root of the trace
    # serves every pair with a rank at most one, the SVD the others, and neither may move a
    # norm beyond roundoff of the explicit two-order SVD, nor break the exact swap symmetry
    ps, qs = random_projectors(d, rng, 6), random_projectors(d, rng, 6)
    table = linalg.pair_overlaps(ps, qs)
    pq = np.linalg.svd(ps[:, :, None] @ qs[:, None], compute_uv=False)[..., 0]
    qp = np.linalg.svd(qs[:, None] @ ps[:, :, None], compute_uv=False)[..., 0]
    assert table.shape == (6, d + 1, d + 1)
    assert np.abs(table - np.maximum(pq, qp)).max() <= 1e-15
    assert np.array_equal(table, linalg.pair_overlaps(qs, ps).swapaxes(-1, -2))
    assert np.all(table[:, 0] == 0.0) and np.all(table[:, :, 0] == 0.0)


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"expected a matrix, got array of shape \(1, 2, 2\)"):
        linalg.as_matrix(np.eye(2)[None])


def test_as_stack_rejects_a_matrix_and_inf():
    with pytest.raises(ValueError, match=r"POVM must be a stack of matrices, got array of shape"):
        linalg.as_stack(np.eye(2), "POVM")
    with pytest.raises(ValueError, match="POVM contains NaN or Inf entries"):
        linalg.as_stack(np.array([[[np.inf, 0.0], [0.0, 1.0]]]), "POVM")
