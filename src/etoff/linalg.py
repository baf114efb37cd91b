"""Dense complex linear algebra for small Hilbert spaces (d <= ~16).

Everything works on plain numpy arrays of complex dtype, mostly on
stacks of matrices.  The package computes eigenvalues in two places,
both in ``noise_disturbance``: ``np.linalg.eigvalsh`` of a user-supplied
POVM, which its POVM check admits down to -``STRUCT_TOL``, and the signs
of the eigenvalues of each block operator at every support angle of the
two-outcome search, which split the eigenvectors: a closed form on 2 x 2
blocks, ``np.linalg.eigh`` on wider ones.  ``pair_overlaps`` takes
singular values only of products of two projectors of rank two or
more.  Decomposition residuals get the looser ``DECOMP_TOL``.  Small
dimensions keep conditioning benign, so a single pair of module-wide
constants is enough.
"""

from __future__ import annotations

import numpy as np

STRUCT_TOL = 1e-10   # Hermiticity / trace / positivity checks
DECOMP_TOL = 1e-9    # decomposition and reconstruction residuals


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_stack(a, name: str = "stack") -> np.ndarray:
    """Copy to a read-only, finite complex stack of matrices, 3-d, or 4-d for a stack of stacks."""
    s = np.array(a, dtype=complex)
    if s.ndim not in (3, 4):
        raise ValueError(f"{name} must be a stack of matrices, got array of shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    s.flags.writeable = False
    return s


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def max_abs(m) -> float:
    """Largest entrywise modulus; 0 for empty input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def hermitize(m) -> np.ndarray:
    """Hermitian part (m + m†)/2."""
    m = np.asarray(m, dtype=complex)
    return (m + dagger(m)) / 2


def qr_retract(y) -> np.ndarray:
    """Q of y = QR, for a matrix or a stack, phases fixed so that R has a positive diagonal.

    On a square complex Ginibre matrix this draws a Haar-random unitary;
    on a tall matrix it is the QR retraction onto the Stiefel manifold.
    """
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def pair_overlaps(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Table of spectral norms ||p q|| over two stacks of projectors, (..., |P|, |Q|).

    The stacks are (..., |P|, d, d) and (..., |Q|, d, d), their leading
    axes broadcasting, so one call takes a table per pair of stacks.  Where
    p or q has rank at most one, ||p q||**2 = Tr(p q) exactly, and Tr(p q)
    is read as the sum of Re p Re q + Im p Im q over the entries, a sum
    that is the same term by term in either order; its square root,
    clamped at 0, is the norm.  Only pairs of rank at least two, the
    ranks read off the rounded traces, go through the SVD: each product
    is taken in both orders and the larger norm kept.  So swapping the two
    stacks transposes the table exactly.  An SVD that does not converge
    raises numpy's LinAlgError, a ValueError.
    """
    ps, qs = ps[..., :, None, :, :], qs[..., None, :, :, :]
    table = np.sqrt(np.maximum((ps.real * qs.real + ps.imag * qs.imag).sum(axis=(-2, -1)), 0.0))
    ranks = [np.rint(np.trace(s, axis1=-2, axis2=-1).real) for s in (ps, qs)]
    both = (ranks[0] >= 2) & (ranks[1] >= 2)
    if both.any():
        p, q = (np.broadcast_to(s, both.shape + s.shape[-2:])[both] for s in (ps, qs))
        pq, qp = (np.linalg.svd(a @ b, compute_uv=False)[..., 0] for a, b in ((p, q), (q, p)))
        table[both] = np.maximum(pq, qp)
    return table
