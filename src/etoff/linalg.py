"""Dense complex linear algebra for small Hilbert spaces (d <= ~16).

Everything works on plain numpy arrays of complex dtype, mostly on
stacks of matrices.  No eigendecomposition wrapper is kept here: the
only eigenvalues the package computes are ``np.linalg.eigvalsh`` of a
user-supplied POVM, checked by ``clip_spectrum``.  Roundoff-negative
spectra are clipped against ``STRUCT_TOL``; decomposition residuals get
the looser ``DECOMP_TOL``.  Small dimensions keep conditioning benign,
so a single pair of module-wide constants is enough.
"""

from __future__ import annotations

import numpy as np

STRUCT_TOL = 1e-10   # Hermiticity / trace / positivity checks
DECOMP_TOL = 1e-9    # decomposition and reconstruction residuals


class NumericalFailure(RuntimeError):
    """A dense matrix decomposition did not converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_stack(a, name: str = "stack") -> np.ndarray:
    """Copy to a read-only, finite 3-d complex array of matrices."""
    s = np.array(a, dtype=complex)
    if s.ndim != 3:
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


def clip_spectrum(w, tol: float = STRUCT_TOL) -> np.ndarray:
    """Zero out roundoff-negative eigenvalues in (-tol, 0); reject worse ones."""
    w = np.asarray(w, dtype=float)
    if w.min() < -tol:
        raise ValueError(f"eigenvalue {w.min():.3e} below -{tol:.1e}, not a roundoff artifact")
    return np.clip(w, 0.0, None)


def qr_retract(y) -> np.ndarray:
    """Q of y = QR, for a matrix or a stack, phases fixed so that R has a positive diagonal.

    On a square complex Ginibre matrix this draws a Haar-random unitary;
    on a tall matrix it is the QR retraction onto the Stiefel manifold.
    """
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def pair_overlaps(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Table of spectral norms ||p q|| over two stacks of projectors.

    Each pair is multiplied in both orders and the larger norm kept, so
    swapping the two stacks transposes the table exactly.
    """
    try:
        pq = np.linalg.svd(ps[:, None] @ qs[None, :], compute_uv=False)[..., 0]
        qp = np.linalg.svd(qs[None, :] @ ps[:, None], compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"svd did not converge: {exc}") from exc
    return np.maximum(pq, qp)

