"""Observables and instruments as stacked numpy arrays.

Every object holds its matrices in one array: an observable an (n, d, d)
stack of projectors, and an instrument an (R, d_out, d_in) Kraus stack
together with an (R,) index naming the outcome each Kraus operator
belongs to, so that outcomes may have different numbers of Kraus
operators.  (A correction is not an object here: ``noise_disturbance``
keeps it as its re-measurement POVM.)  The structural invariants are
checked once, on construction: projectors must be Hermitian, idempotent,
mutually orthogonal and complete; Kraus sets trace-preserving.  Complete
positivity is automatic from the Kraus form.
The stacks are stored as read-only copies, so nothing downstream needs to
validate them again.  Sampling takes explicit seeds so parallel sweeps can
partition the seed space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DECOMP_TOL, as_matrix, as_stack, dagger, hermitize, max_abs, qr_retract

DEGENERACY_TOL = 1e-6   # projector trace must be this close to an integer


def _first_over(deviation: np.ndarray, tol: float):
    """Index of the first entry of ``deviation`` above ``tol``, or None."""
    over = np.argwhere(deviation > tol)
    return tuple(int(i) for i in over[0]) if len(over) else None


# --- observables ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """Eigenvalue-labelled orthogonal projectors resolving the identity.

    ``projectors[i]`` projects onto the eigenspace of ``eigenvalues[i]``;
    ``degeneracies`` are the projector ranks, read off their traces.
    """

    eigenvalues: tuple[float, ...]
    projectors: np.ndarray
    degeneracies: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        labels = tuple(float(v) for v in self.eigenvalues)
        p = as_stack(self.projectors, "projector stack")
        n, d = p.shape[:2]
        if p.shape[2] != d:
            raise ValueError(f"projectors must be square, got shape {p.shape[1:]}")
        if len(labels) != n:
            raise ValueError(f"{len(labels)} eigenvalue labels for {n} projectors")
        bad = _first_over(np.abs(p - dagger(p)).max(axis=(1, 2)), DECOMP_TOL)
        if bad is not None:
            raise ValueError(f"projector for eigenvalue {labels[bad[0]]} is not Hermitian")
        bad = _first_over(np.abs(p @ p - p).max(axis=(1, 2)), DECOMP_TOL)
        if bad is not None:
            raise ValueError(f"projector for eigenvalue {labels[bad[0]]} is not idempotent")
        traces = np.trace(p, axis1=1, axis2=2).real
        bad = _first_over(np.abs(traces - np.round(traces)), DEGENERACY_TOL)
        if bad is not None:
            raise ValueError(
                f"projector trace {float(traces[bad[0]])!r} for eigenvalue "
                f"{labels[bad[0]]} is not an integer rank"
            )
        if len(set(labels)) != n:
            raise ValueError(f"duplicate eigenvalue label in {labels}")
        overlaps = np.triu(np.abs(p[:, None] @ p[None, :]).max(axis=(2, 3)), k=1)
        bad = _first_over(overlaps, DECOMP_TOL)
        if bad is not None:
            i, k = bad
            raise ValueError(f"projectors for {labels[i]} and {labels[k]} are not orthogonal")
        if max_abs(p.sum(axis=0) - np.eye(d)) > DECOMP_TOL:
            raise ValueError("projectors do not resolve the identity")
        degeneracies = tuple(int(round(t)) for t in traces)
        if sum(degeneracies) != d:
            raise ValueError("degeneracies do not sum to the dimension")
        object.__setattr__(self, "eigenvalues", labels)
        object.__setattr__(self, "projectors", p)
        object.__setattr__(self, "degeneracies", degeneracies)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def nondegenerate(self) -> bool:
        return all(g == 1 for g in self.degeneracies)


def basis_observable(dim: int) -> ProjectiveObservable:
    """Computational-basis observable with eigenvalue labels 0, 1, ..."""
    return observable_from_basis(np.eye(dim, dtype=complex))


def observable_from_basis(columns: np.ndarray) -> ProjectiveObservable:
    """Rank-1 observable from the columns of a unitary, labelled 0, 1, ..."""
    u = as_matrix(columns)
    projectors = np.einsum("ai,bi->iab", u, u.conj())
    return ProjectiveObservable(tuple(float(i) for i in range(u.shape[1])), projectors)


# --- instruments ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuantumInstrument:
    """Outcome-labelled Kraus operators that are jointly trace-preserving.

    ``kraus`` is one (R, dim_out, dim_in) stack and ``outcome[r]`` the
    index into ``labels`` of the outcome Kraus operator r belongs to.
    """

    dim_in: int
    dim_out: int
    labels: tuple[str, ...]
    kraus: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("an instrument needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {list(labels)}")
        k = as_stack(self.kraus, "Kraus stack")
        if k.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(
                f"Kraus shape {k.shape[1:]} does not match ({self.dim_out}, {self.dim_in})"
            )
        res = max_abs((dagger(k) @ k).sum(axis=0) - np.eye(self.dim_in))
        if res > DECOMP_TOL:
            raise ValueError(
                f"instrument completeness residual {res:.3e} exceeds {DECOMP_TOL:.0e}"
            )
        idx = np.array(self.outcome)
        if (
            idx.shape != (len(k),)
            or idx.dtype.kind not in "iu"
            or np.any(idx < 0)
            or np.any(idx >= len(labels))
        ):
            raise ValueError(
                f"the outcome index must give each of the {len(k)} Kraus operators "
                f"one of the {len(labels)} outcomes"
            )
        idx.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kraus", k)
        object.__setattr__(self, "outcome", idx)

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)


def luders_instrument(obs: ProjectiveObservable) -> QuantumInstrument:
    """Projective (Lueders) measurement of an observable; labels m0, m1, ..."""
    n = len(obs.eigenvalues)
    labels = tuple(f"m{i}" for i in range(n))
    return QuantumInstrument(obs.dim, obs.dim, labels, obs.projectors, np.arange(n))


def trivial_instrument(dim: int) -> QuantumInstrument:
    """Single-outcome identity instrument: no information, no disturbance."""
    return QuantumInstrument(dim, dim, ("m0",), np.eye(dim)[None], np.zeros(1, dtype=int))


# --- acting on states --------------------------------------------------------


def flag_apply(inst: QuantumInstrument, op) -> np.ndarray:
    """Blocks Phi^(m)(op), the sum of K_r op K_r† over the Kraus operators r of outcome m.

    Batched over leading axes of ``op``: (..., n_outcomes, d_out, d_out).
    They are the diagonal blocks of the flagged evolution
    sum_m Phi^(m)(op) ⊗ |m><m|, which has no other entries; the trace of
    block m is the outcome probability p(m).
    """
    terms = inst.kraus @ np.asarray(op)[..., None, :, :] @ dagger(inst.kraus)
    by_outcome = inst.outcome == np.arange(inst.n_outcomes)[:, None]
    flat = by_outcome @ terms.reshape(*terms.shape[:-2], inst.dim_out ** 2)
    return flat.reshape(*flat.shape[:-1], inst.dim_out, inst.dim_out)


# --- sampling -----------------------------------------------------------------


def sample_haar_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    return qr_retract(z)


def sample_random_observable(dim: int, degeneracies=None, seed=None) -> ProjectiveObservable:
    """Haar-random observable with the given degeneracy profile (default rank-1)."""
    if degeneracies is None:
        degeneracies = (1,) * dim
    degeneracies = tuple(int(g) for g in degeneracies)
    if any(g < 1 for g in degeneracies) or sum(degeneracies) != dim:
        raise ValueError(f"degeneracy profile {degeneracies} does not fit dimension {dim}")
    blocks = np.split(sample_haar_unitary(dim, seed), np.cumsum(degeneracies)[:-1], axis=1)
    projectors = [hermitize(block @ block.conj().T) for block in blocks]
    return ProjectiveObservable(
        tuple(float(i) for i in range(len(degeneracies))), np.stack(projectors)
    )


def sample_random_instrument(
    dim_in: int, dim_out: int, n_outcomes: int, kraus_per_outcome: int, seed=None
) -> QuantumInstrument:
    """Generic random instrument from a Haar-random isometry.

    The isometry maps the input space into output ⊗ environment ⊗ outcome
    register; splitting by outcome and tracing the environment gives
    ``kraus_per_outcome`` Kraus operators per outcome, with completeness
    holding exactly up to roundoff.
    """
    if min(dim_in, dim_out, n_outcomes, kraus_per_outcome) < 1:
        raise ValueError("all instrument dimensions must be positive")
    total = n_outcomes * kraus_per_outcome * dim_out
    if total < dim_in:
        raise ValueError(
            f"output ⊗ environment ⊗ register dimension {total} cannot embed input {dim_in}"
        )
    u = sample_haar_unitary(total, seed)
    v = u[:, :dim_in]
    # row index convention: ((b * kraus_per_outcome + e) * n_outcomes + m)
    v = v.reshape(dim_out, kraus_per_outcome, n_outcomes, dim_in)
    # Kraus operator m * kraus_per_outcome + e is v[:, e, m, :]
    kraus = v.transpose(2, 1, 0, 3).reshape(-1, dim_out, dim_in)
    labels = tuple(f"m{m}" for m in range(n_outcomes))
    outcome = np.repeat(np.arange(n_outcomes), kraus_per_outcome)
    return QuantumInstrument(dim_in, dim_out, labels, kraus, outcome)


# --- JSON (de)serialization ---------------------------------------------------
#
# Complex entries are stored as [re, im] pairs; matrices as row-major
# nested lists.  Round trips are lossless at double precision.


def json_entry(data, key: str, kind, where: str):
    """``data[key]``, checked to be of ``kind`` (a type, or a tuple for a number), or ValueError."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{where} has no {key!r} entry")
    if isinstance(data[key], bool) or not isinstance(data[key], kind):
        name = getattr(kind, "__name__", "number")
        raise ValueError(f"{where}: {key!r} must be of type {name}, got {data[key]!r:.40}")
    return data[key]


def matrix_to_json(m) -> list:
    m = as_matrix(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except TypeError as exc:  # an entry that is no number, such as an object
        raise ValueError(f"matrix JSON entry is not a number: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def observable_to_json(obs: ProjectiveObservable) -> dict:
    return {
        "dim": obs.dim,
        "branches": [
            {"eigenvalue": v, "projector": matrix_to_json(p)}
            for v, p in zip(obs.eigenvalues, obs.projectors)
        ],
    }


def observable_from_json(data: dict) -> ProjectiveObservable:
    branches = json_entry(data, "branches", list, "observable")
    where = [f"observable branch {i}" for i in range(len(branches))]
    obs = ProjectiveObservable(
        tuple(json_entry(b, "eigenvalue", (int, float), w) for b, w in zip(branches, where)),
        np.stack([matrix_from_json(json_entry(b, "projector", list, w))
                  for b, w in zip(branches, where)]),
    )
    if obs.dim != json_entry(data, "dim", int, "observable"):
        raise ValueError(
            f"projector shape {obs.projectors.shape[1:]} does not match dim {data['dim']}"
        )
    return obs


def instrument_to_json(inst: QuantumInstrument) -> dict:
    return {
        "dim_in": inst.dim_in,
        "dim_out": inst.dim_out,
        "branches": [
            {
                "label": label,
                "kraus": [matrix_to_json(k) for k in inst.kraus[inst.outcome == m]],
            }
            for m, label in enumerate(inst.labels)
        ],
    }


def instrument_from_json(data: dict) -> QuantumInstrument:
    branches = json_entry(data, "branches", list, "instrument")
    where = [f"instrument branch {i}" for i in range(len(branches))]
    sets = [json_entry(b, "kraus", list, w) for b, w in zip(branches, where)]
    outcome = np.repeat(np.arange(len(branches)), [len(k) for k in sets])
    return QuantumInstrument(
        json_entry(data, "dim_in", int, "instrument"),
        json_entry(data, "dim_out", int, "instrument"),
        tuple(json_entry(b, "label", str, w) for b, w in zip(branches, where)),
        np.array([matrix_from_json(k) for ks in sets for k in ks]),
        outcome,
    )
