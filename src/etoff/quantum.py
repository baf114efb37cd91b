"""Observables and instruments as stacked numpy arrays.

Every object holds its matrices in one array: an observable an (n, d, d)
stack of projectors, and an instrument an (R, d_out, d_in) Kraus stack
together with an (R,) index naming the outcome each Kraus operator
belongs to, so that outcomes may have different numbers of Kraus
operators.  A leading axis, (k, n, d, d) or (k, R, d_out, d_in), makes
the object a stack of k instances sharing labels, outcome index and
degeneracy profile; ``obj[i]`` is instance i, and ``obj[None]`` an
instance as a stack of one.  (A correction is not an object here:
``noise_disturbance`` keeps it as its re-measurement POVM.)  The
invariants are checked once, on construction, over the whole stack:
projectors must be Hermitian, idempotent, mutually orthogonal and
complete; Kraus sets trace-preserving (complete positivity is automatic).
The arrays are stored as read-only copies, so nothing downstream,
indexing included, validates them again.  Sampling takes a list of
generators and returns one stack, so parallel sweeps can split seeds.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DECOMP_TOL, as_matrix, as_stack, dagger, hermitize, max_abs, qr_retract

DEGENERACY_TOL = 1e-6   # projector trace must be this close to an integer


def _first_over(deviation: np.ndarray, tol: float):
    """Index of the first entry of ``deviation`` above ``tol``, or None."""
    over = np.argwhere(deviation > tol)
    return tuple(int(i) for i in over[0]) if len(over) else None


def _indexed(obj, name: str, index):
    """``obj`` with its array ``name`` indexed on the stack axis, validated no further."""
    if (index is None) == (getattr(obj, name).ndim == 4):
        # TypeError, not IndexError, so that iterating over an instance fails instead of ending
        raise TypeError("index a stack by instance, or an instance by None")
    out = copy.copy(obj)
    object.__setattr__(out, name, getattr(obj, name)[index])
    return out


# --- observables ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """Eigenvalue-labelled orthogonal projectors resolving the identity, or a stack of such.

    ``projectors[..., i, :, :]`` projects onto the eigenspace of ``eigenvalues[i]``;
    ``degeneracies``, the projector ranks read off their traces, are shared by a stack.
    """

    eigenvalues: tuple[float, ...]
    projectors: np.ndarray
    degeneracies: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        labels = tuple(float(v) for v in self.eigenvalues)
        p = as_stack(self.projectors, "projector stack")
        q = p.reshape(-1, *p.shape[-3:])  # (instances, n, d, d)
        n, d = q.shape[1:3]
        if q.shape[3] != d:
            raise ValueError(f"projectors must be square, got shape {p.shape[-2:]}")
        if len(labels) != n:
            raise ValueError(f"{len(labels)} eigenvalue labels for {n} projectors")
        bad = _first_over(np.abs(q - dagger(q)).max(axis=(2, 3)), DECOMP_TOL)
        if bad is not None:
            raise ValueError(f"projector for eigenvalue {labels[bad[1]]} is not Hermitian")
        bad = _first_over(np.abs(q @ q - q).max(axis=(2, 3)), DECOMP_TOL)
        if bad is not None:
            raise ValueError(f"projector for eigenvalue {labels[bad[1]]} is not idempotent")
        traces = np.trace(q, axis1=2, axis2=3).real
        # an idempotent Hermitian within DECOMP_TOL has a trace within about d**2 DECOMP_TOL of
        # an integer, so this fires only at d of about 32 and more
        bad = _first_over(np.abs(traces - np.round(traces)), DEGENERACY_TOL)
        if bad is not None:
            raise ValueError(f"projector trace {float(traces[bad])!r} for eigenvalue "
                             f"{labels[bad[1]]} is not an integer rank")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate eigenvalue label in {labels}")
        overlaps = np.triu(np.abs(q[:, :, None] @ q[:, None]).max(axis=(3, 4)), k=1)
        bad = _first_over(overlaps, DECOMP_TOL)
        if bad is not None:
            _, i, k = bad
            raise ValueError(f"projectors for {labels[i]} and {labels[k]} are not orthogonal")
        if max_abs(q.sum(axis=1) - np.eye(d)) > DECOMP_TOL:
            raise ValueError("projectors do not resolve the identity")
        profiles = sorted(set(map(tuple, np.round(traces).astype(int).tolist())))
        if len(profiles) > 1:
            raise ValueError(f"a stack's observables differ in degeneracy profile: {profiles}")
        object.__setattr__(self, "eigenvalues", labels)
        object.__setattr__(self, "projectors", p)
        object.__setattr__(self, "degeneracies", profiles[0])

    def __getitem__(self, index) -> ProjectiveObservable:
        """Observable ``index`` of a stack, or with ``None`` this observable as a stack of one."""
        return _indexed(self, "projectors", index)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

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
    """Outcome-labelled Kraus operators that are jointly trace-preserving, or a stack of such.

    ``kraus`` is one (R, dim_out, dim_in) stack, or (k, R, dim_out, dim_in), and
    ``outcome[r]`` the index into ``labels`` of the outcome Kraus operator r belongs to.
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
        if k.shape[-2:] != (self.dim_out, self.dim_in):
            raise ValueError(
                f"Kraus shape {k.shape[-2:]} does not match ({self.dim_out}, {self.dim_in})"
            )
        res = max_abs((dagger(k) @ k).sum(axis=-3) - np.eye(self.dim_in))
        if res > DECOMP_TOL:
            raise ValueError(
                f"instrument completeness residual {res:.3e} exceeds {DECOMP_TOL:.0e}"
            )
        idx = np.array(self.outcome)
        if (
            idx.shape != k.shape[-3:-2]
            or idx.dtype.kind not in "iu"
            or np.any(idx < 0)
            or np.any(idx >= len(labels))
        ):
            raise ValueError(f"the outcome index must give each of the {k.shape[-3]} Kraus "
                             f"operators one of the {len(labels)} outcomes")
        idx.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kraus", k)
        object.__setattr__(self, "outcome", idx)

    def __getitem__(self, index) -> QuantumInstrument:
        """Instrument ``index`` of a stack, or with ``None`` this instrument as a stack of one."""
        return _indexed(self, "kraus", index)

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    @property
    def by_outcome(self) -> np.ndarray:
        """(n_outcomes, R) mask, True where Kraus operator r belongs to outcome m."""
        return self.outcome == np.arange(self.n_outcomes)[:, None]


def luders_instrument(obs: ProjectiveObservable) -> QuantumInstrument:
    """Projective (Lueders) measurement of an observable; labels m0, m1, ..."""
    n = len(obs.eigenvalues)
    labels = tuple(f"m{i}" for i in range(n))
    return QuantumInstrument(obs.dim, obs.dim, labels, obs.projectors, np.arange(n))


def trivial_instrument(dim: int) -> QuantumInstrument:
    """Single-outcome identity instrument: no information, no disturbance."""
    return QuantumInstrument(dim, dim, ("m0",), np.eye(dim)[None], np.zeros(1, dtype=int))


# --- acting on states --------------------------------------------------------


def flag_apply(kraus: np.ndarray, by_outcome: np.ndarray, op) -> np.ndarray:
    """Blocks Phi^(m)(op), the sum of K_r op K_r† over the Kraus operators r of outcome m.

    ``kraus`` is an instrument's (R, d_out, d_in) stack, or a stack of
    them with leading axes broadcasting against those of ``op``, sharing
    one ``QuantumInstrument.by_outcome`` mask; the result is (...,
    n_outcomes, d_out, d_out).  They are the diagonal blocks of the
    flagged evolution sum_m Phi^(m)(op) ⊗ |m><m|, which has no other
    entries; the trace of block m is the outcome probability p(m).
    """
    terms = kraus @ np.asarray(op)[..., None, :, :] @ dagger(kraus)
    flat = by_outcome @ terms.reshape(*terms.shape[:-2], -1)
    return flat.reshape(*flat.shape[:-1], *terms.shape[-2:])


# --- sampling -----------------------------------------------------------------


def sample_haar_isometries(dim: int, cols: int, rngs) -> np.ndarray:
    """The first ``cols`` columns of a Haar-random dim × dim unitary per generator, stacked.

    Each generator draws the whole complex Ginibre matrix in one call,
    real parts then imaginary parts, so it moves on as for the full
    unitary, but complex entries are formed, and one QR call taken, for
    the kept columns only.  In exact arithmetic they are the full Q's
    first columns; on a large matrix LAPACK may round them differently in
    the last place.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    g = np.array([rng.standard_normal((2, dim, dim))[..., :cols] for rng in rngs])
    return qr_retract((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2))


def sample_haar_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    return sample_haar_isometries(dim, dim, [np.random.default_rng(seed)])[0]


def sample_random_observables(dim: int, degeneracies, rngs) -> ProjectiveObservable:
    """A stack of Haar-random observables, one per generator, of one profile (default rank-1).

    One QR call takes every generator's unitary, and one matrix product
    per block of the profile the projectors of the whole stack.
    """
    if degeneracies is None:
        degeneracies = (1,) * dim
    degeneracies = tuple(int(g) for g in degeneracies)
    if any(g < 1 for g in degeneracies) or sum(degeneracies) != dim:
        raise ValueError(f"degeneracy profile {degeneracies} does not fit dimension {dim}")
    u = sample_haar_isometries(dim, dim, rngs)
    blocks = np.split(u, np.cumsum(degeneracies)[:-1], axis=-1)
    projectors = np.stack([hermitize(block @ dagger(block)) for block in blocks], axis=1)
    labels = tuple(float(i) for i in range(len(degeneracies)))
    return ProjectiveObservable(labels, projectors)


def sample_random_observable(dim: int, degeneracies=None, seed=None) -> ProjectiveObservable:
    """``sample_random_observables`` for the one generator of ``seed``."""
    return sample_random_observables(dim, degeneracies, [np.random.default_rng(seed)])[0]


def sample_random_instruments(
    dim_in: int, dim_out: int, n_outcomes: int, kraus_per_outcome: int, rngs
) -> QuantumInstrument:
    """A stack of generic random instruments, one per generator, each from a Haar-random isometry.

    The isometry maps the input space into output ⊗ environment ⊗ outcome
    register; splitting by outcome and tracing the environment gives
    ``kraus_per_outcome`` Kraus operators per outcome, with completeness
    holding exactly up to roundoff.  The isometries are sampled as one
    stack (``sample_haar_isometries``).
    """
    if min(dim_in, dim_out, n_outcomes, kraus_per_outcome) < 1:
        raise ValueError("all instrument dimensions must be positive")
    total = n_outcomes * kraus_per_outcome * dim_out
    if total < dim_in:
        raise ValueError(
            f"output ⊗ environment ⊗ register dimension {total} cannot embed input {dim_in}"
        )
    v = sample_haar_isometries(total, dim_in, rngs)
    # row index convention: ((b * kraus_per_outcome + e) * n_outcomes + m)
    v = v.reshape(-1, dim_out, kraus_per_outcome, n_outcomes, dim_in)
    # Kraus operator m * kraus_per_outcome + e is v[:, e, m, :]
    kraus = v.transpose(0, 3, 2, 1, 4).reshape(len(v), -1, dim_out, dim_in)
    labels = tuple(f"m{m}" for m in range(n_outcomes))
    outcome = np.repeat(np.arange(n_outcomes), kraus_per_outcome)
    return QuantumInstrument(dim_in, dim_out, labels, kraus, outcome)


def sample_random_instrument(
    dim_in: int, dim_out: int, n_outcomes: int, kraus_per_outcome: int, seed=None
) -> QuantumInstrument:
    """``sample_random_instruments`` for the one generator of ``seed``."""
    rng = np.random.default_rng(seed)
    return sample_random_instruments(dim_in, dim_out, n_outcomes, kraus_per_outcome, [rng])[0]


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
    # every JSON matrix is a projector or a Kraus operator, of norm at most 1, and so is each
    # of its entries; checked before any arithmetic, which NaN, Inf and 1e308 upset
    if not np.all(np.hypot(arr[..., 0], arr[..., 1]) <= 1.0 + DECOMP_TOL):
        raise ValueError("matrix JSON has NaN or Inf entries, or entries above 1 in modulus, "
                         "which no projector or Kraus operator has")
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
