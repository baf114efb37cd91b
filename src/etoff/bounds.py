"""Overlap characteristic, entropic uncertainty bounds, and trade-off
certificates.

The overlap characteristic of two observables is the largest spectral
norm among products of their eigenprojectors; for non-degenerate pairs
this is the maximal eigenstate overlap, ranging between d**-1/2 and 1.
Two families of state-independent lower bounds on entropy sums are
provided: a minimised two-parameter bound, and Maassen-Uffink-type bounds
under the conjugacy constraint 1/alpha + 1/beta = 2.  The minimised bound
sums the entropies of two parametric distributions, each a value
repeated n times plus a remainder; they go through the column kernel of
``entropy`` as 2-row columns with multiplicities, so no entropy formula
is written out here, and a whole grid of orders is minimised at once.
Certificates combine a noise value, a (one-sided) disturbance value and
the applicable bound into a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyOrder, _column_entropies, alpha_log
from .linalg import pair_overlaps
from .noise_disturbance import CorrectionSearchResult, SearchConfig, disturbance, noise
from .quantum import ProjectiveObservable, QuantumInstrument

MARGIN_SLACK = 1e-7

RELATIONS = ("Prop1", "Prop2", "Prop3", "Binary")
_CONSTRAINT_TOL = 1e-9


class AdmissibilityError(ValueError):
    """Relation requested outside its admissible (alpha, beta, d) region."""


class ConstraintViolation(ValueError):
    """The conjugacy constraint 1/alpha + 1/beta = 2 is not satisfied."""


@dataclass(frozen=True, eq=False)
class OverlapCharacteristic:
    """Largest projector-product spectral norm, its angle, and the full table."""

    c: float
    eta: float
    norms: np.ndarray
    x_labels: tuple
    z_labels: tuple

    def __post_init__(self):
        if abs(self.eta - math.acos(self.c)) > 1e-12:
            raise ValueError("eta must equal arccos(c)")


@dataclass(frozen=True)
class BoundValue:
    """One evaluated lower bound with its parameters."""

    bound_id: str
    value: float
    alpha: float
    beta: float
    c: float
    mu: float | None = None
    argmin_theta: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class TradeoffCertificate:
    """Record of one noise + disturbance >= bound check.

    The disturbance entry is the best value found by the correction
    search, hence an upper bound on the true disturbance.  A margin below
    zero therefore refutes the relation for this instance, but a
    nonnegative margin does not certify it: that needs a lower bound on
    the disturbance (ROADMAP direction 1).  ``passed`` records only
    noise + upper disturbance >= bound.  ``best_candidate`` names the
    correction that gave the disturbance value: ``discard_flag``,
    ``reprepare`` or ``parametrized_restart_<r>``.
    """

    relation: str
    dim: int
    alpha: float
    beta: float
    family: str
    c: float
    noise: float
    disturbance: float
    bound: BoundValue
    margin: float
    passed: bool
    disturbance_is_upper_bound: bool = True
    seed: int | None = None
    restarts: int = 0
    iterations: int = 0
    converged: bool = True
    best_candidate: str = ""

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "dim": self.dim,
            "alpha": self.alpha,
            "beta": self.beta,
            "family": self.family,
            "c": self.c,
            "noise": self.noise,
            "disturbance": self.disturbance,
            "disturbance_is_upper_bound": self.disturbance_is_upper_bound,
            "bound": {
                "id": self.bound.bound_id,
                "value": self.bound.value,
                "mu": self.bound.mu,
                "argmin_theta": self.bound.argmin_theta,
            },
            "margin": self.margin,
            "passed": self.passed,
            "seed": self.seed,
            "search": {
                "restarts": self.restarts,
                "iterations": self.iterations,
                "converged": self.converged,
                "best_candidate": self.best_candidate,
            },
        }

    CSV_HEADER = "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"

    def to_csv_row(self) -> str:
        numbers = (self.alpha, self.beta, self.c, self.noise, self.disturbance,
                   self.bound.value, self.margin)
        seed = "" if self.seed is None else str(self.seed)
        return ",".join([self.relation, str(self.dim), *map("{:.9g}".format, numbers),
                         str(self.passed).lower(), seed])


# --- overlap characteristic ----------------------------------------------------


def overlap(x_obs: ProjectiveObservable, z_obs: ProjectiveObservable) -> OverlapCharacteristic:
    """Overlap characteristic c and angle eta = arccos(c) of two observables.

    Each table entry is the spectral norm of a projector product; it is
    evaluated in both orders and maximised, so swapping the observables
    returns exactly the same characteristic.
    """
    if x_obs.dim != z_obs.dim:
        raise ValueError(f"dimension mismatch: {x_obs.dim} vs {z_obs.dim}")
    norms = pair_overlaps(x_obs.projectors, z_obs.projectors)
    c = float(norms.max())
    c = min(c, 1.0)
    if x_obs.nondegenerate and z_obs.nondegenerate:
        lo = 1.0 / math.sqrt(x_obs.dim)
        if c < lo - 1e-9:
            raise ValueError(f"overlap {c!r} below the unitarity floor {lo!r}")
    return OverlapCharacteristic(
        c=c,
        eta=math.acos(c),
        norms=norms,
        x_labels=x_obs.eigenvalues,
        z_labels=z_obs.eigenvalues,
    )


# --- the minimised bound ---------------------------------------------------------

SCAN = 65  # grid points per bracket, in the scan of a piece and at every zoom step
THETA_TOL = 1e-12  # a bracket narrower than this counts as refined
_MAX_POINTS = 1 << 17  # objective values per zoom step; more pieces go in chunks


def _breakpoints(c: float) -> np.ndarray:
    """theta_k = arccos(k**-1/2) for k = 1, 2, ..., on to two beyond arccos(c)."""
    return np.arccos(1.0 / np.sqrt(np.arange(1.0, math.floor(c ** -2) + 3)))


def _parametric_column(theta: np.ndarray, breaks: np.ndarray):
    """The parametric distribution at each theta, as a 2-row column.

    Returns (probs, mult), each of shape (2,) + theta.shape: cos^2 theta
    with multiplicity n = floor(1/cos^2 theta), then the remainder with
    multiplicity 1.  n counts the breakpoints theta_k = arccos(k**-1/2)
    in ``breaks`` (ascending from theta_1 = 0) at or below theta, and the
    remainder 1 - n cos^2 theta is written n sin(theta - theta_n)
    sin(theta + theta_n): it is exactly 0 at a breakpoint, and it keeps
    its relative precision near theta = 0, where 1 - cos^2 theta cancels.
    """
    # n is at most len(breaks): the smallest integer type holding that keeps mult small
    mult = np.ones((2,) + np.shape(theta), dtype=np.min_scalar_type(breaks.size))
    n = mult[0, ...]
    n[...] = np.searchsorted(breaks, theta, side="right")
    theta_n = breaks[n - 1]
    probs = np.empty(mult.shape)
    first, remainder = probs[0, ...], probs[1, ...]
    np.square(np.cos(theta, out=first), out=first)
    np.sin(np.subtract(theta, theta_n, out=remainder), out=remainder)
    remainder *= n
    remainder *= np.sin(theta + theta_n)
    return probs, mult


def _term(theta: np.ndarray, orders: np.ndarray, family: str, breaks: np.ndarray) -> np.ndarray:
    probs, mult = _parametric_column(theta, breaks)
    return _column_entropies(probs, orders, family, mult)


def _objective(theta, eta, alphas, betas, family, breaks) -> np.ndarray:
    """The alpha term at theta plus the beta term at eta - theta, per (alpha, beta).

    ``theta`` has shape (len(alphas), len(betas), ...); each term is one
    kernel call over the whole grid, with its order per column.
    """
    axes = (1,) * (theta.ndim - 2)
    total = _term(theta, np.reshape(alphas, (-1, 1) + axes), family, breaks)
    total += _term(eta - theta, np.reshape(betas, (1, -1) + axes), family, breaks)
    return total


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, index, -1)[..., 0]


def _zoom(lo: np.ndarray, hi: np.ndarray, f):
    """Minimise f on every bracket [lo, hi] at once by grid zoom.

    Each step evaluates SCAN evenly spaced points across every bracket
    and shrinks it to the two grid cells around its smallest value (the
    first one on ties), until every bracket is narrower than THETA_TOL.
    Returns the last step's best point and value per bracket.
    """
    while True:
        grid = np.linspace(lo, hi, SCAN, axis=-1)
        vals = f(grid)
        i = np.argmin(vals, axis=-1)[..., None]
        lo = _at(grid, np.maximum(i - 1, 0))
        hi = _at(grid, np.minimum(i + 1, SCAN - 1))
        if np.max(hi - lo) < THETA_TOL:
            return _at(grid, i), _at(vals, i)


def bbar_bound(c: float, alphas, betas, family: str) -> dict:
    """Minimised two-parameter uncertainty bound over a grid of orders.

    For every alpha in ``alphas`` and beta in ``betas``, minimises the
    alpha term at theta plus the beta term at eta - theta over theta in
    [0, eta], eta = arccos(c); a term is the entropy of the parametric
    distribution (``_parametric_column``).  The breakpoints of both
    terms are evaluated first, the smallest theta winning ties.  Every
    smooth piece between them is then scanned on SCAN points and refined
    by grid zoom, for all pairs at once, and a piece replaces the best
    value only if strictly lower.  Returns {(alpha, beta): BoundValue};
    every value is zero when c = 1.
    """
    if family not in ("renyi", "tsallis"):
        raise ValueError(f"family must be 'renyi' or 'tsallis', got {family!r}")
    if not 0.0 < c <= 1.0:
        raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    alphas, betas = list(alphas), list(betas)
    if not all(0.0 <= v < math.inf for v in alphas + betas):
        raise ValueError("orders must be finite and nonnegative")
    eta = math.acos(c)
    breaks = _breakpoints(c)
    inner = breaks[(breaks > 0.0) & (breaks < eta)]
    pts = np.unique(np.concatenate([[0.0, eta], inner, eta - inner]))
    shape = (len(alphas), len(betas))
    ends = np.broadcast_to(pts, shape + pts.shape)
    vals = _objective(ends, eta, alphas, betas, family, breaks)
    k = np.argmin(vals, axis=-1)[..., None]  # ties go to the smallest theta
    best_x, best_f = _at(ends, k), _at(vals, k)

    keep = pts[1:] - pts[:-1] >= 1e-14
    lo, hi = pts[:-1][keep], pts[1:][keep]
    chunk = max(1, _MAX_POINTS // (shape[0] * shape[1] * SCAN))
    for s in range(0, lo.size, chunk):
        piece_shape = shape + lo[s:s + chunk].shape
        x, fx = _zoom(
            np.broadcast_to(lo[s:s + chunk], piece_shape),
            np.broadcast_to(hi[s:s + chunk], piece_shape),
            lambda t: _objective(t, eta, alphas, betas, family, breaks),
        )
        k = np.argmin(fx, axis=-1)[..., None]
        better = _at(fx, k) < best_f
        best_x = np.where(better, _at(x, k), best_x)
        best_f = np.where(better, _at(fx, k), best_f)

    bound_id = "B_R" if family == "renyi" else "B_T"
    return {
        (a, b): BoundValue(
            bound_id, max(0.0, float(best_f[i, j])), a, b, c,
            argmin_theta=float(best_x[i, j]),
        )
        for i, a in enumerate(alphas)
        for j, b in enumerate(betas)
    }


def mu_bounds(c: float, alpha: float, beta: float) -> tuple[BoundValue, BoundValue]:
    """Maassen-Uffink-type bounds under the constraint 1/alpha + 1/beta = 2.

    Returns the Tsallis bound alpha_log(c**-2) at order mu = max(alpha,
    beta) and the Renyi bound -2 ln c.  At alpha = beta = 1 both reduce
    to -2 ln c.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("orders must be positive")
    if abs(1.0 / alpha + 1.0 / beta - 2.0) > _CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"1/alpha + 1/beta = {1.0 / alpha + 1.0 / beta!r}, expected 2"
        )
    mu = max(alpha, beta)
    mu_t = BoundValue("MU_T", max(0.0, alpha_log(c ** -2, mu)), alpha, beta, c, mu=mu)
    mu_r = BoundValue("MU_R", max(0.0, -2.0 * math.log(c)), alpha, beta, c, mu=mu)
    return mu_t, mu_r


# --- certification ----------------------------------------------------------------


def relation_family(relation: str) -> str:
    if relation in ("Prop1", "Prop3"):
        return "tsallis"
    if relation in ("Prop2", "Binary"):
        return "renyi"
    raise AdmissibilityError(f"unknown relation {relation!r}; known: {RELATIONS}")


def check_admissible(relation: str, alpha: float, beta: float, dim: int) -> None:
    """Raise AdmissibilityError naming the violated constraint, if any."""
    relation_family(relation)
    if alpha <= 0 or beta <= 0:
        raise AdmissibilityError(f"{relation}: orders must be positive, got ({alpha}, {beta})")
    if relation == "Prop2":
        limit = 2.0 if dim == 2 else 1.0
        if alpha > limit + 1e-12 or beta > limit + 1e-12:
            raise AdmissibilityError(
                f"Prop2 at d={dim} requires alpha, beta in (0, {limit:g}], "
                f"got ({alpha}, {beta})"
            )
    if relation in ("Prop3", "Binary"):
        if abs(1.0 / alpha + 1.0 / beta - 2.0) > _CONSTRAINT_TOL:
            raise AdmissibilityError(
                f"{relation} requires 1/alpha + 1/beta = 2, got {1.0 / alpha + 1.0 / beta!r}"
            )
    if relation == "Binary":
        if dim != 2:
            raise AdmissibilityError(f"Binary requires d = 2, got d = {dim}")
        if alpha > 2.0 + 1e-12 or beta > 2.0 + 1e-12:
            raise AdmissibilityError(
                f"Binary requires alpha, beta in (0, 2], got ({alpha}, {beta})"
            )


def _bounds_for(relation: str, c: float, pairs) -> dict:
    """The relation's bound at every (alpha, beta) in ``pairs``, keyed by the pair.

    The minimised bounds of Prop1 and Prop2 come from one ``bbar_bound``
    call over the orders that occur in ``pairs``.
    """
    if relation in ("Prop1", "Prop2"):
        alphas = sorted({a for a, _ in pairs})
        betas = sorted({b for _, b in pairs})
        return bbar_bound(c, alphas, betas, relation_family(relation))
    if relation == "Prop3":
        return {(a, b): mu_bounds(c, a, b)[0] for a, b in pairs}
    value = max(0.0, -2.0 * math.log(c))
    return {(a, b): BoundValue("STND_R1", value, a, b, c, mu=max(a, b)) for a, b in pairs}


def _assemble(
    relation: str,
    dim: int,
    alpha: float,
    beta: float,
    family: str,
    c: float,
    noise_value: float,
    dist: CorrectionSearchResult,
    bound: BoundValue,
    seed: int | None,
) -> TradeoffCertificate:
    margin = noise_value + dist.best_value - bound.value
    return TradeoffCertificate(
        relation=relation,
        dim=dim,
        alpha=alpha,
        beta=beta,
        family=family,
        c=c,
        noise=noise_value,
        disturbance=dist.best_value,
        bound=bound,
        margin=margin,
        passed=margin >= -MARGIN_SLACK,
        seed=seed,
        restarts=dist.restarts,
        iterations=dist.iterations,
        converged=dist.converged,
        best_candidate=dist.best_candidate,
    )


def certify(
    x_obs: ProjectiveObservable,
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    alpha: float,
    beta: float,
    relation: str,
    search: SearchConfig | None = None,
    seed: int | None = None,
) -> TradeoffCertificate:
    """Certify one trade-off relation on a concrete (X, Z, M) instance.

    Computes the noise of the instrument against X, the best-found
    disturbance against Z, and the bound selected by the relation, then
    records the margin: ``certify_grid`` on the one combination.  Raises
    AdmissibilityError when (relation, alpha, beta, d) fall outside the
    admitted region.
    """
    if x_obs.dim != z_obs.dim or x_obs.dim != inst.dim_in:
        raise ValueError("observables and instrument must share the input dimension")
    check_admissible(relation, alpha, beta, x_obs.dim)
    return certify_grid(x_obs, z_obs, inst, [relation], [alpha], [beta], search, seed)[0][0]


def certify_grid(
    x_obs: ProjectiveObservable,
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    relations,
    alphas,
    betas,
    search: SearchConfig | None = None,
    seed: int | None = None,
):
    """Certify every admissible (relation, alpha, beta) combination.

    One ``noise`` call evaluates every certificate's noise order and one
    ``disturbance`` call searches all of its disturbance orders at once
    (orders computing the same entropy share one search); each relation's
    bounds come from one call over its admissible orders.  Returns
    (certificates, skipped) where skipped counts inadmissible grid
    combinations.
    """
    dim = x_obs.dim
    c = overlap(x_obs, z_obs).c
    grid, bounds, skipped = [], {}, 0
    for relation in relations:
        pairs = []
        for alpha in alphas:
            for beta in betas:
                try:
                    check_admissible(relation, alpha, beta, dim)
                except AdmissibilityError:
                    skipped += 1
                    continue
                pairs.append((alpha, beta))
        if pairs:
            bounds[relation] = _bounds_for(relation, c, pairs)
            grid += [(relation, relation_family(relation), a, b) for a, b in pairs]
    noises = noise(x_obs, inst, [EntropyOrder(a, family) for _, family, a, _ in grid])
    dists = disturbance(z_obs, inst, [EntropyOrder(b, family) for _, family, _, b in grid], search)
    certs = [
        _assemble(relation, dim, a, b, family, c, n, dist, bounds[relation][a, b], seed)
        for (relation, family, a, b), n, dist in zip(grid, noises, dists)
    ]
    return certs, skipped
