"""Overlap characteristic, entropic uncertainty bounds, and trade-off
certificates.

The overlap characteristic of two observables is the largest spectral
norm among products of their eigenprojectors; for non-degenerate pairs
this is the maximal eigenstate overlap, ranging between d**-1/2 and 1.
Two families of state-independent lower bounds on entropy sums are
provided: a minimised two-parameter bound built from a piecewise-smooth
parametric sum, and Maassen-Uffink-type bounds under the conjugacy
constraint 1/alpha + 1/beta = 2.  Certificates combine a noise value, a
(one-sided) disturbance value and the applicable bound into a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import SHANNON_BRANCH, EntropyOrder, alpha_log
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
    noise + upper disturbance >= bound.
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
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TradeoffCertificate":
        b = data["bound"]
        return cls(
            relation=data["relation"],
            dim=int(data["dim"]),
            alpha=float(data["alpha"]),
            beta=float(data["beta"]),
            family=data["family"],
            c=float(data["c"]),
            noise=float(data["noise"]),
            disturbance=float(data["disturbance"]),
            bound=BoundValue(
                bound_id=b["id"],
                value=float(b["value"]),
                alpha=float(data["alpha"]),
                beta=float(data["beta"]),
                c=float(data["c"]),
                mu=None if b.get("mu") is None else float(b["mu"]),
                argmin_theta=(
                    None if b.get("argmin_theta") is None else float(b["argmin_theta"])
                ),
            ),
            margin=float(data["margin"]),
            passed=bool(data["passed"]),
            disturbance_is_upper_bound=bool(data.get("disturbance_is_upper_bound", True)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            restarts=int(data["search"]["restarts"]),
            iterations=int(data["search"]["iterations"]),
            converged=bool(data["search"]["converged"]),
        )

    CSV_HEADER = "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"

    def to_csv_row(self) -> str:
        num = "{:.9g}".format
        seed = "" if self.seed is None else str(self.seed)
        return ",".join(
            [
                self.relation,
                str(self.dim),
                num(self.alpha),
                num(self.beta),
                num(self.c),
                num(self.noise),
                num(self.disturbance),
                num(self.bound.value),
                num(self.margin),
                str(self.passed).lower(),
                seed,
            ]
        )


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


# --- the parametric sum and its minimised bound ---------------------------------


def parametric_sum(theta: float, alpha: float) -> float:
    """floor(1/cos^2) copies of cos^2 raised to alpha, plus the remainder term.

    The underlying distribution (cos^2, ..., cos^2, remainder) varies
    continuously in theta, so the sum is continuous with breakpoints
    where 1/cos^2 crosses an integer.
    """
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2), got {theta!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    t = math.cos(theta) ** 2
    n = math.floor(1.0 / t)
    r = max(1.0 - n * t, 0.0)
    if alpha == 0.0:
        return float(n + (1 if r > 0.0 else 0))
    return n * t ** alpha + (r ** alpha if r > 0.0 else 0.0)


def _piece_entropy(theta: float, alpha: float, family: str) -> float:
    """f(parametric sum)/(1 - alpha): the entropy of (cos^2, ..., remainder)."""
    t = math.cos(theta) ** 2
    n = math.floor(1.0 / t)
    r = max(1.0 - n * t, 0.0)
    if abs(alpha - 1.0) < SHANNON_BRANCH:
        h = -n * t * math.log(t)
        if r > 0.0:
            h -= r * math.log(r)
        return max(0.0, h)
    if alpha == 0.0:
        s = float(n + (1 if r > 0.0 else 0))
    else:
        s = n * t ** alpha + (r ** alpha if r > 0.0 else 0.0)
    if family == "renyi":
        return max(0.0, math.log(s) / (1.0 - alpha))
    return max(0.0, (s - 1.0) / (1.0 - alpha))


def _breakpoints(eta: float) -> list[float]:
    """Sorted breakpoints of both objective terms inside [0, eta]."""
    points = {0.0, eta}
    k = 2
    while True:
        theta_k = math.acos(1.0 / math.sqrt(k))
        if theta_k >= eta:
            break
        points.add(theta_k)
        points.add(eta - theta_k)
        k += 1
    return sorted(points)


def golden_section(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 200):
    """Golden-section minimisation on [a, b]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def _minimize_piecewise(f, eta: float, scan: int = 65):
    """Global minimum of a piecewise-smooth objective on [0, eta].

    Every smooth piece between consecutive breakpoints is scanned on a
    coarse grid, the best bracket is refined by golden-section search,
    and all piece endpoints are evaluated explicitly.
    """
    if eta <= 0.0:
        return 0.0, f(0.0)
    pts = _breakpoints(eta)
    best_x, best_f = 0.0, f(0.0)
    for x in pts[1:]:
        fx = f(min(x, eta))
        if fx < best_f:
            best_x, best_f = x, fx
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-14:
            continue
        grid = np.linspace(a, b, scan)
        vals = [f(x) for x in grid]
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, scan - 1)]
        x, fx = golden_section(f, lo, hi)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def bbar_bound(c: float, alpha: float, beta: float, family: str) -> BoundValue:
    """Minimised two-parameter uncertainty bound for the given family.

    Minimises the sum of the alpha term at theta and the beta term at
    eta - theta over theta in [0, eta], eta = arccos(c).  Zero when
    c = 1.
    """
    if family not in ("renyi", "tsallis"):
        raise ValueError(f"family must be 'renyi' or 'tsallis', got {family!r}")
    if not 0.0 < c <= 1.0:
        raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    if alpha < 0 or beta < 0:
        raise ValueError("orders must be nonnegative")
    eta = math.acos(c)
    bound_id = "B_R" if family == "renyi" else "B_T"

    def objective(theta: float) -> float:
        return _piece_entropy(theta, alpha, family) + _piece_entropy(eta - theta, beta, family)

    theta_star, value = _minimize_piecewise(objective, eta)
    return BoundValue(
        bound_id=bound_id,
        value=max(0.0, value),
        alpha=alpha,
        beta=beta,
        c=c,
        argmin_theta=theta_star,
    )


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


def classic_bound(c: float) -> BoundValue:
    """The order-1 trade-off bound -2 ln c."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    return BoundValue("STND", max(0.0, -2.0 * math.log(c)), 1.0, 1.0, c, mu=1.0)


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


def _bound_for(relation: str, c: float, alpha: float, beta: float) -> BoundValue:
    if relation == "Prop1":
        return bbar_bound(c, alpha, beta, "tsallis")
    if relation == "Prop2":
        return bbar_bound(c, alpha, beta, "renyi")
    if relation == "Prop3":
        return mu_bounds(c, alpha, beta)[0]
    mu = max(alpha, beta)
    return BoundValue("STND_R1", max(0.0, -2.0 * math.log(c)), alpha, beta, c, mu=mu)


def _assemble(
    relation: str,
    dim: int,
    alpha: float,
    beta: float,
    family: str,
    c: float,
    noise_value: float,
    dist: CorrectionSearchResult,
    seed: int | None,
) -> TradeoffCertificate:
    bound = _bound_for(relation, c, alpha, beta)
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
    records the margin.  Raises AdmissibilityError when (relation, alpha,
    beta, d) fall outside the admitted region.
    """
    if x_obs.dim != z_obs.dim or x_obs.dim != inst.dim_in:
        raise ValueError("observables and instrument must share the input dimension")
    check_admissible(relation, alpha, beta, x_obs.dim)
    family = relation_family(relation)
    c = overlap(x_obs, z_obs).c
    noise_value = noise(x_obs, inst, EntropyOrder(alpha, family))
    dist = disturbance(z_obs, inst, EntropyOrder(beta, family), search)
    return _assemble(relation, x_obs.dim, alpha, beta, family, c, noise_value, dist, seed)


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

    Noise and disturbance values are cached per (family, order), so a
    full grid costs one correction search per distinct disturbance order
    rather than one per certificate.  Returns (certificates, skipped)
    where skipped counts inadmissible grid combinations.
    """
    dim = x_obs.dim
    c = overlap(x_obs, z_obs).c
    noise_cache: dict = {}
    dist_cache: dict = {}
    certs = []
    skipped = 0
    for relation in relations:
        family = relation_family(relation)
        for alpha in alphas:
            for beta in betas:
                try:
                    check_admissible(relation, alpha, beta, dim)
                except AdmissibilityError:
                    skipped += 1
                    continue
                nkey = (family, alpha)
                if nkey not in noise_cache:
                    noise_cache[nkey] = noise(x_obs, inst, EntropyOrder(alpha, family))
                dkey = (family, beta)
                if dkey not in dist_cache:
                    dist_cache[dkey] = disturbance(
                        z_obs, inst, EntropyOrder(beta, family), search
                    )
                certs.append(
                    _assemble(
                        relation, dim, alpha, beta, family, c,
                        noise_cache[nkey], dist_cache[dkey], seed,
                    )
                )
    return certs, skipped
