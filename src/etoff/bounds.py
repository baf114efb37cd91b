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
The points every pair of orders shares, the breakpoints and a first scan
of each smooth piece, are evaluated once per order; only the narrow zoom
that follows is evaluated per pair.
A certificate keeps a noise value, a (one-sided) disturbance value and
the applicable bound, and derives its margin and verdict from them.
``admissible_grid`` checks a (relation, alpha, beta) grid against the
relations' admissible regions once; ``certify_grid`` only evaluates an
admissible grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyOrder, _column_entropies, alpha_log
from .linalg import pair_overlaps
from .noise_disturbance import AdmissibilityError, SearchConfig, check_order, disturbance, noise
from .quantum import ProjectiveObservable, QuantumInstrument

MARGIN_SLACK = 1e-7

RELATIONS = ("Prop1", "Prop2", "Prop3", "Binary")
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class BoundValue:
    """One evaluated lower bound, with the conjugacy order or the minimising theta."""

    bound_id: str
    value: float
    mu: float | None = None
    argmin_theta: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class TradeoffCertificate:
    """Record of one noise + disturbance >= bound check.

    ``margin`` (noise + disturbance - bound) and ``passed`` (margin at
    least -MARGIN_SLACK) are derived from the stored values, and
    ``family`` from the relation.  The disturbance entry is the best
    value found by the correction search, hence an upper bound on the
    true disturbance.  A margin below zero therefore refutes the relation
    for this instance, but a nonnegative margin does not certify it: that
    needs a lower bound on the disturbance (ROADMAP direction A).
    ``passed`` records only noise + upper disturbance >= bound, and the
    JSON marks the disturbance as an upper bound.  ``best_candidate``
    names the correction that gave the disturbance value:
    ``discard_flag``, ``reprepare`` or ``parametrized_restart_<r>``.
    ``iterations`` counts the evaluations of the search's best restart,
    so it is at most the per-restart budget, and 0 when no search ran.
    """

    relation: str
    dim: int
    alpha: float
    beta: float
    c: float
    noise: float
    disturbance: float
    bound: BoundValue
    seed: int | None = None
    restarts: int = 0
    iterations: int = 0
    converged: bool = True
    best_candidate: str = ""

    @property
    def family(self) -> str:
        return relation_family(self.relation)

    @property
    def margin(self) -> float:
        return self.noise + self.disturbance - self.bound.value

    @property
    def passed(self) -> bool:
        return self.margin >= -MARGIN_SLACK

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
            "disturbance_is_upper_bound": True,
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


def overlap(x_obs: ProjectiveObservable, z_obs: ProjectiveObservable) -> float:
    """Overlap characteristic c of two observables, capped at 1.

    c is the largest spectral norm of a projector product; each product
    is evaluated in both orders and maximised, so swapping the
    observables returns exactly the same c.
    """
    if x_obs.dim != z_obs.dim:
        raise ValueError(f"dimension mismatch: {x_obs.dim} vs {z_obs.dim}")
    c = min(float(pair_overlaps(x_obs.projectors, z_obs.projectors).max()), 1.0)
    if x_obs.nondegenerate and z_obs.nondegenerate:
        lo = 1.0 / math.sqrt(x_obs.dim)
        if c < lo - 1e-9:
            raise ValueError(f"overlap {c!r} below the unitarity floor {lo!r}")
    return c


# --- the minimised bound ---------------------------------------------------------

SCAN = 65  # grid points per piece in the first scan, shared by every pair of orders
ZOOM = 9  # grid points per bracket at every later zoom step
# a bracket narrower than THETA_TOL counts as refined; below about 4e-8 rounding decides the
# argmin, so a finer stop buys no digit of the bound
THETA_TOL = 1e-9
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


def _objective(alphas, betas, family, breaks, theta, eta) -> np.ndarray:
    """The alpha term at theta plus the beta term at eta - theta, per (alpha, beta).

    ``theta`` has shape (len(alphas), len(betas), ...), or length 1 on
    both pair axes for points shared by every pair; each term is one
    kernel call over the whole grid, with its order per column, so on
    shared points it is evaluated once per order, not once per pair.
    """
    axes = (1,) * (theta.ndim - 2)
    alpha_term = _term(theta, np.reshape(alphas, (-1, 1) + axes), family, breaks)
    return alpha_term + _term(eta - theta, np.reshape(betas, (1, -1) + axes), family, breaks)


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, index, -1)[..., 0]


def _zoom(shape, lo: np.ndarray, hi: np.ndarray, eta: np.ndarray, groups, f):
    """Minimise f(theta, eta) on every piece [lo, hi], for every pair of orders, by grid zoom.

    ``lo``, ``hi`` and ``eta`` hold one entry per piece; ``shape`` is the
    (alphas, betas) shape of the pair axes.  The first step scans SCAN
    evenly spaced points of each piece, shared by every pair; each later
    step evaluates ZOOM evenly spaced points across each pair's own
    bracket.  Every step shrinks a bracket to the two grid cells around
    its smallest value (the first one on ties).  ``groups`` counts the
    consecutive pieces of each group; a group stops, keeping that step's
    best point and value, once its widest bracket over every pair is
    narrower than THETA_TOL, whatever the others do.  Returns the best
    theta and value, each of shape ``shape`` + lo.shape.
    """
    x, fx = np.empty(shape + lo.shape), np.empty(shape + lo.shape)
    live, groups = np.arange(lo.size), np.array(groups)
    lo, hi, eta = lo[None, None], hi[None, None], eta[None, None]  # pair axes of length 1
    points = SCAN
    while live.size:
        # the spacing, width / 64 or width / 8, is exact in both of linspace's branches:
        # no bracket moves another
        grid = np.linspace(lo, hi, points, axis=-1)
        vals = f(grid, eta[..., None])
        i = np.argmin(vals, axis=-1)[..., None]
        lo = _at(grid, np.maximum(i - 1, 0))
        hi = _at(grid, np.minimum(i + 1, points - 1))
        width = (hi - lo).reshape(-1, live.size).max(axis=0)
        stop = np.maximum.reduceat(width, np.cumsum(groups) - groups) < THETA_TOL
        if stop.any():
            done = np.repeat(stop, groups)
            x[..., live[done]] = _at(grid, i)[..., done]
            fx[..., live[done]] = _at(vals, i)[..., done]
            lo, hi, eta = lo[..., ~done], hi[..., ~done], eta[..., ~done]
            live, groups = live[~done], groups[~stop]
        points = ZOOM
    return x, fx


def bbar_bound(cs, alphas, betas, family: str) -> list:
    """Minimised two-parameter uncertainty bound over a grid of orders, at every c of ``cs``.

    For every alpha in ``alphas`` and beta in ``betas``, minimises the
    alpha term at theta plus the beta term at eta - theta over theta in
    [0, eta], eta = arccos(c); a term is the entropy of the parametric
    distribution (``_parametric_column``).  The breakpoints of both
    terms are evaluated first, once per order, the smallest theta winning
    ties.  Every smooth piece between them is then scanned on SCAN points,
    also once per order, and each pair's bracket refined by a ZOOM-point
    grid zoom down to THETA_TOL (``_zoom``), for all pairs and every c at
    once (at most ``_MAX_POINTS`` values per step); a piece replaces the
    best value only if strictly lower.  Returns one {(alpha, beta):
    BoundValue} per c, bit for bit that of a call with that c alone; every
    value is zero when c = 1.  A pair's value matches a call with that pair
    alone to within a few ulps, not bit for bit: a piece stops zooming on
    its widest bracket over every pair.
    """
    if family not in ("renyi", "tsallis"):
        raise ValueError(f"family must be 'renyi' or 'tsallis', got {family!r}")
    cs, alphas, betas = list(cs), list(alphas), list(betas)
    for c in cs:
        if not 0.0 < c <= 1.0:
            raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    if not all(0.0 <= v < math.inf for v in alphas + betas):
        raise ValueError("orders must be finite and nonnegative")
    # theta_k does not depend on c, so the table of the smallest c serves every c
    breaks = _breakpoints(min(cs))
    etas = [math.acos(c) for c in cs]
    ends, lo, hi = [], [], []
    for eta in etas:
        inner = breaks[(breaks > 0.0) & (breaks < eta)]
        pts = np.unique(np.concatenate([[0.0, eta], inner, eta - inner]))
        keep = pts[1:] - pts[:-1] >= 1e-14
        ends.append(pts)
        lo.append(pts[:-1][keep])
        hi.append(pts[1:][keep])
    shape = (len(alphas), len(betas))
    n_ends, n_pieces = [len(p) for p in ends], [len(p) for p in lo]
    objective = functools.partial(_objective, alphas, betas, family, breaks)
    end_pts = np.concatenate(ends)
    end_vals = objective(end_pts[None, None], np.repeat(etas, n_ends))

    # a c with more pieces than fit one step is zoomed as several groups, as on its own
    chunk = max(1, _MAX_POINTS // (shape[0] * shape[1] * SCAN))
    groups = [min(chunk, n - s) for n in n_pieces for s in range(0, n, chunk)]
    piece_lo, piece_hi = np.concatenate(lo), np.concatenate(hi)
    piece_eta = np.repeat(etas, n_pieces)
    piece_x, piece_f = np.empty(shape + piece_lo.shape), np.empty(shape + piece_lo.shape)
    batches = [[]]  # whole groups, at most `chunk` pieces per zoom
    for n in groups:
        if sum(batches[-1]) + n > chunk:
            batches.append([])
        batches[-1].append(n)
    starts = np.cumsum([0] + [sum(batch) for batch in batches])
    for batch, s, e in zip(batches, starts, starts[1:]):
        piece_x[..., s:e], piece_f[..., s:e] = _zoom(
            shape, piece_lo[s:e], piece_hi[s:e], piece_eta[s:e], batch, objective)

    bound_id = "B_R" if family == "renyi" else "B_T"
    results = []
    cut_ends, cut_pieces = np.cumsum(n_ends)[:-1], np.cumsum(n_pieces)[:-1]
    for pts, f_end, x_piece, f_piece in zip(ends, np.split(end_vals, cut_ends, -1),
                                            np.split(piece_x, cut_pieces, -1),
                                            np.split(piece_f, cut_pieces, -1)):
        # the first smallest value, ends before pieces: ties go to the smallest end theta
        vals = np.concatenate([f_end, f_piece], -1)
        k = np.argmin(vals, axis=-1)[..., None]
        best_x = _at(np.concatenate([np.broadcast_to(pts, f_end.shape), x_piece], -1), k)
        best_f = _at(vals, k)
        results.append({
            (a, b): BoundValue(bound_id, max(0.0, float(best_f[i, j])),
                               argmin_theta=float(best_x[i, j]))
            for i, a in enumerate(alphas)
            for j, b in enumerate(betas)
        })
    return results


def conjugate_orders(alpha: float, beta: float) -> bool:
    """Whether the orders are positive and 1/alpha + 1/beta = 2, within ``_CONSTRAINT_TOL``."""
    return alpha > 0 and beta > 0 and abs(1.0 / alpha + 1.0 / beta - 2.0) <= _CONSTRAINT_TOL


def mu_bounds(c: float, alpha: float, beta: float) -> tuple[BoundValue, BoundValue]:
    """Maassen-Uffink-type bounds under the constraint 1/alpha + 1/beta = 2.

    Returns the Tsallis bound alpha_log(c**-2) at order mu = max(alpha,
    beta) and the Renyi bound -2 ln c.  At alpha = beta = 1 both reduce
    to -2 ln c.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    if not conjugate_orders(alpha, beta):
        raise AdmissibilityError(
            f"the MU bounds need positive orders with 1/alpha + 1/beta = 2, got ({alpha}, {beta})"
        )
    mu = max(alpha, beta)
    mu_t = BoundValue("MU_T", max(0.0, alpha_log(c ** -2, mu)), mu=mu)
    mu_r = BoundValue("MU_R", max(0.0, -2.0 * math.log(c)), mu=mu)
    return mu_t, mu_r


# --- certification ----------------------------------------------------------------


def relation_family(relation: str) -> str:
    if relation in ("Prop1", "Prop3"):
        return "tsallis"
    if relation in ("Prop2", "Binary"):
        return "renyi"
    raise AdmissibilityError(f"unknown relation {relation!r}; known: {RELATIONS}")


def check_admissible(relation: str, alpha: float, beta: float, dim: int) -> None:
    """Raise AdmissibilityError naming the relation and its violated constraint, if any.

    The Renyi relations admit exactly the orders ``check_order`` admits.
    """
    family = relation_family(relation)
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):  # NaN fails too
        raise AdmissibilityError(
            f"{relation}: orders must be positive and finite, got ({alpha}, {beta})")
    if relation in ("Prop3", "Binary") and not conjugate_orders(alpha, beta):
        raise AdmissibilityError(
            f"{relation} requires 1/alpha + 1/beta = 2, got {1.0 / alpha + 1.0 / beta!r}"
        )
    if relation == "Binary" and dim != 2:
        raise AdmissibilityError(f"Binary requires d = 2, got d = {dim}")
    if family == "renyi":
        try:
            for order in (alpha, beta):
                check_order(EntropyOrder.renyi(order), dim)
        except AdmissibilityError as exc:
            raise AdmissibilityError(f"{relation}: {exc}") from exc


def admissible_grid(relations, alphas, betas, dim: int):
    """The admissible (relation, alpha, beta) combinations at dimension ``dim``.

    Returns (grid, skipped): the combinations that pass
    ``check_admissible``, ordered by relation, alpha, then beta, and the
    count of the others.
    """
    grid, skipped = [], 0
    for relation, alpha, beta in itertools.product(relations, alphas, betas):
        try:
            check_admissible(relation, alpha, beta, dim)
        except AdmissibilityError:
            skipped += 1
        else:
            grid.append((relation, alpha, beta))
    return grid, skipped


def _bounds_for(relation: str, cs, pairs) -> list:
    """The relation's bound at every (alpha, beta) in ``pairs``, one dict keyed by the pair per c.

    The minimised bounds of Prop1 and Prop2 come from one ``bbar_bound``
    call over every c and the orders that occur in ``pairs``.
    """
    if relation in ("Prop1", "Prop2"):
        alphas = sorted({a for a, _ in pairs})
        betas = sorted({b for _, b in pairs})
        return bbar_bound(cs, alphas, betas, relation_family(relation))
    if relation == "Prop3":
        return [{(a, b): mu_bounds(c, a, b)[0] for a, b in pairs} for c in cs]
    return [{(a, b): BoundValue("STND_R1", max(0.0, -2.0 * math.log(c)), mu=max(a, b))
             for a, b in pairs} for c in cs]


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
    disturbance against Z, and the bound selected by the relation:
    ``certify_grid`` on a chunk of one instance and one combination.
    Raises AdmissibilityError when (relation, alpha, beta, d) fall
    outside the admitted region.
    """
    if x_obs.dim != z_obs.dim or x_obs.dim != inst.dim_in:
        raise ValueError("observables and instrument must share the input dimension")
    check_admissible(relation, alpha, beta, x_obs.dim)
    chunk = [(x_obs, z_obs, inst)]
    return certify_grid(chunk, [(relation, alpha, beta)], [search or SearchConfig()], seed)[0]


def certify_grid(chunk, grid, searches, seed: int | None = None) -> list[TradeoffCertificate]:
    """Certify every (relation, alpha, beta) of an admissible grid on every instance of a chunk.

    ``chunk`` holds (X, Z, M) instances of one shape, ``searches`` one
    ``SearchConfig`` per instance, and ``grid`` is checked already
    (``admissible_grid`` or ``check_admissible``).  One ``disturbance``
    call searches every instance and order at once, and each relation's
    bounds come from one call over every c; an instance's certificates
    equal, bit for bit, those of a chunk of it alone.  They come back
    ordered by instance, then in the grid's order.
    """
    cs = [overlap(x_obs, z_obs) for x_obs, z_obs, _ in chunk]
    bounds = {
        relation: _bounds_for(relation, cs, [(a, b) for r, a, b in grid if r == relation])
        for relation in dict.fromkeys(r for r, _, _ in grid)
    }
    dists = disturbance(
        [(z_obs, inst) for _, z_obs, inst in chunk],
        [EntropyOrder(b, relation_family(r)) for r, _, b in grid], searches,
    )
    noise_orders = [EntropyOrder(a, relation_family(r)) for r, a, _ in grid]
    return [
        TradeoffCertificate(
            relation, x_obs.dim, a, b, c, n, dist.best_value, bounds[relation][i][a, b], seed,
            dist.restarts, dist.iterations, dist.converged, dist.best_candidate,
        )
        for i, ((x_obs, _, inst), c) in enumerate(zip(chunk, cs))
        for (relation, a, b), n, dist in zip(grid, noise(x_obs, inst, noise_orders), dists[i])
    ]
