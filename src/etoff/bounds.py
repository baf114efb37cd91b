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
is written out here, and a whole list of (family, alpha, beta) pairs is
minimised at once.  The points every pair shares, the breakpoints and a
first scan of each smooth piece, are evaluated once per family and
order.  The zoom that follows works on one bracket per pair and piece:
each is refined on its own, geometrically toward a piece end that holds
its best point, and stops on its own, so a pair's bound and argmin_theta
are bit for bit those of a call with that pair alone.
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

# the least c that bbar_bound takes: c >= d**-1/2 for any two observables in dimension d, so
# it covers every d <= 10**4, and it caps the cost, which grows as c**-2 (floor(c**-2) + 2
# breakpoints, about 2 c**-2 pieces per pair)
C_FLOOR = 0.01
SCAN = 65  # grid points per piece in the first scan, shared by every pair of orders
ZOOM = 9  # grid points per bracket at every later zoom step
# a bracket narrower than THETA_TOL counts as refined; below about 4e-8 rounding decides the
# argmin, so a finer stop buys no digit of the bound
THETA_TOL = 1e-9
_MAX_POINTS = 1 << 17  # objective values per family per step; more pieces go in chunks
# fractions of a bracket's width at which a zoom step evaluates it: evenly spaced, or, from
# the end that holds the bracket's best point, that end, 8**-7, ..., 8**-1 and 1
_EVEN = np.arange(ZOOM) / (ZOOM - 1)
_TOWARD_END = np.concatenate([[0.0], (ZOOM - 1.0) ** -np.arange(ZOOM - 2, -1, -1)])


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


def _term(theta: np.ndarray, orders, families, breaks: np.ndarray) -> np.ndarray:
    """The entropy of the parametric distribution at theta, per row's (family, order)."""
    probs, mult = _parametric_column(theta, breaks)
    rows = (-1,) + (1,) * (theta.ndim - 1)
    return _column_entropies(probs, np.reshape(orders, rows), np.reshape(families, rows), mult)


def _objective(families, alphas, betas, breaks, theta, eta) -> np.ndarray:
    """The alpha term at theta plus the beta term at eta - theta, per (family, alpha, beta).

    ``families``, ``alphas`` and ``betas`` list the pairs, a pair being one
    (family, alpha, beta), and the leading axis of ``theta`` runs over them,
    with ``eta`` broadcasting against it.  On points every pair shares, that
    axis has length 1, and each term is one kernel call with one row per
    distinct (family, order), so it is evaluated once per family and order
    and each pair sums its own two terms; a column's entropy does not depend
    on the columns beside it, so either way a pair's values are bit for bit
    those of a call with that pair alone.
    """
    families = np.asarray(families)
    if len(theta) == 1 < len(families):
        alpha, beta = (_shared_terms(families, orders, at, breaks)
                       for orders, at in ((alphas, theta), (betas, eta - theta)))
    else:
        alpha = _term(theta, alphas, families, breaks)
        beta = _term(eta - theta, betas, families, breaks)
    alpha += beta
    return alpha


def _shared_terms(families, orders, theta, breaks) -> np.ndarray:
    """``_term`` of every pair at points they share, evaluated once per distinct (family, order)."""
    keys = sorted(set(zip(families.tolist(), orders)))
    index = {key: k for k, key in enumerate(keys)}
    terms = _term(theta, [o for _, o in keys], [f for f, _ in keys], breaks)
    return terms[[index[key] for key in zip(families.tolist(), orders)]]


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, index, -1)[..., 0]


def _shrink(grid: np.ndarray, vals: np.ndarray):
    """The best point of each row and its bracket, the two grid cells around it.

    ``vals`` holds the objective on ``grid`` (the two broadcast against
    each other).  Returns the best theta and value, the first smallest
    value winning ties, the bracket's lo and hi, and on which side of the
    bracket the best point lies: -1 at lo, 1 at hi, 0 inside.
    """
    last = grid.shape[-1] - 1
    i = np.argmin(vals, axis=-1)[..., None]
    side = (i[..., 0] == last).astype(np.int8) - (i[..., 0] == 0)
    return (_at(grid, i), _at(vals, i), _at(grid, np.maximum(i - 1, 0)),
            _at(grid, np.minimum(i + 1, last)), side)


def _zoom(x, fx, lo, hi, side, eta, rows, objective):
    """Refine every bracket [lo, hi] on its own, by grid zoom, until narrower than THETA_TOL.

    Every argument but ``objective`` holds one entry per bracket: the best
    theta and value found so far, the bracket, the side of it that point
    lies on (as ``_shrink`` returns it), the piece's eta and the row of the
    bracket's pair.  A step evaluates ZOOM points of each live bracket,
    ``objective(rows, grid, eta)``, the first and last exactly lo and hi.
    Where the best point lies inside the bracket, the points are evenly
    spaced and the bracket shrinks to the two grid cells around the step's
    best point (``_shrink``).  Where it lies at an end, the points run
    geometrically toward that end (``_TOWARD_END``): while the end stays
    best, the bracket shrinks to 8**-7 of its width, so it closes in a step
    or two; once a lower point shows inside, the same bracket is zoomed
    evenly next, as an interior one.  A bracket stops, keeping that step's
    best point and value, once narrower than THETA_TOL, so its result
    depends on its own entry alone.  Returns ``x`` and ``fx``, updated in
    place to each bracket's final best theta and value.
    """
    live = np.flatnonzero(hi - lo >= THETA_TOL)
    lo, hi, side, eta, rows = (v[live] for v in (lo, hi, side, eta, rows))
    while live.size:
        width = (hi - lo)[:, None]
        frac = np.where(side[:, None] == 0, _EVEN, _TOWARD_END)
        grid = np.where(side[:, None] > 0, hi[:, None] - width * frac[:, ::-1],
                        lo[:, None] + width * frac)
        grid[:, 0], grid[:, -1] = lo, hi
        x[live], fx[live], new_lo, new_hi, new_side = _shrink(
            grid, objective(rows, grid, eta[:, None]))
        back = (side != 0) & (new_side != side)
        lo, hi = np.where(back, lo, new_lo), np.where(back, hi, new_hi)
        side = np.where(back, 0, new_side)
        keep = hi - lo >= THETA_TOL
        live, lo, hi, side, eta, rows = (v[keep] for v in (live, lo, hi, side, eta, rows))
    return x, fx


def bbar_bound(cs, pairs) -> list:
    """Minimised two-parameter uncertainty bound of every (family, alpha, beta) pair, at every c.

    For each pair, family "tsallis" or "renyi", minimises the alpha term
    at theta plus the beta term at eta - theta over theta in [0, eta], eta
    = arccos(c); a term is the entropy of the parametric distribution
    (``_parametric_column``) in that family.  The breakpoints of both
    terms are evaluated first, and every smooth piece between them is
    scanned on SCAN evenly spaced points; both are shared by every pair,
    so each term is evaluated there once per family and order.  Each
    (pair, piece) bracket around the scan's best point is then refined on
    its own by ``_zoom`` down to THETA_TOL, geometrically toward whichever
    of its ends holds its best point, for every pair and every c at once
    (at most ``_MAX_POINTS`` values per family per step); a piece
    replaces the best value only if strictly lower, so ties go to the
    breakpoints and to the smallest theta.  Returns one {(family, alpha,
    beta): BoundValue} per c; every value is zero when c = 1.  A pair's
    value and argmin_theta at a c are bit for bit those of a call with
    that pair and that c alone.  Each c must lie in [C_FLOOR, 1]: the
    cost grows as c**-2, and the floor 0.01 is at most the overlap of any
    two observables in dimension up to 10**4.
    """
    cs, pairs = list(cs), list(pairs)
    for name, values in (("cs", cs), ("pairs", pairs)):
        if not values:
            raise ValueError(f"{name} must not be empty")
    families, alphas, betas = (list(axis) for axis in zip(*pairs))
    for family in families:
        if family not in ("renyi", "tsallis"):
            raise ValueError(f"family must be 'renyi' or 'tsallis', got {family!r}")
    for c in cs:
        if not C_FLOOR <= c <= 1.0:
            raise ValueError(f"overlap characteristic must lie in [{C_FLOOR}, 1], got {c!r}")
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
    n_ends, n_pieces = [len(p) for p in ends], [len(p) for p in lo]
    families, alphas, betas = np.array(families), np.array(alphas), np.array(betas)
    objective = functools.partial(_objective, families, alphas, betas, breaks)
    end_pts = np.concatenate(ends)
    end_vals = objective(end_pts[None], np.repeat(etas, n_ends))

    def per_bracket(rows, grid, eta):
        return _objective(families[rows], alphas[rows], betas[rows], breaks, grid, eta)

    piece_lo, piece_hi = np.concatenate(lo), np.concatenate(hi)
    piece_eta = np.repeat(etas, n_pieces)
    piece_x, piece_f = (np.empty((len(pairs), piece_lo.size)) for _ in range(2))
    per_family = max(np.unique(families, return_counts=True)[1])
    chunk = max(1, _MAX_POINTS // (int(per_family) * SCAN))
    for s in range(0, piece_lo.size, chunk):
        pieces = slice(s, s + chunk)
        # the spacing, width / 64, is exact in both of linspace's branches: no piece moves another
        grid = np.linspace(piece_lo[pieces], piece_hi[pieces], SCAN, axis=-1)
        eta = piece_eta[pieces]
        brackets = _shrink(grid[None], objective(grid[None], eta[:, None]))
        shape = brackets[0].shape  # (pairs, pieces)
        rows = np.repeat(np.arange(len(pairs)), shape[1])
        x, fx = _zoom(*(v.ravel() for v in brackets), np.tile(eta, len(pairs)), rows, per_bracket)
        piece_x[:, pieces], piece_f[:, pieces] = x.reshape(shape), fx.reshape(shape)

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
            pair: BoundValue("B_R" if pair[0] == "renyi" else "B_T", max(0.0, float(f)),
                             argmin_theta=float(x))
            for pair, x, f in zip(pairs, best_x, best_f)
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


def _bounds(grid, cs) -> list:
    """Per c, the bound of each (relation, alpha, beta) of ``grid``, in the grid's order.

    The minimised bounds of Prop1 and Prop2 come from one ``bbar_bound``
    call over every c and exactly the (family, alpha, beta) pairs of those
    relations in the grid.
    """
    minimised = [(relation_family(r), a, b) for r, a, b in grid if r in ("Prop1", "Prop2")]
    bbar = [{}] * len(cs)
    if minimised:
        bbar = bbar_bound(cs, minimised)
    return [[bbar_at_c[relation_family(r), a, b] if r in ("Prop1", "Prop2")
             else mu_bounds(c, a, b)[0] if r == "Prop3"
             else BoundValue("STND_R1", max(0.0, -2.0 * math.log(c)), mu=max(a, b))
             for r, a, b in grid]
            for c, bbar_at_c in zip(cs, bbar)]


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
    call searches every instance and order at once, and the minimised
    bounds of both families come from one ``bbar_bound`` call over every c
    (``_bounds``); an instance's certificates equal, bit for bit, those of
    a chunk of it alone.  They come back ordered by instance, then in the
    grid's order.
    """
    cs = [overlap(x_obs, z_obs) for x_obs, z_obs, _ in chunk]
    bounds = _bounds(grid, cs)
    dists = disturbance(
        [(z_obs, inst) for _, z_obs, inst in chunk],
        [EntropyOrder(b, relation_family(r)) for r, _, b in grid], searches,
    )
    noise_orders = [EntropyOrder(a, relation_family(r)) for r, a, _ in grid]
    return [
        TradeoffCertificate(
            relation, x_obs.dim, a, b, c, n, dist.best_value, bound, seed,
            dist.restarts, dist.iterations, dist.converged, dist.best_candidate,
        )
        for (x_obs, _, inst), c, bounds_at_c, dists_at_c in zip(chunk, cs, bounds, dists)
        for (relation, a, b), n, dist, bound in zip(
            grid, noise(x_obs, inst, noise_orders), dists_at_c, bounds_at_c)
    ]
