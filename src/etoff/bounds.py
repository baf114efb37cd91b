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
minimised at once.  Swapping alpha and beta mirrors the objective about
eta/2, so each unordered pair of orders is minimised once, and the pair
with alpha > beta reflects its swapped pair's argmin; a pair whose two
terms are one entropy reports the first of its two mirror minima.  The
piece ends of every c are read off one flat table, c by c: each c's
breakpoints and their mirrors about eta/2, sorted, each value once.  The
points every pair shares, the breakpoints and a first scan of each
smooth piece, are evaluated once per family and order of each term, and
once for both families at an order on the Shannon branch, both terms in
one kernel call per pass (``_shared_terms``).  The scan also takes the points
16**-7, ..., 16**-1 of a scan cell's width from each piece end, so a
bracket whose best point is a piece end is settled by the scan.  The
zoom that follows works on every other bracket of a pair and piece,
evaluating each bracket's own pair alone (``_objective``): Newton steps
on the objective's slope, which ``_slope`` reads off the kernel's
gradient, and evenly spaced grid steps where they fail.  Each bracket
is refined and stops on its own, so a pair's bound and argmin_theta are
bit for bit those of a call with that pair alone.  Each term is
nondecreasing in its argument, so on an interval [lo, hi] the alpha term
at lo plus the beta term at eta - hi bound the objective from below
(``_can_hold_minimum``): a piece is scanned, and a bracket zoomed, only
where that bound does not exceed a value the pair already reaches.
The checks of a chunk form one ``CertificateTable``, one array per
column: noise values, (one-sided) disturbance values and the applicable
bounds, with the margins and verdicts derived from them as arrays.
``admissible_grid`` checks a (relation, alpha, beta) grid against the
relations' admissible regions once; ``certify_grid`` only evaluates an
admissible grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .entropy import (SHANNON_BRANCH, EntropyOrder, _column_entropies, _column_gradients,
                      alpha_log)
from .linalg import pair_overlaps
from .noise_disturbance import AdmissibilityError, SearchConfig, check_order, disturbance, noise
from .quantum import ProjectiveObservable, QuantumInstrument

MARGIN_SLACK = 1e-7

RELATIONS = ("Prop1", "Prop2", "Prop3", "Binary")
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class CertificateTable:
    """Noise + disturbance >= bound checks, one array per column and one entry per row.

    ``certify_grid`` builds one per chunk and ``join`` stacks them.  A row
    is one (instance, relation, alpha, beta) check.  ``family`` is
    the relation's entropy family, ``dim`` the instances' dimension, ``c``
    the overlap of the row's (X, Z) pair.  ``bound_id`` names the bound:
    ``B_T`` and ``B_R`` are the minimised bounds, whose ``argmin_theta``
    is set and ``mu`` NaN, and ``MU_T`` and ``STND_R1`` the conjugacy
    bounds, whose ``mu`` is max(alpha, beta) and ``argmin_theta`` NaN.
    ``seed`` holds the recorded seed, an int or None.  ``margin`` (noise +
    disturbance - bound) and ``passed`` (margin at least -MARGIN_SLACK)
    are derived from the stored columns.  The disturbance entry is the best
    value found by the correction search, hence an upper bound on the true
    disturbance.  A margin below zero therefore refutes the relation for
    this instance, but a nonnegative margin does not certify it: that needs
    a lower bound on the disturbance (ROADMAP direction A).  ``passed``
    records only noise + upper disturbance >= bound, and the JSON marks the
    disturbance as an upper bound.  ``best_candidate`` names the correction
    that gave the disturbance value: ``discard_flag``, ``reprepare``,
    ``square_root`` (the square-root measurement, scored wherever the
    angle search does not run: at three or more Z outcomes, and at two
    without restarts), ``support_angle`` (two Z outcomes) or
    ``parametrized_restart_<r>`` (three or more), an exact tie going to
    the earlier in that list.  ``iterations`` counts the support points of
    the angle search, or the evaluations of the descent's best restart, at
    most the per-restart budget; it is 0 when no search ran.  ``converged`` means
    that the search that ran met its own stopping rule (a closed angle
    bracket, or the best restart's gradient norm below ``GRAD_TOL``); it is
    false when no search ran.
    """

    relation: np.ndarray
    family: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dim: np.ndarray
    c: np.ndarray
    noise: np.ndarray
    disturbance: np.ndarray
    bound_id: np.ndarray
    bound: np.ndarray
    mu: np.ndarray
    argmin_theta: np.ndarray
    seed: np.ndarray
    restarts: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    best_candidate: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.noise + self.disturbance - self.bound

    @property
    def passed(self) -> np.ndarray:
        return self.margin >= -MARGIN_SLACK

    @classmethod
    def join(cls, tables) -> "CertificateTable":
        """The rows of ``tables`` in turn; no table gives a table of no rows."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables] or [np.empty(0)])
                     for f in fields(cls)))


# --- overlap characteristic ----------------------------------------------------


def overlap(x_obs: ProjectiveObservable, z_obs: ProjectiveObservable) -> np.ndarray:
    """Overlap characteristic c of each (X, Z) pair of two stacks of observables, capped at 1.

    c is the largest spectral norm of a projector product, read off one
    ``pair_overlaps`` table per pair, which is the same bit for bit in
    either order, so swapping the observables returns exactly the same c.
    A rank-one projector, every projector of a nondegenerate observable,
    takes the norm as the square root of a trace; only pairs of
    projectors of rank two or more take an SVD.  Returns a (k,) array.
    Nondegenerate pairs are checked against the unitarity floor d**-1/2.
    """
    if x_obs.dim != z_obs.dim:
        raise ValueError(f"dimension mismatch: {x_obs.dim} vs {z_obs.dim}")
    cs = np.minimum(pair_overlaps(x_obs.projectors, z_obs.projectors).max(axis=(-2, -1)), 1.0)
    lo = 1.0 / math.sqrt(x_obs.dim)
    if x_obs.nondegenerate and z_obs.nondegenerate and cs.min() < lo - 1e-9:
        raise ValueError(f"overlap {float(cs.min())!r} below the unitarity floor {lo!r}")
    return cs


# --- the minimised bound ---------------------------------------------------------

# the least c that bbar_bound takes: c >= d**-1/2 for any two observables in dimension d, so
# it covers every d <= 10**4, and it caps the cost.  There are floor(c**-2) + 2 breakpoints,
# about 2 c**-2 piece ends, and every end is evaluated per order; the scan and the zoom take
# only the pieces and brackets that can hold a minimum.  At c = 0.01 with 8 orders in both
# families (72 pairs, 1 BLAS thread) a call takes 0.14 s and peaks at 60 MB by tracemalloc,
# where scanning and zooming every piece takes 1.8 s
C_FLOOR = 0.01
SCAN = 65  # evenly spaced points per piece in the first scan, shared by every pair of orders
ZOOM = 9  # evenly spaced points per bracket at every grid step, where Newton steps fail
# a bracket narrower than THETA_TOL counts as refined, as every scan bracket at a piece end is
# (_END_CELL), and a Newton step shorter than a quarter of it as converged; rounding decides a
# grid step's argmin below about 4e-8, while Newton steps find the slope's zero to about 1e-14
# away from order 1
THETA_TOL = 1e-9
# a piece or bracket whose lower bound exceeds a value its pair reaches by more than this is not
# searched; the computed terms never fall along theta, and their roundoff is far below it
PRUNE_SLACK = 1e-9
# objective values per family per scan step, and per term per grid step; more pieces or
# brackets go in chunks
_MAX_POINTS = 1 << 17
# Newton rounds an interior bracket takes before it falls back to grid steps: on the calls of
# the bounds-grid benchmark a bracket converges in at most 6 rounds, 2.9 on average
NEWTON_ROUNDS = 8
# fractions of a bracket's width at which a grid step evaluates it, 0 and 1 among them
_EVEN = np.arange(ZOOM) / (ZOOM - 1)
# fractions of the scan cell next to a piece end at which the scan also evaluates the piece,
# measured from that end: a piece is at most pi/4 wide, so an end that stays best leaves a
# bracket at most (pi/4) / 64 * 16**-7 < 5e-11 wide, narrower than THETA_TOL, never zoomed
_END_CELL = 16.0 ** -np.arange(7, 0, -1)


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
    """The entropy of the parametric distribution at theta, per row's (family, order).

    ``orders`` and ``families`` list the rows along theta's axis
    ``np.ndim(orders) - 1``, where theta has length 1 or one point per
    row.  Given as (m, width) tables, with theta of shape (m, 1, ...),
    table row i lists the rows evaluated at theta[i].
    """
    probs, mult = _parametric_column(theta, breaks)
    rows = np.shape(orders) + (1,) * (theta.ndim - np.ndim(orders))
    return _column_entropies(probs, np.reshape(orders, rows), np.reshape(families, rows), mult)


def _slope(theta: np.ndarray, orders, families, breaks: np.ndarray) -> np.ndarray:
    """d/dtheta of ``_term``, read off the entropy kernel's gradient.

    The n copies of cos^2 theta move by -sin 2 theta each and the
    remainder by +n sin 2 theta, so the slope is n sin 2 theta (D_r - D_1),
    D being dH/dq per entry; ``_column_gradients`` returns h + D - sum q D
    per row, whose difference of rows is D_r - D_1.  Columns of order 0
    read slope 0.
    """
    probs, mult = _parametric_column(theta, breaks)
    rows = (-1,) + (1,) * (theta.ndim - 1)
    orders, families = np.reshape(orders, rows), np.reshape(families, rows)
    g = _column_gradients(probs, orders, families,
                          _column_entropies(probs, orders, families, mult))
    return mult[0] * np.sin(2.0 * theta) * (g[1] - g[0])


def _objective(families, alphas, betas, breaks, theta, eta, slope=False) -> np.ndarray:
    """The alpha term at theta plus the beta term at eta - theta, per (family, alpha, beta).

    ``families``, ``alphas`` and ``betas`` list the pairs, a pair being one
    (family, alpha, beta), one per row of ``theta``, with ``eta``
    broadcasting against it.  Both terms come from one ``_term`` call, the
    beta rows (at eta - theta) stacked below the alpha rows (at theta).  A
    column's entropy does not depend on the columns beside it, so a pair's
    values are bit for bit those of a call with that pair alone, and of one
    ``_term`` call per term.  With ``slope``, the objective's derivative
    in theta, the alpha term's slope minus the beta term's, from one
    ``_slope`` call stacked the same way.
    """
    both = (_slope if slope else _term)(
        np.concatenate(np.broadcast_arrays(theta, eta - theta)),
        np.concatenate([alphas, betas]), np.concatenate([families, families]), breaks)
    alpha_rows, beta_rows = both[:len(alphas)], both[len(alphas):]
    return alpha_rows - beta_rows if slope else alpha_rows + beta_rows


def _shared_terms(families, alphas, betas, theta, eta, breaks) -> tuple:
    """Both terms of every pair at points all pairs share, from one ``_term`` call.

    Returns the alpha terms at theta and the beta terms at eta - theta,
    one row per pair.  Each side is evaluated once per distinct (family,
    order) of its own; the family enters only the power branch of the
    entropy kernel, so an order within ``SHANNON_BRANCH`` of 1 takes one
    row for both families.  The two sides go in as one (2, width) table
    against theta and eta - theta stacked on a leading axis, the side with
    fewer rows padded with its own first.  A column's entropy does not
    depend on the columns beside it, so the terms are bit for bit those of
    one ``_term`` call per side.
    """
    keys, rows = [], []
    for side in (alphas, betas):
        index = {}
        rows.append([index.setdefault(("shannon", o) if abs(o - 1.0) < SHANNON_BRANCH else (f, o),
                                      len(index)) for f, o in zip(families.tolist(), side)])
        keys.append(list(index))
    width = max(map(len, keys))
    # each side's (families, orders), padded to the width with its own first key
    fams, orders = zip(*(zip(*side, *side[:1] * (width - len(side))) for side in keys))
    terms = _term(np.stack(np.broadcast_arrays(theta, eta - theta)), orders, fams, breaks)
    return terms[0][rows[0]], terms[1][rows[1]]


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, index, -1)[..., 0]


def _can_hold_minimum(alpha_lo, beta_hi, best) -> np.ndarray:
    """Whether an interval [lo, hi] of theta can hold a value of the objective as low as ``best``.

    ``alpha_lo`` is the alpha term at lo and ``beta_hi`` the beta term at
    eta - hi.  As theta grows, the parametric distribution is majorized by
    its earlier values, so each term is nondecreasing in its argument: on
    [lo, hi] the objective is at least alpha_lo + beta_hi.  An interval
    whose bound exceeds ``best`` by more than PRUNE_SLACK can neither hold
    a lower value nor tie it.
    """
    return alpha_lo + beta_hi - best <= PRUNE_SLACK


def _shrink(grid: np.ndarray, vals: np.ndarray):
    """The best point of each row and its bracket, the two grid cells around it.

    ``vals`` holds the objective on ``grid`` (the two broadcast against
    each other).  Returns the best theta and value, the first smallest
    value winning ties, and the bracket's lo and hi, one grid cell only
    where the best point is the grid's first or last; then, apart, the
    grid indices of lo and hi.
    """
    i = np.argmin(vals, axis=-1)[..., None]
    at_lo, at_hi = np.maximum(i - 1, 0), np.minimum(i + 1, grid.shape[-1] - 1)
    return (_at(grid, i), _at(vals, i), _at(grid, at_lo), _at(grid, at_hi)), (at_lo, at_hi)


def _grid_step(x, fx, lo, hi, eta, rows, objective, live) -> None:
    """One grid zoom step of the brackets ``live``, updating every array in place.

    It evaluates each such bracket at ZOOM evenly spaced points,
    ``objective(rows, grid, eta)``, the first and last exactly lo and hi,
    and shrinks it to the two grid cells around the step's best point
    (``_shrink``).
    """
    grid = lo[live, None] + (hi[live] - lo[live])[:, None] * _EVEN
    grid[:, -1] = hi[live]
    vals = objective(rows[live], grid, eta[live, None])
    (x[live], fx[live], lo[live], hi[live]), _ = _shrink(grid, vals)


def _newton(x, fx, lo, hi, eta, rows, objective, live) -> np.ndarray:
    """Newton steps on the objective's slope from the best point of each bracket ``live``.

    A round takes the slope at t and the curvature as a forward difference
    of slopes over d = 1e-7 of the bracket's width (at least 1e-12),
    toward the bracket's inside, then steps t to t - slope / curvature,
    clipped to the bracket.  A bracket converges once a step moves t by
    less than THETA_TOL / 4; its objective at t then replaces its best
    value and point where strictly lower.  Returns the brackets whose
    curvature was not positive or that did not converge in NEWTON_ROUNDS
    rounds, untouched.
    """
    t, low, high = x[live], lo[live], hi[live]
    span, mid = np.maximum(1e-7 * (high - low), 1e-12), 0.5 * (low + high)
    active, failed = np.arange(live.size), np.zeros(live.size, dtype=bool)
    for _ in range(NEWTON_ROUNDS):
        if not active.size:
            break
        at = live[active]
        d = np.where(t[active] < mid[active], span[active], -span[active])
        slopes = objective(rows[at], t[active, None] + [0.0, 1.0] * d[:, None], eta[at, None],
                           slope=True)
        curvature = (slopes[:, 1] - slopes[:, 0]) / d
        ok = curvature > 0.0
        step = np.divide(slopes[:, 0], curvature, out=np.zeros(active.size), where=ok)
        new_t = np.clip(t[active] - step, low[active], high[active])
        moving = np.abs(new_t - t[active]) >= THETA_TOL / 4
        t[active] = new_t
        failed[active[~ok]] = True
        active = active[ok & moving]
    failed[active] = True
    at, t = live[~failed], t[~failed]
    value = objective(rows[at], t[:, None], eta[at, None])[:, 0]
    lower = value < fx[at]
    x[at], fx[at] = np.where(lower, t, x[at]), np.where(lower, value, fx[at])
    return live[failed]


def _zoom(x, fx, lo, hi, eta, rows, objective):
    """Refine every bracket [lo, hi] on its own, down to THETA_TOL, in a handful of passes.

    Every argument but ``objective`` holds one entry per bracket: the best
    theta and value found so far, the bracket, the piece's eta and the row
    of the bracket's pair.  ``objective(rows, theta, eta)`` evaluates each
    bracket's pair, and with ``slope=True`` its slope in theta.  Every
    bracket at least THETA_TOL wide takes Newton steps on the slope
    (``_newton``); one whose best scan point is a piece end is narrower
    (``_END_CELL``) and is left as it is.  A bracket whose Newton steps
    fail, as on the flat pieces of an order-0 pair, runs evenly spaced
    grid steps from where it stood until narrower than THETA_TOL
    (``_grid_step``).  Each bracket's arithmetic depends on its own entry
    alone.  Returns ``x`` and ``fx``, updated in place to each bracket's
    final best theta and value; ``lo`` and ``hi`` are overwritten.
    """
    grid = _newton(x, fx, lo, hi, eta, rows, objective, np.flatnonzero(hi - lo >= THETA_TOL))
    while grid.size:
        _grid_step(x, fx, lo, hi, eta, rows, objective, grid)
        grid = grid[hi[grid] - lo[grid] >= THETA_TOL]
    return x, fx


def bbar_bound(cs, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Minimised two-parameter uncertainty bound of every (family, alpha, beta) pair, at every c.

    For each pair, family "tsallis" or "renyi", minimises the alpha term at
    theta plus the beta term at eta - theta over theta in [0, eta], eta =
    arccos(c); a term is the entropy of the parametric distribution
    (``_parametric_column``) in that family.  The piece ends of every c come
    from one (len(cs), 2 len(breaks)) table: the breakpoints theta_k and
    their mirrors eta - theta_k, clipped to [0, eta] (theta_1 = 0 gives both
    0 and eta), each row sorted and kept where a value first appears, then
    flattened c by c; two consecutive ends at least 1e-14 apart bound a
    piece, and a c's last end never bounds one with the next c's first, 0.
    The breakpoints of both terms are evaluated first, and smooth pieces
    between them are scanned on SCAN evenly spaced points, and in each end
    cell of that grid on the points end +- w 16**-k, k = 7, ..., 1, w the
    cell's width (``_END_CELL``); both are shared by every pair, so each
    term is evaluated there once per family and order, both terms in one
    kernel call per pass (``_shared_terms``).  A (pair, piece) bracket,
    the grid cells around the scan's best point, is narrower than
    THETA_TOL where that point is a piece end; every wider one is refined
    on its own by ``_zoom``, for every pair and every c at once (in chunks
    of at most ``_MAX_POINTS`` values per grid step): Newton steps on the
    slope, and evenly spaced grid steps down to THETA_TOL where those
    fail.  One pass over every c's ends and then its scanned pieces, in c
    order, picks each pair's first least value at each c (two
    ``np.minimum.reduceat``, of the values and of the places they are
    reached), so ties go to the breakpoints and to the smallest theta.

    Two prune points skip work that cannot hold a minimum.  Both terms
    are nondecreasing in their arguments, so on [lo, hi] the objective is
    at least the alpha term at lo plus the beta term at eta - hi
    (``_can_hold_minimum``).  Before the scan, a piece is dropped when,
    at every pair, that bound, from its two end points, exceeds the
    pair's best end value at that c by more than PRUNE_SLACK.  Before the
    zoom, a (pair, piece) bracket is dropped when its bound, from the
    scan grid, exceeds the best value the pair reaches at that c, at an
    end or at a scanned piece's best point, by more than PRUNE_SLACK.  The
    selection reads each c's ends and scanned pieces, a dropped bracket
    entering it as +inf.  Every value a dropped piece or bracket could
    have produced lies above a value already attained by more than
    roundoff, and the selection keeps the first strict
    minimum, so it could never have won: values and argmin_theta are bit
    for bit those of scanning and zooming everything, at a fraction of
    the work (on the bounds-grid benchmark's calls, c in [0.3, 0.995] and
    six orders, 83 % of the pieces are scanned, 42 % of the brackets pass
    the prune and 5 % take Newton steps).  Theta -> eta - theta turns
    the objective of (family, alpha, beta) into that of (family, beta,
    alpha), so only pairs with alpha <= beta are scanned and zoomed.  A
    pair with alpha > beta takes eta - theta* as its argmin_theta, theta*
    being the argmin of its swapped pair, so its ties go to the largest
    theta; its value is its own objective at that theta, evaluated for
    every such pair and c in one ``_objective`` call, and it equals the
    swapped pair's value up to rounding.  A pair whose two terms compute
    the same entropy, alpha = beta or both orders within
    ``SHANNON_BRANCH`` of 1, has an objective symmetric about eta/2, so
    its minima come in mirror pairs, theta* and eta - theta*, between
    which rounding alone would choose; it is not mirrored, and both its
    orders report the first, min(theta*, eta - theta*), with the value
    computed at theta* bit for bit.  Returns (values, argmin_theta),
    each (len(cs), len(pairs)); every value is zero when c = 1.  A pair's
    value and argmin_theta at a c are bit for bit those of a call with
    that pair and that c alone.  Each c must lie in [C_FLOOR, 1]: the
    number of piece ends grows as c**-2, and the floor 0.01 is at most the
    overlap of any two observables in dimension up to 10**4.
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
    eta = np.array([math.acos(c) for c in cs])[:, None]
    # per c, the breakpoints and their mirrors clipped to [0, eta] and sorted, each value once;
    # flattened c by c, they are the piece ends, and end_c names each end's c
    pts = np.sort(np.clip(np.hstack(np.broadcast_arrays(breaks, eta - breaks)), 0.0, eta))
    distinct = np.diff(pts, axis=1, prepend=-1.0) != 0
    end_pts, (end_c, _) = pts[distinct], np.nonzero(distinct)
    cut_ends = np.searchsorted(end_c, np.arange(1, len(cs)))
    # (f, beta, alpha) is (f, alpha, beta) mirrored about eta/2: minimise each unordered pair once
    index = {}
    columns = [index.setdefault((f, min(a, b), max(a, b)), len(index)) for f, a, b in pairs]
    families, alphas, betas = (np.array(axis) for axis in zip(*index))

    end_terms = _shared_terms(families, alphas, betas, end_pts[None], eta[end_c, 0], breaks)
    end_vals = end_terms[0] + end_terms[1]
    # per pair and c, the least value it reaches so far: at an end point (every c has one)
    best = np.minimum.reduceat(end_vals, np.r_[0, cut_ends], axis=-1)
    # a piece, two consecutive ends at least 1e-14 apart (never a c's last end and the next c's
    # first, 0), is scanned, for every pair, if it can hold the minimum of some pair; it is
    # named by its low end
    scanned = np.flatnonzero((np.diff(end_pts) >= 1e-14) & np.any(_can_hold_minimum(
        end_terms[0][:, :-1], end_terms[1][:, 1:], best[:, end_c[:-1]]), axis=0))
    del end_terms  # pairs x the ends of every c, about 2 c**-2 each: not needed beyond here
    piece_c = end_c[scanned]
    # per bracket: x, fx, lo and hi (as _shrink returns them), the alpha term at lo and the beta
    # term at eta - hi
    scan = np.empty((6, len(index), scanned.size))
    per_family = max(np.unique(families, return_counts=True)[1])
    chunk = max(1, _MAX_POINTS // (int(per_family) * (SCAN + 2 * _END_CELL.size)))
    for s in range(0, scanned.size, chunk):
        pieces = scanned[s:s + chunk]
        # the spacing w, width / 64, is exact in both of linspace's branches: no piece moves
        # another; the end cells also take end +- w 16**-k, k = 7, ..., 1
        even = np.linspace(end_pts[pieces], end_pts[pieces + 1], SCAN, axis=-1)
        lo, hi = even[:, :1], even[:, -1:]
        grid = np.hstack([lo, lo + (even[:, 1:2] - lo) * _END_CELL, even[:, 1:-1],
                          hi - (hi - even[:, -2:-1]) * _END_CELL[::-1], hi])
        terms = _shared_terms(families, alphas, betas, grid[None], eta[piece_c[s:s + chunk]], breaks)
        brackets, at_ends = _shrink(grid[None], terms[0] + terms[1])
        scan[:, :, s:s + chunk] = *brackets, _at(terms[0], at_ends[0]), _at(terms[1], at_ends[1])

    # a bracket is zoomed if it can hold its pair's minimum, given the best value the pair
    # reaches at an end or at a scanned piece's best point; a dropped one enters the selection
    # below as +inf
    np.minimum.at(best.T, piece_c, scan[1].T)
    zoomed = _can_hold_minimum(scan[4], scan[5], best[:, piece_c])
    scan[1][~zoomed] = np.inf
    rows, cols = np.nonzero(zoomed)

    def per_bracket(rows, theta, eta, slope=False):
        return _objective(families[rows], alphas[rows], betas[rows], breaks, theta, eta, slope)

    span = _MAX_POINTS // ZOOM  # brackets per zoom call
    for s in range(0, rows.size, span):
        r, k = rows[s:s + span], cols[s:s + span]
        scan[0, r, k], scan[1, r, k] = _zoom(*scan[:4, r, k], eta[piece_c[k], 0], r, per_bracket)

    # every c's ends, then its scanned pieces, in c order (the sort is stable); per pair and c,
    # the first place its least value is reached, so ties go to the ends and to the smallest theta
    owner = np.r_[end_c, piece_c]
    order = np.argsort(owner, kind="stable")
    owner, vals = owner[order], np.hstack([end_vals, scan[1]])[:, order]
    starts = np.searchsorted(owner, np.arange(len(cs)))
    least = np.minimum.reduceat(vals, starts, axis=-1)[:, owner]
    k = np.minimum.reduceat(np.where(vals == least, np.arange(owner.size), owner.size), starts,
                            axis=-1)
    thetas = np.hstack([np.broadcast_to(end_pts, end_vals.shape), scan[0]])
    # per c and asked pair: one with alpha > beta reflects its swapped pair's argmin, and its
    # value is its own objective there, for every c and such pair in one call
    best_x = np.take_along_axis(thetas, order[k], -1).T[:, columns]
    best_f = np.take_along_axis(vals, k, -1).T[:, columns]
    # a pair whose two terms are one computed entropy is symmetric about eta/2, and rounding
    # picked one of its mirror minima: both its orders report the first, with the column's value
    same = np.array([a == b or max(abs(a - 1.0), abs(b - 1.0)) < SHANNON_BRANCH
                     for _, a, b in pairs])
    best_x[:, same] = np.minimum(best_x[:, same], eta - best_x[:, same])
    swapped = np.array([a > b for _, a, b in pairs]) & ~same
    if swapped.any():
        best_x[:, swapped] = eta - best_x[:, swapped]
        mirrored = (np.tile(np.array(axis)[swapped], len(cs)) for axis in zip(*pairs))
        best_f[:, swapped] = _objective(*mirrored, breaks, best_x[:, swapped].reshape(-1, 1),
                                        np.repeat(eta, swapped.sum(), 0)).reshape(len(cs), -1)
    return np.maximum(best_f, 0.0), best_x


def conjugate_orders(alpha: float, beta: float) -> bool:
    """Whether the orders are positive and 1/alpha + 1/beta = 2, within ``_CONSTRAINT_TOL``."""
    return alpha > 0 and beta > 0 and abs(1.0 / alpha + 1.0 / beta - 2.0) <= _CONSTRAINT_TOL


def mu_bounds(c: float, alpha: float, beta: float) -> tuple[float, float]:
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
    return max(0.0, alpha_log(c ** -2, max(alpha, beta))), max(0.0, -2.0 * math.log(c))


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


def _bounds(grid, cs) -> tuple:
    """The bound columns (id, value, mu, argmin_theta), per c and then per entry of ``grid``.

    The minimised bounds of Prop1 and Prop2 come from one ``bbar_bound``
    call over every c and exactly the (family, alpha, beta) pairs of those
    relations in the grid, in its order; they have no mu.  The conjugacy
    bounds of Prop3 and Binary, with mu = max(alpha, beta) and no
    argmin_theta, are evaluated one at a time with ``math``.  An absent mu
    or argmin_theta is NaN.  A bound that is not finite raises ValueError.
    """
    pairs = [(relation_family(r), a, b) for r, a, b in grid if r in ("Prop1", "Prop2")]
    values, argmins = bbar_bound(cs, pairs) if pairs else np.empty((2, len(cs), 0))
    bbar = zip(values.ravel().tolist(), itertools.repeat(None), argmins.ravel().tolist())
    ids, *floats = zip(*[
        ("B_T" if r == "Prop1" else "B_R", *next(bbar)) if r in ("Prop1", "Prop2")
        else ("MU_T", mu_bounds(c, a, b)[0], max(a, b), None) if r == "Prop3"
        else ("STND_R1", mu_bounds(c, a, b)[1], max(a, b), None)
        for c in cs for r, a, b in grid])
    value, mu, argmin_theta = np.array(floats, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"bound value must be finite, got {value[~np.isfinite(value)][0]!r}")
    return np.array(ids), value, mu, argmin_theta


def certify(
    x_obs: ProjectiveObservable,
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    alpha: float,
    beta: float,
    relation: str,
    search: SearchConfig | None = None,
    seed: int | None = None,
) -> CertificateTable:
    """Certify one trade-off relation on a concrete (X, Z, M) instance; a table of one row.

    Computes the noise of the instrument against X, the best-found
    disturbance against Z, and the bound selected by the relation:
    ``certify_grid`` on a chunk of one instance and one combination,
    ``seed`` seeding the search and being recorded in the row.  Raises
    AdmissibilityError when (relation, alpha, beta, d) fall outside the
    admitted region, d being X's dimension.  Mismatched dimensions raise
    ValueError from ``noise`` (X against M), ``overlap`` (X against Z) or
    ``disturbance`` (Z against M), before any table.
    """
    check_admissible(relation, alpha, beta, x_obs.dim)
    chunk = (x_obs[None], z_obs[None], inst[None])
    return certify_grid(chunk, [(relation, alpha, beta)], search or SearchConfig(), [seed], seed)


def certify_grid(chunk, grid, search: SearchConfig, seeds: list,
                 seed: int | None = None) -> CertificateTable:
    """Certify every (relation, alpha, beta) of an admissible grid on every instance of a chunk.

    ``chunk`` is the triple (X, Z, M) of stacks of k instances, searched on
    the one budget ``search`` with one seed per instance from ``seeds``
    (different counts raise ValueError before any work); ``seed`` is the
    one the table records.  ``grid`` is non-empty and checked already
    (``admissible_grid`` or ``check_admissible``).  ``noise``, ``overlap``
    and ``disturbance`` each take the stacks whole; ``disturbance``
    searches every instance and order at once, and the minimised bounds of
    both families come from one ``bbar_bound`` call over every c
    (``_bounds``).  The table's k len(grid) rows are ordered by instance,
    then in the grid's order: the (k, len(grid)) arrays of ``noise`` and
    ``disturbance`` are raveled, c repeats per grid entry and the grid's
    columns repeat per instance.  An instance's rows equal, bit for bit,
    those of a chunk of it alone.
    """
    x_obs, z_obs, inst = chunk
    counts = (len(x_obs.projectors), len(z_obs.projectors), len(inst.kraus), len(seeds))
    if len(set(counts)) > 1:
        raise ValueError(f"X, Z, M and seeds count different numbers of instances: {counts}")
    relations, alphas, betas = zip(*grid)
    families = [relation_family(r) for r in relations]
    noises = noise(x_obs, inst, [EntropyOrder(a, f) for a, f in zip(alphas, families)])
    cs = overlap(x_obs, z_obs)
    value, _, iterations, converged, candidate = disturbance(
        z_obs, inst, [EntropyOrder(b, f) for b, f in zip(betas, families)], search, seeds)
    k, n = noises.shape
    return CertificateTable(
        *(np.tile(axis, k) for axis in (relations, families, alphas, betas)),
        np.full(k * n, x_obs.dim), np.repeat(cs, n), noises.ravel(), value.ravel(),
        *_bounds(grid, cs.tolist()), np.full(k * n, seed, dtype=object),
        np.full(k * n, search.restarts), iterations.ravel(), converged.ravel(), candidate.ravel())
