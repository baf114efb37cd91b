import itertools
import json
import math
import re
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from etoff import bounds
from etoff.bounds import (
    C_FLOOR,
    RELATIONS,
    SCAN,
    AdmissibilityError,
    _breakpoints,
    _objective,
    _parametric_column,
    _shared_terms,
    _slope,
    _term,
    admissible_grid,
    bbar_bound,
    certify,
    certify_grid,
    check_admissible,
    mu_bounds,
    overlap,
)
from etoff.entropy import SHANNON_BRANCH, EntropyOrder
from etoff.harness import (DEFAULT_ALPHAS, certificates_to_csv, json_rows, sample_instance,
                           tabulate_bounds)
from etoff.noise_disturbance import SearchConfig, check_order
from etoff.quantum import (
    basis_observable,
    observable_from_basis,
    sample_random_observable,
    trivial_instrument,
)

from conftest import sample_one

LN2 = math.log(2)
# the six orders of the bounds-grid benchmark, both sides of the Shannon branch, and 5
ORACLE_ORDERS = (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 1.0 - 1e-8, 1.0 + 1e-8, 5.0)
# at cos(pi/4 + 1e-11) the piece [pi/4, eta] is narrower than THETA_TOL
PRECISION_CS = (0.1, 0.3, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.8, 0.999999,
                math.cos(math.pi / 4 + 1e-11))
PRECISION_ORDERS = (0.0, 0.3, 1.0 - 1e-8, 1.0 + 1e-8, 2.0, 5.0)
# the orders at which bbar_bound's pruning premise, terms that never fall along theta, is checked
MONOTONE_ORDERS = (0.0, 0.3, 0.5, 1.0, 1.0 - 1e-8, 1.0 + 1e-8, 2.0, 5.0, 20.0)


Bound = namedtuple("Bound", "value argmin_theta")


def bbar_grids(cs, pairs):
    """``bbar_bound``'s arrays as one {(family, alpha, beta): Bound} per c."""
    values, argmins = bbar_bound(cs, pairs)
    return [{pair: Bound(v, x) for pair, v, x in zip(pairs, vs, xs)}
            for vs, xs in zip(values.tolist(), argmins.tolist())]


def bbar(c, alpha, beta, family):
    (grid,) = bbar_grids([c], [(family, alpha, beta)])
    return grid[family, alpha, beta]


def pairs_of(families, alphas, betas):
    return list(itertools.product(families, alphas, betas))


def oracle_grid_points(eta, n):
    """Uniform theta grid augmented with the floor-function crossing points.

    The objective has V-shaped kinks where 1/cos^2 crosses an integer (in
    either term), and a kink minimum cannot be resolved to 1e-6 by a
    uniform grid alone, so those crossings belong in any sound
    brute-force evaluation.
    """
    pts = [np.linspace(0.0, eta, n)]
    k = 2
    while True:
        crossing = math.acos(1.0 / math.sqrt(k))
        if crossing >= eta:
            break
        pts.append([crossing, eta - crossing])
        k += 1
    return np.unique(np.concatenate(pts))


def grid_oracle(c, alpha, beta, family, n=20001):
    """Brute-force minimum of the two-term objective on a dense theta grid."""
    eta = math.acos(c)
    theta = oracle_grid_points(eta, n)

    def term(th, a):
        c2 = np.cos(th) ** 2
        floor_n = np.floor(1.0 / c2)
        # At a crossing point 1 - n cos^2 cancels to roundoff; the crossing
        # stands for the exact breakpoint, where the remainder is 0.  A grid
        # point within ~1e-12 of a crossing is snapped with it, which moves
        # its other term by ~1e-12 only.
        r = 1.0 - floor_n * c2
        r = np.where(r > 1e-12, r, 0.0)
        if abs(a - 1.0) < 1e-7:
            out = -floor_n * c2 * np.log(c2)
            out = out - np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)
            return out
        s = floor_n * c2 ** a + np.where(r > 0, r ** a, 0.0)
        if family == "renyi":
            return np.log(s) / (1.0 - a)
        return (s - 1.0) / (1.0 - a)

    vals = term(theta, alpha) + term(eta - theta, beta)
    return float(vals.min())


# --- overlap characteristic ---------------------------------------------------------


def test_overlap_equal_observables_is_one():
    obs = basis_observable(3)
    (c,) = overlap(obs[None], obs[None])
    assert c == pytest.approx(1.0, abs=1e-12)
    assert math.acos(c) == pytest.approx(0.0, abs=1e-9)


def test_overlap_conjugate_qubit(qubit_pair):
    x_obs, z_obs = qubit_pair
    (c,) = overlap(x_obs[None], z_obs[None])
    assert c == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert math.acos(c) == pytest.approx(math.pi / 4, abs=1e-9)


def test_overlap_fourier_qutrit():
    d = 3
    omega = np.exp(2j * math.pi / d)
    f = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / math.sqrt(d)
    (c,) = overlap(basis_observable(d)[None], observable_from_basis(f)[None])
    assert c == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_overlap_symmetric_exactly(rng):
    # rank-one pairs take the trace, and (2, 2) x (2, 2) at d = 4 the SVD in both orders
    for d, a_profile, b_profile in ((3, None, (2, 1)), (4, (2, 2), (2, 2))):
        for _ in range(10):
            a = sample_random_observable(d, a_profile, rng)
            b = sample_random_observable(d, b_profile, rng)
            assert np.array_equal(overlap(a[None], b[None]), overlap(b[None], a[None]))


def test_overlap_nondegenerate_range(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = sample_random_observable(d, None, rng)
        b = sample_random_observable(d, None, rng)
        (c,) = overlap(a[None], b[None])
        assert 1 / math.sqrt(d) - 1e-9 <= c <= 1.0 + 1e-12


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap(basis_observable(2)[None], basis_observable(3)[None])


def test_certify_rejects_mismatched_dimensions():
    x2, x3 = basis_observable(2), basis_observable(3)
    for x_obs, z_obs, inst in ((x2, x3, trivial_instrument(2)), (x2, x2, trivial_instrument(3))):
        with pytest.raises(ValueError, match="dimension mismatch|observable dim"):
            certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3")


# --- parametric distribution ---------------------------------------------------------


def parametric_sum(theta, alpha):
    """sum over the parametric distribution at theta of p**alpha, with multiplicities."""
    probs, mult = _parametric_column(np.array(theta), _breakpoints(0.05))
    return float(np.sum(mult * probs ** alpha))


def test_parametric_sum_at_zero():
    for a in (0.3, 1.0, 2.0, 5.0):
        assert parametric_sum(0.0, a) == pytest.approx(1.0, abs=1e-12)


def test_parametric_sum_half_cosine_squared():
    theta = math.acos(math.sqrt(0.5))
    assert parametric_sum(theta, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_parametric_sum_is_total_probability_at_order_one():
    # each 2-row column, weighted by its multiplicities, sums to 1
    breaks = _breakpoints(0.05)
    theta = np.concatenate([np.linspace(0.0, 1.5, 1001), breaks[:40], breaks[1:40] + 1e-9])
    probs, mult = _parametric_column(theta, breaks)
    assert np.all(probs >= 0.0)
    assert np.max(np.abs(np.sum(mult * probs, axis=0) - 1.0)) < 1e-12


def test_parametric_remainder_vanishes_at_breakpoints_and_is_sin_squared_near_zero():
    breaks = _breakpoints(0.05)
    probs, mult = _parametric_column(breaks, breaks)
    assert np.all(probs[1] == 0.0)
    assert np.array_equal(mult[0], np.arange(1, breaks.size + 1))
    theta = np.geomspace(1e-12, 1e-3, 200)
    probs, mult = _parametric_column(theta, breaks)
    assert np.all(mult == 1)
    assert np.max(np.abs(probs[1] / np.sin(theta) ** 2 - 1.0)) <= 1e-15


# --- minimised bound ------------------------------------------------------------------


def test_bbar_trivial_at_full_overlap():
    for fam in ("renyi", "tsallis"):
        b = bbar(1.0, 0.5, 2.0, fam)
        assert b.value == 0.0
        assert b.argmin_theta == pytest.approx(0.0, abs=1e-12)


def test_bbar_matches_grid_oracle():
    for c in (0.3, 1 / math.sqrt(2), 0.9):
        for fam in ("renyi", "tsallis"):
            (grid,) = bbar_grids([c], pairs_of([fam], ORACLE_ORDERS, ORACLE_ORDERS))
            for (_, alpha, beta), b in grid.items():
                want = grid_oracle(c, alpha, beta, fam)
                assert b.value == pytest.approx(want, abs=1e-6), (c, fam, alpha, beta)


def test_bbar_grid_call_equals_one_call_per_pair():
    # the grid minimises every pair with alpha <= beta through one order-per-column kernel
    # call per zoom step, both terms in that call, and each bracket stops on its own; a pair
    # with alpha > beta reflects its swapped pair; at the last two c, with the benchmark's
    # orders, a bracket that stopped on the widest bracket of its piece moved argmin_theta by
    # 2.4e-10
    cases = [((0.3, 1 / math.sqrt(3), 0.8, 0.999999), (0.0, 0.3, 1.0, 1.0 + 1e-8, 2.0, 5.0)),
             ((0.7684901429171704, 0.6982543424827681), (0.3, 0.5, 0.75, 1.0, 1.5, 2.0))]
    for cs, orders in cases:
        with np.errstate(all="raise"):
            for c, grid in zip(cs, bbar_grids(cs, pairs_of(("renyi", "tsallis"), orders, orders))):
                for (fam, alpha, beta), b in grid.items():
                    alone = bbar(c, alpha, beta, fam)
                    assert b.value == alone.value, (c, fam, alpha, beta)
                    assert b.argmin_theta == alone.argmin_theta, (c, fam, alpha, beta)


def test_bbar_over_many_c_equals_one_call_per_c():
    # one call zooms the pieces of every c together (21 pieces at c = 0.3, none at c = 1;
    # at c = 0.1 more than one zoom step holds), each c keeps its own stopping rule, and one
    # selection pass picks every c's minimum; the second and third lists hold c = 1, whose only
    # end is 0, first and amid the others, repeat a c and hold the floor c, whose breakpoint
    # table serves every c of the call
    orders = (0.3, 0.5, 1.0, 1.5, 2.0)
    for cs in ((0.3, 0.55, 0.8, 0.99, 1.0, 0.1), (1.0, 0.3, 0.3, 0.01, 0.9, 1 / math.sqrt(2)),
               (0.9, 1.0, 0.3, 0.3, 0.01, 1 / math.sqrt(2))):
        for fam in ("renyi", "tsallis"):
            with np.errstate(all="raise"):
                together = bbar_grids(cs, pairs_of([fam], orders, orders))
                for c, grid in zip(cs, together):
                    (alone,) = bbar_grids([c], pairs_of([fam], orders, orders))
                    assert grid == alone, (cs, c, fam)


@pytest.mark.parametrize("swap", [False, True])
def test_shared_terms_equal_one_term_call_per_side(swap):
    # both sides go through one kernel call as one (2, width) table of distinct (family, order)
    # keys; the alpha side has 3 keys, the Renyi and Tsallis rows of 1 - 1e-9 sharing one on the
    # Shannon branch, and the beta side 4, so the alpha side is padded (the beta side when swapped)
    families = np.array(["renyi", "tsallis", "renyi", "tsallis"])
    alphas, betas = np.array([0.5, 0.5, 1.0 - 1e-9, 1.0 - 1e-9]), np.array([0.3, 2.0, 5.0, 20.0])
    if swap:
        alphas, betas = betas, alphas
    c = 0.2
    breaks, eta = _breakpoints(c), math.acos(c)
    ends = np.linspace(0.0, eta, 40)
    pieces = np.linspace(ends[:-1], ends[1:], SCAN, axis=-1)
    for theta, etas in ((ends[None], np.full(ends.size, eta)),
                        (pieces[None], np.full((pieces.shape[0], 1), eta))):
        alpha_terms, beta_terms = _shared_terms(families, alphas, betas, theta, etas, breaks)
        assert np.array_equal(alpha_terms, _term(theta, alphas, families, breaks))
        assert np.array_equal(beta_terms, _term(etas - theta, betas, families, breaks))


def test_a_tie_between_an_end_and_a_scanned_piece_goes_to_the_end(monkeypatch):
    # Tsallis order 0 counts the nonzero entries less one, so the objective takes whole values
    # and every end ties some piece; a zoom that reports its bracket's midpoint at the scan's
    # value makes each such tie fall at a theta no end has.  Every c's first end, theta = 0,
    # holds its least value, so it must win over every later end and every piece
    monkeypatch.setattr(bounds, "_zoom", lambda x, fx, lo, hi, *rest: ((lo + hi) / 2, fx))
    cs = (0.6, 0.9, 0.6, 1.0, 0.7)
    values, argmins = bbar_bound(cs, [("tsallis", 0.0, 0.0)])
    assert np.array_equal(argmins, np.zeros((len(cs), 1)))
    assert values.ravel().tolist() == [2.0, 1.0, 2.0, 0.0, 2.0]


@pytest.mark.parametrize("family", ["renyi", "tsallis"])
@pytest.mark.parametrize("c", PRECISION_CS)
def test_bbar_value_is_the_objective_at_its_argmin_and_no_nearby_theta_is_lower(c, family):
    eta, breaks = math.acos(c), _breakpoints(c)
    (grid,) = bbar_grids([c], pairs_of([family], PRECISION_ORDERS, PRECISION_ORDERS))
    for (_, alpha, beta), b in grid.items():
        at = _objective([family], [alpha], [beta], breaks, np.array([[b.argmin_theta]]), eta)
        assert b.value == at[0, 0], (alpha, beta)
        near = np.linspace(b.argmin_theta - 1e-6, b.argmin_theta + 1e-6, 2001)
        vals = _objective([family], [alpha], [beta], breaks, np.clip(near, 0.0, eta)[None], eta)
        assert vals.min() >= b.value - 1e-13, (alpha, beta)


@pytest.mark.parametrize("family", ["renyi", "tsallis"])
def test_swapped_orders_give_the_mirrored_argmin_and_the_same_value(family):
    # (family, beta, alpha) is (family, alpha, beta) mirrored about eta/2, so one of the two is
    # minimised and the other reflected; the dense scan checks the reflected pair without the mirror
    cs = (0.3, 0.55, 1 / math.sqrt(2), 0.9, 0.999999, 1.0)
    orders = (0.0, 0.3, 1.0, 1.0 + 1e-8, 2.0, 5.0)
    breaks = _breakpoints(min(cs))
    with np.errstate(all="raise"):
        grids = bbar_grids(cs, pairs_of([family], orders, orders))
    for c, grid in zip(cs, grids):
        eta = math.acos(c)
        for alpha, beta in itertools.combinations(orders, 2):
            kept, swapped = grid[family, alpha, beta], grid[family, beta, alpha]
            assert swapped.argmin_theta == eta - kept.argmin_theta, (c, alpha, beta)
            assert abs(swapped.value - kept.value) <= 1e-15, (c, alpha, beta)
            near = np.linspace(swapped.argmin_theta - 1e-6, swapped.argmin_theta + 1e-6, 2001)
            vals = _objective([family], [beta], [alpha], breaks, np.clip(near, 0.0, eta)[None], eta)
            assert vals.min() >= swapped.value - 1e-13, (c, alpha, beta)


def test_bound_table_over_many_c_equals_one_table_per_c():
    # one bbar_bound call covers both families and every c of the table
    cs = (0.3, 1 / math.sqrt(2), 0.55, 0.999999, 1.0)
    orders = (0.3, 0.5, 1.0, 2.0)
    header, *rows = tabulate_bounds(cs, orders, orders).splitlines()
    alone = [tabulate_bounds([c], orders, orders).splitlines() for c in cs]
    assert all(table[0] == header for table in alone)
    assert rows == [row for table in alone for row in table[1:]]


def test_bbar_matches_grid_oracle_order_one():
    for c in (0.3, 1 / math.sqrt(2), 0.9):
        for fam in ("renyi", "tsallis"):
            b = bbar(c, 1.0, 1.0, fam)
            assert b.value == pytest.approx(grid_oracle(c, 1.0, 1.0, fam), abs=1e-6)


def test_bbar_matches_grid_oracle_renyi_two():
    c = 1 / math.sqrt(2)
    b = bbar(c, 2.0, 2.0, "renyi")
    assert b.value == pytest.approx(grid_oracle(c, 2.0, 2.0, "renyi"), abs=1e-6)


def test_bbar_closed_form_at_conjugate_qubit_overlap():
    # at c = 1/sqrt(2) both low-order minima sit at theta = 0, where the
    # second distribution is (1/2, 1/2)
    c = 1 / math.sqrt(2)
    assert bbar(c, 0.3, 0.3, "tsallis").value == pytest.approx(
        (2 * 0.5 ** 0.3 - 1) / 0.7, abs=1e-9
    )
    assert bbar(c, 0.3, 0.3, "renyi").value == pytest.approx(LN2, abs=1e-9)


def test_bbar_argmin_within_range():
    b = bbar(0.4, 0.5, 2.0, "tsallis")
    assert 0.0 <= b.argmin_theta <= math.acos(0.4) + 1e-12
    assert b.value >= 0.0


def test_bbar_supports_order_zero():
    # the Hartley objective jumps at breakpoints, so no exact value is pinned
    b = bbar(0.6, 0.0, 1.0, "renyi")
    assert b.value >= 0.0


@pytest.mark.parametrize("c", [0.05, 0.3, 0.7])
@pytest.mark.parametrize("family", ["renyi", "tsallis"])
def test_slope_matches_central_differences_of_the_term(c, family):
    # five-point differences with h = 3e-4 leave at most 9e-7 of the largest slope, at the
    # edges of the Shannon branch too, where the term itself rounds to eps / |1 - alpha|
    orders = (0.3, 0.5, 1.0 - 2 * SHANNON_BRANCH, 1.0 + 2 * SHANNON_BRANCH, 2.0, 5.0, 20.0)
    families, breaks, h = [family] * len(orders), _breakpoints(c), 3e-4
    theta = np.linspace(0.0, math.acos(c), 2001)
    theta = theta[None, np.min(np.abs(theta[:, None] - breaks), axis=1) > 1e-2]

    def term(k):
        return _term(theta + k * h, orders, families, breaks)

    central = (term(-2) - 8 * term(-1) + 8 * term(1) - term(2)) / (12 * h)
    slope = _slope(theta, orders, families, breaks)
    scale = np.max(np.abs(slope), axis=1)
    assert np.all(scale > 0.0)
    assert np.all(np.max(np.abs(slope - central), axis=1) <= 1e-5 * scale), orders


def test_equal_orders_put_an_interior_argmin_exactly_at_half_eta():
    # at alpha = beta the objective is symmetric about eta/2, so a minimum found near eta/2 is
    # at eta/2, and Newton steps on the slope land there to rounding
    cs = np.linspace(0.5, 0.99, 50)
    orders = (0.3, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)
    _, argmins = bbar_bound(cs.tolist(), [(f, o, o) for f in ("renyi", "tsallis") for o in orders])
    error = np.abs(argmins - np.array([math.acos(c) / 2 for c in cs])[:, None])
    near = error <= 1e-6
    assert near.sum() >= 200
    assert error[near].max() <= 1e-12


def test_grid_fallback_gives_the_newton_values(monkeypatch):
    # with no Newton round allowed, every interior bracket falls back to grid steps; order 0,
    # whose flat pieces have no curvature, and c = 0.01, with its many small pieces, included
    cs = [0.01, 0.3, 1 / math.sqrt(2), 0.9]
    orders = (0.0, 0.3, 1.0, 2.0, 5.0)
    pairs = pairs_of(("renyi", "tsallis"), orders, orders)
    values, argmins = bbar_bound(cs, pairs)
    monkeypatch.setattr(bounds, "NEWTON_ROUNDS", 0)
    grid_values, grid_argmins = bbar_bound(cs, pairs)
    assert np.max(np.abs(grid_values - values)) <= 1e-13
    assert np.max(np.abs(grid_argmins - argmins)) <= 1e-6


@pytest.mark.parametrize("c, pair", [(0.767, ("renyi", 0.75, 1.0)),
                                     (0.763, ("tsallis", 0.75, 1.5))])
def test_bbar_finds_a_minimum_inside_the_end_cell_of_its_scan(c, pair):
    # the scan's best point is theta = 0, yet the objective dips about 4.5e-4 below it inside
    # the scan's first cell, so an end bracket must still be zoomed, not settled on its end
    family, alpha, beta = pair
    eta, breaks = math.acos(c), _breakpoints(c)

    def f(theta):
        return _objective([family], [alpha], [beta], breaks, theta[None], eta)[0]

    scan = f(np.linspace(0.0, eta, SCAN))
    assert np.argmin(scan) == 0
    dense = f(np.linspace(0.0, eta / (SCAN - 1), 100_001)).min()
    b = bbar(c, alpha, beta, family)
    assert b.value <= scan[0] - 4e-4
    assert abs(b.value - dense) <= 1e-9


def test_a_bracket_at_a_piece_end_is_settled_by_the_scan_and_never_reaches_newton(monkeypatch):
    # the scan also evaluates each piece at 16**-7, ..., 16**-1 of its end cells, so a piece end
    # that stays best leaves a bracket narrower than THETA_TOL.  At c = 0.01, Tsallis (2, 2), the
    # minimum sits at a piece end beside slivers whose concave objective stops Newton steps at
    # once: no bracket falls back, and the bound is the objective at that end
    at_ends, reached, fell_back = [], [], []
    zoom, newton = bounds._zoom, bounds._newton

    def spying_zoom(x, fx, lo, hi, *rest):
        at_ends.append(np.sum((x == lo) | (x == hi)))
        return zoom(x, fx, lo, hi, *rest)

    def spying_newton(x, fx, lo, hi, eta, rows, objective, live):
        reached.append((lo[live] < x[live]) & (x[live] < hi[live]))
        fell_back.append(newton(x, fx, lo, hi, eta, rows, objective, live))
        return fell_back[-1]

    monkeypatch.setattr(bounds, "_zoom", spying_zoom)
    monkeypatch.setattr(bounds, "_newton", spying_newton)
    c = 0.01
    eta, breaks = math.acos(c), _breakpoints(c)
    b = bbar(c, 2.0, 2.0, "tsallis")
    assert sum(at_ends) > 0 and sum(map(len, fell_back)) == 0
    assert b.argmin_theta in eta - breaks
    assert b.value == _objective(["tsallis"], [2.0], [2.0], breaks, np.array([[b.argmin_theta]]),
                                 eta)[0, 0]
    # every bracket that reaches Newton holds its best scan point strictly inside, over many c,
    # both families and orders from 0, whose flat pieces tie their ends, to 20
    at_ends[:] = reached[:] = []
    orders = (0.0, 0.3, 0.9999, 1.0, 1.001, 2.0, 20.0)
    bbar_bound([0.01, 0.05, 0.3, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.9, 0.999999],
               pairs_of(("renyi", "tsallis"), orders, orders))
    assert sum(at_ends) > 0 and sum(map(len, reached)) > 0
    assert all(map(np.all, reached))


def test_bbar_bound_memory_stays_capped_at_many_pieces():
    # at c = 0.02 each c has about 5000 pieces, zoomed in chunks of at most _MAX_POINTS
    # objective values per family per step; uncapped, the first scan alone would hold 83 MB.
    # At c = 0.01, about 20000 ends and 72 pairs, the peak is the piece prune's (pairs x ends)
    # arrays: 60 MB, where taking each piece's ends apart held 83 MB
    for c, orders, cap in (
            (0.02, (0.3, 0.5, 1.0, 2.0), 16e6),
            (0.01, (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0), 70e6)):
        tracemalloc.start()
        try:
            bbar_bound([c], pairs_of(("tsallis", "renyi"), orders, orders))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cap, (c, peak)


def test_bbar_rejects_invalid_c():
    with pytest.raises(ValueError):
        bbar(0.0, 1.0, 1.0, "renyi")
    with pytest.raises(ValueError):
        bbar(1.2, 1.0, 1.0, "tsallis")


@pytest.mark.parametrize("c", [0.05, 0.3, 0.6, 0.9])
def test_computed_terms_never_decrease_along_theta(c):
    # the premise of bbar_bound's pruning, checked on the computed values themselves, with the
    # breakpoints and their mirror images, where the remainder is exactly 0, on the grid
    eta, breaks = math.acos(c), _breakpoints(c)
    theta = oracle_grid_points(eta, 20001)
    families = [f for f in ("renyi", "tsallis") for _ in MONOTONE_ORDERS]
    terms = _term(theta[None], MONOTONE_ORDERS * 2, families, breaks)
    for (family, order), row in zip(zip(families, MONOTONE_ORDERS * 2), terms):
        assert np.all(np.diff(row) >= 0.0), (family, order)


# (cs, orders): unpruned, the cost grows as c**-2 times the pairs, so at C_FLOOR only the
# ends of the orders' range, both sides of the Shannon branch and Hartley, are taken
@pytest.mark.parametrize("cs, orders", [
    ([C_FLOOR], (0.0, 1.0 - 1e-8, 20.0)),
    ([*np.exp(np.random.default_rng(23).uniform(math.log(0.05), 0.0, 5)), 1 / math.sqrt(3), 1.0],
     MONOTONE_ORDERS),
])
def test_pruning_changes_no_value_and_no_argmin(monkeypatch, cs, orders):
    # a dropped piece or bracket could not have held the minimum: with an infinite slack
    # nothing is dropped, and every value and argmin_theta stays bit for bit the same
    pairs = pairs_of(("renyi", "tsallis"), orders, orders)
    pruned = bbar_bound(cs, pairs)
    monkeypatch.setattr(bounds, "PRUNE_SLACK", math.inf)
    everything = bbar_bound(cs, pairs)
    for got, want in zip(pruned, everything):
        assert np.array_equal(got, want)


def test_pruning_zooms_fewer_brackets_than_exist(monkeypatch):
    # at c = 0.05 each of the 20 unordered pairs has one bracket per piece; with an infinite
    # slack every one of them reaches the zoom, and with PRUNE_SLACK 55 of the 15,940 do
    zoomed = []

    def counting(x, *args):
        zoomed.append(len(x))
        return zoom(x, *args)

    zoom = bounds._zoom
    monkeypatch.setattr(bounds, "_zoom", counting)
    orders = (0.3, 0.5, 1.0, 2.0)
    pairs = pairs_of(("renyi", "tsallis"), orders, orders)
    bbar_bound([0.05], pairs)
    pruned, zoomed[:] = sum(zoomed), []
    monkeypatch.setattr(bounds, "PRUNE_SLACK", math.inf)
    bbar_bound([0.05], pairs)
    eta = math.acos(0.05)
    inner = _breakpoints(0.05)[1:]
    pieces = np.unique(np.concatenate([[0.0, eta], inner[inner < eta], eta - inner[inner < eta]]))
    assert sum(zoomed) == 20 * (pieces.size - 1)
    assert pruned < sum(zoomed) / 100


@pytest.mark.parametrize("empty", ["cs", "pairs"])
def test_bbar_bound_names_an_empty_grid(empty):
    grid = {"cs": [0.5], "pairs": [("renyi", 1.0, 1.0)], empty: []}
    with pytest.raises(ValueError, match=f"{empty} must not be empty"):
        bbar_bound(grid["cs"], grid["pairs"])


def test_bbar_bound_rejects_the_shannon_family():
    # the Shannon order is the alpha = 1 member of both families, not a family of B-bar
    with pytest.raises(ValueError, match="family must be 'renyi' or 'tsallis', got 'shannon'"):
        bbar_bound([0.5], [("renyi", 1.0, 1.0), ("shannon", 1.0, 1.0)])


# --- conjugacy bounds ----------------------------------------------------------------


def test_mu_bounds_trivial_at_full_overlap():
    mt, mr = mu_bounds(1.0, 1.0, 1.0)
    assert mt == 0.0
    assert mr == 0.0


def test_mu_bounds_order_one():
    mt, mr = mu_bounds(1 / math.sqrt(2), 1.0, 1.0)
    assert mt == pytest.approx(LN2, abs=1e-12)
    assert mr == pytest.approx(LN2, abs=1e-12)


def test_mu_bounds_order_two():
    # alpha = 2 forces beta = 2/3 and mu = 2; alpha_log(2, 2) = 1/2
    mt, mr = mu_bounds(1 / math.sqrt(2), 2.0, 2.0 / 3.0)
    assert mt == pytest.approx(0.5, abs=1e-12)
    assert mr == pytest.approx(LN2, abs=1e-12)


def test_mu_bounds_constraint_enforced():
    with pytest.raises(AdmissibilityError):
        mu_bounds(0.5, 2.0, 2.0)
    for c in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"overlap characteristic must lie in \(0, 1\]"):
            mu_bounds(c, 1.0, 1.0)


def test_bound_value_must_be_finite(monkeypatch):
    # a minimised bound that is not finite is rejected before any table is built
    chunk = sample_instance(2, [1])
    for value in (math.nan, math.inf):
        monkeypatch.setattr("etoff.bounds.bbar_bound", lambda cs, pairs, value=value: (
            np.full((len(cs), len(pairs)), value), np.zeros((len(cs), len(pairs)))))
        with pytest.raises(ValueError, match="bound value must be finite"):
            certify_grid(chunk, [("Prop2", 1.0, 1.0)], SearchConfig(restarts=0), [None])


def test_mu_consistency_with_classic_bound(rng):
    for c in (0.2, 1 / math.sqrt(3), 0.8, 1.0):
        mt, mr = mu_bounds(c, 1.0, 1.0)
        ref = -2 * math.log(c)
        assert abs(mt - ref) < 1e-12
        assert abs(mr - ref) < 1e-12


def test_bound_families_differ_somewhere():
    # the minimised bound is not always the conjugacy bound at order one;
    # record the direction per overlap value and require a strict gap somewhere
    directions = {}
    for c in (0.15, 0.3, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.9):
        bb = bbar(c, 1.0, 1.0, "renyi").value
        mu = mu_bounds(c, 1.0, 1.0)[1]
        directions[c] = "mu" if mu > bb + 1e-9 else ("bbar" if bb > mu + 1e-9 else "tie")
    assert any(v != "tie" for v in directions.values())


# --- admissibility and certification -----------------------------------------------


def test_admissibility_rules():
    check_admissible("Prop1", 5.0, 0.2, 3)
    check_admissible("Prop2", 0.5, 1.0, 3)
    check_admissible("Prop2", 2.0, 1.5, 2)
    check_admissible("Prop3", 2.0, 2.0 / 3.0, 3)
    check_admissible("Binary", 2.0, 2.0 / 3.0, 2)
    with pytest.raises(AdmissibilityError):
        check_admissible("Prop2", 1.5, 1.0, 3)
    with pytest.raises(AdmissibilityError):
        check_admissible("Prop3", 2.0, 2.0, 3)
    with pytest.raises(AdmissibilityError):
        check_admissible("Binary", 1.0, 1.0, 3)
    with pytest.raises(AdmissibilityError):
        check_admissible("Binary", 3.0, 0.6, 2)
    with pytest.raises(AdmissibilityError):
        check_admissible("Prop1", -1.0, 1.0, 2)
    with pytest.raises(AdmissibilityError):
        check_admissible("Nope", 1.0, 1.0, 2)
    # non-finite orders are named with the relation, not skipped or left to a bound
    with pytest.raises(AdmissibilityError, match="Prop3: .*nan"):
        check_admissible("Prop3", math.nan, 1.0, 2)
    with pytest.raises(AdmissibilityError, match="Binary: .*inf"):
        check_admissible("Binary", math.inf, 0.5, 2)
    with pytest.raises(AdmissibilityError, match="Prop1: .*nan"):
        check_admissible("Prop1", 1.0, math.nan, 3)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-11, math.inf])
def test_renyi_relations_admit_exactly_the_orders_check_order_admits(dim, offset):
    alpha = (2.0 if dim == 2 else 1.0) + offset
    try:
        check_order(EntropyOrder.renyi(alpha), dim)
        admitted = True
    except AdmissibilityError:
        admitted = False
    assert admitted == (offset < 1e-12)
    cases = [("Prop2", alpha, 0.5), ("Prop2", 0.5, alpha)]
    if dim == 2:  # Binary: d = 2 only, with 1/alpha + 1/beta = 2
        conjugate = 1.0 / (2.0 - 1.0 / alpha)
        cases += [("Binary", alpha, conjugate), ("Binary", conjugate, alpha)]
    for relation, a, b in cases:
        try:
            check_admissible(relation, a, b, dim)
        except AdmissibilityError as exc:
            assert not admitted and relation in str(exc)
        else:
            assert admitted


def test_certify_saturation_anchor(anchor):
    x_obs, z_obs, inst = anchor
    cert = certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3", SearchConfig(restarts=0))
    assert cert.relation.tolist() == ["Prop3"]
    assert cert.noise[0] == pytest.approx(LN2, abs=1e-9)
    assert cert.disturbance[0] == pytest.approx(0.0, abs=1e-9)
    assert cert.c[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert cert.bound[0] == pytest.approx(LN2, abs=1e-9)
    assert abs(cert.margin[0]) <= 1e-7
    assert cert.passed.tolist() == [True]


def test_certify_trivial_instrument_maximal_noise():
    x_obs = sample_random_observable(3, None, seed=21)
    z_obs = sample_random_observable(3, None, seed=22)
    inst = trivial_instrument(3)
    cert = certify(x_obs, z_obs, inst, 2.0, 0.5, "Prop1", SearchConfig(restarts=0))
    assert cert.passed.tolist() == [True]
    assert cert.noise[0] == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-9)  # alpha_log(3) at order 2


def test_certify_rejects_inadmissible():
    x_obs, z_obs, inst = sample_one(3, 12)
    with pytest.raises(AdmissibilityError):
        certify(x_obs, z_obs, inst, 1.5, 1.0, "Prop2", SearchConfig(restarts=0))


def test_certify_binary_relation(anchor):
    x_obs, z_obs, inst = anchor
    cert = certify(x_obs, z_obs, inst, 2.0, 2.0 / 3.0, "Binary", SearchConfig(restarts=0))
    assert cert.bound_id.tolist() == ["STND_R1"]
    assert cert.bound[0] == pytest.approx(LN2, abs=1e-12)
    assert cert.passed.tolist() == [True]


def test_conjugacy_rows_carry_mu_and_no_argmin(anchor):
    # Prop3 and Binary rows record their order mu = max(alpha, beta), here 2, and no theta
    for relation, bound_id in (("Prop3", "MU_T"), ("Binary", "STND_R1")):
        cert = certify(*anchor, 2.0, 2.0 / 3.0, relation, SearchConfig(restarts=0))
        assert cert.bound_id.tolist() == [bound_id]
        assert cert.mu.tolist() == [2.0]
        assert np.isnan(cert.argmin_theta).all()
        (row,) = json_rows(cert)
        assert row["bound"]["mu"] == 2.0 and row["bound"]["argmin_theta"] is None


def test_certify_grid_requests_only_the_pairs_of_its_grid(monkeypatch):
    # at d = 3 Prop2 admits only orders <= 1, so B-bar is minimised for 25 Tsallis and
    # 9 Renyi pairs; every certificate is that of a call over both families' full grid
    requested = []

    def spy(cs, pairs):
        requested.append(list(pairs))
        return bbar_bound(cs, requested[-1])

    monkeypatch.setattr("etoff.bounds.bbar_bound", spy)
    for dim, want in ((2, 50), (3, 34)):
        chunk = sample_instance(dim, [300 + k for k in range(3)])
        grid, _ = admissible_grid(RELATIONS, DEFAULT_ALPHAS, DEFAULT_ALPHAS, dim)
        certs = certify_grid(chunk, grid, SearchConfig(restarts=0), [None] * 3)
        pairs = requested.pop()
        assert not requested
        assert len(pairs) == len(set(pairs)) == want
        minimised = np.flatnonzero(np.isin(certs.relation, ("Prop1", "Prop2")))
        rows = list(zip(*(getattr(certs, name)[minimised].tolist() for name in (
            "relation", "family", "alpha", "beta", "bound_id", "bound", "mu", "argmin_theta"))))
        assert sorted(pairs) == sorted({(family, a, b) for _, family, a, b, *_ in rows})
        cs = certs.c[::len(grid)].tolist()
        full = bbar_grids(cs, pairs_of(("tsallis", "renyi"), DEFAULT_ALPHAS, DEFAULT_ALPHAS))
        for k, (relation, family, a, b, bound_id, value, mu, theta) in zip(minimised, rows):
            assert bound_id == ("B_T", "B_R")[relation == "Prop2"]
            assert math.isnan(mu)
            assert (value, theta) == full[k // len(grid)][family, a, b]


def test_certify_grid_rejects_stacks_of_unequal_counts_before_any_work(monkeypatch):
    # a chunk is one stack each of X, Z and M, and one seed per instance: the four must
    # count the same instances, the error names the counts, and nothing is computed before it
    def no_work(*args):
        raise AssertionError("work started on a chunk of unequal counts")

    monkeypatch.setattr("etoff.noise_disturbance.flag_apply", no_work)
    monkeypatch.setattr("etoff.bounds.pair_overlaps", no_work)
    monkeypatch.setattr("etoff.bounds.bbar_bound", no_work)
    x_obs, z_obs, inst = sample_instance(2, [1, 2, 3])
    grid, search = [("Prop1", 1.0, 1.0)], SearchConfig(restarts=0)
    for chunk, seeds, counts in (((x_obs[:2], z_obs, inst), [1, 2, 3], (2, 3, 3, 3)),
                                 ((x_obs, z_obs[1:], inst), [1, 2, 3], (3, 2, 3, 3)),
                                 ((x_obs, z_obs, inst[:1]), [1, 2, 3], (3, 3, 1, 3)),
                                 ((x_obs, z_obs, inst), [1, 2], (3, 3, 3, 2))):
        with pytest.raises(ValueError, match="different numbers of instances: " +
                           re.escape(str(counts))):
            certify_grid(chunk, grid, search, seeds)


def test_certify_grid_skips_inadmissible():
    grid, skipped = admissible_grid(("Prop1", "Prop2"), (0.5, 1.0, 2.0), (0.5, 1.0), 3)
    certs = certify_grid(sample_instance(3, [55]), grid, SearchConfig(restarts=0), [55], seed=55)
    # Prop1 takes all six combinations; Prop2 at d=3 drops alpha = 2
    assert certs.relation.tolist() == ["Prop1"] * 6 + ["Prop2"] * 4
    assert skipped == 2
    assert certs.passed.all()


def test_a_relations_bound_does_not_depend_on_the_family_sharing_its_zoom():
    # Prop1 (Tsallis) and Prop2 (Renyi) share one B-bar call, whose brackets each stop on
    # their own, so a bound is bit for bit that of its relation alone
    orders = (0.3, 0.5, 1.0, 1.5, 2.0)
    for dim in (2, 3):
        chunk = sample_instance(dim, [100 + k for k in range(8)])
        search, seeds = SearchConfig(restarts=0), [None] * 8
        alone = {}
        for relation in ("Prop1", "Prop2"):
            grid, _ = admissible_grid((relation,), orders, orders, dim)
            alone[relation] = certify_grid(chunk, grid, search, seeds)
        grid, _ = admissible_grid(("Prop1", "Prop2"), orders, orders, dim)
        shared = json_rows(certify_grid(chunk, grid, search, seeds))
        for relation in ("Prop1", "Prop2"):
            # every column of every row, in instance order, serialised
            together = [row for row in shared if row["relation"] == relation]
            assert len(together) == alone[relation].relation.size
            assert json.dumps(together) == json.dumps(json_rows(alone[relation])), (dim, relation)


def test_certificate_json_and_csv_round_trip(anchor):
    x_obs, z_obs, inst = anchor
    cert = certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3", SearchConfig(restarts=0), seed=7)
    (data,) = json_rows(cert)
    for key in ("relation", "dim", "alpha", "beta", "family", "c", "noise",
                "disturbance", "margin", "passed", "seed"):
        assert [data[key]] == getattr(cert, key).tolist()
    assert [data["bound"]["value"]] == cert.bound.tolist()
    assert [data["bound"]["id"]] == cert.bound_id.tolist()
    assert [data["search"]["restarts"]] == cert.restarts.tolist()
    assert [data["search"]["best_candidate"]] == cert.best_candidate.tolist() == ["discard_flag"]
    row = certificates_to_csv(cert).splitlines()[1]
    assert row.split(",")[7] == "{:.9g}".format(cert.bound[0])


def test_certify_saturation_anchor_at_low_orders(anchor):
    # the minimised bound equals the noise at (0.3, 0.3), in both families
    x_obs, z_obs, inst = anchor
    for relation in ("Prop1", "Prop2"):
        cert = certify(x_obs, z_obs, inst, 0.3, 0.3, relation, SearchConfig(restarts=0))
        assert abs(cert.margin[0]) <= 1e-7
        assert cert.passed.tolist() == [True]
