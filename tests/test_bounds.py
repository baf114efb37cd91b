import math

import numpy as np
import pytest

from etoff.bounds import (
    AdmissibilityError,
    _breakpoints,
    _objective,
    _parametric_column,
    admissible_grid,
    bbar_bound,
    certify,
    certify_grid,
    check_admissible,
    mu_bounds,
    overlap,
)
from etoff.entropy import EntropyOrder
from etoff.harness import sample_instance, tabulate_bounds
from etoff.noise_disturbance import SearchConfig, check_order
from etoff.quantum import (
    basis_observable,
    observable_from_basis,
    sample_random_observable,
    trivial_instrument,
)

LN2 = math.log(2)
# the six orders of the bounds-grid benchmark, both sides of the Shannon branch, and 5
ORACLE_ORDERS = (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 1.0 - 1e-8, 1.0 + 1e-8, 5.0)
# at cos(pi/4 + 1e-11) the piece [pi/4, eta] is narrower than THETA_TOL
PRECISION_CS = (0.1, 0.3, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.8, 0.999999,
                math.cos(math.pi / 4 + 1e-11))
PRECISION_ORDERS = (0.0, 0.3, 1.0 - 1e-8, 1.0 + 1e-8, 2.0, 5.0)


def bbar(c, alpha, beta, family):
    (grid,) = bbar_bound([c], [alpha], [beta], family)
    return grid[alpha, beta]


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
    c = overlap(obs, obs)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert math.acos(c) == pytest.approx(0.0, abs=1e-9)


def test_overlap_conjugate_qubit(qubit_pair):
    x_obs, z_obs = qubit_pair
    c = overlap(x_obs, z_obs)
    assert c == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert math.acos(c) == pytest.approx(math.pi / 4, abs=1e-9)


def test_overlap_fourier_qutrit():
    d = 3
    omega = np.exp(2j * math.pi / d)
    f = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / math.sqrt(d)
    c = overlap(basis_observable(d), observable_from_basis(f))
    assert c == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_overlap_symmetric_exactly(rng):
    for _ in range(10):
        a = sample_random_observable(3, None, rng)
        b = sample_random_observable(3, (2, 1), rng)
        assert overlap(a, b) == overlap(b, a)


def test_overlap_nondegenerate_range(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = sample_random_observable(d, None, rng)
        b = sample_random_observable(d, None, rng)
        c = overlap(a, b)
        assert 1 / math.sqrt(d) - 1e-9 <= c <= 1.0 + 1e-12


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap(basis_observable(2), basis_observable(3))


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
            (grid,) = bbar_bound([c], ORACLE_ORDERS, ORACLE_ORDERS, fam)
            for (alpha, beta), b in grid.items():
                want = grid_oracle(c, alpha, beta, fam)
                assert b.value == pytest.approx(want, abs=1e-6), (c, fam, alpha, beta)


def test_bbar_grid_call_equals_one_call_per_pair():
    # the grid minimises every pair through one order-per-column kernel call per term
    orders = (0.0, 0.3, 1.0, 1.0 + 1e-8, 2.0, 5.0)
    for c in (0.3, 1 / math.sqrt(3), 0.8, 0.999999):
        for fam in ("renyi", "tsallis"):
            with np.errstate(all="raise"):
                (grid,) = bbar_bound([c], orders, orders, fam)
                for (alpha, beta), b in grid.items():
                    assert abs(b.value - bbar(c, alpha, beta, fam).value) <= 1e-12


def test_bbar_over_many_c_equals_one_call_per_c():
    # one call zooms the pieces of every c together (21 pieces at c = 0.3, none at c = 1;
    # at c = 0.1 more than one zoom step holds), and each c keeps its own stopping rule
    cs = (0.3, 0.55, 0.8, 0.99, 1.0, 0.1)
    orders = (0.3, 0.5, 1.0, 1.5, 2.0)
    for fam in ("renyi", "tsallis"):
        with np.errstate(all="raise"):
            together = bbar_bound(cs, orders, orders, fam)
            for c, grid in zip(cs, together):
                (alone,) = bbar_bound([c], orders, orders, fam)
                assert grid == alone, (c, fam)


@pytest.mark.parametrize("family", ["renyi", "tsallis"])
@pytest.mark.parametrize("c", PRECISION_CS)
def test_bbar_value_is_the_objective_at_its_argmin_and_no_nearby_theta_is_lower(c, family):
    eta, breaks = math.acos(c), _breakpoints(c)
    (grid,) = bbar_bound([c], PRECISION_ORDERS, PRECISION_ORDERS, family)
    for (alpha, beta), b in grid.items():
        at = _objective([alpha], [beta], family, breaks, np.array([[[b.argmin_theta]]]), eta)
        assert b.value == at[0, 0, 0], (alpha, beta)
        near = np.linspace(b.argmin_theta - 1e-6, b.argmin_theta + 1e-6, 2001)
        vals = _objective([alpha], [beta], family, breaks, np.clip(near, 0.0, eta)[None, None], eta)
        assert vals.min() >= b.value - 1e-13, (alpha, beta)


def test_bound_table_over_many_c_equals_one_table_per_c():
    # one bbar_bound call per family covers every c of the table
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


def test_bbar_rejects_invalid_c():
    with pytest.raises(ValueError):
        bbar(0.0, 1.0, 1.0, "renyi")
    with pytest.raises(ValueError):
        bbar(1.2, 1.0, 1.0, "tsallis")


# --- conjugacy bounds ----------------------------------------------------------------


def test_mu_bounds_trivial_at_full_overlap():
    mt, mr = mu_bounds(1.0, 1.0, 1.0)
    assert mt.value == 0.0
    assert mr.value == 0.0


def test_mu_bounds_order_one():
    mt, mr = mu_bounds(1 / math.sqrt(2), 1.0, 1.0)
    assert mt.value == pytest.approx(LN2, abs=1e-12)
    assert mr.value == pytest.approx(LN2, abs=1e-12)


def test_mu_bounds_order_two():
    # alpha = 2 forces beta = 2/3 and mu = 2; alpha_log(2, 2) = 1/2
    mt, mr = mu_bounds(1 / math.sqrt(2), 2.0, 2.0 / 3.0)
    assert mt.value == pytest.approx(0.5, abs=1e-12)
    assert mr.value == pytest.approx(LN2, abs=1e-12)
    assert mt.mu == 2.0


def test_mu_bounds_constraint_enforced():
    with pytest.raises(AdmissibilityError):
        mu_bounds(0.5, 2.0, 2.0)


def test_mu_consistency_with_classic_bound(rng):
    for c in (0.2, 1 / math.sqrt(3), 0.8, 1.0):
        mt, mr = mu_bounds(c, 1.0, 1.0)
        ref = -2 * math.log(c)
        assert abs(mt.value - ref) < 1e-12
        assert abs(mr.value - ref) < 1e-12


def test_bound_families_differ_somewhere():
    # the minimised bound is not always the conjugacy bound at order one;
    # record the direction per overlap value and require a strict gap somewhere
    directions = {}
    for c in (0.15, 0.3, 1 / math.sqrt(3), 1 / math.sqrt(2), 0.9):
        bb = bbar(c, 1.0, 1.0, "renyi").value
        mu = mu_bounds(c, 1.0, 1.0)[1].value
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
    assert cert.noise == pytest.approx(LN2, abs=1e-9)
    assert cert.disturbance == pytest.approx(0.0, abs=1e-9)
    assert cert.c == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert cert.bound.value == pytest.approx(LN2, abs=1e-9)
    assert abs(cert.margin) <= 1e-7
    assert cert.passed


def test_certify_trivial_instrument_maximal_noise():
    x_obs = sample_random_observable(3, None, seed=21)
    z_obs = sample_random_observable(3, None, seed=22)
    inst = trivial_instrument(3)
    cert = certify(x_obs, z_obs, inst, 2.0, 0.5, "Prop1", SearchConfig(restarts=0))
    assert cert.passed
    assert cert.noise == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-9)  # alpha_log(3) at order 2


def test_certify_rejects_inadmissible():
    x_obs, z_obs, inst = sample_instance(3, 12)
    with pytest.raises(AdmissibilityError):
        certify(x_obs, z_obs, inst, 1.5, 1.0, "Prop2", SearchConfig(restarts=0))


def test_certify_binary_relation(anchor):
    x_obs, z_obs, inst = anchor
    cert = certify(x_obs, z_obs, inst, 2.0, 2.0 / 3.0, "Binary", SearchConfig(restarts=0))
    assert cert.bound.bound_id == "STND_R1"
    assert cert.bound.value == pytest.approx(LN2, abs=1e-12)
    assert cert.passed


def test_certify_grid_skips_inadmissible():
    x_obs, z_obs, inst = sample_instance(3, 55)
    grid, skipped = admissible_grid(("Prop1", "Prop2"), (0.5, 1.0, 2.0), (0.5, 1.0), 3)
    certs = certify_grid([(x_obs, z_obs, inst)], grid, [SearchConfig(restarts=0)], seed=55)
    # Prop1 takes all six combinations; Prop2 at d=3 drops alpha = 2
    assert len(certs) == 6 + 4
    assert skipped == 2
    assert all(c.passed for c in certs)


def test_certificate_json_and_csv_round_trip(anchor):
    x_obs, z_obs, inst = anchor
    cert = certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3", SearchConfig(restarts=0), seed=7)
    data = cert.to_json_dict()
    for key in ("relation", "dim", "alpha", "beta", "family", "c", "noise",
                "disturbance", "margin", "passed", "seed"):
        assert data[key] == getattr(cert, key)
    assert data["bound"]["value"] == cert.bound.value
    assert data["bound"]["id"] == cert.bound.bound_id
    assert data["search"]["restarts"] == cert.restarts
    assert data["search"]["best_candidate"] == cert.best_candidate == "discard_flag"
    assert cert.to_csv_row().split(",")[7] == "{:.9g}".format(cert.bound.value)


def test_certify_saturation_anchor_at_low_orders(anchor):
    # the minimised bound equals the noise at (0.3, 0.3), in both families
    x_obs, z_obs, inst = anchor
    for relation in ("Prop1", "Prop2"):
        cert = certify(x_obs, z_obs, inst, 0.3, 0.3, relation, SearchConfig(restarts=0))
        assert abs(cert.margin) <= 1e-7
        assert cert.passed
