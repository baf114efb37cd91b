import math

import numpy as np
import pytest

from etoff.bounds import (
    AdmissibilityError,
    ConstraintViolation,
    _breakpoints,
    _parametric_column,
    bbar_bound,
    certify,
    certify_grid,
    check_admissible,
    mu_bounds,
    overlap,
)
from etoff.harness import sample_instance
from etoff.noise_disturbance import SearchConfig
from etoff.quantum import (
    basis_observable,
    observable_from_basis,
    sample_random_observable,
    trivial_instrument,
)

LN2 = math.log(2)
# the six orders of the bounds-grid benchmark, both sides of the Shannon branch, and 5
ORACLE_ORDERS = (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 1.0 - 1e-8, 1.0 + 1e-8, 5.0)


def bbar(c, alpha, beta, family):
    return bbar_bound(c, [alpha], [beta], family)[alpha, beta]


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
    ch = overlap(obs, obs)
    assert ch.c == pytest.approx(1.0, abs=1e-12)
    assert ch.eta == pytest.approx(0.0, abs=1e-9)


def test_overlap_conjugate_qubit(qubit_pair):
    x_obs, z_obs = qubit_pair
    ch = overlap(x_obs, z_obs)
    assert ch.c == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert ch.eta == pytest.approx(math.pi / 4, abs=1e-9)


def test_overlap_fourier_qutrit():
    d = 3
    omega = np.exp(2j * math.pi / d)
    f = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / math.sqrt(d)
    ch = overlap(basis_observable(d), observable_from_basis(f))
    assert ch.c == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_overlap_symmetric_exactly(rng):
    for _ in range(10):
        a = sample_random_observable(3, None, rng)
        b = sample_random_observable(3, (2, 1), rng)
        assert overlap(a, b).c == overlap(b, a).c


def test_overlap_nondegenerate_range(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = sample_random_observable(d, None, rng)
        b = sample_random_observable(d, None, rng)
        c = overlap(a, b).c
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
            grid = bbar_bound(c, ORACLE_ORDERS, ORACLE_ORDERS, fam)
            for (alpha, beta), b in grid.items():
                want = grid_oracle(c, alpha, beta, fam)
                assert b.value == pytest.approx(want, abs=1e-6), (c, fam, alpha, beta)


def test_bbar_grid_call_equals_one_call_per_pair():
    # the grid minimises every pair through one order-per-column kernel call per term
    orders = (0.0, 0.3, 1.0, 1.0 + 1e-8, 2.0, 5.0)
    for c in (0.3, 1 / math.sqrt(3), 0.8, 0.999999):
        for fam in ("renyi", "tsallis"):
            with np.errstate(all="raise"):
                grid = bbar_bound(c, orders, orders, fam)
                for (alpha, beta), b in grid.items():
                    assert abs(b.value - bbar(c, alpha, beta, fam).value) <= 1e-12


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
    with pytest.raises(ConstraintViolation):
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
    certs, skipped = certify_grid(
        x_obs, z_obs, inst,
        ("Prop1", "Prop2"), (0.5, 1.0, 2.0), (0.5, 1.0),
        SearchConfig(restarts=0), seed=55,
    )
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
