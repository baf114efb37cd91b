import math

import numpy as np
import pytest

from etoff.decision import standard_decision
from etoff.entropy import (
    EntropyOrder,
    alpha_log,
    check_table,
    conditional_entropy,
    table_entropy_gradient,
)
from etoff.harness import sample_instance
from etoff.noise_disturbance import (
    GRAD_TOL,
    DegenerateObservable,
    OrderOutOfRange,
    SearchConfig,
    _correction_povm,
    _correction_table,
    _riemannian_gradient,
    discard_flag_correction,
    disturbance,
    disturbance_joint,
    error_and_fidelity,
    noise,
    noise_joint,
    reprepare_correction,
    ricochet_oracle,
)
from etoff.quantum import (
    basis_observable,
    flag_apply,
    luders_instrument,
    sample_random_instrument,
    sample_random_observable,
    trivial_instrument,
)

LN2 = math.log(2)


# --- noise ---------------------------------------------------------------------


def test_noise_joint_projective_measurement_is_diagonal(qubit_pair):
    _, z_obs = qubit_pair
    inst = luders_instrument(z_obs)
    j = noise_joint(z_obs, inst)
    assert np.allclose(j.table, np.diag([0.5, 0.5]), atol=1e-12)
    assert noise(z_obs, inst, [EntropyOrder.shannon()])[0] == pytest.approx(0.0, abs=1e-12)


def test_noise_joint_trivial_instrument(qubit_pair):
    x_obs, _ = qubit_pair
    inst = trivial_instrument(2)
    j = noise_joint(x_obs, inst)
    assert np.allclose(j.table, [[0.5], [0.5]], atol=1e-12)
    assert noise(x_obs, inst, [EntropyOrder.shannon()])[0] == pytest.approx(LN2, abs=1e-12)
    assert noise(x_obs, inst, [EntropyOrder.tsallis(2.0)])[0] == pytest.approx(
        alpha_log(2.0, 2.0), abs=1e-12
    )


def test_noise_joint_conjugate_pair_uniform(anchor):
    x_obs, _, inst = anchor
    j = noise_joint(x_obs, inst)
    assert np.allclose(j.table, np.full((2, 2), 0.25), atol=1e-12)
    assert noise(x_obs, inst, [EntropyOrder.renyi(1.0)])[0] == pytest.approx(LN2, abs=1e-9)


def test_noise_degenerate_observable_weights():
    obs = sample_random_observable(4, (2, 1, 1), seed=5)
    joint = noise_joint(obs, trivial_instrument(4))
    assert np.allclose(joint.marginal_rows(), [0.5, 0.25, 0.25], atol=1e-9)


def test_noise_renyi_order_restrictions(anchor):
    x_obs, _, inst = anchor
    noise(x_obs, inst, [EntropyOrder.renyi(2.0)])  # d = 2 admits up to 2
    with pytest.raises(OrderOutOfRange):
        noise(x_obs, inst, [EntropyOrder.renyi(2.5)])
    obs3 = sample_random_observable(3, None, seed=1)
    inst3 = trivial_instrument(3)
    with pytest.raises(OrderOutOfRange):
        noise(obs3, inst3, [EntropyOrder.renyi(1.5)])
    noise(obs3, inst3, [EntropyOrder.renyi(1.0)])


def test_noise_tsallis_any_positive_order(anchor):
    x_obs, _, inst = anchor
    assert noise(x_obs, inst, [EntropyOrder.tsallis(7.0)])[0] >= 0.0


def test_noise_of_many_orders_equals_one_conditional_entropy_per_order():
    x_obs, _, inst = sample_instance(2, 4)
    orders = [EntropyOrder(a, f) for f in ("renyi", "tsallis") for a in (0.3, 1.0, 1 + 1e-8, 2.0)]
    orders.append(EntropyOrder.shannon())
    joint = noise_joint(x_obs, inst)
    for order, value in zip(orders, noise(x_obs, inst, orders)):
        assert abs(value - conditional_entropy(joint, order)) <= 1e-12


# --- disturbance -------------------------------------------------------------------


def test_disturbance_joint_identity_instrument():
    z_obs = basis_observable(2)
    inst = trivial_instrument(2)
    psi = discard_flag_correction(inst, 2)
    j = disturbance_joint(z_obs, inst, psi)
    assert np.allclose(j.table, np.diag([0.5, 0.5]), atol=1e-12)


def test_disturbance_joint_projective_z(anchor):
    _, z_obs, inst = anchor
    psi = discard_flag_correction(inst, 2)
    j = disturbance_joint(z_obs, inst, psi)
    # Z eigenstates pass through the Z measurement untouched
    assert np.allclose(j.table, np.diag([0.5, 0.5]), atol=1e-12)


def test_disturbance_joint_conjugate_measurement(qubit_pair):
    x_obs, z_obs = qubit_pair
    inst = luders_instrument(x_obs)
    psi = discard_flag_correction(inst, 2)
    j = disturbance_joint(z_obs, inst, psi)
    assert np.allclose(j.table, np.full((2, 2), 0.25), atol=1e-12)


def test_disturbance_identity_instrument_zero():
    z_obs = basis_observable(2)
    (res,) = disturbance(z_obs, trivial_instrument(2), [EntropyOrder.shannon()],
                         SearchConfig(restarts=0))
    assert res.best_value == pytest.approx(0.0, abs=1e-12)
    assert res.best_candidate == "discard_flag"


def test_disturbance_projective_z_zero_via_reprepare(anchor):
    _, z_obs, inst = anchor
    (res,) = disturbance(z_obs, inst, [EntropyOrder.tsallis(1.3)], SearchConfig(restarts=0))
    assert res.best_value <= 1e-9


def test_disturbance_conjugate_measurement_saturates(qubit_pair):
    x_obs, z_obs = qubit_pair
    inst = luders_instrument(x_obs)
    (res,) = disturbance(z_obs, inst, [EntropyOrder.shannon()],
                         SearchConfig(restarts=2, iterations=150, seed=4))
    # the trade-off pins the disturbance at ln 2 because the noise is zero
    assert res.best_value >= LN2 - 1e-7
    assert res.best_value <= LN2 + 1e-9


def test_disturbance_more_restarts_never_worse():
    _, z_obs, inst = sample_instance(2, 17)
    vals = []
    for r in (0, 1, 2):
        (res,) = disturbance(z_obs, inst, [EntropyOrder.tsallis(2.0)],
                             SearchConfig(restarts=r, iterations=120, seed=99))
        vals.append(res.best_value)
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_disturbance_bounded_by_identity_correction():
    _, z_obs, inst = sample_instance(2, 31)
    ident = discard_flag_correction(inst, 2)
    order = EntropyOrder.tsallis(1.0)
    ident_val = conditional_entropy(disturbance_joint(z_obs, inst, ident), order)
    (res,) = disturbance(z_obs, inst, [order], SearchConfig(restarts=1, iterations=100, seed=2))
    assert res.best_value <= ident_val + 1e-12


def test_disturbance_one_order_equals_that_order_in_a_grid():
    _, z_obs, inst = sample_instance(2, 23)
    orders = [EntropyOrder.tsallis(a) for a in (0.3, 0.5, 1.0, 1.5, 2.0)]
    orders += [EntropyOrder.renyi(a) for a in (0.3, 0.5, 1.5, 2.0)]
    search = SearchConfig(restarts=2, iterations=90, seed=8)
    grid = disturbance(z_obs, inst, orders, search)
    for order, res in zip(orders, grid):
        (one,) = disturbance(z_obs, inst, [order], search)
        assert one.best_value == pytest.approx(res.best_value, abs=1e-12)
        assert one.best_candidate == res.best_candidate
        assert one.iterations == res.iterations


def test_disturbance_value_is_the_reported_channel_on_the_exact_path():
    for dim, seed in ((2, 3), (3, 4), (4, 5)):
        _, z_obs, inst = sample_instance(dim, seed)
        orders = [EntropyOrder.tsallis(0.5), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
        results = disturbance(z_obs, inst, orders, SearchConfig(restarts=2, iterations=60, seed=1))
        for order, res in zip(orders, results):
            j = disturbance_joint(z_obs, inst, res.best_channel)
            assert res.best_value == pytest.approx(conditional_entropy(j, order), abs=1e-12)


def test_disturbance_search_beats_both_fixed_corrections_at_d3():
    _, z_obs, inst = sample_instance(3, 0)
    order = EntropyOrder.tsallis(2.0)
    fixed = [discard_flag_correction(inst, 3), reprepare_correction(z_obs, inst)]
    fixed_values = [conditional_entropy(disturbance_joint(z_obs, inst, ch), order) for ch in fixed]
    (res,) = disturbance(z_obs, inst, [order], SearchConfig(restarts=1, iterations=150, seed=1))
    assert res.best_candidate == "parametrized_restart_0"
    assert res.best_value < min(fixed_values) - 0.1


def test_disturbance_converged_flag_is_a_stationarity_test(qubit_pair):
    x_obs, z_obs = qubit_pair
    # measuring the conjugate basis leaves every flagged Z state equal, so
    # every POVM is stationary and the generous search reports convergence
    (res,) = disturbance(z_obs, luders_instrument(x_obs), [EntropyOrder.shannon()],
                         SearchConfig(restarts=2, iterations=2000, seed=4))
    assert res.converged
    assert res.best_value == pytest.approx(LN2, abs=1e-12)
    # with one evaluation the search cannot move off its start, and the
    # best candidate (the flag-discarding identity here) is not stationary
    _, z_obs, inst = sample_instance(2, 1)
    (res,) = disturbance(z_obs, inst, [EntropyOrder.shannon()],
                         SearchConfig(restarts=1, iterations=1, seed=4))
    assert res.iterations == 1
    assert not res.converged
    (res,) = disturbance(z_obs, inst, [EntropyOrder.shannon()],
                         SearchConfig(restarts=1, iterations=2000, seed=4))
    assert res.converged


def test_disturbance_converged_flag_is_taken_at_each_orders_reported_channel():
    # one call scores every order's candidates together; each flag must still be the
    # stationarity test of that order's own winner
    _, z_obs, inst = sample_instance(2, 3)
    orders = [EntropyOrder.tsallis(2.0), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
    flagged = flag_apply(inst, z_obs.projectors)
    for iterations in (1, 2000):
        results = disturbance(z_obs, inst, orders, SearchConfig(2, iterations, seed=1))
        for order, res in zip(orders, results):
            kraus = res.best_channel.kraus
            _, grad = table_entropy_gradient(check_table(_correction_table(z_obs, flagged, kraus)), order)
            _, norm = _riemannian_gradient(_correction_povm(z_obs, kraus), grad, flagged / 2)
            assert res.converged == bool(norm < GRAD_TOL)
    assert all(res.converged and res.best_candidate.startswith("parametrized") for res in results)


def test_disturbance_shares_one_search_per_computed_entropy():
    _, z_obs, inst = sample_instance(2, 9)
    orders = [EntropyOrder.renyi(1.0), EntropyOrder.tsallis(1 + 1e-8), EntropyOrder.shannon()]
    results = disturbance(z_obs, inst, orders, SearchConfig(restarts=1, iterations=60, seed=2))
    assert results[0] is results[1] is results[2]
    assert results[0].iterations <= 60


def test_disturbance_without_restarts_runs_no_search():
    _, z_obs, inst = sample_instance(2, 9)
    (res,) = disturbance(z_obs, inst, [EntropyOrder.renyi(0.5)], SearchConfig(restarts=0, seed=2))
    assert res.iterations == 0
    assert res.best_candidate in ("discard_flag", "reprepare")


def test_noise_disturbance_shannon_agreement(anchor):
    x_obs, z_obs, inst = anchor
    for order in (EntropyOrder.shannon(), EntropyOrder.renyi(1.0), EntropyOrder.tsallis(1.0)):
        assert noise(x_obs, inst, [order])[0] == pytest.approx(LN2, abs=1e-9)
        (res,) = disturbance(z_obs, inst, [order], SearchConfig(restarts=0))
        assert res.best_value == pytest.approx(0.0, abs=1e-9)


def test_renyi_noise_monotone_in_order(qubit_pair):
    x_obs, _ = qubit_pair
    inst = sample_random_instrument(2, 2, 2, 2, seed=8)
    values = noise(x_obs, inst, [EntropyOrder.renyi(a) for a in (0.5, 1.0, 1.5, 2.0)])
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-10


def test_zero_noise_iff_zero_error(anchor):
    x_obs, z_obs, inst = anchor
    # the Z-measuring instrument identifies Z eigenstates perfectly ...
    nj = noise_joint(z_obs, inst)
    assert noise(z_obs, inst, [EntropyOrder.shannon()])[0] < 1e-9
    assert standard_decision(nj).p_error < 1e-9
    # ... and is maximally noisy for the conjugate observable
    nx = noise_joint(x_obs, inst)
    assert noise(x_obs, inst, [EntropyOrder.shannon()])[0] > 0.5
    assert standard_decision(nx).p_error > 0.4


# --- error probability and fidelity ---------------------------------------------------


def test_error_and_fidelity_perfect_correction(anchor):
    _, z_obs, inst = anchor
    psi = reprepare_correction(z_obs, inst)
    q_e, avg_f = error_and_fidelity(z_obs, inst, psi)
    assert q_e == pytest.approx(0.0, abs=1e-10)
    assert avg_f == pytest.approx(1.0, abs=1e-8)


def test_error_and_fidelity_depolarized(qubit_pair):
    x_obs, z_obs = qubit_pair
    # measuring the conjugate basis and discarding the flag fully dephases Z
    inst = luders_instrument(x_obs)
    psi = discard_flag_correction(inst, 2)
    q_e, avg_f = error_and_fidelity(z_obs, inst, psi)
    assert q_e == pytest.approx(0.5, abs=1e-10)
    assert avg_f == pytest.approx(0.5, abs=1e-8)


def test_error_and_fidelity_random_instances():
    for seed in range(20):
        x_obs, z_obs, inst = sample_instance(2, seed)
        psi = reprepare_correction(z_obs, inst)
        q_e, avg_f = error_and_fidelity(z_obs, inst, psi)
        assert abs((1.0 - q_e) - avg_f) < 1e-8


def test_error_and_fidelity_rejects_degenerate():
    z_obs = sample_random_observable(4, (2, 2), seed=6)
    inst = trivial_instrument(4)
    psi = discard_flag_correction(inst, 4)
    with pytest.raises(DegenerateObservable):
        error_and_fidelity(z_obs, inst, psi)


# --- combined-estimation consistency ----------------------------------------------------


def test_ricochet_trivial_instrument(qubit_pair):
    x_obs, z_obs = qubit_pair
    inst = trivial_instrument(2)
    rep = ricochet_oracle(x_obs, z_obs, inst, discard_flag_correction(inst, 2))
    assert rep.max_gap < 1e-12
    assert rep.povm_residual < 1e-12


def test_ricochet_projective_x_with_reprepare(anchor):
    x_obs, z_obs, inst = anchor
    rep = ricochet_oracle(x_obs, z_obs, inst, reprepare_correction(z_obs, inst))
    assert rep.max_gap < 1e-9
    assert rep.overlap_c == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert abs(rep.overlap_c - rep.overlap_c_transposed) < 1e-12


def test_ricochet_random_qutrit():
    x_obs, z_obs, inst = sample_instance(3, 14)
    rep = ricochet_oracle(x_obs, z_obs, inst, reprepare_correction(z_obs, inst))
    assert rep.max_gap < 1e-9
    assert rep.povm_residual < 1e-9


def test_ricochet_with_coarse_estimator(anchor):
    x_obs, z_obs, inst = anchor
    psi = reprepare_correction(z_obs, inst)
    rep = ricochet_oracle(x_obs, z_obs, inst, psi, estimator=lambda m, z: z)
    assert rep.max_gap < 1e-9
    assert rep.povm_residual < 1e-9


def test_ricochet_dimension_mismatch(anchor):
    x_obs, z_obs, inst = anchor
    obs3 = sample_random_observable(3, None, seed=2)
    with pytest.raises(ValueError):
        ricochet_oracle(obs3, z_obs, inst, reprepare_correction(z_obs, inst))
