import math
from dataclasses import fields

import numpy as np
import pytest

from etoff import noise_disturbance
from etoff.decision import standard_decision
from etoff.entropy import (
    EntropyOrder,
    alpha_log,
    check_table,
    conditional_entropy,
    conditional_entropy_gradient,
)
from etoff.bounds import admissible_grid, relation_family
from etoff.harness import (
    CHUNK,
    RunConfig,
    run_sweep,
    sample_instance,
    saturation_instance,
    unsharp_luders_instance,
)
from etoff.noise_disturbance import (
    ANGLE_TOL,
    GRAD_TOL,
    AdmissibilityError,
    SearchConfig,
    _flagged,
    _povm_search,
    _checked_povm,
    _riemannian_gradient,
    _square_root,
    _support,
    _table,
    discard_flag_correction,
    disturbance,
    disturbance_joint,
    noise,
    noise_joint,
    reprepare_correction,
    square_root_correction,
)
from etoff.linalg import dagger
from etoff.quantum import (
    QuantumInstrument,
    basis_observable,
    flag_apply,
    luders_instrument,
    sample_haar_unitary,
    sample_random_instrument,
    sample_random_instruments,
    sample_random_observable,
    sample_random_observables,
    trivial_instrument,
)

from conftest import sample_one

LN2 = math.log(2)


def disturbance_alone(z_obs, inst, orders, search, seed=None):
    """``disturbance`` on a chunk of one instance: its five arrays, one entry per order."""
    return tuple(a[0] for a in disturbance(z_obs[None], inst[None], orders, search, [seed]))


# --- noise ---------------------------------------------------------------------


def test_noise_joint_projective_measurement_is_diagonal(qubit_pair):
    _, z_obs = qubit_pair
    inst = luders_instrument(z_obs)
    j = noise_joint(z_obs, inst)
    assert np.allclose(j, np.diag([0.5, 0.5]), atol=1e-12)
    assert noise(z_obs[None], inst[None], [EntropyOrder.shannon()])[0][0] == pytest.approx(
        0.0, abs=1e-12)


def test_noise_joint_trivial_instrument(qubit_pair):
    x_obs, _ = qubit_pair
    inst = trivial_instrument(2)
    j = noise_joint(x_obs, inst)
    assert np.allclose(j, [[0.5], [0.5]], atol=1e-12)
    assert noise(x_obs[None], inst[None], [EntropyOrder.shannon()])[0][0] == pytest.approx(
        LN2, abs=1e-12)
    assert noise(x_obs[None], inst[None], [EntropyOrder.tsallis(2.0)])[0][0] == pytest.approx(
        alpha_log(2.0, 2.0), abs=1e-12
    )


def test_noise_joint_conjugate_pair_uniform(anchor):
    x_obs, _, inst = anchor
    j = noise_joint(x_obs, inst)
    assert np.allclose(j, np.full((2, 2), 0.25), atol=1e-12)
    assert noise(x_obs[None], inst[None], [EntropyOrder.renyi(1.0)])[0][0] == pytest.approx(
        LN2, abs=1e-9)


def test_noise_degenerate_observable_weights():
    obs = sample_random_observable(4, (2, 1, 1), seed=5)
    joint = noise_joint(obs, trivial_instrument(4))
    assert np.allclose(joint.sum(axis=1), [0.5, 0.25, 0.25], atol=1e-9)


def test_noise_renyi_order_restrictions(anchor):
    x_obs, _, inst = anchor
    noise(x_obs[None], inst[None], [EntropyOrder.renyi(2.0)])  # d = 2 admits up to 2
    with pytest.raises(AdmissibilityError):
        noise(x_obs[None], inst[None], [EntropyOrder.renyi(2.5)])
    obs3 = sample_random_observable(3, None, seed=1)
    inst3 = trivial_instrument(3)
    with pytest.raises(AdmissibilityError):
        noise(obs3[None], inst3[None], [EntropyOrder.renyi(1.5)])
    noise(obs3[None], inst3[None], [EntropyOrder.renyi(1.0)])


def test_noise_tsallis_any_positive_order(anchor):
    x_obs, _, inst = anchor
    assert noise(x_obs[None], inst[None], [EntropyOrder.tsallis(7.0)])[0][0] >= 0.0


def test_noise_of_many_orders_equals_one_conditional_entropy_per_order():
    x_obs, _, inst = sample_one(2, 4)
    orders = [EntropyOrder(a, f) for f in ("renyi", "tsallis") for a in (0.3, 1.0, 1 + 1e-8, 2.0)]
    orders.append(EntropyOrder.shannon())
    joint = noise_joint(x_obs, inst)
    for order, value in zip(orders, noise(x_obs[None], inst[None], orders)[0]):
        assert abs(value - conditional_entropy(joint, order)) <= 1e-12


def test_noise_and_disturbance_take_stacks_of_equal_length():
    x_obs, z_obs, inst = sample_instance(2, [1, 2])
    orders, search = [EntropyOrder.shannon()], SearchConfig(restarts=0)
    for bad in (lambda: noise(x_obs[0], inst[0], orders), lambda: noise(x_obs, inst[:1], orders),
                lambda: disturbance(z_obs[:1], inst, orders, search, [None])):
        with pytest.raises(ValueError, match="expected stacks of k observables and k instruments"):
            bad()


def test_noise_and_disturbance_joint_reject_mismatched_dimensions():
    obs, inst = basis_observable(3), trivial_instrument(2)
    with pytest.raises(ValueError, match="observable dim 3 != instrument input dim 2"):
        noise(obs[None], inst[None], [EntropyOrder.shannon()])
    with pytest.raises(ValueError, match="observable dim 3 != instrument input dim 2"):
        disturbance_joint(obs, inst, np.broadcast_to(np.eye(2), (1, 3, 2, 2)) / 3)


# --- disturbance -------------------------------------------------------------------


def test_disturbance_joint_identity_instrument():
    z_obs = basis_observable(2)
    inst = trivial_instrument(2)
    psi = discard_flag_correction(z_obs, inst)
    j = disturbance_joint(z_obs, inst, psi)
    assert np.allclose(j, np.diag([0.5, 0.5]), atol=1e-12)


def test_disturbance_joint_projective_z(anchor):
    _, z_obs, inst = anchor
    psi = discard_flag_correction(z_obs, inst)
    j = disturbance_joint(z_obs, inst, psi)
    # Z eigenstates pass through the Z measurement untouched
    assert np.allclose(j, np.diag([0.5, 0.5]), atol=1e-12)


def test_disturbance_joint_conjugate_measurement(qubit_pair):
    x_obs, z_obs = qubit_pair
    inst = luders_instrument(x_obs)
    psi = discard_flag_correction(z_obs, inst)
    j = disturbance_joint(z_obs, inst, psi)
    assert np.allclose(j, np.full((2, 2), 0.25), atol=1e-12)


def test_disturbance_identity_instrument_zero():
    z_obs = basis_observable(2)
    value, _, _, _, name = disturbance_alone(z_obs, trivial_instrument(2),
                                             [EntropyOrder.shannon()], SearchConfig(restarts=0))
    assert value[0] == pytest.approx(0.0, abs=1e-12)
    assert name[0] == "discard_flag"


def test_disturbance_projective_z_zero_via_reprepare(anchor):
    _, z_obs, inst = anchor
    value = disturbance_alone(z_obs, inst, [EntropyOrder.tsallis(1.3)], SearchConfig(restarts=0))[0]
    assert value[0] <= 1e-9


def test_disturbance_conjugate_measurement_saturates(qubit_pair):
    x_obs, z_obs = qubit_pair
    inst = luders_instrument(x_obs)
    value = disturbance_alone(z_obs, inst, [EntropyOrder.shannon()],
                              SearchConfig(restarts=2, iterations=150), seed=4)[0]
    # the trade-off pins the disturbance at ln 2 because the noise is zero
    assert value[0] >= LN2 - 1e-7
    assert value[0] <= LN2 + 1e-9


def test_disturbance_more_restarts_never_worse():
    _, z_obs, inst = sample_one(2, 17)
    vals = []
    for r in (0, 1, 2):
        value = disturbance_alone(z_obs, inst, [EntropyOrder.tsallis(2.0)],
                                  SearchConfig(restarts=r, iterations=120), seed=99)[0]
        vals.append(value[0])
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_disturbance_more_iterations_never_worse():
    # a bigger budget continues each restart's descent where a smaller one stops it
    orders = [EntropyOrder.tsallis(0.5), EntropyOrder.tsallis(2.0), EntropyOrder.renyi(0.5),
              EntropyOrder.shannon()]
    for dim, seeds in ((2, (17, 18, 19, 20)), (3, (21, 22, 23))):
        _, z_obs, inst = sample_instance(dim, seeds)
        previous = None
        for budget in (4, 7, 13, 25, 50, 100, 200, 400):
            search = SearchConfig(restarts=2, iterations=budget)
            values = disturbance(z_obs, inst, orders, search, list(seeds))[0]
            if previous is not None:
                assert np.all(values <= previous), (dim, budget)
            previous = values


def test_povm_descent_converges_at_sweep_budget():
    # the descent itself on one d = 2 sweep chunk of 8 samples at the sweep's search budget
    # (1 restart, 150 evaluations), over the nine computed orders of the default grid; a d = 2
    # sweep runs the support-angle search instead, so _povm_search is called directly, and
    # each row counts once per certificate it served.  With Barzilai-Borwein steps 396 of the
    # 416 end at a stationary point, after 60.8 evaluations on average, as when the sweep ran
    # the descent; with the one-rung rule alone, 300 after 94.7.  The descent's own flag is
    # its stopping test, which the Riemannian gradient at its reported POVM checks
    cfg = RunConfig(dim=2, samples=CHUNK, seed=7, jobs=1)
    _, z_obs, inst = sample_instance(2, [np.random.SeedSequence([7, i]) for i in range(CHUNK)])
    seeds = [int(np.random.SeedSequence([7, i, 1]).generate_state(1)[0]) for i in range(CHUNK)]
    grid, _ = admissible_grid(cfg.relations, cfg.alphas, cfg.betas, 2)
    orders = [EntropyOrder(b, relation_family(r)).computed for r, _, b in grid]
    keys = list(dict.fromkeys(orders))
    certs = np.array([orders.count(key) for key in keys]) * np.ones((CHUNK, 1))
    assert len(keys) == 9 and certs.sum() == 416
    rho = _flagged(z_obs, inst)[0] / 2
    povm, evals, converged, _ = _povm_search(rho, keys, SearchConfig(1, 150), seeds)
    _, grads = conditional_entropy_gradient(_table(povm, rho[:, None]),
                                            np.array(keys, dtype=object))
    _, norms = _riemannian_gradient(povm, grads, rho[:, None])
    assert np.array_equal(converged, norms < GRAD_TOL)
    assert np.sum(certs * converged) >= 0.9 * certs.sum()
    assert np.sum(certs * evals) <= 75 * certs.sum()


def test_support_angle_closes_every_bracket_of_a_d2_sweep_chunk():
    # the same chunk through the sweep: every default-grid row's bracket closes to ANGLE_TOL,
    # whichever candidate won
    certs, _ = run_sweep(RunConfig(dim=2, samples=CHUNK, seed=7, jobs=1))
    assert certs.relation.size == 416
    assert certs.converged.all()
    assert set(certs.best_candidate.tolist()) <= {"support_angle", "discard_flag", "reprepare"}
    assert "support_angle" in certs.best_candidate


def test_disturbance_bounded_by_identity_correction():
    _, z_obs, inst = sample_one(2, 31)
    ident = discard_flag_correction(z_obs, inst)
    order = EntropyOrder.tsallis(1.0)
    ident_val = conditional_entropy(disturbance_joint(z_obs, inst, ident), order)
    value = disturbance_alone(z_obs, inst, [order], SearchConfig(restarts=1, iterations=100),
                              seed=2)[0]
    assert value[0] <= ident_val + 1e-12


def test_disturbance_one_order_equals_that_order_in_a_grid(monkeypatch):
    # no row of the lockstep search depends on the rows beside it, bit for bit: neither on
    # the other orders nor on the other instances of a chunk.  Each of the five arrays
    # (value, POVM, iterations, converged, candidate) is compared, on a d = 2 chunk, where
    # the angle search runs, and on a d = 3 chunk (its admitted orders), where the descent
    # runs and its own flag reads true on some rows and false on others
    _, z_obs, inst = sample_one(2, 23)
    orders = [EntropyOrder.tsallis(a) for a in (0.3, 0.5, 1.0, 1.5, 2.0)]
    orders += [EntropyOrder.renyi(a) for a in (0.3, 0.5, 1.5, 2.0)]
    search = SearchConfig(restarts=2, iterations=90)
    grid = disturbance_alone(z_obs, inst, orders, search, seed=8)
    for k, order in enumerate(orders):
        one = disturbance_alone(z_obs, inst, [order], search, seed=8)
        for a, b in zip(one, grid):
            assert np.array_equal(a[0], b[k]), order
    for dim, admitted in ((2, orders), (3, orders[:7])):
        _, zs, ms = sample_instance(dim, (23, 24, 25))
        chunk = disturbance(zs, ms, admitted, search, [8, 9, 10])
        for k, seed in enumerate((8, 9, 10)):
            for a, alone in zip(chunk, disturbance_alone(zs[k], ms[k], admitted, search, seed)):
                assert np.array_equal(a[k], alone), (dim, k)
        assert dim == 2 or chunk[3].any() and not chunk[3].all()
    # one seed per instance, checked before the support-angle search or the descent runs
    def no_search(*args):
        raise AssertionError("a search ran on a chunk with the wrong number of seeds")

    monkeypatch.setattr(noise_disturbance, "_angle_search", no_search)
    monkeypatch.setattr(noise_disturbance, "_povm_search", no_search)
    _, z3, m3 = sample_instance(3, (23, 24))
    for z, m in ((zs[:2], ms[:2]), (z3, m3)):  # the angle search, then the descent
        for seeds in ([8], [8, 9, 10]):
            with pytest.raises(ValueError, match=f"got {len(seeds)} seeds for 2 instances"):
                disturbance(z, m, orders[:5], search, seeds)


def test_disturbance_value_is_the_reported_povm_on_the_exact_path():
    # every kind of candidate wins somewhere: the square-root measurement wins every row of the
    # first four instances without a search, the flag-discarding identity those of (2, 5) and
    # the repreparation those of (2, 11)
    winners = set()
    for dim, seed in ((2, 1), (2, 3), (3, 4), (4, 5), (2, 5), (2, 11)):
        _, z_obs, inst = sample_one(dim, seed)
        orders = [EntropyOrder.tsallis(0.5), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
        for search in (SearchConfig(restarts=0), SearchConfig(restarts=2, iterations=60)):
            values, povms, _, _, names = disturbance_alone(z_obs, inst, orders, search, seed=1)
            for order, value, povm, name in zip(orders, values, povms, names):
                j = disturbance_joint(z_obs, inst, povm)
                assert value == pytest.approx(conditional_entropy(j, order), abs=1e-12)
                winners.add(name.rstrip("0123456789"))
    assert winners == {"discard_flag", "reprepare", "square_root", "parametrized_restart_",
                       "support_angle"}


def test_disturbance_search_beats_both_fixed_corrections_at_d3():
    _, z_obs, inst = sample_one(3, 0)
    order = EntropyOrder.tsallis(2.0)
    fixed = [discard_flag_correction(z_obs, inst), reprepare_correction(z_obs, inst)]
    fixed_values = [conditional_entropy(disturbance_joint(z_obs, inst, ch), order) for ch in fixed]
    value, _, _, _, name = disturbance_alone(z_obs, inst, [order],
                                             SearchConfig(restarts=1, iterations=150), seed=1)
    assert name[0] == "parametrized_restart_0"
    assert value[0] < min(fixed_values) - 0.1


def test_disturbance_converged_flag_is_the_searchs_own_stopping_rule(qubit_pair):
    x_obs, z_obs = qubit_pair
    # measuring the conjugate basis leaves every flagged Z state equal, so every POVM is
    # stationary, the flag-discarding identity included; still, no search ran, so the flag
    # reads false, and the angle search, which runs at two Z outcomes, closes its bracket
    inst = luders_instrument(x_obs)
    value, povm, evals, converged, _ = disturbance_alone(
        z_obs, inst, [EntropyOrder.shannon()], SearchConfig(restarts=0))
    assert evals[0] == 0 and not converged[0]
    assert value[0] == pytest.approx(LN2, abs=1e-12)
    rho = flag_apply(inst.kraus, inst.by_outcome, z_obs.projectors) / 2
    _, grad = conditional_entropy_gradient(disturbance_joint(z_obs, inst, povm[0]),
                                           EntropyOrder.shannon())
    assert _riemannian_gradient(povm[0], grad, rho)[1] < GRAD_TOL
    value, _, evals, converged, _ = disturbance_alone(
        z_obs, inst, [EntropyOrder.shannon()], SearchConfig(restarts=1))
    assert evals[0] > 0 and converged[0]
    assert value[0] == pytest.approx(LN2, abs=1e-12)
    # without a search the flag reads false whatever the best candidate (the square-root
    # measurement here); the descent's reads true (three Z outcomes)
    _, z_obs, inst = sample_one(3, 1)
    _, _, evals, converged, name = disturbance_alone(z_obs, inst, [EntropyOrder.shannon()],
                                                     SearchConfig(restarts=0))
    assert evals[0] == 0 and name[0] == "square_root"
    assert not converged[0]
    _, _, _, converged, name = disturbance_alone(
        z_obs, inst, [EntropyOrder.shannon()], SearchConfig(restarts=1, iterations=2000), seed=4)
    assert converged[0] and name[0] == "parametrized_restart_0"


def test_disturbance_converged_flag_is_taken_at_each_orders_reported_povm():
    # one call scores every order's candidates together; each flag must still be the
    # stopping test of that order's own descent, a stationarity test at the POVM it reports
    # (three Z outcomes, where the descent runs)
    orders = [EntropyOrder.tsallis(2.0), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
    _, z_obs, inst = sample_one(3, 3)
    rho = flag_apply(inst.kraus, inst.by_outcome, z_obs.projectors) / 3
    _, povms, _, converged, names = disturbance_alone(z_obs, inst, orders, SearchConfig(2, 2000),
                                                      seed=1)
    for order, povm, ok in zip(orders, povms, converged):
        _, grad = conditional_entropy_gradient(disturbance_joint(z_obs, inst, povm), order)
        _, norm = _riemannian_gradient(povm, grad, rho)
        assert ok == bool(norm < GRAD_TOL)
    assert all(converged) and all(name.startswith("parametrized") for name in names)
    # without a search every flag reads false.  A stationarity test would not tell the fixed
    # corrections apart from a search: it fails at the square-root measurement, which wins
    # every row here (seeds 3 and 2), and passes vacuously at the repreparation (seed 2),
    # whose blocks are 0 or I, so that the Riemannian gradient is exactly 0
    norms = {}
    for seed in (3, 2):
        _, z_obs, inst = sample_one(3, seed)
        rho = flag_apply(inst.kraus, inst.by_outcome, z_obs.projectors) / 3
        _, povms, evals, converged, names = disturbance_alone(z_obs, inst, orders,
                                                              SearchConfig(restarts=0))
        assert not any(converged) and not any(evals)
        for order, povm, name in zip(orders, povms, names):
            _, grad = conditional_entropy_gradient(disturbance_joint(z_obs, inst, povm), order)
            norms.setdefault(str(name), []).append(_riemannian_gradient(povm, grad, rho)[1])
    assert set(norms) == {"square_root"} and min(norms["square_root"]) >= GRAD_TOL
    povm = reprepare_correction(z_obs, inst)
    for order in orders:
        _, grad = conditional_entropy_gradient(disturbance_joint(z_obs, inst, povm), order)
        assert _riemannian_gradient(povm, grad, rho)[1] == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_disturbance_shares_one_search_per_computed_entropy(dim, monkeypatch):
    # the three orders compute the Shannon entropy: the search sees that one computed order,
    # and the three columns of every array are bit for bit the same
    _, z_obs, inst = sample_one(dim, 9)
    orders = [EntropyOrder.renyi(1.0), EntropyOrder.tsallis(1 + 1e-8), EntropyOrder.shannon()]
    searched = []
    for name in ("_angle_search", "_povm_search"):
        def spy(rho, keys, *rest, search=getattr(noise_disturbance, name)):
            searched.append(keys)
            return search(rho, keys, *rest)

        monkeypatch.setattr(noise_disturbance, name, spy)
    results = disturbance_alone(z_obs, inst, orders, SearchConfig(restarts=1, iterations=60),
                                seed=2)
    assert searched == [[EntropyOrder.shannon()]]
    for a in results:
        assert a[0].tobytes() == a[1].tobytes() == a[2].tobytes()
    if dim == 3:  # the descent's budget; the support-angle search has none
        assert results[2][0] <= 60


def test_disturbance_without_restarts_runs_no_search():
    _, z_obs, inst = sample_one(2, 9)
    _, _, evals, _, name = disturbance_alone(z_obs, inst, [EntropyOrder.renyi(0.5)],
                                             SearchConfig(restarts=0), seed=2)
    assert evals[0] == 0
    assert name[0] in ("discard_flag", "reprepare", "square_root")


@pytest.mark.parametrize("dim", [2, 3])  # two and three Z outcomes
@pytest.mark.parametrize("search", [SearchConfig(0), SearchConfig(1, 60)],
                         ids=["no-budget", "budget"])
def test_disturbance_of_no_orders_searches_nothing(dim, search, monkeypatch):
    # no order leaves nothing to score: five arrays of leading shape (k, 0), and no search runs
    _, z_obs, inst = sample_instance(dim, [1, 2])
    for name in ("_angle_search", "_povm_search"):
        monkeypatch.setattr(noise_disturbance, name,
                            lambda *args, name=name: pytest.fail(f"{name} ran"))
    results = disturbance(z_obs, inst, [], search, [1, 2])
    assert [a.shape[:2] for a in results] == [(2, 0)] * 5


def test_noise_disturbance_shannon_agreement(anchor):
    x_obs, z_obs, inst = anchor
    for order in (EntropyOrder.shannon(), EntropyOrder.renyi(1.0), EntropyOrder.tsallis(1.0)):
        assert noise(x_obs[None], inst[None], [order])[0][0] == pytest.approx(LN2, abs=1e-9)
        value = disturbance_alone(z_obs, inst, [order], SearchConfig(restarts=0))[0]
        assert value[0] == pytest.approx(0.0, abs=1e-9)


def test_renyi_noise_monotone_in_order(qubit_pair):
    x_obs, _ = qubit_pair
    inst = sample_random_instrument(2, 2, 2, 2, seed=8)
    orders = [EntropyOrder.renyi(a) for a in (0.5, 1.0, 1.5, 2.0)]
    (values,) = noise(x_obs[None], inst[None], orders)
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-10


def test_zero_noise_iff_zero_error(anchor):
    x_obs, z_obs, inst = anchor
    # the Z-measuring instrument identifies Z eigenstates perfectly ...
    nj = noise_joint(z_obs, inst)
    assert noise(z_obs[None], inst[None], [EntropyOrder.shannon()])[0][0] < 1e-9
    assert standard_decision(nj) < 1e-9
    # ... and is maximally noisy for the conjugate observable
    nx = noise_joint(x_obs, inst)
    assert noise(x_obs[None], inst[None], [EntropyOrder.shannon()])[0][0] > 0.5
    assert standard_decision(nx) > 0.4


# --- error probability of the corrected re-measurement ------------------------------


def test_corrected_error_probability_perfect_correction(anchor):
    # 1 - Tr p(z, z'): zero after repreparation on the anchor
    _, z_obs, inst = anchor
    table = disturbance_joint(z_obs, inst, reprepare_correction(z_obs, inst))
    assert 1.0 - np.trace(table) == pytest.approx(0.0, abs=1e-10)


def test_corrected_error_probability_depolarized(qubit_pair):
    # measuring the conjugate basis and discarding the flag fully dephases Z
    x_obs, z_obs = qubit_pair
    inst = luders_instrument(x_obs)
    table = disturbance_joint(z_obs, inst, discard_flag_correction(z_obs, inst))
    assert 1.0 - np.trace(table) == pytest.approx(0.5, abs=1e-10)


def test_search_config_rejects_a_bad_budget():
    with pytest.raises(ValueError, match="restarts"):
        SearchConfig(restarts=-1)
    with pytest.raises(ValueError, match="iterations"):
        SearchConfig(iterations=0)
    # a restart needs its start and one step ladder to take any step
    for iterations in (1, 3):
        with pytest.raises(ValueError, match="iterations must be at least 4"):
            SearchConfig(restarts=2, iterations=iterations)
    # the smallest budgets stay valid: no restarts, or one ladder per restart
    cfg = SearchConfig(restarts=0, iterations=1)
    assert (cfg.restarts, cfg.iterations) == (0, 1)
    SearchConfig(restarts=1, iterations=4)
    # a budget is two numbers, seeds come per instance, and the default budget is the sweep's
    assert [f.name for f in fields(SearchConfig)] == ["restarts", "iterations"]
    cfg, run = SearchConfig(), RunConfig()
    assert (cfg.restarts, cfg.iterations) == (run.restarts, run.iterations) == (1, 150)


def test_disturbance_joint_rejects_a_non_povm(anchor):
    _, z_obs, inst = anchor
    good = reprepare_correction(z_obs, inst)
    disturbance_joint(z_obs, inst, good)
    # one POVM per outcome: (outcomes, |Z|, d_out, d_out)
    assert good.shape == (2, 2, 2, 2)
    half = np.diag([1.0, -1.0]) / 2
    bad = {
        "shape": good[:, :, :1, :1],
        "completeness": good * 0.9,
        "Hermitian": good + np.triu(np.ones((2, 2)), 1) * 0.1,
        "eigenvalue": good + np.stack([half, -half]),
    }
    for match, povm in bad.items():
        with pytest.raises(ValueError, match=match):
            disturbance_joint(z_obs, inst, povm)


# --- the square-root measurement -------------------------------------------------------

SQRT_ORDERS = [EntropyOrder(a, f) for f in ("tsallis", "renyi") for a in (0.3, 0.5, 1.5, 2.0)]
SQRT_ORDERS += [EntropyOrder.tsallis(3.0), EntropyOrder.shannon()]


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (3, 4), (2, 3)],
                         ids=["d2", "d3", "d4", "d3-out4", "d2-out3"])
def test_the_square_root_candidate_never_raises_d_up(dims, monkeypatch):
    # scoring the square-root measurement beside the other candidates can only lower a row's
    # value, bit for bit against the same call without it; the descent does not start from it,
    # so with restarts it gives min(the descent, the square root).  Without restarts, at three
    # or more Z outcomes, it lowers most rows
    d, d_out = dims
    rngs = [np.random.default_rng([d, d_out, i]) for i in range(8)]
    z_obs = sample_random_observables(d, None, rngs)
    inst = sample_random_instruments(d, d_out, d, 2, rngs)
    orders = [order for order in SQRT_ORDERS if d == 2 or order.family != "renyi"
              or order.alpha <= 1]
    seeds = list(range(8))
    calls = [disturbance(z_obs, inst, orders, search, seeds)
             for search in (SearchConfig(restarts=0), SearchConfig(1, 60))]
    monkeypatch.setattr(noise_disturbance, "_square_root", lambda rho: None)
    for search, (values, _, _, _, names) in zip((0, 1), calls):
        before, _, _, _, before_names = disturbance(z_obs, inst, orders, SearchConfig(search, 60),
                                                    seeds)
        assert "square_root" not in before_names
        assert np.all(values <= before)
        assert np.array_equal(values[names != "square_root"], before[names != "square_root"])
        if search == 0:
            assert np.array_equal(values == before, names != "square_root")
            if d >= 3:
                assert np.mean(values < before) >= 0.9


def test_the_square_root_measurement_gives_the_anchor_no_disturbance(anchor):
    _, z_obs, inst = anchor
    povm = square_root_correction(z_obs, inst)
    for order in SQRT_ORDERS:
        assert conditional_entropy(disturbance_joint(z_obs, inst, povm), order) == 0.0


def test_the_square_root_measurement_of_two_pure_states_is_helstroms():
    # equal priors: E_0 projects onto the positive part of sigma_0 - sigma_1, and at d = 3 the
    # kernel of sigma_0 + sigma_1 joins E_0, so the success probability is Helstrom's
    # (1 + sqrt(1 - |<a|b>|**2))/2 there too
    rng = np.random.default_rng(5)
    for d in (2, 2, 2, 3, 3):
        g = rng.standard_normal((2, 2, d))
        a, b = (v / np.linalg.norm(v) for v in g[:, 0] + 1j * g[:, 1])
        sigma = np.array([np.outer(v, v.conj()) / 2 for v in (a, b)])
        povm = _square_root(sigma[:, None])[0]
        w, v = np.linalg.eigh(sigma[0] - sigma[1])
        positive = v[:, w > 1e-12] @ dagger(v[:, w > 1e-12])
        if d == 2:
            assert np.abs(povm[0] - positive).max() <= 1e-12
        success = np.trace(povm[0] @ sigma[0] + povm[1] @ sigma[1]).real
        helstrom = (1 + math.sqrt(1 - abs(np.vdot(a, b)) ** 2)) / 2
        assert abs(success - helstrom) <= 1e-12


@pytest.mark.parametrize("case", ["luders", "zero_outcome", "wider_output"])
def test_the_square_root_measurement_is_a_povm_on_blocks_with_a_kernel(case):
    # rank-one blocks (a Lueders instrument), a block of probability 0, and blocks of rank 3 in
    # an output of 4: each kernel joins E_0, and _checked_povm takes the result
    z_obs = sample_random_observable(3, None, seed=2)
    if case == "luders":
        inst = luders_instrument(sample_random_observable(3, None, seed=3))
    elif case == "zero_outcome":
        inst = QuantumInstrument(3, 3, ("m0", "m1"), np.stack([np.eye(3), np.zeros((3, 3))]),
                                 np.arange(2))
    else:
        inst = sample_random_instrument(3, 4, 3, 1, seed=4)
    povm = square_root_correction(z_obs, inst)
    assert np.array_equal(_checked_povm(z_obs, inst, povm), povm)
    rho = flag_apply(inst.kraus, inst.by_outcome, z_obs.projectors) / 3
    ranks = np.linalg.matrix_rank(rho.sum(axis=0), tol=1e-12)
    assert ranks.tolist() == {"luders": [1, 1, 1], "zero_outcome": [3, 0],
                              "wider_output": [3, 3, 3]}[case]
    if case == "zero_outcome":  # no support: E_0 = I
        assert np.array_equal(povm[1], np.eye(3) * (np.arange(3) == 0)[:, None, None])


def test_the_square_root_rank_rule_keeps_the_povm_within_the_checks_tolerances():
    # block sums with eigenvalues from 1 down to 1e-7 of the largest, just above and below the
    # relative cut, and exact zeros, split among |Z| states by random POVMs: R scales each
    # state's roundoff by at most 1 / _SUPPORT_REL, so the elements stay Hermitian, complete
    # and positive within _checked_povm's tolerances (DECOMP_TOL and STRUCT_TOL)
    rng = np.random.default_rng(11)
    worst = np.zeros(3)
    for _ in range(200):
        d, nz = rng.integers(2, 6), rng.integers(2, 5)
        u = sample_random_observables(d, None, [rng] * 3).projectors  # (3, d, d, d) rank one
        w = 10.0 ** rng.uniform(-7, 0, (3, d))
        w[rng.random((3, d)) < 0.2] = 0.0
        half = np.einsum("mi,miab->mab", np.sqrt(w), u)
        a = sample_haar_unitary(nz * d, rng)[:, :d].reshape(nz, d, d)
        sigma = half[:, None] @ (dagger(a) @ a) @ half[:, None]  # (n, |Z|, d, d)
        povm = _square_root(sigma.swapaxes(0, 1))
        worst = np.maximum(worst, [np.abs(povm - dagger(povm)).max(),
                                   np.abs(povm.sum(axis=1) - np.eye(d)).max(),
                                   -np.linalg.eigvalsh(povm).min()])
    assert worst[0] <= 1e-10 and worst[1] <= 1e-10 and worst[2] <= 1e-12, worst


# --- the support angle, |Z| = 2 -----------------------------------------------------


def two_outcome_chunk(d_out, seeds):
    """Z and M stacks with two Z outcomes: d = 2 sweep samples, or at d = 3 a degenerate Z."""
    if d_out is None:
        return sample_instance(2, seeds)[1:]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return (sample_random_observables(3, (2, 1), rngs),
            sample_random_instruments(3, d_out, 2, 2, rngs))


@pytest.mark.parametrize("d_out", [None, 2, 3, 4])
def test_support_angle_is_a_global_minimum_at_two_outcomes(d_out):
    # at |Z| = 2 nothing scores below D_up - 1e-9 where the bracket closed: not 300 random
    # POVMs per instance, and not the descent at 4 restarts x 2000 evaluations.  Brackets
    # stay open only at orders below 1 with a rank-deficient flagged state (d_out = 3, 4
    # here), where the minimum has a zero entry that every computed POVM misses by roundoff
    # of about 1e-16, worth up to 2 (1e-16)**alpha / (1 - alpha) over a table's two columns
    seeds = (41, 42, 43)
    z_obs, inst = two_outcome_chunk(d_out, seeds)
    if d_out is None:
        orders = [EntropyOrder(a, f) for f in ("tsallis", "renyi") for a in (0.3, 0.5, 1.5, 2.0)]
        orders.append(EntropyOrder.shannon())
    else:
        orders = [EntropyOrder.tsallis(0.5), EntropyOrder.tsallis(2.0), EntropyOrder.tsallis(3.0),
                  EntropyOrder.renyi(0.3), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
    values, _, _, converged, _ = disturbance(z_obs, inst, orders, SearchConfig(1, 150),
                                             list(seeds))
    rho = _flagged(z_obs, inst)[0] / z_obs.dim
    descent = _povm_search(rho, orders, SearchConfig(4, 2000), seeds)[0]
    rng = np.random.default_rng(d_out or 0)  # d = 2 draws from seed 0
    n, d = inst.n_outcomes, inst.dim_out
    a = np.array([sample_haar_unitary(2 * d, rng)[:, :d] for _ in range(300 * n)])
    a = a.reshape(300, n, 2, d, d)
    others = np.concatenate([descent, np.broadcast_to(dagger(a) @ a, (len(seeds),) + a.shape)],
                            axis=1)
    for i in range(len(seeds)):
        tables = _table(others[i], rho[i])
        for k, order in enumerate(orders):
            closed = converged[i, k]
            floor = 0.0 if closed else 2 * 1e-16 ** order.alpha / (1 - order.alpha)
            assert closed or (d_out in (3, 4) and order.alpha < 1), (d_out, i, order)
            lowest = conditional_entropy(tables[[k] + list(range(len(orders), len(tables)))],
                                         order).min()
            assert lowest >= values[i, k] - 1e-9 - floor, (d_out, i, order,
                                                          lowest - values[i, k])


def sweep_chunk_and_orders(seed):
    """Z, M and search seeds of a d = 2 sweep's first chunk, and the default grid's computed orders."""
    cfg = RunConfig(dim=2, samples=CHUNK, seed=seed, jobs=1)
    _, z_obs, inst = sample_instance(2, [np.random.SeedSequence([seed, i]) for i in range(CHUNK)])
    seeds = [int(np.random.SeedSequence([seed, i, 1]).generate_state(1)[0]) for i in range(CHUNK)]
    grid, _ = admissible_grid(cfg.relations, cfg.alphas, cfg.betas, 2)
    keys = list(dict.fromkeys(EntropyOrder(b, relation_family(r)).computed for r, _, b in grid))
    return z_obs, inst, seeds, keys


@pytest.mark.parametrize("chunk", [("sweep", 7), ("sweep", 11), ("d_out", 3), ("d_out", 4)],
                         ids=["sweep7", "sweep11", "d_out3", "d_out4"])
def test_no_support_point_on_a_dense_angle_grid_beats_the_bracket(chunk):
    # the support points at 4097 even angles over [pi/2, pi]: none scores below
    # D_up - ANGLE_TOL where the bracket closed, nor below that less the roundoff allowance
    # of test_support_angle_is_a_global_minimum_at_two_outcomes where it stayed open
    kind, arg = chunk
    if kind == "sweep":
        z_obs, inst, seeds, orders = sweep_chunk_and_orders(arg)
        assert len(orders) == 9
    else:
        seeds = [41, 42, 43]
        z_obs, inst = two_outcome_chunk(arg, seeds)
        orders = [EntropyOrder.tsallis(0.5), EntropyOrder.tsallis(2.0), EntropyOrder.tsallis(3.0),
                  EntropyOrder.renyi(0.3), EntropyOrder.renyi(0.5), EntropyOrder.shannon()]
    values, _, _, converged, _ = disturbance(z_obs, inst, orders, SearchConfig(1, 150), seeds)
    rho = _flagged(z_obs, inst)[0] / z_obs.dim
    tables = _support(rho[:, None], np.linspace(np.pi / 2, np.pi, 4097))[1]
    shape = (len(rho), len(orders)) + tables.shape[1:]
    dense = conditional_entropy(np.broadcast_to(tables[:, None], shape),
                                np.array(orders, dtype=object)[:, None])
    lowest = dense.min(axis=-1)
    for (i, k), closed in np.ndenumerate(converged):
        alpha = orders[k].alpha
        assert closed or (kind == "d_out" and alpha < 1), (chunk, i, orders[k])
        slack = ANGLE_TOL + (0.0 if closed else 2 * 1e-16 ** alpha / (1 - alpha))
        assert lowest[i, k] >= values[i, k] - slack, (chunk, i, orders[k],
                                                      lowest[i, k] - values[i, k])


def eigh_support(rho, phi):
    """``_support`` by ``eigh``, E_0 on the eigenvalues > 0, and per block eigenvalue, the
    eigenvalue and the weight sum_z v* rho_z v of its eigenvector v."""
    c, s = (f(phi)[..., None, None, None] for f in (np.cos, np.sin))
    w, v = np.linalg.eigh(c * rho[..., 0, :, :, :] + s * rho[..., 1, :, :, :])
    up = (w > 0.0)[..., None, :]
    povm = np.stack([(v * up) @ dagger(v), (v * ~up) @ dagger(v)], axis=-3)
    weight = np.diagonal(dagger(v) @ rho.sum(axis=-4) @ v, axis1=-2, axis2=-1).real
    return povm, _table(povm, rho), w, weight


def two_by_two_case(case):
    """rho (instances, 2, n, 2, 2) of a d = 2 sweep chunk, an anchor, or a block H = m I."""
    kind, arg = case
    if kind == "sweep":
        z_obs, inst = sweep_chunk_and_orders(arg)[:2]
    elif kind == "scalar":  # sigma_0 = I/8 and sigma_1 = 3I/8, so m changes sign on the quarter
        return (np.array([1.0, 3.0])[:, None, None, None] * np.eye(2, dtype=complex) / 8)[None]
    else:
        x_obs, z_obs, inst = (saturation_instance() if kind == "anchor"
                              else unsharp_luders_instance(arg))
        z_obs, inst = z_obs[None], inst[None]
    return _flagged(z_obs, inst)[0] / z_obs.dim


@pytest.mark.parametrize("case", [("sweep", 7), ("sweep", 11), ("anchor", None),
                                  ("unsharp", 0.0), ("unsharp", 1 / math.sqrt(2)),
                                  ("unsharp", 1.0), ("scalar", None)],
                         ids=["sweep7", "sweep11", "anchor", "unsharp0", "unsharp_half",
                              "unsharp1", "scalar"])
def test_support_point_at_d2_matches_eigh(case):
    # the closed form of a 2 x 2 positive part against eigh, at pi/2, pi and 4097 even angles
    # between.  An eigenvalue within roundoff of 0 goes to E_0 by the sign of m +- r as
    # computed, and eigh may put its eigenvector v on the other side: that moves the table by
    # up to the weight of v, 0 up to roundoff in the anchors' rank-deficient blocks, where v
    # spans the kernel of both sigma_z, but 1/4 at pi/2 in the unsharp family, where sigma_1 has
    # rank one.  Both are support points, so the support value cos phi t_0 + sin phi t_1 agrees
    # everywhere, the tables up to those weights, and the POVMs on blocks with no such eigenvalue
    rho = two_by_two_case(case)
    phi = np.concatenate([[np.pi / 2, np.pi], np.linspace(np.pi / 2, np.pi, 4097)])
    povm, tables = _support(rho[:, None], phi)
    ref_povm, ref_tables, w, weight = eigh_support(rho[:, None], phi)
    assert povm.shape == ref_povm.shape and tables.shape == ref_tables.shape
    assert np.abs(povm.sum(axis=-3) - np.eye(2)).max() <= 1e-15
    value, ref_value = (np.cos(phi) * t[..., 0, 0] + np.sin(phi) * t[..., 1, 0]
                        for t in (tables, ref_tables))
    assert np.abs(value - ref_value).max() <= 1e-15
    near = np.abs(w) <= 1e-12
    moved = (weight * near).sum(axis=(-2, -1))
    assert np.all(np.abs(tables - ref_tables).max(axis=(-2, -1)) <= 1e-14 + moved)
    clear = ~near.any(axis=-1)
    assert np.abs(povm - ref_povm)[clear].max(initial=0.0) <= 1e-14
    assert clear.all() == (case[0] in ("sweep", "scalar"))


def test_support_angle_search_closes_a_sweep_chunk_in_six_rounds(monkeypatch):
    # each round cuts every live arc in four with one _support call, so the brackets of the
    # seed-7 sweep chunk close within six rounds after the scan; cut in two, they took ten
    calls = []
    support = noise_disturbance._support

    def counted(rho, phi):
        calls.append(phi.shape)
        return support(rho, phi)

    monkeypatch.setattr(noise_disturbance, "_support", counted)
    certs, _ = run_sweep(RunConfig(dim=2, samples=CHUNK, seed=7, jobs=1))
    assert certs.converged.all()
    assert 2 <= len(calls) <= 1 + 6, calls
