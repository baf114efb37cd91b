import json
import math

import numpy as np
import pytest

from etoff import linalg
from etoff.harness import sample_instance
from etoff.quantum import (
    ProjectiveObservable,
    QuantumInstrument,
    basis_observable,
    flag_apply,
    instrument_from_json,
    instrument_to_json,
    luders_instrument,
    observable_from_json,
    observable_to_json,
    sample_haar_isometries,
    sample_haar_unitary,
    sample_random_instrument,
    sample_random_instruments,
    sample_random_observable,
    sample_random_observables,
    trivial_instrument,
)

from conftest import random_hermitian


def outcome_blocks(inst, rho):
    """Phi^(m)(rho), the block of the flagged evolution, for every outcome m."""
    return list(flag_apply(inst.kraus, inst.by_outcome, rho))


def outcome_probabilities(inst, rho):
    return [float(np.trace(b).real) for b in outcome_blocks(inst, rho)]


# --- type invariants -------------------------------------------------------------


def test_observable_rejects_incomplete_projectors():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        ProjectiveObservable((0.0,), p0[None])


def test_observable_rejects_a_label_too_many():
    with pytest.raises(ValueError, match="3 eigenvalue labels for 2 projectors"):
        ProjectiveObservable((0.0, 1.0, 2.0), np.eye(2, dtype=complex)[:, None] * np.eye(2))


def test_observable_rejects_non_orthogonal():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        ProjectiveObservable((0.0, 1.0), np.stack([p0, plus]))


def test_instrument_completeness_enforced():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        QuantumInstrument(2, 2, ("m0", "m1"), np.stack([eye, 0.5 * eye]), [0, 1])


def test_instrument_rejects_duplicate_labels():
    eye = np.eye(2, dtype=complex) / math.sqrt(2)
    with pytest.raises(ValueError):
        QuantumInstrument(2, 2, ("m0", "m0"), np.stack([eye, eye]), [0, 1])


def test_instrument_rejects_bad_outcome_index():
    eye = np.eye(2, dtype=complex) / math.sqrt(2)
    kraus = np.stack([eye, eye])
    for outcome in ([0, 2], [0], [0.0, 1.0], [-1, 0]):
        with pytest.raises(ValueError):
            QuantumInstrument(2, 2, ("m0", "m1"), kraus, outcome)


def test_validated_stacks_are_read_only_copies():
    p = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    obs = ProjectiveObservable((0.0, 1.0), p)
    assert not obs.projectors.flags.writeable
    assert p.flags.writeable
    inst = luders_instrument(obs)
    assert not inst.kraus.flags.writeable and not inst.outcome.flags.writeable


# --- stacks ------------------------------------------------------------------------


BROKEN = 5  # the one broken instance of a stack of 8


def hadamard_halves(dim):
    """Two rank-dim/2 projectors (I ± H/sqrt(dim))/2, H the symmetric Sylvester Hadamard matrix.

    Every entry of the reflection H/sqrt(dim) is ±dim**-1/2, so P + eps I has an idempotence
    residual of only about eps dim**-1/2 but a trace off by eps dim: at dim = 128 and eps =
    1.1e-8 the residual, 9.7e-10, passes the 1e-9 check, and the trace, off by 1.4e-6, fails
    the 1e-6 one.  At small dimensions no matrix passing the idempotence check has a trace
    that far off an integer.
    """
    h = np.ones((1, 1))
    while len(h) < dim:
        h = np.block([[h, h], [h, -h]])
    return np.stack([np.eye(dim) + h / math.sqrt(dim), np.eye(dim) - h / math.sqrt(dim)]) / 2


def broken_observable(projectors):
    """Each structural check's name, and the projectors with only that check failing."""
    p = np.array(projectors)
    non_hermitian, non_idempotent, repeated, incomplete = (p.copy() for _ in range(4))
    non_hermitian[1, 0, 1] += 1e-3
    non_idempotent[1] *= 0.99
    repeated[2] = p[1]
    incomplete[2] = 0.0
    return {"not Hermitian": non_hermitian, "not idempotent": non_idempotent,
            "not orthogonal": repeated, "do not resolve the identity": incomplete}


def assert_stack_raises_as_its_broken_instance(make, stack, broken):
    """``make`` on ``stack`` with instance BROKEN replaced by ``broken`` raises ValueError, and
    with the message of ``make`` on ``broken`` alone."""
    with pytest.raises(ValueError) as alone:
        make(broken)
    stack = np.array(stack)
    stack[BROKEN] = broken
    with pytest.raises(ValueError) as stacked:
        make(stack)
    assert str(stacked.value) == str(alone.value)
    return str(alone.value)


def test_a_stack_is_checked_instance_by_instance():
    # each structural check runs once over the whole stack, and a stack whose instance 5
    # alone is broken fails as that instance alone does, with the same message
    rngs = [np.random.default_rng(k) for k in range(8)]
    obs = sample_random_observables(3, None, rngs)
    labels = obs.eigenvalues
    for check, broken in broken_observable(obs.projectors[BROKEN]).items():
        message = assert_stack_raises_as_its_broken_instance(
            lambda p: ProjectiveObservable(labels, p), obs.projectors, broken)
        assert check in message
    halves = hadamard_halves(128)
    ProjectiveObservable((0.0, 1.0), np.stack([halves] * 8))
    off_rank = halves + [1.1e-8 * np.eye(128), 0.0 * np.eye(128)]
    message = assert_stack_raises_as_its_broken_instance(
        lambda p: ProjectiveObservable((0.0, 1.0), p), np.stack([halves] * 8), off_rank)
    assert "not an integer rank" in message
    inst = sample_random_instruments(3, 3, 3, 2, rngs)
    message = assert_stack_raises_as_its_broken_instance(
        lambda k: QuantumInstrument(3, 3, inst.labels, k, inst.outcome), inst.kraus,
        0.99 * inst.kraus[BROKEN])
    assert "completeness residual" in message


def test_a_stack_shares_one_degeneracy_profile():
    rngs = [np.random.default_rng(k) for k in range(8)]
    p = np.array(sample_random_observables(4, (2, 1, 1), rngs).projectors)
    other = sample_random_observable(4, (1, 2, 1), seed=8)
    p[BROKEN] = other.projectors
    with pytest.raises(ValueError, match=r"degeneracy profile: \[\(1, 2, 1\), \(2, 1, 1\)\]"):
        ProjectiveObservable(other.eigenvalues, p)


def test_indexing_a_stack_returns_its_instances_unvalidated(monkeypatch):
    rngs = [np.random.default_rng(k) for k in range(8)]
    obs = sample_random_observables(3, (2, 1), rngs)
    inst = sample_random_instruments(3, 2, 3, 2, rngs)
    monkeypatch.setattr(ProjectiveObservable, "__post_init__", None)
    monkeypatch.setattr(QuantumInstrument, "__post_init__", None)
    one, single = obs[BROKEN], inst[BROKEN]
    assert np.array_equal(one.projectors, obs.projectors[BROKEN])
    assert (one.eigenvalues, one.degeneracies, one.dim) == (obs.eigenvalues, (2, 1), 3)
    assert np.array_equal(single.kraus, inst.kraus[BROKEN])
    assert (single.labels, single.dim_in, single.dim_out) == (inst.labels, 3, 2)
    assert one[None].projectors.shape == (1, 2, 3, 3)
    assert single[None].kraus.shape == (1, 6, 2, 3)
    assert obs[2:4].projectors.shape == (2, 2, 3, 3)
    assert not one.projectors.flags.writeable and not single.kraus.flags.writeable
    for bad in (lambda: one[0], lambda: obs[None], lambda: single[0], lambda: inst[None],
                lambda: list(one)):
        with pytest.raises(TypeError):
            bad()
    # a stack iterates over its instances
    assert [np.array_equal(a.projectors, b) for a, b in zip(obs, obs.projectors)] == [True] * 8


# --- acting on states ---------------------------------------------------------------


def test_outcome_probability_eigenstate(anchor):
    _, z_obs, inst = anchor
    ket0 = z_obs.projectors[0]
    p0, p1 = outcome_probabilities(inst, ket0)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_outcome_probability_maximally_mixed():
    obs = sample_random_observable(4, (2, 1, 1), seed=3)
    inst = luders_instrument(obs)
    rho = np.eye(4, dtype=complex) / 4
    for p, g in zip(outcome_probabilities(inst, rho), obs.degeneracies):
        assert p == pytest.approx(g / 4, abs=1e-12)


def test_outcome_probabilities_normalised(rng):
    inst = sample_random_instrument(3, 2, 3, 2, rng)
    rho = random_hermitian(rng, 3)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    ps = outcome_probabilities(inst, rho)
    assert all(p >= -1e-10 for p in ps)
    assert sum(ps) == pytest.approx(1.0, abs=1e-9)


def test_post_measurement_state_projective(anchor):
    _, z_obs, inst = anchor
    ket0 = z_obs.projectors[0]
    block = outcome_blocks(inst, ket0)[0]
    out = block / np.trace(block).real
    assert np.allclose(out, ket0, atol=1e-12)


def test_post_measurement_state_degenerate_branch():
    obs = sample_random_observable(4, (2, 2), seed=11)
    inst = luders_instrument(obs)
    rho = np.eye(4, dtype=complex) / 4
    block = outcome_blocks(inst, rho)[0]
    out = block / np.trace(block).real
    assert np.allclose(out, obs.projectors[0] / 2, atol=1e-10)


def test_flag_map_single_outcome():
    inst = trivial_instrument(2)
    rho = np.diag([0.7, 0.3]).astype(complex)
    out = flag_apply(inst.kraus, inst.by_outcome, rho)
    assert out.shape == (1, 2, 2) and np.allclose(out[0], rho, atol=1e-12)


def test_flag_map_block_traces_are_outcome_probabilities(rng):
    inst = sample_random_instrument(3, 3, 3, 2, rng)
    rho = random_hermitian(rng, 3)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    blocks = flag_apply(inst.kraus, inst.by_outcome, rho)
    assert abs(np.trace(blocks, axis1=1, axis2=2).sum().real - 1.0) < 1e-9
    for m, p in enumerate(outcome_probabilities(inst, rho)):
        direct = sum(
            np.trace(k @ rho @ k.conj().T).real for k in inst.kraus[inst.outcome == m]
        )
        assert abs(p - direct) < 1e-10


def test_flag_apply_blocks_match_kraus_sums(rng):
    inst = sample_random_instrument(2, 3, 3, 2, rng)
    rho = random_hermitian(rng, 2)
    out = flag_apply(inst.kraus, inst.by_outcome, rho)
    assert out.shape == (3, 3, 3)
    for m in range(3):
        direct = sum(k @ rho @ k.conj().T for k in inst.kraus[inst.outcome == m])
        assert np.allclose(out[m], direct, atol=1e-12)


def test_flag_apply_keeps_batch_axes(rng):
    inst = sample_random_instrument(3, 2, 2, 2, rng)
    ops = np.array([[random_hermitian(rng, 3) for _ in range(4)] for _ in range(2)])
    out = flag_apply(inst.kraus, inst.by_outcome, ops)
    assert out.shape == (2, 4, 2, 2, 2)
    for i in range(2):
        for j in range(4):
            one = flag_apply(inst.kraus, inst.by_outcome, ops[i, j])
            assert np.allclose(out[i, j], one, atol=1e-12)


def test_flag_apply_outcome_without_kraus_is_zero():
    inst = QuantumInstrument(2, 2, ("m0", "m1"), np.eye(2)[None], np.zeros(1, dtype=int))
    rho = np.diag([0.6, 0.4]).astype(complex)
    out = flag_apply(inst.kraus, inst.by_outcome, rho)
    assert np.allclose(out[0], rho, atol=1e-12)
    assert np.all(out[1] == 0.0)


def test_flag_map_projective_on_maximally_mixed():
    obs = basis_observable(2)
    inst = luders_instrument(obs)
    blocks = outcome_blocks(inst, np.eye(2, dtype=complex) / 2)
    for block, proj in zip(blocks, obs.projectors):
        assert np.allclose(block, proj / 2, atol=1e-12)


# --- sampling ------------------------------------------------------------------------------


def test_haar_unitary_is_unitary(rng):
    for _ in range(20):
        d = int(rng.integers(2, 8))
        u = sample_haar_unitary(d, rng)
        assert linalg.max_abs(u.conj().T @ u - np.eye(d)) <= 1e-9


def test_haar_unitary_deterministic_per_seed():
    a = sample_haar_unitary(4, 123)
    b = sample_haar_unitary(4, 123)
    assert np.array_equal(a, b)


def full_haar_unitary(rng, dim):
    """The per-instance construction: QR of the whole Ginibre matrix, R's diagonal made positive."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g / math.sqrt(2))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def test_chunk_sampler_is_bit_for_bit_the_per_instance_construction():
    # a sweep chunk is sampled as one stack, with M's isometry QR'd on its d kept columns
    # alone; each sample must still be bit for bit the per-instance draw from its generator:
    # X and Z one projector u_i u_i† per column of a full unitary, and the Kraus stack cut
    # from the first d columns of the full total x total unitary.  Should LAPACK round the
    # narrow QR differently somewhere, this fails here instead of re-drawing every sweep
    for dim in range(2, 7):
        total = 2 * dim * dim
        for seed in (0, 1, 17):
            seeds = [np.random.SeedSequence([seed, i]) for i in range(8)]
            xs, zs, ms = sample_instance(dim, seeds)
            for k, sequence in enumerate(seeds):
                x_obs, z_obs, inst = xs[k], zs[k], ms[k]
                rng = np.random.default_rng(sequence)
                for obs in (x_obs, z_obs):
                    u = full_haar_unitary(rng, dim)
                    columns = [u[:, i:i + 1] @ u[:, i:i + 1].conj().T for i in range(dim)]
                    projectors = [(p + p.conj().T) / 2 for p in columns]
                    assert np.array_equal(obs.projectors, projectors), (dim, seed)
                v = full_haar_unitary(rng, total)[:, :dim].reshape(dim, 2, dim, dim)
                kraus = v.transpose(2, 1, 0, 3).reshape(-1, dim, dim)
                assert np.array_equal(inst.kraus, kraus), (dim, seed)
                assert np.array_equal(inst.outcome, np.repeat(np.arange(dim), 2))


def test_sampled_instruments_complete(rng):
    for _ in range(500):
        d = int(rng.integers(2, 4))
        inst = sample_random_instrument(d, d, int(rng.integers(1, 4)), int(rng.integers(1, 3)), rng)
        acc = sum(k.conj().T @ k for k in inst.kraus)
        assert linalg.max_abs(acc - np.eye(d)) <= 1e-9


def test_sampled_instrument_deterministic():
    a = sample_random_instrument(2, 2, 2, 1, seed=77)
    b = sample_random_instrument(2, 2, 2, 1, seed=77)
    assert np.array_equal(a.kraus, b.kraus)
    assert np.array_equal(a.outcome, b.outcome)


def test_sampled_instrument_invalid_shape():
    with pytest.raises(ValueError):
        sample_random_instrument(8, 2, 1, 1, seed=0)
    rngs = [np.random.default_rng(0)]
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        sample_haar_isometries(0, 1, rngs)
    for dims in ((0, 2, 2, 1), (2, 0, 2, 1), (2, 2, 0, 1), (2, 2, 2, 0)):
        with pytest.raises(ValueError, match="all instrument dimensions must be positive"):
            sample_random_instruments(*dims, rngs)


def test_sampled_observable_profiles(rng):
    obs = sample_random_observable(5, (2, 2, 1), rng)
    assert obs.degeneracies == (2, 2, 1)
    with pytest.raises(ValueError):
        sample_random_observable(4, (3, 2), rng)


def test_choi_matrix_positive(rng):
    # CP spot-check: the induced operator on a maximally entangled input is PSD
    for _ in range(100):
        d = int(rng.integers(2, 4))
        inst = sample_random_instrument(d, d, 2, 2, rng)
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0 / math.sqrt(d)
        ent = np.outer(phi, phi.conj())
        lifted = np.array([np.kron(k, np.eye(d, dtype=complex)) for k in inst.kraus])
        choi = (lifted @ ent @ linalg.dagger(lifted)).sum(axis=0)
        w = np.linalg.eigvalsh(linalg.hermitize(choi))
        assert w.min() >= -1e-9


# --- JSON round trips ----------------------------------------------------------------------


def test_observable_json_round_trip(rng):
    obs = sample_random_observable(3, (2, 1), rng)
    data = json.loads(json.dumps(observable_to_json(obs)))
    back = observable_from_json(data)
    assert back.dim == obs.dim
    assert back.eigenvalues == obs.eigenvalues
    assert back.degeneracies == obs.degeneracies
    assert np.array_equal(back.projectors, obs.projectors)


def test_observable_json_rejects_wrong_dim():
    data = observable_to_json(basis_observable(2))
    data["dim"] = 3
    with pytest.raises(ValueError):
        observable_from_json(data)


def test_instrument_json_round_trip(rng):
    inst = sample_random_instrument(3, 2, 3, 2, rng)
    back = instrument_from_json(json.loads(json.dumps(instrument_to_json(inst))))
    assert back.labels == inst.labels
    assert np.array_equal(back.kraus, inst.kraus)
    assert np.array_equal(back.outcome, inst.outcome)


def test_instrument_json_round_trip_uneven_kraus_counts():
    # outcome "keep" has one Kraus operator and outcome "flip" two, from a
    # qubit into a qutrit; the JSON (written as [re, im] pairs, the layout
    # of earlier releases) must come back byte for byte
    def pairs(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]

    h = 1 / math.sqrt(2)
    keep = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    flip_a = [[0.0, 0.0], [0.0, 0.0], [0.0, h]]
    flip_b = [[0.0, 1j * h], [0.0, 0.0], [0.0, 0.0]]
    data = {
        "dim_in": 2,
        "dim_out": 3,
        "branches": [
            {"label": "keep", "kraus": [pairs(keep)]},
            {"label": "flip", "kraus": [pairs(flip_a), pairs(flip_b)]},
        ],
    }
    text = json.dumps(data)
    inst = instrument_from_json(json.loads(text))
    assert inst.outcome.tolist() == [0, 1, 1]
    assert json.dumps(instrument_to_json(inst)) == text
