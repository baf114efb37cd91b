"""The stacked-array core against plain loop implementations.

The references below compute the noise joint, the corrected disturbance
joint, the flagged evolution and the conditional entropies one Kraus
operator, one projector and one column at a time, the way the package
computed them before its objects became stacked arrays.  The array code
must agree with them to 1e-12 on every case: dimensions 2, 3 and 4,
dim_out != dim_in, outcomes with different numbers of Kraus operators
(none at all, included), a degenerate Z, and zero-probability columns.

The references work on the full output ⊗ flag space, of dimension
c = d_out n for n outcomes; the package keeps only the n diagonal
blocks.  The corrections here are Kraus lists on the full space (flag
discarding, measure-and-prepare by outcome, measure-and-prepare of a
random Naimark isometry, a random channel that mixes the blocks),
applied by the loop route.  The package evaluates the flag-block
pinching of their pulled-back POVM E_z' = sum_k K_k† Lambda(z') K_k,
one d_out x d_out POVM per outcome, and must give the loop table of the
full correction, in both pictures: this is the evidence that keeping
the blocks alone loses no correction.
"""

import math

import numpy as np
import pytest

from etoff.entropy import (
    SHANNON_BRANCH,
    EntropyOrder,
    check_table,
    conditional_entropy,
    entropy,
)
from etoff import noise_disturbance
from etoff.noise_disturbance import (
    disturbance_joint,
    discard_flag_correction,
    noise_joint,
    reprepare_correction,
    two_picture_gap,
)
from etoff.quantum import (
    QuantumInstrument,
    basis_observable,
    flag_apply,
    sample_haar_unitary,
    sample_random_instrument,
    sample_random_observable,
    trivial_instrument,
)

from conftest import sample_one

TOL = 1e-12
NEAR_ONE = (1.0 - 1e-8, 1.0, 1.0 + 1e-8)
ORDERS = (
    [EntropyOrder.renyi(a) for a in (0.3, *NEAR_ONE, 2.0, math.inf)]
    + [EntropyOrder.tsallis(a) for a in (0.3, *NEAR_ONE, 2.0)]
    + [EntropyOrder(a, "shannon") for a in NEAR_ONE]
)


# --- loop references ---------------------------------------------------------------


def outcome_kraus(inst, m):
    return [k for k, o in zip(inst.kraus, inst.outcome) if o == m]


def loop_apply_cp(kraus, rho, d_out):
    out = np.zeros((d_out, d_out), dtype=complex)
    for k in kraus:
        out = out + k @ rho @ k.conj().T
    return out


def loop_flag_apply(inst, op):
    n, d = inst.n_outcomes, inst.dim_out
    out = np.zeros((d * n, d * n), dtype=complex)
    for m in range(n):
        flag = np.zeros((n, n), dtype=complex)
        flag[m, m] = 1.0
        out += np.kron(loop_apply_cp(outcome_kraus(inst, m), op, d), flag)
    return out


def loop_noise_table(x_obs, inst):
    table = np.empty((len(x_obs.projectors), inst.n_outcomes))
    for i, p in enumerate(x_obs.projectors):
        for m in range(inst.n_outcomes):
            block = loop_apply_cp(outcome_kraus(inst, m), p, inst.dim_out)
            table[i, m] = float(np.trace(block).real) / x_obs.dim
    return table


def loop_correction_table(z_obs, inst, kraus):
    n = len(z_obs.projectors)
    table = np.empty((n, n))
    for i, pz in enumerate(z_obs.projectors):
        sigma = loop_apply_cp(kraus, loop_flag_apply(inst, pz), z_obs.dim)
        for k, lam in enumerate(z_obs.projectors):
            table[i, k] = float(np.trace(lam @ sigma).real) / z_obs.dim
    return table


def loop_pull_back(z_obs, kraus):
    """Re-measurement POVM of a correction: E_z' = sum_k K_k† Lambda(z') K_k."""
    return np.array([sum(k.conj().T @ lam @ k for k in kraus) for lam in z_obs.projectors])


def loop_heisenberg_table(z_obs, inst, full):
    """p(z, z') of a full-space POVM read off its pull-back through the lifted Kraus operators."""
    table = np.zeros((len(z_obs.projectors), len(full)))
    for k, m in zip(inst.kraus, inst.outcome):
        flag = np.zeros((inst.n_outcomes, 1))
        flag[m] = 1.0
        lifted = np.kron(k, flag)  # K_r ⊗ |m_r>, from the input into output ⊗ flag
        for i, pz in enumerate(z_obs.projectors):
            for j, e in enumerate(full):
                table[i, j] += float(np.trace(lifted.conj().T @ e @ lifted @ pz).real) / z_obs.dim
    return table


def pinch(full, inst):
    """Flag-block pinching of a full-space POVM: (|Z|, c, c) -> (n, |Z|, d_out, d_out)."""
    n, d = inst.n_outcomes, inst.dim_out
    blocks = full.reshape(len(full), d, n, d, n)
    return np.array([blocks[:, :, m, :, m] for m in range(n)])


def loop_entropy(p, order):
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    p = p / p.sum()
    alpha = order.alpha
    if math.isinf(alpha):
        return max(0.0, -math.log(float(p.max())))
    q = p[p > 0.0]
    if abs(alpha - 1.0) < SHANNON_BRANCH:
        return max(0.0, float(-np.sum(q * np.log(q))))
    s = float(np.sum(q ** alpha))
    if order.family == "renyi":
        return max(0.0, math.log(s) / (1.0 - alpha))
    return max(0.0, (s - 1.0) / (1.0 - alpha))


def loop_conditional(table, order):
    total = 0.0
    for k, w in enumerate(table.sum(axis=0)):
        if w > 0.0:
            total += w * loop_entropy(table[:, k] / w, order)
    return total


# --- cases -------------------------------------------------------------------------


def random_channel(c_in, c_out, seed):
    """Kraus list of a random channel from a c_in space to a c_out one."""
    rank = -(-c_in // c_out) + 1
    return list(sample_random_instrument(c_in, c_out, 1, rank, seed).kraus)


def measure_prepare(z_obs, bras):
    """Measure with the rows of bras[j], then prepare the Z eigenstate Pi(j)/d_j.

    Kraus operators sqrt(w) |v><b| for each eigenpair (w > 0, v) of the
    prepared state and each row b of bras[j].
    """
    kraus = []
    for j, rows in enumerate(bras):
        w, v = np.linalg.eigh(z_obs.projectors[j] / z_obs.degeneracies[j])
        for wi, vi in zip(w, v.T):
            if wi > 1e-12:
                kraus += [math.sqrt(wi) * np.outer(vi, b) for b in rows]
    return kraus


def discard_flag_kraus(inst):
    """Kraus operators I ⊗ <m| that trace out the outcome flag."""
    eye = np.eye(inst.dim_out * inst.n_outcomes)
    return [eye[m::inst.n_outcomes] for m in range(inst.n_outcomes)]


def reprepare_kraus(z_obs, inst):
    """Read the flag, then prepare the Z eigenstate the standard decision picks."""
    n, d = inst.n_outcomes, inst.dim_out
    best = loop_noise_table(z_obs, inst).argmax(axis=0)
    eye = np.eye(d * n)
    bras = [np.zeros((0, d * n)) for _ in z_obs.projectors]
    for m in range(n):
        bras[best[m]] = np.concatenate([bras[best[m]], eye[m::n]])
    return measure_prepare(z_obs, bras)


def naimark_kraus(z_obs, inst, seed):
    """Measure-and-prepare of a random Naimark isometry A; its POVM is A_j† A_j."""
    c = inst.dim_out * inst.n_outcomes
    blocks = sample_haar_unitary(len(z_obs.projectors) * c, seed)[:, :c].reshape(-1, c, c)
    return measure_prepare(z_obs, blocks), blocks


def _uneven(inst, outcome, labels):
    """The same Kraus stack regrouped into outcomes of different sizes."""
    return QuantumInstrument(inst.dim_in, inst.dim_out, labels, inst.kraus, outcome)


def _with_idle_outcomes(inst):
    """Append an outcome with a zero Kraus operator and one with no Kraus operator."""
    zero = np.zeros((1, inst.dim_out, inst.dim_in))
    return QuantumInstrument(
        inst.dim_in,
        inst.dim_out,
        inst.labels + ("zero", "empty"),
        np.concatenate([inst.kraus, zero]),
        np.append(inst.outcome, inst.n_outcomes),
    )


def cases():
    out = []
    for d in (2, 3, 4):
        x_obs = sample_random_observable(d, None, seed=10 + d)
        z_obs = sample_random_observable(d, None, seed=20 + d)
        out.append((f"d{d}", x_obs, z_obs, sample_random_instrument(d, d, d, 2, 30 + d)))
        wide = sample_random_instrument(d, d + 1, 2, 2, 40 + d)
        out.append((f"d{d}-dim_out", x_obs, z_obs, wide))
        four = sample_random_instrument(d, d, 4, 1, 50 + d)
        out.append((f"d{d}-uneven", x_obs, z_obs, _uneven(four, [0, 1, 1, 1], ("a", "b"))))
        out.append((f"d{d}-idle", x_obs, z_obs, _with_idle_outcomes(wide)))
        out.append((f"d{d}-trivial", x_obs, basis_observable(d), trivial_instrument(d)))
    for d, profile in ((3, (2, 1)), (4, (2, 1, 1))):
        z_deg = sample_random_observable(d, profile, seed=60 + d)
        x_obs = sample_random_observable(d, None, seed=70 + d)
        inst = sample_random_instrument(d, d, 2, 2, 80 + d)
        out.append((f"d{d}-degenerate", x_obs, z_deg, inst))
        out.append((f"d{d}-degenerate-x", z_deg, x_obs, inst))
    return out


CASES = cases()


def corrections(z_obs, inst, seed):
    """Kraus lists of corrections on the case, each with a POVM it must pull back to.

    The POVM is the package's per-outcome correction for the fixed
    corrections, the full-space A_z'† A_z' for the Naimark one, and None
    for the random channel.
    """
    c_in = inst.dim_out * inst.n_outcomes
    naimark, blocks = naimark_kraus(z_obs, inst, seed)
    found = [
        (reprepare_kraus(z_obs, inst), reprepare_correction(z_obs, inst)),
        (naimark, np.conj(blocks).swapaxes(-1, -2) @ blocks),
        (random_channel(c_in, z_obs.dim, seed), None),
    ]
    if inst.dim_out == z_obs.dim:
        found.append((discard_flag_kraus(inst), discard_flag_correction(z_obs, inst)))
    else:
        assert discard_flag_correction(z_obs, inst) is None
    return found


def assert_entropies_agree(table):
    table = check_table(table)
    for order in ORDERS:
        assert conditional_entropy(table, order) == pytest.approx(
            loop_conditional(table, order), abs=TOL
        )


# --- agreement ---------------------------------------------------------------------


@pytest.mark.parametrize("name, x_obs, z_obs, inst", CASES, ids=[c[0] for c in CASES])
def test_flag_apply_matches_loop(name, x_obs, z_obs, inst):
    # the package's blocks are the flag blocks of the full flagged evolution,
    # and the full evolution has nothing outside them
    n = inst.n_outcomes
    got = flag_apply(inst.kraus, inst.by_outcome, z_obs.projectors)
    assert got.shape == (len(z_obs.projectors), n, inst.dim_out, inst.dim_out)
    for g, p in zip(got, z_obs.projectors):
        full = loop_flag_apply(inst, p)
        assert np.max(np.abs(g - pinch(full[None], inst)[:, 0])) <= TOL
        off_block = np.arange(len(full)) % n != np.arange(len(full))[:, None] % n
        assert np.all(full[off_block] == 0.0)


@pytest.mark.parametrize("name, x_obs, z_obs, inst", CASES, ids=[c[0] for c in CASES])
def test_noise_joint_matches_loop(name, x_obs, z_obs, inst):
    ref = loop_noise_table(x_obs, inst)
    j = noise_joint(x_obs, inst)
    assert np.max(np.abs(j - ref)) <= TOL
    assert_entropies_agree(ref)


@pytest.mark.parametrize("name, x_obs, z_obs, inst", CASES, ids=[c[0] for c in CASES])
def test_correction_joint_matches_loop(name, x_obs, z_obs, inst):
    for kraus, povm in corrections(z_obs, inst, seed=len(name)):
        pulled = loop_pull_back(z_obs, kraus)
        blocks = pinch(pulled, inst)
        if povm is not None:
            expected = pulled if povm.shape == pulled.shape else blocks
            assert np.max(np.abs(povm - expected)) <= TOL
        ref = loop_correction_table(z_obs, inst, kraus)
        assert np.max(np.abs(loop_heisenberg_table(z_obs, inst, pulled) - ref)) <= TOL
        j = disturbance_joint(z_obs, inst, blocks)
        assert np.max(np.abs(j - ref)) <= TOL
        assert_entropies_agree(ref)
        assert two_picture_gap(x_obs, z_obs, inst, blocks) <= TOL


FLAG_APPLY, TABLE = noise_disturbance.flag_apply, noise_disturbance._table
MUTATIONS = {
    "flag_apply-outcomes-rolled": (
        "flag_apply", lambda kraus, by_outcome, op: np.roll(FLAG_APPLY(kraus, by_outcome, op), 1,
                                                            axis=-3)),
    "table-outcomes-reversed": ("_table", lambda povm, rho: TABLE(povm[..., ::-1, :, :, :], rho)),
    "table-of-rho-transposed": ("_table", lambda povm, rho: TABLE(povm, rho.swapaxes(-1, -2))),
    "table-transposed": ("_table", lambda povm, rho: TABLE(povm, rho).swapaxes(-1, -2)),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_two_pictures_catch_a_mutated_table(monkeypatch, name):
    x_obs, z_obs, inst = sample_one(3, 14)
    _, blocks = naimark_kraus(z_obs, inst, seed=3)
    povm = pinch(np.conj(blocks).swapaxes(-1, -2) @ blocks, inst)
    assert two_picture_gap(x_obs, z_obs, inst, povm) <= TOL
    monkeypatch.setattr(noise_disturbance, *MUTATIONS[name])
    assert two_picture_gap(x_obs, z_obs, inst, povm) > 1e-3


def test_cases_cover_the_edges():
    idle = [c for c in CASES if c[0].endswith("-idle")]
    assert all(np.all(noise_joint(x, m)[:, -2:] == 0.0) for _, x, _, m in idle)
    # repreparing one basis state after a single-outcome instrument leaves
    # every other Z' column empty
    _, _, z_obs, inst = next(c for c in CASES if c[0] == "d3-trivial")
    j = disturbance_joint(z_obs, inst, reprepare_correction(z_obs, inst))
    assert np.sum(j.sum(axis=0) == 0.0) == 2


def test_unconditional_entropies_match_loop(rng):
    for _ in range(50):
        p = rng.random(int(rng.integers(2, 6)))
        p[rng.random(p.size) < 0.3] = 0.0
        if p.sum() == 0.0:
            continue
        p /= p.sum()
        for order in ORDERS:
            assert entropy(p, order) == pytest.approx(loop_entropy(p, order), abs=TOL)
