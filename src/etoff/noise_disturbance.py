"""Information-theoretic noise and disturbance of quantum instruments.

Two correlation experiments drive everything here.  In the first, a
source emits eigenstates of an observable X (the state Pi(x)/d_x with
probability d_x/d); the instrument's classical outcome m is correlated
with the input eigenvalue, and the noise is the conditional entropy of X
given M.  In the second, eigenstates of a second observable Z are fed
through the instrument, a correction channel acting on the quantum
output together with the outcome flag tries to undo the measurement
back-action, Z is measured again, and the disturbance is the conditional
entropy of the input eigenvalue given the final outcome, minimised over
correction channels.

The exact minimum over all correction channels is not computable in
closed form; ``disturbance`` reports the best value found over a family
of candidates (flag-discarding identity, classical repreparation by
outcome, and a continuously parametrised Kraus family refined by
derivative-free search).  The result is an upper bound on the true
disturbance.  An upper bound can only refute a trade-off relation
(N + D_upper < B); it cannot certify one, which needs a lower bound on
the disturbance (ROADMAP direction 1).

Both joint tables are computed from the stacked arrays of the objects in
``quantum`` with batched matrix products, and the search objective checks
each table once, as a whole, before taking its conditional entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import linalg
from .entropy import (
    EntropyOrder,
    JointDistribution,
    check_table,
    conditional_entropy,
    table_conditional_entropy,
)
from .linalg import dagger, hermitize, max_abs
from .quantum import Channel, ProjectiveObservable, QuantumInstrument, apply_cp, flag_apply

_RANGE_TOL = 1e-12


class OrderOutOfRange(ValueError):
    """Entropic order outside the admitted interval for this dimension."""


class DegenerateObservable(ValueError):
    """Operation requires a non-degenerate observable."""


@dataclass(frozen=True)
class SearchConfig:
    """Budget for the correction-channel search.

    With a seed the whole search is deterministic, and restart r depends
    only on (seed, r), so growing the budget can never worsen the
    reported minimum.
    """

    restarts: int = 8
    iterations: int = 2000
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class CorrectionSearchResult:
    best_value: float
    best_channel: Channel
    restarts: int
    iterations: int
    converged: bool
    best_candidate: str


@dataclass(frozen=True, eq=False)
class NoiseExperiment:
    observable: ProjectiveObservable
    instrument: QuantumInstrument
    joint: JointDistribution


@dataclass(frozen=True, eq=False)
class DisturbanceExperiment:
    observable: ProjectiveObservable
    instrument: QuantumInstrument
    correction: Channel
    joint: JointDistribution


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Cross-check of the combined-estimation statistics.

    The joint distributions of (estimation outcome, input eigenvalue) are
    computed twice: directly on the input system, and through a maximally
    entangled pair where the observable acts transposed on the mirror
    system.  The report carries the worst absolute discrepancies, the
    completeness residual of the estimation POVM, and the overlap
    characteristic computed from plain and transposed projectors.
    """

    max_joint_x_gap: float
    max_joint_z_gap: float
    max_conditional_gap: float
    povm_residual: float
    overlap_c: float
    overlap_c_transposed: float

    @property
    def max_gap(self) -> float:
        return max(self.max_joint_x_gap, self.max_joint_z_gap, self.max_conditional_gap)


# --- admissible orders -------------------------------------------------------


def check_order(order: EntropyOrder, dim: int) -> None:
    """Reject Renyi orders outside (0, 1], or (0, 2] in dimension 2."""
    if order.family != "renyi":
        return
    limit = 2.0 if dim == 2 else 1.0
    if math.isinf(order.alpha) or order.alpha > limit + _RANGE_TOL:
        raise OrderOutOfRange(
            f"Renyi order {order.alpha} not admitted at dimension {dim} "
            f"(allowed interval (0, {limit:g}])"
        )


# --- the first experiment: noise ---------------------------------------------


def noise_joint(x_obs: ProjectiveObservable, inst: QuantumInstrument) -> JointDistribution:
    """Joint distribution p(x, m) of input eigenvalue and instrument outcome.

    Rows are X eigenvalues, columns instrument outcomes, so conditional
    entropies of this joint are entropies of X given M.
    """
    if x_obs.dim != inst.dim_in:
        raise ValueError(f"observable dim {x_obs.dim} != instrument input dim {inst.dim_in}")
    # p(x, m) = (d_x / d) * p(m | x) with input state Pi(x)/d_x: the trace
    # of flag block m of the flagged evolution of Pi(x), over d
    flagged = flag_apply(inst, x_obs.projectors)
    diag = np.diagonal(flagged, axis1=1, axis2=2).real
    table = diag.reshape(len(diag), inst.dim_out, inst.n_outcomes).sum(axis=1) / x_obs.dim
    return JointDistribution(table, x_obs.eigenvalues, inst.labels)


def noise_experiment(x_obs: ProjectiveObservable, inst: QuantumInstrument) -> NoiseExperiment:
    j = noise_joint(x_obs, inst)
    marg = j.marginal_rows()
    expect = np.array(x_obs.degeneracies) / x_obs.dim
    if np.max(np.abs(marg - expect)) > 1e-9:
        raise ValueError("noise joint marginal deviates from d_x/d")
    return NoiseExperiment(x_obs, inst, j)


def noise(x_obs: ProjectiveObservable, inst: QuantumInstrument, order: EntropyOrder) -> float:
    """Information-theoretic noise: conditional entropy of X given the outcome.

    No optimisation over guessing functions is applied; the admitted
    Renyi interval is exactly the one for which conditioning on more
    variables cannot increase the entropy.
    """
    check_order(order, x_obs.dim)
    return conditional_entropy(noise_joint(x_obs, inst), order)


# --- the second experiment: disturbance --------------------------------------


def _correction_table(z_obs: ProjectiveObservable, flagged, kraus) -> np.ndarray:
    """Unnormalised p(z, z') = (1/d) Tr[Lambda(z') Psi(Phi_M(Lambda(z)))].

    ``flagged`` is the stack of Phi_M(Lambda(z)) on the output ⊗ flag
    space and ``kraus`` the Kraus stack of the correction Psi.
    """
    sigma = apply_cp(kraus, flagged)
    lam = z_obs.projectors
    return np.trace(lam[None] @ sigma[:, None], axis1=-2, axis2=-1).real / z_obs.dim


def disturbance_joint(
    z_obs: ProjectiveObservable, inst: QuantumInstrument, correction: Channel
) -> JointDistribution:
    """Joint p(z, z') of input eigenvalue and corrected re-measurement outcome."""
    _check_correction_dims(z_obs, inst, correction)
    table = _correction_table(z_obs, flag_apply(inst, z_obs.projectors), correction.kraus)
    return JointDistribution(table, z_obs.eigenvalues, z_obs.eigenvalues)


def _check_correction_dims(z_obs, inst, correction) -> None:
    c_in = inst.dim_out * inst.n_outcomes
    if correction.dim_in != c_in:
        raise ValueError(
            f"correction input dim {correction.dim_in} != output ⊗ flag dim {c_in}"
        )
    if correction.dim_out != z_obs.dim:
        raise ValueError(
            f"correction output dim {correction.dim_out} != observable dim {z_obs.dim}"
        )
    if z_obs.dim != inst.dim_in:
        raise ValueError(f"observable dim {z_obs.dim} != instrument input dim {inst.dim_in}")


def disturbance_experiment(
    z_obs: ProjectiveObservable, inst: QuantumInstrument, correction: Channel
) -> DisturbanceExperiment:
    j = disturbance_joint(z_obs, inst, correction)
    marg = j.marginal_rows()
    expect = np.array(z_obs.degeneracies) / z_obs.dim
    if np.max(np.abs(marg - expect)) > 1e-9:
        raise ValueError("disturbance joint marginal deviates from d_z/d")
    return DisturbanceExperiment(z_obs, inst, correction, j)


def discard_flag_correction(inst: QuantumInstrument, target_dim: int) -> Channel | None:
    """Trace out the outcome flag and return the quantum output unchanged.

    Only available when the instrument's output space matches the target
    system; returns None otherwise.
    """
    if inst.dim_out != target_dim:
        return None
    n = inst.n_outcomes
    d = inst.dim_out
    # Kraus operator m is I ⊗ <m|: rows (a, m) of the identity on output ⊗ flag
    kraus = np.eye(d * n, dtype=complex).reshape(d, n, d * n).swapaxes(0, 1)
    return Channel(d * n, d, kraus)


def reprepare_correction(z_obs: ProjectiveObservable, inst: QuantumInstrument) -> Channel:
    """Classical correction: for each outcome, reprepare the most likely Z eigenstate.

    The most likely eigenvalue per outcome is the standard decision on the
    pre-correction joint of (input eigenvalue, outcome): the largest entry
    of each column, ties going to the smallest row.  The flag is measured
    and the chosen state prepared, with Kraus operators
    sqrt(w_i) |v_i><b, m| for each eigenpair (w_i > 0, v_i) of the state
    of outcome m and each basis vector b of the output.
    """
    n, d_sys, d_z = inst.n_outcomes, inst.dim_out, z_obs.dim
    best = np.argmax(noise_joint(z_obs, inst).table, axis=0)
    states = z_obs.projectors[best] / np.array(z_obs.degeneracies)[best, None, None]
    w, v = np.linalg.eigh(states)
    w = linalg.clip_spectrum(w)
    flags, cols = np.nonzero(w > 0.0)
    kets = np.sqrt(w[flags, cols])[:, None] * v[flags, :, cols]
    bras = np.eye(d_sys * n).reshape(d_sys, n, d_sys * n)[:, flags].swapaxes(0, 1)
    kraus = kets[:, None, :, None] * bras[:, :, None, :]
    return Channel(d_sys * n, d_z, kraus.reshape(-1, d_z, d_sys * n))


def _params_to_kraus(params: np.ndarray, c_out: int, n_env: int, c_in: int) -> np.ndarray:
    half = params.size // 2
    g = (params[:half] + 1j * params[half:]).reshape(c_out * n_env, c_in)
    q, _ = np.linalg.qr(g)
    return np.ascontiguousarray(q.reshape(c_out, n_env, c_in).swapaxes(0, 1))


def disturbance(
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    order: EntropyOrder,
    search: SearchConfig | None = None,
) -> CorrectionSearchResult:
    """Best-found disturbance: an upper bound on the minimum over corrections.

    The candidate family always contains the classical repreparation and,
    when dimensions permit, the flag-discarding identity; those two are
    exact minimisers in the zero-disturbance regimes.  Additional
    restarts run a Nelder-Mead refinement over a parametrised isometry
    family.
    """
    search = search or SearchConfig()
    check_order(order, z_obs.dim)
    flagged = flag_apply(inst, z_obs.projectors)

    def value_of(kraus: np.ndarray) -> float:
        table = check_table(_correction_table(z_obs, flagged, kraus))
        return table_conditional_entropy(table, order)

    candidates: list[tuple[str, Channel]] = []
    ident = discard_flag_correction(inst, z_obs.dim)
    if ident is not None:
        candidates.append(("discard_flag", ident))
    candidates.append(("reprepare", reprepare_correction(z_obs, inst)))

    best_name, best_channel = candidates[0]
    best_value = value_of(best_channel.kraus)
    for name, ch in candidates[1:]:
        val = value_of(ch.kraus)
        if val < best_value:
            best_name, best_channel, best_value = name, ch, val

    c_in = inst.dim_out * inst.n_outcomes
    c_out = z_obs.dim
    n_env = max(2, -(-c_in // c_out))  # Kraus rank: at least 2, with c_out * n_env >= c_in
    n_params = 2 * c_out * n_env * c_in

    def objective(params: np.ndarray) -> float:
        return value_of(_params_to_kraus(params, c_out, n_env, c_in))

    total_evals = 0
    converged = True
    best_params = None
    for r in range(search.restarts):
        if search.seed is None:
            rng = np.random.default_rng()
        else:
            rng = np.random.default_rng(np.random.SeedSequence([search.seed, r]))
        x0 = rng.standard_normal(n_params)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": search.iterations,
                "xatol": 1e-7,
                "fatol": 1e-11,
                "adaptive": True,
            },
        )
        total_evals += int(res.nfev)
        converged = converged and bool(res.success)
        if res.fun < best_value:
            best_value = float(res.fun)
            best_params = np.array(res.x)
            best_name = f"parametrized_restart_{r}"
    if best_params is not None:
        best_channel = Channel(c_in, c_out, _params_to_kraus(best_params, c_out, n_env, c_in))

    return CorrectionSearchResult(
        best_value=max(0.0, best_value),
        best_channel=best_channel,
        restarts=search.restarts,
        iterations=total_evals,
        converged=converged,
        best_candidate=best_name,
    )


# --- error probability and fidelity of correction -----------------------------


def error_and_fidelity(exp: DisturbanceExperiment) -> tuple[float, float]:
    """Final-estimation error probability and average correction fidelity.

    For non-degenerate Z the two are tied together: 1 - q_e equals the
    average fidelity between the corrected eigenstates and the originals.
    """
    q_e = 1.0 - float(np.trace(exp.joint.table))
    q_e = min(max(q_e, 0.0), 1.0)
    if not exp.observable.nondegenerate:
        raise DegenerateObservable("average correction fidelity needs non-degenerate Z")
    projectors = exp.observable.projectors
    outs = apply_cp(exp.correction.kraus, flag_apply(exp.instrument, projectors))
    total = sum(linalg.fidelity(hermitize(out), p) for out, p in zip(outs, projectors))
    return q_e, total / exp.observable.dim


# --- combined-estimation consistency oracle ------------------------------------


def estimation_povm(
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    correction: Channel,
    estimator=None,
) -> dict:
    """POVM on the input system realising (outcome, corrected Z estimate) jointly.

    Element for (m, z') is the Heisenberg-picture pull-back of the final
    projector through the correction and the flagged branch map.  An
    optional estimator maps (m, z') to a coarser label; elements with the
    same image are summed, which preserves completeness.
    """
    _check_correction_dims(z_obs, inst, correction)
    d_in = inst.dim_in
    n = inst.n_outcomes
    elements: dict = {}
    for mi, label in enumerate(inst.labels):
        em = np.eye(n, dtype=complex)[:, mi : mi + 1]
        kraus_m = inst.kraus[inst.outcome == mi]
        lifted = [l_op @ np.kron(k_op, em) for k_op in kraus_m for l_op in correction.kraus]
        for zval, zproj in zip(z_obs.eigenvalues, z_obs.projectors):
            e = np.zeros((d_in, d_in), dtype=complex)
            for s in lifted:
                e += dagger(s) @ zproj @ s
            key = (label, zval)
            if estimator is not None:
                key = estimator(*key)
            if key in elements:
                elements[key] = elements[key] + hermitize(e)
            else:
                elements[key] = hermitize(e)
    return elements


def ricochet_oracle(
    x_obs: ProjectiveObservable,
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    correction: Channel,
    estimator=None,
) -> ConsistencyReport:
    """Double-compute the combined-estimation statistics and report gaps.

    Route one evaluates p(u, x) = (1/d) Tr(E(u) Pi(x)) with the estimation
    POVM on the input system.  Route two prepares the maximally entangled
    state of the system with a mirror copy and measures transposed
    projectors on the mirror; linearity of the transpose makes the two
    agree exactly, so any gap is numerical.  The report also compares the
    direct conditionals p(x|u) with Tr(Pi(x)^T rho(u)) for the ensemble of
    mirror states induced by the estimation, and the overlap
    characteristic with its transposed variant.
    """
    if x_obs.dim != z_obs.dim or x_obs.dim != inst.dim_in:
        raise ValueError("observables and instrument must share the input dimension")
    d = x_obs.dim
    povm = estimation_povm(z_obs, inst, correction, estimator)

    total = sum(povm.values())
    povm_residual = max_abs(total - np.eye(d))

    phi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        phi[i * d + i] = 1.0 / math.sqrt(d)
    ent = np.outer(phi, phi.conj())

    def direct(proj) -> dict:
        return {u: float(np.trace(e @ proj).real) / d for u, e in povm.items()}

    def mirrored(proj) -> dict:
        pt = np.asarray(proj).T
        return {
            u: float(np.trace(np.kron(e, pt) @ ent).real) for u, e in povm.items()
        }

    gap_x = 0.0
    gap_z = 0.0
    direct_x = {}
    for xval, xproj in zip(x_obs.eigenvalues, x_obs.projectors):
        d1 = direct(xproj)
        d2 = mirrored(xproj)
        direct_x[xval] = d1
        gap_x = max(gap_x, max(abs(d1[u] - d2[u]) for u in povm))
    for zproj in z_obs.projectors:
        d1 = direct(zproj)
        d2 = mirrored(zproj)
        gap_z = max(gap_z, max(abs(d1[u] - d2[u]) for u in povm))

    gap_cond = 0.0
    for u, e in povm.items():
        p_u_direct = sum(direct_x[xv][u] for xv in x_obs.eigenvalues)
        lifted = np.kron(e, np.eye(d, dtype=complex)) @ ent
        p_u = float(np.trace(lifted).real)
        if p_u <= 1e-12 or p_u_direct <= 1e-12:
            continue
        rho_u = linalg.partial_trace(lifted, (d, d), keep="B") / p_u
        for xval, xproj in zip(x_obs.eigenvalues, x_obs.projectors):
            lhs = direct_x[xval][u] / p_u_direct
            rhs = float(np.trace(xproj.T @ rho_u).real)
            gap_cond = max(gap_cond, abs(lhs - rhs))

    c_plain = float(linalg.pair_overlaps(x_obs.projectors, z_obs.projectors).max())
    x_t = x_obs.projectors.swapaxes(-1, -2)
    z_t = z_obs.projectors.swapaxes(-1, -2)
    c_transposed = float(linalg.pair_overlaps(x_t, z_t).max())

    return ConsistencyReport(
        max_joint_x_gap=gap_x,
        max_joint_z_gap=gap_z,
        max_conditional_gap=gap_cond,
        povm_residual=povm_residual,
        overlap_c=c_plain,
        overlap_c_transposed=c_transposed,
    )
