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

A correction followed by the Z re-measurement acts as a |Z|-outcome POVM
on output ⊗ flag, and measure-and-prepare realises every such POVM, so
the minimum over corrections is a minimum over POVMs.  ``disturbance``
reports the best value found among two fixed corrections (flag-discarding
identity, classical repreparation by outcome) and a Riemannian gradient
descent over the POVM's Naimark isometry, run for all requested orders
and restarts of an instance as one stacked computation.  The result is
an upper bound on the true disturbance.  An upper bound can only refute a
trade-off relation (N + D_upper < B); it cannot certify one, which needs
a lower bound on the disturbance (ROADMAP direction 1).

Both joint tables come from the stacked arrays of the objects in
``quantum`` by batched matrix products; every table the search evaluates
is checked by ``check_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropy import (
    EntropyOrder,
    JointDistribution,
    check_table,
    table_conditional_entropy,
    table_entropy_gradient,
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
    """Budget for the correction-channel search: restarts, and evaluations per restart.

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


def noise(x_obs: ProjectiveObservable, inst: QuantumInstrument, orders: list) -> list:
    """Information-theoretic noise per order: conditional entropy of X given the outcome.

    One joint table, evaluated in every order of ``orders`` by one call
    of the entropy kernel; returns one float per order.  No optimisation
    over guessing functions is applied; the admitted Renyi interval is
    exactly the one for which conditioning on more variables cannot
    increase the entropy.
    """
    for order in orders:
        check_order(order, x_obs.dim)
    table = noise_joint(x_obs, inst).table
    stack = np.broadcast_to(table, (len(orders),) + table.shape)
    return [float(v) for v in table_conditional_entropy(stack, orders)]


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


def _measure_prepare(states: np.ndarray, bras: np.ndarray, dim_in: int) -> Channel:
    """Measure the rows of bras[j] (together a Naimark isometry), then prepare states[j].

    Kraus operators sqrt(w) |v><b| for each eigenpair (w > 0, v) of
    states[j] and each row b of bras[j], unconjugated.
    """
    w, v = np.linalg.eigh(states)
    w = linalg.clip_spectrum(w)
    js, cols = np.nonzero(w > 0.0)
    kets = np.sqrt(w[js, cols])[:, None] * v[js, :, cols]
    kraus = kets[:, None, :, None] * bras[js][:, :, None, :]
    return Channel(dim_in, states.shape[-1], kraus.reshape(-1, states.shape[-1], dim_in))


def reprepare_correction(z_obs: ProjectiveObservable, inst: QuantumInstrument) -> Channel:
    """Classical correction: for each outcome, reprepare the most likely Z eigenstate.

    The most likely eigenvalue per outcome is the standard decision on the
    pre-correction joint of (input eigenvalue, outcome): the largest entry
    of each column, ties going to the smallest row.  The flag is measured
    and the chosen state prepared: bras <b, m| for each basis vector b of
    the output.
    """
    n, d_sys = inst.n_outcomes, inst.dim_out
    best = np.argmax(noise_joint(z_obs, inst).table, axis=0)
    states = z_obs.projectors[best] / np.array(z_obs.degeneracies)[best, None, None]
    bras = np.eye(d_sys * n).reshape(d_sys, n, d_sys * n).swapaxes(0, 1)
    return _measure_prepare(states, bras, d_sys * n)


# --- the POVM search ------------------------------------------------------------

GRAD_TOL = 1e-5                   # Riemannian gradient norm that counts as stationary
_LADDER = 0.3 ** np.arange(3)     # step multiples tried together in one iteration
_ARMIJO = 1e-4                    # sufficient-decrease constant


def _retract(y: np.ndarray) -> np.ndarray:
    """QR retraction onto the Stiefel manifold, phases fixed so R has a positive diagonal."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _riemannian_gradient(povm: np.ndarray, g: np.ndarray, rho: np.ndarray) -> tuple:
    """(D, ||A D||) with Riemannian gradient A_z' D_z' at any A with A_z'† A_z' = E_z'.

    The Euclidean gradient is G_z' = A_z' M_z', M_z' = sum_z g(z, z') rho_z
    with g = dH/dp; G - A sym(A† G) is A_z' (M_z' - sym(sum E_z' M_z')),
    and its norm, sum_z' Tr[D_z' E_z' D_z'], depends on A only through E.
    """
    m = (g.swapaxes(-1, -2) @ rho.reshape(len(rho), -1)).reshape(*g.shape[:-1], *rho.shape[1:])
    d = m - hermitize((povm @ m).sum(axis=-3))[..., None, :, :]
    sq = (d * (povm @ d).swapaxes(-1, -2)).sum(axis=(-3, -2, -1)).real
    return d, np.sqrt(np.maximum(sq, 0.0))


def _povm_search(rho: np.ndarray, orders: list, search: SearchConfig) -> list:
    """Riemannian descent over the Naimark isometry A of the re-measurement POVM.

    A is a (|Z| c, c) isometry of c x c blocks, E_z' = A_z'† A_z' and
    p(z, z') = Tr[E_z' rho_z].  Rows are (order, restart) pairs moving in
    lockstep, and one kernel call per iteration takes the entropy and its
    gradient of every row in that row's order.  An
    iteration evaluates the step ladder as one batch and takes the longest
    step with Armijo decrease.  A row stops when its gradient norm is below
    ``GRAD_TOL`` or its next ladder would overrun ``search.iterations``
    evaluations.  Returns, per order, the best restart's blocks, its
    index and the evaluations of all restarts.
    """
    nz, c, n_rest = len(rho), rho.shape[-1], search.restarts
    row_orders = np.repeat(np.array(orders, dtype=object), n_rest)
    seeds = [None if search.seed is None else np.random.SeedSequence([search.seed, r])
             for r in range(n_rest)]
    gauss = np.array([np.random.default_rng(s).standard_normal((2, nz * c, c)) for s in seeds])
    a = np.tile(_retract(gauss[:, 0] + 1j * gauss[:, 1]), (len(orders), 1, 1))
    rho_t = rho.swapaxes(-1, -2).reshape(nz, -1).T

    def evaluate(points, rows):
        """Entropy, gradient and POVM at each point; point i of ``points`` is on row rows[i]."""
        blocks = points.reshape(*points.shape[:-2], nz, c, c)
        povm = dagger(blocks) @ blocks
        tables = check_table((povm.reshape(*povm.shape[:-2], -1) @ rho_t).real.swapaxes(-1, -2))
        at = row_orders[rows].reshape(rows.shape + (1,) * (points.ndim - 3))
        return *table_entropy_gradient(tables, at), povm

    def direction(rows):
        d, size = _riemannian_gradient(povm[rows], g[rows], rho)
        return (a[rows].reshape(d.shape) @ d).reshape(-1, nz * c, c), size

    rows = np.arange(len(a))
    f, g, povm = evaluate(a, rows)
    xi, norm = direction(rows)
    step = 1.0 / np.maximum(norm, GRAD_TOL)
    evals = np.ones(len(a), dtype=int)
    active = norm >= GRAD_TOL
    while True:
        active &= evals + len(_LADDER) <= search.iterations
        rows = np.nonzero(active)[0]
        if not len(rows):
            break
        t = step[rows, None] * _LADDER
        trial = _retract(a[rows, None] - t[..., None, None] * xi[rows, None])
        ft, gt, pt = evaluate(trial, rows)
        ok = ft <= f[rows, None] - _ARMIJO * t * norm[rows, None] ** 2
        i, pick = np.nonzero(ok.any(axis=1))[0], ok.argmax(axis=1)
        evals[rows] += len(_LADDER)
        # the next ladder starts a rung above the step taken, or a rung below the ladder
        step[rows] = t[:, -1] * _LADDER[1]
        step[rows[i]] = t[i, pick[i]] / _LADDER[1]
        rows, pick = rows[i], pick[i]
        a[rows], f[rows], g[rows], povm[rows] = trial[i, pick], ft[i, pick], gt[i, pick], pt[i, pick]
        xi[rows], norm[rows] = direction(rows)
        active[rows] &= norm[rows] >= GRAD_TOL
    best = f.reshape(len(orders), n_rest).argmin(axis=1)
    evals = evals.reshape(len(orders), n_rest).sum(axis=1)
    return [(a[o * n_rest + r].reshape(nz, c, c), r, int(evals[o])) for o, r in enumerate(best)]


def _correction_povm(z_obs: ProjectiveObservable, kraus: np.ndarray) -> np.ndarray:
    """POVM E_z' = sum_k K_k† Lambda(z') K_k on output ⊗ flag: a correction, then Z."""
    return (dagger(kraus)[None] @ z_obs.projectors[:, None] @ kraus[None]).sum(axis=1)


def disturbance(
    z_obs: ProjectiveObservable,
    inst: QuantumInstrument,
    orders: list,
    search: SearchConfig | None = None,
) -> list:
    """Best-found disturbance per order: an upper bound on the minimum over corrections.

    The candidates are the flag-discarding identity (when dimensions
    permit) and the classical repreparation, exact in the
    zero-disturbance regimes, and per restart a POVM descent run for all
    orders at once (``_povm_search``), reported as its measure-and-prepare
    channel.  Each is evaluated on the exact path, the candidates of all
    orders in one entropy-kernel call; ties go to the fixed corrections.
    Orders computing the same entropy share one result.
    ``converged`` means the Riemannian gradient norm at the reported
    point, a stationarity test that saddle points pass too, is below
    ``GRAD_TOL``.
    """
    search = search or SearchConfig()
    for order in orders:
        check_order(order, z_obs.dim)
    keys = list(dict.fromkeys(order.computed for order in orders))
    if not keys:
        return []
    flagged = flag_apply(inst, z_obs.projectors)
    rho = flagged / z_obs.dim
    ident = discard_flag_correction(inst, z_obs.dim)
    candidates = [] if ident is None else [("discard_flag", ident)]
    candidates.append(("reprepare", reprepare_correction(z_obs, inst)))
    n_fixed = len(candidates)
    found = _povm_search(rho, keys, search) if search.restarts > 0 else []
    states = z_obs.projectors / np.array(z_obs.degeneracies)[:, None, None]
    for blocks, restart, _ in found:
        channel = _measure_prepare(states, blocks, inst.dim_out * inst.n_outcomes)
        candidates.append((f"parametrized_restart_{restart}", channel))
    tables = check_table(
        np.array([_correction_table(z_obs, flagged, channel.kraus) for _, channel in candidates])
    )
    # the candidates of each computed order: the fixed corrections, then its own search result
    pick = np.array([list(range(n_fixed)) + [n_fixed + k] * bool(found) for k in range(len(keys))])
    values, grads = table_entropy_gradient(tables[pick], np.array(keys, dtype=object)[:, None])
    best = np.argmin(values, axis=1)  # ties go to the fixed corrections
    rows = np.arange(len(keys))
    chosen = [candidates[i] for i in pick[rows, best]]
    povms = np.array([_correction_povm(z_obs, channel.kraus) for _, channel in chosen])
    _, norms = _riemannian_gradient(povms, grads[rows, best], rho)
    results = {
        key: CorrectionSearchResult(
            best_value=max(0.0, float(values[k, best[k]])),
            best_channel=chosen[k][1],
            restarts=search.restarts,
            iterations=found[k][2] if found else 0,
            converged=bool(norms[k] < GRAD_TOL),
            best_candidate=chosen[k][0],
        )
        for k, key in enumerate(keys)
    }
    return [results[order.computed] for order in orders]


# --- error probability and fidelity of correction -----------------------------


def error_and_fidelity(
    z_obs: ProjectiveObservable, inst: QuantumInstrument, correction: Channel
) -> tuple[float, float]:
    """Final-estimation error probability and average correction fidelity.

    For non-degenerate Z the two are tied together: 1 - q_e equals the
    average fidelity between the corrected eigenstates and the originals.
    """
    q_e = 1.0 - float(np.trace(disturbance_joint(z_obs, inst, correction).table))
    q_e = min(max(q_e, 0.0), 1.0)
    if not z_obs.nondegenerate:
        raise DegenerateObservable("average correction fidelity needs non-degenerate Z")
    outs = apply_cp(correction.kraus, flag_apply(inst, z_obs.projectors))
    total = sum(linalg.fidelity(hermitize(out), p) for out, p in zip(outs, z_obs.projectors))
    return q_e, total / z_obs.dim


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
    n, d_out = inst.n_outcomes, inst.dim_out
    # element (m, z') sums (K_r ⊗ |m>)† E_z' (K_r ⊗ |m>) over the Kraus operators of m
    blocks = _correction_povm(z_obs, correction.kraus).reshape(-1, d_out, n, d_out, n)
    pulled = dagger(inst.kraus)[:, None] @ blocks[:, :, inst.outcome, :, inst.outcome]
    pulled = hermitize(pulled @ inst.kraus[:, None])
    elements: dict = {}
    for mi, label in enumerate(inst.labels):
        for zval, e in zip(z_obs.eigenvalues, pulled[inst.outcome == mi].sum(axis=0)):
            key = (label, zval) if estimator is None else estimator(label, zval)
            elements[key] = elements[key] + e if key in elements else e
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
    povm = np.array(list(estimation_povm(z_obs, inst, correction, estimator).values()))
    povm_residual = max_abs(povm.sum(axis=0) - np.eye(d))
    phi = np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)
    ent = np.outer(phi, phi.conj())

    nx = len(x_obs.projectors)
    projs = np.concatenate([x_obs.projectors, z_obs.projectors])
    direct = np.trace(povm[:, None] @ projs[None], axis1=-2, axis2=-1).real / d
    # route two: <phi| E(u) ⊗ P^T |phi> on the system and its mirror
    kron = np.einsum("uab,xcd->uxacbd", povm, projs.swapaxes(-1, -2))
    kron = kron.reshape(len(povm), len(projs), d * d, d * d)
    gap = np.abs(direct - np.trace(kron @ ent, axis1=-2, axis2=-1).real)
    direct_x, gap_x, gap_z = direct[:, :nx], max_abs(gap[:, :nx]), max_abs(gap[:, nx:])

    lifted = np.kron(povm, np.eye(d, dtype=complex)) @ ent
    p_u = np.trace(lifted, axis1=-2, axis2=-1).real
    p_u_direct = direct_x.sum(axis=1)
    keep = (p_u > 1e-12) & (p_u_direct > 1e-12)
    rho_u = np.array([linalg.partial_trace(m, (d, d), keep="B") for m in lifted[keep]])
    rhs = np.trace(x_obs.projectors.swapaxes(-1, -2)[None] @ rho_u[:, None], axis1=-2, axis2=-1)
    lhs = direct_x[keep] / p_u_direct[keep, None]
    gap_cond = max_abs(lhs - rhs.real / p_u[keep, None])

    c_plain = float(linalg.pair_overlaps(x_obs.projectors, z_obs.projectors).max())
    transposed = (o.projectors.swapaxes(-1, -2) for o in (x_obs, z_obs))
    c_transposed = float(linalg.pair_overlaps(*transposed).max())

    return ConsistencyReport(
        max_joint_x_gap=gap_x,
        max_joint_z_gap=gap_z,
        max_conditional_gap=gap_cond,
        povm_residual=povm_residual,
        overlap_c=c_plain,
        overlap_c_transposed=c_transposed,
    )
