"""Information-theoretic noise and disturbance of quantum instruments.

Two correlation experiments drive everything here.  In the first, a
source emits eigenstates of an observable X (the state Pi(x)/d_x with
probability d_x/d); the instrument's classical outcome m is correlated
with the input eigenvalue, and the noise is the conditional entropy of X
given M.  In the second, eigenstates of a second observable Z are fed
through the instrument, a correction channel that may depend on the
outcome m tries to undo the measurement back-action, Z is measured
again, and the disturbance is the conditional entropy of the input
eigenvalue given the final outcome, minimised over correction channels.

A correction followed by the Z re-measurement acts only through a
|Z|-outcome POVM, and measure-and-prepare realises every such POVM, so
the minimum over corrections is a minimum over POVMs.  As m is
classical, the flagged states sigma_z = sum_m Phi^(m)(Pi(z))/d ⊗ |m><m|
are block diagonal; pinching a POVM onto the n flag blocks is unital and
CP and keeps every Tr[E_z' sigma_z].  So a correction is one |Z|-outcome
POVM per outcome, an (n, |Z|, d_out, d_out) stack.  ``disturbance``
reports the best value found among two fixed corrections
(flag-discarding identity, classical repreparation by outcome) and a
Riemannian gradient descent over the blocks' Naimark isometries, run for
all requested orders and restarts of an instance as one stacked
computation.  Each descent step tries a short ladder of step lengths
whose top rung is the Barzilai-Borwein step of the row's last move where
that step is defined (Wen & Yin, Math. Program. 142, 397 (2013)), and
one rung above the step taken otherwise.  The result is an upper bound
on the true disturbance; it can refute a trade-off relation
(N + D_upper < B) but not certify one, which needs a lower bound on the
disturbance (ROADMAP direction A).

Both joint tables come from the stacked arrays of the objects in
``quantum`` by batched matrix products; every disturbance table,
p(z, z') = sum_m Tr[E_z'^(m) sigma_z^(m)], comes from ``_table``.
``two_picture_gap`` checks both tables against the same ones read off
the POVMs pulled back to the input system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropy import EntropyOrder, check_table, conditional_entropy, conditional_entropy_gradient
from .linalg import DECOMP_TOL, dagger, hermitize, max_abs, qr_retract
from .quantum import ProjectiveObservable, QuantumInstrument, flag_apply

_RANGE_TOL = 1e-12


class AdmissibilityError(ValueError):
    """An order, or a relation at its orders, outside its admitted (alpha, beta, d) region."""


@dataclass(frozen=True)
class SearchConfig:
    """Budget for the correction search: restarts, and evaluations per restart.

    With a seed the whole search is deterministic, and restart r depends
    only on (seed, r); a restart's steps, Barzilai-Borwein lengths
    included, depend only on its own path, so a bigger budget continues
    the same descent and growing either number can never worsen the
    reported minimum.  A restart scores its start, then one step ladder
    per iteration, so it needs 1 + len(_LADDER) evaluations for one step.
    """

    restarts: int = 8
    iterations: int = 2000
    seed: int | None = None

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError(f"restarts must be at least 0, got {self.restarts}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.restarts > 0 and self.iterations < 1 + len(_LADDER):
            raise ValueError(f"iterations must be at least {1 + len(_LADDER)} when restarts "
                             f"> 0, got {self.iterations}")


@dataclass(frozen=True, eq=False)
class CorrectionSearchResult:
    """The best correction's POVM; ``iterations`` counts the best restart's evaluations."""

    best_value: float
    best_povm: np.ndarray
    restarts: int
    iterations: int
    converged: bool
    best_candidate: str


# --- admissible orders -------------------------------------------------------


def check_order(order: EntropyOrder, dim: int) -> None:
    """Reject Renyi orders outside (0, 1], or (0, 2] in dimension 2."""
    if order.family != "renyi":
        return
    limit = 2.0 if dim == 2 else 1.0
    if math.isinf(order.alpha) or order.alpha > limit + _RANGE_TOL:
        raise AdmissibilityError(
            f"Renyi order {order.alpha} not admitted at dimension {dim} "
            f"(allowed interval (0, {limit:g}])"
        )


# --- the first experiment: noise ---------------------------------------------


def noise_joint(x_obs: ProjectiveObservable, inst: QuantumInstrument) -> np.ndarray:
    """Checked joint table p(x, m) of input eigenvalue and instrument outcome.

    Rows are X eigenvalues, columns instrument outcomes, so conditional
    entropies of this joint are entropies of X given M.
    """
    if x_obs.dim != inst.dim_in:
        raise ValueError(f"observable dim {x_obs.dim} != instrument input dim {inst.dim_in}")
    # p(x, m) = (d_x / d) * p(m | x) with input state Pi(x)/d_x: the trace
    # of block m of the evolution of Pi(x), over d
    blocks = flag_apply(inst, x_obs.projectors)
    return check_table(np.trace(blocks, axis1=-2, axis2=-1).real / x_obs.dim)


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
    table = noise_joint(x_obs, inst)
    stack = np.broadcast_to(table, (len(orders),) + table.shape)
    return [float(v) for v in conditional_entropy(stack, orders)]


# --- the second experiment: disturbance --------------------------------------


def _table(povm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Checked p(z, z') = sum_m Tr[E_z'^(m) rho_z^(m)] for broadcasting POVM stacks
    (..., n, |Z|, d, d) and rho stacks (..., |Z|, n, d, d)."""
    e = povm.swapaxes(-3, -4).reshape(*povm.shape[:-4], povm.shape[-3], -1)
    rho_t = rho.swapaxes(-1, -2).reshape(*rho.shape[:-3], -1)
    return check_table((rho_t @ e.swapaxes(-1, -2)).real)


def _checked_povm(z_obs: ProjectiveObservable, inst: QuantumInstrument, povm) -> np.ndarray:
    """Validate a correction: per outcome, |Z| Hermitian positive elements summing to I."""
    if z_obs.dim != inst.dim_in:
        raise ValueError(f"observable dim {z_obs.dim} != instrument input dim {inst.dim_in}")
    shape = (inst.n_outcomes, len(z_obs.projectors), inst.dim_out, inst.dim_out)
    if np.shape(povm) != shape:
        raise ValueError(f"POVM shape {np.shape(povm)} is not (n, |Z|, d_out, d_out) = {shape}")
    e = linalg.as_stack(np.reshape(povm, (-1,) + shape[2:]), "POVM").reshape(shape)
    if max_abs(e - dagger(e)) > DECOMP_TOL:
        raise ValueError("POVM elements are not Hermitian")
    res = max_abs(e.sum(axis=1) - np.eye(inst.dim_out))
    if res > DECOMP_TOL:
        raise ValueError(f"POVM completeness residual {res:.3e} exceeds {DECOMP_TOL:.0e}")
    linalg.clip_spectrum(np.linalg.eigvalsh(e))
    return e


def disturbance_joint(z_obs: ProjectiveObservable, inst: QuantumInstrument, povm) -> np.ndarray:
    """Checked joint table p(z, z') of input eigenvalue and corrected re-measurement outcome.

    ``povm`` is the correction's (n_outcomes, |Z|, d_out, d_out)
    re-measurement POVM, one per outcome; it is validated here.
    """
    povm = _checked_povm(z_obs, inst, povm)
    return _table(povm, flag_apply(inst, z_obs.projectors) / z_obs.dim)


def discard_flag_correction(
    z_obs: ProjectiveObservable, inst: QuantumInstrument
) -> np.ndarray | None:
    """Ignore the outcome and measure Z on the quantum output: E_z'^(m) = Lambda(z') for every m.

    Only available when the instrument's output space matches the Z
    system; returns None otherwise.
    """
    if inst.dim_out != z_obs.dim:
        return None
    return np.broadcast_to(z_obs.projectors, (inst.n_outcomes,) + z_obs.projectors.shape)


def reprepare_correction(z_obs: ProjectiveObservable, inst: QuantumInstrument) -> np.ndarray:
    """Classical correction: for each outcome, reprepare the most likely Z eigenstate.

    The most likely eigenvalue per outcome is the standard decision on the
    pre-correction joint of (input eigenvalue, outcome): the largest entry
    of each column, ties going to the smallest row.  Re-measuring Z then
    reads that eigenvalue, so E_z'^(m) = I if the decision on m is z',
    and 0 otherwise.
    """
    best = np.argmax(noise_joint(z_obs, inst), axis=0)
    picks = best[:, None] == np.arange(len(z_obs.projectors))
    return picks[..., None, None] * np.eye(inst.dim_out)


# --- the POVM search ------------------------------------------------------------

GRAD_TOL = 1e-5                   # Riemannian gradient norm that counts as stationary
_LADDER = 0.3 ** np.arange(3)     # step multiples tried together in one iteration
_ARMIJO = 1e-4                    # sufficient-decrease constant


def _riemannian_gradient(povm: np.ndarray, g: np.ndarray, rho: np.ndarray) -> tuple:
    """(D, ||A D||) with Riemannian gradient A_z' D_z' at any A with A_z'† A_z' = E_z'.

    The Euclidean gradient of block m is G_z' = A_z' M_z', M_z' = sum_z g(z, z') rho_z^(m)
    with g = dH/dp; G - A sym(A† G) is A_z' (M_z' - sym(sum E_z' M_z')),
    and its squared norm, sum over m, z' of Tr[D_z' E_z' D_z'], depends on A only through E.
    """
    m = g.swapaxes(-1, -2) @ rho.reshape(*rho.shape[:-3], math.prod(rho.shape[-3:]))
    m = m.reshape(*m.shape[:-1], *rho.shape[-3:]).swapaxes(-3, -4)
    d = m - hermitize((povm @ m).sum(axis=-3))[..., None, :, :]
    sq = (d * (povm @ d).swapaxes(-1, -2)).sum(axis=(-4, -3, -2, -1)).real
    return d, np.sqrt(np.maximum(sq, 0.0))


def _povm_search(rho: np.ndarray, orders: list, searches: list) -> tuple:
    """Riemannian descent over the Naimark isometries of the per-outcome POVMs.

    A point is on Stiefel(|Z| d, d)^n, the outcome m one more stacked
    axis: E_z'^(m) = A_z'^(m)† A_z'^(m), with rho (instances, |Z|, n, d, d)
    as in ``_table``.  Rows are
    (instance, order, restart) triples moving in lockstep, and one kernel
    call per iteration takes the entropy and its gradient of every row in
    that row's order.  Restart r of instance i starts from
    (searches[i].seed, r) alone, and no row's arithmetic depends on
    another row.  An iteration evaluates the step ladder as one batch and
    takes the longest step with Armijo decrease.  After a step the next
    ladder's top rung is the BB1 step <s, s>/<s, y> (Barzilai & Borwein,
    IMA J. Numer. Anal. 8, 141 (1988); on Stiefel manifolds, Wen & Yin,
    Math. Program. 142, 397 (2013)), with s the change in the row's
    isometry, y the change in its Riemannian gradient, both in ambient
    coordinates, and <., .> the real Frobenius product.  Where <s, y> <= 0
    or the quotient is not finite, the ladder starts a rung above the step
    taken instead; after a failed ladder, a rung below it.  A row stops
    when its gradient norm is below ``GRAD_TOL`` or its next ladder would
    overrun the shared evaluation budget.  Returns, per (instance, order),
    the best restart's POVM, its index and its number of evaluations.
    """
    nz, n, d = rho.shape[1:4]
    n_rest, budget = searches[0].restarts, searches[0].iterations
    shape = (len(rho), len(orders), n_rest)
    row_orders = np.tile(np.repeat(np.array(orders, dtype=object), n_rest), len(rho))
    row_rho = np.repeat(np.arange(len(rho)), len(orders) * n_rest)
    gauss = np.array([[np.random.default_rng(None if s.seed is None else [s.seed, r])
                       .standard_normal((2, n, nz * d, d)) for r in range(n_rest)]
                      for s in searches])
    starts = qr_retract(gauss[:, :, 0] + 1j * gauss[:, :, 1])
    a = np.repeat(starts, len(orders), axis=0).reshape(-1, n, nz * d, d)

    def evaluate(points, rows):
        """Entropy, gradient and POVM at each point; point i of ``points`` is on row rows[i]."""
        blocks = points.reshape(*points.shape[:-2], nz, d, d)
        povm = dagger(blocks) @ blocks
        axes = rows.shape + (1,) * (points.ndim - 4)
        at = row_orders[rows].reshape(axes)
        return *conditional_entropy_gradient(
            _table(povm, rho[row_rho[rows]].reshape(axes + rho.shape[1:])), at), povm

    def direction(rows):
        grad, size = _riemannian_gradient(povm[rows], g[rows], rho[row_rho[rows]])
        return (a[rows].reshape(grad.shape) @ grad).reshape(a[rows].shape), size

    rows = np.arange(len(a))
    f, g, povm = evaluate(a, rows)
    xi, norm = direction(rows)
    step = 1.0 / np.maximum(norm, GRAD_TOL)
    evals = np.ones(len(a), dtype=int)
    active = norm >= GRAD_TOL
    while True:
        active &= evals + len(_LADDER) <= budget
        rows = np.nonzero(active)[0]
        if not len(rows):
            break
        t = step[rows, None] * _LADDER
        trial = qr_retract(a[rows, None] - t[..., None, None, None] * xi[rows, None])
        ft, gt, pt = evaluate(trial, rows)
        ok = ft <= f[rows, None] - _ARMIJO * t * norm[rows, None] ** 2
        i, pick = np.nonzero(ok.any(axis=1))[0], ok.argmax(axis=1)
        evals[rows] += len(_LADDER)
        # without a BB step, the next ladder starts a rung above the step taken, or a rung
        # below the ladder
        step[rows] = t[:, -1] * _LADDER[1]
        step[rows[i]] = t[i, pick[i]] / _LADDER[1]
        rows, pick = rows[i], pick[i]
        a_old, xi_old = a[rows], xi[rows]
        a[rows], f[rows], g[rows], povm[rows] = trial[i, pick], ft[i, pick], gt[i, pick], pt[i, pick]
        xi[rows], norm[rows] = direction(rows)
        active[rows] &= norm[rows] >= GRAD_TOL
        # the BB1 step <s, s>/<s, y>, where <s, y> > 0 and the quotient is finite and nonzero
        s, y = a[rows] - a_old, xi[rows] - xi_old
        ss, sy = ((s.conj() * v).real.sum(axis=(1, 2, 3)) for v in (s, y))
        bb = np.divide(ss, sy, out=np.zeros(ss.shape), where=sy > ss / np.finfo(float).max)
        step[rows[bb > 0]] = bb[bb > 0]
    best = f.reshape(shape).argmin(axis=-1)
    rows = np.arange(shape[0] * shape[1]) * n_rest + best.ravel()
    return povm[rows].reshape(shape[:2] + povm.shape[1:]), best, evals[rows].reshape(shape[:2])


def disturbance(chunk, orders: list, searches: list) -> list:
    """Best-found disturbance per instance and order: upper bounds on the minima over corrections.

    ``chunk`` holds (z_obs, inst) pairs of one shape, and ``searches`` one
    ``SearchConfig`` per pair, all with one budget; a mixed chunk raises
    ValueError.  The candidates are the flag-discarding identity (when
    dimensions permit) and the classical repreparation, exact in the
    zero-disturbance regimes, and per restart a POVM descent run for every
    pair and order at once (``_povm_search``).  Every candidate is its
    re-measurement POVM, all are scored by one ``_table`` and one
    entropy-kernel call, each pair's against its own, and ties go to the
    fixed corrections.  Orders computing the same entropy share one result,
    and a pair's results equal, bit for bit, those of that pair alone.
    ``iterations`` is the evaluation count of the search's best restart.
    ``converged`` means the Riemannian gradient norm at the reported
    POVM, a stationarity test that saddle points pass too, is below
    ``GRAD_TOL``.  Returns one list per pair, one result per order.
    """
    shapes = {(z.dim, len(z.projectors), inst.dim_out, inst.n_outcomes, s.restarts, s.iterations)
              for (z, inst), s in zip(chunk, searches)}
    if len(shapes) > 1 or len(searches) != len(chunk):
        raise ValueError(f"a chunk's instances must share one shape and one search budget, got "
                         f"(dim, |Z|, dim_out, outcomes, restarts, iterations) in {sorted(shapes)}")
    for order in orders:
        check_order(order, chunk[0][0].dim)
    keys = list(dict.fromkeys(order.computed for order in orders))
    if not keys:
        return [[] for _ in chunk]
    rho = np.array([flag_apply(inst, z.projectors) / z.dim for z, inst in chunk])
    names = ["discard_flag", "reprepare"]
    fixed = [[discard_flag_correction(z, inst), reprepare_correction(z, inst)]
             for z, inst in chunk]
    if fixed[0][0] is None:  # no instrument of the chunk outputs the Z system
        names, fixed = names[1:], [pair[1:] for pair in fixed]
    povms = np.array(fixed)
    n_fixed, restarts = len(names), searches[0].restarts
    if restarts > 0:
        found, restart, evals = _povm_search(rho, keys, searches)
        povms = np.concatenate([povms, found], axis=1)
    tables = _table(povms, rho[:, None])
    # the candidates of each computed order: the fixed corrections, then its own search result
    pick = np.array([list(range(n_fixed)) + [n_fixed + k] * (restarts > 0)
                     for k in range(len(keys))])
    values, grads = conditional_entropy_gradient(
        tables[:, pick], np.array(keys, dtype=object)[:, None])
    best = np.argmin(values, axis=-1)  # ties go to the fixed corrections
    key_ix, results = np.arange(len(keys)), []
    for i, b in enumerate(best):
        chosen = pick[key_ix, b]
        # one instance at a time: the gradients of a whole chunk at d = 4 take megabytes
        _, norms = _riemannian_gradient(povms[i, chosen], grads[i, key_ix, b], rho[i])
        by_key = {
            key: CorrectionSearchResult(
                best_value=max(0.0, float(values[i, k, b[k]])),
                best_povm=povms[i, chosen[k]],
                restarts=restarts,
                iterations=int(evals[i, k]) if restarts > 0 else 0,
                converged=bool(norms[k] < GRAD_TOL),
                best_candidate=names[chosen[k]] if chosen[k] < n_fixed
                else f"parametrized_restart_{restart[i, k]}",
            )
            for k, key in enumerate(keys)
        }
        results.append([by_key[order.computed] for order in orders])
    return results


# --- the two-picture check -------------------------------------------------------


def two_picture_gap(
    x_obs: ProjectiveObservable, z_obs: ProjectiveObservable, inst: QuantumInstrument, povm
) -> float:
    """Largest difference between the noise and disturbance tables computed in two pictures.

    The Schrödinger picture is ``noise_joint`` and ``disturbance_joint``,
    which evolve the input eigenstates through the flagged instrument.
    The Heisenberg picture pulls the correction's per-outcome POVMs back
    to the input system instead, E(m, z') = sum over the Kraus operators r
    of outcome m of K_r† E_z'^(m) K_r, and reads
    p(x, m) = sum_z' Tr[E(m, z') Pi(x)]/d and
    p(z, z') = sum_m Tr[E(m, z') Pi(z)]/d off it.  The pictures share no
    code past the Kraus and POVM stacks, so an error in the outcome
    layout or in either table shows as a gap far above roundoff.
    """
    # (R, |Z|, d, d): the share K_r† E_z'^(m_r) K_r of Kraus operator r in E(m_r, z')
    pulled = dagger(inst.kraus)[:, None] @ _checked_povm(z_obs, inst, povm)[inst.outcome]
    pulled = pulled @ inst.kraus[:, None]

    def read(obs):  # Tr[share Pi] / d: (projector, Kraus operator, z')
        return np.einsum("rzab,pba->prz", pulled, obs.projectors).real / obs.dim

    by_outcome = inst.outcome == np.arange(inst.n_outcomes)[:, None]
    noise_gap = noise_joint(x_obs, inst) - read(x_obs).sum(axis=-1) @ by_outcome.T
    disturbance_gap = disturbance_joint(z_obs, inst, povm) - read(z_obs).sum(axis=1)
    return max(max_abs(noise_gap), max_abs(disturbance_gap))
