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
reports the best value found among fixed corrections (flag-discarding
identity, classical repreparation by outcome, and, wherever the
two-outcome angle search does not run, the square-root measurement of
each outcome block) and a searched one.  For three or more outcomes the
search is a Riemannian gradient descent over the blocks' Naimark
isometries, run for all requested orders and restarts of an instance as
one stacked computation.  Each descent step tries a short ladder of
step lengths whose top rung is the Barzilai-Borwein step of the row's
last move where that step is defined (Wen & Yin, Math. Program. 142,
397 (2013)), and one rung above the step taken otherwise.  The result
is an upper bound on the true disturbance; it can refute a trade-off
relation (N + D_upper < B) but not certify one, which needs a lower
bound on the disturbance (ROADMAP direction A).

When Z has two outcomes the minimum is a one-angle problem, which an
arc branch-and-bound solves up to ``ANGLE_TOL``: a scan of equal arcs,
then rounds that each cut every arc that may still hold a lower value
into four, with one batch of support points and one entropy-kernel call
per round (``_angle_search``).  The table has fixed
row sums p_z, so it is fixed by t = (p(0, 0), p(1, 0)); t is affine in
each block's 0 <= E_0 <= I, so the reachable t form a convex set, a sum
of one per block.  Every admitted objective is concave in the table
there: Shannon, Tsallis per column for every order, and Renyi per
column, which on binary columns is concave up to order 2 (Ben-Bassat &
Raviv, IEEE Trans. Inf. Theory 24, 324 (1978)), which covers every
order ``check_order`` admits.  So the minimum lies at an extreme point, the
support point t(phi) of some direction (cos phi, sin phi), where E_0 of
block m projects onto the positive part of cos phi sigma_0^(m) +
sin phi sigma_1^(m).  The quarter phi in [pi/2, pi] holds every value:
phi + pi swaps the two columns, which leaves every conditional entropy
unchanged, and on (0, pi/2) every block operator is positive
semidefinite, which gives the trivial POVM E_0 = I, of the same value as
the trivial E_0 = 0 at phi = pi.

Both joint tables come from the stacked arrays of the objects in
``quantum``, a chunk being one stack, by batched matrix products; every
disturbance table, p(z, z') = sum_m Tr[E_z'^(m) sigma_z^(m)], comes
from ``_table``.  ``noise`` and ``disturbance`` answer alike: a chunk of
k instances and a list of orders in, (k, len(orders)) arrays out, each
order checked once and computed once per distinct computed order
(``_computed``).  The disturbance search of a chunk runs on one budget,
a ``SearchConfig``, with one seed per instance.  ``two_picture_gap``
checks both tables against the same ones read off the POVMs pulled back
to the input system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .entropy import EntropyOrder, check_table, conditional_entropy, conditional_entropy_gradient
from .linalg import DECOMP_TOL, STRUCT_TOL, dagger, hermitize, max_abs, qr_retract
from .quantum import ProjectiveObservable, QuantumInstrument, flag_apply

_RANGE_TOL = 1e-12


class AdmissibilityError(ValueError):
    """An order, or a relation at its orders, outside its admitted (alpha, beta, d) region."""


@dataclass(frozen=True)
class SearchConfig:
    """Budget for the correction search: restarts, and evaluations per restart.

    A budget holds for a whole chunk of instances; the seeds come one per
    instance, next to it (``disturbance``).  The budget applies to the
    POVM descent, which runs when Z has three or more outcomes.  With two
    outcomes, ``restarts`` > 0 only switches on the support-angle search,
    which closes its bracket to ``ANGLE_TOL`` whatever the budget, and
    ``iterations`` is not used.  The defaults are the sweep's.

    With a seed the whole descent of an instance is deterministic, and
    restart r depends only on (seed, r); a restart's steps,
    Barzilai-Borwein lengths included, depend only on its own path, so a
    bigger budget continues the same descent and growing either number
    can never worsen the reported minimum.  A restart scores its start,
    then one step ladder per iteration, so it needs 1 + len(_LADDER)
    evaluations for one step.
    """

    restarts: int = 1
    iterations: int = 150

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError(f"restarts must be at least 0, got {self.restarts}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.restarts > 0 and self.iterations < 1 + len(_LADDER):
            raise ValueError(f"iterations must be at least {1 + len(_LADDER)} when restarts "
                             f"> 0, got {self.iterations}")


# --- admissible orders -------------------------------------------------------


def check_order(order: EntropyOrder, dim: int) -> None:
    """Reject Renyi orders outside (0, 1], or (0, 2] in dimension 2."""
    if order.family != "renyi":
        return
    limit = 2.0 if dim == 2 else 1.0
    if order.alpha > limit + _RANGE_TOL:  # an infinite order too
        raise AdmissibilityError(
            f"Renyi order {order.alpha} not admitted at dimension {dim} "
            f"(allowed interval (0, {limit:g}])"
        )


def _computed(orders: list, dim: int) -> tuple:
    """Check the orders at ``dim``; return their distinct computed orders, and each one's index."""
    for order in orders:
        check_order(order, dim)
    index = {}
    columns = [index.setdefault(order.computed, len(index)) for order in orders]
    return list(index), columns


# --- the first experiment: noise ---------------------------------------------


def _flagged(obs: ProjectiveObservable, inst: QuantumInstrument) -> tuple:
    """Flagged blocks and checked joint tables of k observables and k instruments, two stacks.

    The blocks Phi^(m)(Pi(o)), (k, |O|, n_outcomes, d_out, d_out), come
    from one ``flag_apply`` over the stacked Kraus operators, and the
    tables p(o, m) = Tr[Phi^(m)(Pi(o))]/d, (k, |O|, n_outcomes), from one
    ``check_table``; an instance's equal, bit for bit, those of it alone.
    """
    if obs.dim != inst.dim_in:
        raise ValueError(f"observable dim {obs.dim} != instrument input dim {inst.dim_in}")
    if obs.projectors.ndim != 4 or obs.projectors.shape[:1] != inst.kraus.shape[:-3]:
        raise ValueError(f"expected stacks of k observables and k instruments, got projectors "
                         f"{obs.projectors.shape} and Kraus operators {inst.kraus.shape}")
    blocks = flag_apply(inst.kraus[:, None], inst.by_outcome, obs.projectors)
    return blocks, check_table(np.trace(blocks, axis1=-2, axis2=-1).real / obs.dim)


def noise_joint(x_obs: ProjectiveObservable, inst: QuantumInstrument) -> np.ndarray:
    """Checked joint table p(x, m) of input eigenvalue and instrument outcome.

    Rows are X eigenvalues, columns instrument outcomes, so conditional
    entropies of this joint are entropies of X given M.  With input state
    Pi(x)/d_x, p(x, m) = (d_x / d) p(m | x) is the trace of block m of the
    evolution of Pi(x), over d, as ``_flagged`` computes it.
    """
    return _flagged(x_obs[None], inst[None])[1][0]


def noise(x_obs: ProjectiveObservable, inst: QuantumInstrument, orders: list) -> np.ndarray:
    """Information-theoretic noise per instance and order: conditional entropy of X given M.

    ``x_obs`` and ``inst`` are stacks of k instances, whose joint tables
    come from one ``_flagged`` call; the orders are checked once, and one
    entropy-kernel call evaluates every table in every distinct computed
    order.  Returns a (k, len(orders)) array.  No
    optimisation over guessing functions is applied; the admitted Renyi
    interval is exactly the one for which conditioning on more variables
    cannot increase the entropy.
    """
    keys, columns = _computed(orders, x_obs.dim)
    tables = _flagged(x_obs, inst)[1]
    stack = np.broadcast_to(tables[:, None], (len(tables), len(keys)) + tables.shape[1:])
    return conditional_entropy(stack, np.array(keys, dtype=object))[:, columns]


# --- the second experiment: disturbance --------------------------------------


def _table(povm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Checked p(z, z') = sum_m Tr[E_z'^(m) rho_z^(m)] for broadcasting POVM stacks
    (..., n, |Z|, d, d) and rho stacks (..., |Z|, n, d, d)."""
    e = povm.swapaxes(-3, -4).reshape(*povm.shape[:-4], povm.shape[-3], -1)
    rho_t = rho.swapaxes(-1, -2).reshape(*rho.shape[:-3], -1)
    return check_table((rho_t @ e.swapaxes(-1, -2)).real)


def _checked_povm(z_obs: ProjectiveObservable, inst: QuantumInstrument, povm) -> np.ndarray:
    """Validate a correction: per outcome, |Z| Hermitian positive elements summing to I."""
    shape = (inst.n_outcomes, len(z_obs.projectors), inst.dim_out, inst.dim_out)
    if np.shape(povm) != shape:
        raise ValueError(f"POVM shape {np.shape(povm)} is not (n, |Z|, d_out, d_out) = {shape}")
    e = linalg.as_stack(povm, "POVM")
    if max_abs(e - dagger(e)) > DECOMP_TOL:
        raise ValueError("POVM elements are not Hermitian")
    res = max_abs(e.sum(axis=1) - np.eye(inst.dim_out))
    if res > DECOMP_TOL:
        raise ValueError(f"POVM completeness residual {res:.3e} exceeds {DECOMP_TOL:.0e}")
    low = np.linalg.eigvalsh(e).min()
    if low < -STRUCT_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below -{STRUCT_TOL:.1e}, not a roundoff artifact")
    return e


def disturbance_joint(z_obs: ProjectiveObservable, inst: QuantumInstrument, povm) -> np.ndarray:
    """Checked joint table p(z, z') of input eigenvalue and corrected re-measurement outcome.

    ``povm`` is the correction's (n_outcomes, |Z|, d_out, d_out)
    re-measurement POVM, one per outcome; it is validated here.
    """
    povm = _checked_povm(z_obs, inst, povm)
    return _table(povm, _flagged(z_obs[None], inst[None])[0][0] / z_obs.dim)


def discard_flag_correction(
    z_obs: ProjectiveObservable, inst: QuantumInstrument
) -> np.ndarray | None:
    """Ignore the outcome and measure Z on the quantum output: E_z'^(m) = Lambda(z') for every m.

    Only available when the instrument's output space matches the Z
    system; returns None otherwise.  A stack of Z gives (k, n, |Z|, d, d).
    """
    if inst.dim_out != z_obs.dim:
        return None
    p = z_obs.projectors
    return np.broadcast_to(p[..., None, :, :, :], p.shape[:-3] + (inst.n_outcomes,) + p.shape[-3:])


def reprepare_correction(z_obs: ProjectiveObservable, inst: QuantumInstrument) -> np.ndarray:
    """Classical correction: for each outcome, reprepare the most likely Z eigenstate.

    The most likely eigenvalue per outcome is the standard decision on the
    pre-correction joint of (input eigenvalue, outcome): the largest entry
    of each column, ties going to the smallest row.  Re-measuring Z then
    reads that eigenvalue, so E_z'^(m) = I if the decision on m is z',
    and 0 otherwise.
    """
    return _reprepare(noise_joint(z_obs, inst), inst.dim_out)


def _reprepare(joint: np.ndarray, dim_out: int) -> np.ndarray:
    """``reprepare_correction`` read off joint tables p(z, m), or a stack of them."""
    picks = np.argmax(joint, axis=-2)[..., None] == np.arange(joint.shape[-2])
    return picks[..., None, None] * np.eye(dim_out)


def square_root_correction(z_obs: ProjectiveObservable, inst: QuantumInstrument) -> np.ndarray:
    """Square-root measurement of each outcome's states Phi^(m)(Pi(z))/d: see ``_square_root``."""
    return _square_root(_flagged(z_obs[None], inst[None])[0][0] / z_obs.dim)


_SUPPORT_REL = 1e-5     # eigenvalues of a block sum at most this share of its largest are kernel
_SUPPORT_FLOOR = 1e-14  # and so are eigenvalues at most this, as in a block of probability 0


def _square_root(rho: np.ndarray) -> np.ndarray:
    """Square-root measurement of every outcome block: (..., n, |Z|, d, d) from ``_table``'s rho.

    Per block m, with rho_m = sum_z sigma_z^(m), E_z' = R sigma_z' R,
    R = rho_m^(-1/2) on the support of rho_m, and the projector onto its
    kernel is added to E_0 (Hausladen & Wootters, J. Mod. Opt. 41, 2385
    (1994)); for two pure states of equal prior it is the Helstrom
    measurement.  One batched ``eigh`` of the block sums gives R and the
    kernel.  The rank rule: an eigenvalue w of rho_m is in the support
    when w > max(``_SUPPORT_REL`` w_max, ``_SUPPORT_FLOOR``), w_max the
    block's largest, and in the kernel otherwise.  R scales the roundoff
    of sigma, about 1e-16 of w_max, by up to 1/w, so the relative cut
    keeps the completeness residual and the elements' negative
    eigenvalues below about 1e-10 (3e-11 and 2e-15 at worst on blocks
    whose eigenvalues reach the cut), inside ``_checked_povm``'s
    tolerances; the floor gives a block of probability 0 no support, so
    its E_0 = I.  As sigma_z <= rho_m, the states put no weight on a true
    kernel of rho_m, and at most the cut eigenvalues' sum on the
    directions the rule cuts.
    """
    *k, nz, n, d, _ = rho.shape
    w, v = np.linalg.eigh(rho.sum(axis=-4))
    kept = w > np.maximum(_SUPPORT_REL * w[..., -1:], _SUPPORT_FLOOR)
    r = (v * (np.where(kept, w, np.inf) ** -0.5)[..., None, :]) @ dagger(v)
    # R [sigma_0 ... sigma_|Z|-1], then each R sigma_z' stacked in rows times R: one matrix
    # product per block and side, not one per element
    left = r @ np.moveaxis(rho, -4, -2).reshape(*k, n, d, nz * d)
    povm = left.reshape(*k, n, d, nz, d).swapaxes(-2, -3).reshape(*k, n, nz * d, d) @ r
    povm = povm.reshape(*k, n, nz, d, d)
    if not kept.all():  # a kernel; the blocks of a sweep's sampled instruments have none
        povm[..., 0, :, :] += (v * ~kept[..., None, :]) @ dagger(v)
    return povm


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


def _povm_search(rho: np.ndarray, orders: list, search: SearchConfig, seeds: list) -> tuple:
    """Riemannian descent over the Naimark isometries of the per-outcome POVMs.

    A point is on Stiefel(|Z| d, d)^n, the outcome m one more stacked
    axis: E_z'^(m) = A_z'^(m)† A_z'^(m), with rho (instances, |Z|, n, d, d)
    as in ``_table``.  Rows are
    (instance, order, restart) triples moving in lockstep, and one kernel
    call per iteration takes the entropy and its gradient of every row in
    that row's order.  Every row runs on the one budget ``search``, and
    restart r of instance i starts from (seeds[i], r) alone, or from fresh
    entropy where seeds[i] is None, so no row's arithmetic depends on
    another row.  An iteration evaluates the step ladder as one batch and
    takes the longest step with Armijo decrease.  After a step the next
    ladder's top rung is the BB1 step <s, s>/<s, y> (Barzilai & Borwein,
    IMA J. Numer. Anal. 8, 141 (1988); on Stiefel manifolds, Wen & Yin,
    Math. Program. 142, 397 (2013)), with s the change in the row's
    isometry, y the change in its Riemannian gradient, both in ambient
    coordinates, and <., .> the real Frobenius product.  Where <s, y> <= 0
    or the quotient is not finite, the ladder starts a rung above the step
    taken instead; after a failed ladder, a rung below it.  A row stops
    when it meets its stopping rule, a gradient norm below ``GRAD_TOL``,
    or when its next ladder would overrun ``search.iterations``.
    Returns, per (instance, order), the best restart's POVM, its number of
    evaluations and whether it met the stopping rule, the three arrays
    ``_angle_search`` returns, then the restart's index.  ``disturbance``
    reports the flag as ``converged``.
    """
    nz, n, d = rho.shape[1:4]
    n_rest, budget = search.restarts, search.iterations
    shape = (len(rho), len(orders), n_rest)
    row_orders = np.tile(np.repeat(np.array(orders, dtype=object), n_rest), len(rho))
    row_rho = np.repeat(np.arange(len(rho)), len(orders) * n_rest)
    gauss = np.array([[np.random.default_rng(None if seed is None else [seed, r])
                       .standard_normal((2, n, nz * d, d)) for r in range(n_rest)]
                      for seed in seeds])
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
    return *(a[rows].reshape(shape[:2] + a.shape[1:]) for a in (povm, evals, norm < GRAD_TOL)), best


# --- the support angle, |Z| = 2 -------------------------------------------------------

ANGLE_TOL = 1e-9      # closed bracket width; see ``disturbance`` for the roundoff it covers
_ARCS = 16            # starting arcs over the quarter [pi/2, pi], shared by every order
_ANGLE_ROUNDS = 20    # quartering rounds: no arc gets narrower than 2**-40 of its start
_ROUNDOFF = 1e-15     # table entries below this count as 0 in lower bounds
_QUARTERS = np.arange(4)[:, None] + [0, 1]  # an arc's quarters, as pairs of its five points


def _support(rho: np.ndarray, phi: np.ndarray) -> tuple:
    """POVMs and checked tables of the support points in direction (cos phi, sin phi).

    ``rho`` (..., 2, n, d, d) broadcasts against the angles ``phi``; per
    block, E_0 projects onto the eigenvectors of H = cos phi sigma_0 +
    sin phi sigma_1 whose eigenvalues are > 0, and E_1 onto the others.
    E_1 is built from its own eigenvectors, not as I - E_0, whose roundoff
    would add about 1e-16 to an entry that should be 0.  At d = 2 the
    eigenvalues are m +- r, with m = (a + e)/2, h = (a - e)/2 and
    r = hypot(h, |b|) read off H = [[a, b], [b*, e]], and their
    projectors (I +- K)/2, with K = (H - m I)/r; so E_0 is I where
    m - r > 0, 0 where m + r <= 0, and (I + K)/2 otherwise, and E_1
    alike.  An eigenvalue within roundoff of 0 goes by the sign of m - r
    or m + r as computed, and ``eigh`` may place it on the other side;
    both are support points.  On wider blocks, from a degenerate Z or an
    output wider than 2, ``eigh`` splits the eigenvectors.  Returns
    the (..., n, 2, d, d) POVMs and their (..., 2, 2) tables, whose
    column 0 is the support point t(phi).
    """
    c, s = (f(phi)[..., None, None, None] for f in (np.cos, np.sin))
    h = c * rho[..., 0, :, :, :] + s * rho[..., 1, :, :, :]
    if h.shape[-1] == 2:
        a, e, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
        m, half = (a + e) / 2, (a - e) / 2
        r = np.hypot(half, np.abs(b))
        k = np.stack([half, b, b.conj(), -half], axis=-1).reshape(h.shape)
        k /= np.where(r > 0.0, r, 1.0)[..., None, None]  # r = 0 only where H = m I
        # E_0 = x I + y K and E_1 = (1 - x) I - y K: x is half the count of eigenvalues > 0,
        # y is 1/2 where m + r alone is, and 0 elsewhere
        upper, lower = (m + r > 0.0).astype(float), m - r > 0.0
        x, y = ((upper + lower) / 2)[..., None, None], ((upper - lower) / 2)[..., None, None]
        povm = np.stack([x * np.eye(2) + y * k, (1.0 - x) * np.eye(2) - y * k], axis=-3)
    else:
        w, v = np.linalg.eigh(h)
        up = (w > 0.0)[..., None, :]
        povm = np.stack([(v * up) @ dagger(v), (v * ~up) @ dagger(v)], axis=-3)
    return povm, _table(povm, rho)


def _floor(tables: np.ndarray) -> np.ndarray:
    """Tables with entries below ``_ROUNDOFF``, negative roundoff included, set to 0.

    A computed table misses an exact 0 by roundoff, and at an order
    alpha < 1 an entry e adds about e**alpha to the value (3e-6 at
    e = 5e-19 and alpha = 0.3), so a bound taken on it could exceed the
    minimum it bounds.  For lower bounds only: dropping such entries only
    lowers a bound.
    """
    return np.where(tables < _ROUNDOFF, 0.0, tables)


def _vertex(phi: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Floored table at the meeting point of the support lines at the ends of arcs.

    ``phi`` (..., 2) holds the ends phi_1 < phi_2 of arcs in [pi/2, pi],
    and ``tables`` (..., 2, 2, 2) their support tables.  On that quarter
    both coordinates of t fall as phi grows, so the meeting point lies in
    the rectangle the two support points span; clipping to it absorbs
    roundoff only.
    """
    t, p = tables[..., 0], tables[..., 0, :, :].sum(axis=-1)
    c, s = np.cos(phi), np.sin(phi)
    h = c * t[..., 0] + s * t[..., 1]
    det = np.sin(phi[..., 1] - phi[..., 0])
    v = np.stack([h[..., 0] * s[..., 1] - h[..., 1] * s[..., 0],
                  h[..., 1] * c[..., 0] - h[..., 0] * c[..., 1]], axis=-1) / det[..., None]
    v = np.clip(v, t.min(axis=-2), t.max(axis=-2))
    return _floor(np.stack([v, p - v], axis=-1))


def _angle_search(rho: np.ndarray, orders: list) -> tuple:
    """Arc branch-and-bound over the support angle, for two-outcome Z.

    ``rho`` is (instances, 2, n, d, d) as in ``_table``.  Rows are
    (instance, order) pairs.  The ``_ARCS`` + 1 support points that cut
    [pi/2, pi] into equal arcs are shared by an instance's orders; then,
    per round, every arc whose lower bound lies below its row's best value
    - ``ANGLE_TOL`` is cut into quarters at its three quarter points, the
    other arcs being dropped, for at most ``_ANGLE_ROUNDS`` rounds.  Every
    cut point is the midpoint of two points already there, so it is a
    dyadic point of the scan's arcs.  A round makes one ``_support`` call
    over every live arc's three cut points and one entropy-kernel call
    over their tables, floored tables and the four quarters' vertices.
    A row's best point changes only to a strictly lower one, the first in
    angle order, so no row's arithmetic depends on another row.  An arc's
    lower bound is the smallest value at its two ends and at ``_vertex``,
    each on its ``_floor``ed table: the boundary between two support
    points lies in the triangle they form with the meeting point of their
    support lines, and a concave function on a triangle is at least its
    smallest value at a corner.  Where table roundoff rather than the
    triangle sets an arc's gap, the live arcs grow fourfold each round; a
    row with more than ``_ARCS`` of them stops there, its bracket open (on
    the 7200 rows of the first chunks of d = 2 sweeps seeded 0 to 99, no
    row had more than 5).  Returns, per (instance, order), the best
    point's POVM, the count of support points the row evaluated, and
    whether its bracket closed, no arc being left.
    """
    rows = np.arange(len(rho) * len(orders))
    row_inst = rows // len(orders)
    row_order = np.tile(np.array(orders, dtype=object), len(rho))[:, None]
    phi = np.pi / 2 * (1.0 + np.arange(_ARCS + 1) / _ARCS)
    povm, tables = _support(rho[:, None], phi)
    arcs = np.arange(_ARCS)[:, None] + [0, 1]  # the ends of arc j are points j and j + 1
    f = conditional_entropy(np.concatenate(
        [tables, _floor(tables), _vertex(phi[arcs], tables[:, arcs])], axis=1)[row_inst], row_order)
    first = f[:, :_ARCS + 1].argmin(axis=1)
    best, best_povm = f[rows, first], povm[row_inst, first]
    evals = np.full(len(rows), _ARCS + 1)
    # every arc: its row, its ends, their tables and floored values, and its lower bound
    arc_row, arc_phi = np.repeat(rows, _ARCS), np.tile(phi[arcs], (len(rows), 1))
    arc_tab = tables[row_inst][:, arcs].reshape(-1, 2, 2, 2)
    arc_f = f[:, _ARCS + 1:][:, arcs].reshape(-1, 2)
    bound = np.minimum(arc_f.min(axis=-1), f[:, 2 * _ARCS + 2:].ravel())
    stuck = np.zeros(len(rows), dtype=bool)
    for done in range(_ANGLE_ROUNDS + 1):
        keep = bound < best[arc_row] - ANGLE_TOL
        stuck |= np.bincount(arc_row[keep], minlength=len(rows)) > _ARCS
        keep &= ~stuck[arc_row]
        arc_row, arc_phi, arc_tab, arc_f = arc_row[keep], arc_phi[keep], arc_tab[keep], arc_f[keep]
        if not len(arc_row) or done == _ANGLE_ROUNDS:
            break
        mid = arc_phi.mean(axis=-1)
        cut = np.stack([(arc_phi[:, 0] + mid) / 2, mid, (mid + arc_phi[:, 1]) / 2], axis=1)
        cut_povm, cut_tab = _support(rho[row_inst[arc_row], None], cut)
        evals += 3 * np.bincount(arc_row, minlength=len(rows))
        arc_phi = np.concatenate([arc_phi[:, :1], cut, arc_phi[:, 1:]], axis=1)[:, _QUARTERS]
        arc_tab = np.concatenate([arc_tab[:, :1], cut_tab, arc_tab[:, 1:]], axis=1)[:, _QUARTERS]
        f = conditional_entropy(np.concatenate(
            [cut_tab, _floor(cut_tab), _vertex(arc_phi, arc_tab)], axis=1), row_order[arc_row])
        arc_f = np.concatenate([arc_f[:, :1], f[:, 3:6], arc_f[:, 1:]], axis=1)[:, _QUARTERS]
        bound = np.minimum(arc_f.min(axis=-1), f[:, 6:]).ravel()
        # per row, the first cut point in angle order at the lowest value, if below the best;
        # arcs are in angle order within a row, so the arc-major flattening is too
        cut_row, cut_f = np.repeat(arc_row, 3), f[:, :3].ravel()
        low = best.copy()
        np.minimum.at(low, cut_row, cut_f)
        hit = np.nonzero((cut_f == low[cut_row]) & (cut_f < best[cut_row]))[0]
        better, first = np.unique(cut_row[hit], return_index=True)
        best[better] = low[better]
        best_povm[better] = cut_povm.reshape(-1, *cut_povm.shape[2:])[hit[first]]
        arc_row = np.repeat(arc_row, 4)
        arc_phi, arc_tab, arc_f = (a.reshape(-1, *a.shape[2:]) for a in (arc_phi, arc_tab, arc_f))
    shape = (len(rho), len(orders))
    return (best_povm.reshape(shape + best_povm.shape[1:]), evals.reshape(shape),
            ((np.bincount(arc_row, minlength=len(rows)) == 0) & ~stuck).reshape(shape))


def disturbance(z_obs: ProjectiveObservable, inst: QuantumInstrument, orders: list,
                search: SearchConfig, seeds: list) -> tuple:
    """Best-found disturbance per instance and order: upper bounds on the minima over corrections.

    ``z_obs`` and ``inst`` are stacks of k instances, searched on the one
    budget ``search``, and ``seeds`` holds one seed (or None) per instance;
    another count raises ValueError before any search.  The flagged states
    rho are the blocks of one ``_flagged`` call, over d.  The candidates
    are the flag-discarding identity (when dimensions permit), the
    classical repreparation, exact in the zero-disturbance regimes, which
    decides on that call's tables, the square-root measurement of each
    block (``_square_root``, named ``square_root``) wherever the angle
    search does not run, that is always at three or more Z outcomes and
    at two without restarts, and, when ``restarts`` > 0, one searched POVM
    per instance and order.  Where the angle search runs it is exact, so
    the square-root measurement could only tie it.  Every candidate is its
    re-measurement POVM, all are scored by one ``_table`` and one
    entropy-kernel call, each instance's against its own, and an exact
    tie goes to the earlier candidate in that order; values that differ
    by rounding alone do not tie.  Orders computing the same entropy
    share one computed column, and an instance's row equals, bit for
    bit, that of it alone.

    ``converged`` means one thing on every row: the search that ran met
    its own stopping rule, whichever candidate won; it is false where no
    search ran.  With two Z outcomes the search is ``_angle_search``, whose
    candidate is ``support_angle`` (why one angle and a quarter of the
    circle suffice is in the module docstring).  ``iterations`` is then the
    count of support points the row evaluated, and its stopping rule is
    that no arc's lower bound is left below the best value -
    ``ANGLE_TOL``.  The bracket holds for the values as computed: tables
    come from the 2 x 2 closed form of ``_support`` (``eigh`` on wider
    blocks) and matrix products with entries off by about 1e-16, which
    moves values at orders >= 1 by about as much, far below
    ``ANGLE_TOL``; at orders alpha < 1 an entry that should be 0 adds
    about its roundoff to the power alpha instead (about 1e-8 at
    alpha = 0.5), and a minimum with a zero entry is then known only to
    that.  With three or more outcomes the search is the POVM descent
    (``_povm_search``), whose candidate is ``parametrized_restart_<r>``
    for its best restart r; ``iterations`` is that restart's evaluation
    count, and its stopping rule is a Riemannian gradient norm below
    ``GRAD_TOL`` at that restart's POVM.

    Returns the tuple (value, POVM, iterations, converged, candidate) of
    arrays with leading axes (k, len(orders)), as ``noise`` shapes its
    values: the best value, clamped at 0; its (n_outcomes, |Z|, d_out,
    d_out) re-measurement POVM; the search's evaluation count, 0 without
    a search; the flag above; and the name of the winning candidate.
    With no orders nothing is searched, whatever the budget, and every
    array has shape (k, 0).
    """
    keys, columns = _computed(orders, z_obs.dim)
    blocks, joints = _flagged(z_obs, inst)
    if len(seeds) != len(blocks):
        raise ValueError(f"expected one seed per instance, got {len(seeds)} seeds for "
                         f"{len(blocks)} instances")
    rho = blocks / z_obs.dim
    restarts = search.restarts if keys else 0
    angle = restarts > 0 and rho.shape[1] == 2
    fixed = {"discard_flag": discard_flag_correction(z_obs, inst),
             "reprepare": _reprepare(joints, inst.dim_out),
             "square_root": None if angle else _square_root(rho)}
    names = [name for name, povm in fixed.items() if povm is not None]
    povms = np.stack([fixed[name] for name in names], axis=1)
    n_fixed = len(names)
    evals = restart = np.zeros((len(rho), len(keys)), dtype=int)
    converged = np.zeros(evals.shape, dtype=bool)
    if restarts > 0:  # the angle search has one start, restart 0
        found, evals, converged, restart = ((*_angle_search(rho, keys), restart) if angle
                                            else _povm_search(rho, keys, search, seeds))
        povms = np.concatenate([povms, found], axis=1)
    tables = _table(povms, rho[:, None])
    # the candidates of each computed order: the fixed corrections, then its own search result
    slots = np.arange(n_fixed + (restarts > 0))
    pick = np.where(slots < n_fixed, slots, n_fixed + np.arange(len(keys))[:, None])
    values = conditional_entropy(tables[:, pick], np.array(keys, dtype=object)[:, None])
    best = np.argmin(values, axis=-1)  # ties go to the fixed corrections
    key_ix, inst_ix = np.arange(len(keys)), np.arange(len(rho))[:, None]
    chosen = pick[key_ix, best]  # (instance, key)
    labels = names + (["support_angle"] if angle
                      else [f"parametrized_restart_{r}" for r in range(restarts)])
    candidate = np.array(labels)[np.where(chosen < n_fixed, chosen, n_fixed + restart)]
    value = values[inst_ix, key_ix, best]
    value = np.where(value > 0.0, value, 0.0)  # max(0.0, v), -0.0 and NaN read 0.0
    return tuple(a[:, columns] for a in (value, povms[inst_ix, chosen], evals, converged,
                                         candidate))


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

    noise_gap = noise_joint(x_obs, inst) - read(x_obs).sum(axis=-1) @ inst.by_outcome.T
    disturbance_gap = disturbance_joint(z_obs, inst, povm) - read(z_obs).sum(axis=1)
    return max(max_abs(noise_gap), max_abs(disturbance_gap))
