"""Classical entropies of the Renyi and Tsallis families and their
conditional forms.

Conventions used throughout:

* terms with p = 0 contribute exactly 0 (continuity extension of 0*log 0
  and 0**alpha);
* orders within ``SHANNON_BRANCH`` of 1 are evaluated with the Shannon
  formulas, which avoids the 1/(1-alpha) cancellation;
* conditioning columns with zero probability are skipped;
* each column's entropy is clamped at 0 from below;
* probability vectors may carry roundoff negatives down to -1e-12, which
  are clipped before renormalisation; anything worse is rejected.

A joint distribution p(x, y) is the array ``check_table`` returns, checked
once there: rows index X, whose uncertainty is measured, and columns the
conditioning Y.  ``conditional_entropy`` takes such a table or a stack of
them, and ``conditional_entropy_gradient`` adds the derivative with
respect to each entry, for the disturbance search.  The gradient restates
no entropy formula: each term p(y) H(X | Y = y) is 1-homogeneous in its
column, so by Euler's theorem its gradient is H + D - sum_x q D, where q
is the column's conditional distribution and D = dH/dq, and it reads H
from the kernel below.  So sum p grad is the conditional entropy.  Only
columns of positive finite order are differentiated, which are all the
descent meets.

Every entropy here, conditional or not, is a weighted sum of per-column
entropies from one kernel, so each formula is written out once.  The
kernel takes an order per column, so one call evaluates a whole grid of
orders: the conditional entropies read one ``EntropyOrder``, or one per
table of a stack, as an array of orders broadcast to the columns, and
``bounds`` passes an order array, which broadcasts against columns
shared by every order.  A column of order 2 or 0.5 is raised to its
power by numpy's scalar square and sqrt paths, as a single-order call
would be, so its value does not depend on the orders beside it.  The
kernel also takes a multiplicity per entry, which lets ``bounds``
evaluate the parametric distributions of the minimised bound (one value
repeated n times, plus a remainder) as 2-row columns.

The order's family picks the conditional form.  Of the two conditional
Tsallis forms, which weight the columns by p(y)**alpha or by p(y), only
the second is implemented.  It is the one for which conditioning on more
variables cannot raise the entropy, for every alpha > 0, so the noise
and disturbance measures are built on it; the first obeys the chain rule
instead, which the trade-off does not use.  The conditional Renyi entropy
is the outcome-weighted average of per-column Renyi entropies and admits
alpha = inf (min-entropy).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SHANNON_BRANCH = 1e-7   # |alpha - 1| below this uses Shannon formulas
CLIP_NEG = 1e-12        # tolerated roundoff negativity of probabilities
SUM_TOL = 1e-9          # tolerated deviation of a total probability from 1

FAMILIES = ("renyi", "tsallis", "shannon")


def alpha_log(xi: float, alpha: float) -> float:
    """Deformed logarithm ln_alpha(xi) = (xi**(1-alpha) - 1)/(1-alpha).

    Continuous in alpha; returns ln(xi) on the Shannon branch.
    """
    if xi <= 0:
        raise ValueError(f"alpha_log needs xi > 0, got {xi!r}")
    if not alpha > 0:
        raise ValueError(f"entropic order must be positive, got {alpha!r}")
    if abs(alpha - 1.0) < SHANNON_BRANCH:
        return math.log(xi)
    return math.expm1((1.0 - alpha) * math.log(xi)) / (1.0 - alpha)


def check_table(table) -> np.ndarray:
    """Validate a joint probability table, or a stack of them; return it clipped and renormalised.

    Each table (the last two axes) must be finite, with entries no more
    negative than -1e-12 and a total within 1e-9 of 1.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim < 2 or t.size == 0:
        raise ValueError(f"joint table must be 2-d and non-empty, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("joint table has non-finite entries")
    if t.min() < -CLIP_NEG:
        raise ValueError(f"joint entry {t.min():.3e} below -{CLIP_NEG:.0e}")
    t = np.clip(t, 0.0, None)
    total = t.sum(axis=(-2, -1), keepdims=True)
    bad = (total <= 0.0) | (np.abs(total - 1.0) > SUM_TOL)
    if np.any(bad):
        raise ValueError(f"joint table sums to {float(total[bad][0])!r}, expected 1")
    return t / total


def _power(base: np.ndarray, exponent, out: np.ndarray, where) -> None:
    """out = base ** exponent wherever ``where``, the exponent broadcast against base.

    numpy takes a scalar exponent 2 or 0.5 by square and sqrt, an array of
    exponents by pow (~4x slower, not bitwise equal): those two go in as scalars.
    """
    for e in (2.0, 0.5):
        hit = where & (exponent == e)
        if hit.any():
            np.power(base, e, out=out, where=hit)
            where = where & ~hit
    np.power(base, exponent, out=out, where=where)


def _branches(alpha, family) -> tuple:
    """alpha as floats, and masks of the Shannon, min-entropy, power-sum and Renyi columns."""
    alpha = np.asarray(alpha, dtype=float)
    shannon, minimum = np.abs(alpha - 1.0) < SHANNON_BRANCH, np.isinf(alpha)
    return alpha, shannon, minimum, ~(shannon | minimum), np.asarray(family) == "renyi"


def _column_entropies(cond: np.ndarray, alpha, family, mult=1) -> np.ndarray:
    """Entropy of each column of a column-stochastic array, each column in its own order.

    The one place the Renyi, Tsallis and Shannon formulas are written out.
    ``alpha`` and ``family`` are scalars or arrays that broadcast against
    the columns (``cond.shape[1:]``): an order axis the columns lack (of
    length 1 in ``cond``) evaluates every column once per order, bit for
    bit as on columns broadcast out explicitly, and the result takes the
    broadcast shape.  Every column follows its own order: the Shannon
    form within ``SHANNON_BRANCH`` of 1, the min-entropy at alpha = inf,
    the Hartley form at alpha = 0, p = 0 terms dropped, the clamp at 0,
    and at large Renyi orders the power sum taken relative to the
    column's largest entry where it underflows (``_log_power_sums``).
    Each form is evaluated only on its own columns (ufunc
    ``where`` masks), so no discarded branch takes a log of 0 or divides
    by 1 - alpha = 0.  ``mult`` is an integer multiplicity per entry
    (broadcast against ``cond``): a column stands for the distribution in
    which each entry is repeated that many times.  Orders are not checked
    here; ``EntropyOrder`` checks them where they enter the program.
    """
    alpha, shannon, minimum, power, renyi = _branches(alpha, family)
    # per entry, p ln p or p**alpha; p = 0 drops out of both, as 0 ** alpha = 0 for alpha > 0
    terms = np.zeros(np.broadcast_shapes(cond.shape, (1,) + alpha.shape))
    if shannon.any():
        np.log(cond, out=terms, where=shannon & (cond > 0.0))
        np.multiply(terms, cond, out=terms, where=shannon)
    _power(cond, alpha, terms, power)
    if (alpha == 0.0).any():  # Hartley: each nonzero entry counts 1
        np.copyto(terms, cond > 0.0, where=alpha == 0.0)
    terms *= mult
    h = np.asarray(terms.sum(axis=0))
    np.negative(h, out=h, where=shannon)
    if minimum.any():
        np.negative(np.log(cond.max(axis=0)), out=h, where=minimum)
    _log_power_sums(h, cond, alpha, mult, power & renyi)
    np.subtract(h, 1.0, out=h, where=power & ~renyi)
    np.divide(h, 1.0 - alpha, out=h, where=power)
    return np.maximum(h, 0.0, out=h)


def _log_power_sums(h, cond, alpha, mult, where) -> None:
    """h = ln h wherever ``where``, h holding sum m p**alpha over each column of ``cond``.

    At a large order such a sum can leave the normal floats (0.7 ** 1986
    does), losing its digits or reaching 0; where it has, ln sum m p**alpha
    is taken as alpha ln p_max + ln sum m (p / p_max)**alpha instead, and
    every other column keeps the plain log.  The search for such sums runs
    only when some h, of any column, lies below the least normal float, so
    that most calls pay one pass over h for it.
    """
    tiny = sys.float_info.min
    if not np.minimum.reduce(h, axis=None, initial=np.inf) < tiny:
        np.log(h, out=h, where=where)
        return
    scale = where & (h < tiny)
    np.log(h, out=h, where=where & ~scale)
    if not scale.any():
        return
    top = cond.max(axis=0)
    terms = np.zeros((cond.shape[0],) + h.shape)
    _power(np.divide(cond, top, out=np.zeros(cond.shape), where=cond > 0.0), alpha, terms, scale)
    terms *= mult
    np.log(terms.sum(axis=0), out=h, where=scale)
    np.add(h, np.multiply(alpha, np.log(top), out=np.zeros(h.shape), where=scale), out=h,
           where=scale)


def _column_gradients(cond: np.ndarray, alpha, family, h: np.ndarray) -> np.ndarray:
    """Gradient companion of ``_column_entropies``: d[p(y) H(X | Y = y)] / dp(x, y).

    ``h`` holds the columns' entropies, as ``_column_entropies`` returns
    them.  A term p(y) H(q), with q the column, is 1-homogeneous in the
    column, so its gradient is h + D - sum q D, where D = dH/dq is
    -ln q (Shannon), alpha/(1 - alpha) q**(alpha - 1) / S (Renyi, with
    S = sum q**alpha = exp((1 - alpha) h)) or the same without the 1/S
    (Tsallis), each column in its own order; so sum p grad is the
    entropy.  D reads 0 at q = 0, where it is infinite for alpha < 1,
    which makes the gradient there exact for alpha > 1.  Only columns of
    positive finite order are differentiated: D reads 0 on columns of
    order inf or 0, whose gradient reads h.
    """
    alpha, shannon, _, power, renyi = _branches(alpha, family)
    support = cond > 0.0
    log_q = np.log(cond, out=np.zeros(cond.shape), where=support)
    partial = np.where(shannon, -log_q, 0.0)
    # q**(alpha - 1) / S = exp((alpha - 1)(ln q + h)), finite where S under- or overflows
    np.multiply(alpha - 1.0, log_q + np.where(renyi, h, 0.0), out=partial, where=power & support)
    np.exp(partial, out=partial, where=power & support)
    np.multiply(partial, np.divide(alpha, 1.0 - alpha, where=power, out=np.zeros(alpha.shape)),
                out=partial, where=power)
    return h + partial - np.sum(cond * partial, axis=0)


def _weighted_entropy(table: np.ndarray, order, gradient: bool = False):
    """sum over columns y with p(y) > 0 of p(y) * H(X | Y = y), per table of a stack.

    ``order`` is one ``EntropyOrder``, or an array-like of them, one per
    table.  Either way it is read as an array of orders (one order as a
    0-d array), broadcast to ``table.shape[:-2]``, and every kept column
    takes its table's order, so there is one path and one kernel call.
    With ``gradient`` the derivative with respect to each entry is
    returned too; it is 0 in columns with p(y) = 0, where none exists.
    """
    orders = np.asarray(order, dtype=object)
    alpha = np.array([o.alpha for o in orders.flat]).reshape(orders.shape + (1,))
    family = np.array([o.family for o in orders.flat]).reshape(orders.shape + (1,))
    weights = table.sum(axis=-2)
    keep = weights > 0.0
    alpha = np.broadcast_to(alpha, keep.shape)[keep]
    family = np.broadcast_to(family, keep.shape)[keep]
    cond = table.swapaxes(-2, -1)[keep].T / weights[keep]
    h = _column_entropies(cond, alpha, family)
    terms = np.zeros(weights.shape)
    terms[keep] = weights[keep] * h
    total = terms.sum(axis=-1)
    total = float(total) if total.ndim == 0 else total
    if not gradient:
        return total
    grad = np.zeros(table.shape)
    grad.swapaxes(-2, -1)[keep] = _column_gradients(cond, alpha, family, h).T
    return total, grad


def binary_tsallis(q: float, alpha: float) -> float:
    """Tsallis entropy of the two-point distribution (q, 1-q)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    return entropy([q, 1.0 - q], EntropyOrder.tsallis(alpha))


# --- entropic orders --------------------------------------------------------


@dataclass(frozen=True)
class EntropyOrder:
    """An entropic order: the exponent alpha and the family it belongs to."""

    alpha: float
    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if math.isinf(self.alpha):
            if self.family != "renyi":
                raise ValueError("alpha = inf is admitted only for the Renyi family")
        elif not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if self.family == "shannon" and abs(self.alpha - 1.0) >= SHANNON_BRANCH:
            raise ValueError("the Shannon family requires alpha = 1")

    @classmethod
    def renyi(cls, alpha: float) -> "EntropyOrder":
        return cls(alpha, "renyi")

    @classmethod
    def tsallis(cls, alpha: float) -> "EntropyOrder":
        return cls(alpha, "tsallis")

    @classmethod
    def shannon(cls) -> "EntropyOrder":
        return cls(1.0, "shannon")

    @property
    def computed(self) -> "EntropyOrder":
        """The order whose formulas are evaluated: Shannon within ``SHANNON_BRANCH`` of 1."""
        return EntropyOrder.shannon() if abs(self.alpha - 1.0) < SHANNON_BRANCH else self


def entropy(p, order: EntropyOrder) -> float:
    """Entropy of a probability vector in the given order, checked as a one-column table."""
    return _weighted_entropy(check_table(np.ravel(p)[:, None]), order)


def conditional_entropy(table: np.ndarray, order):
    """Conditional entropy of the row variable given the column variable.

    ``table`` is a joint table, or a stack of them, already returned by
    ``check_table``; ``order`` is one ``EntropyOrder``, or one per table.
    Its family picks the conditional Renyi form, the second conditional
    Tsallis form or the standard conditional entropy.
    """
    return _weighted_entropy(table, order)


def conditional_entropy_gradient(table: np.ndarray, order):
    """``conditional_entropy`` and its gradient with respect to each entry."""
    return _weighted_entropy(table, order, gradient=True)
