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

Every entropy here, conditional or not, is a weighted sum of per-column
entropies from one kernel, so each formula is written out once.  The
kernel also takes a multiplicity per entry, which lets ``bounds``
evaluate the parametric distributions of the minimised bound (one value
repeated n times, plus a remainder) as 2-row columns.  A joint
table is checked once, by ``check_table``, and not again per column.
``check_table`` and the conditional entropies also take stacks of
tables, and ``table_entropy_gradient`` adds the derivative with respect
to each entry from the kernel's gradient companion, for the disturbance
search.

Two conditional Tsallis forms exist, differing in the conditioning
weights (p(y)**alpha versus p(y)).  The second form is the one entering
the noise and disturbance measures; the first one satisfies the chain
rule.  The conditional Renyi entropy is the outcome-weighted average of
per-column Renyi entropies and admits alpha = inf (min-entropy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SHANNON_BRANCH = 1e-7   # |alpha - 1| below this uses Shannon formulas
CLIP_NEG = 1e-12        # tolerated roundoff negativity of probabilities
SUM_TOL = 1e-9          # tolerated deviation of a total probability from 1

FAMILIES = ("renyi", "tsallis", "shannon")


def clean_probs(p) -> np.ndarray:
    """Validate and normalise a probability vector: ``check_table`` on one column."""
    arr = np.asarray(p, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty probability vector")
    return check_table(arr[:, None])[:, 0]


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
    if t.ndim < 2:
        raise ValueError(f"joint table must be 2-d, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("joint table has non-finite entries")
    if t.min() < -CLIP_NEG:
        raise ValueError(f"joint entry {t.min():.3e} below -{CLIP_NEG:.0e}")
    t = np.clip(t, 0.0, None)
    total = t.sum(axis=(-2, -1), keepdims=True)
    bad = (total <= 0.0) | (np.abs(total - 1.0) > SUM_TOL)
    if np.any(bad):
        raise ValueError(f"joint table sums to {total[bad][0]!r}, expected 1")
    return t / total


def _column_entropies(cond: np.ndarray, alpha: float, family: str, mult=1) -> np.ndarray:
    """Entropy of each column of a column-stochastic array, in the given order.

    The one place the Renyi, Tsallis and Shannon formulas are written out.
    ``mult`` is an integer multiplicity per entry (broadcast against
    ``cond``): a column stands for the distribution in which each entry
    is repeated that many times.  Orders are not checked here (alpha = 0
    gives the Hartley forms); ``EntropyOrder`` checks them where they
    enter the program.
    """
    if math.isinf(alpha):
        h = -np.log(cond.max(axis=0))
    else:
        # p = 0 terms are dropped: 1 stands in for them, and 1 * ln 1 = 0
        support = cond > 0.0
        p = np.where(support, cond, 1.0)
        if abs(alpha - 1.0) < SHANNON_BRANCH:
            h = -np.sum(mult * p * np.log(p), axis=0)
        else:
            power_sum = np.sum(mult * np.where(support, p ** alpha, 0.0), axis=0)
            if family == "renyi":
                h = np.log(power_sum) / (1.0 - alpha)
            else:
                h = (power_sum - 1.0) / (1.0 - alpha)
    return np.maximum(h, 0.0)


def _column_gradients(cond: np.ndarray, alpha: float, family: str) -> np.ndarray:
    """Gradient companion of ``_column_entropies``: d[p(y) H(X | Y = y)] / dp(x, y).

    With S = sum p**alpha over the column and q = alpha p**(alpha - 1):
    -ln p (Shannon), (ln S + q/S - alpha)/(1 - alpha) (Renyi) and
    S + (q - 1)/(1 - alpha) (Tsallis); alpha is finite.  At p = 0, where
    it is infinite for alpha <= 1, ln p and q read 0 (exact for alpha > 1).
    """
    support = cond > 0.0
    p = np.where(support, cond, 1.0)
    if abs(alpha - 1.0) < SHANNON_BRANCH:
        return -np.log(p)
    q = np.where(support, p ** (alpha - 1.0), 0.0)
    power_sum = np.sum(p * q, axis=0)
    q *= alpha
    if family == "renyi":
        return (np.log(power_sum) + q / power_sum - alpha) / (1.0 - alpha)
    return power_sum + (q - 1.0) / (1.0 - alpha)


def _weighted_entropy(
    table: np.ndarray, order: EntropyOrder, power: float = 1.0, gradient: bool = False
):
    """sum over columns y with p(y) > 0 of p(y)**power * H(X | Y = y), per table of a stack.

    With ``gradient`` (power 1) the derivative with respect to each entry
    is returned too; it is 0 in columns with p(y) = 0, where none exists.
    """
    weights = table.sum(axis=-2)
    keep = weights > 0.0
    cond = np.moveaxis(table, -2, 0)[:, keep] / weights[keep]
    terms = np.zeros(weights.shape)
    terms[keep] = weights[keep] ** power * _column_entropies(cond, order.alpha, order.family)
    total = terms.sum(axis=-1)
    total = float(total) if total.ndim == 0 else total
    if not gradient:
        return total
    grad = np.zeros(table.shape)
    np.moveaxis(grad, -2, 0)[:, keep] = _column_gradients(cond, order.alpha, order.family)
    return total, grad


def shannon_entropy(p) -> float:
    """-sum p ln p over the support."""
    return entropy(p, EntropyOrder.shannon())


def renyi_entropy(p, alpha: float) -> float:
    """Renyi entropy of order alpha; Shannon at alpha ~ 1, min-entropy at inf."""
    return entropy(p, EntropyOrder.renyi(alpha))


def tsallis_entropy(p, alpha: float) -> float:
    """Tsallis entropy of degree alpha; maximal value alpha_log(d) at uniform."""
    return entropy(p, EntropyOrder.tsallis(alpha))


def binary_tsallis(q: float, alpha: float) -> float:
    """Tsallis entropy of the two-point distribution (q, 1-q)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    return tsallis_entropy(np.array([q, 1.0 - q]), alpha)


# --- joint distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Finite joint probability table p(x, y).

    Rows index the variable X whose uncertainty is measured; columns index
    the conditioning variable Y.  The table is checked, clipped and
    renormalised on construction by ``check_table``.
    """

    table: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        t = check_table(self.table)
        if t.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"table shape {t.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @classmethod
    def from_table(cls, table, row_labels=None, col_labels=None) -> "JointDistribution":
        t = np.asarray(table, dtype=float)
        if row_labels is None:
            row_labels = tuple(range(t.shape[0]))
        if col_labels is None:
            col_labels = tuple(range(t.shape[1]))
        return cls(t, tuple(row_labels), tuple(col_labels))

    def marginal_rows(self) -> np.ndarray:
        """p(x) = sum_y p(x, y)."""
        return self.table.sum(axis=1)

    def marginal_cols(self) -> np.ndarray:
        """p(y) = sum_x p(x, y)."""
        return self.table.sum(axis=0)


def cond_shannon(j: JointDistribution) -> float:
    """Standard conditional entropy H(X|Y)."""
    return _weighted_entropy(j.table, EntropyOrder.shannon())


def cond_tsallis_first(j: JointDistribution, alpha: float) -> float:
    """Conditional Tsallis entropy with weights p(y)**alpha; obeys the chain rule."""
    return _weighted_entropy(j.table, EntropyOrder.tsallis(alpha), power=alpha)


def cond_tsallis_second(j: JointDistribution, alpha: float) -> float:
    """Conditional Tsallis entropy with weights p(y).

    This is the form for which conditioning on more variables can only
    reduce the entropy, for every alpha > 0.
    """
    return _weighted_entropy(j.table, EntropyOrder.tsallis(alpha))


def cond_renyi(j: JointDistribution, alpha: float) -> float:
    """Conditional Renyi entropy: average over y of the per-column Renyi entropy.

    alpha = inf gives the conditional min-entropy, built from the largest
    conditional probability in each column.
    """
    return _weighted_entropy(j.table, EntropyOrder.renyi(alpha))


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
    """Unconditional entropy of a distribution in the given order."""
    return _weighted_entropy(clean_probs(p)[:, None], order)


def conditional_entropy(j: JointDistribution, order: EntropyOrder) -> float:
    """Conditional entropy of the row variable given the column variable.

    The conditional Renyi form, the second conditional Tsallis form, or
    the standard conditional entropy, according to the order's family.
    """
    return table_conditional_entropy(j.table, order)


def table_conditional_entropy(table: np.ndarray, order: EntropyOrder):
    """``conditional_entropy`` of a table, or a stack of tables, already returned by ``check_table``."""
    return _weighted_entropy(table, order)


def table_entropy_gradient(table: np.ndarray, order: EntropyOrder):
    """``table_conditional_entropy`` and its gradient with respect to each entry."""
    return _weighted_entropy(table, order, gradient=True)
