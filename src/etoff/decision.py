"""Bayesian decisions on joint distributions, and the bounds linking
conditional entropies to error probabilities.

A joint distribution is a table p(x, y) returned by ``entropy.check_table``,
rows indexing the guessed variable X, so d = ``table.shape[0]``.  The
standard decision guesses, for each observed column y, the row
maximizing p(x|y); no decision rule achieves a smaller error probability.
Every lower bound below is stated in terms of the standard decision's
error.  The Fano-type upper bounds take an error probability directly:
that of any rule, except where noted.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import EntropyOrder, _column_entropies, alpha_log, binary_tsallis

_RULE_TOL = 1e-12


def standard_decision(table: np.ndarray) -> float:
    """Error probability of the maximum a posteriori decision: 1 - sum of column maxima."""
    return 1.0 - min(float(table.max(axis=0).sum()), 1.0)


def lower_bounds(table: np.ndarray, alpha: float, family: str) -> list[tuple[str, float]]:
    """Lower bounds on the conditional entropy in terms of the standard error.

    Returns (bound-id, value) pairs for every bound applicable to the
    given family, order and row cardinality d; inapplicable combinations
    are simply omitted.  The matching conditional entropy is
    ``conditional_entropy`` in the family's order, and (alpha, family)
    must make an ``EntropyOrder``, or ValueError is raised.
    """
    EntropyOrder(alpha, family)
    pe = standard_decision(table)
    d = table.shape[0]
    out: list[tuple[str, float]] = []

    if family in ("shannon", "renyi"):
        out.append(("success_log", -math.log1p(-pe)))
    if family == "tsallis":
        if alpha <= 2.0:
            out.append(("success_alpha_log", alpha_log(1.0 / (1.0 - pe), alpha)))
            out.append(("error_linear_binary", 2.0 * alpha_log(2.0, alpha) * pe))
        elif d > 1:
            out.append(("error_linear_dim", d * alpha_log(float(d), alpha) / (d - 1) * pe))
        if d == 2 and alpha > 2.0:
            out.append(("error_linear_binary", 2.0 * alpha_log(2.0, alpha) * pe))
    if family == "renyi" and d == 2:
        if alpha >= 1.0:
            out.append(("error_linear_binary", 2.0 * alpha_log(2.0, alpha) * pe))
        if alpha <= 1.0:
            out.append(("error_linear_ln2", 2.0 * math.log(2.0) * pe))
    return out


def fano_upper_bounds(
    table: np.ndarray, alpha: float, family: str, p_error: float
) -> list[tuple[str, float]]:
    """Fano-type upper bounds on the conditional entropy, given an error probability.

    The Shannon and Tsallis bounds hold for the error probability of any
    rule.  The Renyi bound for alpha < 1 is stated for the standard
    decision only; an error above the standard one raises ValueError, as
    does an (alpha, family) that makes no ``EntropyOrder``.  Orders within
    ``SHANNON_BRANCH`` of 1, and Renyi orders above 1, take the Shannon bound.
    """
    order = EntropyOrder(alpha, family)
    d = table.shape[0]
    if order.computed.family == "shannon" or (family == "renyi" and alpha >= 1.0):
        tail = p_error * math.log(d - 1) if (p_error > 0.0 and d > 1) else 0.0
        return [("fano_shannon", binary_tsallis(p_error, 1.0) + tail)]
    if family == "tsallis":
        if p_error > 0.0 and d > 2:
            tail = alpha_log(float(d - 1), alpha)
            tail *= p_error ** alpha if alpha < 1.0 else p_error
        else:
            tail = 0.0
        return [("fano_tsallis", binary_tsallis(p_error, alpha) + tail)]
    pe_std = standard_decision(table)
    if p_error > pe_std + _RULE_TOL:
        raise ValueError("the Renyi upper bound for alpha < 1 requires the standard decision")
    # Renyi entropy of 1 - pe_std followed by d - 1 equal shares of pe_std
    column = np.array([1.0 - pe_std, pe_std / max(d - 1, 1)])
    value = _column_entropies(column, alpha, "renyi", np.array([1, d - 1]))
    return [("renyi_power_mean", float(value))]
