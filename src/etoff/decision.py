"""Bayesian decisions on joint distributions, and the bounds linking
conditional entropies to error probabilities.

The standard decision guesses, for each observed column y, the row label
maximizing p(x|y); no decision rule achieves a smaller error probability.
Every lower bound below is stated in terms of the standard decision's
error, while the Fano-type upper bounds accept an arbitrary rule except
where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    SHANNON_BRANCH,
    JointDistribution,
    _column_entropies,
    alpha_log,
    binary_tsallis,
)

_RULE_TOL = 1e-12


@dataclass(frozen=True)
class DecisionRule:
    """Deterministic guessing rule: a total map from column labels to row labels."""

    guess: dict

    def __post_init__(self):
        object.__setattr__(self, "guess", dict(self.guess))


@dataclass(frozen=True)
class ErrorReport:
    p_error: float
    p_success: float
    rule: DecisionRule

    def __post_init__(self):
        if abs(self.p_error + self.p_success - 1.0) > _RULE_TOL:
            raise ValueError("p_error and p_success must sum to 1")


def standard_decision(j: JointDistribution) -> ErrorReport:
    """Maximum a posteriori decision; ties break to the smallest row index."""
    guess = {}
    p_success = 0.0
    for k, y in enumerate(j.col_labels):
        col = j.table[:, k]
        i = int(np.argmax(col))
        guess[y] = j.row_labels[i]
        p_success += float(col[i])
    p_success = min(p_success, 1.0)
    return ErrorReport(1.0 - p_success, p_success, DecisionRule(guess))


def error_of_rule(j: JointDistribution, rule: DecisionRule) -> ErrorReport:
    """Error probability of an arbitrary deterministic rule."""
    row_index = {x: i for i, x in enumerate(j.row_labels)}
    p_success = 0.0
    for k, y in enumerate(j.col_labels):
        if y not in rule.guess:
            raise ValueError(f"rule is not total: no guess for column label {y!r}")
        x = rule.guess[y]
        if x not in row_index:
            raise ValueError(f"rule guesses unknown row label {x!r}")
        p_success += float(j.table[row_index[x], k])
    p_success = min(p_success, 1.0)
    return ErrorReport(1.0 - p_success, p_success, rule)


def lower_bounds(j: JointDistribution, alpha: float, family: str) -> list[tuple[str, float]]:
    """Lower bounds on the conditional entropy in terms of the standard error.

    Returns (bound-id, value) pairs for every bound applicable to the
    given family, order and row cardinality d; inapplicable combinations
    are simply omitted.  The matching conditional entropies are
    cond_shannon, cond_tsallis_second and cond_renyi respectively.
    """
    if family not in ("shannon", "tsallis", "renyi"):
        raise ValueError(f"unknown family {family!r}")
    pe = standard_decision(j).p_error
    d = len(j.row_labels)
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
    j: JointDistribution, alpha: float, family: str, rule: DecisionRule
) -> list[tuple[str, float]]:
    """Fano-type upper bounds on the conditional entropy.

    The Shannon and Tsallis bounds hold for the error probability of any
    rule.  The Renyi bound for alpha < 1 is stated for the standard
    decision only; passing a rule with a larger error raises ValueError.
    """
    if family not in ("shannon", "tsallis", "renyi"):
        raise ValueError(f"unknown family {family!r}")
    pe = error_of_rule(j, rule).p_error
    d = len(j.row_labels)

    def _shannon_fano(q: float) -> float:
        tail = q * math.log(d - 1) if (q > 0.0 and d > 1) else 0.0
        return binary_tsallis(q, 1.0) + tail

    out: list[tuple[str, float]] = []
    if family == "shannon":
        out.append(("fano_shannon", _shannon_fano(pe)))
    elif family == "tsallis":
        if abs(alpha - 1.0) < SHANNON_BRANCH:
            out.append(("fano_shannon", _shannon_fano(pe)))
        else:
            if pe > 0.0 and d > 2:
                tail = alpha_log(float(d - 1), alpha)
                tail *= pe ** alpha if alpha < 1.0 else pe
            else:
                tail = 0.0
            out.append(("fano_tsallis", binary_tsallis(pe, alpha) + tail))
    else:
        if alpha >= 1.0 or abs(alpha - 1.0) < SHANNON_BRANCH:
            out.append(("fano_shannon", _shannon_fano(pe)))
        else:
            pe_std = standard_decision(j).p_error
            if pe > pe_std + _RULE_TOL:
                raise ValueError(
                    "the Renyi upper bound for alpha < 1 requires the standard decision"
                )
            # Renyi entropy of 1 - pe followed by d - 1 equal shares of pe
            column = np.array([1.0 - pe_std, pe_std / max(d - 1, 1)])
            value = _column_entropies(column, alpha, "renyi", np.array([1, d - 1]))
            out.append(("renyi_power_mean", float(value)))
    return out
