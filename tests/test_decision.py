import itertools
import math

import numpy as np
import pytest

from etoff.decision import (
    fano_upper_bounds,
    lower_bounds,
    standard_decision,
)
from etoff.entropy import EntropyOrder, alpha_log, check_table, conditional_entropy

from conftest import random_joint

renyi, tsallis, SHANNON = EntropyOrder.renyi, EntropyOrder.tsallis, EntropyOrder.shannon()


def enumerate_rule_errors(j):
    """Error of every deterministic rule, a guessed row per column; exponential, so keep d small."""
    cols = np.arange(j.shape[1])
    for rows in itertools.product(range(j.shape[0]), repeat=len(cols)):
        yield 1.0 - float(j[list(rows), cols].sum())


def best_rule_by_enumeration(j):
    return min(enumerate_rule_errors(j))


def test_standard_decision_deterministic_joint():
    j = check_table(np.diag([0.3, 0.3, 0.4]))
    assert standard_decision(j) == pytest.approx(0.0, abs=1e-12)


def test_standard_decision_uniform_is_half():
    j = check_table(np.full((2, 2), 0.25))
    assert standard_decision(j) == pytest.approx(0.5, abs=1e-12)


def test_standard_decision_matches_enumeration_oracle():
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    assert standard_decision(j) == pytest.approx(0.2, abs=1e-12)
    assert best_rule_by_enumeration(j) == pytest.approx(0.2, abs=1e-12)


def test_standard_decision_is_bayes_optimal(rng):
    for _ in range(50):
        j = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        std = standard_decision(j)
        assert std <= best_rule_by_enumeration(j) + 1e-12
        for p_error in enumerate_rule_errors(j):
            assert p_error >= std - 1e-12


# --- lower bounds -----------------------------------------------------------------


def test_lower_bounds_zero_error():
    j = check_table(np.diag([0.5, 0.5]))
    for family, alpha in (("shannon", 1.0), ("tsallis", 0.7), ("renyi", 2.0)):
        for _, val in lower_bounds(j, alpha, family):
            assert val == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_shannon_at_half():
    j = check_table(np.full((2, 2), 0.25))
    vals = dict(lower_bounds(j, 1.0, "shannon"))
    assert vals["success_log"] == pytest.approx(math.log(2), abs=1e-12)


def test_lower_bound_tsallis_dimension_scaled():
    # single-column joint with conditional (0.8, 0.1, 0.1): standard error 0.2
    j = check_table(np.array([[0.8], [0.1], [0.1]]))
    vals = dict(lower_bounds(j, 3.0, "tsallis"))
    expected = 3.0 * alpha_log(3.0, 3.0) / 2.0 * 0.2
    assert vals["error_linear_dim"] == pytest.approx(expected, abs=1e-12)


def test_lower_bounds_binary_extras():
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    renyi_low = dict(lower_bounds(j, 0.5, "renyi"))
    assert renyi_low["error_linear_ln2"] == pytest.approx(2 * math.log(2) * 0.2, abs=1e-12)
    renyi_high = dict(lower_bounds(j, 3.0, "renyi"))
    assert "error_linear_binary" in renyi_high
    tsallis_high = dict(lower_bounds(j, 5.0, "tsallis"))
    assert "error_linear_binary" in tsallis_high


# --- Fano-type upper bounds ----------------------------------------------------------


def test_fano_zero_error_bounds_vanish():
    j = check_table(np.diag([0.4, 0.6]))
    p_error = standard_decision(j)
    for family, alpha in (("shannon", 1.0), ("tsallis", 0.5), ("tsallis", 3.0), ("renyi", 0.5)):
        for _, val in fano_upper_bounds(j, alpha, family, p_error):
            assert val == pytest.approx(0.0, abs=1e-12)
        ent = {
            "shannon": conditional_entropy(j, SHANNON),
            "tsallis": conditional_entropy(j, tsallis(alpha)),
            "renyi": conditional_entropy(j, renyi(alpha)),
        }[family]
        assert ent <= 1e-9


def test_fano_shannon_binary_half_error():
    j = check_table(np.full((2, 2), 0.25))
    vals = dict(fano_upper_bounds(j, 1.0, "shannon", standard_decision(j)))
    assert vals["fano_shannon"] == pytest.approx(math.log(2), abs=1e-12)


def test_renyi_power_mean_value():
    j = check_table(np.array([[0.8], [0.1], [0.1]]))
    vals = dict(fano_upper_bounds(j, 0.5, "renyi", standard_decision(j)))
    expected = (1.0 / 0.5) * math.log(0.8 ** 0.5 + 2.0 ** 0.5 * 0.2 ** 0.5)
    assert vals["renyi_power_mean"] == pytest.approx(expected, abs=1e-12)


def test_bounds_reject_an_unknown_family():
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    with pytest.raises(ValueError, match="family must be one of .*, got 'x'"):
        lower_bounds(j, 2.0, "x")
    with pytest.raises(ValueError, match="family must be one of .*, got 'x'"):
        fano_upper_bounds(j, 2.0, "x", standard_decision(j))


@pytest.mark.parametrize("bounds", [
    lambda j, alpha, family: lower_bounds(j, alpha, family),
    lambda j, alpha, family: fano_upper_bounds(j, alpha, family, standard_decision(j)),
], ids=["lower_bounds", "fano_upper_bounds"])
@pytest.mark.parametrize("alpha, family", [
    (-1.0, "renyi"), (0.0, "renyi"), (math.nan, "renyi"), (math.inf, "tsallis"), (0.5, "shannon"),
])
def test_bounds_reject_what_is_no_entropic_order(bounds, alpha, family):
    # the orders EntropyOrder rejects: nonpositive or NaN, inf outside the Renyi family, and the
    # Shannon family away from 1
    j = check_table([[0.4, 0.1], [0.2, 0.3]])
    with pytest.raises(ValueError):
        EntropyOrder(alpha, family)
    with pytest.raises(ValueError):
        bounds(j, alpha, family)


@pytest.mark.parametrize("alpha", [1.0 - 1e-8, 1.0 + 1e-8])
def test_fano_takes_the_shannon_bound_on_the_shannon_branch(alpha):
    j = check_table([[0.3, 0.1, 0.05], [0.1, 0.2, 0.05], [0.05, 0.05, 0.1]])
    for p_error in (standard_decision(j), 0.6):
        shannon = fano_upper_bounds(j, 1.0, "shannon", p_error)
        assert shannon[0][0] == "fano_shannon"
        for family in ("tsallis", "renyi"):
            assert fano_upper_bounds(j, alpha, family, p_error) == shannon


def test_renyi_low_order_requires_standard_rule():
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    # the error of the rule guessing the other row in each column: 0.8, above the standard 0.2
    with pytest.raises(ValueError):
        fano_upper_bounds(j, 0.5, "renyi", 0.8)


def test_sandwich_on_random_joints(rng):
    for _ in range(200):
        j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        p_error = standard_decision(j)
        for alpha in (0.3, 0.7, 1.0, 1.5, 2.0, 3.0):
            ent = conditional_entropy(j, tsallis(alpha))
            for _, lo in lower_bounds(j, alpha, "tsallis"):
                assert lo <= ent + 1e-9
            for _, hi in fano_upper_bounds(j, alpha, "tsallis", p_error):
                assert ent <= hi + 1e-9
            ent = conditional_entropy(j, renyi(alpha))
            for _, lo in lower_bounds(j, alpha, "renyi"):
                assert lo <= ent + 1e-9
            for _, hi in fano_upper_bounds(j, alpha, "renyi", p_error):
                assert ent <= hi + 1e-9
        ent = conditional_entropy(j, SHANNON)
        for _, lo in lower_bounds(j, 1.0, "shannon"):
            assert lo <= ent + 1e-9
        for _, hi in fano_upper_bounds(j, 1.0, "shannon", p_error):
            assert ent <= hi + 1e-9


def test_fano_holds_for_arbitrary_rules(rng):
    # the Shannon and Tsallis Fano bounds accept any rule's error
    for _ in range(30):
        j = random_joint(rng, 3, 3)
        for p_error in enumerate_rule_errors(j):
            for _, hi in fano_upper_bounds(j, 1.0, "shannon", p_error):
                assert conditional_entropy(j, SHANNON) <= hi + 1e-9
            for _, hi in fano_upper_bounds(j, 1.7, "tsallis", p_error):
                assert conditional_entropy(j, tsallis(1.7)) <= hi + 1e-9
