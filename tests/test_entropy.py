import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etoff.entropy import (
    SHANNON_BRANCH,
    EntropyOrder,
    _column_entropies,
    _column_gradients,
    alpha_log,
    binary_tsallis,
    check_table,
    conditional_entropy,
    conditional_entropy_gradient,
    entropy,
)

from conftest import random_joint

ALPHA_GRID = (0.3, 0.5, 1.0, 1.5, 2.0, 5.0)
renyi, tsallis, SHANNON = EntropyOrder.renyi, EntropyOrder.tsallis, EntropyOrder.shannon()
# orders inside the Shannon branch, and just outside it, where the Renyi and Tsallis formulas run
NEAR_ONE = (1.0 - 1e-8, 1.0 + 1e-8, 1.0 - 2 * SHANNON_BRANCH, 1.0 + 2 * SHANNON_BRANCH)


# --- alpha_log ---------------------------------------------------------------


def test_alpha_log_at_one_is_zero():
    for a in ALPHA_GRID:
        assert alpha_log(1.0, a) == pytest.approx(0.0, abs=1e-15)


def test_alpha_log_value():
    # (2**-1 - 1) / (-1)
    assert alpha_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("a", NEAR_ONE)
def test_alpha_log_limit(a):
    for d in (2, 3, 7):
        assert alpha_log(float(d), a) == pytest.approx(math.log(d), abs=1e-6)


def test_alpha_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        alpha_log(0.0, 2.0)
    with pytest.raises(ValueError):
        alpha_log(-1.0, 2.0)
    with pytest.raises(ValueError, match="entropic order must be positive, got 0.0"):
        alpha_log(2.0, 0.0)


# --- unconditional entropies ---------------------------------------------------


def test_renyi_uniform_reaches_log_d():
    assert entropy(np.full(4, 0.25), renyi(2.0)) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy(np.full(4, 0.25), renyi(0.5)) == pytest.approx(math.log(4), abs=1e-12)


def test_renyi_point_mass_is_zero():
    assert entropy([1.0, 0.0, 0.0], renyi(2.0)) == 0.0


def test_renyi_half_half_order_two():
    # -ln sum p^2 = -ln(1/2)
    assert entropy([0.5, 0.5], renyi(2.0)) == pytest.approx(math.log(2), abs=1e-12)


def test_renyi_min_entropy():
    assert entropy([0.8, 0.2], renyi(math.inf)) == pytest.approx(-math.log(0.8), abs=1e-12)


def test_tsallis_uniform_order_two():
    for d in (2, 3, 5):
        assert entropy(np.full(d, 1.0 / d), tsallis(2.0)) == pytest.approx(
            1.0 - 1.0 / d, abs=1e-12
        )


def test_tsallis_point_mass_and_half():
    assert entropy([0.0, 1.0], tsallis(2.0)) == 0.0
    assert entropy([0.5, 0.5], tsallis(2.0)) == pytest.approx(0.5, abs=1e-12)


def test_tsallis_uniform_attains_alpha_log_d():
    for d in (2, 4):
        for a in ALPHA_GRID:
            assert entropy(np.full(d, 1.0 / d), tsallis(a)) == pytest.approx(
                alpha_log(float(d), a), abs=1e-12
            )


def test_all_zero_vector_rejected():
    with pytest.raises(ValueError):
        entropy([0.0, 0.0], renyi(2.0))


def test_renyi_monotone_in_alpha(rng):
    for _ in range(500):
        p = rng.random(int(rng.integers(2, 7)))
        p /= p.sum()
        vals = [entropy(p, renyi(a)) for a in ALPHA_GRID]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-10


def test_renyi_stays_monotone_and_bounded_at_large_orders(rng):
    # sum p**alpha leaves the normal floats once alpha ln p_max < -708 (alpha ~ 2000 at p_max
    # = 0.7): the entropy must still fall with alpha, and H_inf <= H_alpha <= alpha/(alpha - 1)
    # H_inf for alpha > 1
    orders = np.concatenate([np.geomspace(0.3, 1e6, 120), [1986.0, 2088.0, 2089.0, 3000.0]])
    orders.sort()
    for _ in range(100):
        # from near uniform, where the sum is smallest for its p_max, to skewed
        p = rng.random(int(rng.integers(2, 9))) ** rng.uniform(0.0, 3.0)
        p /= p.sum()
        # one order per call, and all of them in one call
        vals = np.concatenate([_column_entropies(p[:, None], [a], "renyi") for a in orders])
        assert np.allclose(_column_entropies(p[:, None], orders, "renyi"), vals, rtol=1e-13)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) <= 1e-12)
        h_inf = entropy(p, renyi(math.inf))
        big = orders > 1.0 + 1e-6
        assert np.all(vals[big] >= h_inf * (1.0 - 1e-12))
        assert np.all(vals[big] <= orders[big] / (orders[big] - 1.0) * h_inf * (1.0 + 1e-12))
    h = entropy([0.3, 0.7], renyi(3000.0))
    assert entropy([0.3, 0.7], renyi(math.inf)) <= h <= entropy([0.3, 0.7], renyi(700.0))
    # n equal entries give the least sum for their count, n**(1 - alpha), and ln n at every order;
    # the sum underflows at 1023 / 646 / 342 for n = 2 / 3 / 8
    for n in (2, 3, 8):
        column = np.full((n, 1), 1.0 / n)
        vals = [_column_entropies(column, [a], "renyi")[0] for a in np.linspace(300, 1200, 3001)]
        assert np.allclose(vals, math.log(n), rtol=1e-12)


# --- conditional forms ------------------------------------------------------------


def product_joint(px, py):
    return check_table(np.outer(px, py))


def test_cond_forms_independence():
    px = np.array([0.2, 0.3, 0.5])
    py = np.array([0.6, 0.4])
    j = product_joint(px, py)
    assert conditional_entropy(j, SHANNON) == pytest.approx(entropy(px, SHANNON), abs=1e-12)
    for a in (0.5, 2.0):
        for order in (tsallis(a), renyi(a)):
            assert conditional_entropy(j, order) == pytest.approx(entropy(px, order), abs=1e-12)


def test_cond_forms_deterministic():
    j = check_table(np.diag([0.3, 0.3, 0.4]))
    assert conditional_entropy(j, SHANNON) == 0.0
    for a in ALPHA_GRID:
        assert conditional_entropy(j, tsallis(a)) == 0.0
        assert conditional_entropy(j, renyi(a)) == 0.0


def test_cond_tsallis_two_by_two_hand_value():
    # columns each have weight 1/2 and conditionals (0.8, 0.2)
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    h2_col = (1.0 - (0.8 ** 2 + 0.2 ** 2)) / (2.0 - 1.0)
    assert conditional_entropy(j, tsallis(2.0)) == pytest.approx(
        0.5 * h2_col + 0.5 * h2_col, abs=1e-12
    )


def test_cond_renyi_min_entropy_column_maxima():
    j = check_table([[0.4, 0.1], [0.1, 0.4]])
    # max conditional is 0.8 in each column
    assert conditional_entropy(j, renyi(math.inf)) == pytest.approx(-math.log(0.8), abs=1e-12)
    assert -math.log(0.8) == pytest.approx(0.2231, abs=1e-4)


def test_cond_shannon_matches_order_one_limits(rng):
    for _ in range(50):
        j = random_joint(rng, 3, 4)
        h1 = conditional_entropy(j, SHANNON)
        for a in NEAR_ONE:
            assert abs(h1 - conditional_entropy(j, renyi(a))) < 1e-5
            assert abs(h1 - conditional_entropy(j, tsallis(a))) < 1e-5


def test_cond_renyi_monotone_in_alpha(rng):
    for _ in range(100):
        j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        vals = [conditional_entropy(j, renyi(a)) for a in ALPHA_GRID]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-10


def test_zero_probability_columns_skipped():
    j = check_table([[0.5, 0.0], [0.5, 0.0]])
    assert conditional_entropy(j, SHANNON) == pytest.approx(math.log(2), abs=1e-12)
    assert conditional_entropy(j, tsallis(2.0)) == pytest.approx(0.5, abs=1e-12)


# --- conditioning on more -------------------------------------------------------------


def _triple(rng, nx, ny, nz):
    t = rng.random((nx, ny, nz))
    t /= t.sum()
    flat = check_table(t.reshape(nx, ny * nz))
    marg = check_table(t.sum(axis=2))
    return flat, marg


def test_conditioning_on_more_tsallis_second(rng):
    for _ in range(100):
        flat, marg = _triple(rng, int(rng.integers(2, 4)), 3, 3)
        for a in ALPHA_GRID:
            order = tsallis(a)
            assert conditional_entropy(flat, order) <= conditional_entropy(marg, order) + 1e-10


def test_conditioning_on_more_renyi_low_order(rng):
    for _ in range(100):
        flat, marg = _triple(rng, int(rng.integers(2, 4)), 3, 3)
        for a in (0.3, 0.5, 1.0):
            order = renyi(a)
            assert conditional_entropy(flat, order) <= conditional_entropy(marg, order) + 1e-10


def test_conditioning_on_more_renyi_binary_extended_order(rng):
    # with a two-valued X the admissible interval stretches to alpha = 2
    for _ in range(100):
        flat, marg = _triple(rng, 2, 3, 3)
        for a in (1.5, 2.0):
            order = renyi(a)
            assert conditional_entropy(flat, order) <= conditional_entropy(marg, order) + 1e-10


# --- coarse graining of the conditioning variable ---------------------------------------


def _merge_first_two_cols(j):
    return check_table(np.column_stack([j[:, 0] + j[:, 1], j[:, 2:]]))


def test_coarse_graining_cannot_reduce_entropies(rng):
    for _ in range(100):
        j = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(3, 5)))
        g = _merge_first_two_cols(j)
        assert conditional_entropy(g, SHANNON) >= conditional_entropy(j, SHANNON) - 1e-10
        for a in ALPHA_GRID:
            assert conditional_entropy(g, tsallis(a)) >= conditional_entropy(j, tsallis(a)) - 1e-10
        for a in (0.3, 0.5, 1.0):
            assert conditional_entropy(g, renyi(a)) >= conditional_entropy(j, renyi(a)) - 1e-10


# --- binary entropy -----------------------------------------------------------------------


def test_binary_tsallis_values():
    assert binary_tsallis(0.0, 2.0) == 0.0
    assert binary_tsallis(1.0, 0.5) == 0.0
    assert binary_tsallis(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)
    assert binary_tsallis(0.5, 2.0) == pytest.approx(0.5, abs=1e-12)


@given(st.floats(0.0, 1.0), st.sampled_from(ALPHA_GRID))
@example(1.19e-07, 0.3)
@settings(max_examples=80, deadline=None)
def test_binary_tsallis_symmetric(q, a):
    # Swap the entries of one exactly representable pair: comparing q with
    # 1 - (1 - q) would compare two different inputs, and near q = 0 the
    # slope q**(a-1) magnifies their roundoff gap beyond any fixed tolerance.
    assert entropy([q, 1.0 - q], tsallis(a)) == pytest.approx(
        entropy([1.0 - q, q], tsallis(a)), abs=1e-12
    )


def test_binary_tsallis_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_tsallis(1.2, 2.0)


# --- probability hygiene and orders --------------------------------------------------------


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).filter(lambda v: sum(v) > 0))
@settings(max_examples=60, deadline=None)
def test_entropies_nonnegative(values):
    p = np.asarray(values)
    p = p / p.sum()
    for a in (0.5, 1.0, 2.0):
        assert entropy(p, renyi(a)) >= 0.0
        assert entropy(p, tsallis(a)) >= 0.0


def test_clipping_small_negatives():
    p = np.array([0.5, 0.5, -1e-13])
    assert entropy(p, renyi(2.0)) == pytest.approx(math.log(2), abs=1e-9)
    with pytest.raises(ValueError):
        entropy(np.array([0.6, 0.5, -0.1]), renyi(2.0))


def test_joint_rejects_bad_tables():
    with pytest.raises(ValueError):
        check_table([[0.5, 0.6], [0.2, 0.2]])
    with pytest.raises(ValueError, match=r"^joint table sums to 5\.0, expected 1$"):
        entropy(5, EntropyOrder.shannon())
    with pytest.raises(ValueError):
        check_table([[0.9, -0.2], [0.2, 0.1]])
    with pytest.raises(ValueError, match=r"2-d and non-empty, got shape \(0, 2\)"):
        check_table(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="non-finite entries"):
        check_table([[0.5, math.nan], [0.25, 0.25]])


def test_entropy_order_validation():
    with pytest.raises(ValueError):
        EntropyOrder(0.0, "renyi")
    with pytest.raises(ValueError):
        EntropyOrder(2.0, "shannon")
    with pytest.raises(ValueError):
        EntropyOrder(math.inf, "tsallis")
    with pytest.raises(ValueError, match="family must be one of"):
        EntropyOrder(1.0, "x")
    assert EntropyOrder.renyi(math.inf).alpha == math.inf
    assert EntropyOrder.shannon().alpha == 1.0


# --- gradient of the conditional entropy --------------------------------------------

GRADIENT_ORDERS = [
    EntropyOrder(alpha, family)
    for family in ("renyi", "tsallis", "shannon")
    for alpha in (0.3, 1 - 1e-8, 1.0, 1 + 1e-8, 2.0)
    if family != "shannon" or abs(alpha - 1.0) < SHANNON_BRANCH
]


@pytest.mark.parametrize("order", GRADIENT_ORDERS, ids=repr)
def test_entropy_gradient_matches_finite_differences(order):
    rng = np.random.default_rng(12)
    t = 0.1 + rng.random((3, 4))
    t[0, 1] = t[2, 0] = 0.0  # zero-probability entries in occupied columns
    t[:, 3] = 0.0  # and a zero-probability column
    t /= t.sum()
    value, grad = conditional_entropy_gradient(t, order)
    assert value == conditional_entropy(t, order)
    h = 1e-6
    for x, y in zip(*np.nonzero(t)):
        e = np.zeros_like(t)
        e[x, y] = h
        fd = (conditional_entropy(t + e, order) - conditional_entropy(t - e, order)) / (2 * h)
        assert grad[x, y] == pytest.approx(fd, abs=1e-7)
    assert np.all(grad[:, 3] == 0.0)
    if order.alpha > 1.5:
        # at p = 0 the one-sided derivative is finite (and exact) only for alpha > 1
        for x, y in ((0, 1), (2, 0)):
            e = np.zeros_like(t)
            e[x, y] = h
            fd = (conditional_entropy(t + e, order) - value) / h
            assert grad[x, y] == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("family", ["renyi", "tsallis"])
def test_gradient_is_continuous_across_the_shannon_branch(rng, family):
    # just outside the branch the Renyi and Tsallis gradients run and match the Shannon one.
    # Entries with p = 0 are left out: there the exact derivative is about 1/(alpha - 1) for
    # alpha > 1 (and infinite below 1), while the Shannon branch reads 0 by convention
    for _ in range(50):
        t = rng.random((3, 4))
        t[rng.random(t.shape) < 0.2] = 0.0
        t[0, 0] += 0.1  # never an all-zero table
        t = check_table(t / t.sum())
        _, shannon = conditional_entropy_gradient(t, SHANNON)
        for a in (1.0 - 2 * SHANNON_BRANCH, 1.0 + 2 * SHANNON_BRANCH):
            _, grad = conditional_entropy_gradient(t, EntropyOrder(a, family))
            assert np.max(np.abs(grad - shannon)[t > 0.0]) <= 1e-4


LARGE_ORDERS = [renyi(600.0), renyi(3000.0), tsallis(3000.0)]


@pytest.mark.parametrize("order", LARGE_ORDERS, ids=repr)
def test_gradient_stays_finite_at_large_orders(order):
    # at Renyi 3000 a column's power sum can underflow (0.6 ** 3000 is 0 in floats); the
    # gradient reads the columns' entropies, which stay finite there, not the sums' logs
    zeros = np.array([[0.05, 0.0, 0.2], [0.25, 0.15, 0.0], [0.0, 0.15, 0.2]])
    for t in (check_table([[0.1, 0.2], [0.4, 0.3]]), check_table(zeros)):
        value, grad = conditional_entropy_gradient(t, order)
        assert np.all(np.isfinite(grad))
        h = 1e-7
        for x, y in zip(*np.nonzero(t)):
            e = np.zeros_like(t)
            e[x, y] = h
            fd = (conditional_entropy(t + e, order) - conditional_entropy(t - e, order)) / (2 * h)
            assert abs(grad[x, y] - fd) <= 1e-8


@pytest.mark.parametrize("order", GRADIENT_ORDERS + LARGE_ORDERS, ids=repr)
def test_gradient_weighted_by_the_table_sums_to_the_entropy(rng, order):
    # each term p(y) H(X | Y = y) is 1-homogeneous in its column, so by Euler's theorem
    # sum p(x, y) d/dp(x, y) of the conditional entropy is the conditional entropy
    for _ in range(20):
        t = rng.random((3, 4))
        t[rng.random(t.shape) < 0.25] = 0.0
        t[:, 3] = 0.0  # a zero-probability column
        t[0, 0] += 0.1  # never an all-zero table
        t = check_table(t / t.sum())
        value, grad = conditional_entropy_gradient(t, order)
        assert abs(np.sum(t * grad) - value) <= 1e-12


def test_entropy_and_gradient_of_a_stack_match_each_table():
    rng = np.random.default_rng(5)
    stack = rng.random((2, 3, 3, 2))
    stack[0, 1, :, 1] = 0.0
    stack = check_table(stack / stack.sum(axis=(-2, -1), keepdims=True))
    order = EntropyOrder.renyi(0.5)
    values, grads = conditional_entropy_gradient(stack, order)
    for i in np.ndindex(stack.shape[:2]):
        value, grad = conditional_entropy_gradient(stack[i], order)
        assert values[i] == pytest.approx(value, abs=1e-15)
        assert np.allclose(grads[i], grad, atol=1e-15, rtol=0)


def test_check_table_rejects_one_bad_table_of_a_stack():
    stack = np.full((3, 2, 2), 0.25)
    stack[1, 0, 0] = 0.3
    with pytest.raises(ValueError, match="sums to"):
        check_table(stack)


def test_computed_order_is_shannon_on_the_branch():
    assert EntropyOrder.renyi(1 + 1e-8).computed == EntropyOrder.shannon()
    assert EntropyOrder.tsallis(1.0).computed == EntropyOrder.shannon()
    assert EntropyOrder.tsallis(1 + 1e-6).computed == EntropyOrder.tsallis(1 + 1e-6)


# --- one kernel call for many orders -------------------------------------------------

MIXED_ORDERS = [
    (alpha, family)
    for family in ("renyi", "tsallis")
    for alpha in (0.0, 0.3, 0.5, 1 - 1e-8, 1.0, 1 + 1e-8, 2.0)
] + [(math.inf, "renyi"), (1.0, "shannon")]


def column_entropy_formula(p, mult, alpha, family):
    """One column's entropy written out directly, zero entries dropped."""
    mult, p = mult[p > 0.0], p[p > 0.0]
    if alpha == math.inf:
        return -math.log(p.max())
    if abs(alpha - 1.0) < SHANNON_BRANCH:
        return -float(np.sum(mult * p * np.log(p)))
    power_sum = float(np.sum(mult * p ** alpha))
    value = math.log(power_sum) if family == "renyi" else power_sum - 1.0
    return max(0.0, value / (1.0 - alpha))


def test_kernel_with_an_order_per_column_matches_one_call_per_order():
    rng = np.random.default_rng(31)
    k = len(MIXED_ORDERS)
    cond = rng.random((4, k, 6))
    cond[0, :, 1] = cond[1:3, :, 2] = 0.0  # zero entries
    cond[1:, :, 3] = 0.0  # a column holding all its mass in one entry
    cond /= cond.sum(axis=0)
    mult = rng.integers(1, 4, size=cond.shape)
    # the orders rotate along both column axes, so neighbouring columns differ
    pick = (np.arange(k)[:, None] + np.arange(6)) % k
    alpha = np.array([a for a, _ in MIXED_ORDERS])[pick]
    family = np.array([f for _, f in MIXED_ORDERS])[pick]
    with np.errstate(all="raise"):
        values = _column_entropies(cond, alpha, family, mult)
        grads = _column_gradients(cond, alpha, family, _column_entropies(cond, alpha, family))
        for i, j in np.ndindex(pick.shape):
            a, f = MIXED_ORDERS[pick[i, j]]
            one = _column_entropies(cond[:, i, j], a, f, mult[:, i, j])
            assert abs(values[i, j] - one) <= 1e-12
            formula = column_entropy_formula(cond[:, i, j], mult[:, i, j], a, f)
            assert abs(values[i, j] - formula) <= 1e-12
            if 0.0 < a < math.inf:
                column = cond[:, i, j, None]
                grad = _column_gradients(column, a, f, _column_entropies(column, a, f))[:, 0]
                assert np.max(np.abs(grads[:, i, j] - grad)) <= 1e-12


def test_orders_on_numpy_fast_paths_do_not_depend_on_their_neighbours():
    # exponents 2 and 0.5 are raised by numpy's scalar square and sqrt also in a mixed call,
    # so the entropies of orders 2 and 0.5 are bitwise what a call of their order alone gives;
    # the gradients take their powers by exp, not by those paths, and are checked at orders
    # 3 and 1.5 (exponents alpha - 1 of 2 and 0.5) to be bitwise so too
    rng = np.random.default_rng(33)
    cond = rng.random((3, 400))
    cond /= cond.sum(axis=0)
    alone = cond[:, 1::2]

    def gradients(cond, alpha, family):
        return _column_gradients(cond, alpha, family, _column_entropies(cond, alpha, family))

    for family in ("renyi", "tsallis"):
        for kernel, alpha in [(_column_entropies, 2.0), (_column_entropies, 0.5),
                              (gradients, 3.0), (gradients, 1.5)]:
            mixed = np.where(np.arange(400) % 2, alpha, 0.3)
            batched = kernel(cond, mixed, family)[..., 1::2]
            assert np.array_equal(batched, kernel(alone, alpha, family))


def test_orders_broadcast_against_columns_as_an_explicit_broadcast_does():
    # columns with a length-1 order axis are evaluated once per order, bit for bit as the
    # same columns broadcast out explicitly, copied or not
    rng = np.random.default_rng(34)
    cond = rng.random((4, 1, 6))
    cond[0, :, 1] = cond[1:3, :, 2] = 0.0  # zero entries
    cond[1:, :, 3] = 0.0  # a column holding all its mass in one entry
    cond /= cond.sum(axis=0)
    mult = rng.integers(1, 4, size=cond.shape)
    alpha = np.array([a for a, _ in MIXED_ORDERS])[:, None]
    family = np.array([f for _, f in MIXED_ORDERS])[:, None]
    full = (4, len(MIXED_ORDERS), 6)
    with np.errstate(all="raise"):
        shared = _column_entropies(cond, alpha, family, mult)
        assert shared.shape == full[1:]
        for explicit in (np.broadcast_to(cond, full), np.broadcast_to(cond, full).copy()):
            assert np.array_equal(
                shared, _column_entropies(explicit, alpha, family, np.broadcast_to(mult, full)))


def test_table_entropy_with_an_order_per_table_matches_one_call_per_order():
    rng = np.random.default_rng(32)
    orders = [EntropyOrder(a, f) for a, f in MIXED_ORDERS if a > 0.0]
    stack = rng.random((len(orders), 3, 4))
    stack[:, 0, 1] = stack[:, 2, 0] = 0.0  # zero entries
    stack[1::2, :, 3] = 0.0  # a zero column in every other table
    stack = check_table(stack / stack.sum(axis=(-2, -1), keepdims=True))
    finite = [i for i, o in enumerate(orders) if o.alpha < math.inf]
    with np.errstate(all="raise"):
        values = conditional_entropy(stack, orders)
        f_values, f_grads = conditional_entropy_gradient(stack[finite], [orders[i] for i in finite])
        for i, order in enumerate(orders):
            assert abs(values[i] - conditional_entropy(stack[i], order)) <= 1e-12
        for row, i in enumerate(finite):
            value, grad = conditional_entropy_gradient(stack[i], orders[i])
            assert abs(f_values[row] - value) <= 1e-12
            assert np.max(np.abs(f_grads[row] - grad)) <= 1e-12


ONE_PATH_ORDERS = [
    EntropyOrder(alpha, family)
    for family in ("renyi", "tsallis")
    for alpha in (0.3, 0.5, 0.75, 1.5, 2.0, 3.0, 1 - 1e-8, 1 + 2e-7)
] + [renyi(math.inf), SHANNON]


@pytest.mark.parametrize("order", ONE_PATH_ORDERS, ids=repr)
def test_one_order_is_read_as_a_stack_of_one_table(rng, order):
    # one order and a one-table stack with a list of one order take the same path, bit for
    # bit, also at orders 2 and 0.5, which numpy raises by square and sqrt
    for _ in range(20):
        t = rng.random((3, 4))
        t[rng.random(t.shape) < 0.3] = 0.0
        t[1, 2] += 0.1  # never an all-zero table
        t = check_table(t / t.sum())
        assert conditional_entropy(t, order) == conditional_entropy(t[None], [order])[0]
        value, grad = conditional_entropy_gradient(t, order)
        values, grads = conditional_entropy_gradient(t[None], [order])
        assert value == values[0] and np.array_equal(grad, grads[0])
