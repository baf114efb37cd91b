"""Tests for the benchmark's own helpers: span self time, the percentile
rule, and the output checks.  Run with `python3 -m pytest bench`."""

import math

import pytest

import checks
import tracing


def test_self_time_on_hand_built_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlaps 1;
    # 3: grandchild [1.5, 2] under 1; 4: child [9, 12] runs past the root.
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    selfs = tracing.self_times(start, end, parent)
    # root: children cover [1, 6] and [9, 10] -> 6 of its 10
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_sum_to_root_duration_for_nested_spans():
    start = [0.0, 1.0, 2.0, 5.0]
    end = [8.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert sum(tracing.self_times(start, end, parent)) == pytest.approx(8.0)


def test_tracer_records_nesting_and_restores_bindings():
    import types

    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = tracing.Tracer()
    originals = (mod.inner, mod.outer)
    restore = []
    for attr in ("inner", "outer"):
        raw = getattr(mod, attr)
        setattr(mod, attr, tracer.wrap(raw, f"fake.{attr}"))
        restore.append((mod, attr, raw))
    try:
        assert mod.outer(1) == 4
    finally:
        tracing.uninstall(restore)
    assert (mod.inner, mod.outer) == originals
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["fake.outer", "fake.inner"]
    assert list(tracer.parent) == [-1, 0]
    table = tracing.span_table(tracer)
    assert table["fake.outer"]["calls"] == 1
    assert table["fake.outer"]["self_s"] <= table["fake.outer"]["incl_s"]


def test_install_reports_missing_bindings_as_absent():
    tracer = tracing.Tracer()
    restore, absent = tracing.install(
        tracer, [("math", "no_such_function", "x.y"), ("no_such_module", "f", "x.z")]
    )
    assert restore == []
    assert absent == ["math.no_such_function", "no_such_module.f"]


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    p = tracing.highest_percentile(n)
    assert p == expected
    if p is not None:
        assert n * (100 - p) / 100 >= 10 - 1e-9


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile([3.0], 99) == 3.0


ORDERS = (0.3, 0.5, 1.0, 1.5, 2.0)


def test_admissible_count_matches_the_default_grid():
    assert checks.admissible_count(2, ORDERS, ORDERS) == 52
    assert checks.admissible_count(4, ORDERS, ORDERS) == 35


def _sweep_csv(dim, samples):
    lines = ["relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"]
    c = 0.8
    for _ in range(samples):
        for rel in checks.RELATIONS:
            for a in ORDERS:
                for b in ORDERS:
                    if checks.admissible(rel, a, b, dim):
                        noise, dist, bound = 0.5, 0.75, 0.25 * a
                        margin = noise + dist - bound
                        lines.append(
                            f"{rel},{dim},{a:.9g},{b:.9g},{c:.9g},{noise:.9g},"
                            f"{dist:.9g},{bound:.9g},{margin:.9g},true,7"
                        )
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_a_consistent_csv():
    r = checks.check_sweep_csv(_sweep_csv(2, 3), 2, 3, ORDERS, ORDERS)
    assert (r.attempted, r.failed, r.problems) == (3, 0, [])
    assert len(r.values) == 3 * 52


def test_sweep_check_rejects_a_wrong_row_count():
    text = _sweep_csv(2, 3)
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    r = checks.check_sweep_csv(short, 2, 3, ORDERS, ORDERS)
    assert r.failed == 3
    assert "rows, expected" in r.problems[0]


@pytest.mark.parametrize(
    "field, value, reason",
    [(8, "1.5", "margin"), (5, "nan", "non-finite"), (4, "0.4", "outside"),
     (9, "false", "passed"), (6, "-0.1", "negative")],
)
def test_sweep_check_rejects_a_corrupted_row(field, value, reason):
    lines = _sweep_csv(4, 2).splitlines()
    row = lines[40].split(",")  # a row of the second sample
    row[field] = value
    lines[40] = ",".join(row)
    r = checks.check_sweep_csv("\n".join(lines) + "\n", 4, 2, ORDERS, ORDERS)
    assert r.failed == 1
    assert reason in r.problems[0]


def _bounds_csv(cs, orders):
    lines = ["c,alpha,beta,b_tsallis,b_renyi,mu_tsallis,mu_renyi,"
             "argmin_theta_tsallis,argmin_theta_renyi"]
    for c in cs:
        for a in orders:
            for b in orders:
                if abs(1 / a + 1 / b - 2) < 1e-9:
                    mu = f"0.1,{-2 * math.log(c):.9g}"
                else:
                    mu = ","
                lines.append(f"{c:.9g},{a:.9g},{b:.9g},0.2,0.3,{mu},0.1,0.1")
    return "\n".join(lines) + "\n"


BOUND_ORDERS = (0.5, 0.75, 1.0, 1.5)


def test_bounds_check_accepts_a_consistent_csv():
    cs = [0.4123456789, 0.9]
    r = checks.check_bounds_csv(_bounds_csv(cs, BOUND_ORDERS), cs, BOUND_ORDERS, BOUND_ORDERS)
    assert (r.attempted, r.failed, r.problems) == (32, 0, [])
    assert r.values == [0.25] * 32


def test_bounds_check_rejects_a_wrong_mu_renyi_and_a_wrong_row_count():
    cs = [0.4123456789, 0.9]
    text = _bounds_csv(cs, BOUND_ORDERS)
    bad = text.replace(f"{-2 * math.log(0.9):.9g}", "0.3")
    r = checks.check_bounds_csv(bad, cs, BOUND_ORDERS, BOUND_ORDERS)
    assert r.failed == 3  # the three conjugate pairs at c = 0.9
    assert "-2 ln c" in r.problems[0]
    r = checks.check_bounds_csv(text, cs + [0.5], BOUND_ORDERS, BOUND_ORDERS)
    assert r.failed == 48
