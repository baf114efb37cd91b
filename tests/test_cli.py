import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import etoff
from etoff import harness
from etoff.bounds import CertificateTable
from etoff.cli import main
from etoff.entropy import EntropyOrder, conditional_entropy
from etoff.harness import (
    RunConfig,
    broken_instrument_json,
    instance_to_json,
    run_sweep,
    saturation_instance,
)
from etoff.noise_disturbance import SearchConfig
from etoff.quantum import (
    basis_observable,
    observable_to_json,
    sample_random_instrument,
    sample_random_observable,
)


@pytest.fixture
def anchor_file(tmp_path):
    x_obs, z_obs, inst = saturation_instance()
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps(instance_to_json(x_obs, z_obs, inst)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken_instrument_json()))
    return str(path)


def test_certify_saturation_exits_zero(anchor_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify", anchor_file,
            "--relation", "Prop3", "--alpha", "1", "--beta", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert abs(cert["margin"]) <= 1e-7
    assert cert["passed"] is True
    assert cert["disturbance_is_upper_bound"] is True


def test_certify_csv_output(anchor_file, capsys):
    code = main(
        ["certify", anchor_file, "--relation", "Prop3", "--alpha", "1", "--beta", "1",
         "--format", "csv"]
    )
    assert code == 0
    got = capsys.readouterr().out.strip().splitlines()
    assert got[0] == harness.CSV_HEADER
    assert got[1].startswith("Prop3,2,1,1,")


@pytest.mark.parametrize("command", [
    pytest.param(["certify", "{bad}", "--relation", "Prop1", "--alpha", "1", "--beta", "1"],
                 id="certify"),
    pytest.param(["sweep", "--config", "{bad}", "--seed", "1", "--samples", "1"], id="sweep"),
    pytest.param(["selftest", "--fixture", "{bad}"], id="selftest"),
])
def test_certify_malformed_json_exits_two(command, tmp_path, capsys):
    # a file that is not JSON is an input error for every command that reads one
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([arg.format(bad=bad) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    pytest.param(["certify", "{deep}", "--relation", "Prop1", "--alpha", "1", "--beta", "1"],
                 id="certify"),
    pytest.param(["sweep", "--config", "{deep}", "--seed", "1", "--samples", "1"], id="sweep"),
    pytest.param(["selftest", "--fixture", "{deep}"], id="selftest"),
])
def test_json_nested_too_deeply_exits_two(command, tmp_path, capsys):
    # the decoder recurses once per level, so a deep enough file exhausts the recursion
    # limit; that is an input error (exit 2), not a refuted relation (exit 1)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main([arg.format(deep=deep) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "nested too deeply" in captured.err


def test_certify_broken_instrument_exits_two(broken_file):
    code = main(
        ["certify", broken_file, "--relation", "Prop1", "--alpha", "1", "--beta", "1"]
    )
    assert code == 2


def test_certify_inadmissible_exits_two(anchor_file, capsys):
    code = main(
        ["certify", anchor_file, "--relation", "Prop2", "--alpha", "3", "--beta", "1"]
    )
    assert code == 2
    assert "Prop2" in capsys.readouterr().err


# instance files (certify) and sweep config files (sweep --config) that are JSON but not
# of the expected shape: each names its bad entry instead of failing with a TypeError
MALFORMED_INPUTS = [
    pytest.param("instance", lambda d: d["X"]["branches"][0].update(eigenvalue=None),
                 "'eigenvalue'", id="null-eigenvalue"),
    pytest.param("instance", lambda d: d["M"].update(dim_in=None), "'dim_in'", id="null-dim_in"),
    pytest.param("instance", lambda d: d["M"]["branches"][0].update(kraus=5), "'kraus'",
                 id="kraus-5"),
    pytest.param("instance", lambda d: d["M"]["branches"][0].pop("label"),
                 "instrument branch 0", id="missing-label"),
    pytest.param("instance", lambda d: d["M"]["branches"][0].update(label=None),
                 "instrument branch 0", id="null-label"),
    # X and Z at d = 3 with the anchor's qubit instrument
    pytest.param("instance", lambda d: d.update(X=observable_to_json(basis_observable(3)),
                                                Z=observable_to_json(basis_observable(3))),
                 "dimensions differ", id="dim-mismatch"),
    pytest.param("instance", lambda d: [b.update(projector=[row + [[0.0, 0.0]] for row in
                                                            b["projector"]])
                                        for b in d["X"]["branches"]],
                 "projectors must be square", id="non-square-projector"),
    pytest.param("instance", lambda d: d["X"]["branches"][1].update(
        eigenvalue=d["X"]["branches"][0]["eigenvalue"]), "duplicate eigenvalue label",
                 id="shared-eigenvalue"),
    pytest.param("instance", lambda d: d["M"].update(branches=[]), "at least one outcome",
                 id="no-branches"),
    pytest.param("instance", lambda d: [b.update(kraus=[k[:1] for k in b["kraus"]])
                                        for b in d["M"]["branches"]],
                 "Kraus shape (1, 2) does not match (2, 2)", id="kraus-wrong-shape"),
    pytest.param("instance", lambda d: d["Z"]["branches"][0]["projector"][0][0].__setitem__(
        0, {"re": 1.0}), "matrix JSON entry is not a number", id="object-entry"),
    pytest.param("instance", lambda d: d["Z"]["branches"][0].update(
        projector=[[e[0] for e in row] for row in d["Z"]["branches"][0]["projector"]]),
                 "nested list of [re, im] pairs", id="row-without-pairs"),
    # numbers JSON admits that no projector or Kraus operator holds, each rejected before
    # arithmetic on it: 1j * inf and the product of a 1e308 entry with itself warn
    pytest.param("instance", lambda d: d["X"]["branches"][0]["projector"][0][0].__setitem__(
        0, math.nan), "NaN or Inf entries", id="nan-projector-entry"),
    pytest.param("instance", lambda d: d["M"]["branches"][0]["kraus"][0][0][0].__setitem__(
        1, math.inf), "matrix JSON has NaN or Inf", id="infinite-kraus-imaginary-part"),
    pytest.param("instance", lambda d: d["Z"]["branches"][0]["projector"][0][0].__setitem__(
        0, 1e308), "entries above 1 in modulus", id="1e308-projector-entry"),
    pytest.param("config", [{"dim": 2}], "not an object", id="config-list"),
    pytest.param("config", {"dim": 2, "bogus": 1}, "'bogus'", id="config-unknown-key"),
    pytest.param("config", {"dim": "2"}, "dim must be an integer", id="config-string-dim"),
    pytest.param("config", {"out": 7}, "out must be a file path", id="config-number-out"),
    pytest.param("config", {"betas": [1.0, math.nan]}, "betas must be finite numbers, got nan",
                 id="config-nan-beta"),
    # JSON booleans are Python ints, so each of these once ran as 1
    pytest.param("config", {"restarts": True}, "restarts must be an integer, got True",
                 id="config-bool-restarts"),
    pytest.param("config", {"seed": True}, "seed must be an integer, got True",
                 id="config-bool-seed"),
    pytest.param("config", {"alphas": [True]}, "alphas must be finite numbers, got True",
                 id="config-bool-alpha"),
    pytest.param("config", {"dim": 1}, "dimension must be at least 2, got 1", id="config-dim-1"),
    pytest.param("config", {"relations": []}, "relations, alphas and betas must be non-empty",
                 id="config-no-relations"),
    pytest.param("config", {"relations": ["Prop9"]}, "unknown relation 'Prop9'",
                 id="config-unknown-relation"),
    pytest.param("config", {"fmt": "xml"}, "format must be csv or json, got 'xml'",
                 id="config-xml-format"),
]


@pytest.mark.parametrize("kind, content, named", MALFORMED_INPUTS)
def test_malformed_input_file_exits_two(anchor_file, tmp_path, capsys, kind, content, named):
    path = tmp_path / "input.json"
    if kind == "instance":  # content edits the anchor instance in place
        data = json.loads(Path(anchor_file).read_text())
        content(data)
        path.write_text(json.dumps(data))
        argv = ["certify", str(path), "--relation", "Prop3", "--alpha", "1", "--beta", "1"]
    else:
        path.write_text(json.dumps(content))
        argv = ["sweep", "--config", str(path), "--seed", "1", "--samples", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and named in captured.err
    if kind == "instance":  # the fixture check rejects the same file as an input error
        assert main(["selftest", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and named in captured.err


@pytest.fixture
def qutrit_file(tmp_path):
    # Z has three outcomes, so a search runs the POVM descent, and the output is wider than d
    x_obs, z_obs = (sample_random_observable(3, None, seed) for seed in (1, 2))
    inst = sample_random_instrument(3, 4, 2, 2, 3)
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(instance_to_json(x_obs, z_obs, inst)))
    return str(path)


def test_certify_restarts_require_seed(qutrit_file, monkeypatch, capsys):
    monkeypatch.delenv("ETOFF_SEED", raising=False)
    code = main(
        ["certify", qutrit_file, "--relation", "Prop3", "--alpha", "1", "--beta", "1",
         "--restarts", "2"]
    )
    assert code == 2
    assert "a seed is required" in capsys.readouterr().err


def test_certify_angle_search_needs_no_seed(anchor_file, monkeypatch, tmp_path):
    # at two Z outcomes a search is the support-angle search, which draws nothing at random
    monkeypatch.delenv("ETOFF_SEED", raising=False)
    out = tmp_path / "cert.json"
    code = main(
        ["certify", anchor_file, "--relation", "Prop1", "--alpha", "0.3", "--beta", "0.3",
         "--restarts", "1", "--out", str(out)]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["seed"] is None and cert["search"]["best_candidate"] in (
        "discard_flag", "reprepare", "support_angle")


# (flags, ETOFF_SEED, part of the message): a search with fewer than 4 evaluations per
# restart could not take a single step, and a negative seed would fail inside numpy's
# SeedSequence, for a sweep in a worker process
BAD_BUDGETS = [
    pytest.param(["--restarts", "-1"], "1", "restarts", id="--restarts--1"),
    pytest.param(["--iterations", "0"], "1", "iterations", id="--iterations-0"),
    pytest.param(["--restarts", "2", "--iterations", "3"], "1", "iterations must be at least 4",
                 id="--restarts-2--iterations-3"),
    pytest.param(["--restarts", "1", "--seed", "-1"], "1", "ETOFF_SEED) must not be negative",
                 id="--seed--1"),
    pytest.param(["--restarts", "1"], "-3", "ETOFF_SEED) must not be negative", id="ETOFF_SEED--3"),
    pytest.param(["--restarts", "1"], "abc", "ETOFF_SEED must be an integer, got 'abc'",
                 id="ETOFF_SEED-abc"),
    # non-finite orders: a sweep's config names the entry, certify the relation and the entry
    pytest.param(["--relation", "Prop3", "--alpha", "nan", "--beta", "1"], "1", "nan",
                 id="Prop3-alpha-nan"),
    pytest.param(["--relation", "Binary", "--alpha", "inf", "--beta", "0.5"], "1", "inf",
                 id="Binary-alpha-inf"),
]


@pytest.mark.parametrize("budget, seed, named", BAD_BUDGETS)
def test_certify_rejects_a_bad_search_budget(anchor_file, capsys, monkeypatch, budget, seed,
                                             named):
    monkeypatch.setenv("ETOFF_SEED", seed)
    code = main(
        ["certify", anchor_file, "--relation", "Prop3", "--alpha", "1", "--beta", "1", *budget]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_seed_env_fallback(anchor_file, monkeypatch, tmp_path):
    monkeypatch.setenv("ETOFF_SEED", "33")
    out = tmp_path / "cert.json"
    code = main(
        ["certify", anchor_file, "--relation", "Prop3", "--alpha", "1", "--beta", "1",
         "--restarts", "1", "--iterations", "40", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 33


def test_sweep_requires_seed(monkeypatch):
    monkeypatch.delenv("ETOFF_SEED", raising=False)
    code = main(["sweep", "--dim", "2", "--samples", "1"])
    assert code == 2
    # the Python API checks it too, before any sample runs
    monkeypatch.setattr(harness, "_sweep_task", lambda *args: pytest.fail("a sample ran"))
    with pytest.raises(ValueError, match="a randomized sweep needs a seed"):
        run_sweep(RunConfig(dim=2, samples=1))


@pytest.mark.parametrize(
    "budget, seed, named",
    BAD_BUDGETS + [pytest.param(["--jobs", "0"], "1", "jobs", id="--jobs-0"),
                   pytest.param(["--jobs", "-2"], "1", "jobs", id="--jobs--2"),
                   pytest.param(["--samples", "0"], "1", "samples must be positive",
                                id="--samples-0")],
)
def test_sweep_rejects_a_bad_budget_before_any_sample_runs(monkeypatch, capsys, budget, seed,
                                                           named):
    ran = []
    monkeypatch.setattr(harness, "_sweep_task", lambda *args: ran.append(args))
    monkeypatch.setenv("ETOFF_SEED", seed)
    code = main(["sweep", "--dim", "2", "--samples", "2", "--jobs", "1", *budget])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert ran == []


def test_run_config_checks_the_search_budget_and_jobs():
    for bad in ({"restarts": -1}, {"iterations": 0}, {"iterations": 3}, {"jobs": 0},
                {"jobs": -2}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RunConfig(**bad)
    # the benchmark's budgets stay valid; jobs=None means the CPUs this process may use
    for good in ({"restarts": 0}, {"restarts": 0, "iterations": 1},
                 {"restarts": 1, "iterations": 4}, {"restarts": 1, "iterations": 150},
                 {"jobs": 1}, {"jobs": None}):
        RunConfig(**good)


def test_sweep_reports_the_evaluations_of_one_restart(tmp_path):
    # iterations is a per-restart budget of the descent, which runs at three or more Z
    # outcomes, and the JSON reports the best restart's count
    out = tmp_path / "o.json"
    code = main(
        ["sweep", "--dim", "3", "--samples", "2", "--seed", "1", "--restarts", "3",
         "--iterations", "4", "--relation", "Prop3", "--alpha", "1", "--beta", "1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    counts = [cert["search"]["iterations"] for cert in json.loads(out.read_text())]
    assert counts and all(1 <= n <= 4 for n in counts)


def test_sweep_tasks_carry_the_validated_config(monkeypatch):
    # each task gets (cfg, grid, indices): the RunConfig itself, the one admissible grid,
    # checked once per sweep, and a fixed chunk of consecutive samples; no task re-validates
    # the config or the grid
    samples = harness.CHUNK + 3
    cfg = RunConfig(dim=2, samples=samples, relations=("Prop3",), alphas=(1.0, 2.0),
                    betas=(1.0,), seed=5, restarts=0, jobs=1)
    tasks, validations, grids = [], [], []
    task = harness._sweep_task
    post_init = RunConfig.__post_init__
    admissible_grid = harness.bounds.admissible_grid
    monkeypatch.setattr(harness, "_sweep_task", lambda *args: tasks.append(args) or task(*args))
    monkeypatch.setattr(RunConfig, "__post_init__",
                        lambda self: validations.append(self) or post_init(self))
    monkeypatch.setattr(harness.bounds, "admissible_grid",
                        lambda *args: grids.append(args) or admissible_grid(*args))
    certs, summary = run_sweep(cfg)
    assert [list(indices) for _, _, indices in tasks] == [
        list(range(harness.CHUNK)), list(range(harness.CHUNK, samples))]
    assert all(task_cfg is cfg and grid == [("Prop3", 1.0, 1.0)] for task_cfg, grid, _ in tasks)
    assert validations == [] and len(grids) == 1 and certs.relation.size == samples
    assert summary["inadmissible_skipped"] == samples  # Prop3 at (2, 1) is not conjugate


def test_sweep_chunks_give_each_sample_its_own_certificates():
    # at d = 2, 17 samples make two full chunks and a partial one, cut into uneven shares at
    # 2 jobs and into fewer shares than jobs at 5; at d = 3, one full chunk and a partial one
    # over the default grid with the fixed corrections alone.  The certificates do not
    # depend on the worker count, and each sample's equal those of its instance certified
    # alone, so no row of a stacked chunk leaks into another
    settings = [
        (dict(dim=2, samples=2 * harness.CHUNK + 1, relations=("Prop1", "Prop3"),
              alphas=(0.5, 1.0), betas=(0.5, 1.0), restarts=2, iterations=40), (1, 2, 3, 5)),
        (dict(dim=3, samples=harness.CHUNK + 3, restarts=0), (1, 2)),
    ]
    for setting, job_counts in settings:
        cfg = RunConfig(**setting, seed=7, jobs=1)
        # a run is compared by its JSON, which holds every column
        runs = []
        for jobs in job_counts:
            cfg.jobs = jobs
            runs.append(harness.certificates_to_json(run_sweep(cfg)[0]))
        assert all(run == runs[0] for run in runs)
        grid, _ = harness.bounds.admissible_grid(cfg.relations, cfg.alphas, cfg.betas, cfg.dim)
        alone = []
        for i in range(cfg.samples):
            instance = harness.sample_instance(cfg.dim, [np.random.SeedSequence([cfg.seed, i])])
            seed = int(np.random.SeedSequence([cfg.seed, i, 1]).generate_state(1)[0])
            search = SearchConfig(cfg.restarts, cfg.iterations)
            alone.append(harness.certify_grid(instance, grid, search, [seed], seed=cfg.seed))
        alone = CertificateTable.join(alone)
        assert alone.relation.size == cfg.samples * len(grid)
        assert runs[0] == harness.certificates_to_json(alone)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a helper process sees the test's patches only when it is forked")


@pytest.fixture
def within_a_minute():
    """Fail the test, instead of hanging it, if it has not ended after a minute."""
    def expire(signum, frame):
        raise TimeoutError("the sweep did not end within a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def in_helpers_only(monkeypatch, act):
    """Patch the sweep task to call act() in a helper process, and certify in this one."""
    parent, task = os.getpid(), harness._sweep_task
    monkeypatch.setattr(harness, "_sweep_task",
                        lambda *args: act() if os.getpid() != parent else task(*args))


def record_helpers(monkeypatch) -> list:
    """Patch the helpers' Process class to list every helper it starts."""
    started = []

    class Recorded(multiprocessing.Process):
        def start(self):
            super().start()
            started.append(self)

    monkeypatch.setattr(harness, "Process", Recorded)
    return started


@fork_only
def test_a_helper_that_dies_without_a_result_fails_the_sweep_at_once(monkeypatch,
                                                                      within_a_minute):
    in_helpers_only(monkeypatch, lambda: os._exit(3))
    cfg = RunConfig(dim=2, samples=2 * harness.CHUNK, seed=1, restarts=0, jobs=2)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_sweep(cfg)
    assert multiprocessing.active_children() == []


@fork_only
def test_an_input_error_in_a_helper_exits_two(monkeypatch, capsys, within_a_minute):
    def bad_input():
        raise ValueError("bad input in a helper")

    in_helpers_only(monkeypatch, bad_input)
    code = main(["sweep", "--dim", "2", "--samples", str(2 * harness.CHUNK), "--seed", "1",
                 "--restarts", "0", "--jobs", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input in a helper") and "Traceback" not in err
    assert multiprocessing.active_children() == []


@fork_only
def test_an_error_in_this_process_ends_every_helper(monkeypatch, within_a_minute):
    # 3 chunks at 5 jobs start 2 helpers, which would certify for a minute if not ended
    parent = os.getpid()

    def task(*args):
        if os.getpid() == parent:
            raise ValueError("bad input in this process")
        time.sleep(60)

    monkeypatch.setattr(harness, "_sweep_task", task)
    started = record_helpers(monkeypatch)
    cfg = RunConfig(dim=2, samples=2 * harness.CHUNK + 1, seed=1, restarts=0, jobs=5)
    with pytest.raises(ValueError, match="this process"):
        run_sweep(cfg)
    assert [helper.exitcode for helper in started] == [-signal.SIGTERM] * 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
def test_default_jobs_are_the_cpus_this_process_may_use(monkeypatch, affinity):
    # one usable CPU starts no helper, even on a machine with more
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    started = record_helpers(monkeypatch)
    cfg = RunConfig(dim=2, samples=2 * harness.CHUNK, seed=1, restarts=0)
    certs, _ = run_sweep(cfg)
    assert started == [] and certs.relation.size > 0


def test_sweep_deterministic_across_runs_and_jobs(tmp_path):
    args = [
        "sweep", "--dim", "2", "--samples", "3", "--seed", "41",
        "--relation", "Prop1", "Prop3",
        "--alpha", "0.5", "1", "--beta", "0.5", "1",
        "--restarts", "1", "--iterations", "40",
    ]
    outs = []
    for jobs, name in ((1, "a.csv"), (1, "b.csv"), (2, "c.csv")):
        path = tmp_path / name
        code = main(args + ["--jobs", str(jobs), "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_sweep_summary_counts_inadmissible(tmp_path, capsys):
    path = tmp_path / "s.csv"
    code = main(
        ["sweep", "--dim", "3", "--samples", "2", "--seed", "5",
         "--relation", "Prop2", "--alpha", "0.5", "2", "--beta", "0.5",
         "--restarts", "0", "--out", str(path)]
    )
    assert code == 0
    assert "inadmissible" in capsys.readouterr().out


def test_sweep_with_no_admissible_combination_writes_no_certificates(tmp_path, capsys):
    # Binary needs d = 2, so at d = 3 nothing is left to certify or search
    path = tmp_path / "s.csv"
    code = main(
        ["sweep", "--dim", "3", "--samples", "1", "--seed", "1", "--relation", "Binary",
         "--restarts", "1", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text().splitlines() == [harness.CSV_HEADER]
    assert "0 certificates" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_with_nothing_admissible_does_no_work(jobs, monkeypatch, tmp_path, capsys):
    # an empty grid cuts no chunk: nothing is sampled or certified, no helper starts, and the
    # summary says there is no margin rather than printing nan
    calls = []
    for name in ("sample_instance", "certify_grid"):
        monkeypatch.setattr(harness, name, lambda *args, name=name, run=getattr(harness, name):
                            calls.append(name) or run(*args))

    def no_helper(*args, **kwargs):
        raise AssertionError("a helper was started")

    monkeypatch.setattr(harness, "Process", no_helper)
    path = tmp_path / "s.csv"
    code = main(["sweep", "--dim", "3", "--samples", str(8 * harness.CHUNK), "--seed", "1",
                 "--relation", "Binary", "--jobs", str(jobs), "--out", str(path)])
    assert code == 0 and calls == []
    assert path.read_text().splitlines() == [harness.CSV_HEADER]
    summary = capsys.readouterr().out
    assert "min margin none," in summary and "nan" not in summary


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dim": 2, "samples": 2, "relations": ["Prop1"],
        "alphas": [1.0], "betas": [1.0], "restarts": 0, "seed": 10,
    }))
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(cfg), "--samples", "1", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == harness.CSV_HEADER
    assert len(rows) == 2  # header + one sample x one combination


def test_sweep_config_file_with_integer_orders_writes_the_json_of_the_same_flags(tmp_path):
    # a config file's integer order is the command line's float: "alpha": 1.0 in both outputs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"relations": ["Prop1"], "alphas": [1], "betas": [2]}))
    common = ["--samples", "1", "--seed", "1", "--restarts", "0", "--format", "json"]
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert main(["sweep", "--config", str(cfg), *common, "--out", str(from_file)]) == 0
    assert main(["sweep", "--relation", "Prop1", "--alpha", "1", "--beta", "2", *common,
                 "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert '"alpha": 1.0,' in from_file.read_text()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "o.json"
    code = main(
        ["sweep", "--dim", "2", "--samples", "1", "--seed", "3",
         "--relation", "Prop1", "--alpha", "1", "--beta", "1",
         "--restarts", "0", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 1 and data[0]["relation"] == "Prop1"


def test_sweep_json_names_the_winning_correction(tmp_path):
    # without restarts only the two fixed corrections can win; with them, the support angle
    # (two Z outcomes) or the descent (three); the CSV header is unchanged
    base = ["sweep", "--samples", "2", "--seed", "8", "--iterations", "40", "--format", "json"]
    out = tmp_path / "fixed.json"
    assert main(base + ["--dim", "2", "--restarts", "0", "--out", str(out)]) == 0
    names = {cert["search"]["best_candidate"] for cert in json.loads(out.read_text())}
    assert names and names <= {"discard_flag", "reprepare"}
    for dim, name in ((2, "support_angle"), (3, "parametrized_restart_0")):
        out = tmp_path / f"search{dim}.json"
        assert main(base + ["--dim", str(dim), "--restarts", "1", "--out", str(out)]) == 0
        names = {cert["search"]["best_candidate"] for cert in json.loads(out.read_text())}
        assert name in names
    assert harness.CSV_HEADER == (
        "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"
    )


def test_csv_round_trips_through_json(tmp_path):
    cfg = RunConfig(
        dim=2, samples=2, relations=("Prop1", "Prop3"), alphas=(0.5, 1.0),
        betas=(1.0,), seed=19, restarts=1, iterations=40, jobs=1,
    )
    certs, _ = run_sweep(cfg)
    header, *lines = harness.certificates_to_csv(certs).splitlines()
    rows = json.loads(harness.certificates_to_json(certs))
    assert len(rows) == len(lines) == certs.relation.size > 0
    for k, (data, line) in enumerate(zip(rows, lines)):
        row = dict(zip(header.split(","), line.split(",")))
        for key in ("relation", "alpha", "beta", "c", "noise", "disturbance", "margin"):
            assert data[key] == getattr(certs, key)[k]
        assert data["bound"]["value"] == certs.bound[k]
        assert float(row["bound"]) == pytest.approx(data["bound"]["value"], rel=1e-8)
        assert float(row["margin"]) == pytest.approx(data["margin"], rel=1e-8, abs=1e-15)
        assert row["passed"] == str(data["passed"]).lower()


def two_row_table() -> CertificateTable:
    """A hand-built table: a refuted Prop1 row without seed or mu, a Prop3 row with both."""
    return CertificateTable(
        relation=np.array(["Prop1", "Prop3"]), family=np.array(["tsallis", "tsallis"]),
        alpha=np.array([0.3, 2.0]), beta=np.array([0.5, 2 / 3]), dim=np.array([2, 3]),
        c=np.array([0.75, 1 / math.sqrt(2)]), noise=np.array([0.25, 0.5]),
        disturbance=np.array([0.125, 0.0]), bound_id=np.array(["B_T", "MU_T"]),
        bound=np.array([0.5, 0.25]), mu=np.array([np.nan, 2.0]),
        argmin_theta=np.array([0.125, np.nan]), seed=np.array([None, 2**64 + 1], dtype=object),
        restarts=np.array([0, 1]), iterations=np.array([0, 7]), converged=np.array([False, True]),
        best_candidate=np.array(["discard_flag", "support_angle"]))


TWO_ROW_JSON = """[
  {
    "relation": "Prop1",
    "dim": 2,
    "alpha": 0.3,
    "beta": 0.5,
    "family": "tsallis",
    "c": 0.75,
    "noise": 0.25,
    "disturbance": 0.125,
    "disturbance_is_upper_bound": true,
    "bound": {
      "id": "B_T",
      "value": 0.5,
      "mu": null,
      "argmin_theta": 0.125
    },
    "margin": -0.125,
    "passed": false,
    "seed": null,
    "search": {
      "restarts": 0,
      "iterations": 0,
      "converged": false,
      "best_candidate": "discard_flag"
    }
  },
  {
    "relation": "Prop3",
    "dim": 3,
    "alpha": 2.0,
    "beta": 0.6666666666666666,
    "family": "tsallis",
    "c": 0.7071067811865475,
    "noise": 0.5,
    "disturbance": 0.0,
    "disturbance_is_upper_bound": true,
    "bound": {
      "id": "MU_T",
      "value": 0.25,
      "mu": 2.0,
      "argmin_theta": null
    },
    "margin": 0.25,
    "passed": true,
    "seed": 18446744073709551617,
    "search": {
      "restarts": 1,
      "iterations": 7,
      "converged": true,
      "best_candidate": "support_angle"
    }
  }
]
"""


def test_writers_pin_the_output_format():
    # the byte layout of both formats, apart from any LAPACK rounding: numbers to 9 significant
    # digits in the CSV and as repr in the JSON, no seed as an empty CSV field and a JSON null,
    # a NaN mu or argmin_theta as null, and the margin and verdict derived from the columns
    table = two_row_table()
    assert harness.certificates_to_csv(table).splitlines() == [
        "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed",
        "Prop1,2,0.3,0.5,0.75,0.25,0.125,0.5,-0.125,false,",
        "Prop3,3,2,0.666666667,0.707106781,0.5,0,0.25,0.25,true,18446744073709551617",
    ]
    assert harness.certificates_to_json(table) == TWO_ROW_JSON
    empty = CertificateTable.join([])
    assert harness.certificates_to_csv(empty) == harness.CSV_HEADER + "\n"
    assert harness.certificates_to_json(empty) == "[]\n"


# floats whose 9-digit text is easy to get wrong: a signed zero, the least subnormal, a tiny
# normal, two that round up into the next decade, and one that takes the exponent form
AWKWARD_FLOATS = (-0.0, 5e-324, 1e-300, 0.9999999995, 123456789.5, 1e16)


def test_both_csv_writers_equal_a_per_field_format(monkeypatch):
    # each writer fills one %-template per row; the reference formats every field on its own
    num, n = "{:.9g}".format, len(AWKWARD_FLOATS)
    col = np.array(AWKWARD_FLOATS)
    table = CertificateTable(
        relation=np.array(["Prop1", "Prop2"] * 3), family=np.array(["tsallis", "renyi"] * 3),
        alpha=col, beta=np.roll(col, 1), dim=np.full(n, 2), c=np.roll(col, 2),
        noise=np.roll(col, 3), disturbance=np.roll(col, 4), bound_id=np.array(["B_T", "B_R"] * 3),
        bound=np.roll(col, 5), mu=np.full(n, np.nan), argmin_theta=col,
        seed=np.array([None, 3, None, 2**70, 0, None], dtype=object), restarts=np.zeros(n, int),
        iterations=np.zeros(n, int), converged=np.zeros(n, bool),
        best_candidate=np.full(n, "discard_flag"))
    names = "relation,dim,alpha,beta,c,noise,disturbance,bound,margin,passed,seed".split(",")
    assert harness.certificates_to_csv(table).splitlines() == [harness.CSV_HEADER] + [
        ",".join([relation, str(dim), *map(num, numbers), str(passed).lower(),
                  "" if seed is None else str(seed)])
        for relation, dim, *numbers, passed, seed in zip(
            *(getattr(table, name).tolist() for name in names))]

    def fake_bbar(cs, pairs):
        return np.resize(col, (len(cs), len(pairs))), np.resize(col[::-1], (len(cs), len(pairs)))

    monkeypatch.setattr("etoff.bounds.bbar_bound", fake_bbar)
    monkeypatch.setattr(harness, "mu_bounds", lambda c, alpha, beta: (c, alpha))
    orders = (*AWKWARD_FLOATS, 1.0)
    ab = [(a, b) for a in orders for b in orders]
    values, argmins = fake_bbar(AWKWARD_FLOATS, ab * 2)
    want = [harness.BOUNDS_CSV_HEADER]
    for i, c in enumerate(AWKWARD_FLOATS):
        for j, (a, b) in enumerate(ab):
            mu = map(num, (c, a)) if etoff.bounds.conjugate_orders(a, b) else ("", "")
            t, r = j, j + len(ab)
            want.append(",".join([num(c), num(a), num(b), num(values[i, t]), num(values[i, r]),
                                  *mu, num(argmins[i, t]), num(argmins[i, r])]))
    assert harness.tabulate_bounds(AWKWARD_FLOATS, orders, orders).splitlines() == want


def test_a_raised_bound_is_refuted_and_exits_one(anchor_file, monkeypatch, tmp_path, capsys):
    # B-bar raised by 10 lies above noise + disturbance on every Prop1 and Prop2 row, and the
    # conjugacy bounds of Prop3 and Binary are untouched: certify and sweep exit 1, exactly the
    # raised rows read passed = false, and the summary counts them as failures
    real = etoff.bounds.bbar_bound

    def raised(cs, pairs):
        values, argmins = real(cs, pairs)
        return values + 10.0, argmins

    monkeypatch.setattr("etoff.bounds.bbar_bound", raised)
    out = tmp_path / "cert.json"
    assert main(["certify", anchor_file, "--relation", "Prop1", "--alpha", "0.3", "--beta", "0.3",
                 "--out", str(out)]) == 1
    cert = json.loads(out.read_text())
    assert cert["passed"] is False and cert["margin"] < -9
    path = tmp_path / "s.csv"
    assert main(["sweep", "--dim", "2", "--samples", "3", "--seed", "2", "--restarts", "0",
                 "--jobs", "1", "--out", str(path)]) == 1
    header, *lines = path.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    raised_rows = [row["relation"] in ("Prop1", "Prop2") for row in rows]
    assert len(rows) == 3 * 52 and sum(raised_rows) == 3 * 50
    assert [row["passed"] == "false" for row in rows] == raised_rows
    failures = re.search(r", (\d+) failures,", capsys.readouterr().out)
    assert failures and int(failures.group(1)) == sum(raised_rows)


def test_bounds_command(tmp_path, capsys):
    code = main(["bounds", "--c", "1.0", str(1 / math.sqrt(2)), "--alpha", "1", "--beta", "1"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    header = rows[0].split(",")
    row_c1 = dict(zip(header, rows[1].split(",")))
    assert float(row_c1["b_tsallis"]) == 0.0
    assert float(row_c1["b_renyi"]) == 0.0
    row_conj = dict(zip(header, rows[2].split(",")))
    assert float(row_conj["mu_renyi"]) == pytest.approx(math.log(2), abs=1e-8)


def test_bounds_rejects_invalid_grid(capsys):
    # c below bounds.C_FLOOR is rejected before its breakpoint table (c**-2 entries) is built
    for c, alpha in (("0.0", "1"), ("0.5", "-1"), ("1.5", "1"), ("0.5", "inf"), ("1e-300", "1"),
                     ("0.005", "1")):
        assert main(["bounds", "--c", c, "--alpha", alpha, "--beta", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("command", [
    pytest.param(["certify", "{anchor}", "--relation", "Prop3", "--alpha", "1", "--beta", "1"],
                 id="certify"),
    pytest.param(["sweep", "--dim", "2", "--samples", "2", "--seed", "1", "--restarts", "0",
                  "--jobs", "1"], id="sweep"),
    pytest.param(["bounds", "--c", "0.5", "--alpha", "1", "--beta", "1"], id="bounds"),
])
def test_unwritable_out_is_a_usage_error(command, anchor_file, tmp_path, capsys, monkeypatch):
    # exit 1 means a refuted relation, so a path that cannot be written exits 2, and a
    # sweep finds out before any sample runs
    ran = []
    task = harness._sweep_task
    monkeypatch.setattr(harness, "_sweep_task", lambda *args: ran.append(args) or task(*args))
    out = tmp_path / "missing" / "x.csv"
    argv = [arg.format(anchor=anchor_file) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert str(out) in captured.err and not out.exists()
    assert ran == []


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_shannon_limit_is_one_stacked_call_equal_to_the_loop(monkeypatch):
    # the 100 tables against the 8 orders near 1 take one call, and the Shannon entropies
    # another; each value equals, bit for bit, that of its table and order alone
    calls = []
    monkeypatch.setattr(harness, "conditional_entropy", lambda table, order: calls.append(
        (table, order, conditional_entropy(table, order))) or calls[-1][2])
    detail = dict((name, detail) for name, _, detail in harness.selftest_checks())
    (stack, orders, values), = [call for call in calls if np.ndim(call[0]) == 4]
    (tables, shannon, h1), = [call for call in calls if np.ndim(call[0]) == 3]
    assert stack.shape == (100, 8, 3, 3) and len(orders) == 8
    assert shannon == EntropyOrder.shannon()
    worst = 0.0
    for t, table in enumerate(tables):
        assert np.array_equal(stack[t], np.broadcast_to(table, stack[t].shape))
        assert h1[t] == conditional_entropy(table, shannon)
        for k, order in enumerate(orders):
            assert values[t, k] == conditional_entropy(table, order), (t, order)
            worst = max(worst, abs(values[t, k] - h1[t]))
    assert detail["shannon_limit"] == f"worst gap={worst:.3e}"


def test_selftest_names_its_first_failing_property(monkeypatch, capsys):
    # every check still runs and prints; the first failure is named and the exit code is 1
    monkeypatch.setattr(harness, "two_picture_check", lambda *args: (False, "patched"))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest: two_pictures_qubit: FAIL (patched)" in out
    assert "two_pictures_qutrit: FAIL" in out and "negative_fixture_rejected: PASS" in out
    assert out.endswith("selftest: first failing property: two_pictures_qubit\n")


def degenerate_file(tmp_path, dim, x_profile, z_profile):
    """An instance file with the given X and Z degeneracy profiles and a random two-outcome M."""
    x_obs, z_obs = (sample_random_observable(dim, g, seed) for g, seed in ((x_profile, 1),
                                                                          (z_profile, 2)))
    path = tmp_path / f"degenerate{dim}.json"
    inst = sample_random_instrument(dim, dim, 2, 2, 3)
    path.write_text(json.dumps(instance_to_json(x_obs, z_obs, inst)))
    return str(path)


def check_exits_two_when(kernel, message, path, search, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, so the command line reports it as an input error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(np.linalg, kernel, no_convergence)
    code = main(["certify", path, "--relation", "Prop3", "--alpha", "1", "--beta", "1", *search])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {message}\n"


def test_certify_exits_two_when_the_svd_does_not_converge(tmp_path, monkeypatch, capsys):
    # the overlap takes an SVD only on pairs of projectors of rank two or more
    path = degenerate_file(tmp_path, 4, (2, 2), (2, 2))
    check_exits_two_when("svd", "SVD did not converge", path, [], monkeypatch, capsys)


def test_certify_exits_two_when_eigh_does_not_converge(tmp_path, monkeypatch, capsys):
    # the support-angle search takes eigh only on blocks wider than 2: a degenerate
    # two-outcome Z at d = 3
    path = degenerate_file(tmp_path, 3, None, (2, 1))
    check_exits_two_when("eigh", "Eigenvalues did not converge", path, ["--restarts", "1"],
                         monkeypatch, capsys)


def test_selftest_fixture_passes_on_a_qutrit_with_a_wider_output(qutrit_file, capsys):
    assert main(["selftest", "--fixture", qutrit_file]) == 0
    out = capsys.readouterr().out
    assert "two_pictures: PASS" in out and "FAIL" not in out


def test_selftest_negative_fixture(broken_file, capsys):
    code = main(["selftest", "--fixture", broken_file])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_selftest_shipped_fixture_rejected(broken_file):
    # the negative fixture ships as harness.broken_instrument_json(), which
    # the broken_file fixture writes out; a file that is no valid instance is an input error
    assert main(["selftest", "--fixture", broken_file]) == 2


def test_usage_error_exits_two():
    assert main(["certify"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_imports_without_scipy():
    # the package needs numpy only; a fresh interpreter shows what importing it pulls in
    src = str(Path(etoff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import etoff.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.skipif(os.name != "posix", reason="a pipe without a reader fails with EPIPE on POSIX")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ["selftest"],
    ["bounds", "--c", "0.5", "--alpha", "0.3", "1", "--beta", "0.3", "1"],
    # one certificate, so that the output stays in the buffer until the summary is due
    ["sweep", "--dim", "2", "--samples", "1", "--seed", "1", "--restarts", "0", "--jobs", "1",
     "--relation", "Prop1", "--alpha", "1", "--beta", "1"],
], ids=lambda command: command[0])
def test_a_closed_output_pipe_exits_141_and_prints_nothing(command, unbuffered):
    # the reader of standard output has gone before the command writes: no input error, no
    # traceback at the interpreter's exit flush, and the status a shell shows for SIGPIPE
    src = str(Path(etoff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "import sys; from etoff.cli import main; sys.exit(main(sys.argv[1:]))"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-c", code, *command], stdout=write,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr.decode()) == (141, "")
