import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etoff
from etoff.bounds import TradeoffCertificate
from etoff.cli import main
from etoff.harness import (
    RunConfig,
    broken_instrument_json,
    instance_to_json,
    run_sweep,
    saturation_instance,
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
    assert got[0] == TradeoffCertificate.CSV_HEADER
    assert got[1].startswith("Prop3,2,1,1,")


def test_certify_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["certify", str(bad), "--relation", "Prop1", "--alpha", "1", "--beta", "1"])
    assert code == 2


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


def test_certify_restarts_require_seed(anchor_file, monkeypatch):
    monkeypatch.delenv("ETOFF_SEED", raising=False)
    code = main(
        ["certify", anchor_file, "--relation", "Prop3", "--alpha", "1", "--beta", "1",
         "--restarts", "2"]
    )
    assert code == 2


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
    assert path.read_text().splitlines() == [TradeoffCertificate.CSV_HEADER]
    assert "0 certificates" in capsys.readouterr().out


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
    assert rows[0] == TradeoffCertificate.CSV_HEADER
    assert len(rows) == 2  # header + one sample x one combination


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
    # without restarts only the two fixed corrections can win; the CSV header is unchanged
    base = ["sweep", "--dim", "2", "--samples", "2", "--seed", "8", "--iterations", "40"]
    out = tmp_path / "fixed.json"
    assert main(base + ["--restarts", "0", "--format", "json", "--out", str(out)]) == 0
    names = {cert["search"]["best_candidate"] for cert in json.loads(out.read_text())}
    assert names and names <= {"discard_flag", "reprepare"}
    out = tmp_path / "search.json"
    assert main(base + ["--restarts", "1", "--format", "json", "--out", str(out)]) == 0
    names = {cert["search"]["best_candidate"] for cert in json.loads(out.read_text())}
    assert "parametrized_restart_0" in names
    assert TradeoffCertificate.CSV_HEADER == (
        "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"
    )


def test_csv_round_trips_through_json(tmp_path):
    cfg = RunConfig(
        dim=2, samples=2, relations=("Prop1", "Prop3"), alphas=(0.5, 1.0),
        betas=(1.0,), seed=19, restarts=1, iterations=40, jobs=1,
    )
    certs, _ = run_sweep(cfg)
    for cert in certs:
        data = json.loads(json.dumps(cert.to_json_dict()))
        row = dict(zip(TradeoffCertificate.CSV_HEADER.split(","), cert.to_csv_row().split(",")))
        for key in ("relation", "alpha", "beta", "c", "noise", "disturbance", "margin"):
            assert data[key] == getattr(cert, key)
        assert data["bound"]["value"] == cert.bound.value
        assert float(row["bound"]) == pytest.approx(data["bound"]["value"], rel=1e-8)
        assert float(row["margin"]) == pytest.approx(data["margin"], rel=1e-8, abs=1e-15)
        assert row["passed"] == str(data["passed"]).lower()


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


def test_bounds_rejects_invalid_grid():
    assert main(["bounds", "--c", "0.0", "--alpha", "1", "--beta", "1"]) == 2
    assert main(["bounds", "--c", "0.5", "--alpha", "-1", "--beta", "1"]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_negative_fixture(broken_file, capsys):
    code = main(["selftest", "--fixture", broken_file])
    assert code == 1
    assert "validation error" in capsys.readouterr().out


def test_selftest_shipped_fixture_rejected(broken_file):
    # the negative fixture ships as harness.broken_instrument_json(), which
    # the broken_file fixture writes out
    assert main(["selftest", "--fixture", broken_file]) == 1


def test_usage_error_exits_two():
    assert main(["certify"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_imports_without_scipy():
    # the package needs numpy only; a fresh interpreter shows what importing it pulls in
    src = str(Path(etoff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import etoff.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
