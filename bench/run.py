"""Benchmark of the etoff command line; see METRICS.md for what it measures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-search-d2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh process with the BLAS thread budget pinned
to one thread per process; set-up time is measured on further fresh
processes.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the full record (provenance,
parameters, timing percentiles, per-span table) is printed on the line
before it and kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-search-d2", "sweep-fixed-d4", "bounds-grid")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4          # fresh processes timed for setup_s, besides the workload's own
DEADLINE_S = 170.0        # a run must end within 180 s


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def spawn(args, env, timeout: float) -> tuple[int, str]:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, ""
    return proc.returncode, out


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float):
    env = {**os.environ, **THREAD_PINS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    base = [sys.executable, str(HERE / "workload.py"), "--workload", name,
            "--seed", str(seed)]
    setups = []   # (seconds from spawn to ready, reference kernel seconds just after)
    if not trace:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            rc, out = spawn(base + ["--setup-only"], env, deadline - time.monotonic())
            probe = last_json(out)
            if rc != 0 or probe is None:
                return None
            setups.append((probe["ready_monotonic"] - t0, probe["reference_s"]))
    t0 = time.monotonic()
    rc, out = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], env,
                    deadline - time.monotonic())
    record = last_json(out)
    if rc != 0 or record is None:
        return None
    if not trace:
        setups.append((record["ready_monotonic"] - t0, record["reference_s"]))
        record["setup_s_samples"] = [s for s, _ in setups]
        record["raw_setup_s"] = statistics.median(s for s, _ in setups)
        # in reference-kernel units, like throughput_per_s (see METRICS.md)
        record["setup_s"] = statistics.median(s / ref for s, ref in setups) * REFERENCE_S
    record["commit"] = commit()
    return record


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(record: dict, units: dict[str, str]) -> dict:
    values = record["metrics"] if record["trace"] else record
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def describe(record: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines, with the workload-specific names of the metrics."""
    name, item = record["workload"], record["item"]
    head = f"{name} seed={record['seed']} trace={record['trace']}:"
    lines = [f"{head} attempted={record['attempted']} failed={record['failed']}"]
    if record["trace"]:
        lines += [f"  {k} = {record['metrics'][k]:.6g} {u}" for k, u in units.items()]
        return lines
    quality = "d_upper_mean_nats" if item == "sample" else "bbar_mean_nats"
    lines += [
        f"  {item}s_per_s = {record['throughput_per_s']:.6g} 1/s (at reference host speed; "
        f"wall clock {record['raw_throughput_per_s']:.6g} 1/s)",
        f"  {quality} = {record['quality_nats']:.10g} nats",
        f"  peak_rss_mb = {record['peak_rss_mb']:.6g} MB",
        f"  setup_s = {record['setup_s']:.6g} s (at reference host speed; "
        f"wall clock {record['raw_setup_s']:.6g} s)",
    ]
    if item == "sample":
        lines.append(f"  certs_failed = {record['certs_failed']} count")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "etoff" / "__init__.py").is_file():
        print(f"error: no etoff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = metric_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        if record is None:
            print(f"error: workload {name} did not complete", file=sys.stderr)
            return 1
        missing = set(units) - set(record["metrics"] if args.trace else record)
        if missing:
            print(f"error: {name} did not report {sorted(missing)}", file=sys.stderr)
            return 1
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(describe(record, units)))
        results[name] = result_line(record, units)
    if len(names) == 1:
        print(json.dumps(record))
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
