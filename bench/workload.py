"""One workload process of the etoff benchmark.

Started by run.py with the thread budget pinned in its environment and
``src`` on PYTHONPATH.  It imports etoff, builds the workload's inputs
from the seed, then drives the real command line (``etoff.cli.main``)
batch after batch in a closed loop for the given number of seconds.
Outputs are checked after the clock stops.  The last line of standard
output is one JSON record for run.py.

With ``--setup-only`` it stops once the inputs are built and reports the
moment it got there, which run.py turns into a set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

SWEEP_ORDERS = (0.3, 0.5, 1.0, 1.5, 2.0)      # the sweep's default grid
BOUNDS_ORDERS = (0.3, 0.5, 0.75, 1.0, 1.5, 2.0)
BOUNDS_C_RANGE = (0.3, 0.995)
WARMUP_BATCH = 9999   # batch index used once before the clock starts
REFERENCE_ITERATIONS = 1500   # about 50 ms of reference work on the reference host
REFERENCE_S = 0.05            # the reference kernel's time on the reference host
CALL_COUNT_NAMES = {"bounds.bbar_bound": "bounds.bbar_calls_per_sample"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Sweep:
    """`etoff sweep` over the default grid, `samples` samples per call."""

    item = "sample"

    def __init__(self, name, seed, dim, samples, jobs, extra, quality_batches):
        self.name, self.seed, self.dim = name, seed, dim
        self.items_per_batch = samples
        self.jobs = jobs
        self.extra = tuple(extra)
        self.quality_batches = quality_batches

    def batch_seed(self, b: int) -> int:
        return self.seed * 10_000 + b

    def argv(self, b: int, jobs: int, out: str) -> list[str]:
        return [
            "sweep", "--dim", str(self.dim), "--samples", str(self.items_per_batch),
            "--seed", str(self.batch_seed(b)), *self.extra, "--jobs", str(jobs),
            "--out", out, "--format", "csv",
        ]

    def check(self, b: int, text: str) -> checks.CheckResult:
        return checks.check_sweep_csv(
            text, self.dim, self.items_per_batch, SWEEP_ORDERS, SWEEP_ORDERS
        )

    def params(self) -> dict:
        return {
            "command": "etoff " + " ".join(self.argv(0, self.jobs, "<out>")),
            "dim": self.dim, "samples_per_batch": self.items_per_batch,
            "jobs": self.jobs, "orders": SWEEP_ORDERS,
            "batch_seed": "seed * 10000 + batch",
            "quality_samples": self.quality_batches * self.items_per_batch,
        }


class BoundsGrid:
    """`etoff bounds` over fresh c values per call, crossed with every order pair."""

    item = "row"
    jobs = 1

    def __init__(self, name, seed, c_per_batch, quality_batches):
        self.name, self.seed = name, seed
        self.c_per_batch = c_per_batch
        self.items_per_batch = c_per_batch * len(BOUNDS_ORDERS) ** 2
        self.quality_batches = quality_batches

    def c_values(self, b: int) -> list[float]:
        """One c per stratum of the range, so every batch spans all of it.

        Each stratum is cut again into `quality_batches` slots.  Batch b
        draws in slot (b + k) mod quality_batches of stratum k, so every
        batch mixes low and high slots and costs about the same, and the
        quality batches together hold one c in each slot of the range.
        """
        rng = random.Random(self.seed * 10_000 + b)
        lo, hi = BOUNDS_C_RANGE
        n, q = self.c_per_batch, self.quality_batches
        return [lo + (hi - lo) * (k + ((b + k) % q + rng.random()) / q) / n
                for k in range(n)]

    def argv(self, b: int, jobs: int, out: str) -> list[str]:
        orders = [repr(a) for a in BOUNDS_ORDERS]
        return [
            "bounds", "--c", *[repr(c) for c in self.c_values(b)],
            "--alpha", *orders, "--beta", *orders, "--out", out,
        ]

    def check(self, b: int, text: str) -> checks.CheckResult:
        return checks.check_bounds_csv(text, self.c_values(b), BOUNDS_ORDERS, BOUNDS_ORDERS)

    def params(self) -> dict:
        return {
            "command": "etoff bounds --c <c values> --alpha <orders> --beta <orders>",
            "c_per_batch": self.c_per_batch, "c_range": BOUNDS_C_RANGE,
            "c_rule": f"stratum k, slot (batch + k) % {self.quality_batches}, "
                      "drawn by Random(seed * 10000 + batch)",
            "orders": BOUNDS_ORDERS, "rows_per_batch": self.items_per_batch,
            "quality_rows": self.quality_batches * self.items_per_batch,
        }


def make_workload(name: str, seed: int):
    if name == "sweep-search-d2":
        return Sweep(name, seed, dim=2, samples=2, jobs=1,
                     extra=("--restarts", "1", "--iterations", "150"), quality_batches=16)
    if name == "sweep-fixed-d4":
        return Sweep(name, seed, dim=4, samples=16, jobs=nproc(),
                     extra=("--restarts", "0"), quality_batches=4)
    if name == "bounds-grid":
        return BoundsGrid(name, seed, c_per_batch=8, quality_batches=4)
    raise ValueError(f"unknown workload {name!r}")


class Phase:
    """Batches run back to back; durations time only the `cli.main` call.

    The reference kernel runs before the first batch and after every
    batch, so each batch is bracketed by two readings of the host's speed.
    """

    def __init__(self, label: str, jobs: int):
        self.label, self.jobs = label, jobs
        self.durations: list[float] = []
        self.references: list[float] = []
        self.outputs: list[str | None] = []

    def run(self, wl, cli, seconds: float, out: str, first=0, count=None, tracer=None):
        """Run batches first, first+1, ... until `seconds` pass or `count` are done."""
        deadline = time.perf_counter() + seconds
        self.references.append(reference_seconds())
        b = first
        while True:
            argv = wl.argv(b, self.jobs, out)
            if tracer is not None:
                tracer.item_id = b
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            t1 = time.perf_counter()
            self.durations.append(t1 - t0)
            self.references.append(reference_seconds())
            self.outputs.append(_read(out) if rc == 0 else None)
            if rc != 0:
                print(f"{wl.name}: batch {b} exited {rc}: {sink.getvalue()[-300:]}",
                      file=sys.stderr)
            b += 1
            if count is not None and b - first >= count:
                break
            if count is None and t1 >= deadline:
                break

    def host_units(self) -> list[float]:
        """Each batch time over the mean of the two reference readings around it."""
        refs = self.references
        return [d / ((refs[i] + refs[i + 1]) / 2) for i, d in enumerate(self.durations)]

    def per_s(self, items_per_batch: int) -> float:
        """Items per second on a host that runs the reference kernel in REFERENCE_S.

        The host's speed wanders by tens of percent over minutes, as other
        tenants come and go, and it slows the program and the reference
        kernel alike.  Timing each batch in units of the kernel measured
        next to it removes most of that drift; a change to the program
        moves this figure exactly as it moves the raw one.
        """
        return items_per_batch / (statistics.median(self.host_units()) * REFERENCE_S)

    def raw_per_s(self, items_per_batch: int) -> float:
        """Items per second at the median wall-clock batch time."""
        return items_per_batch / statistics.median(self.durations)


def reference_seconds() -> float:
    """Time a fixed piece of work shaped like the program's inner loops.

    Small dense eigendecompositions, an entropy of the result and scalar
    float math, in a Python loop.  It uses numpy only, never etoff, so no
    change to the program changes it.  The work is done in three equal
    parts and the reading is three times the fastest part, which drops a
    one-off stall (a collection, a preemption) but keeps the host's speed.
    numpy is imported here, not at the top, so that run.py can import
    this module without loading numpy.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a @ a.conj().T
    acc = 0.0
    parts = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(REFERENCE_ITERATIONS // 3):
            _, v = np.linalg.eigh(h)
            p = np.abs(v[:, i % 4]) ** 2
            p = p[p > 0]
            acc -= float(np.sum(p * np.log(p)))
            acc += sum(math.cos(k * 0.1) ** 2 for k in range(20))
        parts.append(time.perf_counter() - t0)
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return 3 * min(parts)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def check_outputs(wl, outputs) -> checks.CheckResult:
    """Check batches 0, 1, ... of a phase; a missing output fails its batch."""
    total = checks.CheckResult(attempted=0)
    for b, text in enumerate(outputs):
        if text is None:
            total.attempted += wl.items_per_batch
            total.failed += wl.items_per_batch
            total.fail(f"batch {b}: no output")
            continue
        r = wl.check(b, text)
        total.attempted += r.attempted
        total.failed += r.failed
        total.certs_failed += r.certs_failed
        total.values.extend(r.values)
        total.problems.extend(f"batch {b}: {p}" for p in r.problems[:3])
    return total


def timing_summary(durations) -> dict:
    ms = [d * 1e3 for d in durations]
    p = tracing.highest_percentile(len(ms))
    return {
        "batches": len(ms),
        "batch_ms": [round(x, 3) for x in ms],
        "batch_ms_p50": statistics.median(ms),
        "batch_ms_high_percentile": p,
        "batch_ms_high": None if p is None else tracing.percentile(ms, p),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# --- runs ------------------------------------------------------------------------


def run_untraced(wl, cli, seconds: float, out: str) -> dict:
    main = Phase("timed", wl.jobs)
    main.run(wl, cli, seconds, out)
    outputs = list(main.outputs)
    extra_batches = max(0, wl.quality_batches - len(outputs))
    if extra_batches:
        # a slower program still reports quality over the same inputs
        tail = Phase("quality", wl.jobs)
        tail.run(wl, cli, 0.0, out, first=len(outputs), count=extra_batches)
        outputs += tail.outputs
    result = check_outputs(wl, outputs)
    quality = check_outputs(wl, outputs[: wl.quality_batches])
    record = {
        "throughput_per_s": main.per_s(wl.items_per_batch),
        "raw_throughput_per_s": main.raw_per_s(wl.items_per_batch),
        "reference_ms": [round(r * 1e3, 3) for r in main.references],
        "quality_nats": statistics.fmean(quality.values) if quality.values else 0.0,
        **timing_summary(main.durations),
    }
    if wl.jobs > 1:
        # the determinism contract: one worker and many give the same bytes
        serial = Phase("serial", 1)
        serial.run(wl, cli, 0.0, out, count=1)
        same = serial.outputs[0] is not None and serial.outputs[0] == outputs[0]
        record["jobs1_csv_identical"] = same
        if not same:
            result.failed += wl.items_per_batch
            result.fail(f"batch 0: CSV at --jobs 1 differs from --jobs {wl.jobs}")
        result.attempted += wl.items_per_batch
    record["check"] = result
    record["certs_failed"] = result.certs_failed
    return record


def run_traced(wl, cli, seconds: float, out: str) -> dict:
    """Untraced and traced jobs=1 phases, plus an untraced jobs=nproc phase."""
    phases = 3 if wl.jobs > 1 else 2
    share = seconds / phases
    plain = Phase("untraced_jobs1", 1)
    plain.run(wl, cli, share, out)
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer)
    traced = Phase("traced_jobs1", 1)
    try:
        traced.run(wl, cli, share, out, tracer=tracer)
    finally:
        tracing.uninstall(restore)
    wide = None
    if wl.jobs > 1:
        wide = Phase(f"untraced_jobs{wl.jobs}", wl.jobs)
        wide.run(wl, cli, share, out)

    result = check_outputs(wl, plain.outputs)
    for phase in (traced, wide):
        if phase is None:
            continue
        r = check_outputs(wl, phase.outputs)
        result.attempted += r.attempted
        result.failed += r.failed
        result.problems += r.problems
        for b, (mine, ref) in enumerate(zip(phase.outputs, plain.outputs)):
            if mine is not None and mine != ref:
                result.failed += wl.items_per_batch
                result.fail(f"batch {b}: {phase.label} CSV differs from untraced jobs=1")

    items = len(traced.durations) * wl.items_per_batch
    table = tracing.span_table(tracer)
    metrics, task_summary = layer_metrics(tracer, table, items)
    pairs = list(zip(traced.host_units(), plain.host_units()))
    metrics["trace.overhead_pct"] = (statistics.median(t / u for t, u in pairs) - 1.0) * 100
    metrics["trace.spans_per_sample"] = len(tracer.start) / items
    metrics["harness.parallel_efficiency"] = (
        wide.per_s(wl.items_per_batch) / (wl.jobs * plain.per_s(wl.items_per_batch))
        if wide is not None else 0.0
    )
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json"
    write_spans(tracer, spans_file)
    return {
        "metrics": metrics,
        "absent_bindings": absent,
        "phases": {
            p.label: {"per_s": p.per_s(wl.items_per_batch),
                      "raw_per_s": p.raw_per_s(wl.items_per_batch),
                      "reference_ms": [round(r * 1e3, 3) for r in p.references],
                      **timing_summary(p.durations)}
            for p in (plain, traced, wide) if p is not None
        },
        "traced_items": items,
        **task_summary,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "span_table": table,
        "check": result,
    }


def layer_metrics(tracer, table: dict, items: int):
    """The per-layer metrics, per item of the workload (sample or row).

    A metric whose spans never ran, because the workload does not reach
    that layer or a later program no longer has the binding, reads 0.
    Also returns the task count and the percentile behind task_ms_high.
    """

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def incl_ms(*names):
        return sum(table.get(n, {}).get("incl_s", 0.0) for n in names) * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, row in table.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    total_s = sum(layer_self.values())
    for layer, s in layer_self.items():
        m[f"{layer}.self_ms_per_sample"] = s * 1e3 / items
    for name in sorted({b[2] for b in tracing.BINDINGS}):
        m[CALL_COUNT_NAMES.get(name, f"{name}_calls_per_sample")] = calls(name) / items

    searches = [r for r in tracer.results.get("noise_disturbance.disturbance", [])
                if r["restarts"] > 0]
    evals = sum(r["evals"] for r in searches)
    fixed = ("noise_disturbance.reprepare_correction",
             "noise_disturbance.discard_flag_correction")
    search_ms = incl_ms("noise_disturbance.disturbance") - incl_ms(*fixed)
    m["noise_disturbance.us_per_eval"] = ratio(search_ms * 1e3, evals)
    m["noise_disturbance.search_evals_per_call"] = ratio(evals, len(searches))
    m["noise_disturbance.search_win_ratio"] = ratio(
        sum(r["candidate"].startswith("parametrized") for r in searches), len(searches))
    m["noise_disturbance.converged_ratio"] = ratio(
        sum(r["converged"] for r in searches), len(searches))
    m["noise_disturbance.fixed_corrections_ms"] = incl_ms(*fixed) / items
    m["noise_disturbance.noise_ms"] = incl_ms("noise_disturbance.noise") / items
    m["noise_disturbance.disturbance_ms"] = incl_ms("noise_disturbance.disturbance") / items
    m["bounds.overlap_ms"] = incl_ms("bounds.overlap") / items
    m["bounds.bbar_bound_ms"] = ratio(incl_ms("bounds.bbar_bound"), calls("bounds.bbar_bound"))
    m["bounds.self_share_pct"] = ratio(layer_self["bounds"], total_s) * 100
    m["quantum.sample_instance_ms"] = incl_ms("quantum.sample_instance") / items
    m["harness.serialise_ms_per_sample"] = incl_ms(
        "harness.to_json_dict", "harness.from_json_dict", "harness.certificates_to_csv"
    ) / items
    task_ms = [d * 1e3 for d in tracing.durations(tracer, "harness.task")]
    p = tracing.highest_percentile(len(task_ms))
    m["harness.task_ms_p50"] = statistics.median(task_ms) if task_ms else 0.0
    m["harness.task_ms_high"] = tracing.percentile(task_ms, p) if p is not None else 0.0
    return m, {"tasks": len(task_ms), "task_ms_high_percentile": p}


def write_spans(tracer, path: Path) -> None:
    """All spans as one JSON document of parallel columns."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "names": tracer.names,
                "columns": ["name", "start_s", "end_s", "parent", "item"],
                "name": tracer.name.tolist(),
                "start_s": [round(t, 7) for t in tracer.start],
                "end_s": [round(t, 7) for t in tracer.end],
                "parent": tracer.parent.tolist(),
                "item": tracer.item.tolist(),
            },
            fh,
        )


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from etoff import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"etoff was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    inputs = [wl.argv(b, wl.jobs, "") for b in range(wl.quality_batches)]
    ready = time.monotonic()
    reference = reference_seconds()
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready, "reference_s": reference}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    out = str(OUT_DIR / f"{wl.name}-{os.getpid()}.csv")
    try:
        Phase("warmup", wl.jobs).run(wl, cli, 0.0, out, first=WARMUP_BATCH, count=1)
        if args.trace:
            record = run_traced(wl, cli, args.seconds, out)
        else:
            record = run_untraced(wl, cli, args.seconds, out)
            record["peak_rss_mb"] = peak_rss_mb()
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
    check = record.pop("check")
    record.update(
        workload=wl.name, item=wl.item, seed=args.seed, seconds=args.seconds,
        trace=args.trace, params=wl.params(), ready_monotonic=ready, reference_s=reference,
        attempted=check.attempted, failed=check.failed, problems=check.problems,
        input_batches_built=len(inputs), **provenance(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
