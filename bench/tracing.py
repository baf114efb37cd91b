"""Span tracing for the etoff benchmark's traced run.

The tracer wraps the program's functions at the names the program calls
them through (a module attribute, or a method on a class), records one
span per call in flat arrays, and restores every original binding when
the run ends.  Nothing under ``src/`` knows it is being traced.

A span is (name, start, end, parent span, item id).  The item id is the
sweep sample index or the bounds batch the span belongs to.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array

# (owner, attribute, span name).  The owner is a module or a class
# ("module:Class"); the span name is "<layer>.<function>".  A layer is
# the module whose job the work is: the certificate dict round-trip is
# the harness's, although the methods live on a class in bounds.
# Several bindings of one function share one span name.
BINDINGS = (
    ("etoff.cli", "main", "cli.main"),
    ("etoff.harness", "run_sweep", "harness.run_sweep"),
    ("etoff.harness", "_sweep_task", "harness.task"),
    ("etoff.harness", "certificates_to_csv", "harness.certificates_to_csv"),
    ("etoff.harness", "tabulate_bounds", "harness.tabulate_bounds"),
    ("etoff.bounds:TradeoffCertificate", "to_json_dict", "harness.to_json_dict"),
    ("etoff.bounds:TradeoffCertificate", "from_json_dict", "harness.from_json_dict"),
    ("etoff.harness", "sample_instance", "quantum.sample_instance"),
    ("etoff.harness", "sample_random_observable", "quantum.sample_random_observable"),
    ("etoff.harness", "sample_random_instrument", "quantum.sample_random_instrument"),
    ("etoff.quantum:ProjectiveObservable", "__post_init__", "quantum.validate"),
    ("etoff.quantum:QuantumInstrument", "__post_init__", "quantum.validate"),
    ("etoff.quantum:Channel", "__post_init__", "quantum.validate"),
    ("etoff.noise_disturbance", "apply_cp", "quantum.apply_cp"),
    ("etoff.quantum", "apply_cp", "quantum.apply_cp"),
    ("etoff.noise_disturbance", "flag_apply", "quantum.flag_apply"),
    ("etoff.linalg", "as_matrix", "linalg.as_matrix"),
    ("etoff.quantum", "as_matrix", "linalg.as_matrix"),
    ("etoff.linalg", "eigh", "linalg.eigh"),
    ("etoff.linalg", "spectral_norm", "linalg.spectral_norm"),
    ("etoff.noise_disturbance", "conditional_entropy", "entropy.conditional_entropy"),
    ("etoff.entropy", "clean_probs", "entropy.clean_probs"),
    ("etoff.entropy:JointDistribution", "__post_init__", "entropy.joint_validate"),
    ("etoff.noise_disturbance", "standard_decision", "decision.standard_decision"),
    ("etoff.bounds", "noise", "noise_disturbance.noise"),
    ("etoff.bounds", "disturbance", "noise_disturbance.disturbance"),
    ("etoff.noise_disturbance", "reprepare_correction", "noise_disturbance.reprepare_correction"),
    ("etoff.noise_disturbance", "discard_flag_correction",
     "noise_disturbance.discard_flag_correction"),
    ("etoff.harness", "certify_grid", "bounds.certify_grid"),
    ("etoff.bounds", "overlap", "bounds.overlap"),
    ("etoff.bounds", "bbar_bound", "bounds.bbar_bound"),
    ("etoff.bounds", "mu_bounds", "bounds.mu_bounds"),
    ("etoff.harness", "mu_bounds", "bounds.mu_bounds"),
)

LAYERS = ("cli", "harness", "quantum", "linalg", "entropy", "decision",
          "noise_disturbance", "bounds")


class Tracer:
    """Records spans in flat arrays; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span_name: str, item_of=None, keep_result=None):
        """Return fn recording a span per call.

        ``item_of(args)`` sets the item id for the call and its children;
        ``keep_result(result)`` stores a summary of each result under the
        span name.
        """
        nid = self.name_id(span_name)
        clock = time.perf_counter
        start, end, name, parent, item, stack = (
            self.start, self.end, self.name, self.parent, self.item, self._stack
        )
        kept = self.results.setdefault(span_name, []) if keep_result else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_item = tracer.item_id
            if item_of is not None:
                tracer.item_id = item_of(args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                tracer.item_id = outer_item
            if kept is not None:
                kept.append(keep_result(result))
            return result

        return traced


def _task_item(args) -> int:
    """The sample index of a sweep task ((config, index),); -1 if its shape changed."""
    try:
        return int(args[0][1])
    except (IndexError, TypeError, ValueError):
        return -1


def _search_summary(result) -> dict:
    """What the search metrics need from a CorrectionSearchResult; missing fields read 0."""
    return {
        "evals": int(getattr(result, "iterations", 0)),
        "restarts": int(getattr(result, "restarts", 0)),
        "converged": bool(getattr(result, "converged", False)),
        "candidate": str(getattr(result, "best_candidate", "")),
    }


HOOKS = {
    "harness.task": {"item_of": _task_item},
    "noise_disturbance.disturbance": {"keep_result": _search_summary},
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def install(tracer: Tracer, bindings=BINDINGS):
    """Wrap every binding that exists; returns (restore list, absent names).

    A binding that a later version of the program no longer has is
    reported as absent, not an error.
    """
    restore = []
    absent = []
    for owner, attr, span_name in bindings:
        try:
            target = _resolve(owner)
        except (ImportError, AttributeError):
            absent.append(f"{owner}.{attr}")
            continue
        raw = target.__dict__.get(attr) if isinstance(target, type) else getattr(
            target, attr, None
        )
        if raw is None:
            absent.append(f"{owner}.{attr}")
            continue
        hooks = HOOKS.get(span_name, {})
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, span_name, **hooks))
        else:
            wrapped = tracer.wrap(raw, span_name, **hooks)
        setattr(target, attr, wrapped)
        restore.append((target, attr, raw))
    return restore, absent


def uninstall(restore) -> None:
    for target, attr, raw in reversed(restore):
        setattr(target, attr, raw)


# --- analysis ----------------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        reach = lo_p
        for i in sorted(kids, key=lambda k: start[k]):
            lo = max(start[i], reach)
            hi = min(end[i], hi_p)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def highest_percentile(n: int, beyond: int = 10):
    """Highest ladder percentile with at least ``beyond`` of n samples above it.

    None when even the median has fewer than ``beyond`` samples above it.
    """
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    table = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for n in tracer.names}
    for i, nid in enumerate(tracer.name):
        row = table[tracer.names[nid]]
        row["calls"] += 1
        row["incl_s"] += tracer.end[i] - tracer.start[i]
        row["self_s"] += selfs[i]
    return table


def durations(tracer: Tracer, span_name: str) -> list[float]:
    if span_name not in tracer.names:
        return []
    nid = tracer.names.index(span_name)
    return [
        tracer.end[i] - tracer.start[i] for i, k in enumerate(tracer.name) if k == nid
    ]
