"""Reproducible sweep and self-test machinery behind the command line.

A sweep task is a fixed chunk of ``CHUNK`` consecutive samples, certified
in one lockstep computation.  Each sample derives its generators from
(master seed, sample index), so results are deterministic per fixed
chunk, whatever the worker count.  The chunks are split into one
contiguous share per job: the calling process certifies the first share
while one helper process per further share certifies the rest, and the
shares are joined in sample order, so two runs with the same seed produce
byte-identical output at any worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, fields
from multiprocessing import Pipe, Process

import numpy as np

from . import bounds, quantum
from .bounds import RELATIONS, TradeoffCertificate, certify, certify_grid, mu_bounds
from .decision import fano_upper_bounds, lower_bounds, standard_decision
from .entropy import EntropyOrder, check_table, conditional_entropy
from .linalg import dagger
from .noise_disturbance import SearchConfig, reprepare_correction, two_picture_gap
from .quantum import (
    instrument_from_json,
    instrument_to_json,
    json_entry,
    luders_instrument,
    observable_from_json,
    observable_to_json,
    sample_random_instrument,
    sample_random_observable,
)

SEED_ENV_VAR = "ETOFF_SEED"

DEFAULT_ALPHAS = (0.3, 0.5, 1.0, 1.5, 2.0)


@dataclass
class RunConfig:
    """Parameters of one randomized sweep; also the config-file schema."""

    dim: int = 2
    samples: int = 100
    relations: tuple[str, ...] = RELATIONS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    betas: tuple[float, ...] = DEFAULT_ALPHAS
    seed: int | None = None
    restarts: int = 1
    iterations: int = 150
    jobs: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("relations", "alphas", "betas"):  # the command line passes lists
            setattr(self, name, tuple(getattr(self, name)))
        for name in ("dim", "samples", "restarts", "iterations", "jobs", "seed"):
            value = getattr(self, name)
            if value is None and name in ("jobs", "seed"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):  # bool subclasses int
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alphas", "betas"):
            for v in getattr(self, name):
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValueError(f"{name} must be finite numbers, got {v!r}")
        if not isinstance(self.out, (str, type(None))):
            raise ValueError(f"out must be a file path, got {self.out!r}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not self.relations or not self.alphas or not self.betas:
            raise ValueError("relations, alphas and betas must be non-empty")
        for rel in self.relations:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}; known: {RELATIONS}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        SearchConfig(self.restarts, self.iterations)  # rejects a bad search budget
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"sweep config {path} holds a {type(data).__name__}, not an object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"sweep config {path} has unknown keys {unknown}")
        for key in ("relations", "alphas", "betas"):
            if key in data:
                json_entry(data, key, list, f"sweep config {path}")
        return cls(**{**data, **overrides})


# --- instance files -------------------------------------------------------------


def instance_to_json(x_obs, z_obs, inst) -> dict:
    return {
        "X": observable_to_json(x_obs),
        "Z": observable_to_json(z_obs),
        "M": instrument_to_json(inst),
    }


def instance_from_json(data: dict):
    x, z, m = (json_entry(data, key, dict, "instance file") for key in ("X", "Z", "M"))
    x_obs, z_obs, inst = observable_from_json(x), observable_from_json(z), instrument_from_json(m)
    if not x_obs.dim == z_obs.dim == inst.dim_in:
        raise ValueError(f"instance dimensions differ: X has dim {x_obs.dim}, Z has dim "
                         f"{z_obs.dim}, M has dim_in {inst.dim_in}")
    return x_obs, z_obs, inst


def load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


# --- canonical instances ----------------------------------------------------------


def conjugate_qubit_pair():
    """Computational-basis observable and its Hadamard conjugate."""
    z_obs = quantum.basis_observable(2)
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
    x_obs = quantum.observable_from_basis(h)
    return x_obs, z_obs


def saturation_instance():
    """Qubit anchor: projective measurement of Z, probed against (X, Z).

    The noise against the conjugate X is maximal (ln 2), repreparation
    removes the disturbance against Z entirely, and the conjugate overlap
    1/sqrt(2) makes the order-1 conjugacy bound ln 2, so the margin is
    zero.
    """
    x_obs, z_obs = conjugate_qubit_pair()
    inst = luders_instrument(z_obs)
    return x_obs, z_obs, inst


def sample_instance(dim: int, seed) -> tuple:
    """One random (X, Z, M) draw for the certification sweep."""
    rng = np.random.default_rng(seed)
    x_obs = sample_random_observable(dim, None, rng)
    z_obs = sample_random_observable(dim, None, rng)
    inst = sample_random_instrument(dim, dim, dim, 2, rng)
    return x_obs, z_obs, inst


# --- sweep ------------------------------------------------------------------------


CHUNK = 8  # samples per sweep task; fixed, so that chunks do not depend on the worker count


def _sweep_task(args) -> list[TradeoffCertificate]:
    cfg, indices, grid = args  # the RunConfig and its grid, both checked once in run_sweep
    chunk = [sample_instance(cfg.dim, np.random.SeedSequence([cfg.seed, i])) for i in indices]
    seeds = [int(np.random.SeedSequence([cfg.seed, i, 1]).generate_state(1)[0]) for i in indices]
    searches = [SearchConfig(cfg.restarts, cfg.iterations, seed) for seed in seeds]
    return certify_grid(chunk, grid, searches, seed=cfg.seed)


def _certify_share(tasks) -> list[TradeoffCertificate]:
    return [cert for task in tasks for cert in _sweep_task(task)]


def _helper(tasks, conn) -> None:
    """Certify a share in a helper process; send (ok, certificates or exception)."""
    try:
        result = (True, _certify_share(tasks))
    except Exception as exc:  # the parent raises it again
        result = (False, exc)
    conn.send(result)
    conn.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg: RunConfig):
    """Run the sweep; returns (certificates, summary dict).

    Each task certifies one chunk of up to CHUNK samples in one
    ``certify_grid`` call.  The tasks are cut into ``jobs`` contiguous
    shares, jobs being ``cfg.jobs`` (by default the CPUs this process may
    use) but at most one per task.  This process certifies share 0 while
    one helper process per further share certifies it and sends the
    certificates back through its own pipe; one job or one chunk starts no
    helper.  An exception in a helper is raised again here, a helper that
    dies without a result raises RuntimeError, and every helper has ended
    when run_sweep returns or raises.  Certificates come back ordered by
    (sample index, relation, alpha, beta) regardless of worker count.  The
    admissible grid is the same for every sample, so it is checked once.
    """
    if cfg.seed is None:
        raise ValueError("a randomized sweep needs a seed")
    grid, skipped = bounds.admissible_grid(cfg.relations, cfg.alphas, cfg.betas, cfg.dim)
    tasks = [(cfg, range(start, min(start + CHUNK, cfg.samples)), grid)
             for start in range(0, cfg.samples, CHUNK)]
    jobs = min(cfg.jobs or _usable_cpus(), len(tasks))
    shares = [tasks[len(tasks) * k // jobs:len(tasks) * (k + 1) // jobs] for k in range(jobs)]
    helpers = []
    try:
        for share in shares[1:]:
            receiver, sender = Pipe(duplex=False)
            helper = Process(target=_helper, args=(share, sender), daemon=True)
            helper.start()
            helpers.append((helper, receiver))
            sender.close()  # so that a helper dying unheard reads as EOF, not a hang
        certs = _certify_share(shares[0])
        for helper, receiver in helpers:
            try:
                ok, result = receiver.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(f"a sweep helper process exited with code "
                                   f"{helper.exitcode} before sending its certificates") from None
            if not ok:
                raise result
            certs += result
    finally:
        for helper, receiver in helpers:
            receiver.close()
            if helper.is_alive():
                helper.terminate()
            helper.join()
    summary = {
        "samples": cfg.samples,
        "dim": cfg.dim,
        "certificates": len(certs),
        "failures": sum(1 for c in certs if not c.passed),
        "inadmissible_skipped": skipped * cfg.samples,
        "min_margin": min((c.margin for c in certs), default=float("nan")),
        "seed": cfg.seed,
    }
    return certs, summary


def certificates_to_csv(certs) -> str:
    lines = [TradeoffCertificate.CSV_HEADER]
    lines.extend(c.to_csv_row() for c in certs)
    return "\n".join(lines) + "\n"


def certificates_to_json(certs) -> str:
    return json.dumps([c.to_json_dict() for c in certs], indent=2) + "\n"


# --- bound tabulation ---------------------------------------------------------------


BOUNDS_CSV_HEADER = (
    "c,alpha,beta,b_tsallis,b_renyi,mu_tsallis,mu_renyi,"
    "argmin_theta_tsallis,argmin_theta_renyi"
)


def tabulate_bounds(c_grid, alphas, betas) -> str:
    """CSV table of the minimised and conjugacy bounds over a parameter grid.

    One ``bounds.bbar_bound`` call covers both families, every pair of
    orders and every c; its rows equal those of one table per c and pair of
    orders.  The conjugacy columns are populated
    only where 1/alpha + 1/beta = 2.  ``bounds.bbar_bound`` rejects any c
    or order outside its domain.
    """
    num = "{:.9g}".format
    lines = [BOUNDS_CSV_HEADER]
    pairs = itertools.product(("tsallis", "renyi"), alphas, betas)
    for c, bbar in zip(c_grid, bounds.bbar_bound(c_grid, pairs)):
        for alpha in alphas:
            for beta in betas:
                bt, br = bbar["tsallis", alpha, beta], bbar["renyi", alpha, beta]
                mu_t = mu_r = ""
                if bounds.conjugate_orders(alpha, beta):
                    mt, mr = mu_bounds(c, alpha, beta)
                    mu_t, mu_r = num(mt.value), num(mr.value)
                lines.append(
                    ",".join(
                        [
                            num(c), num(alpha), num(beta),
                            num(bt.value), num(br.value), mu_t, mu_r,
                            num(bt.argmin_theta), num(br.argmin_theta),
                        ]
                    )
                )
    return "\n".join(lines) + "\n"


# --- self test ------------------------------------------------------------------------


def broken_instrument_json() -> dict:
    """Negative fixture: a two-outcome 'instrument' violating completeness."""
    eye = np.eye(2, dtype=complex)
    inst = {
        "dim_in": 2,
        "dim_out": 2,
        "branches": [
            {"label": "m0", "kraus": [quantum.matrix_to_json(eye)]},
            {"label": "m1", "kraus": [quantum.matrix_to_json(0.5 * eye)]},
        ],
    }
    return {
        "X": observable_to_json(quantum.basis_observable(2)),
        "Z": observable_to_json(quantum.basis_observable(2)),
        "M": inst,
    }


SELFTEST_SEED = 20240901


def two_picture_check(x_obs, z_obs, inst, seed: int = SELFTEST_SEED) -> tuple[bool, str]:
    """(ok, detail) of ``two_picture_gap`` under two corrections, ok within 1e-9.

    The corrections are the repreparation and random Naimark POVMs
    E_z'^(m) = A_z'^(m)† A_z'^(m), A^(m) the first d_out columns of its own
    Haar unitary from ``seed``: they have no symmetry that could hide a
    transposed table, and no outcome shares another's to hide a mix-up.
    """
    rng, d = np.random.default_rng(seed), inst.dim_out
    a = np.array([quantum.sample_haar_unitary(len(z_obs.projectors) * d, rng)[:, :d]
                  for _ in inst.labels]).reshape(inst.n_outcomes, -1, d, d)
    gap = max(two_picture_gap(x_obs, z_obs, inst, povm)
              for povm in (reprepare_correction(z_obs, inst), dagger(a) @ a))
    return gap <= 1e-9, f"max gap={gap:.3e}"


def _random_joint(rng, nx: int, ny: int) -> np.ndarray:
    t = rng.random((nx, ny))
    return check_table(t / t.sum())


def selftest_checks(seed: int = SELFTEST_SEED):
    """Run the built-in consistency checks; yields (name, ok, detail)."""
    results = []

    # saturation anchor
    x_obs, z_obs, inst = saturation_instance()
    cert = certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3", SearchConfig(restarts=0, seed=seed))
    results.append(
        (
            "saturation_margin",
            abs(cert.margin) <= 1e-7,
            f"margin={cert.margin:.3e}",
        )
    )

    # both pictures of the noise and disturbance tables, on the anchor and a random qutrit
    results.append(("two_pictures_qubit", *two_picture_check(x_obs, z_obs, inst, seed)))
    qutrit = sample_instance(3, np.random.SeedSequence([seed, 3]))
    results.append(("two_pictures_qutrit", *two_picture_check(*qutrit, seed)))

    # sandwich of conditional entropies between error-probability bounds
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        j = _random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        p_error = standard_decision(j)
        for alpha in (0.5, 1.0, 2.0):
            for family in ("tsallis", "renyi"):
                ent = conditional_entropy(j, EntropyOrder(alpha, family))
                for _, lo in lower_bounds(j, alpha, family):
                    worst = max(worst, lo - ent)
                for _, hi in fano_upper_bounds(j, alpha, family, p_error):
                    worst = max(worst, ent - hi)
    results.append(("entropy_error_sandwich", worst <= 1e-9, f"worst violation={worst:.3e}"))

    # order -> 1 limit consistency
    worst_limit = 0.0
    for _ in range(100):
        j = _random_joint(rng, 3, 3)
        h1 = conditional_entropy(j, EntropyOrder.shannon())
        for a in (1.0 - 1e-8, 1.0 + 1e-8):
            for family in ("tsallis", "renyi"):
                gap = conditional_entropy(j, EntropyOrder(a, family)) - h1
                worst_limit = max(worst_limit, abs(gap))
    results.append(("shannon_limit", worst_limit < 1e-5, f"worst gap={worst_limit:.3e}"))

    # the shipped negative fixture must be rejected by validation
    try:
        instance_from_json(broken_instrument_json())
    except ValueError as exc:
        results.append(("negative_fixture_rejected", True, f"rejected: {exc}"))
    else:
        results.append(("negative_fixture_rejected", False, "broken instrument accepted"))

    return results
