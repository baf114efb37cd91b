"""Reproducible sweep and self-test machinery behind the command line.

Every randomized task derives its generator from (master seed, sample
index), so results are independent of worker count and can be merged in
sample order; two runs with the same seed produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import bounds, quantum
from .bounds import RELATIONS, TradeoffCertificate, certify, certify_grid, mu_bounds
from .decision import fano_upper_bounds, lower_bounds, standard_decision
from .entropy import (
    JointDistribution,
    cond_renyi,
    cond_shannon,
    cond_tsallis_second,
)
from .noise_disturbance import SearchConfig, reprepare_correction, ricochet_oracle
from .quantum import (
    instrument_from_json,
    instrument_to_json,
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

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
        return cls(**_normalise_config(merged))


def _normalise_config(data: dict) -> dict:
    out = dict(data)
    for key in ("relations", "alphas", "betas"):
        if key in out and out[key] is not None:
            out[key] = tuple(out[key])
    return out


# --- instance files -------------------------------------------------------------


def instance_to_json(x_obs, z_obs, inst) -> dict:
    return {
        "X": observable_to_json(x_obs),
        "Z": observable_to_json(z_obs),
        "M": instrument_to_json(inst),
    }


def instance_from_json(data: dict):
    for key in ("X", "Z", "M"):
        if key not in data:
            raise ValueError(f"instance file is missing the {key!r} entry")
    return (
        observable_from_json(data["X"]),
        observable_from_json(data["Z"]),
        instrument_from_json(data["M"]),
    )


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


def _sweep_task(args) -> tuple[list[TradeoffCertificate], int]:
    cfg_dict, index = args
    cfg = RunConfig(**_normalise_config(cfg_dict))
    sample_seed = np.random.SeedSequence([cfg.seed, index])
    x_obs, z_obs, inst = sample_instance(cfg.dim, sample_seed)
    search = SearchConfig(
        restarts=cfg.restarts,
        iterations=cfg.iterations,
        seed=int(np.random.SeedSequence([cfg.seed, index, 1]).generate_state(1)[0]),
    )
    return certify_grid(
        x_obs, z_obs, inst, cfg.relations, cfg.alphas, cfg.betas, search, seed=cfg.seed
    )


def run_sweep(cfg: RunConfig):
    """Run the sweep; returns (certificates, summary dict).

    Certificates come back ordered by (sample index, relation, alpha,
    beta) regardless of worker count.
    """
    if cfg.seed is None:
        raise ValueError("a randomized sweep needs a seed")
    tasks = [(cfg.__dict__.copy(), i) for i in range(cfg.samples)]
    jobs = cfg.jobs or os.cpu_count() or 1
    if jobs > 1 and cfg.samples > 1:
        with Pool(processes=min(jobs, cfg.samples)) as pool:
            results = pool.map(_sweep_task, tasks)
    else:
        results = [_sweep_task(t) for t in tasks]
    certs = [cert for sample_certs, _ in results for cert in sample_certs]
    summary = {
        "samples": cfg.samples,
        "dim": cfg.dim,
        "certificates": len(certs),
        "failures": sum(1 for c in certs if not c.passed),
        "inadmissible_skipped": sum(skipped for _, skipped in results),
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

    The conjugacy columns are populated only where 1/alpha + 1/beta = 2.
    """
    num = "{:.9g}".format
    for c in c_grid:
        if not 0.0 < c <= 1.0:
            raise ValueError(f"overlap characteristic must lie in (0, 1], got {c!r}")
    for v in list(alphas) + list(betas):
        if v < 0:
            raise ValueError(f"orders must be nonnegative, got {v!r}")
    lines = [BOUNDS_CSV_HEADER]
    for c in c_grid:
        b_tsallis = bounds.bbar_bound(c, alphas, betas, "tsallis")
        b_renyi = bounds.bbar_bound(c, alphas, betas, "renyi")
        for alpha in alphas:
            for beta in betas:
                bt, br = b_tsallis[alpha, beta], b_renyi[alpha, beta]
                mu_t = mu_r = ""
                if alpha > 0 and beta > 0 and abs(1 / alpha + 1 / beta - 2.0) <= 1e-9:
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


def _random_joint(rng, nx: int, ny: int) -> JointDistribution:
    t = rng.random((nx, ny))
    return JointDistribution.from_table(t / t.sum())


def selftest_checks(seed: int = 20240901):
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

    # combined-estimation consistency on the anchor and on a random qutrit
    psi = reprepare_correction(z_obs, inst)
    rep = ricochet_oracle(x_obs, z_obs, inst, psi)
    ok = rep.max_gap < 1e-9 and rep.povm_residual < 1e-9
    results.append(("estimation_consistency_qubit", ok, f"max gap={rep.max_gap:.3e}"))

    rng_seed = np.random.SeedSequence([seed, 3])
    x3, z3, m3 = sample_instance(3, rng_seed)
    rep3 = ricochet_oracle(x3, z3, m3, reprepare_correction(z3, m3))
    ok3 = rep3.max_gap < 1e-9 and abs(rep3.overlap_c - rep3.overlap_c_transposed) < 1e-12
    results.append(("estimation_consistency_qutrit", ok3, f"max gap={rep3.max_gap:.3e}"))

    # sandwich of conditional entropies between error-probability bounds
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        j = _random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        rule = standard_decision(j).rule
        for alpha in (0.5, 1.0, 2.0):
            for family, ent in (
                ("tsallis", cond_tsallis_second(j, alpha)),
                ("renyi", cond_renyi(j, alpha)),
            ):
                for _, lo in lower_bounds(j, alpha, family):
                    worst = max(worst, lo - ent)
                for _, hi in fano_upper_bounds(j, alpha, family, rule):
                    worst = max(worst, ent - hi)
    results.append(("entropy_error_sandwich", worst <= 1e-9, f"worst violation={worst:.3e}"))

    # order -> 1 limit consistency
    worst_limit = 0.0
    for _ in range(100):
        j = _random_joint(rng, 3, 3)
        h1 = cond_shannon(j)
        for a in (1.0 - 1e-8, 1.0 + 1e-8):
            worst_limit = max(worst_limit, abs(cond_tsallis_second(j, a) - h1))
            worst_limit = max(worst_limit, abs(cond_renyi(j, a) - h1))
    results.append(("shannon_limit", worst_limit < 1e-5, f"worst gap={worst_limit:.3e}"))

    # the shipped negative fixture must be rejected by validation
    try:
        instance_from_json(broken_instrument_json())
    except ValueError as exc:
        results.append(("negative_fixture_rejected", True, f"rejected: {exc}"))
    else:
        results.append(("negative_fixture_rejected", False, "broken instrument accepted"))

    return results
