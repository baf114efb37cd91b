"""Reproducible sweep and self-test machinery behind the command line.

A sweep task is a fixed chunk of ``CHUNK`` consecutive samples, sampled
and certified as one triple (X, Z, M) of stacked objects; no sample's
rows depend on the samples beside it.  Each sample derives its
generators from (master seed, sample index), so results are
deterministic per sample, whatever the worker count.  A chunk is a range
of sample indices, and the list of chunks is cut into one contiguous share per job: the
calling process certifies the first share while one helper process per
further share certifies the rest, each with the sweep's config and grid,
and the shares are joined in sample order, so two runs with the same
seed produce byte-identical output at any worker count.
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
from .bounds import RELATIONS, CertificateTable, certify, certify_grid, mu_bounds
from .decision import fano_upper_bounds, lower_bounds, standard_decision
from .entropy import SHANNON_BRANCH, EntropyOrder, check_table, conditional_entropy
from .linalg import dagger
from .noise_disturbance import (SearchConfig, disturbance, reprepare_correction,
                                square_root_correction, two_picture_gap)
from .quantum import (
    instrument_from_json,
    instrument_to_json,
    json_entry,
    luders_instrument,
    observable_from_json,
    observable_to_json,
    sample_random_instruments,
    sample_random_observables,
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
    restarts: int = SearchConfig.restarts
    iterations: int = SearchConfig.iterations
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
            # a config file's 1 is the command line's 1.0, so both write the same JSON
            setattr(self, name, tuple(map(float, getattr(self, name))))
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
        data = _read_json(path)
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


def _read_json(path: str):
    """The JSON value in the file ``path``; a value nested too deeply to decode is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:  # the decoder recurses once per level of nesting
            raise ValueError(f"{path} is nested too deeply to decode as JSON") from exc


def load_instance(path: str):
    return instance_from_json(_read_json(path))


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


def unsharp_luders_instance(lam: float):
    """(X, Z, M): the conjugate qubit pair and the Lüders instrument of the unsharp X measurement.

    With sharpness ``lam`` in [0, 1] the Kraus operators are
    K_+- = a Pi_+- + b Pi_-+, a = sqrt((1 + lam)/2), b = sqrt((1 - lam)/2),
    Pi_+- = (I +- sigma_x)/2 the X projectors, written out entry by entry
    so that no roundoff of a matrix product enters them.  Against the
    conjugate Z the best correction leaves a binary symmetric channel
    with flip probability (1 - sqrt(1 - lam**2))/2, the Helstrom error of
    the two states each outcome leaves (ROADMAP direction G), so the
    noise and the disturbance are known in closed form.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {lam!r}")
    x_obs, z_obs = conjugate_qubit_pair()
    a, b = math.sqrt((1 + lam) / 2), math.sqrt((1 - lam) / 2)
    even, odd = (a + b) / 2, (a - b) / 2
    kraus = np.array([[[even, odd], [odd, even]], [[even, -odd], [-odd, even]]], dtype=complex)
    return x_obs, z_obs, quantum.QuantumInstrument(2, 2, ("m0", "m1"), kraus, np.arange(2))


def sample_instance(dim: int, seeds) -> tuple:
    """A chunk for the certification sweep: the triple (X, Z, M) of stacks, one draw per seed.

    Each seed's generator draws X, Z and M in turn, so a sample depends on
    its own seed alone; each kind is QR'd in one call for all seeds.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x_obs = sample_random_observables(dim, None, rngs)
    z_obs = sample_random_observables(dim, None, rngs)
    return x_obs, z_obs, sample_random_instruments(dim, dim, dim, 2, rngs)


# --- sweep ------------------------------------------------------------------------


# samples per sweep task: a chunk's fixed cost (a B-bar call, the kernel calls, the pool's
# messages) falls per sample as it grows, and its memory and the balance of the shares between
# jobs get worse; 8 is today's compromise, and ROADMAP item S sizes chunks by the work instead
CHUNK = 8


def _sweep_task(cfg: RunConfig, grid, indices) -> CertificateTable:
    """Sample and certify the samples ``indices`` as one stack, over ``grid``.

    ``grid`` and the config are checked once, in run_sweep.
    """
    chunk = sample_instance(cfg.dim, [np.random.SeedSequence([cfg.seed, i]) for i in indices])
    seeds = [int(np.random.SeedSequence([cfg.seed, i, 1]).generate_state(1)[0]) for i in indices]
    return certify_grid(chunk, grid, SearchConfig(cfg.restarts, cfg.iterations), seeds, cfg.seed)


def _certify_share(cfg: RunConfig, grid, chunks) -> list[CertificateTable]:
    return [_sweep_task(cfg, grid, indices) for indices in chunks]


def _helper(conn, cfg: RunConfig, grid, chunks) -> None:
    """Certify a share in a helper process; send (ok, its chunks' tables or exception)."""
    try:
        result = (True, _certify_share(cfg, grid, chunks))
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
    """Run the sweep; returns (certificate table, summary dict).

    Each chunk, a range of up to CHUNK sample indices, is certified in one
    ``certify_grid`` call.  The list of chunks is cut into ``jobs``
    contiguous shares, jobs being ``cfg.jobs`` (by default the CPUs this
    process may use) but at most one per chunk.  This process certifies
    share 0 while one helper process per further share certifies it and
    sends its chunks' tables back through its own pipe; one job or one
    chunk starts no helper.  An exception in a helper is raised again
    here, a helper that dies without a result raises RuntimeError, and
    every helper has ended when run_sweep returns or raises.  The tables
    are joined column by column into one, its rows ordered by (sample
    index, relation, alpha, beta) regardless of worker count.  The
    admissible grid is the same for every sample, so it is checked once;
    an empty grid cuts no chunk, samples nothing, starts no helper and
    gives a table of no rows.  The summary counts the rows that did not
    pass and takes the least margin, None when there are no rows.
    """
    if cfg.seed is None:
        raise ValueError("a randomized sweep needs a seed")
    grid, skipped = bounds.admissible_grid(cfg.relations, cfg.alphas, cfg.betas, cfg.dim)
    chunks = [range(start, min(start + CHUNK, cfg.samples))
              for start in range(0, cfg.samples if grid else 0, CHUNK)]
    jobs = max(1, min(cfg.jobs or _usable_cpus(), len(chunks)))
    shares = [chunks[len(chunks) * k // jobs:len(chunks) * (k + 1) // jobs] for k in range(jobs)]
    helpers = []
    try:
        for share in shares[1:]:
            receiver, sender = Pipe(duplex=False)
            helper = Process(target=_helper, args=(sender, cfg, grid, share), daemon=True)
            helper.start()
            helpers.append((helper, receiver))
            sender.close()  # so that a helper dying unheard reads as EOF, not a hang
        tables = _certify_share(cfg, grid, shares[0])
        for helper, receiver in helpers:
            try:
                ok, result = receiver.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(f"a sweep helper process exited with code "
                                   f"{helper.exitcode} before sending its certificates") from None
            if not ok:
                raise result
            tables += result
    finally:
        for helper, receiver in helpers:
            receiver.close()
            helper.terminate()  # harmless on a helper that has exited
            helper.join()
    certs = CertificateTable.join(tables)
    margin = certs.margin
    summary = {
        "samples": cfg.samples,
        "dim": cfg.dim,
        "certificates": margin.size,
        "failures": int(np.count_nonzero(~certs.passed)),
        "inadmissible_skipped": skipped * cfg.samples,
        "min_margin": float(margin.min()) if margin.size else None,
        "seed": cfg.seed,
    }
    return certs, summary


CSV_HEADER = "relation,d,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"


def _columns(table: CertificateTable, names: str) -> zip:
    """The rows of the columns ``names`` (comma-separated), as tuples of Python values."""
    return zip(*(getattr(table, name).tolist() for name in names.split(",")))


def certificates_to_csv(table: CertificateTable) -> str:
    """CSV_HEADER and one line per row, numbers to 9 significant digits, no seed as empty.

    Each line fills one %-template; "%.9g" % x is "{:.9g}".format(x) for every float.
    """
    row = "%s,%s" + ",%.9g" * 7 + ",%s,%s"
    lines = [CSV_HEADER]
    lines.extend(row % (relation, dim, *numbers, str(passed).lower(), "" if seed is None else seed)
                 for relation, dim, *numbers, passed, seed in _columns(
                     table, "relation,dim,alpha,beta,c,noise,disturbance,bound,margin,passed,seed"))
    return "\n".join(lines) + "\n"


def json_rows(table: CertificateTable) -> list[dict]:
    """One JSON object per row; a NaN mu or argmin_theta is null."""
    return [{
        "relation": relation, "dim": dim, "alpha": alpha, "beta": beta, "family": family, "c": c,
        "noise": noise, "disturbance": disturbance, "disturbance_is_upper_bound": True,
        "bound": {"id": bound_id, "value": bound, "mu": None if math.isnan(mu) else mu,
                  "argmin_theta": None if math.isnan(theta) else theta},
        "margin": margin, "passed": passed, "seed": seed,
        "search": {"restarts": restarts, "iterations": iterations, "converged": converged,
                   "best_candidate": candidate},
    } for (relation, dim, alpha, beta, family, c, noise, disturbance, bound_id, bound, mu, theta,
           margin, passed, seed, restarts, iterations, converged, candidate) in _columns(
        table, "relation,dim,alpha,beta,family,c,noise,disturbance,bound_id,bound,mu,"
        "argmin_theta,margin,passed,seed,restarts,iterations,converged,best_candidate")]


def certificates_to_json(table: CertificateTable) -> str:
    return json.dumps(json_rows(table), indent=2) + "\n"


# --- bound tabulation ---------------------------------------------------------------


BOUNDS_CSV_HEADER = (
    "c,alpha,beta,b_tsallis,b_renyi,mu_tsallis,mu_renyi,"
    "argmin_theta_tsallis,argmin_theta_renyi"
)


def tabulate_bounds(c_grid, alphas, betas) -> str:
    """CSV table of the minimised and conjugacy bounds over a parameter grid.

    One ``bounds.bbar_bound`` call covers both families, every pair of
    orders and every c, and each row fills one %-template straight from its
    arrays; the rows equal those of one table per c and pair of orders.
    The conjugacy columns are populated only where 1/alpha + 1/beta = 2,
    which is decided once per pair of orders.  ``bounds.bbar_bound``
    rejects any c or order outside its domain.
    """
    lines = [BOUNDS_CSV_HEADER]
    orders = list(itertools.product(alphas, betas))
    # a row's template, with its conjugacy columns empty or filled
    empty = "%.9g,%.9g,%.9g,%.9g,%.9g,,,%.9g,%.9g"
    filled = empty.replace(",,,", ",%.9g,%.9g,")
    conjugate = [bounds.conjugate_orders(alpha, beta) for alpha, beta in orders]
    pairs = [(family, *ab) for family in ("tsallis", "renyi") for ab in orders]
    # per c, the Tsallis and the Renyi row of each array, over the table's pairs of orders
    values, argmins = (a.reshape(len(c_grid), 2, -1).tolist()
                       for a in bounds.bbar_bound(c_grid, pairs))
    for c, (values_t, values_r), (thetas_t, thetas_r) in zip(c_grid, values, argmins):
        for conj, (alpha, beta), bt, br, xt, xr in zip(conjugate, orders, values_t, values_r,
                                                       thetas_t, thetas_r):
            mu = mu_bounds(c, alpha, beta) if conj else ()
            lines.append((filled if conj else empty) % (c, alpha, beta, bt, br, *mu, xt, xr))
    return "\n".join(lines) + "\n"


# --- self test ------------------------------------------------------------------------


def broken_instrument_json() -> dict:
    """Negative fixture: the saturation anchor with a third outcome, Kraus operator I/2.

    It breaks one property, the instrument's completeness: the Kraus
    operators give sum K†K = 5/4 I, a residual of 1/4.  Everything else
    about the file is a valid instance.
    """
    data = instance_to_json(*saturation_instance())
    data["M"]["branches"].append({"label": "m2", "kraus": [quantum.matrix_to_json(np.eye(2) / 2)]})
    return data


SELFTEST_SEED = 20240901


def two_picture_check(x_obs, z_obs, inst) -> tuple[bool, str]:
    """(ok, detail) of ``two_picture_gap`` under three corrections, ok within 1e-9.

    The corrections are the repreparation, the square-root measurement,
    whose (n, |Z|, d_out, d_out) stack is built apart from the others, and
    random Naimark POVMs E_z'^(m) = A_z'^(m)† A_z'^(m), A^(m) the first
    d_out columns of its own Haar unitary from ``SELFTEST_SEED``: they have
    no symmetry that could hide a transposed table, and no outcome shares
    another's to hide a mix-up.
    """
    rng, d = np.random.default_rng(SELFTEST_SEED), inst.dim_out
    a = np.array([quantum.sample_haar_unitary(len(z_obs.projectors) * d, rng)[:, :d]
                  for _ in inst.labels]).reshape(inst.n_outcomes, -1, d, d)
    gap = max(two_picture_gap(x_obs, z_obs, inst, povm)
              for povm in (reprepare_correction(z_obs, inst), square_root_correction(z_obs, inst),
                           dagger(a) @ a))
    return gap <= 1e-9, f"max gap={gap:.3e}"


def _random_joint(rng, nx: int, ny: int) -> np.ndarray:
    t = rng.random((nx, ny))
    return check_table(t / t.sum())


def selftest_checks():
    """Run the built-in consistency checks; yields (name, ok, detail)."""
    # saturation anchor
    x_obs, z_obs, inst = saturation_instance()
    (margin,) = certify(x_obs, z_obs, inst, 1.0, 1.0, "Prop3", SearchConfig(restarts=0)).margin
    yield "saturation_margin", abs(margin) <= 1e-7, f"margin={margin:.3e}"

    # the support-angle search meets the Helstrom value of the unsharp X measurement at the
    # sweep's budget: Tsallis-2 disturbance lambda**2/2 = 1/4 at lambda = 1/sqrt(2)
    _, z_half, m_half = unsharp_luders_instance(1 / math.sqrt(2))
    value = disturbance(z_half[None], m_half[None], [EntropyOrder.tsallis(2.0)], SearchConfig(),
                        [SELFTEST_SEED])[0]
    gap = value[0, 0] - 0.25
    yield "unsharp_disturbance", abs(gap) <= 1e-9, f"D_up - 1/4={gap:.3e}"

    # both pictures of the noise and disturbance tables, on the anchor and a random qutrit
    yield "two_pictures_qubit", *two_picture_check(x_obs, z_obs, inst)
    qutrit = sample_instance(3, [np.random.SeedSequence([SELFTEST_SEED, 3])])
    yield "two_pictures_qutrit", *two_picture_check(*(stack[0] for stack in qutrit))

    # sandwich of conditional entropies between error-probability bounds
    rng = np.random.default_rng(SELFTEST_SEED)
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
    yield "entropy_error_sandwich", worst <= 1e-9, f"worst violation={worst:.3e}"

    # order -> 1 limit consistency, inside the Shannon branch and just outside it, where the
    # Renyi and Tsallis formulas run
    near = 2 * SHANNON_BRANCH
    tables = np.array([_random_joint(rng, 3, 3) for _ in range(100)])
    orders = [EntropyOrder(a, family) for a in (1.0 - 1e-8, 1.0 + 1e-8, 1.0 - near, 1.0 + near)
              for family in ("tsallis", "renyi")]
    gaps = (conditional_entropy(tables[:, None].repeat(len(orders), axis=1), orders)
            - conditional_entropy(tables, EntropyOrder.shannon())[:, None])
    worst_limit = np.abs(gaps).max()
    yield "shannon_limit", worst_limit < 1e-5, f"worst gap={worst_limit:.3e}"

    # the shipped negative fixture must be rejected by validation
    try:
        instance_from_json(broken_instrument_json())
    except ValueError as exc:
        yield "negative_fixture_rejected", True, f"rejected: {exc}"
    else:
        yield "negative_fixture_rejected", False, "broken instrument accepted"
