"""Command-line front end: certify, sweep, bounds, selftest.

Exit codes: 0 = no relation refuted, 1 = a relation refuted on an
instance (noise + upper disturbance < bound - MARGIN_SLACK; an upper
bound on the disturbance can refute a relation, never certify it) or a
self-test failed, 2 = input or usage error.  Randomized commands need a
non-negative seed, from --seed or the ETOFF_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import harness
from .bounds import RELATIONS, certify
from .harness import SEED_ENV_VAR, RunConfig
from .noise_disturbance import SearchConfig


def _resolve_seed(value) -> int:
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            raise ValueError(f"a seed is required: pass --seed or set {SEED_ENV_VAR}")
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if value < 0:
        raise ValueError(f"the seed (--seed or {SEED_ENV_VAR}) must not be negative, got {value}")
    return value


def _open_out(out: str | None):
    """Standard output, or the file ``out`` opened for writing (OSError if it cannot be)."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def cmd_certify(args) -> int:
    try:
        x_obs, z_obs, inst = harness.load_instance(args.instance)
        seed = _resolve_seed(args.seed) if args.restarts > 0 or args.seed is not None else None
        search = SearchConfig(
            restarts=args.restarts, iterations=args.iterations, seed=seed
        )
        cert = certify(
            x_obs, z_obs, inst, args.alpha, args.beta, args.relation,
            search, seed=seed,
        )
        if args.format == "csv":
            text = harness.certificates_to_csv([cert])
        else:
            text = json.dumps(cert.to_json_dict(), indent=2) + "\n"
        with _open_out(args.out) as fh:
            fh.write(text)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        # AdmissibilityError and the input validation errors are ValueError subclasses;
        # an unwritable --out is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if cert.passed else 1


def cmd_sweep(args) -> int:
    try:
        overrides = {
            "dim": args.dim,
            "samples": args.samples,
            "relations": tuple(args.relation) if args.relation else None,
            "alphas": tuple(args.alpha) if args.alpha else None,
            "betas": tuple(args.beta) if args.beta else None,
            "restarts": args.restarts,
            "iterations": args.iterations,
            "jobs": args.jobs,
            "out": args.out,
            "fmt": args.format,
        }
        if args.config:
            cfg = RunConfig.from_file(args.config, **overrides)
        else:
            cfg = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
        cfg.seed = _resolve_seed(args.seed if args.seed is not None else cfg.seed)
        # opened before the sweep runs, so an unwritable --out fails before any sample
        with _open_out(cfg.out) as fh:
            certs, summary = harness.run_sweep(cfg)
            if cfg.fmt == "csv":
                fh.write(harness.certificates_to_csv(certs))
            else:
                fh.write(harness.certificates_to_json(certs))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dest = sys.stderr if cfg.out is None else sys.stdout
    print(
        "sweep: {certificates} certificates from {samples} samples (d={dim}), "
        "min margin {min_margin:.3e}, {failures} failures, "
        "{inadmissible_skipped} inadmissible combinations skipped, seed {seed}".format(
            **summary
        ),
        file=dest,
    )
    return 0 if summary["failures"] == 0 else 1


def cmd_bounds(args) -> int:
    try:
        text = harness.tabulate_bounds(args.c, args.alpha, args.beta)
        with _open_out(args.out) as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_selftest(args) -> int:
    if args.fixture:
        try:
            x_obs, z_obs, inst = harness.load_instance(args.fixture)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok, detail = harness.two_picture_check(x_obs, z_obs, inst)
        print(f"selftest fixture: two_pictures: {'PASS' if ok else 'FAIL'} ({detail})")
        return 0 if ok else 1
    failed = None
    for name, ok, detail in harness.selftest_checks():
        print(f"selftest: {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"selftest: first failing property: {failed}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etoff",
        description=(
            "Certify entropic noise-disturbance trade-off relations for finite-dimensional "
            "quantum instruments.  Exit codes: 0 = no relation refuted, 1 = a relation "
            "refuted or a self-test failed, 2 = input or usage error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify one relation on an instance file")
    p.add_argument("instance", help="JSON file with X, Z and M")
    p.add_argument("--relation", required=True, choices=RELATIONS)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=0,
                   help="random refinement restarts (requires a seed)")
    p.add_argument("--iterations", type=int, default=150)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="randomized certification sweep")
    p.add_argument("--config", default=None, help="JSON config file (flags override)")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--relation", type=str, nargs="+", choices=RELATIONS, default=None)
    p.add_argument("--alpha", type=float, nargs="+", default=None)
    p.add_argument("--beta", type=float, nargs="+", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="tabulate uncertainty bounds over a grid")
    p.add_argument("--c", type=float, nargs="+", required=True)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--beta", type=float, nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.add_argument("--fixture", default=None,
                   help="instead, check that an instance file's noise and disturbance "
                   "tables agree in the Schrödinger and Heisenberg pictures")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
