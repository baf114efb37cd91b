"""Output checks for the etoff benchmark; none of this is timed.

The checks read the CSV the program wrote and test it against facts the
benchmark knows independently of the program: how many (relation,
alpha, beta) combinations are admissible, the certificate identity
margin = noise + disturbance - bound, the range of the overlap c, and the
closed form -2 ln c of the Renyi conjugacy bound.  Each check attributes
a failure to the sweep sample or bounds row it belongs to, so failures
are counted per operation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

RELATIONS = ("Prop1", "Prop2", "Prop3", "Binary")
SWEEP_COLUMNS = ("relation", "d", "alpha", "beta", "c", "noise", "disturbance",
                 "bound", "margin", "passed")
BOUNDS_COLUMNS = ("c", "alpha", "beta", "b_tsallis", "b_renyi", "mu_tsallis",
                  "mu_renyi", "argmin_theta_tsallis", "argmin_theta_renyi")

# The CSV carries 9 significant digits, so a printed value is off by at
# most 5e-9 of its magnitude.  Identities are checked to IDENTITY_TOL
# beyond that rounding.
CSV_REL = 5e-9
IDENTITY_TOL = 1e-9


@dataclass
class CheckResult:
    """Operations that failed, why, and the values the quality metrics use."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    certs_failed: int = 0

    def fail(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


def _conjugate(alpha: float, beta: float) -> bool:
    return abs(1.0 / alpha + 1.0 / beta - 2.0) <= 1e-9


def admissible(relation: str, alpha: float, beta: float, dim: int) -> bool:
    """The admissible region of each relation, as the paper states it."""
    if alpha <= 0 or beta <= 0:
        return False
    if relation == "Prop1":
        return True
    if relation == "Prop2":
        limit = 2.0 if dim == 2 else 1.0
        return alpha <= limit and beta <= limit
    if relation == "Prop3":
        return _conjugate(alpha, beta)
    if relation == "Binary":
        return dim == 2 and _conjugate(alpha, beta) and alpha <= 2.0 and beta <= 2.0
    raise ValueError(f"unknown relation {relation!r}")


def admissible_count(dim: int, alphas, betas, relations=RELATIONS) -> int:
    return sum(
        admissible(r, a, b, dim) for r in relations for a in alphas for b in betas
    )


def _rows(text: str, columns, result: CheckResult):
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        result.fail(f"CSV lacks columns {missing}")
        return None
    return list(reader)


def _finite(row, keys) -> dict | None:
    try:
        vals = {k: float(row[k]) for k in keys}
    except (TypeError, ValueError):
        return None
    return vals if all(math.isfinite(v) for v in vals.values()) else None


def check_sweep_csv(text: str, dim: int, samples: int, alphas, betas) -> CheckResult:
    """Check one `etoff sweep` CSV of `samples` samples on the full relation grid.

    A sample fails when any of its rows fails.  ``values`` collects the
    reported disturbances in row order.
    """
    result = CheckResult(attempted=samples)
    rows = _rows(text, SWEEP_COLUMNS, result)
    per_sample = admissible_count(dim, alphas, betas)
    if rows is None or len(rows) != per_sample * samples:
        if rows is not None:
            result.fail(f"{len(rows)} rows, expected {per_sample} x {samples}")
        result.failed = samples
        return result
    floor = 1.0 / math.sqrt(dim)
    bad = set()
    for i, row in enumerate(rows):
        vals = _finite(row, ("d", "alpha", "beta", "c", "noise", "disturbance",
                             "bound", "margin"))
        where = f"row {i + 1}"
        if vals is None:
            result.fail(f"{where}: non-numeric or non-finite value")
            bad.add(i // per_sample)
            continue
        result.values.append(vals["disturbance"])
        n, d, b, m, c = (vals[k] for k in ("noise", "disturbance", "bound", "margin", "c"))
        problems = []
        if int(vals["d"]) != dim:
            problems.append(f"d={vals['d']}")
        if min(n, d, b) < 0.0:
            problems.append("negative noise, disturbance or bound")
        rounding = CSV_REL * (abs(n) + abs(d) + abs(b) + abs(m))
        if abs(m - (n + d - b)) > IDENTITY_TOL + rounding:
            problems.append(f"margin {m!r} != noise + disturbance - bound")
        if not floor - CSV_REL <= c <= 1.0 + CSV_REL:
            problems.append(f"c={c!r} outside [d^-1/2, 1]")
        if not admissible(row["relation"], vals["alpha"], vals["beta"], dim):
            problems.append(f"inadmissible {row['relation']} at ({vals['alpha']}, {vals['beta']})")
        if row["passed"] != "true":
            # The relations are theorems and the disturbance is an upper
            # bound, so a failed certificate is a defect of the program.
            result.certs_failed += 1
            problems.append("passed is not true")
        if problems:
            result.fail(f"{where}: " + "; ".join(problems))
            bad.add(i // per_sample)
    result.failed = len(bad)
    return result


def check_bounds_csv(text: str, cs, alphas, betas) -> CheckResult:
    """Check one `etoff bounds` CSV over the c x alpha x beta grid it was asked for.

    ``values`` collects (b_tsallis + b_renyi) / 2 per row.
    """
    expected = [(c, a, b) for c in cs for a in alphas for b in betas]
    result = CheckResult(attempted=len(expected))
    rows = _rows(text, BOUNDS_COLUMNS, result)
    if rows is None or len(rows) != len(expected):
        if rows is not None:
            result.fail(f"{len(rows)} rows, expected {len(expected)}")
        result.failed = len(expected)
        return result
    for i, (row, (c, alpha, beta)) in enumerate(zip(rows, expected)):
        where = f"row {i + 1}"
        vals = _finite(row, ("c", "alpha", "beta", "b_tsallis", "b_renyi",
                             "argmin_theta_tsallis", "argmin_theta_renyi"))
        if vals is None:
            result.fail(f"{where}: non-numeric or non-finite value")
            result.failed += 1
            continue
        result.values.append((vals["b_tsallis"] + vals["b_renyi"]) / 2.0)
        problems = []
        for key, want in (("c", c), ("alpha", alpha), ("beta", beta)):
            if not math.isclose(vals[key], want, rel_tol=CSV_REL):
                problems.append(f"{key}={vals[key]!r}, asked for {want!r}")
        if min(vals["b_tsallis"], vals["b_renyi"]) < 0.0:
            problems.append("negative bound")
        eta = math.acos(c)
        for key in ("argmin_theta_tsallis", "argmin_theta_renyi"):
            if not -CSV_REL <= vals[key] <= eta + CSV_REL:
                problems.append(f"{key} outside [0, arccos c]")
        if _conjugate(alpha, beta):
            mu = _finite(row, ("mu_tsallis", "mu_renyi"))
            if mu is None or min(mu.values()) < 0.0:
                problems.append("conjugate orders without valid MU columns")
            elif abs(mu["mu_renyi"] + 2.0 * math.log(c)) > (
                IDENTITY_TOL + CSV_REL * mu["mu_renyi"]
            ):
                problems.append(f"mu_renyi {mu['mu_renyi']!r} != -2 ln c")
        elif row["mu_tsallis"] or row["mu_renyi"]:
            problems.append("MU columns filled off the conjugacy line")
        if problems:
            result.fail(f"{where}: " + "; ".join(problems))
            result.failed += 1
    return result
