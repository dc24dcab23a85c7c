"""The benchmark's workloads: uavgrid CLI commands and their output checks.

The grid commands run the urban preset with --workers 1; validate covers every
preset and has no worker pool.  Why each workload is there is recorded in
BENCHMARK.json.  Each check uses only invariants that hold exactly for any
seed, and returns None when the output passes or a one-line reason when it
does not.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from dataclasses import dataclass
from typing import Callable

# A mixture value is a convex blend of two CDF values; the blend is rounded,
# so it may leave their range by a few units in the last place near 1.0.
BLEND_SLACK = 4 * sys.float_info.epsilon


def _table(stdout: str, header: list[str]) -> list[list[float]] | str:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        return f"header {rows[0] if rows else None} != {header}"
    try:
        return [[float(v) for v in row] for row in rows[1:]]
    except ValueError as e:
        return f"non-numeric cell: {e}"


def _check_contour(stdout: str, stderr: str) -> str | None:
    rows = _table(stdout, ["lambda_per_km2", "h_uav_m", "outage"])
    if isinstance(rows, str):
        return rows
    if len(rows) != 46 * 41:
        return f"{len(rows)} rows, expected {46 * 41}"
    by_height: dict[float, list[float]] = {}
    for lam, h, out in rows:
        if not 0.0 <= out <= 1.0:
            return f"outage {out} outside [0, 1] at lambda={lam}, h={h}"
        by_height.setdefault(h, []).append(out)
    # coupled draws: adding density only adds UAVs, so outage never rises
    for h, column in by_height.items():
        if any(b > a for a, b in zip(column, column[1:])):
            return f"outage rises with density at h={h}"
    if not re.search(r"^min density \S+ per km2 at h = \S+ m for outage <= 0\.1$", stderr, re.M):
        return "no min-density line on stderr"
    return None


def _check_distribution(stdout: str, stderr: str) -> str | None:
    rows = _table(stdout, ["gamma", "F_intersection", "F_street", "F_mixture"])
    if isinstance(rows, str):
        return rows
    if not rows:
        return "no rows"
    for col in range(4):
        values = [row[col] for row in rows]
        if any(b < a for a, b in zip(values, values[1:])):
            return f"column {col} decreases in gamma"
    for gamma, f_int, f_street, f_mix in rows:
        if not min(f_int, f_street) - BLEND_SLACK <= f_mix <= max(f_int, f_street) + BLEND_SLACK:
            return f"F_mixture {f_mix} outside [{f_int}, {f_street}] at gamma={gamma}"
    return None


def _optimize_check(h_lo: float, h_hi: float):
    def check(stdout: str, stderr: str) -> str | None:
        rows = _table(stdout, ["h_star_m", "outage_star"])
        if isinstance(rows, str):
            return rows
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        h_star, outage_star = rows[0]
        if not h_lo <= h_star <= h_hi:
            return f"h_star {h_star} outside [{h_lo}, {h_hi}]"
        if not 0.0 <= outage_star <= 1.0:
            return f"outage {outage_star} outside [0, 1]"
        return None

    return check


def _check_validate(stdout: str, stderr: str) -> str | None:
    # exit 0 is checked for every workload; this only guards the table shape
    if len(stdout.splitlines()) != 1 + VALIDATE_CASES:
        return f"expected {VALIDATE_CASES} result rows"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # uavgrid arguments, without --seed
    check: Callable[[str, str], str | None]
    # Reduced arguments for the untimed --workers 1 vs 2 determinism check;
    # n must exceed the package's chunk size (8192) so the pool path runs.
    determinism_args: tuple[str, ...] | None = None

    def argv(self, seed: int, args: tuple[str, ...] | None = None) -> list[str]:
        return [*(self.args if args is None else args), "--seed", str(seed)]


URBAN = ("--preset", "urban", "--workers", "1")
VALIDATE_CASES = 200

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "contour-grid",
            ("contour", *URBAN, "--lambda-lo", "5", "--lambda-hi", "50",
             "--h-lo", "50", "--h-hi", "250", "--target-outage", "0.1",
             "--n-realizations", "1000"),
            _check_contour,
            ("contour", "--preset", "urban", "--lambda-lo", "5", "--lambda-hi", "50",
             "--lambda-step", "5", "--h-lo", "50", "--h-hi", "250", "--h-step", "25",
             "--target-outage", "0.1", "--n-realizations", "10000"),
        ),
        Workload(
            "optimize-height",
            ("optimize", *URBAN, "--lambda-uav", "30", "--h-lo", "50", "--h-hi", "250",
             "--n-realizations", "2000"),
            _optimize_check(50.0, 250.0),
        ),
        Workload(
            "distribution-cdf",
            ("distribution", *URBAN, "--lambda-uav", "20", "--h-uav", "100",
             "--n-realizations", "20000"),
            _check_distribution,
            ("distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
             "--n-realizations", "10000"),
        ),
        Workload(
            "validate-oracle",
            ("validate", "--cases", str(VALIDATE_CASES), "--n-draws", "10000"),
            _check_validate,
        ),
    )
}
