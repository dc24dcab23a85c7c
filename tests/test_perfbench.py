"""The benchmark's layer tracer still binds to the package.

perfbench/tracer.py wraps package functions by module attribute and reads
some of their arguments by name.  A refactor that moves or renames one of
them leaves that span absent and its counts at zero, so the per-layer numbers
stop meaning anything while the timed runs still pass.  Each case runs one
small command per workload kind through perfbench/child.py, traced, and pins
its counts exactly: a chunk path that drops or repeats a chunk, or scores a
link twice, moves them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
URBAN = ("--preset", "urban", "--workers", "1", "--seed", "1")
# the counts each command reports: chunks drawn, points drawn and links scored,
# then the grid calls, oracle draws and closed-form calls where it makes them
COMMANDS = {
    "contour": (("contour", *URBAN, "--lambda-lo", "10", "--lambda-hi", "30", "--lambda-step", "10",
                 "--h-lo", "80", "--h-hi", "160", "--h-step", "40", "--n-realizations", "300"),
                {"sampling.calls": 1, "sampling.points": 1658, "scoring.links": 8506,
                 "connectivity.cells": 9, "optimize.grid_calls": 1}),
    # the only command that reaches the uavgrid.cli.outage_grid binding
    "outage-curve": (("outage-curve", *URBAN, "--lambda-uav", "30", "--h-lo", "80", "--h-hi", "160",
                      "--n-realizations", "300"),
                     {"sampling.calls": 1, "sampling.points": 1658, "scoring.links": 48728,
                      "connectivity.cells": 17}),
    "optimize": (("optimize", *URBAN, "--lambda-uav", "30", "--h-lo", "60", "--h-hi", "200",
                  "--n-realizations", "300"),
                 {"sampling.calls": 1, "sampling.points": 1727, "scoring.links": 95086,
                  "connectivity.cells": 36, "optimize.grid_calls": 8}),
    "distribution": (("distribution", *URBAN, "--lambda-uav", "20", "--h-uav", "100",
                      "--n-realizations", "300"),
                     {"sampling.calls": 1, "sampling.points": 1064, "scoring.links": 2128,
                      "connectivity.cells": 1}),
    "validate": (("validate", "--cases", "3", "--n-draws", "200", "--seed", "1"),
                 {"oracle.draws": 600, "closed_form.calls": 3}),
}


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_tracer_binds_every_span(kind):
    argv, want = COMMANDS[kind]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"), "1", "--", *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exit_code"] == 0, report["stderr"]
    trace = report["trace"]
    assert trace["absent"] == []
    counts = trace["counts"]
    assert {name: counts.get(name, 0) for name in want} == want, counts
