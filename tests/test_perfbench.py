"""The benchmark's layer tracer still binds to the package.

perfbench/tracer.py wraps package functions by module attribute and reads
some of their arguments by name.  A refactor that moves or renames one of
them leaves that span absent and its counts at zero, so the per-layer numbers
stop meaning anything while the timed runs still pass.  Each case runs one
small command per workload kind through perfbench/child.py, traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
URBAN = ("--preset", "urban", "--workers", "1", "--seed", "1")
GRID_COUNTS = ("sampling.calls", "scoring.links", "connectivity.cells")

COMMANDS = {
    "contour": (("contour", *URBAN, "--lambda-lo", "10", "--lambda-hi", "30", "--lambda-step", "10",
                 "--h-lo", "80", "--h-hi", "160", "--h-step", "40", "--n-realizations", "300"),
                GRID_COUNTS),
    # the only command that reaches the uavgrid.cli.outage_grid binding
    "outage-curve": (("outage-curve", *URBAN, "--lambda-uav", "30", "--h-lo", "80", "--h-hi", "160",
                      "--n-realizations", "300"),
                     GRID_COUNTS),
    "optimize": (("optimize", *URBAN, "--lambda-uav", "30", "--h-lo", "60", "--h-hi", "200",
                  "--n-realizations", "300"),
                 (*GRID_COUNTS, "optimize.grid_calls")),
    "distribution": (("distribution", *URBAN, "--lambda-uav", "20", "--h-uav", "100",
                      "--n-realizations", "300"),
                     GRID_COUNTS),
    "validate": (("validate", "--cases", "3", "--n-draws", "200", "--seed", "1"),
                 ("oracle.draws", "closed_form.calls")),
}


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_tracer_binds_every_span(kind):
    argv, nonzero = COMMANDS[kind]
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
    for name in nonzero:
        assert counts.get(name, 0) > 0, (name, counts)
