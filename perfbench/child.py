"""Run one uavgrid CLI command in this fresh process and report on it.

    python3 perfbench/child.py SRC_DIR TRACE -- <uavgrid arguments...>

Imports uavgrid.cli from SRC_DIR (timed: that is the set-up cost), then calls
uavgrid.cli.main with the arguments, capturing its stdout and stderr.  With
TRACE=1 the layer tracer is installed after the import and before the call.
Prints one JSON object on stdout: setup_s, run_s, peak_rss_mb, exit code,
the command's stdout and stderr, library versions, and the trace summary when
traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    src, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR TRACE -- ARGS...")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import uavgrid.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        code = uavgrid.cli.main(argv)
        run_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    import numpy
    import scipy

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "trace": tracer.summary(run_s) if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
