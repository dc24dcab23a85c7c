"""Layered benchmark of the uavgrid CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Every command runs in a fresh single-threaded child process through
uavgrid.cli.main, one child at a time.  A run repeats its workload's command
for about S seconds; each child is one sample, and every metric is the median
over the run's samples.

  --trace 0  end-to-end metrics: run_rel (the command's wall time after
             import, in units of the fixed reference kernel timed right
             before and after the child; see reference_kernel), setup_s (the
             import of uavgrid.cli, likewise divided by the reference time
             and quoted in seconds at the speed where the kernel lasts
             REFERENCE_S) and peak_rss_mb (the child's peak RSS)
  --trace 1  per-layer metrics from alternating traced and untraced samples;
             spans wrap public functions at each layer boundary (tracer.py),
             and trace.overhead_s is the traced minus the untraced run_s

Times are taken relative to the reference kernel because on a shared 2-vCPU
virtual machine (Intel Xeon, numpy 2.4) the speed of every sample swings by
up to 60% in regimes lasting from seconds to minutes.  Over ten runs of
24-28 s per workload, the interquartile range of raw run_s was 12-23% of its
median (per-run median or fastest sample alike), that of run_rel 2.5-6%; the
median raw import time of two ten-run sets differed by up to 17%.  Raw
run_s and setup_s medians are still printed and kept in the results record.

Each sample's output is checked (workloads.py) and its stdout SHA-256 must
match every other sample of the run; a sample that fails either counts toward
error_rate.  contour-grid and distribution-cdf also run an untimed
determinism check at reduced n: stdout must be identical at --workers 1 and 2.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
The full record (environment, seed, digests, every sample) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BASELINE = HERE / "baseline.json"

MIN_SAMPLES = 3  # per kind of sample, however short --seconds is
# setup_s is quoted at the machine speed where the reference kernel lasts this long
REFERENCE_S = 0.2
CHILD_TIMEOUT_S = 30  # samples take about a second; a stuck child must not stall the run
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "run_rel": "ref", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sampling.self_s": "s",
    "sampling.calls": "count",
    "sampling.points": "count",
    "sampling.draws_per_realization": "count",
    "sampling.us_per_draw": "us",
    "scoring.self_s": "s",
    "scoring.links": "count",
    "scoring.links_per_point": "count",
    "scoring.ns_per_link": "ns",
    "connectivity.self_s": "s",
    "connectivity.calls": "count",
    "connectivity.cells": "count",
    "connectivity.cell_realizations_per_s": "1/s",
    "optimize.self_s": "s",
    "optimize.grid_calls": "count",
    "oracle.self_s": "s",
    "oracle.draws": "count",
    "oracle.ns_per_draw": "ns",
    "closed_form.calls": "count",
    "closed_form.us_per_call": "us",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_spans": "count",
}


class Sample:
    """One child process: its report, or why it failed."""

    def __init__(self, report: dict | None, failure: str | None):
        self.report = report
        self.failure = failure
        self.ref_s: float | None = None  # reference kernel, mean of before and after

    @property
    def digest(self) -> str | None:
        if self.report is None:
            return None
        return hashlib.sha256(self.report["stdout"].encode()).hexdigest()

    def record(self) -> dict:
        r = self.report or {}
        keys = ("setup_s", "run_s", "peak_rss_mb", "exit_code")
        return {**{k: r.get(k) for k in keys}, "ref_s": self.ref_s, "digest": self.digest,
                "failure": self.failure}


def reference_kernel() -> float:
    """Seconds taken by fixed numpy work shaped like the package's own.

    Per-realization generator construction and small-array calls, then
    elementwise math and a bincount over a mid-sized array.  It never touches
    uavgrid, so its time only tracks how fast the machine runs right now.  It
    runs in this process, between children, so it adds nothing to a child's
    peak RSS.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        g = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        x = g.random((10, 3))
        acc += float(np.sqrt(x[np.argsort(x[:, 0])][:, 1]).sum())
    a = np.random.default_rng(1).random(50_000)
    idx = (a * 1000).astype(np.int64)
    for _ in range(60):
        c, s = np.abs(np.cos(a)), np.abs(np.sin(a))
        v = np.clip(np.where(s > 0.5, c / s, np.inf), 0.0, 1.0)
        acc += float(np.bincount(idx, weights=v).sum())
    return time.perf_counter() - t0


def run_child(argv: list[str], trace: bool) -> Sample:
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0", "--", *argv]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(None, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return Sample(None, f"child exited {proc.returncode}: {tail[0]}")
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return Sample(None, "child printed no report")
    return Sample(report, None)


def check_sample(sample: Sample, workload, expected_digest: str | None) -> Sample:
    """Fill in sample.failure from exit code, output check and digest."""
    if sample.failure is None:
        r = sample.report
        if r["exit_code"] != 0:
            sample.failure = f"exit code {r['exit_code']}: {r['stderr'].strip()[-200:]}"
        elif (reason := workload.check(r["stdout"], r["stderr"])) is not None:
            sample.failure = f"output check: {reason}"
        elif expected_digest is not None and sample.digest != expected_digest:
            sample.failure = "stdout digest differs from the run's first sample"
    return sample


def determinism_check(workload, seed: int) -> str | None:
    """Untimed: stdout must not depend on the worker count."""
    digests = []
    for workers in ("1", "2"):
        sample = run_child([*workload.argv(seed, workload.determinism_args), "--workers", workers],
                           trace=False)
        if sample.failure is not None:
            return f"--workers {workers}: {sample.failure}"
        if sample.report["exit_code"] != 0:
            return f"--workers {workers}: exit code {sample.report['exit_code']}"
        digests.append(sample.digest)
    return None if digests[0] == digests[1] else "stdout differs between --workers 1 and 2"


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians of times over traced samples, exact counts."""
    traces = [r["trace"] for r in traced]
    counts = traces[0]["counts"]

    def med(key, layer):
        return statistics.median(t[key][layer] for t in traces)

    def count(name):
        return counts.get(name, 0)

    def run_s(reports):
        return statistics.median(r["run_s"] for r in reports)

    calls, points, links = count("sampling.calls"), count("sampling.points"), count("scoring.links")
    draws, closed = count("oracle.draws"), count("closed_form.calls")
    return {
        "sampling.self_s": med("self_s", "sampling"),
        "sampling.calls": calls,
        "sampling.points": points,
        "sampling.draws_per_realization": _ratio(calls, count("connectivity.max_realizations")),
        "sampling.us_per_draw": _ratio(med("total_s", "sampling"), calls, 1e6),
        "scoring.self_s": med("self_s", "scoring"),
        "scoring.links": links,
        "scoring.links_per_point": _ratio(links, points),
        "scoring.ns_per_link": _ratio(med("total_s", "scoring"), links, 1e9),
        "connectivity.self_s": med("self_s", "connectivity"),
        "connectivity.calls": count("connectivity.calls"),
        "connectivity.cells": count("connectivity.cells"),
        "connectivity.cell_realizations_per_s": _ratio(
            count("connectivity.cell_realizations"), med("total_s", "connectivity")
        ),
        "optimize.self_s": med("self_s", "optimize"),
        "optimize.grid_calls": count("optimize.grid_calls"),
        "oracle.self_s": med("self_s", "oracle"),
        "oracle.draws": draws,
        "oracle.ns_per_draw": _ratio(med("total_s", "oracle"), draws, 1e9),
        "closed_form.calls": closed,
        "closed_form.us_per_call": _ratio(med("total_s", "closed_form"), closed, 1e6),
        "cli.self_s": statistics.median(t["cli_self_s"] for t in traces),
        "trace.overhead_s": run_s(traced) - run_s(untraced),
        "trace.absent_spans": len(traces[0]["absent"]),
    }


def tracer_self_test(traced: list[dict]) -> str | None:
    """Exact counts must repeat across traced samples of one command."""
    from tracer import EXACT_COUNTS

    first = traced[0]["trace"]["counts"]
    for r in traced[1:]:
        for name in EXACT_COUNTS:
            if r["trace"]["counts"].get(name, 0) != first.get(name, 0):
                return f"{name} differs between traced runs"
    return None


def environment(child_report: dict | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            revision = out.stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "uavgrid").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    r = child_report or {}
    return {
        "python": platform.python_version(),
        "numpy": r.get("numpy", "unknown"),
        "scipy": r.get("scipy", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
    }


def baseline_digest(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    data = json.loads(BASELINE.read_text())
    return data.get("workloads", {}).get(workload, {}).get("digests", {}).get(str(seed))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    checks: dict[str, str | None] = {}
    if workload.determinism_args is not None:
        checks["determinism"] = determinism_check(workload, seed)

    argv = workload.argv(seed)
    kinds = (False, True) if trace else (False,)
    samples: dict[bool, list[Sample]] = {kind: [] for kind in kinds}
    expected_digest = None
    start = time.perf_counter()
    ref_before = reference_kernel()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            sample = check_sample(run_child(argv, kind), workload, expected_digest)
            ref_after = reference_kernel()
            sample.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            if expected_digest is None and sample.failure is None:
                expected_digest = sample.digest
            samples[kind].append(sample)
        round_s = time.perf_counter() - round_start
        done = min(len(s) for s in samples.values())
        # stop before a further round would overrun the measuring time
        if done >= MIN_SAMPLES and time.perf_counter() - start + round_s > seconds:
            break

    all_samples = [s for kind in kinds for s in samples[kind]]
    good = {kind: [{**s.report, "ref_s": s.ref_s} for s in samples[kind] if s.failure is None]
            for kind in kinds}
    attempted = len(all_samples) + len(checks)
    failed = sum(s.failure is not None for s in all_samples) + sum(v is not None for v in checks.values())

    metrics: dict[str, float] = {}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if good[False] and (not trace or good[True]):
        if trace:
            checks["tracer"] = tracer_self_test(good[True])
            failed += checks["tracer"] is not None
            attempted += 1
            metrics = layer_metrics(good[True], good[False])
        else:
            metrics = {
                "setup_s": REFERENCE_S * statistics.median(
                    r["setup_s"] / r["ref_s"] for r in good[False]
                ),
                "run_rel": statistics.median(r["run_s"] / r["ref_s"] for r in good[False]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good[False]),
            }
    first = next((s.report for s in all_samples if s.report is not None), None)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(first),
        "digest": expected_digest,
        "baseline_digest": baseline_digest(workload.name, seed),
        "absent_spans": next(
            (s.report["trace"]["absent"] for s in samples.get(True, []) if s.report), []
        ),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and len(metrics) == len(units),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {("traced" if kind else "untraced"): [s.record() for s in samples[kind]]
                    for kind in kinds},
    }


def print_report(result: dict) -> None:
    p = result
    env = p["environment"]
    print(f"== {p['workload']}  seed={p['seed']}  trace={p['trace']}  "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu']}, rev {env['git_revision'][:12]}")
    for kind, records in p["samples"].items():
        good = [r for r in records if r["failure"] is None]
        if len(good) >= 2:
            q1, med, q3 = statistics.quantiles([r["run_s"] for r in good], n=4)
            ref = statistics.median(r["ref_s"] for r in good)
            setup = statistics.median(r["setup_s"] for r in good)
            spread = (f"run_s q1 {q1:.4f}, median {med:.4f}, q3 {q3:.4f} s; "
                      f"raw setup_s median {setup:.4f} s; ref_s median {ref:.4f} s")
        else:
            spread = "too few good samples"
        print(f"   {kind}: {len(records)} samples ({spread})")
        for r in records:
            if r["failure"] is not None:
                print(f"   FAILED sample: {r['failure']}")
    for name, reason in p["checks"].items():
        print(f"   check {name}: {'ok' if reason is None else 'FAILED: ' + reason}")
    for name, m in p["metrics"].items():
        print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"   {'error_rate':40s} {p['failed'] / p['attempted']:.6g} ratio "
          f"({p['failed']} of {p['attempted']} attempts failed)")
    if p["absent_spans"]:
        print(f"   absent spans: {', '.join(p['absent_spans'])}")
    if p["baseline_digest"] is None:
        status = "no baseline record for this seed"
    else:
        status = "same as baseline" if p["digest"] == p["baseline_digest"] else "CHANGED from baseline"
    print(f"   stdout sha256 {p['digest']} ({status})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "uavgrid" / "cli.py").is_file():
        print(f"error: no uavgrid sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print_report(result)
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
