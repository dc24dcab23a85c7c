"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--write-baseline]

Runs perfbench/run.py once per seed (seeds 1..N) on each workload, with the
run length from BENCHMARK.json, and prints for every end-to-end metric the
median and the distance between its first and third quartile as a share of
the median, next to the metric's bound.  A spread under a third of the bound
is marked steady.  --write-baseline also makes one traced run per workload
(seed 1) and stores the medians, quartiles, per-seed stdout digests, the
per-layer metrics and the environment in perfbench/baseline.json; run.py
compares each run's digest against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its summary line and its full results record."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    record = json.loads((HERE / "results" / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(out.splitlines()[-1]), record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        digests = {}
        for seed in range(1, args.seeds + 1):
            result, record = bench(name, seed, seconds, 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: not correct", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            digests[str(seed)] = record["digest"]
            baseline["environment"] = record["environment"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.4f}" for m in bounds), flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < bounds[metric] / 3
            steady &= ok
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": share}
            print(f"  {name:18s} {metric:12s} median {med:.4f}  spread {share:.4f}  "
                  f"bound {bounds[metric]}  {'steady' if ok else 'NOT STEADY'}")
        baseline["workloads"][name] = {"end_to_end": summary, "digests": digests}
        if args.write_baseline:
            result, _ = bench(name, 1, seconds, 1)
            if not result["correct"]:
                print(f"{name} traced: not correct", file=sys.stderr)
                return 1
            baseline["workloads"][name]["per_layer_seed1"] = {
                k: m["value"] for k, m in result["metrics"].items()
            }

    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
