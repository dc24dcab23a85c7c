"""Outside-in layer tracer for one uavgrid run.

Spans are recorded by replacing public functions at each layer boundary with
timing wrappers, bound by module attribute, so nothing in the package changes.
Every span is kept in memory as (layer, start, end, parent index) and the
per-layer numbers are derived once the run has ended.

A binding whose attribute no longer exists is reported as absent, not raised:
a later refactor may move a function, and the timed runs never install the
tracer at all.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from functools import wraps


def _size(value) -> int:
    return int(getattr(value, "size", len(value)))


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    return arguments


def _count_sampling(fn):
    def count(counts, args, kwargs, result):
        counts["sampling.calls"] += 1
        counts["sampling.points"] += _size(result[0])

    return count


def _count_scoring(fn):
    arguments = _bound(fn)

    def count(counts, args, kwargs, result):
        counts["scoring.links"] += _size(arguments(args, kwargs)["d"])

    return count


def _count_connectivity(fn):
    arguments = _bound(fn)

    def count(counts, args, kwargs, result):
        a = arguments(args, kwargs)
        if "config" in a:  # estimate_distribution: one (density, height) cell
            cells, n = 1, a["config"].n_realizations
        else:  # outage_grid
            cells, n = len(a["lambda_values"]) * len(a["height_values"]), a["n_realizations"]
        counts["connectivity.calls"] += 1
        counts["connectivity.cells"] += cells
        counts["connectivity.cell_realizations"] += cells * n
        counts["connectivity.max_realizations"] = max(counts["connectivity.max_realizations"], n)

    return count


def _count_calls(layer):
    def make(fn):
        def count(counts, args, kwargs, result):
            counts[f"{layer}.calls"] += 1

        return count

    return make


def _count_oracle(fn):
    arguments = _bound(fn)

    def count(counts, args, kwargs, result):
        counts["oracle.draws"] += int(arguments(args, kwargs)["n"])

    return count


# (layer, module, attribute, counter factory).  The factory receives the
# original function, so argument names are resolved against its signature.
BINDINGS = (
    ("sampling", "uavgrid.connectivity", "sample_envelope_points", _count_sampling),
    ("scoring", "uavgrid.connectivity", "los_probability_batch", _count_scoring),
    ("connectivity", "uavgrid.cli", "estimate_distribution", _count_connectivity),
    ("connectivity", "uavgrid.cli", "outage_grid", _count_connectivity),
    ("connectivity", "uavgrid.optimize", "outage_grid", _count_connectivity),
    ("optimize", "uavgrid.cli", "optimize_height", _count_calls("optimize")),
    ("optimize", "uavgrid.cli", "sweep_contour", _count_calls("optimize")),
    ("oracle", "uavgrid.oracle", "empirical_los_probability", _count_oracle),
    ("closed_form", "uavgrid.oracle", "los_probability", _count_calls("closed_form")),
)

LAYERS = ("sampling", "scoring", "connectivity", "optimize", "oracle", "closed_form")

# Counts that must repeat exactly between two traced runs of one command.
EXACT_COUNTS = (
    "sampling.calls",
    "sampling.points",
    "scoring.links",
    "connectivity.cells",
    "oracle.draws",
)


class Tracer:
    """In-memory span stack plus per-layer counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _wrap(self, layer, fn, count):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every bound attribute that resolves with its traced wrapper."""
        for layer, module_name, attr, factory in BINDINGS:
            target = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            setattr(module, attr, self._wrap(layer, fn, factory(fn)))

    def summary(self, run_s: float) -> dict:
        """Per-layer self and total seconds plus counters, for a run of run_s."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = dict.fromkeys(LAYERS, 0.0)
        top_level = 0.0
        grid_calls = 0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[layer] += duration - child_time[i]
            total_s[layer] += duration
            if parent is None:
                top_level += duration
            elif layer == "connectivity" and self.spans[parent][0] == "optimize":
                grid_calls += 1
        counts = dict(self.counts)
        counts["optimize.grid_calls"] = grid_calls
        return {
            "self_s": self_s,
            "total_s": total_s,
            "cli_self_s": run_s - top_level,
            "counts": counts,
            "absent": list(self.absent),
        }
