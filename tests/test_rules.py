"""Each argument rule lives in one function, and every entry point calls it.

A refusal names the one argument that is wrong, and it comes before anything
is drawn.  A vehicle height is refused alike at every entry that takes one.
"""

import math

import pytest

import uavgrid.connectivity as connectivity
import uavgrid.geometry as geometry
import uavgrid.oracle as oracle
from uavgrid.connectivity import _scenario, estimate_distribution, outage_grid
from uavgrid.geometry import (
    MAX_KEY,
    PRESETS,
    InvalidGeometryError,
    SamplingEnvelope,
    sample_envelope_points,
)
from uavgrid.los import LinkGeometry, Placement, los_probability_batch
from uavgrid.optimize import optimize_height
from uavgrid.oracle import validation_sweep

URBAN = PRESETS["urban"]


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if anything draws UAVs or city draws."""
    def refuse(*args, **kwargs):
        raise AssertionError("drew for a refused call")

    monkeypatch.setattr(connectivity, "sample_envelope_points", refuse)
    for name in ("_philox_rows", "_generator_rows"):
        monkeypatch.setattr(geometry, name, refuse)
    monkeypatch.setattr(oracle, "empirical_los_probability", refuse)


def _named(error: ValueError, names) -> list[str]:
    message = str(error)
    assert "\n" not in message
    return [name for name in names if name in message]


RUN_ENTRIES = {
    "outage_grid": lambda run: outage_grid(URBAN, 250.0, 10.0, [20e-6], [100.0], 0.8, **run),
    "estimate_distribution": lambda run: estimate_distribution(URBAN, 250.0, 10.0, [20e-6],
                                                               [100.0], [0.8], **run),
    "optimize_height": lambda run: optimize_height(URBAN, 250.0, 10.0, 20e-6, 60.0, 200.0, **run),
}


@pytest.mark.parametrize("entry", sorted(RUN_ENTRIES))
@pytest.mark.parametrize("name, bad", [
    ("n_realizations", 1.5), ("n_realizations", True), ("n_realizations", 0),
    ("seed", 2.0), ("seed", False), ("seed", -1), ("seed", MAX_KEY + 1),
    ("workers", "2"), ("workers", True), ("workers", connectivity.MAX_WORKERS + 1),
])
def test_a_run_refusal_names_only_the_wrong_argument(entry, name, bad, no_draw):
    run = {"n_realizations": 10, "seed": 1, "workers": 1, name: bad}
    with pytest.raises(ValueError) as info:
        RUN_ENTRIES[entry](run)
    assert _named(info.value, ("n_realizations", "seed", "workers")) == [name]


@pytest.mark.parametrize("gammas", [[math.nan], [0.8, -0.1], [1.5, 0.8], []])
def test_a_gamma_axis_refusal_is_one_line(gammas, no_draw):
    with pytest.raises(ValueError) as info:
        estimate_distribution(URBAN, 250.0, 10.0, [20e-6], [100.0], gammas, 10, 1)
    assert _named(info.value, ("gamma_values", "n_realizations", "seed", "workers")) == \
        ["gamma_values"]


@pytest.mark.parametrize("name, key", [
    ("seed", (1.5, 0, 3)), ("seed", (True, 0, 3)), ("seed", (MAX_KEY + 1, 0, 3)),
    ("start", (7, 0.5, 3)), ("start", (7, -1, 3)), ("start", (7, MAX_KEY + 2, MAX_KEY + 2)),
    ("stop", (7, 0, 3.0)), ("stop", (7, 3, 2)), ("stop", (7, 0, MAX_KEY + 2)),
])
def test_a_sampler_refusal_names_only_the_wrong_key_word(name, key, no_draw):
    with pytest.raises(ValueError) as info:
        sample_envelope_points(SamplingEnvelope(lambda_cap=20e-6, d_cap=233.0), *key)
    assert _named(info.value, ("seed", "start", "stop")) == [name]


@pytest.mark.parametrize("h_v", [-1.0, math.nan, math.inf])
def test_every_entry_refuses_a_vehicle_height_alike(h_v, no_draw):
    entries = (
        lambda: _scenario(250.0, h_v, [20e-6], [100.0]),
        lambda: LinkGeometry(d=100.0, phi=0.3, h_uav=100.0, h_v=h_v),
        lambda: los_probability_batch([100.0], [0.8], [0.6], 100.0, h_v, URBAN,
                                      Placement.INTERSECTION),
        lambda: validation_sweep(cases=2, n=100, seed=1, h_v=h_v),
    )
    refusals = set()
    for entry in entries:
        with pytest.raises(ValueError) as info:
            entry()
        refusals.add((type(info.value), str(info.value)))
    assert refusals == {(InvalidGeometryError, "vehicle height h_v must be finite and >= 0")}
