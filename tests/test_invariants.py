"""The Monte Carlo counter's invariants over drawn scenarios, chunk sizes and worker counts.

Each example draws a city (a preset, or one with a street of no width at the
vehicle), a radio scenario, a density axis that holds 0 and the envelope's
top density, one to three heights, caps (none or loose), a placement mode,
a gamma axis and a run, then checks bit for bit that

  * the counts do not depend on the chunk size or the worker count;
  * a held draw counts as a fresh one;
  * outage never rises with density, nor with a wider r_max on a shared envelope;
  * a grid cell equals the one-cell grid on the same envelope, and
    outage_grid equals estimate_distribution's counts, blended;
  * the intersection's outage is at most the street's, and the mixture lies
    between them (within the rounding of the blend);
  * optimize_height's h* lies in its window, at steps below 1e-10 too, and
    its outage is the grid's at h*.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavgrid.connectivity as connectivity
from uavgrid.connectivity import PlacementMode, estimate_distribution, mixture_cdf, outage_grid
from uavgrid.geometry import PRESETS, ground_range
from uavgrid.optimize import optimize_height

# the blend w * a + (1 - w) * b is rounded, so it may leave [a, b] by a few ulp of 1.0
BLEND_SLACK = 4 * sys.float_info.epsilon


@dataclasses.dataclass(frozen=True)
class Scenario:
    city: object
    r_max: float
    h_v: float
    lambda_values: list
    height_values: list
    gamma_values: list
    n_realizations: int
    seed: int
    placement_mode: PlacementMode
    lambda_cap: float | None
    d_cap: float | None

    def args(self, **changes):
        """estimate_distribution's and outage_grid's arguments, gammas aside."""
        s = dataclasses.replace(self, **changes)
        return ((s.city, s.r_max, s.h_v, s.lambda_values, s.height_values),
                (s.n_realizations, s.seed, s.placement_mode, s.lambda_cap, s.d_cap))

    def counts(self, **changes):
        head, tail = self.args(**changes)
        return estimate_distribution(*head, self.gamma_values, *tail)

    def grid(self, **changes):
        head, tail = self.args(**changes)
        return outage_grid(*head, self.gamma_values[0], *tail)

    @property
    def caps(self):
        """The envelope's caps, resolved as _scenario resolves a missing one."""
        d_top = ground_range(self.r_max, min(self.height_values), self.h_v)
        return (max(self.lambda_values) if self.lambda_cap is None else self.lambda_cap,
                d_top if self.d_cap is None else self.d_cap)


@st.composite
def cities(draw):
    """A preset, or a preset with no width to one street at the vehicle."""
    city = draw(st.sampled_from(list(PRESETS.values())))
    narrow = draw(st.sampled_from([(), ("w_v",), ("w_h",)]))
    return dataclasses.replace(city, **{name: 0.0 for name in narrow})


@st.composite
def scenarios(draw):
    city = draw(cities())
    r_max = draw(st.floats(100.0, 400.0))
    h_v = draw(st.floats(0.0, 20.0))
    top = draw(st.floats(1e-6, 60e-6))  # per m2
    inside = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=3))
    heights = draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3, unique=True))
    heights = sorted({h_v + f * r_max for f in heights})
    loose = st.one_of(st.none(), st.floats(1.0, 2.0))
    lambda_loose, d_loose = draw(loose), draw(loose)
    return Scenario(
        city=city, r_max=r_max, h_v=h_v,
        lambda_values=sorted({0.0, top, *(f * top for f in inside)}),
        height_values=heights,
        gamma_values=draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                                   min_size=1, max_size=3)),
        n_realizations=draw(st.integers(1, 700)),
        seed=draw(st.integers(0, 2**64 - 1)),
        placement_mode=draw(st.sampled_from(PlacementMode)),
        lambda_cap=None if lambda_loose is None else top * lambda_loose,
        d_cap=None if d_loose is None else ground_range(r_max, heights[0], h_v) * d_loose,
    )


@given(s=scenarios(), chunk_size=st.sampled_from([1, 5, 64, 8192]),
       max_chunk_points=st.sampled_from([64, connectivity.MAX_CHUNK_POINTS]),
       workers=st.sampled_from([1, 3]), cell=st.tuples(st.integers(0, 5), st.integers(0, 2)),
       wider=st.floats(1.0, 1.5))
@settings(max_examples=15, deadline=None)
def test_counts_keep_their_invariants(s, chunk_size, max_chunk_points, workers, cell, wider):
    counts = s.counts()
    head, tail = s.args()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(connectivity, "CHUNK_SIZE", chunk_size)
        patched.setattr(connectivity, "MAX_CHUNK_POINTS", max_chunk_points)
        chunked = estimate_distribution(*head, s.gamma_values, *tail, workers=workers)
        assert chunked.tobytes() == counts.tobytes()
        # the first call draws the held layouts, the second counts them again
        held = {}
        for _ in range(2):
            again = estimate_distribution(*head, s.gamma_values, *tail, workers=workers, held=held)
            assert again.tobytes() == counts.tobytes()

    # the density axis ascends
    assert np.all(np.diff(counts, axis=2) <= 0)
    # a wider r_max on a shared envelope only adds links
    lambda_cap, d_cap = s.caps
    shared = dict(lambda_cap=lambda_cap,
                  d_cap=max(d_cap, ground_range(s.r_max * wider, s.height_values[0], s.h_v)))
    assert np.all(s.counts(r_max=s.r_max * wider, **shared) <= s.counts(**shared))

    # one cell of the grid, scored alone on the grid's envelope
    i, j = cell[0] % len(s.lambda_values), cell[1] % len(s.height_values)
    one = dict(lambda_values=[s.lambda_values[i]], height_values=[s.height_values[j]],
               lambda_cap=lambda_cap, d_cap=d_cap)
    assert s.counts(**one)[:, :, 0, 0].tobytes() == counts[:, :, i, j].tobytes()
    grid = s.grid()
    assert grid[i, j] == s.grid(**one)[0, 0]
    fractions = counts[:, 0] / s.n_realizations
    if s.placement_mode is PlacementMode.MIXTURE:
        assert np.all(counts[0] <= counts[1])
        assert grid.tobytes() == mixture_cdf(fractions[0], fractions[1], s.city).tobytes()
        assert np.all(fractions[0] - BLEND_SLACK <= grid)
        assert np.all(grid <= fractions[1] + BLEND_SLACK)
    else:
        assert grid.tobytes() == fractions[0].tobytes()


@given(city=cities(), r_max=st.floats(100.0, 400.0), h_v=st.floats(0.0, 20.0),
       lambda_uav=st.one_of(st.just(0.0), st.floats(1e-6, 60e-6)),
       # h_lo at a fraction of r_max up to 0.5, then a window of at most 45 m: it fits
       window=st.tuples(st.floats(0.02, 0.5), st.one_of(st.floats(1e-10, 1e-8),
                                                        st.floats(0.5, 45.0))),
       points=st.integers(1, 30), refine_tol=st.floats(1e-12, 10.0),
       gamma_th=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       n=st.integers(1, 200), seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from(PlacementMode), chunk_size=st.sampled_from([1, 5, 64, 8192]),
       workers=st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_optimize_height_stays_in_its_window(city, r_max, h_v, lambda_uav, window, points,
                                             refine_tol, gamma_th, n, seed, mode, chunk_size,
                                             workers):
    h_lo = h_v + window[0] * r_max
    h_hi = h_lo + window[1]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(connectivity, "CHUNK_SIZE", chunk_size)
        h_star, outage_star = optimize_height(
            city, r_max, h_v, lambda_uav, h_lo, h_hi, gamma_th, n, seed, mode, workers,
            grid_step=window[1] / points, refine_tol=refine_tol)
    assert h_lo <= h_star <= h_hi
    # the search's envelope is the grid pass's, whose widest disk is at h_lo
    at_star = outage_grid(city, r_max, h_v, [lambda_uav], [h_star], gamma_th, n, seed, mode,
                          d_cap=ground_range(r_max, h_lo, h_v))
    assert outage_star == at_star[0, 0]
