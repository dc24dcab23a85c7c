"""Monte Carlo estimation of the connectivity distribution.

A vehicle is connected at level p_c = 1 - prod(1 - p_LoS) over the UAVs in
range.  Realizations are drawn and scored in chunks; every realization owns
numpy's Philox substream keyed by (seed, realization index), and one call of
geometry.sample_envelope_points draws a whole chunk's substreams.  So results
do not depend on chunking, worker count, or evaluation order, and scenarios
that share a sampling envelope see nested constellations (see geometry).

One chunk scorer and one counter serve every command.  An envelope point
joins density fraction f of the envelope cap when its uniform mark is below
f, so with each realization's points ranked by mark every density sees its
first ranks.  The chunk is laid out rank-major, one row per rank and one
column per realization, and the scorer takes exact running products of the
link factors 1 - p_LoS down each column, one vector multiply per rank.
Every factor lies in [0, 1] and rounding is monotone, so the survival
product never rises down a column and the score 1 - P never falls: each
(realization, height, placement) crosses a threshold gamma at most once.
Its crossing mark, the mark of the first link with 1 - P > gamma (+inf if
there is none), settles every density at once: fraction f is in outage
exactly when the crossing mark is >= f.  The ranks before the crossing are
the ones still at or below the threshold, so their count is the crossing
rank.  estimate_distribution counts the whole density axis with one sort and
one searchsorted per (gamma, height, placement), and its outage cannot rise
with density, by construction rather than on average.  A grid of one density
fraction is laid out at that fraction, so every mark in the layout is below
it and a realization is in outage exactly when it never crosses, that is,
when its last rank is still at or below gamma: such a grid reads only the
last rank's running products and counts its whole gamma axis from them, bit
for bit the counts the crossing marks give.  No count forms a score: a score
1 - P is at or below gamma exactly when P is at or above one survival bound
per gamma (_survival_bounds), so every count compares running products with it.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    MAX_KEY,
    CityModel,
    InvalidGeometryError,
    SamplingEnvelope,
    check_integer,
    check_vehicle_height,
    ground_range,
    intersection_weight,
    sample_envelope_points,
)
from .los import Placement, los_probability_batch

# Realizations per chunk; results do not depend on it (see the module docstring).
CHUNK_SIZE = 8192

# The most envelope points a chunk draws on average: a denser envelope gets
# fewer realizations a chunk.  At 957 UAVs per realization, 8192 realizations
# peaked at 1.3 GB and 1096 at 153 MB over the start (maximum RSS, urban).
MAX_CHUNK_POINTS = 2**20


class PlacementMode(enum.Enum):
    INTERSECTION_ONLY = "intersection-only"
    STREET_ONLY = "street-only"
    MIXTURE = "mixture"

    @property
    def placements(self) -> tuple[Placement, ...]:
        if self is PlacementMode.INTERSECTION_ONLY:
            return (Placement.INTERSECTION,)
        if self is PlacementMode.STREET_ONLY:
            return (Placement.STREET,)
        return (Placement.INTERSECTION, Placement.STREET)


# The most realizations a run takes, far above any run that can finish.
MAX_REALIZATIONS = 10**9

# The most worker threads a run takes.  A pool runs min(workers, chunks)
# chunks at once, each with its own working memory (up to about 150 MB at
# MAX_CHUNK_POINTS), and 10**8 realizations make over 12,000 chunks, so an
# unbounded --workers could start that many threads and chunks at once.
MAX_WORKERS = 256


def check_run(n_realizations: int, seed: int, workers: int) -> None:
    """Reject run parameters no Monte Carlo run can use, non-integers too (ValueError)."""
    check_integer("n_realizations", n_realizations, 1, MAX_REALIZATIONS)
    check_integer("seed", seed, 0, MAX_KEY)
    check_integer("workers", workers, 1, MAX_WORKERS)


def check_probability(name: str, value) -> None:
    """The one probability rule: value in [0, 1], else ValueError naming it (NaN fails)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


# The most UAVs one realization draws on average (envelope mean_count): about
# 5,000 per km2 on a 250 m disk.  A chunk holds all its realizations' points:
# at the bound, a distribution run of one full chunk peaked 1.33 GB above its
# start (maximum RSS, urban, 2-vCPU x86 VM).
MAX_ENVELOPE_POINTS = 1000.0

# The most UAVs an estimate_distribution call with held layouts may hold on
# average, n_realizations times the envelope's mean_count.  The layouts keep
# 41-56 bytes per held point (the summed nbytes of a draw's layouts: 56 at
# 5.7 UAVs per realization, 41 at 957), so a draw at the bound holds about
# 0.4-0.56 GB.
MAX_HELD_POINTS = 10**7


def _scenario(r_max, h_v, lambda_values, height_values, lambda_cap=None, d_cap=None):
    """The one scenario rule: check a scenario and carve its sampling envelope.

    Returns (lambda_values, height_values, envelope), the axes as float
    lists.  An empty axis raises ValueError.  Densities must be finite and
    >= 0, h_v finite and >= 0, r_max positive with a finite square, and
    every altitude inside (h_v, h_v + r_max) (InvalidGeometryError).  A
    missing cap is the scenario's top: its highest density, or the ground
    range at its lowest altitude.  Given caps must be positive, finite and
    cover the scenario, at every density, and the envelope may draw at most
    MAX_ENVELOPE_POINTS UAVs per realization on average (InvalidGeometryError).
    At top density 0 there is nothing to draw: the envelope is None.
    """
    lambda_values = [float(v) for v in lambda_values]
    height_values = [float(h) for h in height_values]
    if not lambda_values or not height_values:
        raise ValueError("grid axes cannot be empty")
    if not all(0.0 <= lam < math.inf for lam in lambda_values):
        raise InvalidGeometryError("densities must be finite and non-negative")
    check_vehicle_height(h_v)
    # a finite r_max whose square overflows would give an infinite ground disk
    if not (0.0 < r_max and r_max * r_max < math.inf):
        raise InvalidGeometryError(f"r_max must be positive with a finite square, got {r_max}")
    for h in height_values:
        if not h_v < h < h_v + r_max:
            raise InvalidGeometryError(
                f"altitude {h} outside the feasible range ({h_v}, {h_v + r_max})"
            )
    for cap in (lambda_cap, d_cap):
        if cap is not None and not 0.0 < cap < math.inf:
            raise InvalidGeometryError("envelope caps must be positive and finite")
    lambda_top = max(lambda_values)
    d_top = ground_range(r_max, min(height_values), h_v)
    lambda_cap = lambda_top if lambda_cap is None else lambda_cap
    d_cap = d_top if d_cap is None else d_cap
    if lambda_top > lambda_cap or d_top > d_cap:
        raise InvalidGeometryError("the scenario exceeds its sampling envelope")
    if lambda_top == 0.0:
        return lambda_values, height_values, None
    envelope = SamplingEnvelope(lambda_cap, d_cap)
    if envelope.mean_count > MAX_ENVELOPE_POINTS:
        raise InvalidGeometryError(
            f"the sampling envelope draws {envelope.mean_count:.4g} UAVs per realization "
            f"on average, above the bound of {MAX_ENVELOPE_POINTS:g}"
        )
    return lambda_values, height_values, envelope


class ChunkLayout(NamedTuple):
    """One chunk's points with mark below frac_top, laid out by mark.

    The points are laid out as a rank x realization array: realization i's
    points fill column i from rank 0 in ascending mark order, and the column
    is padded below them.  marks holds the laid-out marks, +inf in padding,
    plus one more rank of +inf, the sentinel that stands for "never crosses"
    (see _chunk_outage_counts).  d, cos_phi, sin_phi and slot (the flat index
    rank * realizations + i of each point in the layout) list the points by
    ascending distance, so every ground disk is a prefix of them; equal
    distances may be listed in any order.  cos_phi and sin_phi are the folded
    direction cosines |cos phi|, |sin phi| of the drawn azimuths, computed
    once per draw rather than once per scored height.  Only _lay_out builds
    a layout, and the arrays are shared by every height scored on it and by
    every worker thread that scores it, so _lay_out makes them read-only: a
    write raises ValueError.
    """

    d: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    slot: np.ndarray
    marks: np.ndarray


def _lay_out(d, phi, mark, counts, frac_top) -> ChunkLayout:
    """Lay out the drawn points with mark below frac_top.

    d, phi and mark list the points realization by realization, counts[i]
    of them for realization i, as sample_envelope_points returns them.
    These are the only sorts of a draw: each column by mark, then the points
    by distance, so the order within a realization matters only between
    exactly equal marks, which keep it.  Equal distances need no order:
    factors reach their cells by slot, and a disk's prefix ends after the
    last of them.  Besides the sort's index, marks is the only array of the
    layout's shape: it is filled in draw order, then overwritten in mark order.
    """
    m = counts.size
    keep = mark < frac_top
    ridx = np.repeat(np.arange(m), counts)[keep]
    d, phi, mark = d[keep], phi[keep], mark[keep]
    kept = np.bincount(ridx, minlength=m)
    width = max(int(kept.max(initial=0)), 1)
    first = np.repeat(np.cumsum(kept) - kept, kept)
    slot = (np.arange(ridx.size) - first) * m + ridx
    marks = np.full((width + 1, m), np.inf)
    flat = marks.reshape(-1)
    flat[slot] = mark
    # A stable sort of each realization's column keeps equal marks in draw
    # order and the padding last, so its points still fill its first ranks:
    # the slots stay, and only which point sits in each one changes.
    src = first + np.argsort(marks, axis=0, kind="stable").reshape(-1)[slot]
    flat[slot] = mark[src]
    by_distance = np.argsort(d[src])
    src, slot = src[by_distance], slot[by_distance]
    phi = phi[src]
    layout = ChunkLayout(d[src], np.abs(np.cos(phi)), np.abs(np.sin(phi)), slot, marks)
    for array in layout:
        array.flags.writeable = False
    return layout


def _chunk_scores(layout, city, r_max, h_v, height_values, placements, last_only=False):
    """Running survival products of one chunk's realizations: the one chunk scorer.

    Per (height, placement) the link factors 1 - p_LoS fill the chunk's mark
    layout without its sentinel rank (see ChunkLayout), with 1.0 for padding
    and for points outside the height's ground disk.  Then, rank by rank,
    one vector multiply takes P[r] = P[r - 1] * P[r] for every realization
    at once: the exact sequential running product down each column, in the
    order a running product along the realization's marks takes.  A
    height's disk is the prefix of the distance-ordered points with d <= its
    ground range; the slots put each factor at its (rank, realization)
    place whatever the listing order, and multiplying by 1.0 is exact, so
    rank k of a column is the realization's survival at every density whose
    fraction admits its first k + 1 marks and no more, and the last rank is
    its survival at the layout's frac_top, the one rank a grid of one
    density fraction reads (see _chunk_outage_counts).  A caller that reads
    only that rank passes last_only, and each step then reduces the ranks in
    one call instead of writing every running product.

    No factor exceeds 1 and rounding is monotone, so P never rises down a
    column and the score 1 - P crosses a threshold gamma at most once, at
    the column's crossing mark.  estimate_distribution counts density
    fraction f in outage exactly when that mark is >= f.  A higher density
    only lengthens the prefix it sees, so outage cannot rise with density,
    whatever the draw.

    Yields (placement index, height index, survival); survival has the
    shape of the layout's marks without the sentinel rank, or is the last
    rank alone under last_only.  It is one buffer, overwritten by the next
    step, so reduce it before advancing the generator.
    """
    d, cos_phi, sin_phi, slot, marks = layout
    survival = np.empty((marks.shape[0] - 1, marks.shape[1]))
    flat = survival.reshape(-1)
    last = np.empty(marks.shape[1])
    for j, h in enumerate(height_values):
        k = int(np.searchsorted(d, ground_range(r_max, h, h_v), side="right"))
        d_h, c_h, s_h, slot_h = d[:k], cos_phi[:k], sin_phi[:k], slot[:k]
        for ip, placement in enumerate(placements):
            factors = los_probability_batch(d_h, c_h, s_h, h, h_v, city, placement)
            np.subtract(1.0, factors, out=factors)
            flat.fill(1.0)
            flat[slot_h] = factors
            if last_only:
                # numpy's multiply reduction runs down axis 0 in rank order, one
                # product at a time (only addition takes the pairwise path), so
                # this is the rank loop's last rank bit for bit
                yield ip, j, np.multiply.reduce(survival, axis=0, out=last)
                continue
            for r in range(1, survival.shape[0]):
                np.multiply(survival[r - 1], survival[r], out=survival[r])
            yield ip, j, survival


# The bit pattern of 1.0.  The non-negative doubles ascend with their int64
# bit patterns, and [0.0, 1.0] holds fewer than 2**62 of them.
_ONE_BITS = int(np.float64(1.0).view(np.int64))


@functools.lru_cache(maxsize=64)
def _survival_bounds(gammas: tuple) -> np.ndarray:
    """s*(gamma) for each gamma of gammas: the least double s in [0, 1] with 1.0 - s <= gamma.

    Rounding is monotone, so x -> fl(1.0 - x) never rises, and a survival x
    in [0, 1] has a score 1.0 - x at or below gamma exactly when x >= s*.
    1.0 - 1.0 is 0.0, so s* exists.  It is found by bisection over the bit
    patterns of [0.0, 1.0], which ascend with the doubles they hold, so it
    takes at most 62 halvings whatever gamma is (a walk by adjacent doubles
    from 1 - gamma would take about 2**52 steps at gamma = 1 - 2**-53).  The
    bisection starts from a bracket that holds s* by monotone rounding: the
    double above fl(1 - gamma) lies above the real 1 - gamma, so it scores
    at most gamma, and the double below fl(1 - next(gamma)) lies below the
    real 1 - next(gamma), so it scores more than gamma.  Away from gamma
    near 1 that bracket holds a few patterns.  The bounds depend only on
    gammas, so each gamma axis is bisected once per process, and the array
    is read-only.
    """
    gammas = np.array(gammas)
    hi = np.minimum(np.nextafter(1.0 - gammas, 2.0).view(np.int64), _ONE_BITS)
    below = np.nextafter(1.0 - np.nextafter(gammas, 2.0), -1.0)
    lo = np.where(below >= 0.0, below.view(np.int64) + 1, 0)
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        in_outage = 1.0 - mid.view(np.float64) <= gammas
        lo, hi = np.where(in_outage, lo, mid + 1), np.where(in_outage, mid, hi)
    bounds = lo.view(np.float64)
    bounds.flags.writeable = False
    return bounds


def _chunk_outage_counts(layout, city, r_max, h_v, height_values, placements, fracs, gammas):
    """Realizations in outage per (placement, gamma, density, height) cell.

    The layout is laid out at the top fraction fracs.max(), as _map_chunks
    lays it out.  A realization is in outage at gamma where its survival is
    at or above gamma's survival bound (_survival_bounds), which is where
    its score is at or below gamma.  With several fractions, each (height,
    placement) finds every realization's crossing mark at each gamma and
    counts every fraction f with one sort and one searchsorted.  With one
    fraction every mark in the layout is below it, so the only outage is a
    column that never crosses: one whose last rank is at or above the bound.
    Then one count_nonzero counts a single gamma, and one sort of the
    last-rank survivals and one searchsorted count a longer gamma axis.
    """
    marks, columns = layout.marks, np.arange(layout.marks.shape[1])
    bounds = _survival_bounds(tuple(gammas.tolist()))
    counts = np.zeros((len(placements), gammas.size, fracs.size, len(height_values)),
                      dtype=np.int64)
    one_fraction = fracs.min() == fracs.max()
    if not one_fraction:
        # one flag per ranked point, reused by every (height, placement, gamma)
        above = np.empty((marks.shape[0] - 1, marks.shape[1]), dtype=bool)
        # a crossing rank is at most the width: uint16 sums fastest where it holds one
        rank_type = np.uint16 if above.shape[0] <= np.iinfo(np.uint16).max else np.intp
    scores = _chunk_scores(layout, city, r_max, h_v, height_values, placements,
                           last_only=one_fraction)
    for ip, j, survival in scores:
        if one_fraction and gammas.size == 1:
            counts[ip, 0, :, j] = np.count_nonzero(survival >= bounds[0])
        elif one_fraction:
            survival.sort()
            counts[ip, :, :, j] = (survival.size - np.searchsorted(survival, bounds))[:, None]
        else:
            for ig, bound in enumerate(bounds):
                # survival never rises along a column, so the ranks still at or
                # above the bound come first, and their count is the crossing
                # rank: the sentinel rank where it never crosses.  Its mark is
                # the crossing mark; fraction f is in outage iff that mark is >= f.
                np.greater_equal(survival, bound, out=above)
                ranks = np.add.reduce(above.view(np.uint8), axis=0, dtype=rank_type)
                crossing = marks[ranks, columns]
                crossing.sort()
                counts[ip, ig, :, j] = crossing.size - np.searchsorted(crossing, fracs)
    return counts


def _map_chunks(reduce, envelope, seed, n, frac_top, workers, held=None) -> list:
    """[reduce(layout) for each chunk of realizations [0, n)], in order: the one chunk map.

    Chunks tile [0, n) in order, each of at most CHUNK_SIZE realizations and
    MAX_CHUNK_POINTS envelope points on average.  Each chunk is drawn and laid
    out at frac_top (_lay_out), or taken from held, then reduced, so only what
    reduce returns outlives its chunk.  held is a dict of layouts by
    (envelope, seed, start, stop, frac_top) that outlives the call: a missing
    layout is drawn and kept there, a held one is reduced as it is.  A key
    names everything a layout depends on, so a held layout is the layout a
    fresh call draws for it.  A call with held may hold at most
    MAX_HELD_POINTS UAVs on average, checked before anything is drawn
    (ValueError).

    This is the one place a pool opens.  numpy releases the GIL inside its
    ufunc loops, chunks share only read-only layouts, each allocates its own
    buffers, and tasks of one call hold distinct keys, so the results are the
    serial results whatever the worker count.
    """
    held_points = n * envelope.mean_count
    if held is not None and held_points > MAX_HELD_POINTS:
        raise ValueError(f"the envelope draw would hold {held_points:.4g} UAVs on average "
                         f"({n} realizations), above the bound of {MAX_HELD_POINTS:g}")
    size = min(CHUNK_SIZE, max(1, int(MAX_CHUNK_POINTS / max(envelope.mean_count, 1.0))))
    keys = [(envelope, seed, start, min(start + size, n), frac_top) for start in range(0, n, size)]

    def chunk(key):
        layout = None if held is None else held.get(key)
        if layout is None:
            layout = _lay_out(*sample_envelope_points(*key[:4]), frac_top)
            if held is not None:
                held[key] = layout
        return reduce(layout)

    if workers <= 1 or len(keys) <= 1:
        return [chunk(key) for key in keys]
    # imported here: concurrent.futures loads logging, a cost a serial run skips
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(workers, len(keys))) as pool:
        return list(pool.map(chunk, keys))


def estimate_distribution(
    city: CityModel,
    r_max: float,
    h_v: float,
    lambda_values,
    height_values,
    gamma_values,
    n_realizations: int,
    seed: int,
    placement_mode: PlacementMode = PlacementMode.MIXTURE,
    lambda_cap: float | None = None,
    d_cap: float | None = None,
    workers: int = 1,
    held: dict | None = None,
) -> np.ndarray:
    """Realizations in outage over a (gamma, density, altitude) grid: the one Monte Carlo counter.

    Returns int64 counts shaped (placement, gamma, density, altitude), one
    row per placement of placement_mode (a PlacementMode or its value,
    "street-only"; the mixture's rows are intersection, then street).  A
    realization is in outage at gamma when its connectivity
    1 - prod(1 - p_LoS) is at or below gamma, so a count divided by
    n_realizations is that placement's connectivity CDF at gamma, right
    continuous.  Every cell and every placement is scored on the same
    n_realizations envelope realizations, so comparisons across cells are
    exact: more density or a nested ground disk can only add UAVs to a
    realization.  The envelope's caps are lambda_cap (per m2) and d_cap (m),
    by default the grid's top density and widest disk.  With every density 0
    nothing is drawn, whatever the caps: every realization is in outage.

    Without held, each chunk is drawn, scored and dropped in turn.  held is
    a dict of chunk layouts that outlives the call, keyed by (envelope,
    seed, realization range, top fraction) (see _map_chunks).  Each chunk is
    laid out at the grid's top density fraction, as a fresh call lays it
    out, so a held layout is the layout a fresh call draws and the counts
    match a fresh call bit for bit.  Calls that share held, the envelope,
    seed, n_realizations and top density draw each chunk once, in the first
    call, whatever heights they score.

    Every argument is checked before anything is drawn: the run by
    check_run, each gamma by check_probability (an empty gamma axis raises
    ValueError too), the scenario by _scenario, and held's bound of
    MAX_HELD_POINTS UAVs on average by _map_chunks (ValueError).
    """
    placements = PlacementMode(placement_mode).placements
    check_run(n_realizations, seed, workers)
    gammas = np.array([float(g) for g in gamma_values])
    if gammas.size == 0:
        raise ValueError("gamma_values cannot be empty")
    for gamma in gammas:
        check_probability("gamma_values", gamma)
    lambda_values, height_values, envelope = _scenario(r_max, h_v, lambda_values, height_values,
                                                       lambda_cap, d_cap)
    if envelope is None:
        return np.full((len(placements), gammas.size, len(lambda_values), len(height_values)),
                       n_realizations, dtype=np.int64)
    fracs = np.array([lam / envelope.lambda_cap for lam in lambda_values])
    return sum(_map_chunks(
        lambda layout: _chunk_outage_counts(layout, city, r_max, h_v, height_values,
                                            placements, fracs, gammas),
        envelope, seed, n_realizations, float(fracs.max()), workers, held))


def mixture_cdf(f_intersection, f_street, city: CityModel):
    """Blend the two placements' CDF values (scalars or arrays at the same gammas)
    with the city's intersection weight; every mixture value is this one blend."""
    w = intersection_weight(city)
    return w * f_intersection + (1.0 - w) * f_street


def outage_grid(
    city: CityModel,
    r_max: float,
    h_v: float,
    lambda_values,
    height_values,
    gamma_th: float,
    n_realizations: int,
    seed: int,
    placement_mode: PlacementMode = PlacementMode.MIXTURE,
    lambda_cap: float | None = None,
    d_cap: float | None = None,
    workers: int = 1,
    held: dict | None = None,
) -> np.ndarray:
    """Outage probability over a (density, altitude) grid with shared draws.

    estimate_distribution's counts at the one gamma gamma_th, divided by
    n_realizations; the mixture blends its two placements with mixture_cdf.
    Every argument but gamma_th means what it means there, and gamma_th must
    lie in [0, 1] (ValueError).
    """
    placement_mode = PlacementMode(placement_mode)
    check_probability("gamma_th", gamma_th)
    totals = estimate_distribution(city, r_max, h_v, lambda_values, height_values, [gamma_th],
                                   n_realizations, seed, placement_mode, lambda_cap, d_cap,
                                   workers, held)[:, 0]
    n = n_realizations
    if placement_mode is PlacementMode.MIXTURE:
        return mixture_cdf(totals[0] / n, totals[1] / n, city)
    return totals[0] / n
