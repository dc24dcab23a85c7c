"""Monte Carlo estimation of the connectivity distribution.

A vehicle is connected at level p_c = 1 - prod(1 - p_LoS) over the UAVs in
range.  Realizations are scored in chunks; every realization owns a
counter-based substream keyed by (seed, realization index), so results do
not depend on chunking, worker count, or evaluation order, and scenarios that
share a sampling envelope see nested constellations (see geometry).

One chunk scorer serves both pipelines.  An envelope point joins density
fraction f of the envelope cap when its uniform mark is below f, so with each
realization's points ranked by mark every density sees its first ranks.  The
chunk is laid out rank-major, one row per rank and one column per
realization, and the scorer takes exact running products of the link factors
1 - p_LoS down each column, one vector multiply per rank.  Every factor lies
in [0, 1] and rounding is monotone, so the survival product never rises down
a column and the score 1 - P never falls: each (realization, height,
placement) crosses the threshold gamma_th at most once.  Its crossing mark,
the mark of the first link with 1 - P > gamma_th (+inf if there is none),
settles every density at once: fraction f is in outage exactly when the
crossing mark is >= f.  The ranks before the crossing are the ones still at
or below the threshold, so their count is the crossing rank.  outage_grid
counts the whole density axis with one sort and one searchsorted per
(height, placement), and its outage cannot rise with density, by
construction rather than on average.  estimate_distribution reads the last
rank's running products, so a grid cell equals the distribution pipeline's
outage bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    CityModel,
    InvalidGeometryError,
    RadioParams,
    SamplingEnvelope,
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


@dataclass(frozen=True)
class EmpiricalDistribution:
    """CDF of connectivity scores from n Monte Carlo realizations."""

    samples: np.ndarray  # sorted ascending

    @property
    def n(self) -> int:
        return self.samples.size

    def evaluate(self, gamma):
        """Right-continuous empirical CDF: fraction of samples <= gamma."""
        return np.searchsorted(self.samples, gamma, side="right") / self.n


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one distribution estimate depends on; the envelope caps as in outage_grid."""

    city: CityModel
    radio: RadioParams
    n_realizations: int = 100_000
    seed: int = 0
    workers: int = 1
    lambda_cap: float | None = None
    d_cap: float | None = None

    def __post_init__(self):
        check_run(self.n_realizations, self.seed, self.workers)


# The most realizations a run takes, far above any run that can finish.
MAX_REALIZATIONS = 10**9


def check_run(n_realizations: int, seed: int, workers: int) -> None:
    """Reject run parameters no Monte Carlo run can use (ValueError)."""
    if not 1 <= n_realizations <= MAX_REALIZATIONS:
        raise ValueError(f"need 1 <= n_realizations <= {MAX_REALIZATIONS}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if workers < 1:
        raise ValueError("workers must be >= 1")


# The most UAVs one realization draws on average (envelope mean_count): about
# 5,000 per km2 on a 250 m disk.  A chunk holds all its realizations' points:
# at the bound, a distribution run of one full chunk peaked 1.33 GB above its
# start (maximum RSS, urban, 2-vCPU x86 VM).
MAX_ENVELOPE_POINTS = 1000.0

# The most UAVs an EnvelopeDraw holds on average, n_realizations times the
# envelope's mean_count.  Its layouts keep 41-56 bytes per held point (the
# summed nbytes of a draw's layouts: 56 at 5.7 UAVs per realization, 41 at
# 957), so a draw at the bound holds about 0.4-0.56 GB.
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
    if not 0.0 <= h_v < math.inf:
        raise InvalidGeometryError("vehicle height h_v must be finite and >= 0")
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


def _chunk_bounds(n: int, envelope: SamplingEnvelope) -> list[tuple[int, int]]:
    """Chunks tiling [0, n): at most CHUNK_SIZE realizations and MAX_CHUNK_POINTS mean points."""
    size = min(CHUNK_SIZE, max(1, int(MAX_CHUNK_POINTS / max(envelope.mean_count, 1.0))))
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def _draw_chunk(envelope, seed, start, stop):
    """Envelope points for realizations [start, stop): flat arrays + counts.

    Realization i draws from a Philox stream keyed by (seed, i), from counter
    0.  Philox is counter-based, so its key and counter fix the stream: one
    bit generator whose key, counter and buffer are reset before each
    realization gives exactly what a fresh Philox(key=(seed, i)) would,
    without seeding a new generator per realization.
    """
    bit_generator = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0, empty buffer, has_uint32 0
    key = state["state"]["key"]
    counts, parts_d, parts_phi, parts_mark = [], [], [], []
    for index in range(start, stop):
        key[1] = index
        bit_generator.state = state
        d, phi, mark = sample_envelope_points(envelope, rng)
        counts.append(d.size)
        parts_d.append(d)
        parts_phi.append(phi)
        parts_mark.append(mark)
    return (
        np.concatenate(parts_d) if parts_d else np.empty(0),
        np.concatenate(parts_phi) if parts_phi else np.empty(0),
        np.concatenate(parts_mark) if parts_mark else np.empty(0),
        np.array(counts, dtype=np.int64),
    )


class ChunkLayout(NamedTuple):
    """One chunk's points with mark below frac_top, laid out by mark.

    The points are laid out as a rank x realization array: realization i's
    points fill column i from rank 0 in ascending mark order, and the column
    is padded below them.  marks holds the laid-out marks, +inf in padding,
    plus one more rank of +inf, the sentinel that stands for "never crosses"
    (see _chunk_outage_counts).  d, cos_phi, sin_phi and slot (the flat index
    rank * realizations + i of each point in the layout) list the points by
    ascending distance, so every ground disk is a prefix of them.  cos_phi
    and sin_phi are the folded direction cosines |cos phi|, |sin phi| of the
    drawn azimuths, computed once per draw rather than once per scored
    height.  Only _lay_out builds a layout, and the arrays are shared by
    every height scored on it: read them, never write them.
    """

    d: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    slot: np.ndarray
    marks: np.ndarray


def _lay_out(d, phi, mark, counts, frac_top) -> ChunkLayout:
    """Lay out the drawn points with mark below frac_top.

    d, phi and mark list the points realization by realization, counts[i]
    of them for realization i, as _draw_chunk returns them.  These are the
    only sorts of a draw: each column by mark, then the points by distance,
    so the order within a realization matters only between exactly equal
    marks, which keep it.  Besides the sort's index, marks is the only array
    of the layout's shape: it is filled in draw order, then overwritten in
    mark order.
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
    by_distance = np.argsort(d[src], kind="stable")
    src, slot = src[by_distance], slot[by_distance]
    phi = phi[src]
    return ChunkLayout(d[src], np.abs(np.cos(phi)), np.abs(np.sin(phi)), slot, marks)


def _chunk_layout(envelope, seed, start, stop, frac_top) -> ChunkLayout:
    """Draw realizations [start, stop) and lay out their points below frac_top."""
    return _lay_out(*_draw_chunk(envelope, seed, start, stop), frac_top)


def _layout_of(source) -> ChunkLayout:
    """A chunk's layout: source itself, or drawn from its (envelope, seed, start, stop,
    frac_top) key."""
    return source if isinstance(source, ChunkLayout) else _chunk_layout(*source)


@dataclass(frozen=True, eq=False)
class EnvelopeDraw:
    """Envelope realizations [0, n_realizations), drawn and laid out once.

    Holds the layout of every chunk of the whole envelope: every drawn point,
    whatever its mark.  An outage_grid call with the same envelope, seed and
    n_realizations scores these layouts instead of drawing its own, at any
    densities the envelope covers: a point above a density's fraction only
    extends a column past the ranks that density sees, so the cells match a
    fresh draw bit for bit, and a search that probes many heights pays for
    sampling once.  workers > 1 draws the chunks in a process pool.  A draw
    may hold at most MAX_HELD_POINTS UAVs on average, checked before anything
    is drawn (ValueError).
    """

    envelope: SamplingEnvelope
    seed: int
    n_realizations: int
    workers: InitVar[int] = 1
    layouts: tuple[ChunkLayout, ...] = field(init=False, repr=False)

    def __post_init__(self, workers):
        check_run(self.n_realizations, self.seed, workers)
        held = self.n_realizations * self.envelope.mean_count
        if held > MAX_HELD_POINTS:
            raise ValueError(f"the envelope draw would hold {held:.4g} UAVs on average "
                             f"({self.n_realizations} realizations), above the bound of "
                             f"{MAX_HELD_POINTS:g}")
        keys = [(self.envelope, self.seed, start, stop, 1.0)
                for start, stop in _chunk_bounds(self.n_realizations, self.envelope)]
        object.__setattr__(self, "layouts", tuple(_map_tasks(_layout_of, keys, workers)))

    @property
    def key(self) -> tuple:
        return (self.envelope, self.seed, self.n_realizations)


def _chunk_scores(layout, city, h_v, r_max, height_values, placements):
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
    its survival at the layout's frac_top: estimate_distribution scores
    1 - P[-1].

    No factor exceeds 1 and rounding is monotone, so P never rises down a
    column and the score 1 - P crosses gamma_th at most once, at the
    column's crossing mark.  outage_grid counts density fraction f in outage
    exactly when that mark is >= f.  A higher density only lengthens the
    prefix it sees, so outage cannot rise with density, whatever the draw.

    Yields (placement index, height index, survival); survival has the
    shape of the layout's marks without the sentinel rank.  It is one
    buffer, overwritten by the next step, so reduce it before advancing the
    generator.
    """
    d, cos_phi, sin_phi, slot, marks = layout
    survival = np.empty((marks.shape[0] - 1, marks.shape[1]))
    flat = survival.reshape(-1)
    for j, h in enumerate(height_values):
        k = int(np.searchsorted(d, ground_range(r_max, h, h_v), side="right"))
        d_h, c_h, s_h, slot_h = d[:k], cos_phi[:k], sin_phi[:k], slot[:k]
        for ip, placement in enumerate(placements):
            factors = los_probability_batch(d_h, c_h, s_h, h, h_v, city, placement)
            np.subtract(1.0, factors, out=factors)
            flat.fill(1.0)
            flat[slot_h] = factors
            for r in range(1, survival.shape[0]):
                np.multiply(survival[r - 1], survival[r], out=survival[r])
            yield ip, j, survival


# Module-level so the process pool can pickle them; each reduces inside the
# worker, so only per-realization scores or per-cell counts travel back.  A
# task's first item is its chunk's layout or the key to draw it from.
def _chunk_score_arrays(task):
    """Scores 1 - prod(1 - p_LoS) per (placement, realization) at one height."""
    source, *spec = task
    scores = _chunk_scores(_layout_of(source), *spec)
    return np.stack([1.0 - survival[-1] for _, _, survival in scores])


def _chunk_outage_counts(task):
    """Realizations in outage per (placement, density, height) cell."""
    source, *spec, fracs, gamma_th = task
    height_values, placements = spec[-2], spec[-1]
    layout = _layout_of(source)
    marks, columns = layout.marks, np.arange(layout.marks.shape[1])
    counts = np.zeros((len(placements), fracs.size, len(height_values)), dtype=np.int64)
    for ip, j, survival in _chunk_scores(layout, *spec):
        # 1 - survival never falls along a column, so the ranks still at or
        # below the threshold come first, and their count is the crossing
        # rank: the sentinel rank where it never crosses.  Its mark is the
        # crossing mark; fraction f is in outage iff that mark is >= f.
        crossing = marks[np.count_nonzero(1.0 - survival <= gamma_th, axis=0), columns]
        crossing.sort()
        counts[ip, :, j] = crossing.size - np.searchsorted(crossing, fracs)
    return counts


def _map_tasks(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here, so a run that never opens a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # a fork-started pool starts all of its processes at once: start no idle ones
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def estimate_distribution(config: ScenarioConfig) -> dict[Placement, EmpiricalDistribution]:
    """Estimate the connectivity CDF, one distribution per placement.

    Both placements are scored on the same constellations, so the two
    distributions (and anything derived from both) are coupled draws.  The
    scenario is checked and carved as one grid cell (see _scenario), so the
    UAVs must fly above the vehicle.
    """
    radio = config.radio
    placements = PlacementMode.MIXTURE.placements
    n = config.n_realizations
    _, _, envelope = _scenario(radio.r_max, radio.h_v, [radio.lambda_uav], [radio.h_uav],
                               config.lambda_cap, config.d_cap)
    if envelope is None:
        return {pl: EmpiricalDistribution(np.zeros(n)) for pl in placements}
    frac = radio.lambda_uav / envelope.lambda_cap
    tasks = [
        ((envelope, config.seed, start, stop, frac), config.city, radio.h_v, radio.r_max,
         [radio.h_uav], placements)
        for start, stop in _chunk_bounds(n, envelope)
    ]
    chunks = _map_tasks(_chunk_score_arrays, tasks, config.workers)
    result = {}
    for ip, pl in enumerate(placements):
        samples = np.sort(np.concatenate([c[ip] for c in chunks]))
        result[pl] = EmpiricalDistribution(samples)
    return result


def _blend(w, a, b):
    """The one placement blend, so mixture CDFs and mixture grids round alike."""
    return w * a + (1.0 - w) * b


@dataclass(frozen=True)
class MixtureCDF:
    """Placement-weighted blend of the two conditional CDFs."""

    intersection: EmpiricalDistribution
    street: EmpiricalDistribution
    weight: float  # probability of the intersection placement

    def evaluate(self, gamma):
        return _blend(self.weight, self.intersection.evaluate(gamma), self.street.evaluate(gamma))


def mixture_cdf(
    intersection: EmpiricalDistribution,
    street: EmpiricalDistribution,
    city: CityModel,
) -> MixtureCDF:
    return MixtureCDF(intersection, street, intersection_weight(city))


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
    draw: EnvelopeDraw | None = None,
) -> np.ndarray:
    """Outage probability over a (density, altitude) grid with shared draws.

    Every cell is scored on the same n_realizations envelope realizations, so
    comparisons across cells are exact: more density or a nested ground disk
    can only add UAVs to a realization.  The envelope's caps are lambda_cap
    (per m2) and d_cap (m), by default the grid's top density and widest disk.
    Cell values equal the estimate_distribution / mixture_cdf pipeline's CDF
    at gamma_th for the same caps, seed and n.  With every density 0
    nothing is drawn, whatever the caps: every realization is in outage.

    With a draw, the cells are scored on its layouts, and its key must be this
    call's (envelope, seed, n_realizations) (ValueError otherwise) unless every
    density is 0; without one, each chunk is drawn, scored and dropped in turn.
    placement_mode may be a PlacementMode or its value ("street-only").
    """
    placement_mode = PlacementMode(placement_mode)
    check_run(n_realizations, seed, workers)
    if not 0.0 <= gamma_th <= 1.0:
        raise ValueError("gamma_th must lie in [0, 1]")
    lambda_values, height_values, envelope = _scenario(r_max, h_v, lambda_values, height_values,
                                                       lambda_cap, d_cap)
    placements = placement_mode.placements
    if envelope is None:
        totals = np.full((len(placements), len(lambda_values), len(height_values)), n_realizations)
    else:
        fracs = np.array([lam / envelope.lambda_cap for lam in lambda_values])
        if draw is None:
            sources = [(envelope, seed, start, stop, float(fracs.max()))
                       for start, stop in _chunk_bounds(n_realizations, envelope)]
        elif draw.key != (envelope, seed, n_realizations):
            raise ValueError("the envelope draw does not match this grid's envelope, seed "
                             "or n_realizations")
        else:
            sources = draw.layouts
        tasks = [(source, city, h_v, r_max, height_values, placements, fracs, gamma_th)
                 for source in sources]
        totals = sum(_map_tasks(_chunk_outage_counts, tasks, workers))

    n = n_realizations
    if placement_mode is PlacementMode.MIXTURE:
        return _blend(intersection_weight(city), totals[0] / n, totals[1] / n)
    return totals[0] / n
