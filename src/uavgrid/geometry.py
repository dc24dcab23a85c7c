"""Deployment geometry: city statistics, radio footprint, UAV point process.

Units are meters and square meters throughout the package.  Densities are
per square meter; the CLI converts from per-km2 at its boundary and nowhere
else.  A scenario's radio values (range r_max, vehicle height h_v, UAV
density and altitude) are plain numbers, passed flat to every Monte Carlo
entry point and checked by connectivity's one scenario rule.

The UAV point process is drawn a chunk of realizations at a time on numpy's
own random stream: realization i gets, bit for bit, what a fresh
Generator(Philox(key=(seed, i))) would draw.  Philox is counter-based, so
the sampler computes only the blocks each realization reads: a count window,
then its point blocks past the window (see sample_envelope_points).  Those
blocks are counters (b, 0, 0, 0) under keys (seed, i), so the work that does
not depend on i is done once per chunk: round 0's product of each block
number b, round 1's product of the seed, and the seed's key word in every
round (_philox_blocks).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidGeometryError(ValueError):
    """Parameters describe an impossible or degenerate deployment."""


# The largest seed or realization index: each is one uint64 word of a Philox key.
MAX_KEY = 2**64 - 1


def check_integer(name: str, value, lo: int, hi: int) -> int:
    """value as an int in [lo, hi]: the one integer rule of every entry point.

    numpy integers pass.  A non-integer (a float, 2.0 too, or a bool) or a
    value outside [lo, hi] raises a one-line ValueError that names the argument.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    # operator.index(True) is 1, but a bool set where a count or a seed belongs is a mistake
    if number is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= number <= hi:
        raise ValueError(f"need {lo} <= {name} <= {hi}")
    return number


def check_vehicle_height(h_v) -> None:
    """The one vehicle-height rule: h_v finite and >= 0, else InvalidGeometryError."""
    # written so that NaN fails it
    if not 0.0 <= h_v < math.inf:
        raise InvalidGeometryError("vehicle height h_v must be finite and >= 0")


@dataclass(frozen=True)
class HeightDistribution:
    """Building heights drawn uniformly from [h_min, h_max]."""

    h_min: float
    h_max: float

    def __post_init__(self):
        if not 0.0 <= self.h_min < self.h_max < math.inf:
            raise InvalidGeometryError(
                f"need 0 <= h_min < h_max < inf, got [{self.h_min}, {self.h_max}]"
            )

    @property
    def span(self) -> float:
        return self.h_max - self.h_min

    def cdf(self, h):
        """P(height <= h).  Accepts scalars or arrays."""
        return np.clip((np.asarray(h, dtype=float) - self.h_min) / self.span, 0.0, 1.0)[()]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.h_min, self.h_max, n)


@dataclass(frozen=True)
class CityModel:
    """Statistics of one rectangular street grid.

    mu_s and mu_b are the mean street width and mean block side; together they
    set the intensity of the street-crossing process along each axis.  w_v and
    w_h are the actual widths of the two streets meeting at the reference
    vehicle (w_v runs along the vehicle's own street, w_h crosses it).
    """

    mu_s: float
    mu_b: float
    w_v: float
    w_h: float
    heights: HeightDistribution

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not all(0.0 < v < math.inf for v in (self.mu_s, self.mu_b)):
            raise InvalidGeometryError("mu_s, mu_b must be positive and finite")
        if not (0.0 <= self.w_v < math.inf and 0.0 <= self.w_h < math.inf):
            raise InvalidGeometryError("street widths must be finite and non-negative")

    @property
    def lambda_s(self) -> float:
        """Intensity of the street process along each axis, per meter."""
        return 1.0 / (self.mu_s + self.mu_b)


def _preset(mu_H: float, mu_b: float, mu_s: float) -> CityModel:
    # streets at the vehicle take the mean width; heights span half to
    # one-and-a-half times the mean so the mean is mu_H
    return CityModel(
        mu_s=mu_s,
        mu_b=mu_b,
        w_v=mu_s,
        w_h=mu_s,
        heights=HeightDistribution(0.5 * mu_H, 1.5 * mu_H),
    )


PRESETS: dict[str, CityModel] = {
    "suburban": _preset(10.0, 37.0, 10.0),
    "urban": _preset(19.0, 45.0, 13.0),
    "dense-urban": _preset(25.0, 60.0, 20.0),
}


def intersection_weight(city: CityModel) -> float:
    """Probability that a uniformly dropped vehicle sits at a crossing."""
    return city.mu_s / (city.mu_s + city.mu_b)


def ground_range(r_max: float, h_uav: float, h_v: float) -> float:
    """Radius of the ground disk of UAVs at h_uav within 3D range r_max of a vehicle at h_v.

    The package's one ground-range formula, so equal heights give equal disks bit for bit.
    """
    dz = h_uav - h_v
    return math.sqrt(r_max * r_max - dz * dz)


@dataclass(frozen=True)
class SamplingEnvelope:
    """Superset point process that concrete scenarios are carved out of.

    Each candidate point costs three uniforms in a fixed order: radius
    (area-uniform via sqrt), azimuth, and a retention mark.  A scenario with
    density lam <= lambda_cap and disk radius r <= d_cap keeps the points with
    mark < lam / lambda_cap and distance <= r.  The kept set is again a
    uniform Poisson sample, and scenarios carved from one envelope draw are
    nested whenever their parameters are, which makes cross-scenario
    comparisons exact rather than statistical.
    """

    lambda_cap: float
    d_cap: float

    def __post_init__(self):
        if not (0.0 < self.lambda_cap < math.inf and 0.0 < self.d_cap < math.inf):
            raise InvalidGeometryError("envelope caps must be positive and finite")

    @property
    def mean_count(self) -> float:
        return self.lambda_cap * math.pi * self.d_cap * self.d_cap


# numpy's Generator.poisson counts by multiplying uniforms below this mean and
# by PTRS, which takes libm log and loggam bits, from it on.
PTRS_MEAN = 10.0

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): the round multipliers and the Weyl increments of the key, as Python
# ints for the products and sums every stream shares, and as np.uint64 for the
# array words, which then meet only uint64 operands and rely on no promotion
# rule for Python ints.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_WORD = 2**64 - 1
_PHILOX_M0, _PHILOX_M1, _PHILOX_W1 = np.uint64(_M0), np.uint64(_M1), np.uint64(_W1)
_LOW, _HALF, _DOUBLE_SHIFT = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def _mulhilo(x, m, hi, lo, t, s):
    """Write the high and low words of the 128-bit products x * m into hi and lo.

    The high word is summed from the products of 32-bit halves, none of which
    carries out of 64 bits.  t and s are scratch, x is overwritten, and
    nothing is allocated.
    """
    m_lo, m_hi = m & _LOW, m >> _HALF
    np.multiply(x, m, out=lo)
    np.right_shift(x, _HALF, out=hi)
    np.bitwise_and(x, _LOW, out=x)
    np.multiply(x, m_lo, out=t)
    np.right_shift(t, _HALF, out=t)
    np.multiply(hi, m_lo, out=s)
    t += s
    x *= m_hi
    np.bitwise_and(t, _LOW, out=s)
    x += s
    hi *= m_hi
    np.right_shift(t, _HALF, out=s)
    hi += s
    np.right_shift(x, _HALF, out=s)
    hi += s


def _philox_blocks(seed, index, block):
    """The 4 words numpy's Philox outputs for block (block, 0, 0, 0) under key (seed, index).

    These are the only blocks the sampler reads: numpy's Philox increments its
    counter before each block, so block b of stream (seed, i) is counter
    (b, 0, 0, 0), b = 1, 2, ...  index and block are integer arrays whose
    shapes broadcast; block numbers span a short range, because round 0 looks
    their products up in a table over it.  Returns 4 uint64 arrays of the
    broadcast shape, least significant word first.

    Work every stream shares is done once: with counter words 1-3 zero and
    key word 0 the seed, round 0 is one table product b * M0 per block number
    and round 1's first product is seed * M0, both Python ints, and key word
    0 stays a Python int.  Rounds 1-9 run in place in one (10, N) buffer.
    """
    shape = np.broadcast_shapes(np.shape(index), np.shape(block))
    buffer = np.empty((10,) + shape, dtype=np.uint64)
    c0, c1, c2, c3, h0, l0, h1, l1, t, s = buffer
    # round 0: words 1-3 zero, so its second product is zero and word 0 is the seed
    top = int(block.max(initial=0))
    low = int(block.min(initial=top))
    products = [b * _M0 for b in range(low, top + 1)]
    rows = block - block.dtype.type(low)
    b_hi = np.array([p >> 64 for p in products], dtype=np.uint64)[rows]
    b_lo = np.array([p & _WORD for p in products], dtype=np.uint64)[rows]
    np.bitwise_xor(b_hi, index, out=c2)
    # round 1: word 0 is the seed, so its product is one Python int; word 1 is zero
    key = index + _PHILOX_W1
    _mulhilo(c2, _PHILOX_M1, h1, l1, t, s)
    np.bitwise_xor(h1, np.uint64((seed + _W0) & _WORD), out=c0)
    seed_product = seed * _M0
    np.bitwise_xor(b_lo ^ np.uint64(seed_product >> 64), key, out=c2)
    c3.fill(np.uint64(seed_product & _WORD))
    c1, l1 = l1, c1
    for r in range(2, 10):
        key += _PHILOX_W1
        _mulhilo(c0, _PHILOX_M0, h0, l0, t, s)
        _mulhilo(c2, _PHILOX_M1, h1, l1, t, s)
        h1 ^= c1
        h1 ^= np.uint64((seed + r * _W0) & _WORD)
        h0 ^= c3
        h0 ^= key
        c0, c1, c2, c3, h0, l0, h1, l1 = h1, l1, h0, l0, c0, c1, c2, c3
    return c0, c1, c2, c3


def _doubles(words, out=None):
    """The doubles Generator.random makes of Philox words: (x >> 11) * 2**-53, words overwritten."""
    words >>= _DOUBLE_SHIFT
    return np.multiply(words, 2.0**-53, out=out)


def _window(seed, index, floor, blocks):
    """Blocks 1 to blocks of each stream, rank-major, and its count by Generator.poisson's method.

    The doubles are a (4 * blocks, index.size) array; the count is how many
    running products of a column stay above floor (no double reaches 1 and
    rounding is monotone, so they are the leading ones).  A count of
    4 * blocks has not settled.
    """
    m = index.size
    # a (blocks, 1) counter column against the index row, each word into its rank rows
    u = np.empty((blocks, 4, m))
    for w, words in enumerate(_philox_blocks(seed, index, np.arange(1, blocks + 1)[:, None])):
        _doubles(words, out=u[:, w])
    u = u.reshape(4 * blocks, m)
    product, counts = np.ones(m), np.zeros(m, dtype=np.int64)
    for row in u:
        product *= row
        counts += product > floor
    return u, counts


def _philox_rows(mean, seed, start, stop):
    """The point uniforms of realizations [start, stop), every stream at once (mean < PTRS_MEAN).

    A realization with count n reads n + 1 doubles for the count and 3n for
    its points: blocks 1 to n + 1.  Every stream first gets a count window,
    blocks 1 to W = ceil((mean + 3 sqrt(mean) + 2) / 4); the rare count that
    does not settle in it is counted again in windows twice as wide.  Then
    only the blocks W + 1 to n + 1 that points read are computed: a chunk
    computes sum(max(W, n + 1)) blocks, plus the redrawn windows.
    """
    index = np.arange(start, stop, dtype=np.uint64)
    m = index.size
    floor = math.exp(-mean)
    blocks = math.ceil((mean + 3.0 * math.sqrt(mean) + 2.0) / 4.0)
    window, counts = _window(seed, index, floor, blocks)
    short, wider = np.flatnonzero(counts == 4 * blocks), blocks
    while short.size:
        wider *= 2
        counts[short] = _window(seed, index[short], floor, wider)[1]
        short = short[counts[short] == 4 * wider]
    # rank r of column i is double r of stream i: the window, then the blocks past it
    u = np.empty((4 * max(int(counts.max(initial=0)) + 1, blocks), m))
    u[:4 * blocks] = window
    extra = np.maximum(counts + 1 - blocks, 0)
    col = np.repeat(np.arange(m), extra)
    block = blocks + np.arange(col.size) - np.repeat(np.cumsum(extra) - extra, extra)
    for w, words in enumerate(_philox_blocks(seed, index[col], block + 1)):
        u[4 * block + w, col] = _doubles(words)
    # point k of column i starts at double counts[i] + 1 + 3k
    first = np.cumsum(counts) - counts
    row = np.repeat(counts + 1 - 3 * first, counts) + 3 * np.arange(counts.sum())
    flat = row * m + np.repeat(np.arange(m), counts)
    return u.reshape(-1)[flat + m * np.arange(3)[:, None]], counts


def philox_streams(seed, indices):
    """Yield (i, rng) per index i, rng drawing what Generator(Philox(key=(seed, i))) would.

    Philox is counter-based, so its key and counter fix the stream: one bit
    generator whose key, counter and buffer are reset before each index gives
    exactly what a fresh Philox(key=(seed, i)) would, without building one.
    rng is the same object at every step and is re-keyed when the generator
    advances, so finish drawing from it first.  seed and every index must be
    integers in [0, MAX_KEY].
    """
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0, empty buffer, has_uint32 0
    key = state["state"]["key"]
    for i in indices:
        key[1] = i
        bit_generator.state = state
        yield i, rng


def _generator_rows(mean, seed, start, stop):
    """The point uniforms of realizations [start, stop), one Generator call pair each."""
    parts = [np.empty((0, 3))]
    for _, rng in philox_streams(seed, range(start, stop)):
        parts.append(rng.random((rng.poisson(mean), 3)))
    counts = np.array([len(part) for part in parts[1:]], dtype=np.int64)
    return np.concatenate(parts).T, counts


def sample_envelope_points(
    envelope: SamplingEnvelope, seed: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw envelope realizations [start, stop): flat (d, phi, mark) and counts.

    Realization i draws from numpy's Philox stream keyed by (seed, i), from
    counter 0, exactly what Generator(Philox(key=(seed, i))) gives:
    u = rng.random((rng.poisson(mean_count), 3)), then d = d_cap * sqrt(u0),
    phi = 2 pi * u1 and mark = u2.  The arrays list counts[i] points for
    realization i, realization by realization, each in draw order: nothing is
    sorted here, because the chunk layout sorts.

    Below a mean of PTRS_MEAN the whole chunk is computed at once, with no
    Generator method: the Philox blocks from the spec and the count by
    Generator.poisson's multiplication method, over a count window of blocks
    fixed by the mean, then only the point blocks past it that each
    realization reads (_philox_rows).  From PTRS_MEAN on, numpy counts by
    PTRS, whose libm bits numpy's ufuncs need not match, so each realization
    is drawn through a Generator.

    The seed and each index are Philox key words, so seed must be an integer
    in [0, MAX_KEY] and start <= stop integers in [0, MAX_KEY + 1]; anything
    else raises ValueError naming the argument (check_integer) before a draw.
    """
    seed = check_integer("seed", seed, 0, MAX_KEY)
    start = check_integer("start", start, 0, MAX_KEY + 1)
    stop = check_integer("stop", stop, start, MAX_KEY + 1)
    mean = envelope.mean_count
    rows = _philox_rows if mean < PTRS_MEAN else _generator_rows
    u, counts = rows(mean, seed, start, stop)
    return envelope.d_cap * np.sqrt(u[0]), TWO_PI * u[1], u[2].copy(), counts
