"""Finite-velocity planar random motions driven by a counting process.

A particle starts at the origin, picks a direction uniformly on ``[0, 2*pi)``
and moves with constant speed ``c``.  At each event of the driving counting
process it picks a fresh uniform direction.  The displacement at time ``t``
is therefore a sum of segment vectors whose lengths are proportional to the
waiting times between direction switches.

Sampling an endpoint conditionally on ``n`` switches uses the order-statistic
representation of the switch instants: ``n`` sorted uniforms on ``(0, t)``.
This is exact for every law studied here: given the count, the instants are
uniform order statistics, and an inhomogeneous rate enters only through the
count law at ``Lambda(t)``.

Endpoint batches are reproducible bit-for-bit: sample ``i`` draws from its
own ``numpy`` substream ``default_rng((seed, i))``, exactly as
:func:`sample_trajectory` would consume it.  The batch sampler seeds those
streams for many ``i`` at once in numpy integer arithmetic instead of
building one generator per sample.  It works in blocks of ``2**14``
samples: it seeds a block's streams in one pass of the hash, whose steps
that see only the seed's words run once, on Python ints, and draws their
switch counts from one read of draw 0.  It then sorts the streams by count
once, draws each group of equal count from contiguous rows in chunks of at
most ``2**14`` uniforms (``2**16`` for paths read from PCG64 of which two
fit into ``2**14``; a longer one is a chunk alone), and puts x and y back
in sample order once.  It computes a path's first ``_BULK_DRAWS`` draws in
bulk from those states; a longer path is drawn by numpy's own PCG64, one
row per ``Generator.random`` call, after its state, jumped in bulk with
those of all the block's streams, is written into the four words of the
generator's ``pcg64_random_t``.  Those words are reached through the bit
generator's public ``ctypes.state_address`` and checked once per
generator: the pointer must lie inside the bit generator, and a state set
through ``bit_generator.state`` must read back as its four words, which
gives their order.  Where either check fails, each row's state goes
through ``bit_generator.state``, with the same bits.
A path with more than ``2**20`` switches takes its endpoint from the exact
law given ``n`` switches instead (radius ``ct * sqrt(1 - v**(2/n))``).

The endpoint kernel sorts the instants of many short rows by a sorting
network of whole-column compare-exchanges, and lays segments and products
out draw-major, one column per segment, so that ``np.add.reduce`` sums each
row by adding whole columns left to right, the order of the scalar loop,
without writing prefix sums.  A one-row chunk is contiguous along the sum,
where numpy would add pairwise, so it takes a running sum instead.  The
kernel forms a chunk's x (cosines) on one daemon worker thread, started at
the first such chunk, while the caller forms its y (sines): numpy releases
the GIL over each elementwise loop, and the bits are those of the serial
code.  Both coordinates stay on the caller for a chunk of fewer than
``_PAIR_MIN_ANGLES`` angles, in a process bound to one CPU, and while the
worker serves another thread.

:func:`endpoint_blocks` hands out the blocks one at a time, each drawn when
it is asked for, so a consumer that reduces or writes a block and drops it
before asking for the next holds one block: 32 bytes of stream state (64
where the block has paths read from PCG64) and 24 bytes of columns per
sample of one block (about 0.9 MB, or 1.4 MB), one chunk and the longest
path followed, whatever the batch size.  :func:`endpoint_arrays`
lays the blocks end to end into whole columns, 24 bytes per sample.

Flight-model endpoints (random flights with Dirichlet displacement weights)
have a radial CDF ``1 - (1 - r**2/(ct)**2)**a`` of the same shape, so
:func:`flight_radii_batch` samples their radii by the same inversion, radius
``i`` from substream ``(seed, i)`` too.  Only the conditioned sampler draws
a whole batch from one ``default_rng(seed)``, all its instants before all
its directions; it reads the two stream positions with two generators, one
advanced past the instants, and :func:`conditioned_chunks` hands out chunks
of at most ``_DRAW_BUDGET`` uniforms one at a time, as
:func:`endpoint_blocks` hands out blocks.
"""

from __future__ import annotations

import ctypes  # numpy imports it too
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .counting import CountDistribution, CountingSpec, count_distribution
from .densities import _require_speed_horizon, flight_exponent
from .specfun import DomainError

__all__ = [
    "MotionConfig",
    "Trajectory",
    "EndpointArrays",
    "endpoint_from_path",
    "sample_trajectory",
    "endpoint_blocks",
    "endpoint_arrays",
    "conditioned_chunks",
    "flight_radii_batch",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MotionConfig:
    """Speed, horizon and driving counting law for a planar motion.

    Given the number of switches, the switch instants are sorted uniforms on
    ``(0, t)``, whatever the rate.  ``c``, ``t`` and ``c·t`` must be finite
    and positive.
    """

    c: float
    t: float
    count_spec: CountingSpec

    def __post_init__(self) -> None:
        _require_speed_horizon(self.c, self.t)


@dataclass(frozen=True)
class Trajectory:
    """A full path: switch instants, per-segment directions and endpoint.

    ``angles`` has one more entry than ``change_times``: the initial
    direction plus one new direction per switch.
    """

    change_times: tuple[float, ...]
    angles: tuple[float, ...]
    endpoint: tuple[float, float]
    c: float
    t: float

    @property
    def n_changes(self) -> int:
        return len(self.change_times)

    @property
    def is_singular(self) -> bool:
        return self.n_changes == 0


def endpoint_from_path(
    change_times: Sequence[float], angles: Sequence[float], c: float, t: float
) -> tuple[float, float]:
    """Recompute the displacement from instants and directions.

    Segment ``k`` runs from ``s_k`` to ``s_{k+1}`` (with ``s_0 = 0`` and
    ``s_{n+1} = t``) in direction ``angles[k]``.  The arithmetic order is
    the batch sampler's: ``c * t * cos`` for a path without switches,
    otherwise ``c`` times the left-to-right sum of ``seg * cos``, so a
    replayed substream reproduces its batch row bit for bit for any ``c``.
    """
    if len(angles) != len(change_times) + 1:
        raise DomainError(
            f"need one angle per segment: {len(change_times)} change times "
            f"require {len(change_times) + 1} angles, got {len(angles)}"
        )
    if not change_times:
        return c * t * math.cos(angles[0]), c * t * math.sin(angles[0])
    edges = [0.0, *change_times, t]
    x = 0.0
    y = 0.0
    for k, theta in enumerate(angles):
        seg = edges[k + 1] - edges[k]
        x += seg * math.cos(theta)
        y += seg * math.sin(theta)
    return c * x, c * y


def sample_trajectory(cfg: MotionConfig, uniforms: Iterator[float]) -> Trajectory:
    """Draw one full path, consuming ``1 + n + (n + 1)`` uniforms.

    Consumption order: one uniform for the switch count ``n``, then ``n``
    uniforms for the instants, then ``n + 1`` uniforms for the directions.
    """
    dist = count_distribution(cfg.count_spec, cfg.t)
    n = dist.sample(next(uniforms))
    vs = [next(uniforms) for _ in range(n)]
    angles = tuple(_TWO_PI * next(uniforms) for _ in range(n + 1))
    times = tuple(cfg.t * v for v in sorted(vs))
    endpoint = endpoint_from_path(times, angles, cfg.c, cfg.t)
    return Trajectory(change_times=times, angles=angles, endpoint=endpoint, c=cfg.c, t=cfg.t)


class EndpointArrays(NamedTuple):
    """Column layout of an endpoint batch (one entry per sample)."""

    x: np.ndarray
    y: np.ndarray
    n: np.ndarray

    @property
    def is_singular(self) -> np.ndarray:
        """Whether each path kept its first direction (no switch)."""
        return self.n == 0


# ---------------------------------------------------------------------------
# Bulk substreams.
#
# Sample i of a batch draws from np.random.default_rng((seed, i)): numpy's
# SeedSequence hashes the entropy words of seed and i into a PCG64 state
# (O'Neill 2014, XSL-RR 128/64), and random() maps each 64-bit output to a
# double.  _Substreams recomputes that chain for many i at once in uint64
# arithmetic, so a batch needs no generator object per sample.  A 128-bit
# value is a (hi, lo) pair of uint64 arrays.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(value: int) -> list[int]:
    """The uint32 words numpy makes of a nonnegative integer, low word first."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _low32(value):
    """``value mod 2**32`` of a Python int; uint32 arrays wrap by themselves."""
    return value & _M32 if isinstance(value, int) else value


def _seed_sequence_state(seed_words: list[int], index_words: list) -> list:
    """``SeedSequence(seed_words + index_words).generate_state(4, np.uint64)``
    (pool size 4) for seed words given as Python ints and index words as
    equally shaped uint32 arrays.  A step that sees only seed words runs
    once, on ints."""
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _HASH_MULT_A) & _M32
        value = _low32(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _low32(_low32(_MIX_MULT_L * x) - _low32(_MIX_MULT_R * y))
        return result ^ (result >> 16)

    entropy = seed_words + index_words
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _HASH_INIT_B
    state = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = (hash_const * _HASH_MULT_B) & _M32
        value *= hash_const
        value ^= value >> 16
        if k % 2:
            state[-1] |= value.astype(np.uint64) << 32
        else:
            state.append(value.astype(np.uint64))
    return state


def _mul128(hi: np.ndarray, lo: np.ndarray, a: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo) * a mod 2**128`` for ``a`` given by its limbs ``(a0, a1,
    a_lo, a_hi)``: bits 0-31, 32-63, 0-63 and 64-127.  The high half of
    ``lo * a_lo`` is built from 32-bit limbs, so no product overflows."""
    a0, a1, a_lo, a_hi = a
    x0 = lo & _M32
    x1 = lo >> 32
    high = x0 * a0
    high >>= 32
    high += x1 * a0
    mid = high & _M32
    high >>= 32
    mid += x0 * a1
    mid >>= 32
    high += mid
    high += x1 * a1
    high += hi * a_lo
    high += lo * a_hi
    return high, lo * a_lo


def _add128(hi: np.ndarray, lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray) -> None:
    """``(hi, lo) += (b_hi, b_lo) mod 2**128`` in place."""
    lo += b_lo
    hi += b_hi
    hi += lo < b_lo


def _jump(k: int) -> tuple[tuple, tuple]:
    """``(M**k, S_k)`` mod 2**128 as the limbs :func:`_mul128` takes, ``M``
    the PCG64 multiplier and ``S_k = sum_{j<k} M**j``: ``k`` steps
    ``x -> M * x + inc`` take a state ``x`` to ``M**k * x + S_k * inc``."""
    mult, shift = 1, 0
    m, s = _PCG_MULT, 1  # (M**j, S_j) for j = 2**bit
    while k:
        if k & 1:
            mult, shift = (mult * m) & _M128, (shift * m + s) & _M128
        s = (s * (m + 1)) & _M128
        m = (m * m) & _M128
        k >>= 1
    return tuple((a & _M32, a >> 32 & _M32, a & _M64, a >> 64) for a in (mult, shift))


_BULK_DRAWS = 128  # draws of a stream computed in bulk; later ones come from PCG64 itself


@lru_cache(maxsize=None)
def _draw_table(size: int) -> tuple[tuple, tuple]:
    """Limbs of :func:`_jump` for ``k = 2 .. size + 1``: the steps from a
    stream's state ``x`` to its draws ``0 .. size - 1``."""
    halves = np.empty((4, size), dtype=np.uint64)
    mult, shift = _PCG_MULT, 1
    for k in range(size):
        mult = (mult * _PCG_MULT) & _M128
        shift = (shift * _PCG_MULT + 1) & _M128
        halves[:, k] = mult & _M64, mult >> 64, shift & _M64, shift >> 64
    return tuple((lo & _M32, lo >> 32, lo, hi) for lo, hi in (halves[:2], halves[2:]))


def _to_uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each state, mapped to [0, 1) as ``random()``
    does."""
    folded = hi ^ lo
    rot = hi >> 58
    out = folded >> rot
    out |= folded << (64 - rot)  # numpy shifts by 64 to 0, as rot = 0 needs
    out >>= 11
    return out * (1.0 / 9007199254740992.0)


class _Substreams:
    """The generators ``np.random.default_rng((seed, i))`` for an array of
    indices ``i``, each in its freshly seeded state: all of them seeded by
    one pass of the hash, or two where indices below and from ``2**32``
    mix."""

    def __init__(self, seed: int, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.uint64)
        words = [(indices & _M32).astype(np.uint32)]
        # An index of 2**32 or more is two entropy words, which changes the
        # mixing; streams of both kinds are seeded both ways.
        seed_words, wide = _entropy_words(seed), indices > _M32
        s = _seed_sequence_state(seed_words, words)
        if wide.any():
            words.append((indices >> 32).astype(np.uint32))
            s = np.where(wide, _seed_sequence_state(seed_words, words), s)
        # PCG64 seeding sets inc = (s2:s3) << 1 | 1, then steps from 0, adds
        # (s0:s1) and steps again.  Keep the state x = (s0:s1) + inc, from
        # which the seeded state is one step and draw k is k + 2 steps.
        self.inc_hi = (s[2] << 1) | (s[3] >> 63)
        self.inc_lo = (s[3] << 1) | 1
        self.x_hi, self.x_lo = s[0], s[1]
        _add128(self.x_hi, self.x_lo, self.inc_hi, self.inc_lo)
        self._jumped = {}  # start -> every stream's words for _pcg64_uniforms

    def first_draws(self) -> np.ndarray:
        """Draw 0 of every stream."""
        return self.uniforms(0, 1)[:, 0]

    def sort(self, order: np.ndarray) -> None:
        """Reorder the streams: stream ``j`` becomes the one that was
        stream ``order[j]``."""
        self.x_hi, self.x_lo, self.inc_hi, self.inc_lo = (
            a[order] for a in (self.x_hi, self.x_lo, self.inc_hi, self.inc_lo))
        self._jumped = {}

    def uniforms(self, start: int, count: int,
                 rows: np.ndarray | slice | None = None) -> np.ndarray:
        """Draws ``start .. start + count - 1`` of the streams ``rows`` (all
        by default), as a ``(len(rows), count)`` array of doubles: in bulk
        within the first ``_BULK_DRAWS`` draws, else row by row from numpy's
        own PCG64, which is faster there, its four state words set to each
        stream's state (:meth:`_pcg64_uniforms`)."""
        if start + count > _BULK_DRAWS:
            return self._pcg64_uniforms(start, count, slice(None) if rows is None else rows)
        x_hi, x_lo, inc_hi, inc_lo = self.x_hi, self.x_lo, self.inc_hi, self.inc_lo
        if rows is not None:
            x_hi, x_lo, inc_hi, inc_lo = x_hi[rows], x_lo[rows], inc_hi[rows], inc_lo[rows]
        # Tables come in powers of two, so that a few serve every read.
        table = _draw_table(1 << (start + count - 1).bit_length())
        # Draw-major, the streams innermost: nearly every read is of many
        # streams, and the endpoint kernel works on columns.
        mult, shift = (tuple(limb[start:start + count, None] for limb in part) for part in table)
        hi, lo = _mul128(x_hi, x_lo, mult)
        _add128(hi, lo, *_mul128(inc_hi, inc_lo, shift))
        return _to_uniform(hi, lo).T

    @cached_property
    def _generator(self) -> tuple:
        """numpy's PCG64 generator with the :func:`_state_words` of its bit
        generator, checked once, before the first write."""
        gen = np.random.Generator(np.random.PCG64(0))
        return gen, *_state_words(gen.bit_generator)

    def _pcg64_uniforms(self, start, count, rows) -> np.ndarray:
        """:meth:`uniforms` drawn row by row with ``Generator.random``, each
        row's four state words written into the generator's, or its state
        set through ``bit_generator.state`` where the layout check failed.
        The words of every stream are jumped in bulk at the first read from
        ``start``: a block reads its long paths from draw 1, often a few
        rows at a time."""
        gen, view, places = self._generator
        words = self._jumped.get(start)
        if words is None:
            # The generator steps before each output, so draw k is read from
            # the state k + 1 steps past x.
            mult, shift = _jump(start + 1)
            hi, lo = _mul128(self.x_hi, self.x_lo, mult)
            _add128(hi, lo, *_mul128(self.inc_hi, self.inc_lo, shift))
            halves = (lo, hi, self.inc_lo, self.inc_hi)
            words = self._jumped[start] = np.stack([halves[k] for k in places], axis=1)
        words = words[rows]
        out = np.empty((len(words), count))
        if view is None:
            for row, (s_lo, s_hi, i_lo, i_hi) in zip(out, words.tolist()):
                _set_state(gen.bit_generator, s_hi << 64 | s_lo, i_hi << 64 | i_lo)
                gen.random(out=row)
            return out
        for row, w in zip(out, words):
            view[...] = w
            gen.random(out=row)
        return out


def _set_state(bits: np.random.PCG64, state: int, inc: int) -> None:
    """Set ``bits`` to a PCG64 state through numpy's public setter."""
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}


def _state_words(bits: np.random.PCG64) -> tuple:
    """A writable uint64 view of the four words of ``bits``' state (numpy's
    ``pcg64_random_t``, which ``bits.ctypes.state_address`` points to) and,
    for each word of the view, which of (state lo, state hi, inc lo, inc hi)
    it holds: ``(0, 1, 2, 3)`` where numpy has ``__uint128_t``, and ``(1, 0,
    3, 2)``, high word first, on its emulated 128-bit struct.  The view is
    ``None``, and the order ``(0, 1, 2, 3)``, unless the pointer lies inside
    ``bits`` and a state set through the public setter reads back through
    the view as its four words."""
    p = ctypes.c_void_p.from_address(bits.ctypes.state_address).value or 0
    if id(bits) <= p and p + 32 <= id(bits) + type(bits).__basicsize__:
        view = np.frombuffer((ctypes.c_uint64 * 4).from_address(p), dtype=np.uint64)
        probe = [1, 2, 3, 5]  # state lo, state hi, inc lo, inc hi: all distinct
        _set_state(bits, 2 << 64 | 1, 5 << 64 | 3)
        words = view.tolist()
        if sorted(words) == probe:
            return view, tuple(probe.index(w) for w in words)
    return None, (0, 1, 2, 3)


_BLOCK = 1 << 14  # samples grouped by switch count together
_DRAW_BUDGET = 1 << 14  # uniforms drawn at once within a block
# Uniforms drawn at once for paths read from PCG64 itself: that route holds
# only its output, where the bulk route's limb arithmetic holds several uint64
# temporaries of the chunk's size.
_LONG_DRAW_BUDGET = 1 << 16
_MAX_PATH_SWITCHES = 1 << 20  # longest path followed switch by switch


def _blocks(n_samples: int, seed: int) -> list[slice]:
    """Consecutive blocks of ``_BLOCK`` samples of a batch of ``n_samples``."""
    if n_samples <= 0:
        raise DomainError(f"n_samples must be positive, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return [slice(lo, min(lo + _BLOCK, n_samples)) for lo in range(0, n_samples, _BLOCK)]


def _block_streams(seed: int, block: slice) -> _Substreams:
    """The substreams of a block: sample ``i`` of a batch is substream
    ``(seed, i)``."""
    return _Substreams(seed, np.arange(block.start, block.stop, dtype=np.uint64))


def _radii(ct: float, u: np.ndarray, inv_a: float) -> np.ndarray:
    """Radii ``ct * sqrt(1 - (1 - u)**inv_a)`` of uniforms ``u``: the
    inversion of the radial CDF ``1 - (1 - r**2/(ct)**2)**a``, ``inv_a = 1/a``
    (given as the reciprocal, which rounds differently from dividing by
    ``a``)."""
    return ct * np.sqrt(-np.expm1(np.log1p(-u) * inv_a))


# Size-optimal sorting networks of 1 .. 6 keys (Knuth, TAOCP vol. 3,
# 5.3.4).  A compare-exchange of two whole columns costs about as much as
# sorting 30 to 40 rows with ``sort(axis=1)``, so a network sorts only
# groups with more than 40 rows per compare-exchange.  A block of 2**14
# samples seldom holds enough rows of 7 or more instants for a network to
# pay, so those rows always take ``sort``.
_SORT_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 2), (1, 3), (0, 1), (2, 3), (1, 2)),
    5: ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)),
}
_NETWORK_ROWS_PER_EXCHANGE = 40


def _sort_rows(times: np.ndarray) -> None:
    """Sort each row of ``times`` in place, by a sorting network for short
    rows of many paths, else by ``sort``.  Either way each row only permutes
    its values."""
    network = _SORT_NETWORKS.get(times.shape[1])
    if network is None or times.shape[0] <= _NETWORK_ROWS_PER_EXCHANGE * len(network):
        times.sort(axis=1)
        return
    low = np.empty(times.shape[0])
    for i, j in network:
        a, b = times[:, i], times[:, j]
        np.minimum(a, b, out=low)
        np.maximum(a, b, out=b)
        a[...] = low


def _endpoints(c: float, t: float, n: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of paths with ``n`` switches from their uniforms (one row
    per path: ``n`` instants, then ``n + 1`` directions), in the arithmetic
    order of :func:`endpoint_from_path`.  Overwrites ``u``.

    The two coordinates are formed apart, x from the cosines and y from the
    sines, by :func:`_pair`: x on its worker thread while y is formed here,
    or both here, one after the other, for a chunk of fewer than
    ``_PAIR_MIN_ANGLES`` angles, on one CPU, or while the worker serves
    another thread."""
    theta = u[:, n:]
    theta *= _TWO_PI
    if n == 0:
        ct = c * t
        angle = theta[:, 0]
        return _pair(angle.size, lambda: ct * np.cos(angle), lambda: ct * np.sin(angle))
    times = u[:, :n]
    _sort_rows(times)
    times *= t
    # Draw-major, one column per segment, for _row_sums.
    seg = np.empty((n + 1, u.shape[0])).T  # edges 1 .. n + 1, less edges 0 .. n
    seg[:, :n] = times
    seg[:, n] = t
    seg[:, 1:] -= times

    def coordinate(trig) -> np.ndarray:
        prod = trig(theta, out=np.empty_like(seg))
        prod *= seg
        # The scalar loop's leading 0.0 turns a -0.0 total into 0.0, hence + 0.0.
        return c * (_row_sums(prod) + 0.0)

    return _pair(theta.size, lambda: coordinate(np.cos), lambda: coordinate(np.sin))


def _row_sums(prod: np.ndarray) -> np.ndarray:
    """Left-to-right row sums of a draw-major array: whole columns added in
    turn.  One row is contiguous along the sum, where numpy would add
    pairwise, so it takes a running sum instead.

    That ``np.add.reduce`` adds a non-contiguous axis column by column is
    how numpy's iterator lays out the loop, not a documented guarantee;
    ``test_endpoint_kernel_rows_replay_their_paths`` checks it against the
    scalar loop, and CI runs that test on the oldest numpy allowed too."""
    if prod.shape[0] == 1:
        return np.cumsum(prod, axis=1, out=prod)[:, -1]
    return np.add.reduce(prod, axis=1)


# ---------------------------------------------------------------------------
# The two coordinates on two cores.
#
# Each coordinate of a chunk is a few elementwise numpy calls (cos or sin,
# the products, the row sums), which release the GIL over their loops, so
# one daemon thread forms x while the calling thread forms y, with the bits
# of the serial code.  Work passes through two SimpleQueues.  Handing a
# chunk over and waking the worker cost about as much as one coordinate of
# 1 000 to 2 500 angles takes, so a smaller chunk stays on the caller.

_PAIR_MIN_ANGLES = 2048  # a chunk of fewer angles forms both coordinates on the caller
_PAIR_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)  # CPUs the process may run on
_pair_lock = threading.Lock()  # held by the one caller the worker serves
_pair_queues = None  # the worker's (todo, done) queues, once it has started


def _pair(angles: int, first, second) -> tuple:
    """``(first(), second())`` for a chunk of ``angles`` angles: ``first``
    on the worker thread while ``second`` runs here.  Both run here, one
    after the other, for fewer than ``_PAIR_MIN_ANGLES`` angles, in a
    process bound to one CPU, or while the worker serves another thread.
    An exception raised by ``first`` is raised here."""
    global _pair_queues
    lock = _pair_lock
    if angles < _PAIR_MIN_ANGLES or _PAIR_CPUS < 2 or not lock.acquire(blocking=False):
        return first(), second()
    try:
        if _pair_queues is None:
            _pair_queues = _start_worker()
        todo, done = _pair_queues
        todo.put(first)
        try:
            ours = second()
        finally:
            try:
                ok, theirs = done.get()
            except BaseException:
                # Interrupted (say by KeyboardInterrupt) before the worker's
                # result came: leave that worker and its queues behind, so
                # that no later call reads this call's result as its own.
                _pair_queues = None
                raise
        if not ok:
            raise theirs
        return theirs, ours
    finally:
        lock.release()


def _start_worker() -> tuple:
    """Start the worker thread and return its ``(todo, done)`` queues."""
    import queue  # only a process that pairs a chunk loads it

    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    threading.Thread(target=_serve, args=(todo, done), name="fracmotion-pair",
                     daemon=True).start()
    return todo, done


def _serve(todo, done) -> None:
    """The worker's loop: call each function put on ``todo`` and put
    ``(True, result)`` or ``(False, exception)`` on ``done``."""
    while True:
        done.put(_call(todo.get()))


def _call(f) -> tuple:
    try:
        return True, f()
    except BaseException as exc:  # the caller raises it; left uncaught, the caller would hang
        return False, exc


def _forget_worker() -> None:
    """In a forked child, where the worker thread did not come along: the
    next paired call starts a worker of the child's own."""
    global _pair_lock, _pair_queues
    _pair_lock = threading.Lock()
    _pair_queues = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _block_endpoints(cfg: MotionConfig, dist: CountDistribution, seed: int,
                     block: slice) -> EndpointArrays:
    """One block's columns from its streams: draw the counts, sort the
    streams by count once and draw each equal-count group from contiguous
    rows in chunks of at most ``_DRAW_BUDGET`` uniforms, or
    ``_LONG_DRAW_BUDGET`` where the rows are read from PCG64 itself and at
    least two fit into ``_DRAW_BUDGET``, then put x and y back in sample
    order."""
    streams = _block_streams(seed, block)
    ns = dist.sample_many(streams.first_draws())
    # A row's draws do not depend on its place in its group, so any sort will do.
    order = np.argsort(ns)
    streams.sort(order)
    counts = ns[order]
    xy = np.empty((2, ns.size))  # x and y in count order
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), ns.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = int(counts[lo])
        long_paths = n > _MAX_PATH_SWITCHES
        draws = 2 if long_paths else 2 * n + 1
        per_chunk = max(1, _DRAW_BUDGET // draws)
        # A path that fills a chunk alone stays alone: one row sums
        # contiguously (_row_sums), faster than a few rows draw-major.
        if per_chunk > 1 and 1 + draws > _BULK_DRAWS:
            per_chunk = _LONG_DRAW_BUDGET // draws
        for first in range(lo, hi, per_chunk):
            chunk = slice(first, min(first + per_chunk, hi))
            u = streams.uniforms(1, draws, chunk)
            if long_paths:
                r = _radii(cfg.c * cfg.t, u[:, 0], 2.0 / n)
                xy[0, chunk] = r * np.cos(_TWO_PI * u[:, 1])
                xy[1, chunk] = r * np.sin(_TWO_PI * u[:, 1])
            else:
                xy[0, chunk], xy[1, chunk] = _endpoints(cfg.c, cfg.t, n, u)
    out = np.empty_like(xy)
    out[:, order] = xy
    return EndpointArrays(x=out[0], y=out[1], n=ns)


def endpoint_blocks(cfg: MotionConfig, n_samples: int, seed: int) -> Iterator[EndpointArrays]:
    """The batch of :func:`endpoint_arrays` as consecutive blocks of
    ``_BLOCK`` samples (the last one shorter), each drawn only when the
    iterator is asked for it.

    Bad arguments and every count-law error raise at the call, before any
    block is drawn, and the call builds the count table, which the law
    otherwise builds on its first draw.  The iterator keeps no reference to
    a block it has handed out, so a consumer that drops each block before
    asking for the next holds one block at a time: about 24 bytes per
    sample of one block, plus the sampler's working set.
    """
    blocks = _blocks(n_samples, seed)
    dist = count_distribution(cfg.count_spec, cfg.t)
    dist.support_size  # builds the table
    return (_block_endpoints(cfg, dist, seed, block) for block in blocks)


def endpoint_arrays(cfg: MotionConfig, n_samples: int, seed: int) -> EndpointArrays:
    """Draw ``n_samples`` endpoints as columns, deterministic in
    ``(cfg, n_samples, seed)``: the blocks of :func:`endpoint_blocks` laid
    end to end, 24 bytes per sample.

    Sample ``i`` is the path :func:`sample_trajectory` draws from
    ``np.random.default_rng((seed, i))``, bit for bit, up to
    ``_MAX_PATH_SWITCHES`` switches; past that, draws 1 and 2 give radius
    ``ct * sqrt(1 - (1 - u1)**(2/n))`` and direction ``2*pi*u2``.
    """
    blocks = endpoint_blocks(cfg, n_samples, seed)
    xs = np.empty(n_samples)
    ys = np.empty(n_samples)
    ns = np.empty(n_samples, dtype=np.int64)
    lo = 0
    for block in blocks:
        hi = lo + block.n.size
        xs[lo:hi], ys[lo:hi], ns[lo:hi] = block.x, block.y, block.n
        lo = hi
    return EndpointArrays(x=xs, y=ys, n=ns)


def _conditioned_chunk(instants: np.random.Generator, directions: np.random.Generator,
                       n: int, c: float, t: float, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``rows`` endpoints of :func:`conditioned_chunks`."""
    u = np.empty((rows, 2 * n + 1))
    u[:, :n] = instants.random((rows, n))
    u[:, n:] = directions.random((rows, n + 1))
    return _endpoints(c, t, n, u)


def conditioned_chunks(
    n: int, c: float, t: float, n_samples: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endpoints conditioned on exactly ``n >= 1`` switches, all drawn from
    one ``default_rng(seed)``: the batch's ``n_samples * n`` instants first,
    row by row, then its ``n_samples * (n + 1)`` directions.  Row ``j`` is
    :func:`endpoint_from_path` of row ``j``'s draws, bit for bit.

    The rows come as consecutive ``(x, y)`` chunks of ``max(1, _DRAW_BUDGET
    // (2n + 1))`` rows (the last one shorter), each drawn only when the
    iterator is asked for it.  Two generators read the one stream: one from
    draw 0 for the instants, the other advanced past them (PCG64 spends one
    output per double) for the directions.  Bad arguments raise at the
    call.  The iterator keeps no reference to a chunk it has handed out, so
    a consumer that drops each chunk before asking for the next holds one
    chunk of draws at a time."""
    if n < 1:
        raise DomainError(f"conditioning requires n >= 1, got {n}")
    _require_speed_horizon(c, t)
    _blocks(n_samples, seed)  # validates n_samples and seed
    instants = np.random.default_rng(seed)
    directions = np.random.default_rng(seed)
    directions.bit_generator.advance(n_samples * n)
    per_chunk = max(1, _DRAW_BUDGET // (2 * n + 1))
    return (_conditioned_chunk(instants, directions, n, c, t, min(per_chunk, n_samples - lo))
            for lo in range(0, n_samples, per_chunk))


def flight_radii_batch(
    d: int, n: int, c: float, t: float, variant: str, n_samples: int, seed: int
) -> np.ndarray:
    """Flight radii for fixed ``(d, n)`` by inversion of the marginal's
    radial CDF, radius ``i`` from draw 0 of substream ``(seed, i)``.  Bad
    arguments raise before any draw."""
    ct = _require_speed_horizon(c, t)
    inv_a = 1.0 / flight_exponent(d, n, variant)
    blocks = _blocks(n_samples, seed)
    radii = np.empty(n_samples)
    for block in blocks:
        radii[block] = _radii(ct, _block_streams(seed, block).first_draws(), inv_a)
    return radii
