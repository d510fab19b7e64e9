"""Trajectory and endpoint samplers: exactness, determinism, worker invariance."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from fracmotion import motion
from fracmotion.counting import (
    FlightCountSpec,
    FracPoissonSpec,
    RateFunction,
    StateDependentSpec,
    count_distribution,
)
from fracmotion.densities import flight_mixture_density, flight_unconditional
from fracmotion.motion import (
    MotionConfig,
    Trajectory,
    _Substreams,
    conditioned_chunks,
    endpoint_arrays,
    endpoint_blocks,
    endpoint_from_path,
    flight_radii_batch,
    sample_trajectory,
)
from fracmotion.specfun import ConvergenceError, DomainError, RangeOverflowError

P_FLOOR = 0.001


def laid_out_conditioned(n, c, t, n_samples, seed):
    """The chunks of :func:`conditioned_chunks` laid end to end in two columns."""
    xs, ys = np.empty(n_samples), np.empty(n_samples)
    lo = 0
    for x, y in conditioned_chunks(n, c, t, n_samples, seed):
        xs[lo:lo + x.size], ys[lo:lo + x.size] = x, y
        lo += x.size
    return xs, ys


def const_cfg(alpha: float = 1.0, lam: float = 1.0, c: float = 1.0, t: float = 1.0,
              **kw) -> MotionConfig:
    spec = FracPoissonSpec(alpha, RateFunction.constant(lam))
    return MotionConfig(c=c, t=t, count_spec=spec, **kw)


def stream(seed: int):
    rng = np.random.default_rng(seed)
    return iter(lambda: float(rng.random()), 2.0)


def counting_stream(values):
    """Iterator that records how many uniforms were consumed."""
    consumed = []

    def gen():
        for v in values:
            consumed.append(v)
            yield v

    return gen(), consumed


# ---------------------------------------------------------------------------
# Single trajectories


def test_endpoint_recompute_identity():
    traj = sample_trajectory(const_cfg(lam=3.0), stream(42))
    x, y = endpoint_from_path(traj.change_times, traj.angles, 1.0, 1.0)
    assert x == pytest.approx(traj.endpoint[0], abs=1e-12)
    assert y == pytest.approx(traj.endpoint[1], abs=1e-12)


def test_no_switch_lands_on_circle():
    # u small enough to force n=0 under any of these counting laws.
    cfg = const_cfg(lam=1.0)
    traj = sample_trajectory(cfg, iter([1e-9, 0.25]))
    assert traj.n_changes == 0
    assert traj.is_singular
    assert math.hypot(*traj.endpoint) == pytest.approx(1.0, abs=1e-14)


def test_out_and_back_returns_to_origin():
    x, y = endpoint_from_path([0.5], [0.3, 0.3 + math.pi], 2.0, 1.0)
    assert x == pytest.approx(0.0, abs=1e-14)
    assert y == pytest.approx(0.0, abs=1e-14)


def test_endpoint_within_reach():
    for seed in range(30):
        traj = sample_trajectory(const_cfg(lam=4.0), stream(seed))
        assert math.hypot(*traj.endpoint) <= 1.0 + 1e-12


def test_uniform_consumption_is_one_plus_n_plus_n_plus_one():
    cfg = const_cfg(lam=2.0)
    # Feed a long recorded stream; count must be exactly 2(n+1).
    rng = np.random.default_rng(7)
    values = [float(rng.random()) for _ in range(200)]
    it, consumed = counting_stream(values)
    traj = sample_trajectory(cfg, it)
    assert len(consumed) == 1 + traj.n_changes + (traj.n_changes + 1)


def test_angles_are_per_segment():
    traj = sample_trajectory(const_cfg(lam=5.0), stream(3))
    assert len(traj.angles) == traj.n_changes + 1
    assert all(0.0 <= a < 2.0 * math.pi for a in traj.angles)
    assert list(traj.change_times) == sorted(traj.change_times)


def test_motion_config_validation():
    with pytest.raises(DomainError):
        const_cfg(c=0.0)
    with pytest.raises(DomainError):
        const_cfg(t=-1.0)


# ---------------------------------------------------------------------------
# Endpoint batches


def test_batch_deterministic():
    cfg = const_cfg(lam=1.0)
    base = endpoint_arrays(cfg, 3000, seed=5)
    again = endpoint_arrays(cfg, 3000, seed=5)
    for f in base._fields:
        assert np.array_equal(getattr(base, f), getattr(again, f))
    other = endpoint_arrays(cfg, 3000, seed=6)
    assert not np.array_equal(base.x, other.x)


def test_batch_agrees_with_stream_sampler_per_substream():
    # Sample i of a batch is defined by the substream (seed, i); replaying
    # that substream through the generic trajectory sampler must reproduce
    # the endpoint bit for bit.
    cfg = const_cfg(lam=1.0)
    cols = endpoint_arrays(cfg, 20, seed=31)
    for i in (0, 3, 17):
        rng = np.random.default_rng((31, i))
        traj = sample_trajectory(cfg, iter(lambda: float(rng.random()), 2.0))
        assert traj.endpoint == (cols.x[i], cols.y[i])
        assert traj.n_changes == cols.n[i]


def replay(cfg: MotionConfig, seed: int, i: int) -> Trajectory:
    rng = np.random.default_rng((seed, i))
    return sample_trajectory(cfg, iter(lambda: float(rng.random()), 2.0))


def assert_rows_replay(cfg: MotionConfig, cols, seed: int, rows) -> None:
    for i in rows:
        traj = replay(cfg, seed, int(i))
        assert traj.endpoint == (cols.x[i], cols.y[i]), i
        assert traj.n_changes == cols.n[i], i


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
INDICES = [0, 1, 2**32 - 1, 2**32, 2**33 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_substreams_match_default_rng(seed):
    # Seeds and indices of 2**32 or more are several entropy words each.
    expected = [np.random.default_rng((seed, i)).random(40) for i in INDICES]
    streams = _Substreams(seed, np.array(INDICES, dtype=np.uint64))
    assert np.array_equal(streams.uniforms(0, 40), expected)
    assert np.array_equal(streams.uniforms(33, 7, np.array([4, 0, 3])),
                          [expected[r][33:40] for r in (4, 0, 3)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**128 - 1),
       indices=st.lists(st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                                  st.integers(min_value=2**32, max_value=2**64 - 1)),
                        min_size=1, max_size=6))
def test_seed_sequence_state_is_numpys(seed, indices):
    # Seeds of up to four words put the index words in the pool or past it.
    expected = np.array([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                         for i in indices])
    idx = np.array(indices, dtype=np.uint64)
    wide = idx > 2**32 - 1
    for part in (~wide, wide):
        if part.any():
            words = [(idx[part] & 0xFFFFFFFF).astype(np.uint32)]
            if wide[part][0]:
                words.append((idx[part] >> 32).astype(np.uint32))
            state = motion._seed_sequence_state(motion._entropy_words(seed), words)
            assert np.array_equal(np.array(state).T, expected[part])
    # Streams of both kinds in one block are seeded both ways.
    assert np.array_equal(_Substreams(seed, idx).uniforms(0, 3),
                          [np.random.default_rng((seed, i)).random(3) for i in indices])


@pytest.mark.parametrize("seed", SEEDS)
def test_long_reads_come_from_pcg64_at_the_bulk_seeded_state(seed, monkeypatch):
    # A path of n switches reads draws 1 .. 2n + 1.  From 2n + 1 = _BULK_DRAWS
    # on, numpy's own PCG64 draws them, set to each stream's state; that
    # holds far past the first 4096 draws too.
    split = motion._BULK_DRAWS
    far = 4096
    expected = [np.random.default_rng((seed, i)).random(2 * far + 5) for i in INDICES]
    streams = _Substreams(seed, np.array(INDICES, dtype=np.uint64))
    counts = []
    pcg64 = _Substreams._pcg64_uniforms

    def spy(self, start, count, *halves):
        counts.append(count)
        return pcg64(self, start, count, *halves)

    monkeypatch.setattr(_Substreams, "_pcg64_uniforms", spy)
    for count in (split - 2, split, split + 2):
        assert np.array_equal(streams.uniforms(1, count), [e[1:count + 1] for e in expected])
    assert np.array_equal(streams.uniforms(far - 5, far + 10, np.array([1, 2])),
                          [expected[r][far - 5:] for r in (1, 2)])
    assert counts == [split, split + 2, far + 10]


@pytest.mark.parametrize("c,t", [(0.7, 1.0), (3.3, 0.6)])
def test_batch_replays_bit_for_bit_for_any_speed(c, t):
    cfg = const_cfg(alpha=0.5, lam=1.0, c=c, t=t)
    cols = endpoint_arrays(cfg, 2000, seed=31)
    assert_rows_replay(cfg, cols, 31, range(2000))


@pytest.mark.parametrize(
    "cfg",
    [
        const_cfg(alpha=0.5, lam=10.0),
        const_cfg(alpha=1.0, lam=2.0, c=1.3),
        MotionConfig(c=0.9, t=1.5, count_spec=FracPoissonSpec(0.7, RateFunction.power(3.0, 0.5))),
    ],
    ids=["dense-const10", "alpha1", "power-rate"],
)
def test_batch_replays_bit_for_bit(cfg):
    cols = endpoint_arrays(cfg, 150, seed=8)
    assert_rows_replay(cfg, cols, 8, range(150))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batch_rows_do_not_depend_on_batch_size(offset):
    # Sizes just around a block and two blocks: each batch is a prefix of
    # the longest, whose rows on the edges replay.
    cfg = const_cfg(alpha=0.5, lam=1.0, c=0.7)
    block = motion._BLOCK
    sizes = [1] + [base + offset for base in (block, 2 * block)]
    longest = endpoint_arrays(cfg, sizes[-1], seed=12)
    edges = [0, block - 1, block, sizes[-1] - 2, sizes[-1] - 1]
    assert_rows_replay(cfg, longest, 12, edges)
    for n in sizes[:-1]:
        cols = endpoint_arrays(cfg, n, seed=12)
        for f in cols._fields:
            assert np.array_equal(getattr(cols, f), getattr(longest, f)[:n]), (n, f)


def test_batch_does_not_depend_on_block_and_draw_budget(monkeypatch):
    cfg = const_cfg(alpha=0.5, lam=10.0, c=1.7)
    base = endpoint_arrays(cfg, 300, seed=4)
    monkeypatch.setattr(motion, "_BLOCK", 37)
    monkeypatch.setattr(motion, "_DRAW_BUDGET", 500)
    # Every path is drawn by numpy's PCG64 at 1, every one in bulk at 10**9.
    for bulk_draws in (1, 10**9):
        monkeypatch.setattr(motion, "_BULK_DRAWS", bulk_draws)
        small = endpoint_arrays(cfg, 300, seed=4)
        for f in base._fields:
            assert np.array_equal(getattr(base, f), getattr(small, f))


def test_block_columns_do_not_depend_on_the_order_of_their_count_groups(monkeypatch):
    # The blocks draw their count groups in the order of motion's np.argsort:
    # here largest count first, each group's rows shuffled, in chunks of few
    # rows.
    cfg = const_cfg(alpha=0.5, lam=3.0, c=1.3)
    base = endpoint_arrays(cfg, 3000, seed=6)
    shuffle = np.random.default_rng(0)
    calls = []

    class Numpy:
        """numpy as motion sees it, but with the count order turned round."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(a):
            calls.append(a.size)
            return np.lexsort((shuffle.random(a.size), -a))

    monkeypatch.setattr(motion, "np", Numpy())
    monkeypatch.setattr(motion, "_BLOCK", 1000)
    monkeypatch.setattr(motion, "_DRAW_BUDGET", 60)
    turned = endpoint_arrays(cfg, 3000, seed=6)
    assert calls == [1000] * 3
    for f in base._fields:
        assert np.array_equal(getattr(base, f), getattr(turned, f)), f


def test_sparse_batch_groups_rows_once_per_block(monkeypatch):
    # At about 2.2 switches per path a block of 2**14 samples holds about 16
    # distinct counts, one kernel call each: 113 calls for 1e5 paths, where
    # sorting every 4096 samples made 334.
    calls = []
    kernel = motion._endpoints

    def spy(c, t, n, u):
        calls.append(n)
        return kernel(c, t, n, u)

    monkeypatch.setattr(motion, "_endpoints", spy)
    cols = endpoint_arrays(const_cfg(alpha=0.5, lam=1.0), 100_000, seed=2)
    assert len(calls) <= 120
    assert len(set(calls)) == np.unique(cols.n).size


def test_sparse_batch_peak_allocation_is_bounded():
    # Sparse paths fill whole chunks: beyond the 2.5 MB of output columns
    # the sampler holds 0.5 MB of stream state and one chunk of draws.
    cfg = const_cfg(alpha=0.5, lam=1.0)
    endpoint_arrays(cfg, 1, seed=0)  # build the count table outside the trace
    tracemalloc.start()
    try:
        endpoint_arrays(cfg, 100_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_batch_peak_allocation_is_bounded():
    # 1e5 paths of about 200 switches draw 4e7 uniforms; blocks and the draw
    # budget keep the working set to about the 2.5 MB of output columns.
    cfg = const_cfg(alpha=0.5, lam=10.0)
    endpoint_arrays(cfg, 1, seed=0)  # build the count table outside the trace
    tracemalloc.start()
    try:
        cols = endpoint_arrays(cfg, 100_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.n.mean() > 150
    assert peak < 8e6


def test_batch_rejects_negative_seed():
    with pytest.raises(DomainError):
        endpoint_arrays(const_cfg(), 10, seed=-1)


def test_batch_singular_samples_sit_on_circle():
    cols = endpoint_arrays(const_cfg(lam=1.0, c=2.0, t=0.5), 5000, seed=1)
    r = np.hypot(cols.x, cols.y)
    assert np.all(r <= 1.0 + 1e-12)
    assert cols._fields == ("x", "y", "n")
    assert np.array_equal(cols.is_singular, cols.n == 0)
    on_circle = np.abs(r[cols.is_singular] - 1.0)
    assert float(on_circle.max(initial=0.0)) < 1e-12


def test_batch_zero_rate_is_all_singular():
    cols = endpoint_arrays(const_cfg(lam=0.0), 200, seed=0)
    assert bool(cols.is_singular.all())
    assert np.all(cols.n == 0)


def test_batch_validation():
    with pytest.raises(DomainError):
        endpoint_arrays(const_cfg(), 0, seed=1)


def test_singular_fraction_within_3_sigma():
    n = 200_000
    cols = endpoint_arrays(const_cfg(lam=1.0), n, seed=77)
    p0 = math.exp(-1.0)
    z = (cols.is_singular.mean() - p0) / math.sqrt(p0 * (1.0 - p0) / n)
    assert abs(z) <= 3.0


# ---------------------------------------------------------------------------
# Conditional endpoint law (radius KS against the exact conditional CDF,
# angle KS against uniform)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conditioned_radius_matches_conditional_law(n):
    x, y = laid_out_conditioned(n, 1.0, 1.0, 100_000, seed=40 + n)
    r = np.hypot(x, y)
    cdf = lambda v: 1.0 - (1.0 - np.clip(v, 0.0, 1.0) ** 2) ** (n / 2.0)  # noqa: E731
    p = scipy.stats.kstest(r, cdf).pvalue
    assert p > P_FLOOR


def test_conditioned_angle_is_uniform():
    x, y = laid_out_conditioned(2, 1.0, 1.0, 100_000, seed=8)
    theta = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    p = scipy.stats.kstest(theta / (2.0 * math.pi), "uniform").pvalue
    assert p > P_FLOOR


def test_batch_radius_matches_mixture_cdf_classical():
    # Unconditional nonsingular radii at α=1: mixture of the conditional
    # CDFs weighted by the zero-truncated Poisson pmf.
    cols = endpoint_arrays(const_cfg(lam=1.0), 100_000, seed=55)
    r = np.sort(np.hypot(cols.x[~cols.is_singular], cols.y[~cols.is_singular]))
    weights = np.array([math.exp(-1.0) / math.factorial(k) for k in range(1, 60)])
    weights /= weights.sum()

    def cdf(v):
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        acc = np.zeros_like(v)
        for k, wk in enumerate(weights, start=1):
            acc += wk * (1.0 - (1.0 - v * v) ** (k / 2.0))
        return acc

    p = scipy.stats.kstest(r, cdf).pvalue
    assert p > P_FLOOR


def test_long_paths_take_the_exact_endpoint_law_given_their_count(monkeypatch):
    # A path with more than _MAX_PATH_SWITCHES switches takes radius
    # ct*sqrt(1 - v^(2/n)) and a uniform direction. With the threshold at 0
    # every nonsingular sample does; the counts are the path sampler's and
    # the radii follow the same Poisson mixture of conditional laws.
    counts = endpoint_arrays(const_cfg(lam=1.0), 100_000, seed=55).n
    monkeypatch.setattr(motion, "_MAX_PATH_SWITCHES", 0)
    cols = endpoint_arrays(const_cfg(lam=1.0), 100_000, seed=55)
    assert np.array_equal(cols.n, counts)
    moved = ~cols.is_singular
    weights = np.array([math.exp(-1.0) / math.factorial(k) for k in range(1, 60)])
    weights /= weights.sum()

    def cdf(v):
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        return sum(wk * (1.0 - (1.0 - v * v) ** (k / 2.0)) for k, wk in enumerate(weights, 1))

    assert scipy.stats.kstest(np.hypot(cols.x[moved], cols.y[moved]), cdf).pvalue > P_FLOOR
    theta = np.mod(np.arctan2(cols.y[moved], cols.x[moved]), 2.0 * math.pi) / (2.0 * math.pi)
    assert scipy.stats.kstest(theta, "uniform").pvalue > P_FLOOR


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_conditioned_endpoints_replay_their_paths(n):
    # Row j is endpoint_from_path of row j's draws from one default_rng(seed):
    # the (N, n) instants first, then the (N, n + 1) directions.
    c, t, n_samples, seed = 2.5, 0.7, 300, 17
    x, y = laid_out_conditioned(n, c, t, n_samples, seed)
    rng = np.random.default_rng(seed)
    instants, directions = rng.random((n_samples, n)), rng.random((n_samples, n + 1))
    for j in range(n_samples):
        times = tuple(t * v for v in sorted(instants[j].tolist()))
        angles = tuple(2.0 * math.pi * v for v in directions[j].tolist())
        assert (x[j], y[j]) == endpoint_from_path(times, angles, c, t)


# ---------------------------------------------------------------------------
# The endpoint kernel


@pytest.mark.parametrize("n", sorted(motion._SORT_NETWORKS))
def test_sort_networks_sort_every_zero_one_row(n, monkeypatch):
    # A comparator network that sorts every 0/1 input sorts every input.
    monkeypatch.setattr(motion, "_NETWORK_ROWS_PER_EXCHANGE", 0)
    rows = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    want = np.sort(rows, axis=1)
    motion._sort_rows(rows)
    assert np.array_equal(rows, want)


def assert_kernel_rows_replay(rows, n, layout):
    """Row j of the kernel's endpoints is endpoint_from_path of its draws."""
    c, t = 1.3, 0.7
    draws = np.random.default_rng((rows, n)).random((rows, 2 * n + 1))
    x, y = motion._endpoints(c, t, n, np.array(draws, order=layout))
    for j, row in enumerate(draws.tolist()):
        times = tuple(t * v for v in sorted(row[:n]))
        angles = tuple(2.0 * math.pi * v for v in row[n:])
        assert (x[j], y[j]) == endpoint_from_path(times, angles, c, t), j


@pytest.mark.parametrize("network_rows", [None, 0])
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 20, 60])
@pytest.mark.parametrize("rows", [1, 2, 3, 40, 400])
def test_endpoint_kernel_rows_replay_their_paths(rows, n, layout, network_rows, monkeypatch):
    # One row takes a running sum, more rows add whole columns; short rows
    # of enough paths sort by a network (every group of 2 .. 6 instants at
    # network_rows = 0).  Either way row j is endpoint_from_path of its draws.
    if network_rows is not None:
        monkeypatch.setattr(motion, "_NETWORK_ROWS_PER_EXCHANGE", network_rows)
    assert_kernel_rows_replay(rows, n, layout)


def force_pair(monkeypatch, paired: bool) -> None:
    """Form the kernel's x on the worker thread at every chunk size, even
    on one CPU, or never."""
    monkeypatch.setattr(motion, "_PAIR_MIN_ANGLES", 0 if paired else math.inf)
    if paired:
        monkeypatch.setattr(motion, "_PAIR_CPUS", 2)


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
@pytest.mark.parametrize("rows", [1, 2, 3, 40, 400])
def test_paired_endpoint_kernel_rows_replay_their_paths(rows, n, paired, monkeypatch):
    # x formed on the worker thread while y is formed here, or both here:
    # the same bits, in both branches (n = 0 and n >= 1).
    force_pair(monkeypatch, paired)
    assert_kernel_rows_replay(rows, n, "C")


def test_concurrent_batches_get_the_sequential_bits(monkeypatch):
    # Caller threads share one worker: whichever finds it busy forms both
    # coordinates itself, so none waits for another's chunks.  More callers
    # than CPUs, switching often, each get the bits of a sequential draw.
    force_pair(monkeypatch, True)
    cfg = const_cfg(alpha=0.5, lam=10.0)
    seeds = range(max(4, (os.cpu_count() or 1) + 1))
    want = {seed: endpoint_arrays(cfg, 2000, seed) for seed in seeds}
    got = {}

    def draw(seed):
        got[seed] = endpoint_arrays(cfg, 2000, seed)

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        for field in want[seed]._fields:
            assert np.array_equal(getattr(got[seed], field), getattr(want[seed], field)), seed


def test_pair_raises_either_half_and_keeps_working(monkeypatch):
    force_pair(monkeypatch, True)

    def fail():
        raise ZeroDivisionError("half failed")

    first, second = motion._pair(1, threading.get_ident, threading.get_ident)
    assert first != second == threading.get_ident()
    with pytest.raises(ZeroDivisionError, match="half failed"):
        motion._pair(1, fail, lambda: "y")
    assert motion._pair(1, lambda: "x", lambda: "y") == ("x", "y")
    # The worker's result of a call whose own half failed is collected, not
    # handed to the next call.
    with pytest.raises(ZeroDivisionError, match="half failed"):
        motion._pair(1, lambda: "stale", fail)
    assert motion._pair(1, lambda: "x", lambda: "y") == ("x", "y")


def test_an_interrupted_wait_hands_no_stale_result_to_the_next_call(monkeypatch):
    # An interrupt while the worker's half is still running leaves its
    # result to come; the next call must not take it for its own.
    force_pair(monkeypatch, True)
    todo, done = motion._start_worker()

    class InterruptedOnce:
        interrupted = False

        def get(self):
            if not self.interrupted:
                self.interrupted = True
                raise KeyboardInterrupt
            return done.get()

    monkeypatch.setattr(motion, "_pair_queues", (todo, InterruptedOnce()))
    with pytest.raises(KeyboardInterrupt):
        motion._pair(1, lambda: "stale", lambda: "y")
    assert motion._pair(1, lambda: "x", lambda: "y") == ("x", "y")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    # The parent's worker thread does not come along into a forked child;
    # waiting on it there would hang.
    force_pair(monkeypatch, True)
    cfg = const_cfg(alpha=0.5, lam=10.0)
    want = endpoint_arrays(cfg, 500, seed=5)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = endpoint_arrays(cfg, 500, seed=5)
            first, second = motion._pair(1, threading.get_ident, threading.get_ident)
            same = all(np.array_equal(getattr(got, f), getattr(want, f)) for f in want._fields)
            code = 0 if same and first != second else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def one_shot_conditioned_endpoints(n, c, t, n_samples, seed):
    """The whole batch in one call: all instants, then all directions."""
    rng = np.random.default_rng(seed)
    return motion._endpoints(c, t, n, np.hstack((rng.random((n_samples, n)),
                                                 rng.random((n_samples, n + 1)))))


@pytest.mark.parametrize("budget", [None, 16])
@pytest.mark.parametrize("seed", [0, 77, 2**40 + 5])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_chunked_conditioned_endpoints_match_the_one_shot_batch(n, seed, budget, monkeypatch):
    # Chunks of rows, and the second generator advanced past the instants,
    # read the stream exactly as one batch-wide draw of each array does.
    if budget is not None:
        monkeypatch.setattr(motion, "_DRAW_BUDGET", budget)
    chunk = max(1, motion._DRAW_BUDGET // (2 * n + 1))
    for n_samples in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
        if n_samples < 1:
            continue
        x, y = laid_out_conditioned(n, 1.7, 0.6, n_samples, seed)
        ref_x, ref_y = one_shot_conditioned_endpoints(n, 1.7, 0.6, n_samples, seed)
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y), n_samples


@pytest.mark.parametrize("n_samples,bound", [(100_000, 4e6), (1_000_000, 25e6)])
def test_conditioned_endpoints_peak_allocation_is_bounded(n_samples, bound):
    # Beyond the two output columns (16 bytes per sample) the sampler holds
    # one chunk of draws and its temporaries.
    tracemalloc.start()
    try:
        laid_out_conditioned(2, 1.0, 1.0, n_samples, seed=20260815)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# Streamed blocks and chunks


@pytest.mark.parametrize("seed", [20260815, 77])
@pytest.mark.parametrize("n_samples", [1, motion._BLOCK - 1, motion._BLOCK, motion._BLOCK + 1,
                                       2 * motion._BLOCK + 7])
def test_endpoint_blocks_lay_out_endpoint_arrays(n_samples, seed):
    # Block k holds samples k*_BLOCK onwards, so the blocks laid end to end
    # are the batch, bit for bit, across every block edge.
    cfg = const_cfg(alpha=0.5, lam=1.0)
    blocks = list(endpoint_blocks(cfg, n_samples, seed))
    sizes = [b.n.size for b in blocks]
    assert sizes[:-1] == [motion._BLOCK] * (len(sizes) - 1) and sum(sizes) == n_samples
    whole = endpoint_arrays(cfg, n_samples, seed)
    for field in whole._fields:
        assert np.array_equal(np.concatenate([getattr(b, field) for b in blocks]),
                              getattr(whole, field)), field


def test_endpoint_blocks_validate_and_build_the_table_at_the_call(monkeypatch):
    # Errors come before any block is drawn, not at the first next().
    with pytest.raises(DomainError):
        endpoint_blocks(const_cfg(), 0, seed=1)
    with pytest.raises(DomainError):
        endpoint_blocks(const_cfg(), 10, seed=-1)
    with pytest.raises(ConvergenceError):
        endpoint_blocks(const_cfg(alpha=0.1, lam=60.0), 10, seed=1)
    drawn = []
    monkeypatch.setattr(motion, "_block_endpoints", lambda *args: drawn.append(args))
    cfg = const_cfg(alpha=0.5, lam=2.71828)  # a law no other test caches
    dist = count_distribution(cfg.count_spec, cfg.t)
    assert "_cum" not in vars(dist)
    endpoint_blocks(cfg, 3 * motion._BLOCK, seed=1)
    assert drawn == []
    assert "_cum" in vars(dist)


def test_endpoint_blocks_keep_no_reference_to_a_handed_out_block():
    # A consumer that drops a block before asking for the next holds one.
    blocks = endpoint_blocks(const_cfg(alpha=0.5, lam=1.0), 2 * motion._BLOCK, seed=3)
    block = next(blocks)
    columns = [weakref.ref(col) for col in (block.x, block.y, block.n)]
    del block
    assert all(ref() is None for ref in columns)
    assert next(blocks).n.size == motion._BLOCK


@pytest.mark.parametrize("seed", [0, 77])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_conditioned_chunks_lay_out_conditioned_endpoints(n, seed):
    per_chunk = motion._DRAW_BUDGET // (2 * n + 1)
    n_samples = 2 * per_chunk + 5
    chunks = list(conditioned_chunks(n, 1.7, 0.6, n_samples, seed))
    assert [x.size for x, _ in chunks] == [per_chunk, per_chunk, 5]
    x, y = one_shot_conditioned_endpoints(n, 1.7, 0.6, n_samples, seed)
    assert np.array_equal(np.concatenate([cx for cx, _ in chunks]), x)
    assert np.array_equal(np.concatenate([cy for _, cy in chunks]), y)


def test_conditioned_chunks_validate_at_the_call():
    for n, n_samples, seed in ((0, 10, 1), (2, 0, 1), (2, 10, -1)):
        with pytest.raises(DomainError):
            conditioned_chunks(n, 1.0, 1.0, n_samples, seed)


BAD_SPEED_HORIZON = [(math.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0),
                     (1.0, math.nan), (1.0, -1.0), (1.0, 0.0), (1.0, math.inf)]


@pytest.mark.parametrize("c,t", BAD_SPEED_HORIZON)
def test_conditioned_chunks_reject_a_bad_speed_or_horizon_at_the_call(c, t):
    # Before, a NaN speed gave NaN endpoints and c = -1 finite ones.
    with pytest.raises(DomainError, match="must be finite and positive"):
        conditioned_chunks(2, c, t, 3, 0)


# ---------------------------------------------------------------------------
# Flight radius sampler


def feed_uniforms(monkeypatch, values):
    """Make draw 0 of the substreams of the next batch be ``values``."""
    def first_draws(self):
        assert self.x_hi.size == len(values)
        return np.array(values, dtype=float)

    monkeypatch.setattr(motion._Substreams, "first_draws", first_draws)


def inverted(c, t, a, u):
    """ct·sqrt(1 − (1 − u)^(1/a)), the radius of draw u."""
    return c * t * np.sqrt(-np.expm1(np.log1p(-np.asarray(u)) * (1.0 / a)))


def test_flight_radius_endpoint_uniforms(monkeypatch):
    # u = 0 is the centre; the largest draw below 1 lands just inside the rim.
    feed_uniforms(monkeypatch, [0.0, 1.0 - 2.0**-53])
    r = flight_radii_batch(4, 1, 1.0, 1.0, "Y", 2, seed=0)
    assert r[0] == 0.0
    assert 1.0 - 1e-8 < r[1] < 1.0


@pytest.mark.parametrize("c,t", BAD_SPEED_HORIZON)
def test_flight_radii_batch_rejects_a_bad_speed_or_horizon(monkeypatch, c, t):
    # Before, a NaN horizon gave NaN radii.  No stream is read.
    monkeypatch.setattr(motion, "_block_streams", None)
    with pytest.raises(DomainError, match="must be finite and positive"):
        flight_radii_batch(3, 1, c, t, "Y", 3, 0)


def test_flight_radius_median(monkeypatch):
    # u=1/2 → r = ct√(1 − 2^{-1/a}); a = 2 for d=4, n=1 (Y).
    feed_uniforms(monkeypatch, [0.5])
    r = flight_radii_batch(4, 1, 2.0, 1.0, "Y", 1, seed=0)
    assert r[0] == pytest.approx(2.0 * math.sqrt(1.0 - 2.0 ** -0.5), rel=1e-14)


@pytest.mark.parametrize("d,n,variant", [(4, 1, "Y"), (5, 2, "Y"), (3, 0, "X"), (4, 3, "X")])
def test_flight_radii_batch_is_the_inversion_map(d, n, variant):
    from fracmotion.densities import flight_exponent

    # Radius i inverts draw 0 of default_rng((seed, i)), bit for bit.
    c, t, seed = 2.0, 1.3, 9
    u = [np.random.default_rng((seed, i)).random() for i in range(1000)]
    radii = flight_radii_batch(d, n, c, t, variant, 1000, seed)
    assert np.array_equal(radii, inverted(c, t, flight_exponent(d, n, variant), u))


def test_flight_radii_are_substream_rows():
    from fracmotion.densities import flight_exponent

    # Across a block boundary every radius is its own substream's, so a
    # shorter batch is a prefix of a longer one.
    seed = 2**40 + 3
    radii = flight_radii_batch(3, 2, 1.0, 1.0, "Y", 5000, seed)
    u = [np.random.default_rng((seed, i)).random() for i in range(5000)]
    assert np.array_equal(radii, inverted(1.0, 1.0, flight_exponent(3, 2, "Y"), u))
    assert np.array_equal(flight_radii_batch(3, 2, 1.0, 1.0, "Y", 1000, seed), radii[:1000])


def test_flight_radii_batch_validation():
    for n_samples in (0, -3):
        with pytest.raises(DomainError):
            flight_radii_batch(4, 1, 1.0, 1.0, "Y", n_samples, seed=1)
    with pytest.raises(DomainError):
        flight_radii_batch(4, 1, 1.0, 1.0, "Y", 10, seed=-1)


@pytest.mark.parametrize("d,n,variant", [(5, 2, "Y"), (3, 0, "X"), (4, 3, "X")])
def test_flight_radii_batch_matches_marginal_cdf(d, n, variant):
    from fracmotion.densities import flight_exponent

    radii = flight_radii_batch(d, n, 1.0, 1.0, variant, 100_000, seed=12)
    a = flight_exponent(d, n, variant)
    cdf = lambda v: 1.0 - (1.0 - np.clip(v, 0.0, 1.0) ** 2) ** a  # noqa: E731
    p = scipy.stats.kstest(radii, cdf).pvalue
    assert p > P_FLOOR


def test_flight_radii_batch_deterministic():
    a = flight_radii_batch(4, 1, 1.0, 1.0, "Y", 1000, seed=3)
    b = flight_radii_batch(4, 1, 1.0, 1.0, "Y", 1000, seed=3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_trajectory_invariants_hold_for_any_seed(seed):
    traj = sample_trajectory(const_cfg(lam=2.0), stream(seed))
    assert len(traj.angles) == traj.n_changes + 1
    assert all(0.0 <= s <= 1.0 for s in traj.change_times)
    assert math.hypot(*traj.endpoint) <= 1.0 + 1e-12
    x, y = endpoint_from_path(traj.change_times, traj.angles, 1.0, 1.0)
    assert (x, y) == pytest.approx(traj.endpoint, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d=st.integers(min_value=3, max_value=6),
    n=st.integers(min_value=0, max_value=5),
)
def test_flight_radius_stays_in_closed_disk(seed, d, n):
    radii = flight_radii_batch(d, n, 1.3, 0.7, "Y", 500, seed)
    assert np.all((0.0 <= radii) & (radii <= 1.3 * 0.7 + 1e-12))


# Every rate kind, with Lambda(t) <= 8/3 on t <= 2: at alpha = 0.1 the
# state-dependent table then stays below 2e5 counts.
RATES = st.one_of(
    st.builds(RateFunction.constant, st.floats(min_value=0.0, max_value=1.0)),
    st.builds(RateFunction.power, st.floats(min_value=0.0, max_value=1.0),
              st.floats(min_value=0.0, max_value=2.0)),
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=4, unique=True).flatmap(
        lambda bps: st.builds(RateFunction.piecewise, st.just(sorted(bps)),
                              st.lists(st.floats(min_value=0.0, max_value=1.0),
                                       min_size=len(bps), max_size=len(bps)))),
)
DOCUMENTED_ERRORS = (DomainError, ConvergenceError, RangeOverflowError)


@settings(max_examples=25, deadline=None)
@given(
    alphas=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=4),
    rate=RATES,
    c=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**40),
)
def test_state_dependent_spec_gives_finite_values_or_a_documented_error(alphas, rate, c, t, seed):
    spec = StateDependentSpec(tuple(alphas), rate)
    try:
        dist = count_distribution(spec, t)
        counts = dist.sample_many(np.array([0.0, 0.25, 0.75, 1.0 - 2.0**-53]))
        cols = endpoint_arrays(MotionConfig(c=c, t=t, count_spec=spec), 8, seed)
    except DOCUMENTED_ERRORS:
        return
    assert np.all(np.isfinite(dist.pmf(counts)))
    assert np.all((dist.n_lo <= counts) & (counts < dist.support_size))
    assert np.all(np.isfinite(cols.x) & np.isfinite(cols.y))
    assert np.all(np.hypot(cols.x, cols.y) <= c * t * (1.0 + 1e-12))
    assert np.array_equal(cols.is_singular, cols.n == 0)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=3, max_value=10),
    rate=RATES,
    c=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.1, max_value=2.0),
    n=st.integers(min_value=0, max_value=50),
    variant=st.sampled_from(["X", "Y"]),
    seed=st.integers(min_value=0, max_value=2**40),
)
def test_flight_spec_gives_finite_values_or_a_documented_error(d, rate, c, t, n, variant, seed):
    # Small and large ct: the mixture's marginals once formed (ct)**(2a),
    # which left the double range at large a.
    spec = FlightCountSpec(d, rate)
    r = c * t * np.array([0.0, 0.5, 0.99])
    try:
        closed = flight_unconditional(spec, c, t, r)
        mixture = [flight_mixture_density(spec, c, t, v, variant) for v in r.tolist()]
        radii = flight_radii_batch(d, n, c, t, variant, 8, seed)
    except DOCUMENTED_ERRORS:
        return
    assert np.all(np.isfinite(closed) & (closed >= 0.0))
    assert all(math.isfinite(v) and v >= 0.0 for v in mixture)
    assert np.all((0.0 <= radii) & (radii <= c * t))
