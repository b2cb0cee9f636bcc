import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauss import rng
from latgauss.rng import NoiseStream, ZeroStream, ball_points, normal_blocks

WORD = st.integers(0, 2**64 - 1)


def one(draw):
    """A one-row draw axis."""
    return np.array([draw], dtype=np.uint64)


def test_repeatable_bitwise():
    a = NoiseStream(42).normal_matrix(3, one(7), 16)
    b = NoiseStream(42).normal_matrix(3, one(7), 16)
    assert np.array_equal(a, b)


def test_seed_changes_stream():
    a = NoiseStream(1).uniform_matrix(0, one(0), 32)
    b = NoiseStream(2).uniform_matrix(0, one(0), 32)
    assert not np.array_equal(a, b)


def test_component_prefix_stability():
    s = NoiseStream(5)
    short = s.uniform_matrix(2, one(9), 4)
    long = s.uniform_matrix(2, one(9), 11)
    assert np.array_equal(short, long[:, :4])


def test_counters_are_independent_axes():
    # moving any one counter gives fresh words, leaving the rest untouched
    s = NoiseStream(0)
    base = s.uniform_matrix(1, one(1), 8)
    assert not np.array_equal(base, s.uniform_matrix(2, one(1), 8))
    assert not np.array_equal(base, s.uniform_matrix(1, one(2), 8))


def test_matrix_matches_scalar_calls():
    s = NoiseStream(17)
    draws = np.arange(5, dtype=np.uint64)
    M = s.normal_matrix(4, draws, 3)
    for i in range(5):
        assert np.array_equal(M[i], s.normal_matrix(4, one(i), 3)[0])


def test_uniform_in_open_interval():
    u = NoiseStream(3).uniform_matrix(0, np.arange(1000, dtype=np.uint64), 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_normal_moments():
    z = NoiseStream(8).normal_matrix(0, np.arange(20_000, dtype=np.uint64), 2).ravel()
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)


def test_ball_points_inside_and_nondegenerate():
    s = NoiseStream(12)
    pts = ball_points(s, 0, np.arange(2000, dtype=np.uint64), 3, 2.5)
    r = np.linalg.norm(pts, axis=1)
    assert np.all(r <= 2.5 + 1e-12)
    # uniform in the ball: E[r^3] = radius^3 / 2, so the median of (r/R)^3 is near 1/2
    frac = np.mean((r / 2.5) ** 3 <= 0.5)
    assert abs(frac - 0.5) <= 0.05


@settings(max_examples=60, deadline=None)
@given(
    seed=WORD,
    stage=WORD,
    count=st.integers(1, 6),
    draws=st.lists(WORD, min_size=1, max_size=8),
    n=st.integers(1, 5),
)
def test_block_draw_equals_per_stage_draws(seed, stage, count, draws, n):
    # stages near 2^64 wrap around in both paths
    s = NoiseStream(seed)
    draws = np.array(draws, dtype=np.uint64)
    normals = s.normal_stages(stage, count, draws, n)
    uniforms = s._uniforms(stage, count, draws, n)
    assert normals.shape == uniforms.shape == (count, len(draws), n)
    for k in range(count):
        assert np.array_equal(normals[k], s.normal_matrix(stage + k, draws, n))
        assert np.array_equal(uniforms[k], s.uniform_matrix(stage + k, draws, n))


@settings(max_examples=40, deadline=None)
@given(
    seed=WORD,
    stage=st.integers(0, 2**40),
    count=st.integers(1, 5),
    extra=st.integers(1, 4),
    draws=st.lists(WORD, min_size=1, max_size=6),
    n=st.integers(1, 5),
)
def test_block_draw_prefixes(seed, stage, count, extra, draws, n):
    # fewer stages or components give a prefix along that axis
    s = NoiseStream(seed)
    draws = np.array(draws, dtype=np.uint64)
    full = s.normal_stages(stage, count + extra, draws, n + extra)
    assert np.array_equal(s.normal_stages(stage, count, draws, n + extra), full[:count])
    assert np.array_equal(s.normal_stages(stage, count + extra, draws, n), full[..., :n])


def test_zero_stream():
    # normal_blocks reads nothing but normal_stages, so chains see zero noise
    blocks = list(normal_blocks(ZeroStream(), 4, 3, np.arange(5, dtype=np.uint64), 2, scale=0.5))
    assert np.concatenate(blocks).shape == (3, 5, 2)
    assert not any(block.any() for block in blocks)


def test_zero_stream_block_draw():
    z = ZeroStream().normal_stages(4, 3, np.arange(5, dtype=np.uint64), 2)
    assert z.shape == (3, 5, 2)
    assert not z.any()


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def rows_of(blocks):
    return [row for block in blocks for row in block]


@pytest.mark.parametrize("block_words", [1, 7 * 6 * 2 - 1, 7 * 6 * 2, 10**9])
def test_normal_rows_equal_scaled_per_stage_draws(monkeypatch, block_words):
    # block sizes of one stage, ragged blocks of 6 and 7 stages, and one
    # block; drawn inline on one CPU and by the worker on two
    monkeypatch.setattr(rng, "_BLOCK_WORDS", block_words)
    s = NoiseStream(21)
    draws = np.arange(6, dtype=np.uint64) * 5 + 2
    scale = np.sqrt(2.0 * 3e-4)
    for cpus in ({0}, {0, 1}):
        use_cpus(monkeypatch, cpus)
        k, seen = 0, []
        for block in normal_blocks(s, 11, 30, draws, 2, scale=scale):
            # each block is a new writable array, and overwriting it leaves
            # the blocks still to come unchanged
            assert block.flags.writeable
            assert not any(np.shares_memory(block, other) for other in seen)
            for row in block:
                assert np.array_equal(row, scale * s.normal_matrix(11 + k, draws, 2))
                k += 1
            block[...] = np.nan
            seen.append(block)
        assert k == 30


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize(
    "block_words, max_stages, prefetched",
    [(6 * 2, 256, True), (7 * 6 * 2, 256, True), (7 * 6 * 2, 6, False), (10**9, 256, False)],
)
def test_prefetched_rows_equal_inline_rows(monkeypatch, block_words, max_stages, prefetched):
    # one stage per block, ragged blocks of 7 stages, one block; a request
    # of one block, or of blocks over max_stages, is drawn inline on any
    # number of CPUs
    monkeypatch.setattr(rng, "_BLOCK_WORDS", block_words)
    monkeypatch.setattr(rng, "_PREFETCH_MAX_STAGES", max_stages)
    s = NoiseStream(21)
    draws = np.arange(6, dtype=np.uint64) * 5 + 2
    use_cpus(monkeypatch, {0})
    inline = rows_of(normal_blocks(s, 11, 30, draws, 2, scale=0.3))
    use_cpus(monkeypatch, {0, 1})
    before = threading.enumerate()
    blocks = normal_blocks(s, 11, 30, draws, 2, scale=0.3)
    threaded = list(next(blocks))
    assert len(new_threads(before)) == prefetched
    threaded += rows_of(blocks)
    assert len(threaded) == len(inline) == 30
    for got, want in zip(threaded, inline):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("how", ["close", "drop"])
def test_stopped_consumer_leaves_no_producer(monkeypatch, how):
    monkeypatch.setattr(rng, "_BLOCK_WORDS", 4)
    use_cpus(monkeypatch, {0, 1})
    before = threading.enumerate()
    held = [normal_blocks(NoiseStream(3), 0, 100, np.arange(2, dtype=np.uint64), 2)]
    next(held[0])
    (producer,) = new_threads(before)
    time.sleep(0.05)  # the worker draws the blocks submitted ahead and idles
    # stopped from a daemon thread, so that a stop that hangs fails the test
    stopper = threading.Thread(target=held[0].close if how == "close" else held.clear, daemon=True)
    stopper.start()
    stopper.join(timeout=1.0)
    producer.join(timeout=1.0)
    assert not stopper.is_alive() and not producer.is_alive()


class Boom(Exception):
    pass


class FailingStream(NoiseStream):
    """Raises from normal_stages at the third block of 7 stages."""

    def __init__(self, seed):
        super().__init__(seed)
        self.threads = set()

    def normal_stages(self, stage, count, draws, n):
        self.threads.add(threading.current_thread())
        if stage >= 11 + 14:
            raise Boom(stage)
        return super().normal_stages(stage, count, draws, n)


def test_producer_error_reaches_consumer(monkeypatch):
    monkeypatch.setattr(rng, "_BLOCK_WORDS", 7 * 6 * 2)
    use_cpus(monkeypatch, {0, 1})
    stream = FailingStream(21)
    draws = np.arange(6, dtype=np.uint64)
    before = threading.enumerate()
    got, raised = [], []

    def consume():
        try:
            got.extend(row for block in normal_blocks(stream, 11, 30, draws, 2) for row in block)
        except Boom as exc:
            raised.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=10.0)
    assert not consumer.is_alive()
    assert [exc.args for exc in raised] == [(25,)]
    assert len(got) == 14  # the two blocks drawn before the failing one
    assert consumer not in stream.threads  # drawn on the worker thread
    assert new_threads(before) == []


def test_one_cpu_draws_inline(monkeypatch):
    monkeypatch.setattr(rng, "_BLOCK_WORDS", 12)
    use_cpus(monkeypatch, {0})

    def no_thread(self):
        raise AssertionError("a thread started on one CPU")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    s = NoiseStream(4)
    draws = np.arange(6, dtype=np.uint64)
    rows = rows_of(normal_blocks(s, 0, 9, draws, 2))
    for k, row in enumerate(rows):
        assert np.array_equal(row, s.normal_matrix(k, draws, 2))
