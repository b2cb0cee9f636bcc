import numpy as np

from latgauss.rng import NoiseStream, ZeroStream, ball_points


def test_repeatable_bitwise():
    a = NoiseStream(42).normal(3, 7, 16)
    b = NoiseStream(42).normal(3, 7, 16)
    assert np.array_equal(a, b)


def test_seed_changes_stream():
    a = NoiseStream(1).uniform(0, 0, 32)
    b = NoiseStream(2).uniform(0, 0, 32)
    assert not np.array_equal(a, b)


def test_component_prefix_stability():
    s = NoiseStream(5)
    short = s.uniform(2, 9, 4)
    long = s.uniform(2, 9, 11)
    assert np.array_equal(short, long[:4])


def test_counters_are_independent_axes():
    # moving any one counter gives fresh words, leaving the rest untouched
    s = NoiseStream(0)
    base = s.uniform(1, 1, 8)
    assert not np.array_equal(base, s.uniform(2, 1, 8))
    assert not np.array_equal(base, s.uniform(1, 2, 8))


def test_matrix_matches_scalar_calls():
    s = NoiseStream(17)
    draws = np.arange(5, dtype=np.uint64)
    M = s.normal_matrix(4, draws, 3)
    for i in range(5):
        assert np.array_equal(M[i], s.normal(4, i, 3))


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


def test_zero_stream():
    z = ZeroStream()
    assert np.all(z.normal(0, 0, 5) == 0.0)
    assert np.all(z.uniform_matrix(1, np.arange(3, dtype=np.uint64), 2) == 0.5)
