import functools

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import identity_problem, scale_problem, tanh_problem
from latgauss.errors import DimensionError, SupportError
from latgauss.potential import RegionD, potential_batch, refine_inverse, region
from latgauss.rng import NoiseStream
from latgauss.verify import (
    build_grid_oracle,
    chi2_initialization,
    gaussian_moment_test,
    linear_posterior,
    tv_distance,
)

stream = NoiseStream(99)


def prepared(problem):
    return region(problem, refine_inverse(problem, np.zeros(problem.dim)))


def test_identity_oracle_matches_closed_form():
    # G = identity, x = 0, beta = 1: posterior N(0, 1/2)
    prob = identity_problem(d=1, beta=1.0, x=[0.0])
    orc = build_grid_oracle(prob, prepared(prob))
    grid = orc.axes[0]
    want = np.exp(-grid**2) / np.sqrt(np.pi)
    assert abs(orc.integral() - 1.0) < 1e-6
    assert np.max(np.abs(orc.density - want)) < 1e-4


def test_linear_oracle_matches_conjugate_posterior():
    # G = 2z, x = 1, beta = 0.5: precision 1 + 4/0.25 = 17, mean 8/17
    prob = scale_problem(a=2.0, d=1, beta=0.5, x=[1.0])
    orc = build_grid_oracle(prob, prepared(prob))
    mean, cov = linear_posterior(np.array([[2.0]]), np.zeros(1), 0.5, np.array([1.0]))
    assert mean[0] == pytest.approx(8.0 / 17.0)
    assert cov[0, 0] == pytest.approx(1.0 / 17.0)
    gpdf = np.exp(-((orc.axes[0] - mean[0]) ** 2) / (2 * cov[0, 0])) / np.sqrt(
        2 * np.pi * cov[0, 0]
    )
    assert np.max(np.abs(orc.density - gpdf)) < 1e-4


def test_oracle_requires_low_dim():
    prob3 = identity_problem(d=3, x=[0.1, 0.1, 0.1])
    with pytest.raises(DimensionError):
        build_grid_oracle(prob3, region(prob3, prob3.x.copy()))


def test_oracle_self_sampling_tv_small():
    # exact draws from the conjugate posterior of the same linear problem
    prob = scale_problem(a=2.0, d=1, beta=0.5, x=[1.0])
    orc = build_grid_oracle(prob, prepared(prob))
    mean, cov = linear_posterior(np.array([[2.0]]), np.zeros(1), 0.5, np.array([1.0]))
    s = mean + np.sqrt(cov[0, 0]) * stream.normal_matrix(7, np.arange(10_000, dtype=np.uint64), 1)
    assert tv_distance(s, orc) <= 0.03


def test_point_mass_tv_near_one():
    # disjoint-support limit: a point mass off the bulk has TV -> 1
    prob = scale_problem(a=2.0, d=1, beta=0.5, x=[1.0])
    orc = build_grid_oracle(prob, prepared(prob))
    pm = np.full((2000, 1), orc.center[0] + orc.half_width / 2)
    assert tv_distance(pm, orc) >= 0.9


def test_tv_outside_grid_counts_fully():
    prob = identity_problem(d=1, beta=1.0, x=[0.0])
    orc = build_grid_oracle(prob, prepared(prob))
    far = np.full((100, 1), orc.center[0] + 10 * orc.half_width)
    assert tv_distance(far, orc) == pytest.approx(1.0)


def test_chi2_identity_example():
    # G = identity, x = 0, beta = 0.1, eps = 0.1, start at zhat
    prob = identity_problem(d=1, beta=0.1, x=[0.0])
    reg = prepared(prob)
    chi2 = chi2_initialization(prob, reg, reg.radius / 4)
    assert np.isfinite(chi2["log_sqrt_chi2"])
    assert chi2["log_sqrt_chi2"] <= chi2["bound"]
    assert chi2["pass"]


def test_chi2_sentinel_when_laws_coincide(monkeypatch):
    # constant potential makes the restricted target uniform on the region;
    # a ball covering the whole region then equals the target and chi2 = 0.
    # power-of-two radius and grid keep the trapezoid sums exact so the
    # comparison does not hinge on rounding direction
    import latgauss.verify as verify_mod

    monkeypatch.setattr(verify_mod, "potential_batch", lambda p, Z: np.zeros(len(Z)))
    prob = identity_problem(d=1, x=[0.0])
    reg = RegionD(
        center=np.zeros(1),
        radius=0.5,
        beta0=1.0,
        admissible=True,
        radius_cap=np.inf,
        radius_within_cap=True,
    )
    chi2 = chi2_initialization(prob, reg, 0.5, grid_points=2**14 + 1)
    assert chi2["log_sqrt_chi2"] == -np.inf
    assert chi2["bound"] == pytest.approx(np.log(4.0))


def test_chi2_ball_escaping_region_rejected():
    prob = identity_problem(d=1, beta=0.1, x=[0.0])
    reg = prepared(prob)
    with pytest.raises(SupportError):
        chi2_initialization(prob, reg, 2 * reg.radius)


def test_chi2_shrinking_bulk_ball_grows():
    # overlap-dominated branch: a ball well inside the posterior bulk
    # concentrates P0 as it shrinks, so chi2 grows
    prob = tanh_problem(d=1, beta=0.1, x=[0.9])
    reg = prepared(prob)
    log_a = chi2_initialization(prob, reg, reg.radius / 40)["log_sqrt_chi2"]
    log_b = chi2_initialization(prob, reg, reg.radius / 400)["log_sqrt_chi2"]
    assert log_b > log_a


def test_moment_test_exact_sampler_passes():
    mean, cov = linear_posterior(np.array([[2.0]]), np.zeros(1), 0.5, np.array([1.0]))
    gs = mean[0] + np.sqrt(cov[0, 0]) * stream.normal_matrix(
        31, np.arange(100_000, dtype=np.uint64), 1
    )
    assert gaussian_moment_test(gs, mean, cov)["pass"]


def test_moment_test_detects_mean_shift():
    mean, cov = linear_posterior(np.array([[2.0]]), np.zeros(1), 0.5, np.array([1.0]))
    gs = mean[0] + np.sqrt(cov[0, 0]) * stream.normal_matrix(
        31, np.arange(10_000, dtype=np.uint64), 1
    )
    shifted = gs + np.sqrt(cov[0, 0])  # one full sigma
    assert not gaussian_moment_test(shifted, mean, cov)["pass"]


def test_moment_test_detects_cov_scale():
    mean, cov = linear_posterior(np.array([[2.0]]), np.zeros(1), 0.5, np.array([1.0]))
    gs = mean[0] + np.sqrt(2 * cov[0, 0]) * stream.normal_matrix(
        31, np.arange(10_000, dtype=np.uint64), 1
    )
    assert not gaussian_moment_test(gs, mean, cov)["pass"]  # 100% > 10%


def test_moment_test_input_guards():
    mean, cov = np.zeros(1), np.eye(1)
    with pytest.raises(ValueError):
        gaussian_moment_test(np.zeros((50, 1)), mean, cov)
    with pytest.raises(DimensionError):
        gaussian_moment_test(np.zeros((200, 5)), np.zeros(5), np.eye(5))


def test_linear_posterior_general_formula():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    b = np.array([0.1, -0.3])
    beta = 0.4
    x = np.array([0.7, 0.2])
    mean, cov = linear_posterior(A, b, beta, x)
    prec = np.eye(2) + A.T @ A / beta**2
    want_cov = np.linalg.inv(prec)
    want_mean = want_cov @ (A.T @ (x - b)) / beta**2
    assert np.allclose(cov, want_cov)
    assert np.allclose(mean, want_mean)


LINEAR_PROBLEMS = {
    "identity-d1": (identity_problem(d=1, beta=1.0, x=[0.0]), 1.0),
    "scale-d1": (scale_problem(a=2.0, d=1, beta=0.5, x=[1.0]), 2.0),
    "identity-d2": (identity_problem(d=2, beta=0.3, x=[0.5, -0.2]), 1.0),
    "scale-d2": (scale_problem(a=2.0, d=2, beta=0.25, x=[1.0, 0.3]), 2.0),
}


@pytest.mark.parametrize("name", LINEAR_PROBLEMS)
def test_oracle_bin_masses_equal_exact_gaussian_masses(name):
    # the conjugate posterior of G = a z is diagonal, so each bin's mass is a
    # product of normal CDF differences along the axes
    prob, a = LINEAR_PROBLEMS[name]
    d = prob.dim
    orc = build_grid_oracle(prob, prepared(prob))
    mean, cov = linear_posterior(a * np.eye(d), np.zeros(d), prob.beta, prob.x)
    per_axis = [
        np.diff(ndtr((orc.bin_edges(k) - mean[k]) / np.sqrt(cov[k, k]))) for k in range(d)
    ]
    exact = per_axis[0] if d == 1 else np.outer(*per_axis)
    assert np.abs(orc.bin_mass() - exact).sum() <= 1e-9


def reference_bin_mass(problem, orc, nodes=24):
    """Bin masses of e^{-L} on the oracle's bins by a 24-node Gauss-Legendre
    rule per bin and axis, normalized over the box."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes, weights = [], []
    for k in range(problem.dim):
        e = orc.bin_edges(k)
        half = np.diff(e)[:, None] / 2.0
        axes.append(((e[:-1, None] + half) + half * x).ravel())
        weights.append((half * w).ravel())
    mesh = np.meshgrid(*axes, indexing="ij")
    logp = -potential_batch(problem, np.stack([m.ravel() for m in mesh], axis=1))
    weight = functools.reduce(np.multiply.outer, weights)
    mass = np.exp(logp - logp.max()).reshape(weight.shape) * weight
    bins = len(orc.bin_edges(0)) - 1
    mass = mass.reshape((bins, nodes) * problem.dim).sum(axis=tuple(range(1, 2 * problem.dim, 2)))
    return mass / mass.sum()


@pytest.mark.parametrize("d", [1, 2])
def test_oracle_bin_masses_match_fine_quadrature_on_tanh_residual(d):
    prob = tanh_problem(d=d, beta=0.3, x=np.full(d, 0.5))
    orc = build_grid_oracle(prob, prepared(prob))
    assert np.abs(orc.bin_mass() - reference_bin_mass(prob, orc)).sum() <= 1e-9
