import numpy as np
import pytest

from conftest import grad_at, identity_problem, scale_problem, tanh_problem
from latgauss import pipeline
from latgauss.errors import DimensionError, InitializationError
from latgauss.lowerbound import SignGenerator, generator_network
from latgauss.nets import MapConstants, identity_net, linear_net
from latgauss.potential import (
    PosteriorProblem,
    beta0_threshold,
    check_inverse,
    diagnostics_report,
    grad_potential_batch,
    hess_potential,
    potential_batch,
    refine_inverse,
    region,
    region_radius,
    taylor_remainder_check,
)

rng = np.random.default_rng(1)


def fd_grad(problem, z, step=1e-6):
    d = len(z)
    g = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        g[k] = (potential_batch(problem, [z + e])[0] - potential_batch(problem, [z - e])[0]) / (2 * step)
    return g


def test_potential_identity_closed_form():
    prob = identity_problem(d=2, beta=0.5, x=[1.0, 0.0])
    z = np.array([0.25, -0.5])
    want = 0.5 * (z @ z + np.sum((z - prob.x) ** 2) / 0.25)
    assert np.isclose(potential_batch(prob, [z])[0], want)


def test_grad_matches_finite_differences():
    prob = tanh_problem(d=3, beta=0.2, x=[0.5, -0.3, 0.8])
    for _ in range(5):
        z = rng.normal(size=3)
        assert np.allclose(grad_at(prob, z), fd_grad(prob, z), rtol=1e-5, atol=1e-6)


def test_hess_matches_finite_differences_of_grad():
    prob = tanh_problem(d=2, beta=0.2, x=[0.5, -0.3])
    z = np.array([0.2, 0.4])
    step = 1e-5
    H_fd = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        H_fd[:, k] = (grad_at(prob, z + e) - grad_at(prob, z - e)) / (2 * step)
    assert np.allclose(hess_potential(prob, z), H_fd, rtol=1e-4, atol=1e-5)


def test_batch_matches_scalar():
    prob = tanh_problem(d=2)
    Z = rng.normal(size=(6, 2))
    vals = potential_batch(prob, Z)
    grads = grad_potential_batch(prob, Z)
    for i in range(6):
        assert np.isclose(vals[i], potential_batch(prob, Z[i : i + 1])[0])
        assert np.allclose(grads[i], grad_at(prob, Z[i]), atol=1e-12)


def test_region_radius_worked_example():
    # d=2, m=1, beta=0.01, ||x||=2, eps=0.1: q = 2d + ||x||^2 = 8,
    # radius = 4 beta sqrt(q log(4q/eps)) = 0.04 sqrt(8 log 320)
    prob = identity_problem(d=2, beta=0.01, x=[2.0, 0.0], epsilon=0.1)
    want = 0.04 * np.sqrt(8.0 * np.log(320.0))
    assert np.isclose(region_radius(prob), want, rtol=1e-12)
    assert np.isclose(region_radius(prob), 0.271725, atol=5e-7)


def test_region_center_and_admissibility():
    prob = identity_problem(d=1, beta=0.1, x=[0.9])
    reg = region(prob, np.array([0.9]))
    assert np.array_equal(reg.center, np.array([0.9]))
    assert reg.radius == pytest.approx(region_radius(prob))
    assert reg.admissible  # beta = 0.1 is below the threshold for this problem
    assert beta0_threshold(prob) > 0.1


def test_check_inverse_rejects_bad_point():
    prob = identity_problem(d=1, beta=0.05, x=[0.9])
    with pytest.raises(InitializationError):
        check_inverse(prob, np.array([5.0]))
    info = check_inverse(prob, np.array([5.0]), validate=False)
    assert info["residual"] == pytest.approx(4.1) and info["residual"] > info["allowed_residual"]


def test_refine_inverse_newton():
    prob = tanh_problem(d=2, x=[0.7, -0.2])
    z = refine_inverse(prob, np.zeros(2))
    assert np.linalg.norm(prob.generator.eval_batch(z[None])[0] - prob.x) <= 1e-12


def test_refine_inverse_falls_back_to_least_squares(monkeypatch):
    # z -> 3z at x = 5e4 + 1/3: neither float next to x/3 maps to x, and
    # Newton alternates between the two with residuals of -+ one ulp of x
    # (7.3e-12), so its 60 steps run out above 1e-13 and least squares takes
    # over; the best it can return is a point one ulp of x off
    import scipy.optimize

    calls = []
    least_squares = scipy.optimize.least_squares

    def spy(*args, **kwargs):
        calls.append(args)
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    prob = scale_problem(a=3.0, x=[5e4 + 1 / 3])
    z = refine_inverse(prob, np.zeros(1))
    assert len(calls) == 1
    assert abs(prob.generator.eval_batch(z[None])[0, 0] - prob.x[0]) <= np.spacing(prob.x[0])


# (G, beta, error, message) for models outside the analysis
BAD_MODELS = [
    (identity_net(2), 0.0, ValueError, "beta must be positive"),
    (linear_net(np.ones((2, 3)), np.zeros(2)), 0.1, DimensionError, "must map d to d"),
    (generator_network(SignGenerator(d=2, beta=0.1)), 0.1, ValueError, "smooth activations"),
]


@pytest.mark.parametrize("net, beta, error, message", BAD_MODELS)
def test_problem_refuses_models_outside_the_analysis(net, beta, error, message):
    with pytest.raises(error, match=message):
        PosteriorProblem(net, beta, np.zeros(net.output_dim), MapConstants(1, 1, 0, 0))


@pytest.mark.parametrize("net, beta, error, message", BAD_MODELS)
def test_build_problem_refuses_models_before_estimating_constants(monkeypatch, net, beta, error, message):
    calls = []
    monkeypatch.setattr(pipeline, "estimate_constants", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(error, match=message):
        pipeline.build_problem(net, beta, np.zeros(net.output_dim))
    assert calls == []


def test_taylor_remainder_zero_for_linear():
    prob = scale_problem(a=2.0, d=2, beta=0.2, x=[1.0, -0.5])
    zhat = refine_inverse(prob, np.zeros(2))
    for _ in range(5):
        z = zhat + 0.1 * rng.normal(size=2)
        measured, bound = taylor_remainder_check(prob, zhat, z)
        assert measured <= 1e-10
        assert bound == 0.0  # M2 = M3 = 0 for linear G


def test_taylor_remainder_below_bound_tanh():
    prob = tanh_problem(d=2, beta=0.1, x=[0.6, -0.3])
    reg = region(prob, refine_inverse(prob, np.zeros(2)))
    for _ in range(20):
        u = rng.normal(size=2)
        z = reg.center + reg.radius * rng.uniform() * u / np.linalg.norm(u)
        measured, bound = taylor_remainder_check(prob, reg.center, z)
        assert measured <= bound * (1 + 1e-9)


def test_strong_convexity_identity():
    # L = (1/2)(||z||^2 + ||z-x||^2 / beta^2): Hessian = (1 + 1/beta^2) I everywhere
    prob = identity_problem(d=2, beta=0.5, x=[0.3, 0.3])
    H = hess_potential(prob, rng.normal(size=2))
    assert np.allclose(H, (1 + 4.0) * np.eye(2))


def test_diagnostics_report_keys_and_convexity():
    prob = tanh_problem(d=2, x=[0.5, 0.2])
    rep = diagnostics_report(prob, refine_inverse(prob, np.zeros(2)), points=50, seed=3)
    assert rep["admissible"]
    assert rep["hessian_min_eigenvalue"] >= 1.0 - 1e-8
    assert rep["taylor_worst_ratio"] <= 1.0
    assert rep["region_radius"] > 0
    assert rep["pass"]
