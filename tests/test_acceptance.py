"""Acceptance gate: ten end-to-end checks with runtime budgets.

Each test prints one PASS/FAIL line (run with -s to see them all) carrying
the measured quantity, the gate it is held to, and the elapsed time. The
gates are quantitative surrogates for the package's analytic contracts; none
of them may be loosened to make a run green.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares

from conftest import grad_at, identity_problem, scale_problem, tanh_problem
from latgauss import nets
from latgauss.compiler import step_network
from latgauss.experiments import (
    compiled_vs_direct_experiment,
    exit_fraction_experiment,
    mixing_trend_experiment,
    posterior_tv_experiment,
)
from latgauss.lowerbound import (
    SignGenerator,
    exact_orthant_posterior,
    hypercube_closeness_test,
    posterior_encoder,
    retry_success_rate,
    sample_x,
    sign_pattern,
)
from latgauss.models import LatentGaussian
from latgauss.nets import MapConstants, estimate_constants
from latgauss.pipeline import build_problem, plan_pipeline, plan_truncated
from latgauss.potential import (
    PosteriorProblem,
    diagnostics_report,
    hess_potential,
    potential_batch,
    refine_inverse,
    region,
    taylor_remainder_check,
)
from latgauss.rng import NoiseStream, ball_points
from latgauss.verify import chi2_initialization


def gate(index, name, ok, detail, t0, budget):
    elapsed = time.time() - t0
    in_budget = elapsed <= budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(
        f"[{index:2d}/10] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)",
        flush=True,
    )
    assert ok, f"{name}: {detail}"
    assert in_budget, f"{name}: ran {elapsed:.1f}s, budget {budget:.0f}s"


def fd_grad(problem, z, h=1e-5):
    d = len(z)
    g = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        g[k] = (potential_batch(problem, [z + e])[0] - potential_batch(problem, [z - e])[0]) / (2 * h)
    return g


def fd_hess(problem, z, h=1e-4):
    d = len(z)
    H = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        H[:, k] = (grad_at(problem, z + e) - grad_at(problem, z - e)) / (2 * h)
    return H


def random_smooth_problem(i):
    rng = np.random.default_rng(1000 + i)
    d = 1 + i % 6
    if i % 2 == 0:
        net = nets.random_residual_tanh_net(d, seed=i, alpha=0.2 + 0.4 * rng.uniform())
    else:
        net = nets.random_smooth_net(d, seed=i, hidden=d + 3)
    beta = 0.05 + 0.45 * rng.uniform()
    x = 0.8 * rng.normal(size=net.output_dim)
    model = LatentGaussian(net, beta)
    # placeholder constants: derivative checks do not read them
    return PosteriorProblem(model, x, MapConstants(1.0, 2.0, 1.0, 1.0)), rng


def test_gradient_and_hessian_match_finite_differences():
    t0 = time.time()
    worst_g, worst_h = 0.0, 0.0
    for i in range(100):
        problem, rng = random_smooth_problem(i)
        for _ in range(2):
            z = 0.8 * rng.normal(size=problem.dim)
            g = grad_at(problem, z)
            H = hess_potential(problem, z)
            rel_g = np.linalg.norm(fd_grad(problem, z) - g) / max(np.linalg.norm(g), 1e-12)
            rel_h = np.linalg.norm(fd_hess(problem, z) - H) / max(np.linalg.norm(H), 1e-12)
            worst_g = max(worst_g, rel_g)
            worst_h = max(worst_h, rel_h)
    ok = worst_g <= 1e-4 and worst_h <= 1e-3
    gate(1, "gradient/hessian vs finite differences",
         ok, f"worst grad rel {worst_g:.2e} <= 1e-4, worst hess rel {worst_h:.2e} <= 1e-3",
         t0, 60)


def scalar_root(net, x, m):
    f = lambda t: float(net.eval_batch(np.array([[t]]))[0, 0]) - float(x[0])
    r = abs(f(0.0)) / m + 1.0
    for _ in range(8):
        if f(-r) * f(r) < 0:
            return brentq(f, -r, r, xtol=1e-13)
        r *= 2.0
    raise AssertionError("no bracket for the scalar root")


def test_inversion_reaches_oracle_with_monotone_descent():
    from latgauss.invert import gd_invert, make_gd_plan

    t0 = time.time()
    worst_gap, worst_resid_ratio = 0.0, 0.0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        d = 1 + i % 4
        alpha = 0.2 + 0.3 * rng.uniform()
        net = nets.random_residual_tanh_net(d, seed=2000 + i, alpha=alpha)
        x = 0.6 * rng.normal(size=d)
        c = estimate_constants(net, sample_count=500,
                               radius=3.0 + float(np.linalg.norm(x)), seed=i)
        problem = PosteriorProblem(LatentGaussian(net, 0.1), x, c)
        plan = make_gd_plan(problem)
        trace = gd_invert(problem, plan)
        assert trace.converged, f"problem {i} did not converge in {plan.steps} steps"
        assert np.all(np.diff(trace.objectives) <= 1e-12), f"problem {i} not monotone"
        resid = float(np.linalg.norm(net.eval_batch(trace.final[None])[0] - x))
        assert resid <= c.m * plan.delta, f"problem {i} residual {resid}"
        worst_resid_ratio = max(worst_resid_ratio, resid / (c.m * plan.delta))
        if d == 1:
            zstar = np.array([scalar_root(net, x, c.m)])
        else:
            sol = least_squares(
                lambda z: net.eval_batch(z[None])[0] - x,
                np.zeros(d),
                jac=lambda z: net.jacobian_batch(z[None])[0],
                method="trf",
                xtol=1e-14,
                gtol=1e-14,
            )
            zstar = sol.x
        gap = float(np.linalg.norm(trace.final - zstar))
        assert gap <= plan.delta, f"problem {i}: |z - oracle| = {gap} > {plan.delta}"
        worst_gap = max(worst_gap, gap / plan.delta)
    gate(2, "descent inversion vs root-finding oracle",
         True, f"50 problems, worst residual {worst_resid_ratio:.2f} of gate, "
         f"worst oracle gap {worst_gap:.2f} of delta",
         t0, 120)


def test_posterior_samples_match_grid_oracle():
    t0 = time.time()
    worst = ("", 0.0)
    for label, mk in [
        ("identity", lambda b: identity_problem(d=1, beta=b)),
        ("linear x2", lambda b: scale_problem(a=2.0, d=1, beta=b, x=[0.9])),
        ("tanh residual", lambda b: tanh_problem(d=1, beta=b)),
    ]:
        for beta in (0.05, 0.1):
            problem = mk(beta)
            rep = posterior_tv_experiment(problem, plan_pipeline(problem), NoiseStream(33), samples=10_000)
            assert rep["pass"], f"{label} beta={beta}: tv={rep['tv']:.4f}"
            assert rep["threshold"] == pytest.approx(0.08)
            if rep["tv"] > worst[1]:
                worst = (f"{label} beta={beta}", rep["tv"])
    gate(3, "posterior sampling total variation",
         True, f"6 problems, worst tv {worst[1]:.4f} ({worst[0]}) <= 0.08",
         t0, 300)


def test_unprojected_chains_stay_in_region():
    t0 = time.time()
    fracs = []
    for problem in [
        identity_problem(d=1),
        tanh_problem(d=1),
        identity_problem(d=2, x=[0.9, 0.9]),
        tanh_problem(d=2, x=[0.9, 0.9]),
    ]:
        rep = exit_fraction_experiment(problem, plan_pipeline(problem), NoiseStream(44), chains=1000)
        assert rep["pass"], f"d={problem.dim}: exit {rep['exit_fraction']:.4f} > {rep['threshold']:.4f}"
        assert rep["threshold"] == pytest.approx(0.1 / 4 + 2 * np.sqrt(0.1 / 4000))
        fracs.append(rep["exit_fraction"])
    gate(4, "region exit fraction of unprojected chains",
         True, f"4 problems, exit fractions {fracs}, gate {0.1 / 4 + 2 * np.sqrt(0.1 / 4000):.4f}",
         t0, 300)


_FAMILY = None


def admissible_family():
    """Problems shared by the convexity and Taylor checks, each with its
    region around the refined inverse."""
    global _FAMILY
    if _FAMILY is not None:
        return _FAMILY
    problems = [
        ("identity d=1", identity_problem(d=1), True),
        ("identity d=2", identity_problem(d=2, beta=0.1, x=[0.9, 0.9]), True),
        ("scale x2 d=1", scale_problem(a=2.0, d=1, beta=0.05, x=[0.9]), True),
        ("scale x2 d=2", scale_problem(a=2.0, d=2, beta=0.25, x=[1.0, 0.3]), True),
        ("tanh d=1", tanh_problem(d=1, beta=0.05), False),
        ("tanh d=2", tanh_problem(d=2, beta=0.1, x=[0.9, 0.9]), False),
    ]
    for seed, d, alpha, beta in [(41, 2, 0.35, 0.12), (42, 3, 0.3, 0.15)]:
        net = nets.random_residual_tanh_net(d, seed=seed, alpha=alpha)
        x = 0.5 * np.random.default_rng(seed).normal(size=d)
        prob = build_problem(net, beta, x, constants_samples=512, constants_seed=seed)
        problems.append((f"random residual d={d}", prob, False))
    family = []
    for label, prob, linear in problems:
        reg = region(prob, refine_inverse(prob, np.zeros(prob.dim)))
        assert reg.admissible
        family.append((label, prob, linear, reg))
    _FAMILY = family
    return family


def test_hessian_strongly_convex_on_region():
    t0 = time.time()
    min_eig = np.inf
    for label, prob, _, reg in admissible_family():
        diag = diagnostics_report(prob, reg.center, points=100, seed=6)
        assert diag["admissible"], label
        assert diag["hessian_min_eigenvalue"] >= 1.0 - 1e-8, label
        min_eig = min(min_eig, diag["hessian_min_eigenvalue"])
    gate(5, "strong convexity over the region",
         True, f"8 problems x 100 points, min eigenvalue {min_eig:.6f} >= 1 - 1e-8",
         t0, 60)


def test_taylor_remainder_within_bound():
    t0 = time.time()
    worst_ratio, worst_linear = 0.0, 0.0
    for label, prob, linear, reg in admissible_family():
        pts = reg.center + ball_points(
            NoiseStream(7), 0, np.arange(1000, dtype=np.uint64), prob.dim, reg.radius
        )
        for z in pts:
            measured, bound = taylor_remainder_check(prob, reg.center, z)
            if linear:
                # zero up to float cancellation of terms of size |H||dz|
                assert bound == 0.0, label
                assert measured <= 1e-10, f"{label}: {measured}"
                worst_linear = max(worst_linear, measured)
            else:
                assert measured <= bound * (1 + 1e-9), f"{label}: {measured} > {bound}"
                worst_ratio = max(worst_ratio, measured / bound if bound else 0.0)
    gate(6, "gradient expansion remainder",
         True, f"8 problems x 1000 points, worst nonlinear ratio {worst_ratio:.3f}, "
         f"linear residue {worst_linear:.1e} <= 1e-10",
         t0, 60)


def test_compiled_encoder_matches_direct_pipeline():
    t0 = time.time()
    devs = []
    for d, amortized in [(1, True), (2, True), (3, True), (2, False)]:
        prob = tanh_problem(d=d, beta=0.1, x=[0.9] * d)
        rep = compiled_vs_direct_experiment(
            prob, plan_truncated(prob, 50, 200), NoiseStream(88), draws=16, amortized=amortized
        )
        assert rep["pass"], f"d={d} amortized={amortized}: {rep['max_relative_deviation']}"
        assert rep["total_stages"] == 253
        devs.append(rep["max_relative_deviation"])

    # with c1 = c2 = 1 the step network minus z is J(z)^T (G(z) - x)
    sweep_err = 0.0
    for net in [
        nets.identity_net(3),
        nets.linear_net(np.array([[1.5, -0.3], [0.2, 0.9]]), np.array([0.1, -0.2])),
        nets.tanh_residual_net(3, 0.4),
        nets.random_smooth_net(2, seed=3, hidden=5),
        nets.random_residual_tanh_net(2, seed=9, alpha=0.5),
    ]:
        draws = np.random.default_rng(8)
        Z = draws.normal(size=(7, net.input_dim))
        x = draws.normal(size=net.input_dim)
        J = net.jacobian_batch(Z)
        want = np.einsum("nij,ni->nj", J, net.eval_batch(Z) - x)
        got = step_network(net, 1.0, 1.0, x_const=x).eval_batch(Z) - Z
        sweep_err = max(sweep_err, float(np.max(np.abs(got - want))))
    assert sweep_err <= 1e-9
    gate(7, "compiled encoder equivalence",
         True, f"worst pipeline deviation {max(devs):.2e} <= 1e-6, "
         f"step-network sweeps {sweep_err:.1e} <= 1e-9 (mul gadget sub-gate removed "
         "with mul_networks)",
         t0, 120)


def test_chi2_of_start_distribution_below_bound():
    t0 = time.time()
    worst_margin = np.inf
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        alpha = 0.2 + 0.3 * rng.uniform()
        net = nets.random_residual_tanh_net(1, seed=300 + i, alpha=alpha)
        x = np.array([0.4 + 0.8 * rng.uniform()])
        beta = 0.06 + 0.1 * rng.uniform()
        prob = build_problem(net, beta, x, constants_samples=512, constants_seed=i)
        _, reg, _, plan = plan_pipeline(prob)
        assert reg.admissible
        chi2 = chi2_initialization(prob, reg, plan.init_radius)
        log_sqrt_chi2, bound = chi2["log_sqrt_chi2"], chi2["bound"]
        assert log_sqrt_chi2 <= bound, f"problem {i}: {log_sqrt_chi2} > {bound}"
        worst_margin = min(worst_margin, bound - log_sqrt_chi2)
    gate(8, "chi-square of the start distribution",
         True, f"10 problems, smallest bound margin {worst_margin:.2f}",
         t0, 60)


def test_sign_generator_demo_rates():
    t0 = time.time()
    gen = SignGenerator(d=8, beta=0.05, rotation=3, mask=0b10110100)

    close = hypercube_closeness_test(gen, 20_000, 1.5, seed=4)
    assert close["pass"], close

    Z, X = sample_x(gen, NoiseStream(101), np.arange(1000, dtype=np.uint64))
    true_patterns = sign_pattern(Z)
    mass = np.array(
        [exact_orthant_posterior(gen, X[i])[true_patterns[i]] for i in range(1000)]
    )
    frac_concentrated = float(np.mean(mass >= 1 - np.exp(-16.0)))
    assert frac_concentrated >= 0.99, frac_concentrated

    retry = retry_success_rate(gen, posterior_encoder, 1000, 4, 4, seed=11)
    assert retry["rate"] >= 0.999, retry
    gate(9, "sign generator demo",
         True, f"closeness fraction {close['fraction']:.1e} <= {close['bound'] + close['binomial_slack']:.1e}, "
         f"mass fraction {frac_concentrated:.3f} >= 0.99, retry rate {retry['rate']:.4f} >= 0.999",
         t0, 120)


def test_projected_chain_tv_decays_under_envelope():
    t0 = time.time()
    problem = tanh_problem(d=1)
    rep = mixing_trend_experiment(problem, plan_pipeline(problem), NoiseStream(3), chains=4000)
    ok = rep["pass"] and rep["tv"][-1] < rep["tv"][0]
    gate(10, "projected chain mixing trend",
         ok, f"tv {[round(v, 3) for v in rep['tv']]} under envelope "
         f"{[round(v, 3) for v in rep['envelope']]} (+{rep['envelope_allowance']})",
         t0, 180)
