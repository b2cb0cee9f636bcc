import numpy as np
from scipy.optimize import brentq

from conftest import identity_problem, tanh_problem
from latgauss.invert import gd_invert, make_gd_plan
from latgauss.models import LatentGaussian
from latgauss.nets import estimate_constants, random_residual_tanh_net
from latgauss.potential import PosteriorProblem, region_radius


def test_plan_worked_example():
    # identity d=1, x=2, delta=0.1: Q = M^2 = 1, eta = 1, S = Q x^2 / (m^4 delta^2) = 400
    prob = identity_problem(d=1, beta=0.1, x=[2.0])
    plan = make_gd_plan(prob, delta=0.1)
    assert plan.Q == 1.0
    assert plan.eta == 1.0
    assert plan.steps == 400


def test_identity_converges_first_step():
    # eta = 1 on the identity lands exactly on x
    prob = identity_problem(d=2, beta=0.1, x=[1.0, 1.0])
    trace = gd_invert(prob, make_gd_plan(prob))
    assert trace.converged
    assert trace.steps_run == 1
    assert np.allclose(trace.final, prob.x)


def test_max_steps_caps_plan():
    prob = identity_problem(d=1, beta=0.1, x=[2.0])
    plan = make_gd_plan(prob, delta=0.001, max_steps=500)
    assert plan.steps == 500


def test_tanh_matches_bisection_oracle():
    prob = tanh_problem(d=1, beta=0.05, x=[1.2])
    plan = make_gd_plan(prob)
    trace = gd_invert(prob, plan)
    assert trace.converged
    root = brentq(lambda z: z + 0.5 * np.tanh(z) - 1.2, -5, 5, xtol=1e-14)
    assert abs(trace.final[0] - root) <= plan.delta


def test_monotone_descent_and_residual_gate():
    for seed in range(8):
        d = 1 + seed % 3
        gen = random_residual_tanh_net(d, seed=seed)
        consts = estimate_constants(gen, sample_count=600, radius=4.0, seed=seed)
        x = gen.eval_batch(np.random.default_rng(seed).normal(size=(1, d)) * 0.8)[0]
        prob = PosteriorProblem(LatentGaussian(gen, 0.1), x, consts, epsilon=0.1)
        plan = make_gd_plan(prob)
        trace = gd_invert(prob, plan)
        assert trace.converged
        assert np.all(np.diff(trace.objectives) <= 1e-12)  # descent never increases
        residual = np.linalg.norm(gen.eval_batch(trace.final[None])[0] - x)
        assert residual <= consts.m * plan.delta * (1 + 1e-12)


def test_early_stop_off_runs_every_step():
    prob = identity_problem(d=1, beta=0.1, x=[1.0])
    plan = make_gd_plan(prob, delta=0.2)
    trace = gd_invert(prob, plan, early_stop=False)
    assert trace.steps_run == plan.steps
    assert trace.converged


def test_delta_defaults_to_quarter_radius():
    prob = tanh_problem(d=2, x=[0.5, 0.5])
    plan = make_gd_plan(prob)
    assert plan.delta == region_radius(prob) / 4.0


def test_trace_csv(tmp_path):
    prob = tanh_problem(d=1, x=[0.9])
    trace = gd_invert(prob, make_gd_plan(prob))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "step,objective,grad_norm"
    assert len(rows) == trace.steps_run + 2  # header + one row per recorded step
