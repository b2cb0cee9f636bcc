import dataclasses

import numpy as np
import pytest

from conftest import TANH_CONSTANTS, identity_problem, tanh_problem
from latgauss.errors import DimensionError, InitializationError
from latgauss.experiments import (
    compiled_vs_direct_experiment,
    exit_fraction_experiment,
    mixing_trend_experiment,
    posterior_tv_experiment,
)
from latgauss.nets import MapConstants, tanh_residual_net
from latgauss.pipeline import build_problem, plan_pipeline, plan_truncated, run_planned_chains
from latgauss.potential import check_inverse, diagnostics_report, refine_inverse
from latgauss.rng import NoiseStream


def shortened(problem, steps):
    """The plan with its Langevin leg cut to `steps`; the chain relaxes in
    about 1/epsilon steps so this keeps unit tests fast without moving the
    target."""
    planned = plan_pipeline(problem)
    return planned._replace(plan=dataclasses.replace(planned.plan, steps=min(steps, planned.plan.steps)))


def test_build_problem_uses_supplied_constants():
    net = tanh_residual_net(2, 0.5)
    prob = build_problem(net, 0.1, np.array([0.9, 0.9]), constants=TANH_CONSTANTS)
    assert prob.constants is TANH_CONSTANTS
    assert prob.dim == 2


def test_hand_built_constants_are_not_estimated():
    net = tanh_residual_net(1, 0.5)
    constants = MapConstants(m=1.0, M=1.5, M2=0.385, M3=1.0)
    prob = build_problem(net, 0.1, np.array([0.9]), constants=constants)
    rep = diagnostics_report(prob, refine_inverse(prob, np.zeros(1)), points=8)
    assert rep["constants"]["estimated"] is False


def test_build_problem_estimates_constants():
    net = tanh_residual_net(1, 0.5)
    prob = build_problem(net, 0.1, np.array([0.9]), constants_samples=512)
    c = prob.constants
    assert c.estimated is True
    assert 0.9 <= c.m <= 1.05
    assert 1.3 <= c.M <= 1.5 + 1e-9
    assert c.M2 <= 0.39
    assert c.M3 <= 1.1


def test_plan_pipeline_deterministic():
    a = plan_pipeline(tanh_problem(d=2, x=[0.9, -0.4]))
    b = plan_pipeline(tanh_problem(d=2, x=[0.9, -0.4]))
    assert np.array_equal(a[0].final, b[0].final)
    assert a[3].h == b[3].h and a[3].steps == b[3].steps
    assert a[1].radius == b[1].radius


def test_planning_leaves_the_problem_unchanged():
    # one problem planned twice, with a truncated plan in between, gives the
    # plans and chains of fresh problems: the inverse lives in the plan
    prob = tanh_problem(d=2, x=[0.9, -0.4])
    before = dict(vars(prob))
    first = plan_pipeline(prob)
    truncated = plan_truncated(prob, 5, 20)
    second = plan_pipeline(prob)
    assert vars(prob).keys() == before.keys()
    assert all(vars(prob)[key] is value for key, value in before.items())

    fresh = plan_pipeline(tanh_problem(d=2, x=[0.9, -0.4]))
    fresh_truncated = plan_truncated(tanh_problem(d=2, x=[0.9, -0.4]), 5, 20)
    for a, b in [(first, fresh), (second, fresh), (truncated, fresh_truncated)]:
        assert np.array_equal(a.trace.final, b.trace.final)
        assert np.array_equal(a.region.center, b.region.center)
        assert a.region.radius == b.region.radius
        assert a.gd_plan == b.gd_plan and a.plan == b.plan
    short = shortened(prob, 30)
    want = run_planned_chains(tanh_problem(d=2, x=[0.9, -0.4]), short, NoiseStream(2), 12)
    got = run_planned_chains(prob, short, NoiseStream(2), 12)
    assert np.array_equal(got.finals, want.finals)
    assert np.array_equal(got.exited, want.exited)


def test_plan_truncated_checks_the_chain_start():
    # no descent leaves z = 0, whose residual 0.894 exceeds m * rad/4 = 0.502:
    # the plan raises before an encoder is compiled from it
    prob = tanh_problem(d=2, beta=0.1, x=[0.8, -0.4])
    with pytest.raises(InitializationError) as err:
        plan_truncated(prob, 0, 10)
    with pytest.raises(InitializationError) as owner:
        check_inverse(prob, np.zeros(2))
    assert err.value.payload == owner.value.payload
    assert set(err.value.payload) == {"residual", "allowed"}


def test_run_planned_chains_shapes_and_snapshots():
    prob = identity_problem(d=2, x=[0.5, -0.5])
    planned = shortened(prob, 50)
    res = run_planned_chains(prob, planned, NoiseStream(3), 16, snapshot_steps=[10, 50])
    assert res.finals.shape == (16, 2)
    assert res.exited.shape == (16,) and res.exited.dtype == bool
    assert set(res.snapshots) == {10, 50}
    assert res.snapshots[10].shape == (16, 2)
    assert np.array_equal(res.snapshots[50], res.finals)


def test_pipeline_repeatable_for_fixed_seed():
    def run():
        prob = tanh_problem(d=1)
        return run_planned_chains(prob, shortened(prob, 40), NoiseStream(7), 8).finals

    assert np.array_equal(run(), run())


def test_exit_fraction_experiment_contract():
    prob = identity_problem(d=1)
    rep = exit_fraction_experiment(prob, plan_pipeline(prob), NoiseStream(21), chains=400)
    assert rep["pass"]
    assert rep["threshold"] == pytest.approx(
        0.1 / 4 + 2 * np.sqrt(0.1 / (4 * 400))
    )
    assert rep["exit_fraction"] <= rep["threshold"]


def test_posterior_tv_experiment_small_run():
    prob = identity_problem(d=1)
    rep = posterior_tv_experiment(prob, plan_pipeline(prob), NoiseStream(22), samples=4000)
    assert rep["pass"]
    assert rep["tv"] <= rep["threshold"] == pytest.approx(0.08)


def test_posterior_tv_requires_dimension_one():
    # the grid oracle's limit, MAX_GRID_DIM = 2, checked before any chain runs
    prob = identity_problem(d=3, x=[0.5, 0.5, 0.5])
    with pytest.raises(DimensionError):
        posterior_tv_experiment(prob, plan_pipeline(prob), NoiseStream(1), samples=10)


def test_mixing_trend_experiment_small_run():
    prob = identity_problem(d=1)
    planned = plan_pipeline(prob)  # 119 steps on the curvature horizon
    rep = mixing_trend_experiment(prob, planned, NoiseStream(23), chains=3000)
    assert rep["pass"]
    assert rep["steps"] == [1, 4, 16, 64, 119]
    assert len(rep["tv"]) == 5 == len(rep["envelope"])
    assert rep["non_increasing"] and rep["below_envelope"]
    assert rep["tv"][-1] < rep["tv"][0]
    assert rep["times"][-1] == 119 * planned.plan.h
    # the envelope reaches eps/4 at the horizon T, and the last point, at
    # K h in [T, T + h), lies within one step's decay below it
    eps_share, t1 = prob.epsilon / 4, rep["times"][0]
    rate = rep["envelope_rate"]
    assert rep["tv"][0] * np.exp(-rate * (planned.plan.horizon - t1)) == pytest.approx(eps_share, rel=1e-12)
    assert eps_share * np.exp(-rate * planned.plan.h) < rep["envelope"][-1] <= eps_share


def test_compiled_vs_direct_experiment():
    prob = tanh_problem(d=2, x=[0.9, -0.4])
    rep = compiled_vs_direct_experiment(prob, plan_truncated(prob, 20, 80), NoiseStream(25), draws=8)
    assert rep["pass"]
    assert rep["max_relative_deviation"] <= 1e-6
    assert rep["total_stages"] == 20 + 80 + 3
