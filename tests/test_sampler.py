import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import identity_problem, tanh_problem
from latgauss import rng
from latgauss.errors import DegeneratePlan, NumericalBlowup, PlanTooLarge
from latgauss.models import LatentGaussian
from latgauss.nets import MapConstants, random_residual_tanh_net
from latgauss.potential import (
    PosteriorProblem,
    RegionD,
    grad_potential_batch,
    refine_inverse,
    region,
)
from latgauss.rng import NoiseStream, ZeroStream
from latgauss.sampler import (
    PipelineStages,
    SamplerPlan,
    initialize_batch,
    make_sampler_plan,
    project_ball,
    run_chains,
)


def synthetic_region(center, radius):
    return RegionD(
        center=np.asarray(center, dtype=float),
        radius=radius,
        beta0=1.0,
        admissible=True,
        radius_cap=np.inf,
        radius_within_cap=True,
    )


def prepared(problem):
    return region(problem, refine_inverse(problem, np.zeros(problem.dim)))


def test_plan_worked_example():
    # d=1, m=M=1, beta=0.1, radius=0.2, eps=0.1:
    # h = min(eps beta^2/(M^2+m^2), radius^2 eps^2) = min(5e-4, 4e-4) = 4e-4
    prob = identity_problem(d=1, beta=0.1, x=[0.0], epsilon=0.1)
    reg = synthetic_region([0.0], 0.2)
    plan = make_sampler_plan(prob, reg)
    assert plan.h == pytest.approx(4e-4)
    want_T = 0.16 * np.log(10.0)
    assert plan.horizon == pytest.approx(want_T)
    assert plan.steps == int(np.ceil(want_T / plan.h))
    assert plan.init_radius == pytest.approx(0.05)


def test_horizon_formula():
    prob = identity_problem(d=1, epsilon=0.1)
    reg = synthetic_region([0.0], 0.27)
    plan = make_sampler_plan(prob, reg)
    assert plan.horizon == pytest.approx(0.54**2 * np.log(10.0))


def test_degenerate_plan_rejected():
    # horizon T = (2 radius)^2 log(1/eps) collapses to 0 when the radius does
    # (eps = 1 exactly is already rejected at problem construction)
    prob = identity_problem(d=1, epsilon=0.1)
    reg = synthetic_region([0.0], 0.0)
    with pytest.raises(DegeneratePlan):
        make_sampler_plan(prob, reg)
    with pytest.raises(ValueError):
        identity_problem(d=1, epsilon=1.0)


def test_plan_too_large_suggests_epsilon():
    prob = identity_problem(d=1, beta=0.05, epsilon=0.05)
    reg = prepared(prob)
    with pytest.raises(PlanTooLarge) as err:
        make_sampler_plan(prob, reg, step_cap=100)
    payload = err.value.payload
    assert payload["steps"] > 100
    assert 0.05 < payload["suggested_epsilon"] <= 0.9


def test_initialize_ball_and_precondition():
    prob = identity_problem(d=2, x=[0.5, 0.5])
    reg = prepared(prob)
    stages = PipelineStages(5)
    idx = np.arange(500, dtype=np.uint64)
    Z0 = initialize_batch(prob, reg, make_sampler_plan(prob, reg), NoiseStream(3), stages, idx)
    r = np.linalg.norm(Z0 - reg.center, axis=1)
    assert np.all(r <= reg.radius / 4.0 + 1e-12)


def test_langevin_step_formula():
    prob = identity_problem(d=1, beta=1.0, x=[0.0])
    # grad L(z) = z + (z - x) = 2z at beta=1
    reg = synthetic_region([0.0], 10.0)
    h = 0.01
    one_step = SamplerPlan(horizon=h, h=h, steps=1, init_radius=2.5, projected=False)
    stages = PipelineStages(3)
    Z = np.array([[1.0], [-0.4], [0.25]])
    idx = np.array([0, 5, 9], dtype=np.uint64)
    stream = NoiseStream(4)
    got, _, _ = run_chains(prob, reg, one_step, Z, stream, stages, chains=idx)
    noise = stream.normal_matrix(stages.langevin_stage(0), idx, 1)
    assert np.allclose(got, Z - h * 2.0 * Z + np.sqrt(2 * h) * noise)


def test_project_ball():
    center = np.zeros(2)
    Z = np.array([[3.0, 4.0], [0.1, 0.0]])
    P = project_ball(Z, center, 1.0)
    assert np.allclose(P[0], [0.6, 0.8])
    assert np.array_equal(P[1], Z[1])


def truncated(plan, steps, projected=False):
    return SamplerPlan(
        horizon=plan.h * steps,
        h=plan.h,
        steps=steps,
        init_radius=plan.init_radius,
        projected=projected,
    )


def test_chains_match_conjugate_posterior_moments():
    # identity G: posterior is N(x/(1+beta^2), beta^2/(1+beta^2)); the chain
    # relaxes in ~1/(h kappa) ~ 16 steps, so 2000 steps are past stationarity
    prob = identity_problem(d=1, beta=0.5, x=[0.8])
    reg = prepared(prob)
    plan = truncated(make_sampler_plan(prob, reg), 2000)
    stages = PipelineStages(1)
    idx = np.arange(4000, dtype=np.uint64)
    Z0 = initialize_batch(prob, reg, plan, NoiseStream(7), stages, idx)
    finals, exited, _ = run_chains(prob, reg, plan, Z0, NoiseStream(7), stages, chains=idx)
    mean = 0.8 / 1.25
    var = 0.25 / 1.25
    n = len(idx)
    assert abs(finals.mean() - mean) <= 5 * np.sqrt(var / n)
    assert abs(finals.var() - var) <= 6 * var * np.sqrt(2.0 / n)


def test_projected_chains_stay_inside():
    prob = tanh_problem(d=2, x=[0.6, -0.2])
    reg = prepared(prob)
    plan = truncated(make_sampler_plan(prob, reg), 3000, projected=True)
    stages = PipelineStages(1)
    idx = np.arange(64, dtype=np.uint64)
    Z0 = initialize_batch(prob, reg, plan, NoiseStream(11), stages, idx)
    finals, exited, snaps = run_chains(
        prob, reg, plan, Z0, NoiseStream(11), stages, chains=idx, snapshot_steps=[plan.steps // 2]
    )
    assert not exited.any()
    assert np.all(np.linalg.norm(finals - reg.center, axis=1) <= reg.radius + 1e-9)
    mid = snaps[plan.steps // 2]
    assert np.all(np.linalg.norm(mid - reg.center, axis=1) <= reg.radius + 1e-9)


def test_noise_off_descends_to_mode():
    # zero diffusion turns the chain into gradient descent on L
    prob = identity_problem(d=1, beta=0.5, x=[0.8])
    reg = prepared(prob)
    plan = SamplerPlan(horizon=10.0, h=0.05, steps=200, init_radius=reg.radius / 4, projected=False)
    stages = PipelineStages(1)
    Z0 = reg.center[None, :] + 0.2 * reg.radius
    finals, _, _ = run_chains(
        prob, reg, plan, Z0, ZeroStream(), stages, chains=np.array([0], dtype=np.uint64)
    )
    assert abs(finals[0, 0] - 0.8 / 1.25) <= 1e-6


def test_stage_numbering():
    st = PipelineStages(gd_steps=4)
    assert st.init_stage == 5
    assert st.langevin_stage(0) == 6
    assert st.langevin_stage(9) == 15


def per_step_chains(prob, reg, plan, Z0, stream, stages, idx):
    """run_chains written out with one normal_matrix draw and one exit test
    per step; returns (finals, exited)."""
    Z = Z0.copy()
    exited = np.zeros(len(Z), dtype=bool)

    def record():
        if not plan.projected:
            off = Z - reg.center
            exited[np.einsum("ij,ij->i", off, off) > reg.radius**2] = True

    record()
    for k in range(plan.steps):
        Z -= plan.h * grad_potential_batch(prob, Z)
        Z += np.sqrt(2.0 * plan.h) * stream.normal_matrix(stages.langevin_stage(k), idx, Z.shape[1])
        if plan.projected:
            Z = project_ball(Z, reg.center, reg.radius)
        record()
    return Z, exited


@pytest.mark.parametrize("projected", [False, True])
def test_chains_do_not_depend_on_noise_block_size(monkeypatch, projected):
    # a region of radius 0.15 against a diffusion of about 0.19 over the 60
    # steps, so that some chains exit or get clamped and others do not
    prob = tanh_problem(d=2, x=[0.6, -0.2])
    planned = prepared(prob)
    reg = synthetic_region(planned.center, 0.15)
    plan = truncated(make_sampler_plan(prob, planned), 60, projected)
    plan = dataclasses.replace(plan, init_radius=reg.radius / 4)  # starts inside the 0.15 ball
    stages = PipelineStages(2)
    idx = np.arange(10, dtype=np.uint64) * 3 + 1
    Z0 = initialize_batch(prob, reg, plan, NoiseStream(5), stages, idx)
    want = [0, 1, 6, 7, 30, 60]
    runs = []
    # one stage per block, ragged blocks of 7 stages, one block for the plan
    for block_words in (1, 7 * len(idx) * 2, 10**9):
        monkeypatch.setattr(rng, "_BLOCK_WORDS", block_words)
        runs.append(run_chains(prob, reg, plan, Z0, NoiseStream(5), stages, idx, want))
    finals, exited, snaps = runs[0]
    want_finals, want_exited = per_step_chains(prob, reg, plan, Z0, NoiseStream(5), stages, idx)
    assert np.array_equal(finals, want_finals)
    assert np.array_equal(exited, want_exited)
    assert exited.any() != projected
    assert not exited.all()
    for other_finals, other_exited, other_snaps in runs[1:]:
        assert np.array_equal(other_finals, finals)
        assert np.array_equal(other_exited, exited)
        assert sorted(other_snaps) == want
        for step in want:
            assert np.array_equal(other_snaps[step], snaps[step])


def test_blowup_mid_block_reports_its_step_and_state(monkeypatch):
    # h far past stability: z is multiplied by about 1 - 5h = -499 per step
    # until the gradient overflows, which lands inside a 7-stage block
    prob = identity_problem(d=1, beta=0.5, x=[0.8])
    reg = synthetic_region([0.64], 1.0)
    plan = SamplerPlan(horizon=30000.0, h=100.0, steps=300, init_radius=0.25, projected=False)
    stages = PipelineStages(1)
    idx = np.arange(4, dtype=np.uint64)
    Z0 = np.array([[0.5], [0.7], [0.6], [0.9]])
    payloads = []
    for block_words in (1, 7 * len(idx), 10**9):
        monkeypatch.setattr(rng, "_BLOCK_WORDS", block_words)
        with pytest.raises(NumericalBlowup) as err, np.errstate(over="ignore", invalid="ignore"):
            run_chains(prob, reg, plan, Z0, NoiseStream(9), stages, idx)
        payloads.append(err.value.payload)
    step = payloads[0]["step"]
    assert 0 < step < plan.steps and step % 7 != 0
    assert payloads[1] == payloads[2] == payloads[0]


SPLIT_CHAINS = 9
SPLIT_SNAPSHOTS = [0, 1, 17, 40]


def split_setup():
    # dense weights, where one-row and many-row products can round apart;
    # a radius of 0.1 against a diffusion of about 0.28 makes chains exit
    net = random_residual_tanh_net(2, seed=2, alpha=0.3)
    prob = PosteriorProblem(LatentGaussian(net, 0.1), np.array([0.5, 0.5]), MapConstants(0.7, 1.3, 0.3, 0.6))
    reg = synthetic_region(refine_inverse(prob, np.zeros(2)), 0.1)
    return prob, reg, PipelineStages(3)


def chain_outputs(prob, reg, projected, stages, idx):
    plan = SamplerPlan(horizon=0.04, h=1e-3, steps=40, init_radius=0.025, projected=projected)
    Z0 = initialize_batch(prob, reg, plan, NoiseStream(8), stages, idx)
    finals, exited, snaps = run_chains(prob, reg, plan, Z0, NoiseStream(8), stages, idx, SPLIT_SNAPSHOTS)
    return [Z0, finals, exited] + [snaps[s] for s in SPLIT_SNAPSHOTS]


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(0, SPLIT_CHAINS - 1), min_size=SPLIT_CHAINS, max_size=SPLIT_CHAINS),
    projected=st.booleans(),
)
@example(labels=list(range(SPLIT_CHAINS)), projected=False)
@example(labels=list(range(SPLIT_CHAINS)), projected=True)
def test_chains_do_not_depend_on_how_they_are_split(labels, projected):
    # starts, finals, exits and snapshots of every part of a partition of the
    # chain indices, lone chains included, equal the whole batch's rows
    prob, reg, stages = split_setup()
    idx = np.arange(SPLIT_CHAINS, dtype=np.uint64)
    whole = chain_outputs(prob, reg, projected, stages, idx)
    assert whole[2].any() != projected
    labels = np.array(labels)
    for label in np.unique(labels):
        part = idx[labels == label]
        for got, want in zip(chain_outputs(prob, reg, projected, stages, part), whole):
            assert np.array_equal(got, want[part])
