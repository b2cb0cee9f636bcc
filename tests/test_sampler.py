import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grad_at, identity_problem, residual_constants, tanh_constants, tanh_problem
from latgauss import rng, sampler
from latgauss.errors import DegeneratePlan, NumericalBlowup, PlanTooLarge
from latgauss.models import LatentGaussian
from latgauss.nets import MapConstants, random_residual_tanh_net, tanh_residual_net
from latgauss.pipeline import build_problem, plan_pipeline, run_planned_chains
from latgauss.potential import (
    PosteriorProblem,
    RegionD,
    grad_potential_batch,
    hess_potential,
    refine_inverse,
    region,
)
from latgauss.rng import NoiseStream, ZeroStream, ball_points
from latgauss.verify import chi2_initialization
from latgauss.sampler import (
    PipelineStages,
    SamplerPlan,
    initialize_batch,
    make_sampler_plan,
    region_curvature,
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
    # d=1, m=M=1, M2=0, beta=0.1, radius=0.2, eps=0.1, centered on the mode:
    # h = min(eps beta^2/(M^2+m^2), radius^2 eps^2) = min(5e-4, 4e-4) = 4e-4
    # T_paper = (2 radius)^2 log(1/eps) = 0.16 log 10 = 0.368, 922 steps
    # alpha_D = L_D = 1 + 1/beta^2 = 101, r_G = 0 + M radius = 0.2, delta = 0
    # log(1 + chi2_0) <= (101/2) 0.05^2 + log(2 pi/101)/2 - log(2 * 0.05) = 0.977
    # T_curv = (0.977/2 + log(2/eps))/101 = 0.0348, 88 steps
    prob = identity_problem(d=1, beta=0.1, x=[0.0], epsilon=0.1)
    reg = synthetic_region([0.0], 0.2)
    plan = make_sampler_plan(prob, reg)
    assert plan.h == pytest.approx(4e-4)
    assert plan.paper_horizon == pytest.approx(0.16 * np.log(10.0))
    assert plan.paper_steps == 922
    cv = plan.curvature
    assert cv.alpha_D == pytest.approx(101.0) and cv.L_D == pytest.approx(101.0)
    assert cv.r_G == pytest.approx(0.2)
    assert cv.mode_distance == pytest.approx(0.0, abs=1e-15)
    want_chi2 = 101.0 / 2 * 0.05**2 + 0.5 * np.log(2 * np.pi / 101.0) - np.log(0.1)
    assert cv.log_chi2_bound == pytest.approx(want_chi2)
    want_T = (want_chi2 / 2 + np.log(20.0)) / 101.0
    assert cv.used and plan.horizon == cv.horizon == pytest.approx(want_T)
    assert plan.steps == int(np.ceil(want_T / plan.h)) == 88
    assert plan.init_radius == pytest.approx(0.05)


def test_horizon_formula():
    # centered at 0 against x = 0.9, the mode x / (1 + beta^2) = 0.891 lies
    # outside the 0.27 region, so the paper's horizon stands
    prob = identity_problem(d=1, epsilon=0.1)
    reg = synthetic_region([0.0], 0.27)
    plan = make_sampler_plan(prob, reg)
    assert plan.curvature.mode_distance == pytest.approx(0.9 / 1.01)
    assert plan.curvature.horizon is None and not plan.curvature.used
    assert plan.horizon == plan.paper_horizon == pytest.approx(0.54**2 * np.log(10.0))
    assert plan.steps == plan.paper_steps


def test_flat_region_keeps_the_paper_horizon():
    # M2 r_G above m^2: the bounds leave D no more curved than the prior
    net = tanh_residual_net(1, 0.5)
    prob = PosteriorProblem(LatentGaussian(net, 0.1), np.array([0.9]), MapConstants(1.0, 1.5, 3.0, 1.0))
    reg = prepared(prob)
    plan = make_sampler_plan(prob, reg)
    cv = plan.curvature
    assert cv.alpha_D <= 1.0 and cv.mode_distance is None and not cv.used
    assert plan.horizon == plan.paper_horizon == (2.0 * reg.radius) ** 2 * np.log(10.0)


def test_chi2_bound_covers_the_start_quadrature():
    # the README config with exact constants: the plan's bound on
    # log(1 + chi2) of the start against the restricted target is at least
    # the value chi2_initialization integrates
    prob = tanh_problem(d=1)
    planned = plan_pipeline(prob)
    cv = planned.plan.curvature
    assert cv.used
    chi2 = chi2_initialization(prob, planned.region, planned.plan.init_radius)
    assert np.log1p(np.exp(2.0 * chi2["log_sqrt_chi2"])) <= cv.log_chi2_bound


def test_plan_where_the_paper_horizon_is_shorter_is_the_paper_plan():
    # encoder-d2's config (sampled constants, seed 4): T_curv 12.8 against
    # T_paper 5.0, so plan and samples are those of the paper's formulas
    prob = build_problem(tanh_residual_net(2, 0.5), 0.1, np.array([0.5, 0.5]), epsilon=0.6, constants_seed=4)
    planned = plan_pipeline(prob)
    plan, rad, c = planned.plan, planned.region.radius, prob.constants
    assert plan.curvature.horizon > plan.paper_horizon and not plan.curvature.used
    h = min(0.6 * 0.1**2 / (c.M**2 + c.m**2), rad**2 * 0.6**2 / 2)
    paper_horizon = (2.0 * rad) ** 2 * np.log(1.0 / 0.6)
    paper = SamplerPlan(paper_horizon, h, int(np.ceil(paper_horizon / h)), rad / 4.0)
    got = (plan.horizon, plan.h, plan.steps, plan.init_radius)
    assert got == (paper.horizon, paper.h, paper.steps, paper.init_radius)
    assert plan.steps == plan.paper_steps == 2709
    runs = [run_planned_chains(prob, planned._replace(plan=p), NoiseStream(5), 16) for p in (plan, paper)]
    assert np.array_equal(runs[0].finals, runs[1].finals)
    assert np.array_equal(runs[0].exited, runs[1].exited)


# (generator, d, alpha, beta, epsilon, seed): tanh-residual at d = 1, 2 and
# random_residual_tanh_net at d = 2, 4, each with alpha_D > 1
CURVATURE_CASES = [
    ("tanh", 1, 0.5, 0.1, 0.1, 0),
    ("tanh", 1, -0.3, 0.05, 0.2, 1),
    ("tanh", 2, 0.5, 0.05, 0.6, 2),
    ("tanh", 2, 0.3, 0.05, 0.3, 3),
    *[("random", 2, 0.2, 0.05, 0.3, seed) for seed in range(3)],
    *[("random", 4, 0.2, 0.05, 0.6, seed) for seed in range(3)],
]


@pytest.mark.parametrize("kind, d, alpha, beta, eps, seed", CURVATURE_CASES)
def test_curvature_bounds_hold_on_the_region(monkeypatch, kind, d, alpha, beta, eps, seed):
    # with closed-form constants, alpha_D and L_D bracket the Hessian's
    # spectrum at 200 points of D, and the mode lies within mode_distance of
    # the center, also when no Newton step shrinks the gradient term
    if kind == "tanh":
        net, constants = tanh_residual_net(d, alpha), tanh_constants(alpha)
    else:
        net, constants = random_residual_tanh_net(d, seed, alpha), residual_constants(alpha)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    prob = PosteriorProblem(LatentGaussian(net, beta), x, constants, epsilon=eps)
    planned = plan_pipeline(prob)
    reg, plan = planned.region, planned.plan
    cv = plan.curvature
    assert cv.alpha_D > 1.0 and cv.mode_distance is not None
    assert plan.horizon <= plan.paper_horizon and plan.steps <= plan.paper_steps
    offsets = ball_points(NoiseStream(seed), 0, np.arange(200, dtype=np.uint64), d, reg.radius)
    eigs = np.array([np.linalg.eigvalsh(hess_potential(prob, z))[[0, -1]] for z in reg.center + offsets])
    tol = 1e-6 * cv.L_D  # the Hessian's finite differences
    assert cv.alpha_D <= eigs[:, 0].min() + tol
    assert cv.L_D >= eigs[:, 1].max() - tol
    mode = reg.center.copy()
    for _ in range(40):
        mode = mode - np.linalg.solve(hess_potential(prob, mode), grad_at(prob, mode))
    assert np.linalg.norm(grad_at(prob, mode)) <= 1e-9
    assert np.linalg.norm(reg.center - mode) <= cv.mode_distance + 1e-12
    monkeypatch.setattr(sampler, "_MODE_NEWTON_STEPS", 0)
    bare = region_curvature(prob, reg, plan.init_radius)
    assert bare.mode_distance > cv.mode_distance
    assert np.linalg.norm(reg.center - mode) <= bare.mode_distance


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


@pytest.mark.parametrize(
    "problem, cap",
    [(tanh_problem(d=1), 5000), (identity_problem(d=1), 100)],
    ids=["readme-exact-constants", "identity"],
)
def test_suggested_epsilon_fits_the_cap(problem, cap):
    # one application of the suggestion brings the whole pipeline's plan
    # within the cap (14,579 and 119 steps at epsilon 0.1)
    with pytest.raises(PlanTooLarge) as err:
        plan_pipeline(problem, step_cap=cap)
    eps = err.value.payload["suggested_epsilon"]
    assert 0.1 < eps <= 0.9
    assert plan_pipeline(dataclasses.replace(problem, epsilon=eps), step_cap=cap).plan.steps <= cap


def test_no_suggestion_when_no_epsilon_fits():
    with pytest.raises(PlanTooLarge) as err:
        plan_pipeline(tanh_problem(d=1), step_cap=10)
    assert err.value.payload["suggested_epsilon"] is None


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
    one_step = SamplerPlan(horizon=h, h=h, steps=1, init_radius=2.5)
    stages = PipelineStages(3)
    Z = np.array([[1.0], [-0.4], [0.25]])
    idx = np.array([0, 5, 9], dtype=np.uint64)
    stream = NoiseStream(4)
    got, _, _ = run_chains(prob, reg, one_step, Z, stream, stages, chains=idx)
    noise = stream.normal_matrix(stages.langevin_stage(0), idx, 1)
    assert np.allclose(got, Z - h * 2.0 * Z + np.sqrt(2 * h) * noise)


def truncated(plan, steps):
    return SamplerPlan(horizon=plan.h * steps, h=plan.h, steps=steps, init_radius=plan.init_radius)


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


def test_noise_off_descends_to_mode():
    # zero diffusion turns the chain into gradient descent on L
    prob = identity_problem(d=1, beta=0.5, x=[0.8])
    reg = prepared(prob)
    plan = SamplerPlan(horizon=10.0, h=0.05, steps=200, init_radius=reg.radius / 4)
    stages = PipelineStages(1)
    Z0 = reg.center[None, :] + 0.2 * reg.radius
    finals, _, _ = run_chains(
        prob, reg, plan, Z0, ZeroStream(), stages, chains=np.array([0], dtype=np.uint64)
    )
    assert abs(finals[0, 0] - 0.8 / 1.25) <= 1e-6


def test_stage_numbering():
    st = PipelineStages(gd_steps=4)
    assert st.gd_stage(0) == 1
    assert st.gd_stage(3) == 4
    assert st.init_stage == 5
    assert st.langevin_stage(0) == 6
    assert st.langevin_stage(9) == 15


def per_step_chains(prob, reg, plan, Z0, stream, stages, idx):
    """run_chains written out with one normal_matrix draw and one exit test
    per step; returns (finals, exited)."""
    Z = Z0.copy()
    exited = np.zeros(len(Z), dtype=bool)

    def record():
        off = Z - reg.center
        exited[np.einsum("ij,ij->i", off, off) > reg.radius**2] = True

    record()
    for k in range(plan.steps):
        Z -= plan.h * grad_potential_batch(prob, Z)
        Z += np.sqrt(2.0 * plan.h) * stream.normal_matrix(stages.langevin_stage(k), idx, Z.shape[1])
        record()
    return Z, exited


def test_chains_do_not_depend_on_noise_block_size(monkeypatch):
    # a region of radius 0.15 against a diffusion of about 0.19 over the 60
    # steps, so that some chains exit and others do not
    prob = tanh_problem(d=2, x=[0.6, -0.2])
    planned = prepared(prob)
    reg = synthetic_region(planned.center, 0.15)
    plan = truncated(make_sampler_plan(prob, planned), 60)
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
    assert exited.any() and not exited.all()
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
    plan = SamplerPlan(horizon=30000.0, h=100.0, steps=300, init_radius=0.25)
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


def chain_outputs(prob, reg, stages, idx):
    plan = SamplerPlan(horizon=0.04, h=1e-3, steps=40, init_radius=0.025)
    Z0 = initialize_batch(prob, reg, plan, NoiseStream(8), stages, idx)
    finals, exited, snaps = run_chains(prob, reg, plan, Z0, NoiseStream(8), stages, idx, SPLIT_SNAPSHOTS)
    return [Z0, finals, exited] + [snaps[s] for s in SPLIT_SNAPSHOTS]


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(0, SPLIT_CHAINS - 1), min_size=SPLIT_CHAINS, max_size=SPLIT_CHAINS),
)
@example(labels=list(range(SPLIT_CHAINS)))
def test_chains_do_not_depend_on_how_they_are_split(labels):
    # starts, finals, exits and snapshots of every part of a partition of the
    # chain indices, lone chains included, equal the whole batch's rows
    prob, reg, stages = split_setup()
    idx = np.arange(SPLIT_CHAINS, dtype=np.uint64)
    whole = chain_outputs(prob, reg, stages, idx)
    assert whole[2].any()
    labels = np.array(labels)
    for label in np.unique(labels):
        part = idx[labels == label]
        for got, want in zip(chain_outputs(prob, reg, stages, part), whole):
            assert np.array_equal(got, want[part])
