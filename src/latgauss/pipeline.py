"""End-to-end orchestration: inversion, region, plan, chains.

A command plans once and passes the plan down. `plan_pipeline` (or
`plan_truncated` for compiled encoders) runs the descent and fixes the
region around its output and both plans as one `PipelinePlan`; the region's
center is the inverse, so the problem itself never changes. The CLI, the
experiments and the compiler equivalence test all take that plan, and
`run_planned_chains` draws the ball starts and runs the Langevin chains on
one batch, so every caller consumes noise counters in exactly the same way.
The chain start has one owner, the pair (region.center, plan.init_radius):
`sampler.initialize_batch` and `verify.chi2_initialization` read both, and a
compiled encoder keeps plan.init_radius for its ball-noise input.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .errors import PlanTooLarge
from .invert import GD_STEP_CAP_DEFAULT, GdPlan, GdTrace, gd_invert, make_gd_plan
from .models import LatentGaussian
from .nets import MapConstants, Network, estimate_constants
from .potential import PosteriorProblem, RegionD, check_inverse, region
from .sampler import (
    STEP_CAP_DEFAULT,
    ChainRun,
    PipelineStages,
    SamplerPlan,
    initialize_batch,
    make_sampler_plan,
    run_chains,
)


def build_problem(
    generator: Network,
    beta: float,
    x: np.ndarray,
    epsilon: float = 0.1,
    constants: MapConstants | None = None,
    constants_seed: int = 0,
    constants_samples: int = 4096,
) -> PosteriorProblem:
    """Problem with constants either supplied or estimated by sampling."""
    model = LatentGaussian(generator, beta)
    if constants is None:
        constants = estimate_constants(
            generator,
            sample_count=constants_samples,
            radius=4.0 + float(np.linalg.norm(x)),
            seed=constants_seed,
        )
    return PosteriorProblem(model, x, constants, epsilon=epsilon)


class PipelinePlan(NamedTuple):
    """The deterministic half of the pipeline: descent record, region, plans."""

    trace: GdTrace
    region: RegionD
    gd_plan: GdPlan
    plan: SamplerPlan

    @property
    def stages(self) -> PipelineStages:
        return PipelineStages(self.gd_plan.steps)


def plan_pipeline(
    problem: PosteriorProblem,
    gd_max_steps: int = GD_STEP_CAP_DEFAULT,
    step_cap: int = STEP_CAP_DEFAULT,
) -> PipelinePlan:
    """Deterministic half of the pipeline: descent with early stop, the
    region around its output, and the Langevin plan.

    Raises InitializationError when the descent output misses the chain
    start precondition (check_inverse), as a too-low descent cap can cause.
    """
    gd_plan = make_gd_plan(problem, max_steps=gd_max_steps)
    trace = gd_invert(problem, gd_plan)
    check_inverse(problem, trace.final)
    reg = region(problem, trace.final)
    return PipelinePlan(trace, reg, gd_plan, make_sampler_plan(problem, reg, step_cap=step_cap))


def plan_truncated(
    problem: PosteriorProblem,
    gd_steps: int,
    langevin_steps: int,
    gd_max_steps: int = GD_STEP_CAP_DEFAULT,
    step_cap: int = STEP_CAP_DEFAULT,
) -> PipelinePlan:
    """Plan for a compiled encoder: the planned step sizes, cut to fixed
    stage counts.

    Descent keeps the planned step 1/Q but runs exactly gd_steps steps with
    no early stop, since the encoder replays every stage; the chain keeps the
    full plan's h and start radius but runs langevin_steps steps.
    Both counts and the full Langevin plan must fit their caps, and the
    descent output must meet the chain start precondition (check_inverse).
    """
    if gd_steps > gd_max_steps:
        raise PlanTooLarge(
            "compile descent stage count exceeds the configured cap",
            steps=gd_steps,
            cap=gd_max_steps,
        )
    if langevin_steps > step_cap:
        raise PlanTooLarge(
            "compile chain stage count exceeds the configured cap",
            steps=langevin_steps,
            cap=step_cap,
        )
    base = make_gd_plan(problem, max_steps=gd_max_steps)
    gd_plan = GdPlan(eta=base.eta, steps=gd_steps, Q=base.Q, delta=base.delta)
    trace = gd_invert(problem, gd_plan, early_stop=False)
    check_inverse(problem, trace.final)
    reg = region(problem, trace.final)
    plan = dataclasses.replace(make_sampler_plan(problem, reg, step_cap=step_cap), steps=langevin_steps)
    return PipelinePlan(trace, reg, gd_plan, plan)


def run_planned_chains(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    chains: int,
    snapshot_steps: list | None = None,
) -> ChainRun:
    """Perturbed starts and Langevin chains 0..chains-1, in one batch.

    Stage numbering: descent consumes no noise but owns stages 1..S, the ball
    perturbation sits at S+1, Langevin steps at S+2 and on. S is the PLANNED
    descent length even when early stopping cuts the run short, so plans with
    the same (eta, S, h, K) consume identical counters no matter how fast the
    descent happened to converge. Every word is keyed on the absolute chain
    index, so any split of the chains would give the same samples.
    """
    stages = planned.stages
    idx = np.arange(chains, dtype=np.uint64)
    Z0 = initialize_batch(problem, planned.region, planned.plan, stream, stages, idx)
    return run_chains(problem, planned.region, planned.plan, Z0, stream, stages, idx, snapshot_steps)
