"""Langevin sampling of the latent posterior.

The chain discretizes dz = -grad L(z) dt + sqrt(2) dB by Euler steps

    z' = z - h grad L(z) + sqrt(2 h) xi,      xi ~ N(0, I_d),

optionally followed by projection onto the effective ball D (the reflected
variant). Plans fix the horizon and step:

    T = (2 rad)^2 * log(1/eps)
    h = min(eps * beta^2 / (M^2 + m^2),  rad^2 eps^2 / max(d, 1))
    K = ceil(T / h)

The first step term keeps h * ||Hess L|| <= eps; with h * ||Hess|| near one
the Euler chain's stationary variance is inflated by a factor up to two, which
is measurably too coarse for the total-variation gates this package tests
against. Both terms shrink polynomially in eps, matching the accuracy theory.

Chains start at z_init + N where N is uniform in the ball of radius rad/4 and
z_init is the descent output.

Noise counters: Langevin step k of chain c draws at (stage_base + k, draw=c);
the ball perturbation draws at (init_stage, draw=c). Stage numbering matches
the compiled encoder's stage positions so both consume identical noise words.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlan, NumericalBlowup, PlanTooLarge
from .potential import PosteriorProblem, RegionD, grad_potential_batch
from .rng import ball_points, normal_blocks

STEP_CAP_DEFAULT = 10**7


@dataclass
class SamplerPlan:
    horizon: float  # T
    h: float
    steps: int  # K
    init_radius: float  # rad/4, radius of the start perturbation ball
    projected: bool


@dataclass
class PipelineStages:
    """Shared stage numbering for direct chains and compiled encoders.

    Stage 0 zeroes the latent input, stages 1..S are descent steps, stage S+1
    adds the ball perturbation, stages S+2..S+1+K are Langevin steps, and the
    last stage projects the carry channels away. Only the Langevin stages and
    the perturbation consume noise.
    """

    gd_steps: int
    langevin_steps: int

    @property
    def init_stage(self) -> int:
        return self.gd_steps + 1

    def langevin_stage(self, k: int) -> int:
        return self.gd_steps + 2 + k

    @property
    def total(self) -> int:
        return self.gd_steps + self.langevin_steps + 3


def make_sampler_plan(
    problem: PosteriorProblem,
    region: RegionD,
    step_cap: int = STEP_CAP_DEFAULT,
) -> SamplerPlan:
    """Unprojected plan from the displayed formulas."""
    c = problem.constants
    eps = problem.epsilon
    rad = region.radius
    horizon = (2.0 * rad) ** 2 * np.log(1.0 / eps)
    h = min(
        eps * problem.beta**2 / (c.M**2 + c.m**2),
        rad**2 * eps**2 / max(problem.dim, 1),
    )
    if horizon <= 0.0 or h <= 0.0:
        raise DegeneratePlan(
            "planned horizon or step collapsed to zero", horizon=horizon, h=h
        )
    steps = int(np.ceil(horizon / h))
    if steps > step_cap:
        raise PlanTooLarge(
            "planned steps exceed the cap; increase epsilon or raise the cap",
            steps=steps,
            cap=step_cap,
            suggested_epsilon=min(0.9, eps * (steps / step_cap) ** 0.25),
        )
    if steps == 0:
        raise DegeneratePlan("zero Langevin steps planned", horizon=horizon, h=h)
    return SamplerPlan(
        horizon=float(horizon),
        h=float(h),
        steps=steps,
        init_radius=region.radius / 4.0,
        projected=False,
    )


# -- initialization ---------------------------------------------------------------


def initialize_batch(
    problem: PosteriorProblem,
    region: RegionD,
    z_init: np.ndarray,
    stream,
    stages: PipelineStages,
    chains: np.ndarray,
) -> np.ndarray:
    """z_init plus a uniform ball perturbation of radius rad/4, one row per
    chain index.

    Precondition: ||G(z_init) - x|| <= m * rad/4, which certifies
    ||z_init - zhat|| <= rad/4. The plan that produced z_init has checked it
    (pipeline.plan_pipeline and plan_truncated call potential.check_inverse).
    """
    z_init = np.asarray(z_init, dtype=np.float64)
    noise = ball_points(
        stream, stages.init_stage, chains, problem.dim, region.radius / 4.0
    )
    return z_init[None, :] + noise


# -- chains ------------------------------------------------------------------------


def project_ball(Z: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the closed ball; identity inside."""
    offset = Z - center
    norms = np.linalg.norm(offset, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return center + offset * scale


def run_chains(
    problem: PosteriorProblem,
    region: RegionD,
    plan: SamplerPlan,
    Z0: np.ndarray,
    stream,
    stages: PipelineStages,
    chains: np.ndarray | None = None,
    snapshot_steps: list | None = None,
):
    """Run many chains in lockstep (vectorized over the draw axis).

    Returns (finals, exited, snapshots) where snapshots maps requested step
    indices to state arrays. Chain c draws its step-k noise at counter
    (stages.langevin_stage(k), draw=chains[c]); the noise for many steps is
    drawn and scaled by sqrt(2h) in one block (rng.normal_blocks), bit for bit
    the per-step draw. The gradient check and the snapshots run every step.
    The exit record does not: the state after each step goes into the noise
    row that step spent, and at the block's end the whole block is tested
    against the region in one pass; a chain has exited when any of its
    states, the start included, lay outside the region.
    """
    Z = np.asarray(Z0, dtype=np.float64).copy()
    if chains is None:
        chains = np.arange(len(Z), dtype=np.uint64)
    want = {int(s) for s in snapshot_steps or ()}
    snapshots = {0: Z.copy()} if 0 in want else {}
    center, radius = region.center, region.radius
    sqrt2h = np.sqrt(2.0 * plan.h)
    exited = np.zeros(len(Z), dtype=bool)

    def record_exits(states):  # shape (steps, chains, d), overwritten
        states -= center
        off = states.reshape(-1, Z.shape[1])
        outside = np.einsum("ij,ij->i", off, off) > radius**2
        exited[outside.reshape(len(states), len(Z)).any(axis=0)] = True

    if not plan.projected:
        record_exits(Z[None].copy())
    lone = len(Z) == 1
    k = 0
    blocks = normal_blocks(
        stream, stages.langevin_stage(0), plan.steps, chains, Z.shape[1], scale=sqrt2h
    )
    with closing(blocks):  # stops a prefetching worker on any exit
        for block in blocks:
            for j, noise in enumerate(block):
                # numpy multiplies a lone row with other kernels than a batch, which
                # round differently; doubling it keeps a chain equal to its batch row
                grad = grad_potential_batch(problem, np.repeat(Z, 2, axis=0) if lone else Z)[: len(Z)]
                if not np.isfinite(grad).all():
                    bad = int(np.argmax(~np.all(np.isfinite(grad), axis=1)))
                    raise NumericalBlowup(
                        "non-finite potential gradient during chain run",
                        step=k,
                        state=Z[bad].tolist(),
                    )
                Z -= plan.h * grad
                Z += noise
                if plan.projected:
                    Z = project_ball(Z, center, radius)
                else:
                    block[j] = Z
                k += 1
                if k in want:
                    snapshots[k] = Z.copy()
            if not plan.projected:
                record_exits(block)
    return Z, exited, snapshots

