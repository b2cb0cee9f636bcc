"""Langevin sampling of the latent posterior.

The chain discretizes dz = -grad L(z) dt + sqrt(2) dB by Euler steps

    z' = z - h grad L(z) + sqrt(2 h) xi,      xi ~ N(0, I_d),

with no projection: a chain that leaves the region D is recorded as an exit,
which the exit gate holds to its share of the error budget. The horizons
below are rates for this unprojected chain (Dalalyan 2017); a projected chain
mixes at other rates (Bubeck, Eldan & Lehec 2018), and none is planned here.
Plans fix the step, the horizon and the step count:

    h = min(eps * beta^2 / (M^2 + m^2),  rad^2 eps^2 / max(d, 1))
    T = min(T_paper, T_curv),    T_paper = (2 rad)^2 * log(1/eps)
    K = ceil(T / h)

The first step term keeps h * ||Hess L|| <= eps; with h * ||Hess|| near one
the Euler chain's stationary variance is inflated by a factor up to two, which
is measurably too coarse for the total-variation gates this package tests
against. Both terms shrink polynomially in eps, matching the accuracy theory.
For a strongly convex potential the Euler chain's bias against the diffusion
it discretizes is set by h and does not grow with the horizon, so h keeps its
terms whichever horizon the plan takes.

T_paper is the paper's horizon; it leans only on the prior's 1-strong
convexity. T_curv is the warm-start horizon of a strongly convex, smooth
potential (Dalalyan 2017; Durmus & Moulines 2017), from the curvature of L on
D = B(c, rad), c the region's center:

* Hessian bounds. Hess L = I + (J^T J + sum_i r_i Hess G_i) / beta^2 with
  r = G(z) - x. On D, ||r|| <= r_G = ||G(c) - x|| + M rad, J^T J lies
  between m^2 and M^2, and the tensor sum's norm is at most M2 ||r||, so

      alpha_D = 1 + (m^2 - M2 r_G) / beta^2  <=  Hess L  <=  1 + (M^2 + M2 r_G) / beta^2 = L_D.

  When alpha_D <= 1 the region is no more curved than the prior, and T_paper
  stands.
* Mode distance. A few Newton steps on grad L from c give z~. An
  alpha_D-strongly convex L has its minimizer z* within ||grad L(z~)|| /
  alpha_D of z~, so ||c - z*|| <= delta = ||c - z~|| + ||grad L(z~)|| / alpha_D.
  The start ball B(c, r0), r0 = init_radius, and the mode must lie inside D:
  when r0 + delta >= rad, T_paper stands.
* Start chi-square. The start law is uniform on B(c, r0) and the target is
  the posterior restricted to D. On B(c, r0), L <= L(z*) + (L_D/2)(r0 + delta)^2,
  and the target's normalizer is at most e^{-L(z*)} (2 pi / alpha_D)^{d/2}, so

      log(1 + chi2_0) <= (L_D/2)(r0 + delta)^2 + (d/2) log(2 pi / alpha_D) - log vol_d(r0).

* Decay. The restricted target satisfies a Poincare inequality with constant
  1/alpha_D (Bakry-Emery on the convex D), so chi2 decays at rate 2 alpha_D,
  chi2_T <= e^{-2 alpha_D T} chi2_0, and TV_T <= sqrt(chi2_T) / 2. Holding
  e^{-alpha_D T} sqrt(chi2_0) / 2 to eps/4, the mixing share of the error
  budget (the others: eps/4 of the mass outside D, eps/4 of exits, and the
  discretization's share that h holds), gives

      T_curv = (log(1 + chi2_0) / 2 + log(2 / eps)) / alpha_D.

The bounds are only as good as m, M and M2: sampled constants
(MapConstants.estimated) are inner estimates, so alpha_D and T_curv are as
optimistic as they are. The sample report says which constants the plan
trusts.

Chains start at region.center + N, where the region's center is the descent
output and N is uniform in the ball of the plan's init_radius, rad/4.

Noise counters: Langevin step k of chain c draws at (stage_base + k, draw=c);
the ball perturbation draws at (init_stage, draw=c). Stage numbering matches
the compiled encoder's stage positions so both consume identical noise words.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import potential
from .errors import DegeneratePlan, NumericalBlowup, PlanTooLarge
from .potential import PosteriorProblem, RegionD, grad_potential_batch, hess_potential
from .rng import ball_points, normal_blocks

STEP_CAP_DEFAULT = 10**7
_MODE_NEWTON_STEPS = 4  # Newton steps from the region's center toward the mode


@dataclass
class RegionCurvature:
    """The curvature horizon and what it rests on (see the module docstring).
    mode_distance, log_chi2_bound and horizon are None where an earlier
    condition already left the plan on the paper's horizon."""

    alpha_D: float
    L_D: float
    r_G: float
    mode_distance: float | None
    log_chi2_bound: float | None
    horizon: float | None  # T_curv
    used: bool  # T_curv < T_paper


@dataclass
class SamplerPlan:
    horizon: float  # T
    h: float
    steps: int  # K
    init_radius: float  # rad/4, radius of the start perturbation ball
    # the horizon's basis, set by make_sampler_plan; None on a hand-built plan
    paper_horizon: float | None = None  # T_paper
    curvature: RegionCurvature | None = None

    @property
    def paper_steps(self) -> int:
        return int(np.ceil(self.paper_horizon / self.h))


@dataclass
class PipelineStages:
    """Shared stage numbering for direct chains and compiled encoders.

    Stage 0 zeroes the latent input, stages 1..S are descent steps, stage S+1
    adds the ball perturbation, stages S+2..S+1+K are Langevin steps, and the
    last stage projects the carry channels away. Only the Langevin stages and
    the perturbation consume noise, so S alone fixes every counter.
    """

    gd_steps: int

    def gd_stage(self, s: int) -> int:
        return 1 + s

    @property
    def init_stage(self) -> int:
        return self.gd_steps + 1

    def langevin_stage(self, k: int) -> int:
        return self.gd_steps + 2 + k


def _grad_at(problem: PosteriorProblem, z: np.ndarray) -> np.ndarray:
    # a doubled row, as run_chains evaluates a lone chain
    return grad_potential_batch(problem, np.repeat(z[None, :], 2, axis=0))[0]


def region_curvature(problem: PosteriorProblem, region: RegionD, init_radius: float) -> RegionCurvature:
    """alpha_D, L_D and the curvature horizon T_curv of the region, from the
    problem's constants (module docstring); make_sampler_plan sets used."""
    c = problem.constants
    beta2 = problem.beta**2
    center = region.center
    residual = problem.generator.eval_batch(center[None, :])[0] - problem.x
    r_G = float(np.linalg.norm(residual) + c.M * region.radius)
    alpha = float(1.0 + (c.m**2 - c.M2 * r_G) / beta2)
    smooth = float(1.0 + (c.M**2 + c.M2 * r_G) / beta2)
    curvature = RegionCurvature(alpha, smooth, r_G, None, None, None, False)
    if alpha <= 1.0:
        return curvature
    z = center.copy()
    try:
        for _ in range(_MODE_NEWTON_STEPS):
            z = z - np.linalg.solve(hess_potential(problem, z), _grad_at(problem, z))
    except np.linalg.LinAlgError:
        return curvature
    delta = float(np.linalg.norm(center - z) + np.linalg.norm(_grad_at(problem, z)) / alpha)
    curvature.mode_distance = delta if np.isfinite(delta) else None
    reach = init_radius + delta
    if not reach < region.radius:  # a non-finite delta fails here too
        return curvature
    d = problem.dim
    log_ball = 0.5 * d * math.log(math.pi) + d * math.log(init_radius) - math.lgamma(0.5 * d + 1.0)
    log_chi2 = 0.5 * smooth * reach**2 + 0.5 * d * math.log(2.0 * math.pi / alpha) - log_ball
    horizon = (0.5 * log_chi2 + math.log(2.0 / problem.epsilon)) / alpha
    curvature.log_chi2_bound = float(log_chi2)
    curvature.horizon = float(horizon)
    return curvature


def make_sampler_plan(
    problem: PosteriorProblem,
    region: RegionD,
    step_cap: int = STEP_CAP_DEFAULT,
) -> SamplerPlan:
    """The plan from the displayed formulas: the paper's horizon, or
    the region's curvature horizon where that is shorter.

    Raises PlanTooLarge over step_cap, suggesting the smallest epsilon whose
    plan, on the region rebuilt around the same center, fits the cap
    (_epsilon_within_cap).
    """
    plan = _uncapped_plan(problem, region)
    if plan.steps > step_cap:
        raise PlanTooLarge(
            "planned steps exceed the cap; increase epsilon or raise the cap",
            steps=plan.steps,
            cap=step_cap,
            suggested_epsilon=_epsilon_within_cap(problem, region.center, step_cap),
        )
    if plan.steps == 0:
        raise DegeneratePlan("zero Langevin steps planned", horizon=plan.horizon, h=plan.h)
    return plan


def _uncapped_plan(problem: PosteriorProblem, region: RegionD) -> SamplerPlan:
    c = problem.constants
    eps = problem.epsilon
    rad = region.radius
    init_radius = potential.start_radius(rad)
    paper_horizon = (2.0 * rad) ** 2 * np.log(1.0 / eps)
    h = min(
        eps * problem.beta**2 / (c.M**2 + c.m**2),
        rad**2 * eps**2 / max(problem.dim, 1),
    )
    if paper_horizon <= 0.0 or h <= 0.0:
        raise DegeneratePlan(
            "planned horizon or step collapsed to zero", horizon=paper_horizon, h=h
        )
    curvature = region_curvature(problem, region, init_radius)
    curvature.used = bool(curvature.horizon is not None and curvature.horizon < paper_horizon)
    horizon = curvature.horizon if curvature.used else paper_horizon
    return SamplerPlan(
        horizon=float(horizon),
        h=float(h),
        steps=int(np.ceil(horizon / h)),
        init_radius=init_radius,
        paper_horizon=float(paper_horizon),
        curvature=curvature,
    )


def _epsilon_within_cap(problem: PosteriorProblem, center: np.ndarray, step_cap: int) -> float | None:
    """The smallest epsilon in (problem.epsilon, 0.9] whose plan has at most
    step_cap steps, to within 2^-30 of that interval's width, by bisection;
    None when not even 0.9 fits. Every trial rebuilds the region around
    center, since the radius, h and both horizons all move with epsilon."""

    def fits(eps: float) -> bool:
        trial = dataclasses.replace(problem, epsilon=eps)
        return _uncapped_plan(trial, potential.region(trial, center)).steps <= step_cap

    lo, hi = problem.epsilon, 0.9
    if not fits(hi):
        return None
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- initialization ---------------------------------------------------------------


def initialize_batch(
    problem: PosteriorProblem,
    region: RegionD,
    plan: SamplerPlan,
    stream,
    stages: PipelineStages,
    chains: np.ndarray,
) -> np.ndarray:
    """The region's center plus a uniform ball perturbation of radius
    plan.init_radius, one row per chain index.

    Precondition: ||G(center) - x|| <= m * rad/4, which certifies
    ||center - zhat|| <= rad/4. The plan that produced the region has checked
    it (pipeline.plan_pipeline and plan_truncated call potential.check_inverse).
    """
    noise = ball_points(stream, stages.init_stage, chains, problem.dim, plan.init_radius)
    return region.center[None, :] + noise


# -- chains ------------------------------------------------------------------------


class ChainRun(NamedTuple):
    """What one batch of chains produces. finals stays field 0: the traced
    benchmark run counts chain-steps from len(result[0])."""

    finals: np.ndarray
    exited: np.ndarray
    snapshots: dict  # requested step index -> states at that step


def run_chains(
    problem: PosteriorProblem,
    region: RegionD,
    plan: SamplerPlan,
    Z0: np.ndarray,
    stream,
    stages: PipelineStages,
    chains: np.ndarray,
    snapshot_steps: list | None = None,
) -> ChainRun:
    """Run many chains in lockstep (vectorized over the draw axis).

    Chain c draws its step-k noise at counter (stages.langevin_stage(k),
    draw=chains[c]); the noise for many steps is drawn and scaled by sqrt(2h)
    in one block (rng.normal_blocks), bit for bit the per-step draw. The
    gradient check and the snapshots run every step.
    The exit record does not: the state after each step goes into the noise
    row that step spent, and at the block's end the whole block is tested
    against the region in one pass; a chain has exited when any of its
    states, the start included, lay outside the region.
    """
    Z = np.asarray(Z0, dtype=np.float64).copy()
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
                block[j] = Z
                k += 1
                if k in want:
                    snapshots[k] = Z.copy()
            record_exits(block)
    return ChainRun(Z, exited, snapshots)

