"""Statistical experiments backing the package's quantitative claims.

Each experiment returns a JSON-ready dict with the measurement, the threshold
it is held against, and a pass flag. Thresholds combine an analytic bound
with explicit Monte-Carlo or binning allowances; the reports carry both parts
separately so a reader can see which slack did the work.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionError
from .pipeline import PipelinePlan, run_planned_chains
from .potential import PosteriorProblem
from .rng import normal_rows
from .verify import build_grid_oracle, tv_distance

TV_BINNING_ALLOWANCE = 0.03


def exit_slack(epsilon: float, chains: int) -> float:
    """Binomial slack 2 sqrt(epsilon/(4n)) on an exit fraction over n chains."""
    return 2.0 * float(np.sqrt(epsilon / (4.0 * chains)))


def exit_threshold(epsilon: float, chains: int) -> float:
    """Exit-fraction gate: the bound epsilon/4 plus binomial slack."""
    return epsilon / 4.0 + exit_slack(epsilon, chains)


def tv_threshold(epsilon: float) -> float:
    """TV gate against a grid oracle: the bound epsilon/2 plus binning allowance."""
    return epsilon / 2.0 + TV_BINNING_ALLOWANCE


def exit_fraction_experiment(
    problem: PosteriorProblem, planned: PipelinePlan, stream, chains: int = 1000
) -> dict:
    """Fraction of planned (unprojected) chains that ever leave the region.

    Contract: fraction <= epsilon/4 plus binomial slack 2 sqrt(epsilon/(4n)).
    """
    result = run_planned_chains(problem, planned, stream, chains)
    frac = float(result.exited.mean())
    threshold = exit_threshold(problem.epsilon, chains)
    return {
        "chains": int(chains),
        "exit_fraction": frac,
        "bound": problem.epsilon / 4.0,
        "slack": exit_slack(problem.epsilon, chains),
        "threshold": float(threshold),
        "pass": bool(frac <= threshold),
        "langevin_steps": planned.plan.steps,
    }


def posterior_tv_experiment(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    samples: int = 10_000,
) -> dict:
    """TV between planned chains' samples and the grid oracle at d = 1.

    Contract: TV <= epsilon/2 + 0.03 binning allowance.
    """
    if problem.dim != 1:
        raise DimensionError("posterior TV experiment runs at dimension 1")
    result = run_planned_chains(problem, planned, stream, samples)
    oracle = build_grid_oracle(problem, planned.region)
    tv = tv_distance(result.finals, oracle)
    threshold = tv_threshold(problem.epsilon)
    return {
        "samples": int(samples),
        "tv": float(tv),
        "bound": problem.epsilon / 2.0,
        "binning_allowance": TV_BINNING_ALLOWANCE,
        "threshold": float(threshold),
        "pass": bool(tv <= threshold),
        "exit_fraction": float(result.exited.mean()),
        "langevin_steps": planned.plan.steps,
        "h": planned.plan.h,
    }


MONOTONE_SLACK = 0.015
ENVELOPE_ALLOWANCE = 0.03


def mixing_trend_experiment(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    chains: int = 4000,
    snapshot_steps: list | None = None,
) -> dict:
    """TV decay of the planned chains, projected, against the restricted
    posterior.

    Measures TV at five times and holds it against two properties: the
    sequence is non-increasing within Monte-Carlo slack, and each point stays
    below the envelope C exp(-t / (2 radius^2)) + allowance with C fitted at
    the first measured point. Default snapshot times are log-spaced so the
    early decay is visible before TV hits the histogram noise floor.
    """
    if problem.dim != 1:
        raise DimensionError("mixing trend experiment runs at dimension 1")
    plan = dataclasses.replace(planned.plan, projected=True)
    if snapshot_steps is None:
        K = plan.steps
        # log-spaced from the very first step: the chain relaxes in about
        # 1/(h * curvature) ~ 1/epsilon steps, so early times show the decay
        # and the final time sits on the histogram noise floor
        snapshot_steps = sorted({min(1, K), min(4, K), min(16, K), min(64, K), K})
    result = run_planned_chains(
        problem, planned._replace(plan=plan), stream, chains, snapshot_steps=snapshot_steps
    )
    reg = planned.region
    oracle = build_grid_oracle(problem, reg, restricted=True)
    steps = sorted(result.snapshots)
    times = [s * plan.h for s in steps]
    tvs = [float(tv_distance(result.snapshots[s], oracle)) for s in steps]

    rate = 1.0 / (2.0 * reg.radius**2)
    c_fit = tvs[0] / np.exp(-rate * times[0])
    envelope = [float(c_fit * np.exp(-rate * t)) for t in times]
    non_increasing = all(
        tvs[i + 1] <= tvs[i] + MONOTONE_SLACK for i in range(len(tvs) - 1)
    )
    below = all(tv <= env + ENVELOPE_ALLOWANCE for tv, env in zip(tvs, envelope))
    return {
        "chains": int(chains),
        "steps": [int(s) for s in steps],
        "times": [float(t) for t in times],
        "tv": tvs,
        "envelope": envelope,
        "envelope_rate": float(rate),
        "envelope_scale": float(c_fit),
        "monotone_slack": MONOTONE_SLACK,
        "envelope_allowance": ENVELOPE_ALLOWANCE,
        "non_increasing": bool(non_increasing),
        "below_envelope": bool(below),
        "pass": bool(non_increasing and below),
    }


def cir_comparison_experiment(
    problem: PosteriorProblem,
    stream,
    paths: int = 64,
    steps: int = 2000,
    stage_base: int = 1,
) -> dict:
    """Paired-path domination of the squared distance by an Euler CIR.

    Linear d=1 generators only: the chain contracts as v' = (1-h kappa) v +
    sqrt(2h) xi with kappa the constant curvature, so U = v^2/2 satisfies a
    squared-OU recursion. The CIR partner shares the signed noise projection
    s = sign(v) xi and uses the matched contraction 1 - hB = (1 - h kappa)^2
    with unit drift (d = 1), clipped at zero. Contract: U never exceeds X by
    more than a cumulative sqrt(h) per-step budget.
    """
    from .nets import as_linear

    if problem.dim != 1:
        raise DimensionError("comparison experiment runs at dimension 1")
    lin = as_linear(problem.model.generator)
    if lin is None:
        raise DimensionError("comparison experiment needs a linear generator")
    A, b = lin
    a = float(A[0, 0])
    beta = problem.beta
    kappa = 1.0 + a * a / (beta * beta)
    zhat = a * (float(problem.x[0]) - float(b[0])) / (a * a + beta * beta)
    h = min(problem.epsilon * beta * beta / (2.0 * a * a + 1e-12), 1.0 / (4.0 * kappa))

    v = np.full(paths, 0.3 / np.sqrt(kappa))
    U = 0.5 * v * v
    X = U.copy()
    B = 2.0 * kappa - h * kappa * kappa
    draws = np.arange(paths, dtype=np.uint64)
    max_excess = -np.inf
    max_excess_increment = -np.inf
    budget = np.sqrt(h)
    worst_margin = np.inf
    prev_excess = U - X
    for k, step_noise in enumerate(normal_rows(stream, stage_base, steps, draws, 1)):
        xi = step_noise[:, 0]
        s = np.where(v >= 0.0, xi, -xi)
        v = (1.0 - h * kappa) * v + np.sqrt(2.0 * h) * xi
        U = 0.5 * v * v
        X = X + h * (1.0 - B * X) + 2.0 * np.sqrt(h * np.maximum(X, 0.0)) * s
        X = np.maximum(X, 0.0)
        excess = U - X
        max_excess = max(max_excess, float(np.max(excess)))
        max_excess_increment = max(max_excess_increment, float(np.max(excess - prev_excess)))
        worst_margin = min(worst_margin, float(np.min((k + 1) * budget - excess)))
        prev_excess = excess
    ok = worst_margin >= 0.0 and max_excess_increment <= budget
    return {
        "paths": int(paths),
        "steps": int(steps),
        "h": float(h),
        "kappa": float(kappa),
        "max_excess": float(max_excess),
        "max_excess_increment": float(max_excess_increment),
        "per_step_budget": float(budget),
        "pass": bool(ok),
        "zhat": zhat,
    }


def compiled_vs_direct_experiment(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    draws: int = 32,
    amortized: bool = True,
) -> dict:
    """Compile a truncated plan (pipeline.plan_truncated) and report the
    shared-noise deviation."""
    from .compiler import EQUIVALENCE_TOLERANCE, compile_encoder, equivalence_deviation, manifest

    encoder = compile_encoder(problem, planned.gd_plan, planned.plan, amortized=amortized)
    deviation, _ = equivalence_deviation(problem, planned, encoder, stream, draws=draws)
    report = manifest(encoder, problem.model.generator)
    report.update(
        {
            "draws": int(draws),
            "max_relative_deviation": float(deviation),
            "tolerance": EQUIVALENCE_TOLERANCE,
            "pass": bool(deviation <= EQUIVALENCE_TOLERANCE),
        }
    )
    return report
