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
from .verify import build_grid_oracle, tv_distance

TV_BINNING_ALLOWANCE = 0.03


def exit_gate(exited: np.ndarray, epsilon: float) -> dict:
    """Exit-fraction gate over n chains: the fraction is held to the bound
    epsilon/4 plus binomial slack 2 sqrt(epsilon/(4n))."""
    chains = len(exited)
    frac = float(exited.mean())
    bound = epsilon / 4.0
    slack = 2.0 * float(np.sqrt(epsilon / (4.0 * chains)))
    threshold = bound + slack
    return {
        "chains": int(chains),
        "exit_fraction": frac,
        "bound": bound,
        "slack": slack,
        "threshold": float(threshold),
        "pass": bool(frac <= threshold),
    }


def tv_gate(samples: np.ndarray, oracle, epsilon: float) -> dict:
    """TV gate against a grid oracle: the TV is held to the bound epsilon/2
    plus the binning allowance."""
    tv = float(tv_distance(samples, oracle))
    bound = epsilon / 2.0
    threshold = bound + TV_BINNING_ALLOWANCE
    return {
        "tv": tv,
        "bound": bound,
        "binning_allowance": TV_BINNING_ALLOWANCE,
        "threshold": float(threshold),
        "pass": bool(tv <= threshold),
    }


def exit_fraction_experiment(
    problem: PosteriorProblem, planned: PipelinePlan, stream, chains: int = 1000
) -> dict:
    """Fraction of planned (unprojected) chains that ever leave the region,
    held to exit_gate."""
    result = run_planned_chains(problem, planned, stream, chains)
    return {**exit_gate(result.exited, problem.epsilon), "langevin_steps": planned.plan.steps}


def posterior_tv_experiment(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    samples: int = 10_000,
) -> dict:
    """TV between planned chains' samples and the grid oracle at d = 1,
    held to tv_gate."""
    if problem.dim != 1:
        raise DimensionError("posterior TV experiment runs at dimension 1")
    result = run_planned_chains(problem, planned, stream, samples)
    oracle = build_grid_oracle(problem, planned.region)
    return {
        "samples": int(samples),
        **tv_gate(result.finals, oracle, problem.epsilon),
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
) -> dict:
    """TV decay of the planned chains, projected, against the restricted
    posterior.

    Measures TV at five times and holds it against two properties: the
    sequence is non-increasing within Monte-Carlo slack, and each point stays
    below the envelope C exp(-t / (2 radius^2)) + allowance with C fitted at
    the first measured point. The snapshot times are log-spaced so the early
    decay is visible before TV hits the histogram noise floor.
    """
    if problem.dim != 1:
        raise DimensionError("mixing trend experiment runs at dimension 1")
    plan = dataclasses.replace(planned.plan, projected=True)
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


def compiled_vs_direct_experiment(
    problem: PosteriorProblem,
    planned: PipelinePlan,
    stream,
    draws: int = 32,
    amortized: bool = True,
) -> dict:
    """Compile a truncated plan (pipeline.plan_truncated) and report the
    shared-noise deviation, held to compiler.equivalence_gate."""
    from .compiler import compile_encoder, equivalence_deviation, equivalence_gate, manifest

    encoder = compile_encoder(problem, planned.gd_plan, planned.plan, amortized=amortized)
    deviation, _ = equivalence_deviation(problem, planned, encoder, stream, draws=draws)
    return {**manifest(encoder, problem.model.generator), **equivalence_gate(deviation, draws)}
