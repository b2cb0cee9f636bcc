"""Batch command line front end.

Five subcommands (invert, sample, compile, verify, lowerbound) share one
config schema and one report convention: every report JSON embeds the sha256
of the canonical config, the effective seed, and package versions, and the
same config + seed reproduces the report byte for byte except the timestamp
field. Module errors surface as machine-readable JSON on stdout with a
nonzero exit code.

`sample`, `compile` and `verify` each plan once under the config's caps
(`pipeline.plan_pipeline`, or `plan_truncated` for the compiled encoder) and
pass that plan to everything that runs chains: `run_planned_chains`, the
experiments and the compile self-test. `verify` runs the experiments the
config names, from `compiled`, `exit`, `mixing` and `tv`. Every pass flag
in a report comes from the function that owns its threshold: `sample`'s
exit and TV blocks are the experiments' own gates (`experiments.exit_gate`
and `tv_gate`), `compile`'s self-test is `compiler.equivalence_gate`, and
`verify`'s chi-square block is `verify.chi2_initialization`'s.
`--jobs` and the `jobs` config key are still accepted and validated for older
invocations; all chains run as one vectorized batch, and the counter-based
stream keys every word on the absolute chain index, so no split could change
a sample. When the process may use a second CPU, a thread draws the Langevin
and encoder noise of large batches ahead of the loop that consumes it
(`rng.normal_blocks`); `--jobs` changes nothing there either, and the samples
are the same bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
from importlib import metadata

import numpy as np

from .compiler import (
    compile_encoder,
    equivalence_deviation,
    equivalence_gate,
    load_encoder,
    manifest,
    run_encoder,
    save_encoder,
)
from .config import RunConfig, load_config
from .errors import LatgaussError, VerificationError
from .experiments import (
    compiled_vs_direct_experiment,
    exit_fraction_experiment,
    exit_gate,
    mixing_trend_experiment,
    posterior_tv_experiment,
    tv_gate,
)
from .invert import gd_invert, make_gd_plan
from .lowerbound import SMALL_BETA_GATE, demo_report
from .models import write_samples_csv
from .nets import as_linear
from .pipeline import build_problem, plan_pipeline, plan_truncated, run_planned_chains
from .potential import check_inverse, diagnostics_report, refine_inverse, region_radius
from .rng import NoiseStream
from .verify import (
    MAX_GRID_DIM,
    MAX_MOMENT_DIM,
    build_grid_oracle,
    chi2_initialization,
    gaussian_moment_test,
    linear_posterior,
)


# -- report plumbing ----------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report_header(cfg: RunConfig, command: str) -> dict:
    try:
        pkg_version = metadata.version("latgauss")
    except metadata.PackageNotFoundError:
        pkg_version = "unknown"
    return {
        "command": command,
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "versions": {"latgauss": pkg_version, "numpy": np.__version__},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _write_report(cfg: RunConfig, name: str, payload: dict) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _problem_from_config(cfg: RunConfig):
    generator = cfg.build_generator()
    return build_problem(
        generator,
        cfg.beta,
        cfg.x,
        epsilon=cfg.epsilon,
        constants=cfg.constants,
        constants_seed=cfg.seed,
        constants_samples=cfg.constants_samples,
    )


def _compile_plan(problem, cfg: RunConfig):
    """The compiled encoder's truncated plan, under the config's caps."""
    return plan_truncated(
        problem,
        cfg.compile_opts["gd_steps"],
        cfg.compile_opts["langevin_steps"],
        gd_max_steps=cfg.max_gd_steps,
        step_cap=cfg.max_langevin_steps,
    )


# -- subcommands --------------------------------------------------------------------


def cmd_invert(cfg: RunConfig) -> int:
    problem = _problem_from_config(cfg)
    gd_plan = make_gd_plan(problem, max_steps=cfg.max_gd_steps)
    trace = gd_invert(problem, gd_plan)
    inverse_info = check_inverse(problem, trace.final, validate=trace.converged)

    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, "descent_trace.csv")
    trace.write_csv(trace_path)

    report = _report_header(cfg, "invert")
    report.update(
        {
            "plan": {
                "eta": gd_plan.eta,
                "steps": gd_plan.steps,
                "Q": gd_plan.Q,
                "delta": gd_plan.delta,
            },
            "converged": bool(trace.converged),
            "steps_run": int(trace.steps_run),
            "final": trace.final.tolist(),
            "final_objective": float(trace.objectives[-1]),
            "inverse": inverse_info,
            "region_radius": float(region_radius(problem)),
            "trace_csv": trace_path,
        }
    )
    path = _write_report(cfg, "invert_report.json", report)
    print(f"invert: converged={trace.converged} steps={trace.steps_run} report={path}")
    return 0 if trace.converged else 1


def cmd_sample(cfg: RunConfig) -> int:
    problem = _problem_from_config(cfg)
    planned = plan_pipeline(problem, cfg.max_gd_steps, cfg.max_langevin_steps)
    result = run_planned_chains(problem, planned, NoiseStream(cfg.seed + 1), cfg.samples)
    finals = result.finals

    os.makedirs(cfg.out_dir, exist_ok=True)
    samples_path = os.path.join(cfg.out_dir, "samples.csv")
    write_samples_csv(
        samples_path,
        finals,
        sidecar={"config_sha256": config_hash(cfg), "seed": cfg.seed},
    )

    exit_block = exit_gate(result.exited, problem.epsilon)
    plan, reg = planned.plan, planned.region
    report = _report_header(cfg, "sample")
    report.update(
        {
            "plan": {
                "gd_steps": planned.gd_plan.steps,
                "langevin_steps": plan.steps,
                "h": plan.h,
                "horizon": plan.horizon,
                "init_radius": plan.init_radius,
                "paper_steps": plan.paper_steps,
                "paper_horizon": plan.paper_horizon,
                "curvature": dataclasses.asdict(plan.curvature),
                "constants_estimated": problem.constants.estimated,
            },
            "region": {
                "radius": reg.radius,
                "admissible": reg.admissible,
                "radius_within_cap": reg.radius_within_cap,
            },
            "samples_csv": samples_path,
            "exit": exit_block,
        }
    )
    if problem.dim <= MAX_GRID_DIM:
        report["tv"] = tv_gate(finals, build_grid_oracle(problem, planned.region), problem.epsilon)
    else:
        report["tv"] = {"skipped": "grid oracle supports dimension 1 and 2 only"}

    path = _write_report(cfg, "sample_report.json", report)
    print(f"sample: n={cfg.samples} exit_fraction={exit_block['exit_fraction']:.4g} report={path}")
    return 0


def cmd_compile(cfg: RunConfig) -> int:
    problem = _problem_from_config(cfg)
    planned = _compile_plan(problem, cfg)
    encoder = compile_encoder(problem, planned.gd_plan, planned.plan)

    # Self-test gates the artifact: no encoder file unless the compiled network
    # reproduces the direct pipeline on shared noise.
    stream_seed = cfg.seed + 2
    draws = 16
    deviation, compiled = equivalence_deviation(
        problem, planned, encoder, NoiseStream(stream_seed), draws=draws
    )
    gate = equivalence_gate(deviation, draws)
    if not gate["pass"]:
        raise VerificationError("compiled encoder disagrees with the direct pipeline", **gate)

    os.makedirs(cfg.out_dir, exist_ok=True)
    encoder_path = os.path.join(cfg.out_dir, "encoder.json")
    save_encoder(encoder, encoder_path)
    reloaded = run_encoder(
        load_encoder(encoder_path),
        problem.x,
        NoiseStream(stream_seed),
        np.arange(draws, dtype=np.uint64),
    )
    round_trip_ok = bool(np.array_equal(reloaded, compiled))

    report = _report_header(cfg, "compile")
    report.update(
        {
            "manifest": manifest(encoder, problem.model.generator),
            "encoder_json": encoder_path,
            "self_test": {**gate, "round_trip_identical": round_trip_ok},
        }
    )
    path = _write_report(cfg, "compile_report.json", report)
    print(
        f"compile: stages={report['manifest']['total_stages']} "
        f"deviation={deviation:.3g} report={path}"
    )
    return 0 if round_trip_ok else 1


_EXPERIMENTS = {
    "exit": lambda problem, planned, cfg: exit_fraction_experiment(
        problem, planned, NoiseStream(cfg.seed + 11), chains=cfg.chains
    ),
    "tv": lambda problem, planned, cfg: posterior_tv_experiment(
        problem, planned, NoiseStream(cfg.seed + 12), samples=cfg.samples
    ),
    "mixing": lambda problem, planned, cfg: mixing_trend_experiment(
        problem, planned, NoiseStream(cfg.seed + 13), chains=cfg.chains
    ),
    "compiled": lambda problem, planned, cfg: compiled_vs_direct_experiment(
        problem, _compile_plan(problem, cfg), NoiseStream(cfg.seed + 15)
    ),
}


def cmd_verify(cfg: RunConfig) -> int:
    # validate experiment names before any heavy work
    for name in cfg.experiments:
        if name not in _EXPERIMENTS:
            raise LatgaussError(
                f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}"
            )
    problem = _problem_from_config(cfg)
    planned = plan_pipeline(problem, cfg.max_gd_steps, cfg.max_langevin_steps)

    report = _report_header(cfg, "verify")
    # the Taylor and Hessian checks expand around an exact stationary point;
    # the descent's residual is only within m * radius / 4, which puts its
    # point within radius / 4 of the inverse, so polish it first.
    # chi2 below keeps the region's center: its subject is the actual chain start.
    zhat = refine_inverse(problem, planned.trace.final)
    diag = diagnostics_report(problem, zhat, points=100, seed=cfg.seed)
    report["diagnostics"] = diag

    if problem.dim == 1:
        report["chi2"] = chi2_initialization(problem, planned.region, planned.plan.init_radius)

    linear = as_linear(problem.model.generator)
    if linear is not None and problem.dim <= MAX_MOMENT_DIM:
        A, b = linear
        mean, cov = linear_posterior(A, b, problem.beta, problem.x)
        # the 10% covariance gate needs the sampling noise sqrt(2/n) well
        # below it; 4000 chains put the gate past three sigma after the
        # O(h) discretization bias
        moment_chains = max(cfg.chains, 4000)
        result = run_planned_chains(problem, planned, NoiseStream(cfg.seed + 1), moment_chains)
        report["moments"] = gaussian_moment_test(result.finals, mean, cov)

    failed = []
    if cfg.experiments:
        report["experiments"] = {}
        for name in cfg.experiments:
            result = _EXPERIMENTS[name](problem, planned, cfg)
            report["experiments"][name] = result
            if not result.get("pass", True):
                failed.append(name)

    ok = (
        diag["pass"]
        and report.get("chi2", {}).get("pass", True)
        and report.get("moments", {}).get("pass", True)
        and not failed
    )
    report["pass"] = bool(ok)
    path = _write_report(cfg, "verify_report.json", report)
    print(f"verify: pass={ok} failed_experiments={failed} report={path}")
    return 0 if ok else 1


def cmd_lowerbound(cfg: RunConfig) -> int:
    report = _report_header(cfg, "lowerbound")
    demo = demo_report(**cfg.lowerbound_opts, seed=cfg.seed)
    if not demo["beta_small_flag"]:
        demo["warning"] = (
            f"beta * sqrt(d) >= {SMALL_BETA_GATE}: smallness condition violated, "
            "results indicative only"
        )
    report["demo"] = demo
    path = _write_report(cfg, "lowerbound_report.json", report)
    print(f"lowerbound: d={demo['d']} beta_small={demo['beta_small_flag']} report={path}")
    return 0


_DISPATCH = {
    "invert": cmd_invert,
    "sample": cmd_sample,
    "compile": cmd_compile,
    "verify": cmd_verify,
    "lowerbound": cmd_lowerbound,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgauss",
        description="Langevin posterior sampling for latent Gaussian models: "
        "inversion, sampling, network compilation, verification, and the "
        "sign-generator demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "invert": "gradient descent inversion of the generator at x",
        "sample": "full pipeline: invert, plan, run chains, emit samples",
        "compile": "compile the pipeline into one feedforward network artifact",
        "verify": "diagnostics, chi-square and moment checks, optional experiments",
        "lowerbound": "sign-generator enumeration and retry study",
    }
    for name in _DISPATCH:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument(
            "--jobs",
            type=_positive_int,
            default=None,
            help="accepted for older invocations; chains run in one batch",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        return _DISPATCH[args.command](cfg)
    except LatgaussError as exc:
        print(json.dumps(exc.as_dict(), indent=2, sort_keys=True, default=_json_default))
        return 1


if __name__ == "__main__":
    sys.exit(main())
