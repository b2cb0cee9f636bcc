"""The benchmark's workloads.

The seed sets the config's ``seed`` (the CLI's noise streams and its
constant estimation), the encode step's stream (seed + 3), and for
``residual-d4-jobs2`` the generator's weights (``checks.prepare``). The
program receives only the files the benchmark writes. See README.md for why
each workload exists. Stdlib only: the process that launches the steps
imports this.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    beta: float
    epsilon: float
    x: tuple
    samples: int  # chains run by `latgauss sample`
    jobs: int
    encode_draws: int
    alpha: float
    residual: bool  # random residual generator drawn from the seed, else tanh-residual
    full_plan_encoder: bool  # compile the whole planned chain, not the default truncation
    # verify with the tanh-residual's exact constants instead of sampled ones:
    # with sampled M2/M3, verify's Taylor check fails at d=1 on some seeds
    verify_exact_constants: bool = False
    # (step, runs per session): a single run of a step scatters with the
    # machine's speed, so each step that fits runs several times and its
    # metric is the median. Other steps run once.
    repeats: tuple = (("invert", 3), ("compile", 3), ("encode", 3), ("verify", 3))

    def runs(self, step: str) -> int:
        return dict(self.repeats).get(step, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-d1",
            d=1,
            beta=0.1,
            epsilon=0.1,
            x=(0.9,),
            samples=500,
            jobs=1,
            encode_draws=20000,
            alpha=0.5,
            residual=False,
            full_plan_encoder=False,
            verify_exact_constants=True,
            repeats=(("invert", 5), ("compile", 5), ("encode", 5), ("verify", 7)),
        ),
        Workload(
            name="residual-d4-jobs2",
            d=4,
            beta=0.05,
            epsilon=0.6,
            x=(0.9, 0.9, 0.9, 0.9),
            samples=100,
            jobs=2,
            encode_draws=1000,
            alpha=0.2,
            residual=True,
            full_plan_encoder=False,
            repeats=(("invert", 4), ("sample", 3), ("compile", 4), ("encode", 4), ("verify", 4)),
        ),
        Workload(
            name="encoder-d2",
            d=2,
            beta=0.1,
            epsilon=0.6,
            x=(0.5, 0.5),
            samples=200,
            jobs=1,
            encode_draws=250,
            alpha=0.5,
            residual=False,
            full_plan_encoder=True,
            repeats=(("invert", 3), ("sample", 3), ("compile", 3), ("encode", 3), ("verify", 3)),
        ),
    )
}


def quick(w: Workload) -> Workload:
    """Reduced size: the same session and checks on a plan a few times
    shorter (the step count falls like log(1/eps)/eps)."""
    return dataclasses.replace(
        w,
        epsilon=0.7,
        samples=min(w.samples, 100),
        encode_draws=min(w.encode_draws, 100),
        repeats=(),
    )


STEPS = ("invert", "sample", "compile", "encode", "verify")
ENCODER_SAMPLES = "encoder_samples.csv"


def config_path(out: str) -> str:
    return os.path.join(out, "config.json")


def _variant(base_path: str, path: str, **fields) -> str:
    with open(base_path) as fh:
        config = json.load(fh)
    config.update(fields)
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)
    return path


def compile_config(base_path: str, out: str, gd_steps: int, langevin_steps: int) -> str:
    """The run config with the encoder compiled for the whole planned chain."""
    compile_opts = {"gd_steps": gd_steps, "langevin_steps": langevin_steps, "amortized": True}
    return _variant(base_path, os.path.join(out, "compile_config.json"), compile=compile_opts)


def verify_config(w: Workload, base_path: str, out: str) -> str:
    """The run config for `latgauss verify`, with exact constants where the
    workload asks for them: z + alpha tanh(z) has G' in [1, 1 + alpha],
    |G''| <= alpha 4/(3 sqrt 3) < 0.77 alpha and |G'''| <= 2 alpha."""
    if not w.verify_exact_constants:
        return base_path
    a = w.alpha
    constants = {"m": 1.0, "M": 1.0 + a, "M2": 0.77 * a, "M3": 2.0 * a}
    return _variant(base_path, os.path.join(out, "verify_config.json"), constants=constants)
