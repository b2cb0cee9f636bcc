"""Run configuration: a strict JSON schema shared by every CLI subcommand.

Unknown keys are rejected at every nesting level with the offending field
named, so a typo cannot silently fall back to a default; each builtin
generator accepts only its own parameters. An int below is a JSON integer
and never a boolean; a float is any finite JSON number (not a boolean, NaN
or an infinity). A generator file that cannot be read or parsed as a smooth
network from R^d to R^d is a ConfigError naming the path. All randomness is
seeded from the config; nothing reads entropy implicitly.

Schema (JSON object):

    generator: {
        builtin: "identity" | "scale" | "tanh-residual" | "random-residual",
        # builtin parameters:
        scale: float (scale),                  # default 2.0
        alpha: float (tanh-residual, random-residual),  # default 0.5
        seed:  int   (random-residual),        # default 0
    } | { path: "<serialized network json>" }
    d: int >= 1
    beta: float > 0
    epsilon: float in (0, 1)           # default 0.1
    x: [float, ...]                    # default: 0.9 in every coordinate
    seed: int                          # default 0
    constants: { m, M, M2, M3: floats } # optional override; else estimated
    constants_samples: int             # default 4096
    caps: { max_gd_steps: int, max_langevin_steps: int }  # defaults 1e6 / 1e7
    compile: { gd_steps: int, langevin_steps: int, amortized: bool }  # defaults 10 / 50 / true
    chains: int                        # default 1000 (verify's exit and mixing experiments;
                                       # the moment test runs at least 4000)
    samples: int                       # default 10000 (chains the sample command runs,
                                       # and verify's tv experiment)
    jobs: int                          # accepted for older configs; chains run in one batch
    out_dir: str                       # default "out"
    experiments: [str, ...]            # verify command extras, default none
    lowerbound: { d, beta, rotation, mask, trials, closeness_samples }  # optional, each >= 0
                                       # and d, trials, closeness_samples >= 1
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .invert import GD_STEP_CAP_DEFAULT
from .nets import (
    MapConstants,
    Network,
    identity_net,
    random_residual_tanh_net,
    scale_net,
    tanh_residual_net,
)
from .sampler import STEP_CAP_DEFAULT

# the parameter keys each builtin generator accepts
_BUILTIN_PARAMS = {
    "identity": (),
    "scale": ("scale",),
    "tanh-residual": ("alpha",),
    "random-residual": ("alpha", "seed"),
}


def _require(cond: bool, message: str, **payload):
    if not cond:
        raise ConfigError(message, **payload)


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number; booleans, NaN and infinities are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown field(s) in {where}: {sorted(unknown)}")


@dataclass
class RunConfig:
    generator_spec: dict
    d: int
    beta: float
    epsilon: float
    x: np.ndarray
    seed: int
    constants: MapConstants | None
    constants_samples: int
    max_gd_steps: int
    max_langevin_steps: int
    compile_opts: dict
    chains: int
    samples: int
    out_dir: str
    experiments: list
    lowerbound_opts: dict
    raw: dict = field(repr=False)

    def build_generator(self) -> Network:
        spec = self.generator_spec
        if "path" in spec:
            path = spec["path"]
            try:
                with open(path) as fh:
                    net = Network.from_json(fh.read())
            except (OSError, ValueError, KeyError, TypeError, AttributeError, DimensionError) as exc:
                raise ConfigError(
                    f"generator.path {path!r} is not a readable network file: {exc}", path=path
                ) from exc
            _require(
                net.smooth,
                f"generator.path {path!r} holds a network with sign activations; "
                "a generator must use smooth activations only",
                path=path,
            )
            _require(
                net.input_dim == net.output_dim == self.d,
                f"generator.path {path!r} holds a network mapping {net.input_dim} -> "
                f"{net.output_dim}; the config's d is {self.d}",
                path=path,
                d=self.d,
                input_dim=net.input_dim,
                output_dim=net.output_dim,
            )
            return net
        name = spec["builtin"]
        if name == "identity":
            return identity_net(self.d)
        if name == "scale":
            return scale_net(self.d, spec.get("scale", 2.0))
        if name == "tanh-residual":
            return tanh_residual_net(self.d, spec.get("alpha", 0.5))
        if name == "random-residual":
            return random_residual_tanh_net(
                self.d, seed=spec.get("seed", 0), alpha=spec.get("alpha", 0.5)
            )
        raise ConfigError(f"unknown builtin generator {name!r}")


def load_config(
    path: str, seed_override: int | None = None, out_override: str | None = None
) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw, seed_override, out_override)


def parse_config(
    raw: dict,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _check_keys(
        raw,
        {
            "generator",
            "d",
            "beta",
            "epsilon",
            "x",
            "seed",
            "constants",
            "constants_samples",
            "caps",
            "compile",
            "chains",
            "samples",
            "jobs",
            "out_dir",
            "experiments",
            "lowerbound",
        },
        "config",
    )

    _require("generator" in raw, "missing required field: generator")
    gen = raw["generator"]
    _require(isinstance(gen, dict), "generator must be an object")
    if "path" in gen:
        _check_keys(gen, {"path"}, "generator")
        _require(isinstance(gen["path"], str), "generator.path must be a string")
    else:
        _require("builtin" in gen, "generator needs either builtin or path")
        name = gen["builtin"]
        _require(
            isinstance(name, str) and name in _BUILTIN_PARAMS,
            f"generator.builtin must be one of {tuple(_BUILTIN_PARAMS)}",
        )
        _check_keys(gen, {"builtin", *_BUILTIN_PARAMS[name]}, f"generator (builtin {name!r})")
        for k in ("scale", "alpha"):
            if k in gen:
                _require(_is_number(gen[k]), f"generator.{k} must be a finite number")
        if "seed" in gen:
            _require(_is_int(gen["seed"]), "generator.seed must be an integer")

    _require("d" in raw, "missing required field: d")
    d = raw["d"]
    _require(_is_int(d) and d >= 1, "d must be a positive integer")

    _require("beta" in raw, "missing required field: beta")
    beta = raw["beta"]
    _require(_is_number(beta) and beta > 0, "beta must be a finite number > 0")

    epsilon = raw.get("epsilon", 0.1)
    _require(
        _is_number(epsilon) and 0 < epsilon < 1,
        "epsilon must lie in (0, 1)",
    )

    x = raw.get("x", [0.9] * d)
    _require(
        isinstance(x, list) and len(x) == d and all(_is_number(v) for v in x),
        f"x must be a list of {d} finite numbers",
    )

    seed = raw.get("seed", 0)
    _require(_is_int(seed), "seed must be an integer")
    if seed_override is not None:
        seed = seed_override

    constants = None
    if "constants" in raw:
        c = raw["constants"]
        _require(isinstance(c, dict), "constants must be an object")
        _check_keys(c, {"m", "M", "M2", "M3"}, "constants")
        for k in ("m", "M", "M2", "M3"):
            _require(k in c and _is_number(c[k]), f"constants.{k} must be a finite number")
        constants = MapConstants(m=c["m"], M=c["M"], M2=c["M2"], M3=c["M3"])

    constants_samples = raw.get("constants_samples", 4096)
    _require(
        _is_int(constants_samples) and constants_samples >= 16,
        "constants_samples must be an integer >= 16",
    )

    caps = raw.get("caps", {})
    _require(isinstance(caps, dict), "caps must be an object")
    _check_keys(caps, {"max_gd_steps", "max_langevin_steps"}, "caps")
    max_gd = caps.get("max_gd_steps", GD_STEP_CAP_DEFAULT)
    max_lan = caps.get("max_langevin_steps", STEP_CAP_DEFAULT)
    _require(_is_int(max_gd) and max_gd > 0, "caps.max_gd_steps must be positive")
    _require(_is_int(max_lan) and max_lan > 0, "caps.max_langevin_steps must be positive")

    compile_opts = raw.get("compile", {})
    _require(isinstance(compile_opts, dict), "compile must be an object")
    _check_keys(compile_opts, {"gd_steps", "langevin_steps", "amortized"}, "compile")
    for k in ("gd_steps", "langevin_steps"):
        if k in compile_opts:
            _require(
                _is_int(compile_opts[k]) and compile_opts[k] >= 0,
                f"compile.{k} must be a nonnegative integer",
            )
    if "amortized" in compile_opts:
        _require(isinstance(compile_opts["amortized"], bool), "compile.amortized must be a bool")
    compile_opts = {"gd_steps": 10, "langevin_steps": 50, "amortized": True, **compile_opts}

    chains = raw.get("chains", 1000)
    _require(_is_int(chains) and chains >= 1, "chains must be a positive integer")
    samples = raw.get("samples", 10_000)
    _require(_is_int(samples) and samples >= 1, "samples must be a positive integer")

    jobs = raw.get("jobs", 1)
    _require(_is_int(jobs) and jobs >= 1, "jobs must be a positive integer")

    out_dir = raw.get("out_dir", "out")
    _require(isinstance(out_dir, str) and out_dir, "out_dir must be a nonempty string")
    if out_override is not None:
        out_dir = out_override

    experiments = raw.get("experiments", [])
    _require(
        isinstance(experiments, list) and all(isinstance(e, str) for e in experiments),
        "experiments must be a list of strings",
    )

    lb = raw.get("lowerbound", {})
    _require(isinstance(lb, dict), "lowerbound must be an object")
    _check_keys(
        lb, {"d", "beta", "rotation", "mask", "trials", "closeness_samples"}, "lowerbound"
    )
    for k, v in lb.items():  # d, trials and closeness_samples are counts
        low = 1 if k in ("d", "trials", "closeness_samples") else 0
        kind, valid = ("finite number", _is_number) if k == "beta" else ("integer", _is_int)
        _require(valid(v) and v >= low, f"lowerbound.{k} must be a {kind} >= {low}")

    return RunConfig(
        generator_spec=gen,
        d=d,
        beta=float(beta),
        epsilon=float(epsilon),
        x=np.asarray(x, dtype=np.float64),
        seed=seed,
        constants=constants,
        constants_samples=constants_samples,
        max_gd_steps=max_gd,
        max_langevin_steps=max_lan,
        compile_opts=compile_opts,
        chains=chains,
        samples=samples,
        out_dir=out_dir,
        experiments=experiments,
        lowerbound_opts=lb,
        raw=raw,
    )
