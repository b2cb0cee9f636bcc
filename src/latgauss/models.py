"""Latent Gaussian models: single-stage and deep (stacked) variants.

A LatentGaussian draws z ~ N(0, I_d) and emits x = G(z) + beta*xi. A
DeepLatentGaussian is a Markov chain of stages (network, variance): each stage
applies its network and adds isotropic Gaussian noise of the given variance;
zero-variance stages are deterministic. Stage noise is drawn at counter
(stage = position in the chain, draw = sample index), so the same stream
replays identically and parallel samples never share noise.

Data dumps are CSV with a JSON sidecar recording the seed and counter
conventions, so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import csv
import itertools
import json
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .nets import Network
from .rng import normal_blocks


@dataclass
class LatentGaussian:
    """Generator network plus observation noise scale beta > 0."""

    generator: Network
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        g = self.generator
        if g.input_dim != g.output_dim:
            raise DimensionError(
                f"generator must map d to d, got {g.input_dim} -> {g.output_dim}"
            )
        if not g.smooth:
            raise ValueError("generator must use smooth activations only")

    @property
    def dim(self) -> int:
        return self.generator.input_dim


@dataclass
class DeepLatentGaussian:
    """Stages of (network, variance). Consecutive stage dimensions must chain."""

    stages: list  # of (Network, float)

    def __post_init__(self):
        if not self.stages:
            raise DimensionError("a deep latent Gaussian needs at least one stage")
        norm = []
        for net, var in self.stages:
            var = float(var)
            if var < 0:
                raise ValueError(f"stage variance must be nonnegative, got {var}")
            norm.append((net, var))
        self.stages = norm
        prev = self.stages[0][0].input_dim
        for i, (net, _) in enumerate(self.stages):
            if net.input_dim != prev:
                raise DimensionError(
                    f"stage {i} expects input dim {net.input_dim}, previous emits {prev}"
                )
            prev = net.output_dim

    @property
    def input_dim(self) -> int:
        return self.stages[0][0].input_dim

    @property
    def output_dim(self) -> int:
        return self.stages[-1][0].output_dim

    def size(self) -> int:
        return sum(net.size() for net, _ in self.stages)


def sample_dlg_batch(
    model: DeepLatentGaussian, inputs: np.ndarray, stream, draws=None
) -> np.ndarray:
    """Run the stage chain on each row of `inputs`; stage s noise for row i
    sits at counter (s, draws[i]) (default draws[i] = i).

    Each run of consecutive stages with equal variance and width, such as
    the Langevin stages of a compiled encoder, draws its noise in blocks of
    stages (rng.normal_blocks), bit for bit the per-stage draws
    stream.normal_matrix(s, draws, width).
    """
    states = np.asarray(inputs, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != model.input_dim:
        raise DimensionError(f"expected inputs of shape (n, {model.input_dim})")
    if draws is None:
        draws = np.arange(len(states), dtype=np.uint64)
    first = 0
    runs = itertools.groupby(model.stages, key=lambda stage: (stage[1], stage[0].output_dim))
    for (var, width), run in runs:
        nets = [net for net, _ in run]
        if var == 0.0:
            for net in nets:
                states = net.eval_batch(states)
        else:
            blocks = normal_blocks(stream, first, len(nets), draws, width, scale=np.sqrt(var))
            with closing(blocks):
                for net, row in zip(nets, itertools.chain.from_iterable(blocks)):
                    states = net.eval_batch(states)
                    states += row
        first += len(nets)
    return states


# -- artifact IO ----------------------------------------------------------------


def write_samples_csv(path, samples: np.ndarray, sidecar: dict | None = None):
    """CSV with a z0, z1, ... header and one row per sample, plus a .json
    sidecar describing provenance."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"z{j}" for j in range(samples.shape[1])])
        for row in samples:
            writer.writerow([repr(float(v)) for v in row])
    meta = {"count": int(samples.shape[0]), "dim": int(samples.shape[1])}
    if sidecar:
        meta.update(sidecar)
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
