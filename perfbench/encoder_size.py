#!/usr/bin/env python3
"""Compiled-encoder size against latent dimension.

    python3 perfbench/encoder_size.py

Runs ``latgauss compile`` on the tanh-residual generator (alpha 0.5,
beta 0.1, epsilon 0.1, x 0.9 per coordinate) for d = 1..4 with the encoder
truncated to S=50 descent and K=200 Langevin stages, and prints
``parameter_count`` from each compile report: the paper's measure of how
much larger the encoder is than the generator. Outputs go to
perfbench/runs/encoder-size/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from checks import recount_parameters
from run import HERE, RUNS, child_env


def main() -> int:
    out = RUNS / "encoder-size"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print("d  parameter_count  generator_params")
    for d in range(1, 5):
        sdir = out / f"d{d}"
        sdir.mkdir()
        config = {
            "generator": {"builtin": "tanh-residual", "alpha": 0.5},
            "d": d,
            "beta": 0.1,
            "epsilon": 0.1,
            "x": [0.9] * d,
            "seed": 0,
            "compile": {"gd_steps": 50, "langevin_steps": 200, "amortized": True},
        }
        path = sdir / "config.json"
        path.write_text(json.dumps(config))
        argv = [sys.executable, "-m", "latgauss.cli", "compile", "--config", str(path), "--out", str(sdir)]
        subprocess.run(argv, check=True, env=child_env(), cwd=HERE.parent, stdout=subprocess.DEVNULL)
        with open(sdir / "compile_report.json") as fh:
            count = json.load(fh)["manifest"]["parameter_count"]
        if count != recount_parameters(os.path.join(sdir, "encoder.json")):
            raise SystemExit(f"d={d}: parameter_count disagrees with encoder.json")
        # z + alpha tanh(z) as a network: [I; I] and [alpha I, I], no biases
        print(f"{d}  {count:15d}  {4 * d:16d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
