"""The session's encode step: load a compiled encoder and draw samples.

    python3 encode.py --encoder encoder.json --x 0.5,0.5 --draws 500 \
        --seed 7 --out encoder_samples.csv

This is what a user does with the artifact ``latgauss compile`` writes:
``load_encoder`` reads it and ``run_encoder`` pushes ball noise and Gaussian
stage noise from one counter stream through every stage. Draw i uses counter
index i, so the same seed gives the same samples.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from latgauss.compiler import load_encoder, run_encoder
from latgauss.rng import NoiseStream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--encoder", required=True)
    parser.add_argument("--x", required=True, help="observation, comma separated")
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    encoder = load_encoder(args.encoder)
    x = np.array([float(v) for v in args.x.split(",")])
    draws = np.arange(args.draws, dtype=np.uint64)
    samples = run_encoder(encoder, x, NoiseStream(args.seed), draws)
    header = ",".join(f"z{j}" for j in range(samples.shape[1]))
    np.savetxt(args.out, samples, delimiter=",", header=header, comments="", fmt="%.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main())
