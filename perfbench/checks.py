"""The benchmark's numpy side: a workload's inputs, and the checks of one
session's outputs.

    python3 checks.py prepare WORKLOAD SEED OUT [--quick]
    python3 checks.py check WORKLOAD SEED OUT SESSION [--quick] [--traced]

``prepare`` writes OUT/config.json and, for the residual workload, the
generator drawn from SEED as OUT/generator.json. ``check`` prints one JSON
object: the problems found per session step (repeated runs of a step
write the same files, so they share the check), the
compiled encoder's ``parameter_count``, and for a traced session the span
totals of its processes (see layers.py).

This runs in its own process so that the process launching the steps stays
small: the peak RSS the kernel reports for a child starts from the
high-water mark of the process that spawned it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import layers
import reference
import workloads


def residual_weights(d: int, seed: int, alpha: float) -> reference.ResidualGenerator:
    """A, B spectrally normalized, so the Jacobian's singular values stay in
    [1 - alpha, 1 + alpha]; hidden width d + 2 as in the builtin."""
    rng = np.random.default_rng(seed)
    h = d + 2
    B = rng.standard_normal((h, d))
    A = rng.standard_normal((d, h))
    B /= np.linalg.svd(B, compute_uv=False)[0]
    A /= np.linalg.svd(A, compute_uv=False)[0]
    c = 0.3 * rng.standard_normal(h)
    return reference.ResidualGenerator(A=A, B=B, c=c, alpha=alpha)


def network_json(G: reference.ResidualGenerator) -> dict:
    """G in latgauss's network file format: [B; I] with tanh on the hidden
    rows, then [alpha A, I]."""
    d, h = G.A.shape
    eye = np.eye(d)
    return {
        "format": "latgauss-network-v1",
        "input_dim": d,
        "layers": [
            {
                "weight": np.vstack([G.B, eye]).tolist(),
                "bias": np.concatenate([G.c, np.zeros(d)]).tolist(),
                "activation": ["tanh"] * h + ["identity"] * d,
            },
            {
                "weight": np.hstack([G.alpha * G.A, eye]).tolist(),
                "bias": [0.0] * d,
                "activation": "identity",
            },
        ],
    }


def prepare(w: workloads.Workload, seed: int, out: str) -> None:
    if w.residual:
        gen_path = os.path.join(out, "generator.json")
        with open(gen_path, "w") as fh:
            json.dump(network_json(residual_weights(w.d, seed, w.alpha)), fh)
        generator = {"path": gen_path}
    else:
        generator = {"builtin": "tanh-residual", "alpha": w.alpha}
    config = {
        "generator": generator,
        "d": w.d,
        "beta": w.beta,
        "epsilon": w.epsilon,
        "x": list(w.x),
        "seed": seed,
        "samples": w.samples,
    }
    with open(workloads.config_path(out), "w") as fh:
        json.dump(config, fh, indent=1)


def marginals(w: workloads.Workload, seed: int) -> list:
    if w.residual:
        G = residual_weights(w.d, seed, w.alpha)
        return reference.residual_marginals(G, w.beta, np.array(w.x), seed)
    return [reference.tanh_residual_marginal(w.alpha, w.beta, xi) for xi in w.x]


# -- output checks ----------------------------------------------------------------


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_samples(path: str, rows: int, dim: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, dim):
        raise ValueError(f"{path}: shape {data.shape}, expected {(rows, dim)}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite samples")
    return data


def _ks_problems(what: str, samples, refs, epsilon: float) -> list:
    return [
        f"{what} z{j}: KS {ks:.4f} > {limit:.4f}"
        for j, ks, limit in reference.ks_check(samples, refs, epsilon)
        if not ks <= limit
    ]


def recount_parameters(encoder_path: str) -> int:
    """Nonzero weights and biases over every stage of encoder.json."""
    doc = _read_json(encoder_path)
    per_net = [
        sum(
            int(np.count_nonzero(layer["weight"])) + int(np.count_nonzero(layer["bias"]))
            for layer in net["layers"]
        )
        for net in doc["networks"]
    ]
    return sum(per_net[row["network"]] for row in doc["stages"])


def check_session(w: workloads.Workload, seed: int, sdir: str) -> dict:
    refs = marginals(w, seed)
    found = {"problems": {}, "encoder_params": 0}
    plan = {}

    def invert_checks():
        report = _read_json(os.path.join(sdir, "invert_report.json"))
        return [] if report["converged"] else ["invert did not converge"]

    def sample_checks():
        report = _read_json(os.path.join(sdir, "sample_report.json"))
        plan.update(report["plan"])
        problems = []
        if not report["exit"]["pass"]:
            problems.append(f"exit fraction {report['exit']['exit_fraction']} over threshold")
        if not report["tv"].get("pass", True):  # d > 2 reports {"skipped": ...}
            problems.append(f"tv {report['tv'].get('tv')} over threshold")
        samples = _read_samples(os.path.join(sdir, "samples.csv"), w.samples, w.d)
        return problems + _ks_problems("samples.csv", samples, refs, w.epsilon)

    def compile_checks():
        report = _read_json(os.path.join(sdir, "compile_report.json"))
        test = report["self_test"]
        problems = []
        if not (test["pass"] and test["round_trip_identical"]):
            problems.append(f"self test failed: {test}")
        params = report["manifest"]["parameter_count"]
        recount = recount_parameters(os.path.join(sdir, "encoder.json"))
        if params != recount:
            problems.append(f"parameter_count {params} != recount {recount}")
        if w.full_plan_encoder:
            stages = [report["manifest"]["gd_stage_count"], report["manifest"]["langevin_stage_count"]]
            if stages != [plan.get("gd_steps"), plan.get("langevin_steps")]:
                problems.append(f"encoder stages {stages} are not the sampled plan {plan}")
        found["encoder_params"] = int(params)
        return problems

    def encode_checks():
        samples = _read_samples(os.path.join(sdir, workloads.ENCODER_SAMPLES), w.encode_draws, w.d)
        if not w.full_plan_encoder:
            return []  # a truncated encoder is not a posterior sampler
        return _ks_problems("encoder samples", samples, refs, w.epsilon)

    def verify_checks():
        report = _read_json(os.path.join(sdir, "verify_report.json"))
        problems = [] if report["pass"] else ["verify report pass is false"]
        if not report["diagnostics"]["admissible"]:
            problems.append("problem is not admissible (beta above beta0)")
        if w.d == 1 and not report.get("chi2", {}).get("pass", False):
            problems.append("chi-square start bound missing or failed")
        return problems

    for step, fn in (("invert", invert_checks), ("sample", sample_checks), ("compile", compile_checks),
                     ("encode", encode_checks), ("verify", verify_checks)):
        try:
            found["problems"][step] = fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found["problems"][step] = [f"unreadable output: {exc!r}"]
    return found


def span_totals(sdir: str) -> dict:
    """Merged span totals, summed import time and unwrapped targets of a
    traced session."""
    totals, import_s, missing = [], 0.0, set()
    for name in sorted(os.listdir(sdir)):
        if not name.endswith(".spans.npz"):
            continue
        with np.load(os.path.join(sdir, name)) as z:
            names = [str(n) for n in z["names"]]
            totals.append(layers.summarize(names, z["sid"], z["parent"], z["code"], z["t0"], z["t1"], z["work"]))
            facts = json.loads(str(z["facts"]))
            import_s += facts["import_s"]
            missing.update(facts["missing"])
    return {"totals": layers.merge(totals), "import_s": import_s, "missing": sorted(missing)}


def main(argv) -> int:
    command, name, seed, out, *rest = argv
    w = workloads.WORKLOADS[name]
    if "--quick" in rest:
        w = workloads.quick(w)
    if command == "prepare":
        prepare(w, int(seed), out)
        return 0
    sdir = rest[0]
    found = check_session(w, int(seed), sdir)
    if "--traced" in rest:
        found.update(span_totals(sdir))
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
