"""Tests of the benchmark harness itself, on its reduced-size mode.

    python3 -m pytest perfbench

Each workload runs its whole session and every check with ``--quick``
(about a minute in all); one workload also runs traced. The reference
checks are tested on samples that must pass and samples that must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    import run

    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_session_passes_every_check(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 5  # one invert, sample, compile, encode, verify
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_quick_traced_session_reports_every_layer():
    proc = run_bench("--workload", "encoder-d2", "--seed", "5", "--seconds", "1", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert "targets not found" not in proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in ("nets.eval_rows", "compiler.equivalence_s", "models.dlg_stage_rows",
                 "sampler.chain_steps", "rng.words", "verify.oracle_points"):
        assert metrics[name]["value"] > 0, name


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = run_bench("--workload", "readme-d1", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ks_check_accepts_exact_and_rejects_shifted_samples():
    marginal = reference.tanh_residual_marginal(0.5, 0.1, 0.9)
    u = np.random.default_rng(0).uniform(size=2000)
    exact = np.interp(u, marginal.cdf, marginal.points)[:, None]
    (_, ks, limit), = reference.ks_check(exact, [marginal], 0.1)
    assert ks < 0.05 < limit
    (_, ks, limit), = reference.ks_check(exact + 0.2, [marginal], 0.1)
    assert ks > limit


def test_importance_sampling_matches_quadrature_on_a_diagonal_generator():
    # with A = B = I and c = 0 the residual generator is tanh-residual, so the
    # two independent references must agree
    G = reference.ResidualGenerator(A=np.eye(2), B=np.eye(2), c=np.zeros(2), alpha=0.5)
    weighted = reference.residual_marginals(G, 0.1, np.array([0.9, 0.9]), seed=1)
    exact = reference.tanh_residual_marginal(0.5, 0.1, 0.9)
    t = np.linspace(0.3, 0.9, 61)
    assert np.max(np.abs(weighted[0](t) - exact(t))) < 0.01
