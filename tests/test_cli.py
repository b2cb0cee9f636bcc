import json
import os
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import brentq

from latgauss import cli, invert
from latgauss.compiler import equivalence_gate
from latgauss.experiments import exit_fraction_experiment, posterior_tv_experiment
from latgauss.nets import MapConstants, linear_net, tanh_residual_net
from latgauss.pipeline import build_problem, plan_pipeline, run_planned_chains
from latgauss.rng import NoiseStream

IDENTITY_CONSTANTS = {"m": 1.0, "M": 1.0, "M2": 0.0, "M3": 0.0}
TANH_CONSTANTS = {"m": 1.0, "M": 1.5, "M2": 0.385, "M3": 1.0}


def write_config(tmp_path, name, raw):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_invert_identity_converges(tmp_path):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 2, "beta": 0.1,
         "constants": IDENTITY_CONSTANTS},
    )
    out = tmp_path / "out"
    assert run(["invert", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "invert_report.json")
    assert rep["converged"]
    assert rep["command"] == "invert"
    assert np.allclose(rep["final"], [0.9, 0.9], atol=rep["plan"]["delta"])
    assert (out / "descent_trace.csv").exists()
    assert len(rep["config_sha256"]) == 64


def test_invert_tanh_matches_scalar_root(tmp_path):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "x": [1.2], "constants": TANH_CONSTANTS},
    )
    out = tmp_path / "out"
    assert run(["invert", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "invert_report.json")
    root = brentq(lambda z: z + 0.5 * np.tanh(z) - 1.2, -5, 5)
    assert abs(rep["final"][0] - root) <= rep["plan"]["delta"]


@pytest.mark.parametrize(
    "raw,needle",
    [
        ({"generator": {"builtin": "identity"}, "d": 1}, "beta"),
        ({"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "epsilon": 2}, "epsilon"),
        ({"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "oops": 1}, "oops"),
        # the config file itself is JSON but not a network file
        ({"generator": {"path": "c.json"}, "d": 1, "beta": 0.1}, "generator.path 'c.json'"),
        # network files whose dimensions disagree with d
        ({"generator": {"path": "t2.json"}, "d": 1, "beta": 0.1}, "generator.path 't2.json'"),
        ({"generator": {"path": "lin21.json"}, "d": 2, "beta": 0.1}, "generator.path 'lin21.json'"),
        # the baked-x encoder is gone; the encoder takes x as input
        ({"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "compile": {"amortized": False}},
         "compile.amortized must be true"),
    ],
)
def test_config_errors_emit_json(tmp_path, capsys, monkeypatch, raw, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t2.json").write_text(tanh_residual_net(2, 0.5).to_json())
    (tmp_path / "lin21.json").write_text(linear_net(np.array([[1.0, 0.5]])).to_json())
    cfgp = write_config(tmp_path, "c.json", raw)
    assert run(["invert", "--config", cfgp]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert needle in err["message"]


def test_sample_writes_csv_and_report(tmp_path):
    # epsilon 0.5 keeps the planned chain short; the contract under test is
    # the artifact layout, not the statistical quality
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "epsilon": 0.5,
         "x": [0.3], "constants": IDENTITY_CONSTANTS, "samples": 120},
    )
    out = tmp_path / "out"
    assert run(["sample", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "sample_report.json")
    assert rep["exit"]["chains"] == 120
    assert rep["exit"]["pass"]
    assert rep["tv"]["tv"] <= 1.0
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "z0"
    assert len(rows) == 121


def test_sample_worker_count_does_not_change_output(tmp_path):
    raw = {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "epsilon": 0.5,
           "x": [0.3], "constants": IDENTITY_CONSTANTS, "samples": 64}
    cfgp = write_config(tmp_path, "c.json", raw)
    out1, out4 = tmp_path / "o1", tmp_path / "o4"
    assert run(["sample", "--config", cfgp, "--out", str(out1), "--jobs", "1"]) == 0
    assert run(["sample", "--config", cfgp, "--out", str(out4), "--jobs", "4"]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out4 / "samples.csv").read_bytes()


# 40 chains on stream seed + 1 = 4
SMALL_SAMPLE = {"generator": {"builtin": "tanh-residual", "alpha": 0.5}, "d": 1, "beta": 0.1,
                "epsilon": 0.5, "x": [0.6], "constants": TANH_CONSTANTS, "samples": 40, "seed": 3}


def small_sample_problem():
    return build_problem(
        tanh_residual_net(1, 0.5), 0.1, np.array([0.6]), epsilon=0.5,
        constants=MapConstants(**TANH_CONSTANTS),
    )


def test_sample_writes_direct_pipeline_finals(tmp_path):
    # the CLI plans once and runs chains through run_planned_chains, on
    # stream seed + 1, so its samples are the library's finals bit for bit
    cfgp = write_config(tmp_path, "c.json", SMALL_SAMPLE)
    out = tmp_path / "out"
    assert run(["sample", "--config", cfgp, "--out", str(out), "--jobs", "2"]) == 0
    problem = small_sample_problem()
    want = run_planned_chains(problem, plan_pipeline(problem), NoiseStream(4), 40).finals
    got = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(got, want)


def test_sample_gates_are_the_experiments_gates(tmp_path):
    # sample's exit and tv blocks are the dicts the exit and tv experiments
    # embed, on the same plan and stream
    cfgp = write_config(tmp_path, "c.json", SMALL_SAMPLE)
    out = tmp_path / "out"
    assert run(["sample", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "sample_report.json")
    problem = small_sample_problem()
    planned = plan_pipeline(problem)
    exit_rep = exit_fraction_experiment(problem, planned, NoiseStream(4), chains=40)
    tv_rep = posterior_tv_experiment(problem, planned, NoiseStream(4), samples=40)
    assert rep["exit"] == {k: v for k, v in exit_rep.items() if k != "langevin_steps"}
    assert rep["tv"] == {
        k: v for k, v in tv_rep.items() if k not in ("samples", "exit_fraction", "langevin_steps", "h")
    }
    assert set(rep["exit"]) == {"chains", "exit_fraction", "bound", "slack", "threshold", "pass"}
    assert set(rep["tv"]) == {"tv", "bound", "binning_allowance", "threshold", "pass"}


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_flag_must_be_positive_integer(tmp_path, jobs):
    cfgp = write_config(
        tmp_path, "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "constants": IDENTITY_CONSTANTS},
    )
    with pytest.raises(SystemExit):
        run(["invert", "--config", cfgp, "--out", str(tmp_path / "o"), "--jobs", jobs])


def test_reports_deterministic_modulo_timestamp(tmp_path):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "constants": TANH_CONSTANTS},
    )
    reps = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["invert", "--config", cfgp, "--out", str(out)]) == 0
        rep = read_json(out / "invert_report.json")
        rep.pop("timestamp")
        rep.pop("trace_csv")  # embeds the out dir
        reps.append(rep)
    assert reps[0] == reps[1]


def test_compile_emits_verified_artifact(tmp_path):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "constants": TANH_CONSTANTS,
         "compile": {"gd_steps": 8, "langevin_steps": 30}},
    )
    out = tmp_path / "out"
    assert run(["compile", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "compile_report.json")
    assert rep["manifest"]["total_stages"] == 8 + 30 + 3
    assert rep["self_test"]["pass"]
    assert rep["self_test"]["round_trip_identical"]
    assert rep["self_test"]["max_relative_deviation"] <= 1e-6
    gate = {k: v for k, v in rep["self_test"].items() if k != "round_trip_identical"}
    assert gate == equivalence_gate(rep["self_test"]["max_relative_deviation"], 16)
    assert (out / "encoder.json").exists()


def test_compile_failing_self_test_writes_no_encoder(tmp_path, capsys, monkeypatch):
    def deviating(problem, planned, encoder, stream, draws):
        return 2e-6, np.zeros((draws, problem.dim))

    monkeypatch.setattr(cli, "equivalence_deviation", deviating)
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "constants": TANH_CONSTANTS,
         "compile": {"gd_steps": 8, "langevin_steps": 30}},
    )
    out = tmp_path / "out"
    assert run(["compile", "--config", cfgp, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "VerificationError"
    assert err["max_relative_deviation"] == 2e-6
    assert err["tolerance"] == 1e-6
    assert not (out / "encoder.json").exists()


def test_compile_rejects_plan_over_cap(tmp_path, capsys):
    # the cap is checked against the FULL plan the problem calls for (119
    # steps on the curvature horizon), so a cap between the compiled count
    # and the plan yields a PlanTooLarge with an epsilon suggestion
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1,
         "constants": IDENTITY_CONSTANTS,
         "caps": {"max_langevin_steps": 100},
         "compile": {"gd_steps": 5, "langevin_steps": 50}},
    )
    assert run(["compile", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "PlanTooLarge"
    assert 0 < err["suggested_epsilon"] <= 0.9


def test_verify_passes_on_smooth_problem(tmp_path):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "constants": TANH_CONSTANTS},
    )
    out = tmp_path / "out"
    assert run(["verify", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "verify_report.json")
    assert rep["pass"]
    assert rep["diagnostics"]["pass"]
    assert rep["chi2"]["pass"]
    assert "moments" not in rep  # nonlinear generator has no Gaussian oracle
    assert rep["diagnostics"]["constants"]["estimated"] is False  # the config supplies them


def count_descents(monkeypatch):
    """Count gd_invert calls through every latgauss module that binds it."""
    calls = []
    original = invert.gd_invert

    def counted(*args, **kwargs):
        calls.append(args[1].steps)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("latgauss") and getattr(module, "gd_invert", None) is original:
            monkeypatch.setattr(module, "gd_invert", counted)
    return calls


def test_verify_grid_experiments_run_at_dimension_two(tmp_path):
    # the grid oracle covers d = 2, so verify's tv and mixing experiments
    # run there as sample's TV block does
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 2, "beta": 0.1,
         "constants": IDENTITY_CONSTANTS, "chains": 2000, "samples": 2000,
         "experiments": ["tv", "mixing"]},
    )
    out = tmp_path / "out"
    assert run(["verify", "--config", cfgp, "--out", str(out)]) == 0
    experiments = read_json(out / "verify_report.json")["experiments"]
    assert sorted(experiments) == ["mixing", "tv"]
    assert experiments["tv"]["pass"] and experiments["mixing"]["pass"]
    assert experiments["mixing"]["envelope"][-1] <= 0.1 / 4  # the default epsilon's share


# planned descent of 99 steps; the descent converges in under 10
SMALL_VERIFY = {"generator": {"builtin": "tanh-residual", "alpha": 0.5}, "d": 1, "beta": 0.1,
                "epsilon": 0.5, "x": [1.5], "constants": TANH_CONSTANTS, "chains": 100,
                "samples": 200, "compile": {"gd_steps": 4, "langevin_steps": 10}}


def test_commands_plan_once(tmp_path, monkeypatch):
    # verify: one descent for the command's plan, one for the compiled
    # experiment's truncated plan; compile: one for its truncated plan
    raw = dict(SMALL_VERIFY, experiments=["exit", "tv", "mixing", "compiled"])
    cfgp = write_config(tmp_path, "c.json", raw)
    calls = count_descents(monkeypatch)
    run(["verify", "--config", cfgp, "--out", str(tmp_path / "v")])
    assert len(read_json(tmp_path / "v" / "verify_report.json")["experiments"]) == 4
    assert calls == [99, 4]
    calls.clear()
    assert run(["compile", "--config", cfgp, "--out", str(tmp_path / "c")]) == 0
    assert calls == [4]


def test_verify_experiments_run_on_the_capped_plan(tmp_path, monkeypatch):
    # a descent cap below the planned 99 steps still converges, and the
    # experiments run on the command's capped plan
    raw = dict(SMALL_VERIFY, experiments=["exit"], caps={"max_gd_steps": 20})
    cfgp = write_config(tmp_path, "c.json", raw)
    seen = []
    original = cli.exit_fraction_experiment

    def spy(problem, planned, stream, chains):
        seen.append(planned.gd_plan.steps)
        return original(problem, planned, stream, chains)

    monkeypatch.setattr(cli, "exit_fraction_experiment", spy)
    run(["verify", "--config", cfgp, "--out", str(tmp_path / "v")])
    assert seen == [20]


@pytest.mark.parametrize("name", ["nope", "cir"])
def test_verify_rejects_unknown_experiment(tmp_path, capsys, monkeypatch, name):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1,
         "constants": TANH_CONSTANTS, "experiments": [name]},
    )
    calls = count_descents(monkeypatch)
    assert run(["verify", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "LatgaussError"
    assert repr(name) in err["message"]
    # the valid choices are listed, and the name was refused before any descent
    assert err["message"].endswith("['compiled', 'exit', 'mixing', 'tv']")
    assert calls == []


def test_lowerbound_report_and_cap(tmp_path, capsys):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1,
         "lowerbound": {"d": 6, "beta": 0.03, "trials": 60, "closeness_samples": 3000}},
    )
    out = tmp_path / "out"
    assert run(["lowerbound", "--config", cfgp, "--out", str(out)]) == 0
    rep = read_json(out / "lowerbound_report.json")
    assert rep["demo"]["d"] == 6
    assert rep["demo"]["beta_small_flag"]
    assert "warning" not in rep["demo"]

    capped = write_config(
        tmp_path,
        "cap.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1,
         "lowerbound": {"d": 20}},
    )
    assert run(["lowerbound", "--config", capped, "--out", str(out)]) == 1
    tail = capsys.readouterr().out.strip().splitlines()
    err = json.loads("\n".join(tail[tail.index("{"):]))
    assert err["error"] == "EnumerationCap"


def test_lowerbound_values_are_config_errors(tmp_path, capsys):
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1, "lowerbound": {"trials": 0}},
    )
    assert run(["lowerbound", "--config", cfgp, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert "lowerbound.trials" in err["message"]


def test_sample_leaves_no_noise_worker(tmp_path, monkeypatch):
    # 1024 chains at d = 1 make noise blocks of 64 stages, and the plan's
    # 119 steps span two of them, so that on two CPUs a worker draws them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    drawn_on = set()
    normal_stages = NoiseStream.normal_stages

    def spy(self, *args):
        drawn_on.add(threading.current_thread().name)
        return normal_stages(self, *args)

    monkeypatch.setattr(NoiseStream, "normal_stages", spy)
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "tanh-residual"}, "d": 1, "beta": 0.1, "epsilon": 0.5,
         "x": [0.3], "constants": TANH_CONSTANTS, "samples": 1024},
    )
    assert run(["sample", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    assert read_json(tmp_path / "out" / "sample_report.json")["plan"]["langevin_steps"] == 119
    assert any(name.startswith("latgauss-noise") for name in drawn_on)
    assert not [t for t in threading.enumerate() if t.name.startswith("latgauss-noise")]


def test_seed_override_changes_hash_context(tmp_path):
    # the report seed reflects the override while the config hash stays tied
    # to the file contents
    cfgp = write_config(
        tmp_path,
        "c.json",
        {"generator": {"builtin": "identity"}, "d": 1, "beta": 0.1,
         "constants": IDENTITY_CONSTANTS, "seed": 1},
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["invert", "--config", cfgp, "--out", str(out1)]) == 0
    assert run(["invert", "--config", cfgp, "--seed", "7", "--out", str(out2)]) == 0
    r1 = read_json(out1 / "invert_report.json")
    r2 = read_json(out2 / "invert_report.json")
    assert r1["seed"] == 1 and r2["seed"] == 7
    assert r1["config_sha256"] == r2["config_sha256"]
