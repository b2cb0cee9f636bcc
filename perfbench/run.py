#!/usr/bin/env python3
"""Session benchmark for latgauss.

    python3 perfbench/run.py --workload readme-d1 --seed 1 --seconds 30 --trace 0

A session is what a user runs, each step in its own process:
``latgauss invert`` (repeated; it is the set-up every other command repeats),
``latgauss sample``, ``latgauss compile``, the encode step (``encode.py``:
``load_encoder`` + ``run_encoder`` on the compiled artifact) and
``latgauss verify``. A session repeats its steps in rounds (workloads.py
says how many times each) and skips the rounds that would end past
``--seconds``; a run repeats whole sessions, stops before one would end past
``--seconds``, and always runs at least one round. After each session,
``checks.py`` checks every step's outputs against references computed apart
from the program. A step fails on a nonzero exit or a failed check.

``--trace 0`` reports the end-to-end metrics (medians over the run's
sessions). ``--trace 1`` runs each session twice, untraced and then through
``trace_launch.py``, and reports the per-layer metrics of ``layers.py``,
including the tracing overhead (traced minus untraced session wall time).
``--quick`` runs every step and check on a reduced-size plan.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. This process imports
only the standard library; see checks.py for why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
RUN_LIMIT_S = 170.0  # a run ends within 180 s; a step still running then is killed
# One BLAS thread per process: with --jobs 2 on two cores, at most two threads compute.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("sample_s", "s"),
    ("compile_s", "s"),
    ("encode_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("encoder_params", "count"),
)


@dataclass
class Step:
    label: str  # step and run index: invert-0, sample-0, ...
    wall: float
    cpu: float
    rss_mb: float
    code: int
    log: str
    problems: list = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.label.split("-")[0]

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Session:
    steps: list
    encoder_params: int = 0
    span_totals: dict = field(default_factory=dict)
    import_s: float = 0.0

    def walls(self, kind: str) -> list:
        return [s.wall for s in self.steps if s.kind == kind]

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(label: str, argv: list, log: str, deadline: float) -> Step:
    """Run one step to completion; wall time from spawn to reap, CPU time and
    peak RSS from the child's own rusage."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(
        label=label,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        log=log,
    )


def run_checks(argv: list) -> str:
    """Run checks.py (the numpy side) and return its standard output."""
    proc = subprocess.run([sys.executable, str(HERE / "checks.py")] + argv, env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"checks.py {argv[0]} failed:\n{proc.stderr}")
    return proc.stdout


def run_session(w, args, out: str, sdir: str, traced: bool, deadline: float, budget_end: float) -> Session:
    """All steps of one session, then checks.py on their outputs."""
    os.makedirs(sdir)
    session = Session(steps=[])
    config = workloads.config_path(out)
    exe = sys.executable
    last_wall = {}  # step -> wall time of its latest run

    def launch(step, argv, kind, r):
        if r >= (1 if args.trace else w.runs(step)):  # traced runs compare single steps
            return
        label = f"{step}-{r}"
        if traced:
            full = [exe, str(HERE / "trace_launch.py"), os.path.join(sdir, f"{label}.spans.npz"), kind]
        elif kind == "cli":
            full = [exe, "-m", "latgauss.cli"]
        else:
            full = [exe, str(HERE / "encode.py")]
        session.steps.append(run_process(label, full + argv, os.path.join(sdir, f"{label}.log"), deadline))
        last_wall[step] = session.steps[-1].wall

    def cli(command, config, r):
        launch(command, [command, "--config", config, "--out", sdir, "--jobs", str(w.jobs)], "cli", r)

    # Repeated steps run in rounds, so that their runs are spread over the
    # session rather than back to back in one stretch of machine load.
    compile_config = config
    for r in range(max(w.runs(step) for step in workloads.STEPS)):
        expected = sum(last_wall.get(step, 0.0) for step in workloads.STEPS if w.runs(step) > r)
        if r and time.perf_counter() + expected > budget_end:
            break  # on a slow stretch, fewer runs per step keep the run within --seconds
        cli("invert", config, r)
        cli("sample", config, r)
        if w.full_plan_encoder and r == 0:
            try:
                with open(os.path.join(sdir, "sample_report.json")) as fh:
                    plan = json.load(fh)["plan"]
                compile_config = workloads.compile_config(config, sdir, plan["gd_steps"], plan["langevin_steps"])
            except (OSError, ValueError, KeyError):
                pass  # sample failed: compile runs the default plan and its check fails
        cli("compile", compile_config, r)
        launch(
            "encode",
            [
                "--encoder", os.path.join(sdir, "encoder.json"),
                "--x", ",".join(repr(float(v)) for v in w.x),
                "--draws", str(w.encode_draws),
                "--seed", str(args.seed + 3),
                "--out", os.path.join(sdir, workloads.ENCODER_SAMPLES),
            ],
            "encode",
            r,
        )
        cli("verify", workloads.verify_config(w, config, sdir), r)

    found = json.loads(run_checks(
        ["check", args.workload, str(args.seed), out, sdir]
        + (["--quick"] if args.quick else []) + (["--traced"] if traced else [])
    ))
    for step in session.steps:
        if step.code == 0:  # a step that exited nonzero has failed already
            step.problems = found["problems"].get(step.kind, ["not checked"])
    session.encoder_params = found["encoder_params"]
    session.span_totals = found.get("totals", {})
    session.import_s = found.get("import_s", 0.0)
    if found.get("missing"):
        print(f"trace: targets not found, their metrics read 0: {found['missing']}", file=sys.stderr)
    return session


def end_to_end(sessions: list) -> dict:
    med = statistics.median
    values = {
        "setup_s": med([t for s in sessions for t in s.walls("invert")]),
        "sample_s": med([t for s in sessions for t in s.walls("sample")]),
        "compile_s": med([t for s in sessions for t in s.walls("compile")]),
        "encode_s": med([t for s in sessions for t in s.walls("encode")]),
        "verify_s": med([t for s in sessions for t in s.walls("verify")]),
        "peak_rss_mb": med([max(step.rss_mb for step in s.steps) for s in sessions]),
        "encoder_params": med([s.encoder_params for s in sessions]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(pairs: list) -> dict:
    rows = [
        layers.layer_metrics(
            traced.span_totals,
            import_s=traced.import_s,
            cpu_s=sum(step.cpu for step in plain.steps),
            overhead_s=traced.wall - plain.wall,
        )
        for plain, traced in pairs
    ]
    med = statistics.median
    return {name: {"value": med([r[name] for r in rows]), "unit": unit} for name, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latgauss session benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced-size plans, same steps and checks")
    args = parser.parse_args(argv)

    if not (SRC / "latgauss" / "cli.py").is_file():
        print(f"run.py: no latgauss sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.quick:
        w = workloads.quick(w)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # kills the running step
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    budget_end = start + args.seconds
    out = RUNS / (w.name + ("-quick" if args.quick else ""))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run_checks(["prepare", args.workload, str(args.seed), str(out)] + (["--quick"] if args.quick else []))

    sessions = []  # untraced sessions, or (untraced, traced) pairs
    while True:
        began = time.perf_counter()
        sdir = str(out / f"session-{len(sessions)}")
        plain = run_session(w, args, str(out), sdir, traced=False, deadline=deadline, budget_end=budget_end)
        if args.trace:
            traced = run_session(w, args, str(out), sdir + "-traced", traced=True, deadline=deadline,
                                 budget_end=budget_end)
            sessions.append((plain, traced))
        else:
            sessions.append(plain)
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > args.seconds:
            break

    flat = [s for item in sessions for s in (item if args.trace else (item,))]
    steps = [step for s in flat for step in s.steps]
    failed = [step for step in steps if step.failed]
    for step in failed:
        print(f"FAILED {step.label} (exit {step.code}) {step.problems} log: {step.log}", file=sys.stderr)

    print(f"workload {w.name} seed {args.seed}: {len(sessions)} session(s), "
          f"{len(steps)} steps attempted, {len(failed)} failed")
    for i, s in enumerate(flat):
        print(f"  session {i}: " + ", ".join(
            f"{step.label} {step.wall:.2f} s wall {step.cpu:.2f} s cpu {step.rss_mb:.0f} MB" for step in s.steps))
    if args.trace:
        metrics = per_layer(sessions)
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.3f} s per session "
              f"(untraced {statistics.median(p.wall for p, _ in sessions):.3f} s)")
    else:
        metrics = end_to_end(sessions)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")

    print(json.dumps({
        "correct": not any(step.problems for step in steps),
        "attempted": len(steps),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
