"""The layer boundaries the traced run times, and the per-layer metrics read
from the spans recorded there.

Each target names a public function or method of latgauss. The launcher in
``trace_launch.py`` wraps it; every call becomes one span (name, start, end,
parent span) plus one work count taken at the same boundary. ``summarize``
turns the spans of one process into totals, and ``layer_metrics`` turns the
totals of one session's processes into the metrics listed in PER_LAYER.

Stdlib only at import time: the launcher imports this module before it times
the import of latgauss itself.
"""

from __future__ import annotations

import os


def _rows(args, kwargs, result):
    return len(args[1])


def _words(args, kwargs, result):  # NoiseStream.uniform_matrix(self, stage, draws, n)
    return len(args[2]) * int(args[3])


def _descent_steps(args, kwargs, result):
    return int(result.steps_run)


def _chain_steps(args, kwargs, result):  # run_chains(problem, region, plan, Z0, ...)
    return int(args[2].steps) * len(result[0])


def _stage_rows(args, kwargs, result):  # sample_dlg_batch(model, inputs, ...)
    return len(args[0].stages) * len(args[1])


def _bytes_of_arg(index):
    def count(args, kwargs, result):
        return os.path.getsize(args[index])

    return count


def _grid_points(args, kwargs, result):
    return int(result.density.size)


# (span name, module, attribute, work counted at the boundary or None)
TARGETS = (
    ("pipeline.build_problem", "latgauss.pipeline", "build_problem", None),
    ("pipeline.plan_pipeline", "latgauss.pipeline", "plan_pipeline", None),
    ("nets.estimate_constants", "latgauss.nets", "estimate_constants", None),
    ("nets.eval_batch", "latgauss.nets", "Network.eval_batch", _rows),
    ("nets.vjp_batch", "latgauss.nets", "Network.vjp_batch", _rows),
    ("nets.jacobian_batch", "latgauss.nets", "Network.jacobian_batch", None),
    ("rng.uniform_matrix", "latgauss.rng", "NoiseStream.uniform_matrix", _words),
    ("rng.normal_matrix", "latgauss.rng", "NoiseStream.normal_matrix", None),
    ("rng.ball_points", "latgauss.rng", "ball_points", None),
    ("potential.grad_potential_batch", "latgauss.potential", "grad_potential_batch", _rows),
    ("potential.diagnostics_report", "latgauss.potential", "diagnostics_report", None),
    ("invert.gd_invert", "latgauss.invert", "gd_invert", _descent_steps),
    ("sampler.run_chains", "latgauss.sampler", "run_chains", _chain_steps),
    ("sampler.initialize_batch", "latgauss.sampler", "initialize_batch", None),
    ("compiler.compile_encoder", "latgauss.compiler", "compile_encoder", None),
    ("compiler.equivalence_deviation", "latgauss.compiler", "equivalence_deviation", None),
    ("compiler.manifest", "latgauss.compiler", "manifest", None),
    ("compiler.save_encoder", "latgauss.compiler", "save_encoder", _bytes_of_arg(1)),
    ("compiler.load_encoder", "latgauss.compiler", "load_encoder", None),
    ("compiler.run_encoder", "latgauss.compiler", "run_encoder", None),
    ("models.sample_dlg_batch", "latgauss.models", "sample_dlg_batch", _stage_rows),
    ("models.write_samples_csv", "latgauss.models", "write_samples_csv", _bytes_of_arg(0)),
    ("verify.build_grid_oracle", "latgauss.verify", "build_grid_oracle", _grid_points),
    ("verify.tv_distance", "latgauss.verify", "tv_distance", None),
    ("verify.chi2_initialization", "latgauss.verify", "chi2_initialization", None),
)

# Spans of one group count once where they nest in each other: normal_matrix
# calls uniform_matrix, run_chains follows initialize_batch.
GROUPS = {
    "rng": ("rng.uniform_matrix", "rng.normal_matrix", "rng.ball_points"),
    "sampler": ("sampler.run_chains", "sampler.initialize_batch"),
}

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    ("nets.constants_s", "s"),
    ("nets.constants_calls", "count"),
    ("nets.vjp_rows", "count"),
    ("nets.vjp_s", "s"),
    ("nets.eval_rows", "count"),
    ("nets.eval_s", "s"),
    ("nets.jacobian_calls", "count"),
    ("nets.jacobian_s", "s"),
    ("rng.words", "count"),
    ("rng.s", "s"),
    ("rng.words_per_s", "1/s"),
    ("potential.grad_rows", "count"),
    ("potential.grad_self_s", "s"),
    ("potential.diagnostics_s", "s"),
    ("invert.descent_steps", "count"),
    ("invert.s", "s"),
    ("sampler.chain_steps", "count"),
    ("sampler.s", "s"),
    ("sampler.self_s", "s"),
    ("sampler.chain_steps_per_s", "1/s"),
    ("compiler.compile_encoder_s", "s"),
    ("compiler.equivalence_s", "s"),
    ("compiler.manifest_s", "s"),
    ("compiler.save_s", "s"),
    ("compiler.load_s", "s"),
    ("compiler.encoder_bytes", "bytes"),
    ("compiler.run_encoder_s", "s"),
    ("models.dlg_stage_rows", "count"),
    ("models.dlg_s", "s"),
    ("models.csv_bytes", "bytes"),
    ("models.csv_s", "s"),
    ("verify.oracle_points", "count"),
    ("verify.oracle_s", "s"),
    ("verify.tv_s", "s"),
    ("verify.chi2_s", "s"),
    ("trace.overhead_s", "s"),
)


def summarize(names, sid, parent, code, t0, t1, work) -> dict:
    """Totals per span name and per group from the spans of one process.

    ``s`` is busy time, counting a span only where no span of the same name
    (or group) encloses it; ``self_s`` subtracts the time of direct child
    spans. Spans of worker threads have their own parents, so busy time of
    two threads running at once adds up.
    """
    import numpy as np

    totals = {}
    if len(sid) == 0:
        return totals
    size = int(sid.max()) + 1
    par = np.full(size, -1, dtype=np.int64)
    lab = np.full(size, -1, dtype=np.int64)
    dur = np.zeros(size)
    par[sid] = parent
    dur[sid] = t1 - t0
    known = np.zeros(size, dtype=bool)
    known[sid] = True
    par[~known] = -1
    par[par >= size] = -1
    child_time = np.bincount(par[par >= 0], weights=dur[par >= 0], minlength=size)
    own = dur - child_time
    work_all = np.zeros(size)
    work_all[sid] = work

    group_of = {n: g for g, members in GROUPS.items() for n in members}
    for labels in (list(names), [group_of.get(n, n) for n in names]):
        uniq = sorted(set(labels))
        index = {label: i for i, label in enumerate(uniq)}
        lab[:] = -1
        lab[sid] = np.array([index[labels[c]] for c in range(len(names))])[code]
        nested = np.zeros(size, dtype=bool)
        anc = par.copy()
        while np.any(anc >= 0):
            up = anc >= 0
            nested[up] |= lab[anc[up]] == lab[up]
            anc[up] = par[anc[up]]
        for i, label in enumerate(uniq):
            mine = known & (lab == i)
            if not mine.any():
                continue
            totals[label] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine & ~nested].sum()),
                "self_s": float(own[mine].sum()),
                "work": int(work_all[mine].sum()),
            }
    return totals


def merge(totals_list) -> dict:
    merged = {}
    for totals in totals_list:
        for label, entry in totals.items():
            into = merged.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            for key, value in entry.items():
                into[key] += value
    return merged


def layer_metrics(totals: dict, import_s: float, cpu_s: float, overhead_s: float) -> dict:
    """PER_LAYER values from the merged totals of one traced session."""

    def get(label, key):
        return totals.get(label, {}).get(key, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {
        "cli.import_s": import_s,
        "cli.cpu_s": cpu_s,
        "nets.constants_s": get("nets.estimate_constants", "s"),
        "nets.constants_calls": get("nets.estimate_constants", "calls"),
        "nets.vjp_rows": get("nets.vjp_batch", "work"),
        "nets.vjp_s": get("nets.vjp_batch", "s"),
        "nets.eval_rows": get("nets.eval_batch", "work"),
        "nets.eval_s": get("nets.eval_batch", "s"),
        "nets.jacobian_calls": get("nets.jacobian_batch", "calls"),
        "nets.jacobian_s": get("nets.jacobian_batch", "s"),
        "rng.words": get("rng.uniform_matrix", "work"),
        "rng.s": get("rng", "s"),
        "rng.words_per_s": rate(get("rng.uniform_matrix", "work"), get("rng", "s")),
        "potential.grad_rows": get("potential.grad_potential_batch", "work"),
        "potential.grad_self_s": get("potential.grad_potential_batch", "self_s"),
        "potential.diagnostics_s": get("potential.diagnostics_report", "s"),
        "invert.descent_steps": get("invert.gd_invert", "work"),
        "invert.s": get("invert.gd_invert", "s"),
        "sampler.chain_steps": get("sampler.run_chains", "work"),
        "sampler.s": get("sampler", "s"),
        "sampler.self_s": get("sampler", "self_s"),
        "sampler.chain_steps_per_s": rate(get("sampler.run_chains", "work"), get("sampler", "s")),
        "compiler.compile_encoder_s": get("compiler.compile_encoder", "s"),
        "compiler.equivalence_s": get("compiler.equivalence_deviation", "s"),
        "compiler.manifest_s": get("compiler.manifest", "s"),
        "compiler.save_s": get("compiler.save_encoder", "s"),
        "compiler.load_s": get("compiler.load_encoder", "s"),
        "compiler.encoder_bytes": get("compiler.save_encoder", "work"),
        "compiler.run_encoder_s": get("compiler.run_encoder", "s"),
        "models.dlg_stage_rows": get("models.sample_dlg_batch", "work"),
        "models.dlg_s": get("models.sample_dlg_batch", "s"),
        "models.csv_bytes": get("models.write_samples_csv", "work"),
        "models.csv_s": get("models.write_samples_csv", "s"),
        "verify.oracle_points": get("verify.build_grid_oracle", "work"),
        "verify.oracle_s": get("verify.build_grid_oracle", "s"),
        "verify.tv_s": get("verify.tv_distance", "s"),
        "verify.chi2_s": get("verify.chi2_initialization", "s"),
        "trace.overhead_s": overhead_s,
    }
    return values
