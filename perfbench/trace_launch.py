"""Run one session step with timing wrappers around latgauss's layers.

    python3 trace_launch.py SPANS.npz cli <latgauss arguments>
    python3 trace_launch.py SPANS.npz encode <encode.py arguments>

The launcher times the import of ``latgauss.cli`` in this fresh process,
wraps every function in ``layers.TARGETS``, then runs the step exactly as the
untraced session does: ``latgauss.cli.main`` or the encode step's ``main``.
A wrapper replaces the function in its defining module and in every module
that imported it by name (``latgauss.sampler.grad_potential_batch`` as well
as ``latgauss.potential.grad_potential_batch``); methods are replaced on
their class. Spans stay in memory and are written to SPANS.npz when the step
ends, whatever its exit code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import layers

_ids = itertools.count()
_local = threading.local()
_spans = []  # (id, parent id, target index, start, end, work)


def _wrap(fn, code, work):
    perf_counter = time.perf_counter

    def traced(*args, **kwargs):
        try:
            stack = _local.stack
        except AttributeError:
            stack = _local.stack = []
        sid = next(_ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        _spans.append((sid, parent, code, start, end, work(args, kwargs, result) if work else 0))
        return result

    return functools.wraps(fn)(traced)


def install(modules) -> list:
    """Wrap every target; return the targets that could not be found."""
    missing = []
    for code, (name, module_name, attr, work) in enumerate(layers.TARGETS):
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapped = _wrap(original, code, work)
        setattr(owner, leaf, wrapped)
        if not path:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return missing


def _write(path, import_s, missing):
    import numpy as np

    spans = list(_spans)
    columns = list(zip(*spans)) if spans else [()] * 6
    np.savez(
        path,
        names=np.array([t[0] for t in layers.TARGETS]),
        sid=np.array(columns[0], dtype=np.int64),
        parent=np.array(columns[1], dtype=np.int64),
        code=np.array(columns[2], dtype=np.int64),
        t0=np.array(columns[3], dtype=np.float64),
        t1=np.array(columns[4], dtype=np.float64),
        work=np.array(columns[5], dtype=np.int64),
        facts=np.array(json.dumps({"import_s": import_s, "missing": missing})),
    )


def main(argv) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import latgauss.cli

    import_s = time.perf_counter() - start

    import encode

    modules = [m for n, m in sys.modules.items() if n.startswith("latgauss")] + [encode]
    missing = install(modules)
    if missing:
        print(f"trace_launch: targets not found, left unwrapped: {missing}", file=sys.stderr)
    try:
        if kind == "cli":
            return latgauss.cli.main(rest)
        return encode.main(rest)
    finally:
        _write(spans_path, import_s, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
