"""The traced benchmark run (perfbench/layers.py) wraps latgauss functions by
module and attribute name, and counts chain-steps from run_chains' positional
plan argument. These checks keep a rename or a call-site change in the
package from silently dropping a per-layer metric."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, module_name, attr, _ in load_layers().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} not found"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_run_chains_calls_pass_plan_positionally():
    # layers._chain_steps reads args[2].steps: problem, region, plan, Z0
    calls = 0
    for path in (ROOT / "src" / "latgauss").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_chains":
                calls += 1
                assert len(node.args) >= 4, f"{path.name}:{node.lineno}"
    assert calls > 0
