"""Start-up cost guard: a CLI step loads no scipy unless it draws enough
noise to repay the import. Importing scipy.special costs a CLI step more
time than invert, compile or verify spend working, so each check runs in a
fresh interpreter and fails once a module-level scipy import comes back."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

README_CONFIG = {
    "generator": {"builtin": "tanh-residual", "alpha": 0.5},
    "d": 1,
    "beta": 0.1,
    "epsilon": 0.1,
    "x": [0.9],
    "seed": 7,
}


def scipy_modules_after(code: str) -> list:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert scipy_modules_after("import latgauss.cli") == []


def step_on_the_readme_config_loads_no_scipy(step, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(README_CONFIG))
    code = (
        "from latgauss.cli import main\n"
        f"assert main([{step!r}, '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
    )
    assert scipy_modules_after(code) == []
    assert (tmp_path / "out" / f"{step}_report.json").exists()


def test_invert_on_the_readme_config_loads_no_scipy(tmp_path):
    step_on_the_readme_config_loads_no_scipy("invert", tmp_path)


@pytest.mark.parametrize("step", ["compile", "verify"])
def test_compile_and_verify_on_the_readme_config_load_no_scipy(step, tmp_path):
    step_on_the_readme_config_loads_no_scipy(step, tmp_path)


def test_only_a_bulk_request_loads_scipy_special():
    request = (
        "import numpy as np\n"
        "from latgauss import rng\n"
        "draws = np.arange(rng._BULK_WORDS // 4 - {short}, dtype=np.uint64)\n"
        "for block in rng.normal_blocks(rng.NoiseStream(0), 0, 2, draws, 2):\n"
        "    pass\n"
    )
    assert scipy_modules_after(request.format(short=1)) == []
    assert "scipy.special" in scipy_modules_after(request.format(short=0))
