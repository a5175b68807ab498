"""Smoke tests: every demo and the README's Python run to completion, with
no RuntimeWarning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "demo_maximum_likelihood.py",
        "demo_order_selection.py",
        "demo_parameter_chambers.py",
        "demo_bivariate_constants.py",
        "demo_simulation_calibration.py",
        "demo_normalizing_constants.py",
    ],
)
def test_demo_runs(demo):
    # under the suite's warning policy: a numpy overflow or invalid value fails
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_runs():
    # every fenced python block of the README, in a fresh namespace each:
    # a name the quickstart imports that the package stops exporting fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
