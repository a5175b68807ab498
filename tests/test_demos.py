"""Smoke tests: every demo, the README's Python and the README's commands
run to completion, with no RuntimeWarning."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from exppoly import ThetaUni, cli, sample_uni

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


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every `exppoly ...` line of the README's sh blocks, in a directory
    # holding the files they name: a flag the CLI drops fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("exppoly ")]
    assert len(lines) >= 10
    (theta_json,) = re.findall(r"theta\.json holds (\{.*\})", text)
    (tmp_path / "theta.json").write_text(theta_json)
    sample = sample_uni(ThetaUni((-1.0, 3.0, -2.0)), 2000, seed=1)
    (tmp_path / "sample.csv").write_text("".join(f"{v!r}\n" for v in sample.tolist()))
    cols = [sample_uni(ThetaUni(c), 500, seed=s).tolist() for s, c in ((2, (0.0, -1.0)), (3, (0.5, -1.3)))]
    (tmp_path / "pairs.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(*cols)))
    monkeypatch.chdir(tmp_path)

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        assert isinstance(json.loads(out, parse_constant=reject), dict), line
