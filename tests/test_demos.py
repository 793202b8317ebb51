"""The demo scripts and README's Python example run as a user would run them.

Each runs in a fresh interpreter whose working directory is a scratch
folder, so a script that leans on the repository layout, the test
process's imports or a renamed public name fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voltlab

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(voltlab.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_there_are_demos():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, script):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
