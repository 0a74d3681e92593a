"""Each demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hochschild

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(hochschild.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS
