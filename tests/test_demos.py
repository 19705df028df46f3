"""Each demo script runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsskit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9]*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports the same fsskit as this test, installed or not, and
    # turns a RuntimeWarning into an error as the suite does in-process
    src = str(Path(fsskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    assert not list(tmp_path.iterdir()), "the demo left temporary files behind"
