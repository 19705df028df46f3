"""The pinned physical constants against scipy, and an import that loads
no scipy, fractions or decimal module at all."""

import math
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import fsskit


def test_constants_equal_scipy_bit_for_bit():
    assert fsskit.C0 == scipy.constants.c
    assert fsskit.EPS0 == scipy.constants.epsilon_0
    assert fsskit.MU0 == scipy.constants.mu_0


def test_eta0_is_sqrt_mu0_over_eps0_to_its_printed_digits():
    # ETA0 is printed with nine significant digits in Touchstone option lines
    assert f"{math.sqrt(fsskit.MU0 / fsskit.EPS0):.9g}" == repr(fsskit.ETA0)


def test_import_loads_no_scipy_module():
    # nor fractions, which foster_transform imports when it runs: it loads
    # decimal, about 2 ms on every CLI start.  The child imports the same
    # fsskit as this test, installed or not.
    src = str(Path(fsskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, fsskit, fsskit.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'fractions', 'decimal', '_decimal')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
