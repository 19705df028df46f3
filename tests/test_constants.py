"""The pinned physical constants against scipy, and an import that loads
no scipy, fractions or decimal module at all."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.constants

import fsskit


def test_constants_equal_scipy_bit_for_bit():
    assert fsskit.C0 == scipy.constants.c
    assert fsskit.EPS0 == scipy.constants.epsilon_0
    assert fsskit.MU0 == scipy.constants.mu_0


def test_eta0_is_sqrt_mu0_over_eps0_to_its_printed_digits():
    # ETA0 is printed with nine significant digits in Touchstone option lines
    assert f"{math.sqrt(fsskit.MU0 / fsskit.EPS0):.9g}" == repr(fsskit.ETA0)


def _child_prints(code):
    """What ``code`` prints in a fresh interpreter that imports the same
    fsskit as this test, installed or not."""
    src = str(Path(fsskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy_module():
    # nor fractions, which foster_transform imports when it runs: it loads
    # decimal, about 2 ms on every CLI start
    code = (
        "import sys, fsskit, fsskit.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'fractions', 'decimal', '_decimal')))"
    )
    assert _child_prints(code) == "[]"


def test_first_order_fit_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma at its first call, 8-9 ms of every fresh
    # ``fsskit fit`` on a 2-core x86_64 VM; the null test does without it
    sub = fsskit.Substrate(0.635e-3, 10.2, 0.0023)
    circuit = fsskit.ExtractedCircuit(4.9e-9, 0.5e-12, 4.0e-9, 0.35e-12, 0.8e-9)
    freqs = np.linspace(1e9, 12e9, 401)
    s11, s21, s22 = fsskit.stack_response_full(fsskit.build_first_order(circuit, sub), freqs)
    port = fsskit.port_impedance(fsskit.Incidence())
    fsskit.write_touchstone(freqs, s11, s21, s21, s22, tmp_path / "data.s2p", port)
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({
        "design": {"substrate": {"thickness_mm": 0.635, "eps_r": 10.2, "tan_delta": 0.0023}},
        "fit": {"data": "data.s2p", "template": "first_order",
                "initial": {"L_series_nH": 5.1, "C_series_pF": 0.48, "L_tank_nH": 4.2,
                            "C_tank_pF": 0.34, "L_parasitic_nH": 0.9}},
    }))
    code = (
        "import sys, numpy\n"
        "from fsskit import cli\n"
        f"cli.run('fit', {str(config)!r}, {str(tmp_path / 'out')!r})\n"
        "loaded = 'numpy.ma' in sys.modules\n"
        "numpy.median([1.0])  # and the probe sees the import where it happens\n"
        "print(loaded, 'numpy.ma' in sys.modules)"
    )
    assert _child_prints(code) == "False True"
