"""Measurement-style workflow: export, import, and a smoothed fit.

Plays a full loop on synthetic "bench" data: a lossy sweep of the tuned
design is exported to Touchstone, read back, and fitted starting from the
grid-formula extraction of the printed unit cell, with the model and the
data smoothed by the same moving average to knock the ripple off.  The
fit recovers the tuned element values, quantifying the gap between the
closed-form extraction and the as-built design.
"""

import tempfile
from pathlib import Path

import numpy as np

from fsskit import (
    ETA0,
    ExtractedCircuit,
    FirstOrderGeometry,
    ResponseTable,
    Substrate,
    build_first_order,
    extract_circuit,
    fit_circuit,
    load_response,
    stack_response_full,
    sweep,
    write_touchstone,
)

GHZ = 1e9
rng = np.random.default_rng(3)

tuned = ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, 0.0)
substrate = Substrate(0.635e-3, 10.2, 0.0023)
stack = build_first_order(tuned, substrate, dielectric_loss=True)

table = sweep(stack, 1 * GHZ, 8 * GHZ, 801)
ripple = 2e-3 * (rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table)))
bench = ResponseTable(table.frequency, table.s11, table.s21 + ripple)

_, s21, s22 = stack_response_full(stack, table.frequency)
with tempfile.TemporaryDirectory(prefix="fss_fit_") as workdir:
    s2p = Path(workdir) / "bench.s2p"
    write_touchstone(
        bench.frequency, bench.s11, bench.s21, bench.s21, s22, s2p, ETA0,
        comments=("synthetic bench trace with 2e-3 ripple",),
    )
    print(f"wrote {s2p}")
    imported = load_response(s2p)
print(f"imported {len(imported)} rows")

geometry = FirstOrderGeometry(
    period=8.5e-3, hat_length=6.8e-3, jc_slot=0.3e-3, cross_slot=0.2e-3,
    jc_gap=0.5e-3, thickness=0.635e-3, eps_r=10.2, tan_delta=0.0023,
)
seed = extract_circuit(geometry)
initial = {
    "L_series": seed.L_series,
    "C_series": seed.C_series,
    "L_tank": seed.L_tank,
    "C_tank": seed.C_tank,
    "L_parasitic": 50e-9,  # start weak; the data decides whether it is needed
}
print("\nextraction-seeded initial guess:")
for name, value in initial.items():
    print(f"  {name:12s} {value:.4e}")

result = fit_circuit(
    imported, "first_order", initial, substrate, dielectric_loss=True, max_iter=300,
    smooth_hz=0.1 * GHZ,
)
print(f"\nfit of the 0.1 GHz moving averages converged in {result.iterations} iterations, "
      f"rms residual {result.rms_residual:.2e}")
print("recovered values (truth in parentheses):")
truth = {
    "L_series": 4.9e-9, "C_series": 0.5e-12,
    "L_tank": 4e-9, "C_tank": 0.35e-12,
}
for name, value in result.params.items():
    if name in truth:
        print(f"  {name:12s} {value:.4e}   ({truth[name]:.4e})")
    else:
        print(f"  {name:12s} {value:.4e}   (absent in the data; fitted toward no effect)")
print("\nresidual trace:", " ".join(f"{x:.1e}" for x in result.trace[:8]),
      "..." if len(result.trace) > 8 else "")
