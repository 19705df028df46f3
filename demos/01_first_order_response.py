"""First-order dual-band surface: circuit to swept response to band metrics.

Builds the S/C-band reference design from its tuned circuit values,
sweeps it, and compares the closed-form resonance predictors with the
peaks of the full cascade.  The approximate predictors intentionally
ignore the substrate line and the parasitic inductor, so the swept peaks
land elsewhere; both views are printed side by side.
"""

import numpy as np

from fsskit import (
    ExtractedCircuit,
    Substrate,
    band_report,
    build_first_order,
    exact_poles,
    predict_resonances,
    sweep,
)

GHZ = 1e9

circuit = ExtractedCircuit(
    L_series=4.9e-9,
    C_series=0.5e-12,
    L_tank=4e-9,
    C_tank=0.35e-12,
    L_parasitic=0.8e-9,
)
substrate = Substrate(thickness=0.635e-3, eps_r=10.2, tan_delta=0.0023)

print("reference circuit:")
print(f"  series branch : {circuit.L_series*1e9:.2f} nH  {circuit.C_series*1e12:.2f} pF")
print(f"  tank          : {circuit.L_tank*1e9:.2f} nH  {circuit.C_tank*1e12:.2f} pF")
print(f"  parasitic     : {circuit.L_parasitic*1e9:.2f} nH")

pred = predict_resonances(circuit)
lo, hi = exact_poles(circuit)
print("\nclosed-form view (single collapsed sheet):")
print(f"  predictors     f_lower={pred.f_lower/GHZ:.4f}  f_zero={pred.f_zero/GHZ:.4f}  "
      f"f_upper={pred.f_upper/GHZ:.4f} GHz")
print(f"  exact poles    {lo/GHZ:.4f} and {hi/GHZ:.4f} GHz")

stack = build_first_order(circuit, substrate)
table = sweep(stack, 1 * GHZ, 12 * GHZ, 2201)
rep = band_report(table)

print("\nswept full cascade (line + parasitic included):")
print(f"  lower band     {rep.f_lower/GHZ:.4f} GHz   IL {rep.il_lower_db:.3f} dB   "
      f"BW {100*rep.bw_lower:.1f}%")
print(f"  null           {rep.f_zero/GHZ:.4f} GHz")
print(f"  upper band     {rep.f_upper/GHZ:.4f} GHz   IL {rep.il_upper_db:.3f} dB   "
      f"BW {100*rep.bw_upper:.1f}%")
print(f"  separation     {rep.separation/GHZ:.4f} GHz")
print("\nnote: the transmission zero is pinned by the series branch alone and")
print("matches the predictor exactly; the band centers shift once the line and")
print("the parasitic inductor load the sheet.")

# coarse sketch of |S21| in dB: one column per frequency bucket
print("\n|S21| (dB), 1-12 GHz:")
db = 20 * np.log10(np.abs(table.s21))  # the display trace, in dB
n_cols = 100
buckets = np.array_split(db, n_cols)
col_db = np.array([b.max() for b in buckets])
for top in range(0, -45, -5):
    line = "".join("*" if top - 5 < v <= top else " " for v in col_db)
    print(f"  {top:+4d} |{line}")
print("       +" + "-" * n_cols)
print("       1 GHz" + " " * (n_cols - 16) + "12 GHz")
