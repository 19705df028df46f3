"""Three-layer stack: a sharper upper band from a second transmission pole.

The outer layers each carry two series L-C branches in parallel; the
middle layer is the bandpass tank.  Two transmission zeros appear exactly
at the outer-branch resonances, and the upper passband holds two poles.
The equivalent hybrid view (series L-C plus tank, from the Foster-style
transform) reproduces the outer-layer impedance identically.

Detuning only the second branch drags the second zero and the upper band
around while the first band and first zero stay put.
"""

import numpy as np

from fsskit import (
    SeriesLC,
    Substrate,
    Tank,
    band_report,
    branch_impedance,
    build_second_order,
    foster_transform,
    hybrid_impedance,
    stack_response,
    sweep,
)

GHZ = 1e9

branch_a = SeriesLC(4.9e-9, 0.5e-12)
branch_b = SeriesLC(2.0e-9, 0.5e-12)
middle = Tank(2.5e-9, 0.3e-12)
substrate = Substrate(3.4e-3, 10.2)

print("outer branches:")
print(f"  A: {branch_a.L*1e9:.2f} nH / {branch_a.C*1e12:.2f} pF  ->  zero at {branch_a.resonance()/GHZ:.4f} GHz")
print(f"  B: {branch_b.L*1e9:.2f} nH / {branch_b.C*1e12:.2f} pF  ->  zero at {branch_b.resonance()/GHZ:.4f} GHz")

stack = build_second_order((branch_a, branch_b), middle, substrate)
table = sweep(stack, 1.5 * GHZ, 4.9 * GHZ, 1701)
rep = band_report(table)

db = 20 * np.log10(np.abs(table.s21))  # the display trace, in dB
peaks = [
    i
    for i in range(1, len(table) - 1)
    if db[i] > db[i - 1] and db[i] >= db[i + 1] and db[i] > -3.0
]
print("\nswept response, 1.5-4.9 GHz:")
print(f"  lower band  {rep.f_lower/GHZ:.4f} GHz  BW {100*rep.bw_lower:.1f}%")
print(f"  zero        {rep.f_zero/GHZ:.4f} GHz")
print(f"  upper band  {rep.f_upper/GHZ:.4f} GHz  BW {100*rep.bw_upper:.1f}%")
print(f"  passband poles above the zero: "
      f"{[round(table.frequency[i]/GHZ, 4) for i in peaks if table.frequency[i] > rep.f_zero]}")

print("\nzero depths (exact shorts):")
for name, branch in (("A", branch_a), ("B", branch_b)):
    print(f"  |S21| at zero {name}: {abs(stack_response(stack, [branch.resonance()])[1][0]):.2e}")

hybrid = foster_transform(branch_a.L, branch_a.C, branch_b.L, branch_b.C)
print("\nhybrid view of one outer layer:")
print(f"  series part {hybrid.L_series*1e9:.4f} nH / {hybrid.C_series*1e12:.4f} pF")
print(f"  tank part   {hybrid.L_tank*1e9:.4f} nH / {hybrid.C_tank*1e12:.4f} pF")
probe = np.geomspace(0.5 * GHZ, 12 * GHZ, 7)
worst = 0.0
for f in probe:
    za = branch_impedance(branch_a, f)
    zb = branch_impedance(branch_b, f)
    z_par = za * zb / (za + zb)
    worst = max(worst, abs(hybrid_impedance(hybrid, f) - z_par) / abs(z_par))
print(f"  impedance equality against the parallel pair: worst {worst:.1e}")

print("\ndetuning branch B only (capacitance scaled):")
print("  scale   zero A       zero B       upper band")
for scale in (1.0, 1.1, 1.3):
    b = SeriesLC(branch_b.L, branch_b.C * scale)
    detuned = build_second_order((branch_a, b), middle, substrate)
    r = band_report(sweep(detuned, 1.5 * GHZ, min(4.9, b.resonance() / GHZ - 0.1) * GHZ, 1701))
    depth_a = abs(stack_response(detuned, [branch_a.resonance()])[1][0])
    print(
        f"  x{scale:.1f}   {branch_a.resonance()/GHZ:.4f} GHz"
        f"  {b.resonance()/GHZ:.4f} GHz   {r.f_upper/GHZ:.4f} GHz"
        f"   (|S21| at zero A stays {depth_a:.1e})"
    )
