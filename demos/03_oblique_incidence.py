"""Angular stability of the dual-band response.

Sweeps the reference stack for TE and TM illumination from 0 to 45
degrees.  Port impedances, the substrate line impedance, and the
electrical length change with angle; the lumped element values do not
(subwavelength cells).  The transmission zero never moves: the series
branch shorts its node regardless of how the wave arrives.
"""

import math

from fsskit import (
    ExtractedCircuit,
    Incidence,
    Substrate,
    band_report,
    build_first_order,
    incidence_media,
    predict_resonances,
    stack_response,
    sweep,
)

GHZ = 1e9

circuit = ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, 0.8e-9)
substrate = Substrate(0.635e-3, 10.2, 0.0023)
f_zero = predict_resonances(circuit).f_zero

print("media parameters by angle at 2.4 GHz:")
print("  angle  pol    port Z      line Z     elec. length")
for theta_deg in (0, 15, 30, 45):
    for pol in ("TE", "TM"):
        inc = Incidence(math.radians(theta_deg), pol)
        port, line_z, theta_d = incidence_media(inc, substrate, 2.4 * GHZ)
        print(
            f"  {theta_deg:4.0f}   {pol}  {port:9.3f} ohm {line_z:9.3f} ohm  {theta_d:8.5f} rad"
        )

print("\nband metrics and zero depth by angle:")
print("  angle  pol   f_lower    f_upper    |S21| at the zero")
for theta_deg in (0, 15, 30, 45):
    for pol in ("TE", "TM"):
        inc = Incidence(math.radians(theta_deg), pol)
        stack = build_first_order(circuit, substrate, inc)
        rep = band_report(sweep(stack, 1 * GHZ, 12 * GHZ, 2201))
        depth = abs(stack_response(stack, [f_zero])[1][0])
        print(
            f"  {theta_deg:4.0f}   {pol}  {rep.f_lower/GHZ:8.4f}  {rep.f_upper/GHZ:9.4f}"
            f"   {depth:.2e}"
        )

print("\nat normal incidence the TE and TM rows agree to the last bit;")
print("the zero stays below 1e-8 at every angle and polarization.")
