"""Inverse design: band targets to circuit values to unit-cell dimensions.

Targets go in, a circuit comes out in closed form, then bisection on the
monotone grid formulas recovers printable dimensions, each bisected to
adjacent floats.  The chain closes: re-extracting the synthesized geometry
reproduces the circuit values to a few parts in 1e16.
"""

from fsskit import (
    DesignTargets,
    Substrate,
    circuit_from_targets,
    extract_circuit,
    geometry_from_circuit,
    predict_resonances,
)

GHZ = 1e9
MM = 1e-3

targets = DesignTargets(
    f_lower=2.4 * GHZ,
    f_upper=5.8 * GHZ,
    f_zero=3.2154 * GHZ,
    L_tank=4e-9,
)
substrate = Substrate(0.635 * MM, 10.2, 0.0023)

print("targets:")
print(f"  bands {targets.f_lower/GHZ:.2f} / {targets.f_upper/GHZ:.2f} GHz, "
      f"zero {targets.f_zero/GHZ:.4f} GHz, tank inductance {targets.L_tank*1e9:.1f} nH")

circuit = circuit_from_targets(targets)
print("\nsynthesized circuit:")
print(f"  L_series = {circuit.L_series*1e9:.4f} nH   C_series = {circuit.C_series*1e12:.4f} pF")
print(f"  L_tank   = {circuit.L_tank*1e9:.4f} nH   C_tank   = {circuit.C_tank*1e12:.4f} pF")

pred = predict_resonances(circuit)
print("\npredictors of the synthesized circuit (round trip on the targets):")
print(f"  f_lower = {pred.f_lower/GHZ:.6f} GHz")
print(f"  f_zero  = {pred.f_zero/GHZ:.6f} GHz")
print(f"  f_upper = {pred.f_upper/GHZ:.6f} GHz")

period = 8.5 * MM
geom = geometry_from_circuit(circuit, period, substrate)
print(f"\nunit cell for a {period/MM:.1f} mm period:")
print(f"  hat length = {geom.hat_length/MM:.4f} mm")
print(f"  jc slot    = {geom.jc_slot/MM:.4f} mm")
print(f"  jc gap     = {geom.jc_gap/MM:.4f} mm")
print(f"  cross slot = {geom.cross_slot/MM:.4f} mm")

check = extract_circuit(geom)
worst = max(
    abs(getattr(check, n) - getattr(circuit, n)) / getattr(circuit, n)
    for n in ("L_series", "C_series", "L_tank", "C_tank")
)
print(f"\nre-extraction closes the loop: worst relative error {worst:.2e}")
