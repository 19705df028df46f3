import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.constants import epsilon_0, mu_0

from fsskit import (
    ExtractedCircuit,
    FirstOrderGeometry,
    SeriesLC,
    Tank,
    branch_impedance,
    effective_permittivity,
    exact_poles,
    extract_circuit,
    predict_resonances,
    surface_impedance,
)
from fsskit.extraction import ResonancePrediction
from fsskit.lumped import OPEN
from fsskit.errors import InvalidGeometryError, InvalidParameterError


def test_effective_permittivity():
    assert effective_permittivity(1.0) == 1.0
    assert effective_permittivity(10.2) == pytest.approx(5.6)
    assert effective_permittivity(3.0) == 2.0
    with pytest.raises(InvalidParameterError):
        effective_permittivity(0.5)


def test_extract_circuit_reference_geometry(ref_geometry):
    """Desk-calculation oracle, written out independently of the library."""
    c = extract_circuit(ref_geometry)
    a, w, s, s1, g = 8.5e-3, 6.8e-3, 0.3e-3, 0.2e-3, 0.5e-3
    er_eff = (10.2 + 1) / 2
    ln_csc = lambda x: math.log(1 / math.sin(x))
    l_series = a / (2 * math.pi) * mu_0 * ln_csc(math.pi * s / (2 * a))
    c_series = 2 * w / math.pi * epsilon_0 * er_eff * ln_csc(math.pi * g / (2 * a))
    l_tank = a / (2 * math.pi) * mu_0 * ln_csc(math.pi * g / (2 * a))
    d = a - g - s1
    c_tank = d / math.pi * epsilon_0 * er_eff * ln_csc(math.pi * s1 / d)

    assert c.L_series == pytest.approx(l_series, rel=1e-12)
    assert c.C_series == pytest.approx(c_series, rel=1e-12)
    assert c.L_tank == pytest.approx(l_tank, rel=1e-12)
    assert c.C_tank == pytest.approx(c_tank, rel=1e-12)
    assert c.L_parasitic == 0.0

    # frozen values; close to the tuned design values 4.9 nH / 0.5 pF / 4 nH,
    # while the tank capacitance formula gives 0.310 pF against the tuned 0.35 pF
    assert c.L_series == pytest.approx(4.918046582e-9, rel=1e-9)
    assert c.C_series == pytest.approx(5.115165337e-13, rel=1e-9)
    assert c.L_tank == pytest.approx(4.051191795e-9, rel=1e-9)
    assert c.C_tank == pytest.approx(3.102180876e-13, rel=1e-9)


def test_geometry_validation():
    good = dict(
        period=8.5e-3, hat_length=6.8e-3, jc_slot=0.3e-3, cross_slot=0.2e-3,
        jc_gap=0.5e-3, thickness=0.635e-3, eps_r=10.2,
    )
    FirstOrderGeometry(**good)
    for key, bad in [
        ("jc_slot", 0.0),
        ("jc_slot", 9e-3),
        ("jc_gap", -1e-3),
        ("hat_length", 8.5e-3),
        ("cross_slot", 5e-3),  # violates cross_slot < period - gap - cross_slot
        ("thickness", 0.0),
        ("eps_r", 0.9),
        ("tan_delta", -0.1),
    ]:
        with pytest.raises(InvalidGeometryError):
            FirstOrderGeometry(**{**good, key: bad})


def test_circuit_validation():
    with pytest.raises(InvalidParameterError):
        ExtractedCircuit(0.0, 1e-12, 1e-9, 1e-12)
    with pytest.raises(InvalidParameterError):
        ExtractedCircuit(1e-9, 1e-12, 1e-9, 1e-12, L_parasitic=-1e-9)


def test_surface_impedance_is_parallel_combination(ref_circuit, rng):
    tank = Tank(ref_circuit.L_tank, ref_circuit.C_tank)
    series = SeriesLC(ref_circuit.L_series, ref_circuit.C_series)
    for _ in range(100):
        f = rng.uniform(0.1e9, 20e9)
        z = surface_impedance(ref_circuit, f)
        za = branch_impedance(tank, f)
        zb = branch_impedance(series, f)
        if za is OPEN or z is OPEN:
            continue
        z_par = za * zb / (za + zb)
        assert z == pytest.approx(z_par, rel=1e-10)


@pytest.mark.parametrize("f", [math.inf, 0.0, -1e9, math.nan])
def test_surface_impedance_needs_a_finite_positive_frequency(ref_circuit, f):
    # at f = inf the expression was nan+nanj
    message = "finite" if f == math.inf else "positive"
    with pytest.raises(InvalidParameterError) as info:
        surface_impedance(ref_circuit, f)
    assert str(info.value) == f"frequency must be {message}, got {f!r}"


def test_surface_impedance_is_open_at_an_exact_pole():
    # p = q = 2 and r = 1: the denominator 1 - 5x + 4x^2 is exactly 0 at
    # x = w^2 = 1, and 2*pi*f rounds to exactly 1.0 rad/s at this f
    c = ExtractedCircuit(L_series=2.0, C_series=1.0, L_tank=1.0, C_tank=2.0)
    f_unit = 1.0 / (2.0 * math.pi)
    assert surface_impedance(c, f_unit) is OPEN
    assert exact_poles(c)[1] == f_unit
    assert abs(surface_impedance(c, math.nextafter(f_unit, 0.0))) > 1e15


def test_surface_impedance_vanishes_at_zero(ref_circuit):
    f0 = predict_resonances(ref_circuit).f_zero
    z = surface_impedance(ref_circuit, f0)
    assert abs(z) < 1e-6


def test_surface_impedance_low_frequency_is_tank_inductance(ref_circuit):
    f = 1e3
    z = surface_impedance(ref_circuit, f)
    assert z == pytest.approx(1j * 2 * math.pi * f * ref_circuit.L_tank, rel=1e-9)


def test_predict_resonances_reference_values(ref_circuit):
    """Independent evaluation of the three closed forms."""
    p = predict_resonances(ref_circuit)
    f_zero = 1 / (2 * math.pi * math.sqrt(4.9e-9 * 0.5e-12))
    f_upper = 1 / (2 * math.pi * math.sqrt(4e-9 * 0.35e-12))
    f_lower = 1 / (2 * math.pi * math.sqrt((4e-9 + 4.9e-9) * 0.5e-12))
    assert p.f_zero == pytest.approx(f_zero, rel=1e-12)
    assert p.f_upper == pytest.approx(f_upper, rel=1e-12)
    assert p.f_lower == pytest.approx(f_lower, rel=1e-12)
    # frozen: 2.3859 / 3.2154 / 4.2536 GHz
    assert p.f_lower == pytest.approx(2385833466.15, rel=1e-9)
    assert p.f_zero == pytest.approx(3215415414.85, rel=1e-9)
    assert p.f_upper == pytest.approx(4253594774.72, rel=1e-9)


def test_zero_prediction_ignores_tank_and_parasitic(ref_circuit):
    from dataclasses import replace

    base = predict_resonances(ref_circuit).f_zero
    for change in (
        {"L_tank": 9e-9},
        {"C_tank": 0.1e-12},
        {"L_parasitic": 3e-9},
        {"L_parasitic": 0.0},
    ):
        assert predict_resonances(replace(ref_circuit, **change)).f_zero == base


def test_exact_poles_reference_values(ref_circuit):
    lo, hi = exact_poles(ref_circuit)
    assert lo == pytest.approx(2209423416.12, rel=1e-9)
    assert hi == pytest.approx(6190336405.14, rel=1e-9)


def test_exact_poles_match_impedance_scan(ref_circuit):
    # brute-force |Z| maxima on a dense grid, refined by local parabola
    lo, hi = exact_poles(ref_circuit)
    f = np.linspace(1e9, 8e9, 200001)
    mag = np.empty_like(f)
    for i, fi in enumerate(f):
        z = surface_impedance(ref_circuit, fi)
        mag[i] = np.inf if z is OPEN else abs(z)
    peaks = [i for i in range(1, len(f) - 1) if mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]]
    assert len(peaks) == 2
    assert f[peaks[0]] == pytest.approx(lo, rel=1e-3)
    assert f[peaks[1]] == pytest.approx(hi, rel=1e-3)


def test_exact_poles_decoupling_limit():
    # enormous series inductance: lower pole collapses, upper approaches the
    # bare tank resonance
    c = ExtractedCircuit(1e3, 0.5e-12, 4e-9, 0.35e-12)
    lo, hi = exact_poles(c)
    tank_f = 1 / (2 * math.pi * math.sqrt(4e-9 * 0.35e-12))
    assert lo < 1e7
    assert hi == pytest.approx(tank_f, rel=1e-3)


def test_exact_poles_are_real_where_the_textbook_discriminant_cancels():
    # (p + q + r)^2 - 4pq rounds to -8.9e-16 here; the poles must still be
    # real and bracket the series resonance (the upper one rounds to it)
    c = ExtractedCircuit((1 + 2**-52) * 1e40, 1e-40, 1.0, 1.0)
    lo, hi = exact_poles(c)
    f_zero = SeriesLC(c.L_series, c.C_series).resonance()
    assert lo < hi
    assert lo <= f_zero <= hi


def test_prediction_where_the_tank_inductance_vanishes_against_the_series_one():
    # L_tank + L_series rounds to L_series, so f_lower rounds to f_zero
    c = ExtractedCircuit((1 + 2**-52) * 1e40, 1e-40, 1.0, 1.0)
    pred = predict_resonances(c)
    assert pred.f_lower == pred.f_zero == SeriesLC(c.L_series, c.C_series).resonance()


_CLOSED_FORMS = (predict_resonances, exact_poles, lambda c: surface_impedance(c, 1e9))


@pytest.mark.parametrize(
    "circuit,product",
    [(ExtractedCircuit(2.14e276, 1.23e26, 4.5e107, 9e112),  # (p - q)**2: OverflowError,
      r"L_tank\*C_tank = 4.05e\+220"),                     # and NaN impedance at 1 GHz
     (ExtractedCircuit(1e-200, 1e-200, 1e-200, 1e-200),  # 1/sqrt(0): ZeroDivisionError
      r"L_tank\*C_tank = 0.0"),
     (ExtractedCircuit(1e60, 1e50, 1e-9, 1e-12), r"L_series\*C_series = 1e\+110"),
     (ExtractedCircuit(1e-60, 1e50, 1e60, 1e-80), r"L_tank\*C_series = 1e\+110")],
)
def test_collapsed_sheet_closed_forms_refuse_a_product_out_of_range(circuit, product):
    for closed_form in _CLOSED_FORMS:
        with pytest.raises(InvalidParameterError, match=rf"^{product} lies outside "):
            closed_form(circuit)


def test_resonance_closed_forms_are_finite_across_the_product_window():
    # the corners of [1e-99, 1e99]^3 for p, q and r, with L_tank = 1 H
    for p, q, r in itertools.product((1e-99, 1.0, 1e99), repeat=3):
        c = ExtractedCircuit(q / r, r, 1.0, p)
        pred = predict_resonances(c)
        lo, hi = exact_poles(c)
        assert all(0.0 < v < math.inf for v in (*astuple(pred), lo, hi))
        assert lo <= hi  # equal where r vanishes against p = q


def test_surface_impedance_refuses_a_frequency_out_of_float_range(ref_circuit):
    # (w^2)^2 overflows: the polynomial gave nan+nanj
    with pytest.raises(InvalidParameterError) as info:
        surface_impedance(ref_circuit, 1e150)
    assert str(info.value) == "the sheet impedance leaves the float range at f = 1e+150 Hz"


def test_resonance_prediction_needs_the_lower_band_below_the_zero():
    with pytest.raises(InvalidParameterError, match="expected f_lower < f_zero"):
        ResonancePrediction(f_lower=3e9, f_zero=2e9, f_upper=5e9)


def test_pole_interlacing_random_circuits(rng):
    for _ in range(1000):
        c = ExtractedCircuit(
            10 ** rng.uniform(-9.5, -7.5),
            10 ** rng.uniform(-13.5, -11.5),
            10 ** rng.uniform(-9.5, -7.5),
            10 ** rng.uniform(-13.5, -11.5),
        )
        lo, hi = exact_poles(c)
        f0 = predict_resonances(c).f_zero
        assert lo < f0 < hi


def test_monotonicity_trends(nominal_geometry):
    from dataclasses import replace

    grid = np.linspace(0.05e-3, 0.8e-3, 40)
    ls = [extract_circuit(replace(nominal_geometry, jc_slot=v)).L_series for v in grid]
    assert all(b < a for a, b in zip(ls, ls[1:]))

    gaps = np.linspace(0.05e-3, 0.8e-3, 40)
    cs = [extract_circuit(replace(nominal_geometry, jc_gap=v)).C_series for v in gaps]
    lp = [extract_circuit(replace(nominal_geometry, jc_gap=v)).L_tank for v in gaps]
    assert all(b < a for a, b in zip(cs, cs[1:]))
    assert all(b < a for a, b in zip(lp, lp[1:]))

    # tank capacitance decreases on the narrow-slot branch of its formula
    d0 = nominal_geometry.period - nominal_geometry.jc_gap
    slots = np.linspace(0.02e-3, 0.3 * d0, 40)
    cp = [extract_circuit(replace(nominal_geometry, cross_slot=v)).C_tank for v in slots]
    assert all(b < a for a, b in zip(cp, cp[1:]))

    hats = np.linspace(0.5e-3, 4e-3, 40)
    cs_w = [extract_circuit(replace(nominal_geometry, hat_length=v)).C_series for v in hats]
    assert all(b > a for a, b in zip(cs_w, cs_w[1:]))
