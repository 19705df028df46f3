import hashlib
import math
import pathlib
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from fsskit import (
    DesignTargets,
    ExtractedCircuit,
    FirstOrderGeometry,
    Incidence,
    ResponseTable,
    SeriesLC,
    Substrate,
    Tank,
    build_first_order,
    build_second_order,
    circuit_from_targets,
    exact_poles,
    extract_circuit,
    fit_circuit,
    foster_transform,
    geometry_from_circuit,
    predict_resonances,
    stack_response,
    surface_impedance,
    sweep,
)
from fsskit.errors import (
    DivergedFitError,
    InfeasibleTargetsError,
    InvalidGeometryError,
    InvalidParameterError,
    SingularNetworkError,
    UnattainableDimensionError,
)
from fsskit.domain import RANGES
from fsskit import lumped, synthesis, topology
from fsskit.lumped import Inductor, Parallel, _susceptance_array
from fsskit.topology import FssStack, _line_terms
from fsskit.analysis import _refine_quadratic
from fsskit.synthesis import _bisect_decreasing

from conftest import assert_lines_match

MODEL_GOLDEN = pathlib.Path(__file__).parent / "golden" / "model_outputs.txt"


def test_targets_validation():
    DesignTargets(2.4e9, 5.8e9)
    with pytest.raises(InvalidParameterError):
        DesignTargets(5.8e9, 2.4e9)
    with pytest.raises(InfeasibleTargetsError) as info:
        DesignTargets(2.4e9, 5.8e9, f_zero=2.0e9)
    assert info.value.attainable == (2.4e9, 5.8e9)
    with pytest.raises(InfeasibleTargetsError):
        DesignTargets(2.4e9, 5.8e9, f_zero=6.0e9)


def test_circuit_from_targets_inverts_predictors(ref_circuit):
    pred = predict_resonances(ref_circuit)
    targets = DesignTargets(pred.f_lower, pred.f_upper, pred.f_zero, ref_circuit.L_tank)
    c = circuit_from_targets(targets)
    assert c.L_series == pytest.approx(4.9e-9, rel=1e-9)
    assert c.C_series == pytest.approx(0.5e-12, rel=1e-9)
    assert c.L_tank == pytest.approx(4e-9, rel=1e-9)
    assert c.C_tank == pytest.approx(0.35e-12, rel=1e-9)


def test_circuit_from_targets_default_zero_is_geometric_mean():
    c = circuit_from_targets(DesignTargets(2.4e9, 5.8e9))
    f0 = predict_resonances(c).f_zero
    assert f0 == pytest.approx(math.sqrt(2.4e9 * 5.8e9), rel=1e-12)


def test_circuit_from_targets_refuses_a_zero_that_underflows():
    # the default zero sqrt(1e-200 * 2e-200) underflowed to 0.0, below
    # f_lower; the frequency range now refuses such targets
    with pytest.raises(InvalidParameterError) as info:
        DesignTargets(1e-200, 2e-200)
    assert str(info.value) == "f_lower must lie in [1e3, 1e15] Hz, got 1e-200"
    # inside the range the default zero of adjacent band centres rounds
    # onto the upper one, which the targets refuse as they are built
    f_upper = math.nextafter(1e9, math.inf)
    with pytest.raises(InfeasibleTargetsError) as info:
        DesignTargets(1e9, f_upper)
    assert str(info.value) == (
        f"transmission zero {f_upper} must lie strictly between the band centers; "
        f"attainable range is (1000000000.0, {f_upper})"
    )
    assert info.value.attainable == (1e9, f_upper)


def test_design_targets_set_the_default_zero(rng):
    for f_lower, f_upper in [(2.4e9, 5.8e9), (1e3, 1e15)] + [
        tuple(sorted((10.0 ** rng.uniform(3.0, 15.0, 2)).tolist())) for _ in range(200)
    ]:
        assert DesignTargets(f_lower, f_upper).f_zero.hex() == math.sqrt(f_lower * f_upper).hex()
    assert DesignTargets(2.4e9, 5.8e9, 3e9).f_zero == 3e9


def test_design_targets_on_adjacent_floats_have_no_default_zero(rng):
    # no float lies strictly between the two, so the default zero cannot
    for f_lower in (10.0 ** rng.uniform(3.0, 15.0, 200)).tolist():
        f_upper = math.nextafter(f_lower, math.inf)
        with pytest.raises(InfeasibleTargetsError) as info:
            DesignTargets(f_lower, f_upper)
        assert info.value.category == "infeasible-targets"
        assert info.value.attainable == (f_lower, f_upper)


def test_circuit_from_targets_refuses_a_zero_within_rounding_of_the_lower_band():
    # 1/(2*pi*f)**2 rounds to one value at f_lower and at the next float up,
    # which left L_series = L_tank*q_zero/0
    f_lower = 2400000000.000043
    f_zero = math.nextafter(f_lower, math.inf)
    with pytest.raises(InvalidParameterError) as info:
        circuit_from_targets(DesignTargets(f_lower, 5.8e9, f_zero))
    assert str(info.value) == (
        f"transmission zero {f_zero} Hz lies within rounding of f_lower = {f_lower} Hz"
    )


def test_circuit_from_targets_roundtrip_random(rng):
    count = 0
    while count < 1000:
        l_tank = 10 ** rng.uniform(-9.5, -8.0)
        c_tank = 10 ** rng.uniform(-13.5, -12.0)
        l_series = 10 ** rng.uniform(-9.5, -8.0)
        c_series = 10 ** rng.uniform(-13.5, -12.0)
        # dual-band regime requires the zero below the bare tank resonance
        if l_series * c_series <= l_tank * c_tank:
            continue
        count += 1
        c = ExtractedCircuit(l_series, c_series, l_tank, c_tank)
        pred = predict_resonances(c)
        back = circuit_from_targets(
            DesignTargets(pred.f_lower, pred.f_upper, pred.f_zero, c.L_tank)
        )
        for name in ("L_series", "C_series", "L_tank", "C_tank"):
            assert getattr(back, name) == pytest.approx(getattr(c, name), rel=1e-9)


# A 1.83 m cell whose slot width lies 2.9e-6*period below the period.  Its
# L_series once re-extracted 7.5e-6 off and was refused, while ln(1/sin x)
# was computed as -log(sin x) and lost precision as x neared pi/2.
WIDE_SLOT_CELL = (
    ExtractedCircuit(3.794784692314804e-18, 2.39159903809271e-19,
                     4.3192052583984786e-11, 2.9251077441075754e-12),
    1.8327341749591244,
)


def _assert_re_extracts(c, geom):
    """The geometry re-extracts to the circuit within the conditioning of
    the grid formulas: a strip inductance moves by 2*dw/(a - w) relative
    as its width w nears the period a, so allow four float steps of the
    period there."""
    back = extract_circuit(geom)
    a = geom.period
    widths = {"L_series": geom.jc_slot, "L_tank": geom.jc_gap}
    for name in ("L_series", "C_series", "L_tank", "C_tank"):
        bound = 1e-14
        if name in widths:
            bound = max(bound, 4.0 * math.ulp(a) / (a - widths[name]))
        want = getattr(c, name)
        assert abs(getattr(back, name) - want) <= bound * want, name


def test_geometry_from_circuit_reference_roundtrip(ref_geometry, ref_substrate):
    c = extract_circuit(ref_geometry)
    geom = geometry_from_circuit(c, 8.5e-3, ref_substrate)
    assert geom.jc_slot == pytest.approx(0.3e-3, abs=1e-7)
    assert geom.jc_gap == pytest.approx(0.5e-3, abs=1e-7)
    assert geom.hat_length == pytest.approx(6.8e-3, abs=1e-7)
    assert geom.cross_slot == pytest.approx(0.2e-3, abs=1e-7)
    _assert_re_extracts(c, geom)


def test_geometry_from_circuit_re_extraction_miss(ref_substrate):
    # the cell that once missed its re-extraction is answered, and its
    # L_series comes back within the conditioning of a slot this wide
    wide = geometry_from_circuit(*WIDE_SLOT_CELL, ref_substrate)
    assert 2e-6 < 1.0 - wide.jc_slot / wide.period < 4e-6
    _assert_re_extracts(WIDE_SLOT_CELL[0], wide)


def test_geometry_roundtrip_random(rng):
    for _ in range(300):
        a = rng.uniform(3e-3, 12e-3)
        geom = FirstOrderGeometry(
            period=a,
            hat_length=rng.uniform(0.2, 0.9) * a,
            jc_slot=rng.uniform(0.01, 0.3) * a,
            cross_slot=rng.uniform(0.01, 0.15) * a,
            jc_gap=rng.uniform(0.02, 0.3) * a,
            thickness=1e-3,
            eps_r=rng.uniform(2.0, 12.0),
        )
        c = extract_circuit(geom)
        back = geometry_from_circuit(c, a, Substrate(geom.thickness, geom.eps_r))
        for name in ("period", "hat_length", "jc_slot", "cross_slot", "jc_gap"):
            assert getattr(back, name) == pytest.approx(getattr(geom, name), rel=1e-6)


def test_geometry_from_circuit_unattainable_inductance(ref_substrate):
    # an 8.5 mm cell cannot produce 60 nH of grid inductance
    c = ExtractedCircuit(60e-9, 0.5e-12, 4e-9, 0.35e-12)
    with pytest.raises(UnattainableDimensionError) as info:
        geometry_from_circuit(c, 8.5e-3, ref_substrate)
    assert info.value.parameter == "jc_slot"
    assert info.value.attainable is not None


def test_geometry_from_circuit_unattainable_hat(ref_substrate):
    c = ExtractedCircuit(4.9e-9, 40e-12, 4e-9, 0.35e-12)
    with pytest.raises(UnattainableDimensionError) as info:
        geometry_from_circuit(c, 8.5e-3, ref_substrate)
    assert info.value.parameter == "hat_length"


def test_geometry_from_circuit_refuses_a_parasitic_inductance(ref_substrate):
    # the grid formulas extract no parasitic: the cell inverted from this
    # circuit re-extracted with L_parasitic = 0, and no error was raised
    c = ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, L_parasitic=2e-9)
    with pytest.raises(UnattainableDimensionError) as info:
        geometry_from_circuit(c, 8.5e-3, ref_substrate)
    assert info.value.parameter == "L_parasitic"
    assert info.value.attainable == (0.0, 0.0)
    assert str(info.value).startswith("L_parasitic=2.0000e-09 ")
    assert geometry_from_circuit(replace(c, L_parasitic=0.0), 8.5e-3, ref_substrate)


@pytest.mark.parametrize("period", [1e-9, 8.5e-8, 1e-6, 3e-6, 1e-5, 1e-4, 8.5e-3, 1.0])
def test_geometry_roundtrip_across_scales(period):
    # the bisection ends at adjacent floats, so the inverse is exact to the
    # float format at every period; the first cell is the reference cell
    # scaled to the period
    rng = np.random.default_rng(2718)
    a = period
    cells = [FirstOrderGeometry(a, 0.8 * a, a * 0.3 / 8.5, a * 0.2 / 8.5, a * 0.5 / 8.5,
                                0.635e-3, 10.2)]
    for _ in range(200):
        cells.append(FirstOrderGeometry(
            period=a,
            hat_length=rng.uniform(0.2, 0.9) * a,
            jc_slot=rng.uniform(0.01, 0.3) * a,
            cross_slot=rng.uniform(0.01, 0.15) * a,
            jc_gap=rng.uniform(0.02, 0.3) * a,
            thickness=1e-3,
            eps_r=rng.uniform(2.0, 12.0),
        ))
    for geom in cells:
        back = geometry_from_circuit(
            extract_circuit(geom), a, Substrate(geom.thickness, geom.eps_r)
        )
        for name in ("hat_length", "jc_slot", "cross_slot", "jc_gap"):
            assert getattr(back, name) == pytest.approx(getattr(geom, name), rel=1e-14)


def test_geometry_from_circuit_period_too_small_for_the_grid_formulas(ref_circuit, ref_substrate):
    # the narrowest trial slot, period * 1e-9, underflowed to 0 on a 5e-324 m
    # period; the length range refuses the period first
    with pytest.raises(InvalidParameterError) as info:
        geometry_from_circuit(ref_circuit, 5e-324, ref_substrate)
    assert str(info.value) == "period must lie in [1e-15, 10] m, got 5e-324"


def test_hat_length_closed_form(ref_geometry, ref_substrate):
    from scipy.constants import epsilon_0

    c = extract_circuit(ref_geometry)
    geom = geometry_from_circuit(c, 8.5e-3, ref_substrate)
    er_eff = (10.2 + 1) / 2
    ln_csc = math.log(1 / math.sin(math.pi * geom.jc_gap / (2 * 8.5e-3)))
    expected = c.C_series * math.pi / (2 * epsilon_0 * er_eff * ln_csc)
    assert geom.hat_length == pytest.approx(expected, rel=1e-12)


def test_bisection_iteration_budget():
    calls = 0

    def func(x):
        nonlocal calls
        calls += 1
        return 1.0 / x

    lo, hi = 1e-3, 1.0
    root = _bisect_decreasing(func, 2.0, lo, hi, parameter="x", target_name="f")
    assert abs(root - 0.5) <= math.ulp(0.5)
    # two bracket evaluations, one halving per bit between the bracket width
    # and the root's ulp, and one more where the midpoint rounds
    assert calls <= 2 + math.ceil(math.log2((hi - lo) / math.ulp(0.5))) + 1


WEAK_PARASITIC = {
    "L_series": 4.918e-9,
    "C_series": 0.5115e-12,
    "L_tank": 4.0512e-9,
    "C_tank": 0.3102e-12,
    "L_parasitic": 25e-9,
}


def _weak_parasitic_data(sub, f_start=1e9, n_points=801):
    """The weak-parasitic circuit from ``f_start`` to 8 GHz: its null at
    3.17 GHz lies in the default span and below a start of 4 GHz."""
    stack = build_first_order(ExtractedCircuit(**WEAK_PARASITIC), sub)
    return sweep(stack, f_start, 8e9, n_points)


def test_fit_self_consistency(ref_substrate):
    """Recover all five values from a deterministic +-10% start.

    Local refinement region measured empirically; see the fit docstring for
    why resonant responses bound the usable start radius.
    """
    data = _weak_parasitic_data(ref_substrate)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    result = fit_circuit(data, "first_order", initial, ref_substrate)
    assert result.rms_residual < 1e-8
    for name, truth in WEAK_PARASITIC.items():
        assert result.params[name] == pytest.approx(truth, rel=1e-2)


def test_fit_noise_injection(ref_substrate, rng):
    data = _weak_parasitic_data(ref_substrate)
    noise = 1e-3 * (rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data)))
    noisy = ResponseTable(data.frequency, data.s11, data.s21 + noise)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    result = fit_circuit(noisy, "first_order", initial, ref_substrate)
    # residual lands at the injected noise floor (~1.41e-3 for re+im parts)
    assert result.rms_residual == pytest.approx(1.41e-3, rel=0.15)
    for name, truth in WEAK_PARASITIC.items():
        assert result.params[name] == pytest.approx(truth, rel=0.05)


def test_fit_of_data_without_a_parasitic_is_not_paced_by_it(ref_substrate):
    # demo 06's bench trace (a lossy sweep of the tuned design with no
    # parasitic, 2e-3 ripple) fitted unsmoothed from the grid-formula
    # extraction with a weak 50 nH parasitic.  The data do not determine
    # L_parasitic; it must not slow the other four elements down.
    truth = {"L_series": 4.9e-9, "C_series": 0.5e-12, "L_tank": 4e-9, "C_tank": 0.35e-12}
    stack = build_first_order(ExtractedCircuit(**truth, L_parasitic=0.0), ref_substrate,
                              dielectric_loss=True)
    table = sweep(stack, 1e9, 8e9, 801)
    rng = np.random.default_rng(3)
    ripple = 2e-3 * (rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table)))
    bench = ResponseTable(table.frequency, table.s11, table.s21 + ripple)
    seed = extract_circuit(FirstOrderGeometry(
        period=8.5e-3, hat_length=6.8e-3, jc_slot=0.3e-3, cross_slot=0.2e-3,
        jc_gap=0.5e-3, thickness=0.635e-3, eps_r=10.2, tan_delta=0.0023,
    ))
    initial = dict(asdict(seed), L_parasitic=50e-9)
    result = fit_circuit(bench, "first_order", initial, ref_substrate, dielectric_loss=True,
                         max_iter=300)
    assert result.iterations <= 75
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=1e-4), name


def test_fit_damps_a_step_whose_solve_fails(ref_substrate, monkeypatch):
    # The first damped normal system is answered with NaN, as the solve
    # answers a pivot that is not positive: the trial is rejected like a
    # step that raises the cost, the damping grows, and the fit converges
    # as before.
    solve = synthesis._solve
    calls = []

    def failing_once(a, b):
        calls.append(a)
        return solve(a, b) if len(calls) > 1 else np.full_like(b, np.nan)

    monkeypatch.setattr(synthesis, "_solve", failing_once)
    data = _weak_parasitic_data(ref_substrate)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    result = fit_circuit(data, "first_order", initial, ref_substrate)
    # the second solve ran at ten times the first damping
    first, second = (np.diag(a) for a in calls[:2])
    np.testing.assert_allclose(second, first / 1.01 * 1.1, rtol=1e-12)
    assert result.rms_residual < 1e-8
    for name, truth in WEAK_PARASITIC.items():
        assert result.params[name] == pytest.approx(truth, rel=1e-2)


def test_fit_zero_iteration_cap(ref_substrate):
    data = _weak_parasitic_data(ref_substrate)
    initial = {k: v * 1.05 for k, v in WEAK_PARASITIC.items()}
    result = fit_circuit(data, "first_order", initial, ref_substrate, max_iter=0)
    assert result.iterations == 0
    assert len(result.trace) == 1
    for name in WEAK_PARASITIC:
        assert result.params[name] == initial[name]
    assert result.rms_residual > 0.0


def _second_order_problem():
    """A lossless second-order truth, its data and a +-10% start."""
    sub = Substrate(3.4e-3, 10.2)
    truth = {
        "L_outer_a": 4.9e-9,
        "C_outer_a": 0.5e-12,
        "L_outer_b": 2.0e-9,
        "C_outer_b": 0.5e-12,
        "L_tank": 2.5e-9,
        "C_tank": 0.30e-12,
    }
    stack = build_second_order(
        (SeriesLC(truth["L_outer_a"], truth["C_outer_a"]),
         SeriesLC(truth["L_outer_b"], truth["C_outer_b"])),
        Tank(truth["L_tank"], truth["C_tank"]),
        sub,
    )
    data = sweep(stack, 1.5e9, 4.9e9, 801)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10, 0.90)
    initial = {k: v * s for (k, v), s in zip(truth.items(), pattern)}
    return sub, truth, data, initial


def test_fit_second_order_template():
    sub, truth, data, initial = _second_order_problem()
    result = fit_circuit(data, "second_order", initial, sub)
    assert result.rms_residual < 1e-8
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=1e-2)


def test_fit_magnitude_only_mode(ref_substrate):
    data = _weak_parasitic_data(ref_substrate)
    initial = {k: v * 1.02 for k, v in WEAK_PARASITIC.items()}
    result = fit_circuit(
        data, "first_order", initial, ref_substrate, magnitude_only=True
    )
    assert result.rms_residual < 1e-6
    for name, truth in WEAK_PARASITIC.items():
        assert result.params[name] == pytest.approx(truth, rel=0.02)


def test_fit_returns_positive_values(ref_substrate):
    data = _weak_parasitic_data(ref_substrate)
    initial = {k: v * 3.0 for k, v in WEAK_PARASITIC.items()}
    try:
        result = fit_circuit(data, "first_order", initial, ref_substrate, max_iter=30)
        params = result.params
    except DivergedFitError as exc:
        params = exc.best
    assert all(v > 0.0 for v in params.values())


def test_fit_diverged_error_payload(ref_substrate):
    data = _weak_parasitic_data(ref_substrate, f_start=4e9)  # no null: no anchor
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    with pytest.raises(DivergedFitError) as info:
        fit_circuit(data, "first_order", initial, ref_substrate, max_iter=2)
    assert len(info.value.trace) == 3  # initial rms plus two accepted steps
    assert set(info.value.best) == set(WEAK_PARASITIC)


@pytest.mark.parametrize("max_iter", [1, 3])
def test_fit_capped_by_max_iter_carries_the_last_accepted_point(ref_substrate, max_iter):
    data = _weak_parasitic_data(ref_substrate, f_start=4e9)  # no null: no anchor
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    with pytest.raises(DivergedFitError) as info:
        fit_circuit(data, "first_order", initial, ref_substrate, max_iter=max_iter)
    trace, best = info.value.trace, info.value.best
    assert len(trace) == max_iter + 1
    assert all(b < a for a, b in zip(trace, trace[1:]))
    # best is the point whose residual ends the trace, to the bit
    at_best = fit_circuit(data, "first_order", best, ref_substrate, max_iter=0)
    assert at_best.rms_residual == trace[-1]


def test_fit_capped_on_the_anchored_path_counts_the_anchor(ref_substrate):
    # the anchor is the first of the three accepted steps, the anchored
    # stage takes the other two, and the free stage none
    data = _weak_parasitic_data(ref_substrate)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    with pytest.raises(DivergedFitError, match="^fit did not converge within 3 iterations") as info:
        fit_circuit(data, "first_order", initial, ref_substrate, max_iter=3)
    trace, best = info.value.trace, info.value.best
    assert len(trace) == 4
    assert all(b < a for a, b in zip(trace, trace[1:]))
    q = 1.0 / (2.0 * math.pi * synthesis._null_frequency(data.frequency, data.s21)) ** 2
    assert best["C_series"] == q / best["L_series"]
    at_best = fit_circuit(data, "first_order", best, ref_substrate, max_iter=0)
    assert at_best.rms_residual == trace[-1]


def test_fit_with_no_improving_step_returns_the_start(ref_circuit, ref_substrate):
    # data generated at the start match the model there exactly, so no step
    # can lower the zero cost and the start itself is returned after no
    # iteration, although exp(log(v)) != v for each of its values
    start = {n: getattr(ref_circuit, n) for n in WEAK_PARASITIC}
    assert all(math.exp(math.log(v)) != v for v in start.values())
    stack = build_first_order(ExtractedCircuit(**start), ref_substrate)
    data = sweep(stack, 1e9, 8e9, 801)
    result = fit_circuit(data, "first_order", start, ref_substrate)
    assert result.iterations == 0
    assert result.trace == (result.rms_residual,) == (0.0,)
    assert result.params == start
    # the data's null is found, but the anchored start cannot lower a zero cost
    assert synthesis._null_frequency(data.frequency, data.s21) is not None
    assert result.f_null is None


def test_fit_input_validation(ref_substrate):
    data = _weak_parasitic_data(ref_substrate)
    with pytest.raises(InvalidParameterError):
        fit_circuit(data, "third_order", dict(WEAK_PARASITIC), ref_substrate)
    with pytest.raises(InvalidParameterError):
        fit_circuit(data, ["first_order"], dict(WEAK_PARASITIC), ref_substrate)
    with pytest.raises(InvalidParameterError):
        fit_circuit(data, "first_order", {"L_series": 1e-9}, ref_substrate)
    bad = dict(WEAK_PARASITIC, L_series=-1e-9)
    with pytest.raises(InvalidParameterError):
        fit_circuit(data, "first_order", bad, ref_substrate)
    with pytest.raises(InvalidParameterError, match=r"max_iter must lie in \[0, inf\], got -1"):
        fit_circuit(data, "first_order", dict(WEAK_PARASITIC), ref_substrate, max_iter=-1)
    # range() refused the floats with a bare TypeError, and True ran one iteration
    for max_iter in (2.5, math.inf, True):
        with pytest.raises(InvalidParameterError,
                           match=f"^max_iter must be an integer, got {max_iter!r}$"):
            fit_circuit(data, "first_order", dict(WEAK_PARASITIC), ref_substrate,
                        max_iter=max_iter)


@pytest.mark.parametrize("level", [1e154, 1e160], ids=["1e154", "1e160"])
@pytest.mark.parametrize("magnitude_only", [False, True], ids=["complex", "magnitude"])
def test_fit_refuses_data_whose_sum_of_squares_overflows(ref_substrate, magnitude_only, level):
    # finite data pass the finiteness check, but each square (1e160) or only
    # their sum (1e154 at 101 samples) passes the float range: the fit
    # returned rms inf after 0 iterations, with an overflow RuntimeWarning
    freqs = np.linspace(1e9, 8e9, 101)
    s21 = np.full(101, level + 0j)
    table = ResponseTable(freqs, np.zeros(101, complex), s21)
    with pytest.raises(InvalidParameterError) as info:
        fit_circuit(table, "first_order", dict(WEAK_PARASITIC), ref_substrate,
                    magnitude_only=magnitude_only, max_iter=5)
    assert str(info.value) == "the residual's sum of squares at the start overflows"


def test_null_test_median_has_np_median_bits():
    # the null test forms its median with np.partition, since np.median
    # imports numpy.ma at its first call; the bits are np.median's on odd
    # and even sizes, with ties, infinities and sums past the float range
    rng = np.random.default_rng(47)
    compared = 0
    for n in [1, 2, 3, 4, 5, *rng.integers(6, 3000, 40)]:
        for case in range(4):
            x = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-300, 300, n)
            if case == 1:
                x[rng.integers(0, n, max(1, n // 3))] = np.inf
            elif case == 2:
                x = rng.integers(0, 4, n).astype(float)  # ties
            elif case == 3:
                x = np.full(n, np.finfo(float).max)  # a middle pair sums to inf
            got = synthesis._median(x)
            with np.errstate(over="ignore"):
                want = np.median(x)
            assert type(got) is np.float64
            assert got.tobytes() == want.tobytes(), (n, case)
            compared += 1
    assert compared == 45 * 4


@pytest.mark.parametrize("template, n_lines", [("first_order", 1), ("second_order", 2)])
def test_a_fit_forms_its_line_terms_once(ref_substrate, monkeypatch, template, n_lines):
    """However many models a fit evaluates, each line's terms are formed
    once, and every evaluation is passed the same read-only arrays."""
    if template == "first_order":
        sub, data = ref_substrate, _weak_parasitic_data(ref_substrate)
        initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    else:
        sub, _, data, initial = _second_order_problem()
    media, passed = [], []
    line_media, engine = topology._line_media, topology._block_response

    def counted(*args):
        media.append(args)
        return line_media(*args)

    def recorded(terms, port, freqs, *out):
        passed.append(terms[1::2])  # the line terms
        return engine(terms, port, freqs, *out)

    monkeypatch.setattr(topology, "_line_media", counted)
    monkeypatch.setattr(topology, "_block_response", recorded)
    result = fit_circuit(data, template, initial, sub, dielectric_loss=True)
    assert len(media) == n_lines
    # each accepted step differences every parameter and tries a step
    assert len(passed) > len(initial) * result.iterations > 0
    # a block's line terms are views of the arrays formed at the start
    assert all(np.shares_memory(term, formed)
               for terms in passed for line, first in zip(terms, passed[0])
               for term, formed in zip(line, first))
    assert len(passed[0]) == n_lines
    assert not any(term.flags.writeable for line in passed[0] for term in line)


def _template_problem(template):
    """The element names, substrate, incidence and line substrates of a
    template's test stacks."""
    sub = Substrate(0.635e-3, 10.2, 0.0023)
    subs = (sub,) if template == "first_order" else (sub, sub)
    return synthesis.TEMPLATES[template], sub, Incidence(0.3, "TM"), subs


@pytest.mark.parametrize("template", ["first_order", "second_order"])
def test_template_terms_have_the_bits_of_the_built_stack(template):
    """A fit's template map forms each node's susceptance with the bits that
    ``_susceptance_array`` gives on ``_build_template``'s stack: at seeded
    values, at the ends of the element ranges, and where the first series
    branch is exactly short on the grid (w*L = 1/(w*C) = 1 at w = 2**15)."""
    names, sub, inc, subs = _template_problem(template)
    rng = np.random.default_rng(52)
    u = 2.0**-15
    f_short = 1.0 / (2.0 * math.pi * u)
    freqs = np.sort(np.concatenate([10.0 ** rng.uniform(3.0, 15.0, 60), [1e3, f_short, 1e15]]))
    w = 2.0 * math.pi * freqs
    lines = _line_terms(subs, inc, True, freqs)
    shorts = 0
    for k in range(60):
        values = []
        for name in names:
            lo, hi, _ = RANGES["inductance" if name[0] == "L" else "capacitance"]
            edge = rng.integers(4)  # one value in four at an end of its range
            values.append(lo if edge == 0 and k % 2 else hi if edge == 0 else
                          10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))
        if k % 3 == 0:
            values[:2] = u, u
        values = np.array(values)
        with np.errstate(**topology._QUIET):
            got = synthesis._template_terms(template, values, w, lines)
            stack = synthesis._build_template(template, dict(zip(names, values)), sub, inc, True)
            want = [_susceptance_array(node, w) for node in stack.layers[::2]]
        assert [t.tobytes() for t in got[::2]] == [t.tobytes() for t in want], k
        assert all(a is b for a, b in zip(got[1::2], lines))
        shorts += not all(np.isfinite(node).all() for node in got[::2])
    assert shorts >= 20


@pytest.mark.parametrize("template", ["first_order", "second_order"])
def test_template_range_check_refuses_what_the_constructors_refuse(template):
    # the constructors refused each value out of range, and from_logs
    # refused a 0.0 L_parasitic, which the first-order builder omits
    names, sub, inc, subs = _template_problem(template)
    base = WEAK_PARASITIC if template == "first_order" else _second_order_problem()[1]
    freqs = np.array([1e9, 2e9])
    lines = _line_terms(subs, inc, False, freqs)

    def refused(call):
        try:
            call()
        except InvalidParameterError:
            return True
        return False

    for name in names:
        lo, hi, _ = RANGES["inductance" if name[0] == "L" else "capacitance"]
        for v in (lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf),
                  0.0, math.inf, math.nan):
            values = dict(base, **{name: v})
            mapped = refused(lambda: synthesis._template_terms(
                template, np.array(list(values.values())), 2.0 * math.pi * freqs, lines))
            built = refused(lambda: synthesis._build_template(template, values, sub, inc, False))
            assert mapped == (built or (name == "L_parasitic" and v == 0.0)), (name, v)
            assert mapped == (v not in (lo, hi)), (name, v)


@pytest.mark.parametrize("template", ["first_order", "second_order"])
def test_a_fit_builds_no_stack_or_branch(ref_substrate, monkeypatch, template):
    """A fit evaluates element vectors: no evaluation runs a constructor's
    checks, as building each model's stack did."""
    if template == "first_order":
        sub, data = ref_substrate, _weak_parasitic_data(ref_substrate)
        initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    else:
        sub, _, data, initial = _second_order_problem()
    built = []
    for cls in (FssStack, lumped._LC, Inductor, Parallel, ExtractedCircuit):
        def counted(self, post=cls.__post_init__):
            built.append(type(self).__name__)
            post(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    result = fit_circuit(data, template, initial, sub, dielectric_loss=True)
    assert result.iterations > 0
    assert built == []
    synthesis._build_template(template, initial, sub, Incidence(), True)
    assert "FssStack" in built and "Parallel" in built


def test_an_anchored_trial_whose_series_inductance_underflows_is_refused(
        ref_substrate, monkeypatch):
    # exp(-800) underflows to 0.0: the anchored stage's C_series = q / L_series
    # would divide by it, and the free stage's range check refuses it
    refusals = []
    loop = synthesis._damped_least_squares

    def probing(evaluate, theta, point, n, max_iter):
        refusals.append(evaluate(np.concatenate([[-800.0], theta[1:]])))
        return loop(evaluate, theta, point, n, max_iter)

    monkeypatch.setattr(synthesis, "_damped_least_squares", probing)
    data = _weak_parasitic_data(ref_substrate)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    result = fit_circuit(data, "first_order", initial, ref_substrate)
    assert result.f_null is not None
    assert refusals == [None, None]


@pytest.mark.parametrize("template", ["first_order", "second_order"])
def test_a_fit_evaluates_its_grid_in_blocks(ref_substrate, monkeypatch, template):
    """A fit's evaluations run the chain a block at a time, as a response
    does, so its temporaries stay bounded on a long grid; the bits are
    those of one block over the whole grid."""
    if template == "first_order":
        sub, data = ref_substrate, _weak_parasitic_data(ref_substrate)
        initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    else:
        sub, _, data, initial = _second_order_problem()
    whole = fit_circuit(data, template, initial, sub, dielectric_loss=True)
    sizes, engine = [], topology._block_response

    def recorded(terms, port, freqs, *out):
        sizes.append(freqs.size)
        return engine(terms, port, freqs, *out)

    monkeypatch.setattr(topology, "_block_response", recorded)
    monkeypatch.setattr(topology, "_BLOCK", 100)
    blocked = fit_circuit(data, template, initial, sub, dielectric_loss=True)
    assert max(sizes) == 100 and data.frequency.size > 100
    assert _fit_digest(blocked) == _fit_digest(whole)


def test_a_fit_takes_an_unbounded_integer_cap(ref_substrate):
    # max_iter has no upper bound: 10**400 is beyond the float range and
    # caps nothing, as the default cap of a converging fit does not
    data = _weak_parasitic_data(ref_substrate)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    capped = fit_circuit(data, "first_order", initial, ref_substrate, max_iter=10**400)
    assert _fit_digest(capped) == _fit_digest(fit_circuit(data, "first_order", initial, ref_substrate))


def _fit_digest(result):
    """SHA-256 of the repr of a fit's element values and residual trace;
    repr is each float's shortest exact form, so equal digests mean equal
    bits."""
    key = repr(([float(v) for v in result.params.values()], list(result.trace)))
    return hashlib.sha256(key.encode()).hexdigest()


# (f_start, n_points) of each first-order grid, and where its deepest
# sample lies: 4-8 GHz lies above the 3.17 GHz null; from 3.18 GHz the
# first sample is far under the median but at the edge; 15 points skip
# the null, and their deepest sample lies only 18.3 dB under the median.
_UNANCHORED_GRIDS = {
    "no-null": ((4e9, 801), "edge", False),
    "null-at-the-edge": ((3.18e9, 801), "edge", True),
    "shallow-dip": ((1e9, 15), "inside", False),
}


@pytest.mark.parametrize("case, iterations, digest", [
    ("no-null", 26, "172c538b1610f0b9477367d938a54930be622410983f79e657b82df34c8283b3"),
    ("null-at-the-edge", 12, "c09fea40e1474028b399509ab8c13100d5212cb3e7b5337f0a15379e59d996d7"),
    ("shallow-dip", 10, "8d26abd350c385972b81d708d64b9f5ef911484274a4d1f25aa8e7fa97a2dae7"),
    ("second-order", 9, "4c32b7773b2bbd688ea64f06cc1173d14e25093d1c023b73e78237612e73c0c8"),
])
def test_fits_without_an_anchor_keep_the_bits_of_the_single_stage_fitter(
    ref_substrate, case, iterations, digest
):
    # each digest was recorded from the fitter before it had an anchored
    # stage: a fit that takes no anchor runs the same free loop
    if case == "second-order":
        sub, _, data, initial = _second_order_problem()
        result = fit_circuit(data, "second_order", initial, sub)
    else:
        grid, where, deep = _UNANCHORED_GRIDS[case]
        data = _weak_parasitic_data(ref_substrate, *grid)
        db = 20.0 * np.log10(np.abs(data.s21))
        j = int(np.argmin(db))
        assert ("edge" if j in (0, db.size - 1) else "inside") == where
        assert (db[j] <= np.median(db) - synthesis.NULL_DEPTH_DB) == deep
        pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
        initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
        result = fit_circuit(data, "first_order", initial, ref_substrate)
    assert result.f_null is None
    assert result.iterations == iterations
    assert _fit_digest(result) == digest


def _lossy_fit_digest(template, polarization, mode, n_points):
    """Digest of a seeded lossy fit from a +-10% start, on data with 2e-3
    complex noise."""
    if template == "first_order":
        sub, truth, span = Substrate(0.635e-3, 10.2, 0.0023), WEAK_PARASITIC, (1e9, 8e9)
        initial = {k: v * s for (k, v), s in zip(truth.items(), (1.1, 0.9, 1.1, 0.9, 1.1))}
    else:
        _, truth, _, initial = _second_order_problem()
        sub, span = Substrate(3.4e-3, 10.2, 0.0023), (1.5e9, 4.9e9)
    inc = Incidence(0.0, "TE") if polarization == "TE" else Incidence(math.radians(45.0), "TM")
    freqs = np.linspace(*span, n_points)
    s11, s21 = stack_response(synthesis._build_template(template, truth, sub, inc, True), freqs)
    rng = np.random.default_rng(n_points)
    s21 = s21 + 2e-3 * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
    result = fit_circuit(ResponseTable(freqs, s11, s21), template, initial, sub, inc,
                         dielectric_loss=True, magnitude_only=mode == "magnitude",
                         smooth_hz=0.1e9 if mode == "smoothed" else None)
    assert result.rms_residual < 3e-3
    return _fit_digest(result)


# each digest was recorded from the fitter whose every model evaluation
# formed its own line terms
@pytest.mark.parametrize("template, polarization, mode, n_points, digest", [
    ("first_order", "TE", "complex", 201,
     "67ca29add454865a648432c8b680326fa4eaee4f38e03021c77d8c59a972ccc6"),
    ("first_order", "TE", "magnitude", 201,
     "28aaab40ec9f73bae3d98557cd404a9f44a08974f93eba2a1985ebca70f13996"),
    ("first_order", "TE", "smoothed", 201,
     "00f7515e0443703bef20d93c30951424f6b73bddaee30788563bb706d2d18566"),
    ("first_order", "TM", "complex", 201,
     "f0df44fe6f1ed957b2a029067e4a732da7d20dab970883351b57c8bf204bf968"),
    ("first_order", "TM", "magnitude", 201,
     "ae1ffd108375a7a3524495720070ccc6c38f3146909c91284363fb3d2eea6f53"),
    ("first_order", "TM", "smoothed", 201,
     "fd63dfe7e5ca628afc6410ec4785ea9f25f8ec46ded5c16d7a8597ab38af4692"),
    ("second_order", "TE", "complex", 201,
     "743e0f48af5c9833a2f4e7960e073ca7b2db26c210cd7a4721d1d1e14ab1aff9"),
    ("second_order", "TE", "magnitude", 201,
     "e83c8f0b72d765f36e15d0b72db160475a67ee48397483daf89bb897fe517bde"),
    ("second_order", "TE", "smoothed", 201,
     "286966a844e3f53bc66f7975ab98caa17cac1e52d47a1db72ec39dce4c2bc431"),
    ("second_order", "TM", "complex", 201,
     "67c78484bf550701b760156450f21a04656928ca13d129fc18087f735a9ccb8a"),
    ("second_order", "TM", "magnitude", 201,
     "9672c4cd5602d723687a781bd9f1ff72fb7908a57334546eab64e6a209843cfa"),
    ("second_order", "TM", "smoothed", 201,
     "671e1658e74c65ec853b28289f6535dfeb7272c80f4568803953e3aeab11de9a"),
    # two blocks of the engine and 17 rows more
    ("first_order", "TM", "complex", 2 * 4096 + 17,
     "19c571d48bc37e3f25ea3105daed75eae1870fbac3fb53b3614143a051df0c0f"),
])
def test_lossy_fits_keep_their_bits(template, polarization, mode, n_points, digest):
    assert _lossy_fit_digest(template, polarization, mode, n_points) == digest


def _panel_problem(k, ref_circuit, sub):
    """Noisy first-order data drawn like the benchmark's fit panel: a truth
    within 15% of the reference circuit on a lossy line, 801 points over
    1-8 GHz with 2e-3 complex noise per component, and a start within 10%
    of the truth.  Returns the data, start, truth and rms noise."""
    rng = np.random.default_rng([42, k])
    truth = {n: v * (1.0 + rng.uniform(-0.15, 0.15)) for n, v in asdict(ref_circuit).items()}
    start = {n: v * math.exp(rng.uniform(math.log(0.9), math.log(1.1))) for n, v in truth.items()}
    freqs = np.linspace(1e9, 8e9, 801)
    stack = build_first_order(ExtractedCircuit(**truth), sub, dielectric_loss=True)
    s11, s21 = stack_response(stack, freqs)
    noise = 2e-3 * (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
    floor = math.sqrt(float(np.mean(np.abs(noise) ** 2)))
    return ResponseTable(freqs, s11, s21 + noise), start, truth, floor


# Without the anchor each of these problems ended in a wrong basin, with
# some element off by a factor of 30 to 2.3e5.
@pytest.mark.parametrize("k", [0, 1, 4, 5, 6, 7, 9, 11])
def test_anchored_fit_recovers_first_order_problems_that_fail_unanchored(
    ref_circuit, ref_substrate, k
):
    data, start, truth, floor = _panel_problem(k, ref_circuit, ref_substrate)
    result = fit_circuit(data, "first_order", start, ref_substrate, dielectric_loss=True)
    assert result.f_null is not None
    assert result.rms_residual <= 1.5 * floor
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=0.02), name


def test_the_anchor_holds_the_series_product_at_the_refined_null(ref_circuit, ref_substrate):
    data, start, truth, _ = _panel_problem(0, ref_circuit, ref_substrate)
    result = fit_circuit(data, "first_order", start, ref_substrate, dielectric_loss=True)
    # the null of the table's own |S21|^2, to rounding: the fit squares S21
    # with products and sums, np.abs takes a hypot
    power = np.abs(data.s21) ** 2
    refined = _refine_quadratic(data.frequency, power, int(np.argmin(power)))[0]
    assert result.f_null == pytest.approx(refined, rel=1e-12)
    q = 1.0 / (2.0 * math.pi * result.f_null) ** 2
    assert q == pytest.approx(truth["L_series"] * truth["C_series"], rel=2e-2)
    # a cap of one accepted step stops at the anchor: the start with
    # C_series = q / L_series, which lowers the residual
    with pytest.raises(DivergedFitError) as info:
        fit_circuit(data, "first_order", start, ref_substrate, dielectric_loss=True, max_iter=1)
    assert info.value.best == dict(start, C_series=q / start["L_series"])
    assert info.value.trace[1] < info.value.trace[0]


def test_an_anchor_outside_the_capacitance_range_is_refused(ref_circuit, ref_substrate):
    # a 1 kH series inductor lies in range, but q / L_series does not: the
    # anchor is refused, and the free loop runs from the start
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 8e9, 801)
    start = dict(asdict(ref_circuit), L_series=1e3)
    q = 1.0 / (2.0 * math.pi * synthesis._null_frequency(data.frequency, data.s21)) ** 2
    with pytest.raises(InvalidParameterError,
                       match=r"^initial C_series must lie in \[1e-21, 1e3\] F"):
        fit_circuit(data, "first_order", dict(start, C_series=q / 1e3), ref_substrate, max_iter=0)
    result = fit_circuit(data, "first_order", start, ref_substrate)
    assert result.f_null is None
    assert all(b < a for a, b in zip(result.trace, result.trace[1:]))


def _overflow_threshold(ref_circuit, sub, freqs, lo, hi):
    """The smallest C_tank in [lo, hi] (to ~1e-11 relative) at which the
    reference stack on the lossy line ``sub`` overflows on ``freqs``: the
    tank's admittance is finite there, but the chain product is not."""
    def overflows(c_tank):
        stack = build_first_order(replace(ref_circuit, C_tank=c_tank), sub, dielectric_loss=True)
        try:
            stack_response(stack, freqs)
        except SingularNetworkError:
            return True
        return False

    assert not overflows(lo) and overflows(hi)
    for _ in range(40):
        mid = lo * math.sqrt(hi / lo)
        lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("c_tank", [math.inf, math.nan, 1e295], ids=["inf", "nan", "overflowing"])
def test_fit_refuses_a_start_it_cannot_evaluate(ref_circuit, ref_substrate, c_tank):
    # inf and NaN pass the positivity check but are not values, and at
    # 1e295 F the chain overflowed: the capacitance range refuses each, and
    # the fit reports that refusal
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 12e9, 41)
    start = dict(asdict(ref_circuit), C_tank=c_tank)
    for max_iter in (0, 10):
        with pytest.raises(InvalidParameterError,
                           match=r"^initial C_tank must lie in \[1e-21, 1e3\] F"):
            fit_circuit(data, "first_order", start, ref_substrate, max_iter=max_iter)


def test_fit_refuses_a_start_that_overflows_the_network(ref_circuit, ref_substrate):
    # a start inside the domain on a line too thick and lossy to evaluate:
    # the engine's error, naming the frequency, reaches the caller
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 12e9, 41)
    with pytest.raises(SingularNetworkError) as info:
        fit_circuit(data, "first_order", asdict(ref_circuit), Substrate(1.0, 1e4, 10.0),
                    dielectric_loss=True)
    assert str(info.value) == "network overflows at 1000000000.0 Hz"


@pytest.mark.parametrize("smooth_hz", [None, 0.1e9], ids=["raw", "smoothed"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_fit_refuses_data_that_are_not_finite(ref_circuit, ref_substrate, bad, smooth_hz):
    # one NaN S21 sample returned the start after 0 iterations, with rms nan
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 8e9, 801)
    s21 = data.s21.copy()
    s21[[400, 600]] = bad
    table = ResponseTable(data.frequency, data.s11, s21)
    with pytest.raises(InvalidParameterError) as info:
        fit_circuit(table, "first_order", asdict(ref_circuit), ref_substrate, smooth_hz=smooth_hz)
    assert str(info.value) == f"S21 must be finite, got {s21[400]} at {data.frequency[400]} Hz"


@pytest.mark.parametrize("window", [True, "1e8", 1e8 + 0j], ids=["bool", "str", "complex"])
def test_fit_refuses_a_smoothing_window_that_is_not_a_real_number(ref_substrate, window):
    # True fitted through a 1 Hz window, as if unsmoothed; the others ended
    # in a bare TypeError
    data = _weak_parasitic_data(ref_substrate)
    with pytest.raises(InvalidParameterError) as info:
        fit_circuit(data, "first_order", dict(WEAK_PARASITIC), ref_substrate, max_iter=0,
                    smooth_hz=window)
    assert str(info.value) == f"window must be a real number, got {window!r}"


@pytest.mark.parametrize("value", [True, "x", None], ids=["bool", "str", "None"])
def test_fit_refuses_a_start_value_that_is_not_a_real_number(ref_substrate, value):
    # True started at 1.0 F; "x" and None ended in a bare ValueError or TypeError
    data = _weak_parasitic_data(ref_substrate)
    with pytest.raises(InvalidParameterError) as info:
        fit_circuit(data, "first_order", dict(WEAK_PARASITIC, C_tank=value), ref_substrate,
                    max_iter=0)
    assert str(info.value) == f"initial C_tank must be a real number, got {value!r}"


def test_an_exact_short_in_the_data_anchors_the_fit_at_its_sample(ref_circuit, ref_substrate):
    # the deepest sample is an exact zero, -inf dB: no parabola runs
    # through it, and the null is the sample's own frequency
    f_zero = predict_resonances(ref_circuit).f_zero
    grid = np.union1d(np.linspace(1e9, 8e9, 801), [f_zero])
    data = ResponseTable(grid, *stack_response(build_first_order(ref_circuit, ref_substrate), grid))
    assert data.s21[np.searchsorted(grid, f_zero)] == 0.0
    truth = asdict(ref_circuit)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(truth.items(), pattern)}
    result = fit_circuit(data, "first_order", initial, ref_substrate)
    assert result.f_null == f_zero
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=1e-6), name


def test_smoothed_fit_refuses_data_whose_running_sum_overflows(ref_circuit, ref_substrate):
    # finite data, but 801 samples of 1e306 sum past the float range
    s = np.full(801, 1e306 + 0j)
    table = ResponseTable(np.linspace(1e9, 8e9, 801), s, s)
    with pytest.raises(InvalidParameterError, match="^averaged data must be finite, with a sum"):
        fit_circuit(table, "first_order", asdict(ref_circuit), ref_substrate, smooth_hz=0.1e9)


def test_fit_survives_an_exactly_singular_damped_normal_matrix(ref_circuit):
    # A 1.21 m line with tan_delta = 1 passes S21 ~ 1e-162 at 10-12 GHz, so
    # the Jacobian's squares are subnormal.  The damping 1e-2 * u of a
    # subnormal diagonal entry u rounds to 0, and at dampings 1e-2 and 1e-1
    # the elimination rounds its fourth pivot below 0: the solve answers
    # NaN and the trial is refused.  The cost underflows to 0, and no step
    # at a larger damping can lower it, so the start is returned.
    sub = Substrate(1.21, 10.2, 1.0)
    pulling = build_first_order(replace(ref_circuit, C_tank=0.36e-12), sub, dielectric_loss=True)
    data = sweep(pulling, 10e9, 12e9, 41)
    result = fit_circuit(data, "first_order", asdict(ref_circuit), sub, dielectric_loss=True)
    assert result.iterations == 0
    assert result.trace == (0.0,)


def _exact_solve(a, b):
    """The exact solution of ``a x = b`` in fractions of the float entries,
    by Gauss-Jordan elimination."""
    n = len(b)
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for k in range(n):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


@pytest.mark.parametrize("n", [5, 6])
def test_solve_matches_an_exact_solve_of_a_positive_definite_system(n):
    """``_solve`` against the exact solution x of ``a x = b`` on seeded
    symmetric positive definite systems whose diagonal spans 24 decades, as
    the fitter's damped normal matrices can.  With d = sqrt(diag(a)) and
    h = a / (d d^T), elimination without pivoting has a backward error
    |da| <= gamma_3n |L||U|, and ||(|L||U|) / (d d^T)||_2 <= n ||h||_2 /
    (1 - n gamma_(n+1)), with gamma_k = k u / (1 - k u) and u the unit
    roundoff (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Theorem 9.4 and Section 10.1).  So with
    eta = n gamma_3n kappa_2(h) / (1 - n gamma_(n+1)) < 1 the error obeys
    ||d (x_hat - x)||_2 <= eta / (1 - eta) ||d x||_2."""
    rng = np.random.default_rng(41 + n)
    u = np.finfo(float).eps / 2
    gamma = lambda k: k * u / (1 - k * u)  # noqa: E731
    for _ in range(40):
        g = rng.standard_normal((n, n))
        scale = 10.0 ** rng.uniform(-6, 6, n)
        a = scale[:, None] * (g @ g.T + 1e-3 * np.eye(n)) * scale
        a = (a + a.T) / 2  # symmetric to the bit
        b = rng.standard_normal(n) * scale
        d = np.sqrt(np.diag(a))
        eta = n * gamma(3 * n) * np.linalg.cond(a / np.outer(d, d)) / (1 - n * gamma(n + 1))
        assert eta < 0.5
        exact = _exact_solve(a, b)
        error = [float(Fraction(v) - x) for v, x in zip(synthesis._solve(a, b), exact)]
        bound = eta / (1 - eta) * np.linalg.norm(d * np.array(exact, float))
        assert np.linalg.norm(d * error) <= bound


def test_fit_differences_backward_where_the_forward_bump_overflows(ref_circuit, ref_substrate):
    # A start at the top of the capacitance range evaluates, but its forward
    # C_tank bump leaves the range: that Jacobian column is taken backward.
    # The 1 kF tank shorts the sheet (S21 ~ 1e-24), so no step can move the
    # model and the fit returns its start.
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 12e9, 41)
    start = dict(asdict(ref_circuit), C_tank=RANGES["capacitance"][1])
    result = fit_circuit(data, "first_order", start, ref_substrate)
    assert result.iterations == 0
    assert result.params["C_tank"] == pytest.approx(start["C_tank"], rel=1e-12)
    assert result.rms_residual == pytest.approx(math.sqrt(np.mean(np.abs(data.s21) ** 2)))


def test_fit_damps_a_trial_step_that_overflows_the_network(ref_circuit):
    # A 22 um line with tan_delta = 1 is nearly lossless at 1-8 GHz, but at
    # 1e15 Hz the network overflows once C_tank passes a threshold near
    # 1e-4 F, while S21 at 1-8 GHz still follows C_tank.  Data from twice
    # that C_tank pull the fit across the threshold: each trial step past it
    # cannot be evaluated and is rejected, and the damping grows until a
    # step stays under it.
    sub = Substrate(2.2e-5, 10.2, 1.0)
    low = np.linspace(1e9, 8e9, 15)
    freqs = np.append(low, 1e15)
    threshold = _overflow_threshold(ref_circuit, sub, freqs, 1e-6, 1e-3)
    start = replace(ref_circuit, C_tank=threshold / (1.0 + 5e-7))
    s11, s21 = stack_response(build_first_order(start, sub, dielectric_loss=True), freqs)
    s21 = np.array(s21)  # a writeable copy of the read-only output
    pulling = build_first_order(replace(ref_circuit, C_tank=2.0 * threshold), sub,
                                dielectric_loss=True)
    s21[:-1] = stack_response(pulling, low)[1]
    result = fit_circuit(ResponseTable(freqs, s11, s21), "first_order", asdict(start), sub,
                         dielectric_loss=True)
    assert result.iterations > 0
    assert all(math.isfinite(v) for v in result.trace)
    assert all(b < a for a, b in zip(result.trace, result.trace[1:]))
    assert start.C_tank < result.params["C_tank"] < threshold


@pytest.mark.parametrize(
    "template, magnitude_only",
    [("first_order", False), ("first_order", True),
     ("second_order", False), ("second_order", True)],
    ids=["False", "True", "second_order-False", "second_order-True"],
)
def test_smoothed_fit_of_noise_free_data_from_the_truth_has_zero_residual(
    ref_circuit, ref_substrate, template, magnitude_only
):
    # the model is smoothed like the data, so the truth matches it exactly
    if template == "first_order":  # on a lossy line
        truth = {name: getattr(ref_circuit, name) for name in WEAK_PARASITIC}
        sub, loss, span = ref_substrate, True, (1e9, 8e9)
        stack = build_first_order(ref_circuit, sub, dielectric_loss=loss)
    else:  # the truth and grid of test_fit_second_order_template, on its lossless line
        truth = {"L_outer_a": 4.9e-9, "C_outer_a": 0.5e-12, "L_outer_b": 2.0e-9,
                 "C_outer_b": 0.5e-12, "L_tank": 2.5e-9, "C_tank": 0.30e-12}
        sub, loss, span = Substrate(3.4e-3, 10.2), False, (1.5e9, 4.9e9)
        values = list(truth.values())
        stack = build_second_order((SeriesLC(*values[0:2]), SeriesLC(*values[2:4])),
                                   Tank(*values[4:]), sub)
    data = sweep(stack, *span, 801)
    result = fit_circuit(
        data, template, truth, sub, dielectric_loss=loss,
        magnitude_only=magnitude_only, max_iter=0, smooth_hz=0.1e9,
    )
    assert result.rms_residual == 0.0


def test_zero_iteration_fit_reports_the_residual_of_the_values_it_returns(
    ref_circuit, ref_substrate
):
    # each reference value differs from exp(log(value)) in its last bits, so
    # a residual taken in log space would not be 0 here
    truth = {name: getattr(ref_circuit, name) for name in WEAK_PARASITIC}
    assert any(math.exp(math.log(v)) != v for v in truth.values())
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 8e9, 801)
    result = fit_circuit(data, "first_order", truth, ref_substrate, max_iter=0)
    assert result.params == truth
    assert result.rms_residual == 0.0
    assert result.trace == (0.0,)


def _outcome(fn, *args) -> str:
    """repr of fn(*args), or the exception class and message it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _log_uniform(rng, lo, hi) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _model_output_lines() -> list[str]:
    """The reprs of seeded outcomes (value, or exception class and message)
    of the closed-form model functions, one per line."""
    rng = np.random.default_rng(70707)
    lines = []
    for _ in range(400):
        a = float(rng.uniform(2e-3, 15e-3))
        dims = dict(
            period=a,
            hat_length=float(rng.uniform(0.05, 0.95)) * a,
            jc_slot=float(rng.uniform(0.005, 0.6)) * a,
            cross_slot=float(rng.uniform(0.005, 0.3)) * a,
            jc_gap=float(rng.uniform(0.01, 0.5)) * a,
            thickness=1e-3,
            eps_r=float(rng.uniform(1.0, 12.0)),
        )
        rng.uniform(0.5, 2.0)  # a draw no line uses, kept so the seeded stream stays the same
        try:
            geom = FirstOrderGeometry(**dims)
        except InvalidGeometryError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
            continue
        c = extract_circuit(geom)
        lines.append(repr(c))
        # perturbed circuits reach the unattainable-dimension branches
        scaled = ExtractedCircuit(
            *(getattr(c, n) * _log_uniform(rng, -0.5, 0.5)
              for n in ("L_series", "C_series", "L_tank", "C_tank"))
        )
        sub = Substrate(1e-3, geom.eps_r)
        lines.append(_outcome(geometry_from_circuit, c, a, sub))
        lines.append(_outcome(geometry_from_circuit, scaled, a, sub))
    for _ in range(1500):
        c = ExtractedCircuit(
            _log_uniform(rng, -9.7, -7.7),
            _log_uniform(rng, -13.7, -11.7),
            _log_uniform(rng, -9.7, -7.7),
            _log_uniform(rng, -13.7, -11.7),
            _log_uniform(rng, -10.0, -8.0),
        )
        lines.append(_outcome(predict_resonances, c))
        lines.append(_outcome(exact_poles, c))
        f = _log_uniform(rng, 8.0, 11.0) if rng.uniform() < 0.95 else -1.0
        lines.append(_outcome(surface_impedance, c, f))
        f_lower = _log_uniform(rng, 8.5, 10.0)
        f_upper = f_lower * _log_uniform(rng, 0.05, 1.0)
        f_zero = None if rng.uniform() < 0.5 else f_lower * _log_uniform(rng, 0.0, 1.0)
        targets = (f_lower, f_upper, f_zero, c.L_tank)
        lines.append(_outcome(lambda: circuit_from_targets(DesignTargets(*targets))))
    for k in range(300):
        l1 = _log_uniform(rng, -9.5, -8.0)
        c1 = _log_uniform(rng, -13.5, -12.0)
        l2 = _log_uniform(rng, -9.5, -8.0)
        if k % 3 == 0:
            c2 = _log_uniform(rng, -13.5, -12.0)
        else:
            # branch resonances 1e-7 to 1e-4 apart, around the coincidence limit
            spread = _log_uniform(rng, -7.0, -4.0) * (1.0 if k % 2 else -1.0)
            c2 = l1 * c1 * (1.0 + spread) / l2
        if k % 50 == 7:
            l2 = -l2
        lines.append(_outcome(foster_transform, l1, c1, l2, c2))
    return lines


def test_model_outputs_golden():
    """A refactor of the grid formulas, the resonance relations or the
    hybrid transform must leave every bit and every message unchanged.
    To pin a deliberate change, rewrite the file with
    ``MODEL_GOLDEN.write_text("\\n".join(_model_output_lines()))``."""
    assert_lines_match(_model_output_lines(), MODEL_GOLDEN)


def test_golden_mismatch_names_the_moved_lines(tmp_path):
    lines = _model_output_lines()[:3]
    path = tmp_path / "expected.txt"
    path.write_text("\n".join(lines))
    value = float(lines[0].split("L_series=")[1].split(",")[0])
    lines[0] = lines[0].replace(repr(value), repr(math.nextafter(value, 1.0)))
    with pytest.raises(AssertionError) as info:
        assert_lines_match(lines, path)
    report = str(info.value).splitlines()
    assert report[0] == "expected.txt: 1 of 3 lines moved, the largest numeric move 1 ulps"
    assert report[1:3] == ["line 1:", f"- {path.read_text().splitlines()[0]}"]
    assert report[3] == f"+ {lines[0]}"
