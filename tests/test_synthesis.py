import math
import pathlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from fsskit import (
    DesignTargets,
    ExtractedCircuit,
    FirstOrderGeometry,
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


def _weak_parasitic_data(sub):
    stack = build_first_order(ExtractedCircuit(**WEAK_PARASITIC), sub)
    return sweep(stack, 1e9, 8e9, 801)


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


@pytest.mark.parametrize("failure", ["LinAlgError", "non-finite step"])
def test_fit_damps_a_step_whose_solve_fails(ref_substrate, monkeypatch, failure):
    # The first damped normal system is refused by a stand-in solve, or
    # answered with NaN: the trial is rejected like a step that raises the
    # cost, the damping grows, and the fit converges as before.
    solve = np.linalg.solve
    calls = []

    def failing_once(a, b):
        calls.append(a)
        if len(calls) > 1:
            return solve(a, b)
        if failure == "LinAlgError":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(b, np.nan)

    monkeypatch.setattr(np.linalg, "solve", failing_once)
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


def test_fit_second_order_template():
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
    data = _weak_parasitic_data(ref_substrate)
    pattern = (1.10, 0.90, 1.10, 0.90, 1.10)
    initial = {k: v * s for (k, v), s in zip(WEAK_PARASITIC.items(), pattern)}
    with pytest.raises(DivergedFitError) as info:
        fit_circuit(data, "first_order", initial, ref_substrate, max_iter=2)
    assert len(info.value.trace) == 3  # initial rms plus two accepted steps
    assert set(info.value.best) == set(WEAK_PARASITIC)


@pytest.mark.parametrize("max_iter", [1, 3])
def test_fit_capped_by_max_iter_carries_the_last_accepted_point(ref_substrate, max_iter):
    data = _weak_parasitic_data(ref_substrate)
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


def test_fit_with_no_improving_step_returns_the_start(ref_circuit, ref_substrate):
    # data generated at exp(log(x)) match the model there exactly, so no step
    # can lower the zero cost and the start is returned after no iteration
    start = {n: math.exp(math.log(getattr(ref_circuit, n))) for n in WEAK_PARASITIC}
    stack = build_first_order(ExtractedCircuit(**start), ref_substrate)
    data = sweep(stack, 1e9, 8e9, 801)
    result = fit_circuit(data, "first_order", start, ref_substrate)
    assert result.iterations == 0
    assert result.trace == (result.rms_residual,) == (0.0,)
    assert result.params == start


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
    with pytest.raises(InvalidParameterError, match="max_iter must be >= 0, got -1"):
        fit_circuit(data, "first_order", dict(WEAK_PARASITIC), ref_substrate, max_iter=-1)


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
        with pytest.raises(InvalidParameterError, match=r"^C_tank must lie in \[1e-21, 1e3\] F"):
            fit_circuit(data, "first_order", start, ref_substrate, max_iter=max_iter)


def test_fit_refuses_a_start_that_overflows_the_network(ref_circuit, ref_substrate):
    # a start inside the domain on a line too thick and lossy to evaluate:
    # the engine's error, naming the frequency, reaches the caller
    data = sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 12e9, 41)
    with pytest.raises(SingularNetworkError) as info:
        fit_circuit(data, "first_order", asdict(ref_circuit), Substrate(1.0, 1e4, 10.0),
                    dielectric_loss=True)
    assert str(info.value) == "network overflows at 1000000000.0 Hz"


def test_fit_survives_an_exactly_singular_damped_normal_matrix(ref_circuit):
    # A 1.21 m line with tan_delta = 1 passes S21 ~ 1e-162 at 10-12 GHz, so
    # the Jacobian's squares are subnormal: the first damped normal matrix
    # is exactly singular, as the damping 1e-2 * u of its subnormal
    # diagonal u rounds to 0.  The cost underflows to 0, so -grad is exactly
    # 0 and numpy 2.4's solve returns a zero step at every damping from 1e-2
    # to 1e15; a LAPACK that divides by the zero pivot would raise
    # LinAlgError instead.  No step can lower a cost of 0, so the start is
    # returned either way.
    sub = Substrate(1.21, 10.2, 1.0)
    pulling = build_first_order(replace(ref_circuit, C_tank=0.36e-12), sub, dielectric_loss=True)
    data = sweep(pulling, 10e9, 12e9, 41)
    result = fit_circuit(data, "first_order", asdict(ref_circuit), sub, dielectric_loss=True)
    assert result.iterations == 0
    assert result.trace == (0.0,)


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


@pytest.mark.parametrize("magnitude_only", [False, True])
def test_smoothed_fit_of_noise_free_data_from_the_truth_has_zero_residual(
    ref_circuit, ref_substrate, magnitude_only
):
    # the model is smoothed like the data, so the truth matches it exactly
    truth = {name: getattr(ref_circuit, name) for name in WEAK_PARASITIC}
    stack = build_first_order(ref_circuit, ref_substrate, dielectric_loss=True)
    data = sweep(stack, 1e9, 8e9, 801)
    result = fit_circuit(
        data, "first_order", truth, ref_substrate, dielectric_loss=True,
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
