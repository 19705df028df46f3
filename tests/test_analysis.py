import math
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from fsskit import (
    BandReport,
    ExtractedCircuit,
    Incidence,
    ResponseTable,
    Substrate,
    band_report,
    build_first_order,
    parametric_sweep,
    predict_resonances,
    smooth_response,
    stack_response,
    sweep,
)
from fsskit.analysis import BAND_THRESHOLD_DB, ZERO_FLOOR_DB, _grid, _refine_quadratic
from fsskit.errors import (
    BandStructureError,
    EmptySweepError,
    FssError,
    InvalidParameterError,
    TruncatedBandError,
)


def _ref_stack(ref_circuit, ref_substrate):
    return build_first_order(ref_circuit, ref_substrate)


def test_sweep_endpoints(ref_circuit, ref_substrate):
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 8e9, 2)
    assert len(t) == 2
    assert t.frequency[0] == 1e9 and t.frequency[-1] == 8e9


def test_sweep_determinism(ref_circuit, ref_substrate):
    stack = _ref_stack(ref_circuit, ref_substrate)
    a = sweep(stack, 1e9, 8e9, 401)
    b = sweep(stack, 1e9, 8e9, 401)
    assert np.array_equal(a.s21, b.s21)
    assert np.array_equal(a.s11, b.s11)
    assert np.array_equal(a.frequency, b.frequency)


def test_sweep_log_spacing(ref_circuit, ref_substrate):
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 8e9, 31, spacing="log")
    ratios = t.frequency[1:] / t.frequency[:-1]
    assert np.allclose(ratios, ratios[0])


def test_sweep_validation(ref_circuit, ref_substrate):
    stack = _ref_stack(ref_circuit, ref_substrate)
    with pytest.raises(InvalidParameterError):
        sweep(stack, 8e9, 1e9, 100)
    with pytest.raises(InvalidParameterError):
        sweep(stack, 0.0, 1e9, 100)
    with pytest.raises(InvalidParameterError):
        sweep(stack, 1e9, 8e9, 1)
    with pytest.raises(InvalidParameterError):
        sweep(stack, 1e9, 8e9, 100, spacing="cubic")


@pytest.mark.parametrize(
    "f_stop, n_points, message",
    [
        pytest.param(math.inf, 100, "f_stop must lie in [1e3, 1e15] Hz, got inf",
                     id="inf-100-f_stop must be finite, got inf"),
        (8e9, 2.5, "n_points must be an integer, got 2.5"),
        (8e9, True, "n_points must be an integer, got True"),
        (8e9, "100", "n_points must be an integer, got '100'"),
        # counts no machine holds, refused before numpy is asked for them
        (8e9, 10**7 + 1, "n_points must lie in [2, 1e7], got 10000001"),
        (8e9, 10**18, f"n_points must lie in [2, 1e7], got {10**18}"),
        (8e9, np.int64(10**18), f"n_points must lie in [2, 1e7], got {10**18}"),
        (8e9, 10**30, f"n_points must lie in [2, 1e7], got {10**30}"),
    ],
)
def test_sweep_grid_rejects_bad_stop_and_count(
    ref_circuit, ref_substrate, nominal_geometry, monkeypatch, f_stop, n_points, message
):
    # an infinite stop once reached the engine and failed at every point of a
    # parametric sweep; a fractional count was a TypeError traceback
    evaluated = []
    monkeypatch.setattr(
        "fsskit.analysis.extract_circuit", lambda geom: evaluated.append(geom)
    )
    stack = _ref_stack(ref_circuit, ref_substrate)
    for run in (
        lambda: sweep(stack, 1e9, f_stop, n_points),
        lambda: sweep(stack, 1e9, f_stop, n_points, spacing="log"),
        lambda: parametric_sweep(
            nominal_geometry, "cross_slot", [0.15e-3, 0.3e-3], 1e9, f_stop, n_points
        ),
    ):
        with pytest.raises(InvalidParameterError) as info:
            run()
        assert str(info.value) == message
        assert info.value.category == "invalid-parameter"
    assert evaluated == []  # rejected before any point is evaluated
    # an integer of numpy's own types is a count like any other
    assert len(sweep(stack, 1e9, 8e9, np.int64(3))) == 3


def test_response_table_validation():
    with pytest.raises(InvalidParameterError):
        ResponseTable(np.array([1e9]), np.array([0j]), np.array([0j]))
    with pytest.raises(InvalidParameterError, match="lengths differ"):
        ResponseTable(np.array([1e9, 2e9, 3e9]), np.zeros(3, complex), np.zeros(2, complex))
    with pytest.raises(InvalidParameterError):
        ResponseTable(
            np.array([2e9, 1e9]), np.array([0j, 0j]), np.array([0j, 0j])
        )


def test_response_table_is_immutable():
    f, s11, s21 = np.array([1e9, 2e9]), np.array([0j, 0j]), np.array([1 + 0j, 1 + 0j])
    t = ResponseTable(f, s11, s21)
    for name in ("frequency", "s11", "s21"):
        with pytest.raises(ValueError):
            getattr(t, name)[0] = 0.5
    # the table holds its own copies: the caller's arrays stay writeable and
    # writing to them does not reach the table
    for arr in (f, s11, s21):
        assert arr.flags.writeable
        arr[:] = 7.0
    assert t.frequency.tolist() == [1e9, 2e9]
    assert t.s11.tolist() == [0j, 0j]
    assert t.s21.tolist() == [1 + 0j, 1 + 0j]


def test_response_table_equals_and_hashes_by_identity():
    # the generated __eq__ compared ndarray columns, which raised ValueError,
    # and a frozen table's generated __hash__ raised TypeError
    f, s11, s21 = np.array([1e9, 2e9]), np.array([0j, 0j]), np.array([1 + 0j, 1 + 0j])
    t = ResponseTable(f, s11, s21)
    copy = ResponseTable(f, s11, s21)
    assert t == t
    assert t != copy
    assert {t, copy, t} == {t, copy}
    assert hash(t) == hash(t) and len({t: 1}) == 1


def test_response_table_shares_read_only_arrays_that_own_their_memory(ref_circuit, ref_substrate):
    f, s11, s21 = np.array([1e9, 2e9]), np.array([0j, 0j]), np.array([1 + 0j, 1 + 0j])
    for arr in (f, s11, s21):
        arr.setflags(write=False)
    t = ResponseTable(f, s11, s21)
    assert t.frequency is f and t.s11 is s11 and t.s21 is s21
    # so are rows of read-only blocks that own their memory
    blocks = np.array([[1e9, 2e9], [3e9, 4e9]]), np.array([[0j, 0j], [1 + 0j, 1 + 0j]])
    for block in blocks:
        block.setflags(write=False)
    f, (s11, s21) = blocks[0][1], blocks[1]
    t = ResponseTable(f, s11, s21)
    assert t.frequency is f and t.s11 is s11 and t.s21 is s21
    # the library's own grids and engine outputs are such arrays
    stack = _ref_stack(ref_circuit, ref_substrate)
    for spacing in ("linear", "log"):
        grid = _grid(1e9, 8e9, 11, spacing)
        s11, s21 = stack_response(stack, grid)
        t = ResponseTable(grid, s11, s21)
        assert t.frequency is grid and t.s11 is s11 and t.s21 is s21
        t = sweep(stack, 1e9, 8e9, 11, spacing)
        for column in (t.frequency, t.s11, t.s21):
            with pytest.raises(ValueError):
                column[0] = 0.5
            assert np.array(column).flags.writeable


class _Subclass(np.ndarray):
    pass


@pytest.mark.parametrize(
    "kind", ["writeable", "read-only view", "wrong dtype", "subclass", "read-only row"]
)
def test_response_table_copies_an_input_it_cannot_share(kind):
    # Each column is handed over as `kind`.  The table copies it, and a
    # write to the caller's memory afterwards does not reach the table.
    caller = {
        "frequency": np.array([1e9, 2e9]),
        "s11": np.array([0j, 0j]),
        "s21": np.array([1 + 0j, 1 + 0j]),
    }
    if kind == "read-only row":
        # each column the caller holds is a row of its own writeable 2-D block
        caller = {name: np.stack([col, col])[1] for name, col in caller.items()}
    given = {}
    for name, base in caller.items():
        if kind == "writeable":
            arr = base
        elif kind == "read-only view":
            arr = base[:]
        elif kind == "read-only row":
            arr = base.base[1]
        elif kind == "wrong dtype":
            arr = base.astype(np.float32 if name == "frequency" else np.complex64)
        else:
            arr = np.array(base.view(_Subclass), subok=True)
            assert arr.flags.owndata
        if kind != "writeable":
            arr.setflags(write=False)
        given[name] = arr
    t = ResponseTable(**given)
    for name, base in caller.items():
        column = getattr(t, name)
        assert column is not given[name]
        assert type(column) is np.ndarray and column.dtype == base.dtype
        assert not column.flags.writeable
        expected = base.tolist()
        base[:] = 7.0
        assert column.tolist() == expected


def test_reference_stack_band_structure(ref_circuit, ref_substrate):
    # two passband maxima and one deep null on the standard display range
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 8e9, 1401)
    db = 20.0 * np.log10(np.abs(t.s21))
    peaks = [
        i
        for i in range(1, len(t) - 1)
        if db[i] > db[i - 1] and db[i] >= db[i + 1] and db[i] > -3.0
    ]
    assert len(peaks) == 2
    between = db[peaks[0] : peaks[1]]
    assert between.min() < -30.0


def test_band_report_two_lorentzian_oracle():
    """Synthetic two-resonance trace; peak positions were located to sub-Hz
    by golden-section on the analytic magnitude."""
    fc1, w1, a1 = 2.4e9, 0.40e9, 1.0
    fc2, w2, a2 = 5.8e9, 1.20e9, 0.95
    f = np.linspace(1e9, 9e9, 1601)
    s21 = a1 / (1 + 2j * (f - fc1) / w1) + a2 / (1 + 2j * (f - fc2) / w2)
    rep = band_report(ResponseTable(f, np.zeros_like(s21), s21))
    assert rep.f_lower == pytest.approx(2371256569.5, rel=5e-4)
    assert rep.f_upper == pytest.approx(5834771813.6, rel=5e-4)


def test_band_report_null_position(ref_circuit, ref_substrate):
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 12e9, 2201)
    rep = band_report(t)
    f_zero = predict_resonances(ref_circuit).f_zero
    assert abs(rep.f_zero - f_zero) < 1e6


def test_band_report_lossless_collapsed_stack_has_zero_loss(ref_circuit):
    # with a vanishing line the sheet reaches full transmission at its poles
    circuit = replace(ref_circuit, L_parasitic=0.0)
    stack = build_first_order(circuit, Substrate(1e-9, 10.2))
    rep = band_report(sweep(stack, 1e9, 8e9, 2801))
    assert rep.il_lower_db < 0.01
    assert rep.il_upper_db < 0.01


def test_band_report_full_stack_loss_regression(ref_circuit, ref_substrate):
    # the finite line detunes the peaks from unity; pin the measured levels
    rep = band_report(sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 12e9, 2201))
    assert rep.il_lower_db == pytest.approx(0.0342, abs=0.02)
    assert rep.il_upper_db == pytest.approx(2.246, abs=0.02)


def test_band_report_requires_two_bands(ref_circuit, ref_substrate):
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1.5e9, 4.0e9, 801)
    with pytest.raises(BandStructureError) as info:
        band_report(t)
    assert info.value.band_count == 1


def test_band_report_truncated_band(ref_circuit, ref_substrate):
    # the upper band's high-side crossing lies beyond 8 GHz for this stack
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 8e9, 1401)
    with pytest.raises(TruncatedBandError) as info:
        band_report(t)
    assert info.value.side == "upper-high"


def test_band_report_under_resolved_band():
    # Five samples; the upper band's two flat top samples sit at +0.33 dB
    # and the quadratic refinement puts its peak at +7.46 dB, so no sample
    # reaches the 3 dB target and no crossing can be bracketed.
    f = np.array([1.109329, 1.71192169, 2.27802547, 2.43680682, 3.28371911]) * 1e9
    mag = np.array([0.5, 0.9, 0.5, 1.0389, 1.0389])
    with pytest.raises(BandStructureError, match="upper band is not resolved") as info:
        band_report(ResponseTable(f, np.zeros(5, complex), mag + 0j))
    assert info.value.band_count == 2
    assert "7.464 dB" in str(info.value)


def _db_table(f, db):
    return ResponseTable(f, np.zeros(f.size, complex), 10 ** (db / 20) + 0j)


def test_band_report_merged_bands_are_a_band_structure_error():
    # Two -2 dB peaks whose valley sits at -3.99 dB: under the -3 dB band
    # line, so they count as two bands, but less than 3 dB under each peak,
    # so a 3 dB search would run through the null into the other band.
    f = np.linspace(1e9, 12e9, 4001)
    g = lambda f0: np.exp(-(((f - f0) / 1.84e9) ** 2))
    db = -30.0 + 28.0 * np.maximum(g(6e9), g(7e9))
    with pytest.raises(BandStructureError, match="lower band merges") as info:
        band_report(_db_table(f, db))
    assert info.value.band_count == 2
    assert "null at -3.993 dB" in str(info.value)
    assert "peak level of -2.000 dB" in str(info.value)


def test_a_valley_at_the_band_line_or_nan_separates_two_bands():
    # Only a valley that stays above -3 dB joins two peaks into one band.
    # At exactly -3 dB the two peaks are two bands, with the null between
    # them; past a NaN valley they are two bands too, which merge because
    # the NaN null is under neither 3 dB target.
    rep = band_report(_db_table(np.arange(1.0, 6.0) * 1e9, np.array([-20.0, 2, -3, 2, -20])))
    assert rep.f_lower < rep.f_zero == 3e9 < rep.f_upper
    db = np.array([-20.0, 2, 1, np.nan, 1, 2, -20])
    with pytest.raises(BandStructureError, match="lower band merges") as info:
        band_report(_db_table(np.arange(1.0, 8.0) * 1e9, db))
    assert info.value.band_count == 2
    assert "the null at nan dB" in str(info.value)


def test_band_report_accepts_a_width_beyond_the_peak_frequency():
    # A resolved upper band whose 3 dB width is 118% of its peak frequency:
    # a property of the data, not a bad parameter.
    f = np.linspace(0.1e9, 20e9, 6001)
    g = lambda f0, w: np.exp(-((np.log(f / f0) / w) ** 2))
    db = -40.0 + 40.0 * np.maximum(g(0.5e9, 0.15), g(2e9, 2.0))
    rep = band_report(_db_table(f, db))
    half_width = 2.0 * math.sqrt(-math.log(37.0 / 40.0))  # ln of edge over peak
    assert rep.bw_upper == pytest.approx(2 * math.sinh(half_width), rel=1e-3)
    assert rep.bw_upper > 1.0
    for bad in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="bw_upper must be finite and positive"):
            replace(rep, bw_upper=bad)
    with pytest.raises(InvalidParameterError, match="band ordering violated"):
        replace(rep, f_zero=rep.f_upper)
    with pytest.raises(InvalidParameterError, match="insertion loss cannot be negative"):
        replace(rep, il_lower_db=-0.1)


def test_band_report_keeps_the_sample_where_the_curvature_underflows():
    # The same samples refine to off-grid peaks and null on a GHz grid; 1e307
    # Hz apart, the parabola's curvature underflowed to 0 and band_report
    # kept each sample as it was.  That grid now lies outside the frequency
    # range, inside which the curvature at a peak or null cannot vanish.
    db = np.array([-20.0, -12, -1, -6, -20, -30, -25, -10, -2, -7, -20])
    ghz = band_report(_db_table(np.arange(1.0, 12.0) * 1e9, db))
    assert ghz.f_lower != 3e9 and ghz.f_zero != 6e9 and ghz.f_upper != 9e9
    with pytest.raises(InvalidParameterError) as info:
        _db_table(np.arange(1.0, 12.0) * 1e307, db)
    assert str(info.value) == "frequency must lie in [1e3, 1e15] Hz, got 1e+307"


def test_band_report_peak_memory_is_bounded(ref_circuit, ref_substrate):
    # past its dB trace (8 bytes a sample) a warm band_report holds boolean
    # masks, not index arrays: a 100,000-point report peaks below 1.5x it
    table = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 12e9, 100_000)
    band_report(table)
    tracemalloc.start()
    try:
        band_report(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * len(table), peak


def test_band_report_grid_independence(ref_circuit, ref_substrate):
    stack = _ref_stack(ref_circuit, ref_substrate)
    a = band_report(sweep(stack, 1e9, 12e9, 1401))
    b = band_report(sweep(stack, 1e9, 12e9, 2801))
    for attr in ("f_lower", "f_zero", "f_upper"):
        assert getattr(a, attr) == pytest.approx(getattr(b, attr), rel=1e-3)


def test_refined_frequencies_inside_bracketing_interval(ref_circuit, ref_substrate):
    t = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 12e9, 1401)
    rep = band_report(t)
    f = t.frequency
    for value in (rep.f_lower, rep.f_zero, rep.f_upper):
        i = np.searchsorted(f, value)
        assert 0 < i < len(f)
        assert f[i - 1] <= value <= f[i]


def test_3db_edges_lie_between_their_bracketing_samples():
    # Each band groups a +1 dB peak with an outer -2.2 dB one, which sits
    # under the band's -1.9 dB target (|S21| above 0 dB, as in noisy
    # measured data): the edges are bracketed by the +1 dB peak and its
    # outer neighbours, never by two samples that are both under the target.
    f = np.arange(1.0, 13.0) * 1e9
    db = np.array([-20, -5, 1, -2.5, -2.2, -40, -10, -2.2, -2.5, 1, -5, -20.0])
    rep = band_report(ResponseTable(f, np.zeros(12, complex), 10 ** (db / 20) + 0j))
    for top, bw, f_peak in ((2, rep.bw_lower, rep.f_lower), (9, rep.bw_upper, rep.f_upper)):
        target = _refine_quadratic(f, (10 ** (db / 20)) ** 2, top)[1] - 3.0
        lo, hi = top - 1, top + 1
        assert db[lo] < target <= db[top] and db[hi] < target
        f_lo = f[lo] + (target - db[lo]) / (db[top] - db[lo]) * (f[top] - f[lo])
        f_hi = f[hi] - (target - db[hi]) / (db[top] - db[hi]) * (f[hi] - f[top])
        assert f[lo] < f_lo < f[top] < f_hi < f[hi]
        assert bw == pytest.approx((f_hi - f_lo) / f_peak, rel=1e-12)


_INF, _NAN, _TINY = math.inf, math.nan, 5e-324  # _TINY: the smallest subnormal


@pytest.mark.parametrize(
    "pair, accepted",
    [
        ((1.0, _INF), True),
        ((_INF, _INF), False),
        ((_INF, 1e308), False),
        ((1e308, _INF), True),
        ((-_INF, 1.0), True),
        ((-_INF, -_INF), False),
        ((-_INF, -1e308), True),
        ((1.0, -_INF), False),
        ((1.0, _NAN), False),
        ((_NAN, 1.0), False),
        ((_NAN, _NAN), False),
        ((_NAN, _INF), False),
        ((-_INF, _NAN), False),
        ((-1e308, 1e308), True),
        ((1e308, -1e308), False),
        ((1e308, 1e308), False),
        ((-1e308, -1e308), False),
        ((_TINY, 2 * _TINY), True),
        ((2 * _TINY, _TINY), False),
        ((_TINY, _TINY), False),
        ((0.0, _TINY), True),
        ((-_TINY, 0.0), True),
        ((-_TINY, _TINY), True),
        ((-0.0, 0.0), False),
        ((0.0, -0.0), False),
        ((-_TINY, -0.0), True),
    ],
)
def test_response_table_ordering_rule(pair, accepted):
    # outcomes recorded with the former rule, np.all(np.diff(f) > 0.0);
    # comparing neighbours decides the same without a difference array.
    # A refused pair is named; an ordered pair is then refused by the
    # frequency range, which names its first value outside it: no pair
    # here lies inside.
    zeros = np.zeros(2, dtype=complex)
    with pytest.raises(InvalidParameterError) as info:
        ResponseTable(np.array(pair), zeros, zeros)
    if accepted:
        outside = next(f for f in pair if not 1e3 <= f <= 1e15)
        assert str(info.value) == f"frequency must lie in [1e3, 1e15] Hz, got {outside}"
    else:
        assert str(info.value) == _ordering(*pair)


def _ordering(prev: float, freq: float) -> str:
    return f"frequencies must be strictly increasing, but {freq!r} Hz follows {prev!r} Hz"


_ORDERING = "frequencies must be strictly increasing"


@pytest.mark.parametrize(
    "freqs, rule",
    [
        ([1e9, 2e9, _INF], "all frequencies must be finite"),
        ([-_INF, 1e9, 2e9], "all frequencies must be finite"),
        ([1e9, _NAN, _INF], _ORDERING),
        ([1e9, 2e9, _NAN], _ORDERING),
    ],
)
def test_response_table_frequencies_must_be_finite(freqs, rule):
    # the engine's frequency range for an infinite value; NaN keeps the
    # ordering rule, which names the first pair it breaks
    zeros = np.zeros(3, dtype=complex)
    with pytest.raises(InvalidParameterError) as info:
        ResponseTable(np.array(freqs), zeros, zeros)
    if rule == _ORDERING:
        pair = next((a, b) for a, b in zip(freqs, freqs[1:]) if not b > a)
        assert str(info.value) == _ordering(*pair)
    else:
        infinite = next(f for f in freqs if math.isinf(f))
        assert str(info.value) == f"frequency must lie in [1e3, 1e15] Hz, got {infinite}"
    assert info.value.category == "invalid-parameter"


@pytest.mark.parametrize("dtype", [complex, object])
def test_response_table_refuses_a_complex_frequency_column(dtype):
    # a float cast kept 2 GHz of (2+0.5j) GHz with only a ComplexWarning,
    # and failed with a bare TypeError on an object array
    zeros = np.zeros(2, dtype=complex)
    freqs = np.array([2e9 + 5e8j, 3e9], dtype=dtype)
    with pytest.raises(InvalidParameterError) as info:
        ResponseTable(freqs, zeros, zeros)
    assert str(info.value) == f"frequencies must be real numbers, got a {freqs.dtype} array"
    assert info.value.category == "invalid-parameter"

def test_parametric_sweep_grid_is_the_union_with_the_zero(nominal_geometry, monkeypatch):
    """The exact zero goes into the grid as np.union1d(grid, [f_zero])
    would put it: sorted in, or not repeated when the grid holds it."""
    from fsskit import analysis

    circuit = analysis.extract_circuit(nominal_geometry)
    f_zero = analysis.predict_resonances(circuit).f_zero
    grids = []
    monkeypatch.setattr(
        analysis, "stack_response",
        lambda stack, freqs: grids.append(freqs) or stack_response(stack, freqs),
    )
    # f_zero (5.6 GHz) +- 2**28 Hz stays within [2**32, 2**33) Hz, so both
    # ends are exact, and the middle point of a 3-point grid is f_zero
    cases = [(0.5e9, 25e9, 1401), (f_zero - 2.0**28, f_zero + 2.0**28, 3), (1e9, 9e9, 2)]
    for f_start, f_stop, n in cases:
        # the base cross slot: the sweep's circuit is the one above
        parametric_sweep(nominal_geometry, "cross_slot", [0.15e-3], f_start, f_stop, n)
        grid = np.linspace(f_start, f_stop, n)
        assert grids[-1].tobytes() == np.union1d(grid, [f_zero]).tobytes()
    assert np.linspace(*cases[1])[1] == f_zero
    assert len(grids[0]) == 1402 and len(grids[1]) == 3


def test_parametric_sweep_error_propagation(nominal_geometry):
    # second value is geometrically impossible; the sweep must keep going
    points = parametric_sweep(
        nominal_geometry,
        "cross_slot",
        [0.15e-3, 9e-3, 0.3e-3],
        0.5e9,
        30e9,
        1401,
    )
    assert points[0].report is not None and points[0].error is None
    assert points[1].report is None and "invalid-geometry" in points[1].error
    assert points[2].report is not None


def test_parametric_sweep_validation(nominal_geometry):
    with pytest.raises(EmptySweepError):
        parametric_sweep(nominal_geometry, "cross_slot", [], 1e9, 10e9)
    with pytest.raises(InvalidParameterError):
        parametric_sweep(nominal_geometry, "bogus", [1e-3], 1e9, 10e9)


@pytest.mark.parametrize("base", [(1, 2), None, ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12)],
                         ids=repr)
def test_parametric_sweep_refuses_a_base_that_is_not_a_geometry(base):
    # a tuple once ended in a bare TypeError from dataclasses.replace; the
    # refusal comes on entry, not as a per-point error
    with pytest.raises(InvalidParameterError) as info:
        parametric_sweep(base, "period", [1e-3], 1e9, 2e9)
    assert str(info.value) == f"base must be a FirstOrderGeometry, got {base!r}"


def test_parametric_sweep_band_separation_regression(nominal_geometry):
    """Pinned separations for the hat-length sweep; the spread over the
    sweep stays near 6.5 GHz."""
    pts = parametric_sweep(
        nominal_geometry,
        "hat_length",
        [1e-3, 2e-3, 3e-3, 4e-3],
        0.5e9,
        25e9,
        2401,
    )
    seps = [p.report.separation for p in pts]
    expected = [6793629488.8, 6378839740.7, 6559826417.4, 6768947497.3]
    assert seps == pytest.approx(expected, rel=1e-6)
    assert all(5.5e9 < s < 7.5e9 for s in seps)


def test_smooth_response_constant_trace():
    f = np.linspace(1e9, 2e9, 101)
    s = np.full(101, 0.5 + 0.1j)
    t = smooth_response(ResponseTable(f, s, s), 0.1e9)
    np.testing.assert_allclose(t.s21, s)


def test_smoothed_table_shares_its_averaged_columns(monkeypatch):
    # each column is averaged into its own read-only array, which the
    # table keeps as it is rather than copying
    from fsskit import analysis

    averaged = []
    plan = analysis._moving_average

    def recording(f, window_hz):
        average = plan(f, window_hz)
        return lambda s: averaged.append(average(s)) or averaged[-1]

    monkeypatch.setattr(analysis, "_moving_average", recording)
    f = np.linspace(1e9, 2e9, 101)
    table = ResponseTable(f, np.full(101, 0.5j), np.full(101, 0.5 + 0.1j))
    smoothed = smooth_response(table, 0.1e9)
    assert smoothed.frequency is table.frequency
    assert smoothed.s11 is averaged[0] and smoothed.s21 is averaged[1]
    assert not smoothed.s21.flags.writeable


def test_smooth_response_reduces_ripple(rng):
    f = np.linspace(1e9, 2e9, 501)
    base = np.exp(-1j * f / 1e9)
    noisy = base + 0.05 * rng.standard_normal(501)
    t = ResponseTable(f, noisy, noisy)
    sm = smooth_response(t, 0.05e9)
    assert np.std(np.abs(sm.s21) - np.abs(base)) < 0.5 * np.std(
        np.abs(noisy) - np.abs(base)
    )
    for window in (0.0, -1e9, np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="window must be finite and positive"):
            smooth_response(t, window)


@pytest.mark.parametrize("window", [True, "1e8", None, 1e8 + 0j],
                         ids=["bool", "str", "None", "complex"])
def test_smooth_response_refuses_a_window_that_is_not_a_real_number(window):
    # True was a 1 Hz window; the others ended in a bare TypeError
    f = np.linspace(1e9, 2e9, 101)
    s = np.full(101, 0.5 + 0.1j)
    with pytest.raises(InvalidParameterError) as info:
        smooth_response(ResponseTable(f, s, s), window)
    assert str(info.value) == f"window must be a real number, got {window!r}"


@pytest.mark.parametrize("share", [1.0, 1.01, 0.99])
def test_smooth_window_must_be_narrower_than_the_span(ref_circuit, ref_substrate, share):
    # a window as wide as the span averages the whole record into the centre
    # sample, and a fit would then fit a flat line
    table = sweep(_ref_stack(ref_circuit, ref_substrate), 1e9, 8e9, 801)
    span = table.frequency[-1] - table.frequency[0]
    window = share * span
    if share < 1.0:
        assert np.unique(smooth_response(table, window).s21).size > 1
        return
    with pytest.raises(InvalidParameterError) as info:
        smooth_response(table, window)
    assert f"window {window}" in str(info.value)
    assert f"span {span}" in str(info.value)


def _exact_running_sums(x):
    """Exact running sums of a float column (0 first), in units of 2**-1074."""
    return list(accumulate(((a * (2**1074 // b)) for a, b in map(float.as_integer_ratio, x)),
                           initial=0))


@pytest.mark.parametrize(
    "n,spacing,window_ghz",
    [
        (801, "linear", 0.1),  # the benchmark fit's window
        (801, "linear", 0.001),  # narrower than a step: one sample per window
        (801, "log", 6.3),  # most windows clip at both edges
        (2201, "linear", 4.2),
        (2201, "log", 0.1),
        (50001, "linear", 0.1),
        (50001, "log", 0.05),
    ],
)
def test_smooth_response_matches_per_sample_loop(n, spacing, window_ghz):
    # each mean against the exact rational mean of its window, on the 1-8
    # GHz grid, within the bound _moving_average states: 2u|m| + (n+1)^3 u^2 M
    # per part, M the part's largest magnitude.  The pairwise sums of a
    # per-window .mean() missed it by up to 84,000 ulps where samples cancel.
    rng = np.random.default_rng(n)
    grid = np.linspace if spacing == "linear" else np.geomspace
    f = grid(1e9, 8e9, n)
    parts = rng.standard_normal((2, 2, n)) * 10.0 ** rng.uniform(-3, 1, (2, 2, n))
    table = ResponseTable(f, parts[0, 0] + 1j * parts[0, 1], parts[1, 0] + 1j * parts[1, 1])
    got = smooth_response(table, window_ghz * 1e9)
    half = window_ghz * 1e9 / 2.0
    lo = np.searchsorted(f, f - half, side="left")
    hi = np.searchsorted(f, f + half, side="right")
    # every window clipped at an edge, and an even spread of the others
    clipped = np.flatnonzero((lo == 0) | (hi == n))
    checked = np.union1d(clipped, np.arange(0, n, max(1, n // 800)))
    u = Fraction(2**-53)
    for g, s in ((got.s11, table.s11), (got.s21, table.s21)):
        one = hi - lo == 1  # a one-sample window returns its sample bit for bit
        assert np.array_equal(g[one].view(float), s[one].view(float))
        for g_part, s_part in ((g.real, s.real), (g.imag, s.imag)):
            sums = _exact_running_sums(s_part.tolist())
            slack = (n + 1) ** 3 * u**2 * Fraction(float(np.abs(s_part).max()))
            for i in checked.tolist():
                m = Fraction(sums[hi[i]] - sums[lo[i]], 2**1074 * int(hi[i] - lo[i]))
                assert abs(Fraction(float(g_part[i])) - m) <= 2 * u * abs(m) + slack, i


@pytest.mark.parametrize("dtype", [float, complex])
def test_cumsum_adds_left_to_right(dtype):
    # the moving average's TwoSum reads each step's rounding error from
    # total[k + 1] = fl(total[k] + s[k]), so np.cumsum must add in that order
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100002) * 10.0 ** rng.uniform(-8, 8, 100002)
    s = x[:50001] if dtype is float else x.view(complex)
    total = np.concatenate([[0.0], np.cumsum(s)])
    assert np.array_equal(total[1:].view(float), (total[:-1] + s).view(float))


_BAD_SAMPLES = [math.nan, math.inf, -math.inf, complex(0.5, math.nan)]


@pytest.mark.parametrize("bad", _BAD_SAMPLES + ["overflow"])
def test_smooth_response_refuses_data_that_are_not_finite_or_overflow(bad):
    # a NaN spread from the first bad sample to the end of the column
    f = np.linspace(1e9, 8e9, 801)
    s = np.full(801, 0.5 + 0.1j)
    if bad == "overflow":  # finite, but the running sum leaves the float range
        s = np.full(801, 1e306 + 0j)
    else:
        s[400] = bad
    for table in (ResponseTable(f, s, np.full(801, 0.5j)), ResponseTable(f, np.full(801, 0.5j), s)):
        with pytest.raises(InvalidParameterError, match="averaged data must be finite, with a sum"):
            smooth_response(table, 0.1e9)


# --- Oracle: the per-sample loop implementation of band_report ------------
#
# A verbatim copy of the scanning version of band_report, kept as the
# reference for the whole-array one.  Both must agree bit for bit on every
# field, and raise the same error with the same payload.  It reads each
# sample's dB from Python floats and decides in dB, where band_report
# decides on |S21|^2.

def _reference_band_report(table: ResponseTable) -> BandReport:
    f = table.frequency
    db = np.array([
        10.0 * math.log10(p) if p else -math.inf
        for p in (z.real * z.real + z.imag * z.imag for z in table.s21.tolist())
    ])

    peaks = [
        i
        for i in range(1, len(f) - 1)
        if db[i] > db[i - 1] and db[i] >= db[i + 1] and np.isfinite(db[i])
    ]
    qualified = [i for i in peaks if db[i] > BAND_THRESHOLD_DB]
    bands: list[list[int]] = []
    for i in qualified:
        if bands and np.min(db[bands[-1][-1] : i + 1]) > BAND_THRESHOLD_DB:
            bands[-1].append(i)
        else:
            bands.append([i])
    if len(bands) != 2:
        raise BandStructureError(
            f"expected exactly 2 passbands, found {len(bands)}", band_count=len(bands)
        )
    lower_band, upper_band = bands

    f_lower, level_lower = _ref_band_peak(f, db, lower_band)
    f_upper, level_upper = _ref_band_peak(f, db, upper_band)

    lo, hi = lower_band[-1], upper_band[0]
    j = lo + 1 + int(np.argmin(db[lo + 1 : hi]))
    if db[j] <= ZERO_FLOOR_DB:
        f_zero = float(f[j])
    else:
        f_zero, _ = _ref_refine_quadratic(f, db, j)

    bw_lower = _ref_bandwidth(f, db, lower_band, level_lower, f_lower, "lower", j)
    bw_upper = _ref_bandwidth(f, db, upper_band, level_upper, f_upper, "upper", j)

    return BandReport(
        f_lower=f_lower,
        f_zero=f_zero,
        f_upper=f_upper,
        bw_lower=bw_lower,
        bw_upper=bw_upper,
        il_lower_db=max(0.0, -level_lower),
        il_upper_db=max(0.0, -level_upper),
        separation=f_upper - f_lower,
    )


def _ref_band_peak(f, db, band):
    top = band[int(np.argmax(db[band]))]
    return _ref_refine_quadratic(f, db, top)


def _ref_refine_quadratic(f, db, i):
    x1, x2, x3 = f[i - 1], f[i], f[i + 1]
    y1, y2, y3 = db[i - 1], db[i], db[i + 1]
    if not (np.isfinite(y1) and np.isfinite(y2) and np.isfinite(y3)):
        return float(x2), float(y2)
    d1 = (y2 - y1) / (x2 - x1)
    d2 = (y3 - y2) / (x3 - x2)
    curv = (d2 - d1) / (x3 - x1)
    if curv == 0.0:
        return float(x2), float(y2)
    x_star = 0.5 * (x1 + x2) - d1 / (2.0 * curv)
    x_star = min(max(x_star, x1), x3)
    y_star = y1 + d1 * (x_star - x1) + curv * (x_star - x1) * (x_star - x2)
    return float(x_star), float(y_star)


def _ref_bandwidth(f, db, band, peak_level, f_peak, which, null):
    target = peak_level - 3.0
    if not db[null] < target:
        raise BandStructureError(
            f"the {which} band merges with the other one: the null at {db[null]:.3f} dB is "
            f"not 3 dB under its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    band = [i for i in band if db[i] >= target]
    if not band:
        raise BandStructureError(
            f"the {which} band is not resolved by the grid: no sample reaches "
            f"3 dB below its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    f_lo = _ref_cross_left(f, db, band[0], target, which)
    f_hi = _ref_cross_right(f, db, band[-1], target, which)
    return (f_hi - f_lo) / f_peak


def _ref_cross_left(f, db, start, target, which):
    for i in range(start - 1, -1, -1):
        if db[i] < target:
            if not np.isfinite(db[i]):
                return float(f[i])
            frac = (target - db[i]) / (db[i + 1] - db[i])
            return float(f[i] + frac * (f[i + 1] - f[i]))
    raise TruncatedBandError(
        f"low-side 3 dB crossing of the {which} band lies below the swept range",
        side=f"{which}-low",
    )


def _ref_cross_right(f, db, start, target, which):
    for i in range(start + 1, len(f)):
        if db[i] < target:
            if not np.isfinite(db[i]):
                return float(f[i])
            frac = (target - db[i]) / (db[i - 1] - db[i])
            return float(f[i] - frac * (f[i] - f[i - 1]))
    raise TruncatedBandError(
        f"high-side 3 dB crossing of the {which} band lies above the swept range",
        side=f"{which}-high",
    )


def _oracle_stack_table(rng, ref_circuit):
    """Swept first-order stack: lossless or lossy, TE/TM, 0-80 deg, on a
    grid that may hold the exact zero and may cut a band short."""
    scale = np.exp(rng.normal(0.0, 0.1, 5))
    circuit = ExtractedCircuit(
        *(v * s for v, s in zip(
            (ref_circuit.L_series, ref_circuit.C_series, ref_circuit.L_tank,
             ref_circuit.C_tank, ref_circuit.L_parasitic),
            scale,
        ))
    )
    loss = bool(rng.integers(2))
    sub = Substrate(
        rng.uniform(0.1e-3, 1.0e-3),
        rng.uniform(2.0, 10.2),
        rng.uniform(0.0005, 0.005) if loss else 0.0,
    )
    inc = Incidence(math.radians(rng.uniform(0.0, 80.0)), ("TE", "TM")[rng.integers(2)])
    pred = predict_resonances(circuit)
    # the swept upper peak lies well above the tank-only prediction
    f_start = pred.f_lower * rng.uniform(0.2, 1.1)
    f_stop = pred.f_upper * rng.uniform(2.0, 4.0)
    grid = np.linspace(f_start, f_stop, int(rng.integers(150, 900)))
    if rng.random() < 0.5 and f_start < pred.f_zero < f_stop:
        grid = np.union1d(grid, [pred.f_zero])
    stack = build_first_order(circuit, sub, inc, loss)
    return ResponseTable(grid, *stack_response(stack, grid))


def _oracle_lorentz_table(rng):
    """One to three Lorentzian passbands, some clipped by the grid edges."""
    f = np.linspace(1e9, 10e9, int(rng.integers(80, 700)))
    s21 = np.zeros(f.size, dtype=complex)
    for _ in range(rng.choice([1, 2, 2, 3])):
        fc = rng.uniform(0.5e9, 10.5e9)
        width = rng.uniform(0.1e9, 1.5e9)
        s21 += rng.uniform(0.6, 1.0) / (1 + 2j * (f - fc) / width)
    if rng.random() < 0.3:
        s21[rng.integers(f.size)] = 0j
    return ResponseTable(f, np.zeros_like(s21), s21)


def _oracle_tiny_table(rng):
    """3-7 samples of arbitrary levels, with exact zeros, NaN and ties."""
    n = int(rng.integers(3, 8))
    f = np.cumsum(rng.uniform(0.1e9, 1e9, n)) + 1e9
    mag = rng.choice([0.0, 0.05, 0.5, 0.7, 0.9, 1.0, rng.uniform(0.0, 1.2)], n)
    if rng.random() < 0.1:
        mag[rng.integers(n)] = np.nan
    s21 = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return ResponseTable(f, np.zeros(n, dtype=complex), s21)


def _outcome(fn, table):
    try:
        rep = fn(table)
    except FssError as exc:
        return (
            "error",
            type(exc),
            str(exc),
            getattr(exc, "band_count", None),
            getattr(exc, "side", None),
        )
    return ("report",) + tuple(float(v).hex() for v in astuple(rep))


def test_band_report_matches_reference_loop(ref_circuit):
    rng = np.random.default_rng(20261018)
    # stack / noisy / lorentz / tiny in a 7:5:5:3 mix
    kinds = ["stack"] * 7 + ["noisy"] * 5 + ["lorentz"] * 5 + ["tiny"] * 3
    draws = 1200
    reports = dict.fromkeys(kinds, 0)
    errors = {}
    for k in range(draws):
        kind = kinds[k % len(kinds)]
        if kind in ("stack", "noisy"):
            table = _oracle_stack_table(rng, ref_circuit)
            if kind == "noisy":
                n = len(table)
                sigma = rng.uniform(1e-3, 1e-2)
                noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                table = ResponseTable(table.frequency, table.s11, table.s21 + noise)
        elif kind == "lorentz":
            table = _oracle_lorentz_table(rng)
        else:
            table = _oracle_tiny_table(rng)
        want = _outcome(_reference_band_report, table)
        got = _outcome(band_report, table)
        assert got == want, (k, kind)
        if want[0] == "report":
            reports[kind] += 1
        else:
            errors[want[1].__name__] = errors.get(want[1].__name__, 0) + 1
    raised = sum(errors.values())
    print(f"band_report oracle: {draws} draws, {raised} raised {errors}, reports {reports}")
    assert draws - raised >= 0.3 * draws
