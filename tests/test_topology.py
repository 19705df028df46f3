import cmath
import itertools
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fsskit import (
    ETA0,
    ExtractedCircuit,
    FssStack,
    HybridCircuit,
    Incidence,
    Inductor,
    Parallel,
    ResponseTable,
    SeriesLC,
    Substrate,
    Tank,
    build_first_order,
    build_second_order,
    hybrid_impedance,
    incidence_media,
    load_response,
    port_impedance,
    predict_resonances,
    branch_impedance,
    stack_response,
    stack_response_full,
    surface_impedance,
)
from fsskit.lumped import OPEN, _admittance_array, _susceptance_array
from fsskit import topology
from fsskit.domain import RANGES
from fsskit.errors import InvalidParameterError, SingularNetworkError
from fsskit.fileio import CSV_HEADER
from fsskit.topology import _chain

from conftest import assert_lines_match

MEDIA_GOLDEN = pathlib.Path(__file__).parent / "golden" / "media_resonance_reader_outputs.txt"


def _nodal_sparams(stack, freqs):
    """Independent oracle: (S11, S21, S22) from a nodal (Y-matrix) solve.

    Each shunt node is a diagonal admittance 1/Z_branch, each line section a
    pi of cos(theta)/(jZc sin(theta)) on its two nodes and -1/(jZc sin(theta))
    between them, and both outer nodes are terminated in the port impedance.
    A unit incident wave at port k is a Norton current 2/Z into node k, so
    S_kk = V_k - 1 and S_jk = V_j.
    """
    nodes = stack.nodes
    n = len(nodes)
    port = port_impedance(stack.incidence)
    Y = np.zeros((len(freqs), n, n), dtype=complex)
    for i, f in enumerate(freqs):
        for k, node in enumerate(nodes):
            z = branch_impedance(node, f)
            Y[i, k, k] += 0j if z is OPEN else 1.0 / z
        for k, sub in enumerate(stack.layers[1::2]):
            _, zc, theta = incidence_media(stack.incidence, sub, f, stack.dielectric_loss)
            y_self = np.cos(theta) / (1j * zc * np.sin(theta))
            y_mutual = -1.0 / (1j * zc * np.sin(theta))
            Y[i, k, k] += y_self
            Y[i, k + 1, k + 1] += y_self
            Y[i, k, k + 1] += y_mutual
            Y[i, k + 1, k] += y_mutual
    Y[:, 0, 0] += 1.0 / port
    Y[:, -1, -1] += 1.0 / port
    I = np.zeros((len(freqs), n, 2), dtype=complex)
    I[:, 0, 0] = I[:, -1, 1] = 2.0 / port
    V = np.linalg.solve(Y, I)
    return V[:, 0, 0] - 1.0, V[:, -1, 0], V[:, -1, 1] - 1.0


def _random_branch(rng):
    l = 10 ** rng.uniform(-9.5, -8.0)
    c = 10 ** rng.uniform(-13.5, -12.0)
    kind = rng.integers(0, 4)
    if kind == 0:
        return SeriesLC(l, c, rng.choice([0.0, rng.uniform(0.0, 5.0)]))
    if kind == 1:
        return Tank(l, c, rng.choice([0.0, rng.uniform(0.0, 0.01)]))
    if kind == 2:
        return Parallel((SeriesLC(l, c), Inductor(10 ** rng.uniform(-9.5, -8.0))))
    return Parallel((SeriesLC(l, c), Tank(10 ** rng.uniform(-9.5, -8.0), c)))


def test_incidence_validation():
    Incidence(0.0, "TE")
    Incidence(math.radians(45), "TM")
    with pytest.raises(InvalidParameterError):
        Incidence(-0.1, "TE")
    with pytest.raises(InvalidParameterError):
        Incidence(math.pi / 2, "TE")
    with pytest.raises(InvalidParameterError):
        Incidence(0.0, "te")


def test_incidence_ends_where_the_sine_rounds_to_one():
    last = 1.5707963162581844
    with pytest.raises(InvalidParameterError, match="with sin\\(theta\\) < 1"):
        Incidence(math.nextafter(last, math.inf))
    air = Substrate(1e-3, 1.0)
    for pol in ("TE", "TM"):
        port, line_z, theta_d = incidence_media(Incidence(last, pol), air, 2.4e9)
        assert all(math.isfinite(v) and v > 0.0 for v in (port, line_z, theta_d))


def test_normal_incidence_media(ref_substrate):
    port, line_z, theta_d = incidence_media(Incidence(), ref_substrate, 2.4e9)
    assert port == ETA0 == 376.730313
    assert line_z == pytest.approx(117.95883659, rel=1e-9)
    assert theta_d == pytest.approx(0.102010345, rel=1e-8)


def test_normal_incidence_te_tm_bitwise_equal(ref_substrate):
    te = incidence_media(Incidence(0.0, "TE"), ref_substrate, 5e9)
    tm = incidence_media(Incidence(0.0, "TM"), ref_substrate, 5e9)
    assert te == tm  # exact equality, not approximate


def test_oblique_media_te_tm():
    sub = Substrate(0.635e-3, 10.2)
    theta = math.radians(45)
    pt, lt, dt = incidence_media(Incidence(theta, "TE"), sub, 2.4e9)
    pm, lm, dm = incidence_media(Incidence(theta, "TM"), sub, 2.4e9)
    cos_t = math.cos(theta)
    cos_r = math.sqrt(1 - 0.5 / 10.2)
    assert pt == pytest.approx(ETA0 / cos_t)
    assert pm == pytest.approx(ETA0 * cos_t)
    assert lt == pytest.approx(ETA0 / math.sqrt(10.2) / cos_r)
    assert lm == pytest.approx(ETA0 / math.sqrt(10.2) * cos_r)
    assert dt == dm  # electrical length is polarization independent


def test_lossy_media_are_complex(ref_substrate):
    _, line_z, theta_d = incidence_media(
        Incidence(), ref_substrate, 2.4e9, dielectric_loss=True
    )
    assert isinstance(line_z, complex) and line_z.imag != 0.0
    assert isinstance(theta_d, complex) and theta_d.imag != 0.0


@pytest.mark.parametrize(
    "eps_r, tan_delta",
    [(1e200, 1e200),  # eps_r*tan_delta overflows
     (1.7e308, 1.0)],  # both parts finite, the modulus eps ** 0.5 takes is not
)
def test_lossy_permittivity_that_overflows_is_refused(eps_r, tan_delta):
    # eps ** 0.5 raised a bare OverflowError: complex exponentiation.  Inside
    # the domain |eps_r*(1 - j*tan_delta)| stays below 1e4*sqrt(101)
    with pytest.raises(InvalidParameterError) as info:
        Substrate(1e-3, eps_r, tan_delta)
    assert str(info.value) == f"eps_r must lie in [1, 1e4], got {eps_r}"
    eps_max, tan_max = RANGES["eps_r"][1], RANGES["tan_delta"][1]
    _, line_z, theta = incidence_media(Incidence(), Substrate(1e-3, eps_max, tan_max), 1e15, True)
    assert cmath.isfinite(line_z) and cmath.isfinite(theta)


def test_stack_validation(ref_substrate):
    tank = Tank(4e-9, 0.35e-12)
    series = SeriesLC(4.9e-9, 0.5e-12)
    FssStack((tank, ref_substrate, series))
    with pytest.raises(InvalidParameterError):
        FssStack((tank,))  # a single layer is not a stack
    with pytest.raises(InvalidParameterError):
        FssStack((tank, ref_substrate))  # must end on a shunt node
    with pytest.raises(InvalidParameterError):
        FssStack((tank, series, tank))  # missing line section
    with pytest.raises(InvalidParameterError, match="layer 0 must be a shunt lumped branch"):
        FssStack((ref_substrate, ref_substrate, series))


def test_asymmetric_three_node_stacks_match_their_reversal(rng):
    # S22 is S11 of the reversed stack, S21 its S21, and a lossless stack is
    # unitary, also at an exact short of a series node
    worst = np.zeros(3)
    for k in range(300):
        l, c = 10 ** rng.uniform(-9.5, -8.0, 4), 10 ** rng.uniform(-13.5, -12.0, 4)
        series = SeriesLC(l[0], c[0])
        nodes = [Tank(l[1], c[1]), Parallel((SeriesLC(l[2], c[2]), Inductor(l[3]))), series]
        nodes = [nodes[i] for i in rng.permutation(3)]
        sub = Substrate(rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0))
        inc = Incidence(rng.uniform(0.0, math.radians(80)), ("TE", "TM")[k % 2])
        freqs = 10 ** rng.uniform(8.5, 10.5, 8)
        f_short = _exact_short(series)
        if f_short is not None:
            freqs[0] = f_short
        s11, s21, s22 = stack_response_full(
            FssStack((nodes[0], sub, nodes[1], sub, nodes[2]), inc), freqs
        )
        assert f_short is None or s21[0] == 0.0
        r11, r21, _ = stack_response_full(
            FssStack((nodes[2], sub, nodes[1], sub, nodes[0]), inc), freqs
        )
        errors = [s22 - r11, s21 - r21, np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0]
        worst = np.maximum(worst, [np.max(np.abs(e)) for e in errors])
    assert np.all(worst < 1e-12), worst


def test_build_first_order_layout(ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate)
    tank, sub, bottom = stack.layers
    assert tank == Tank(4e-9, 0.35e-12)
    assert sub is ref_substrate
    assert bottom == Parallel((Inductor(0.8e-9), SeriesLC(4.9e-9, 0.5e-12)))

    no_parasitic = replace(ref_circuit, L_parasitic=0.0)
    stack2 = build_first_order(no_parasitic, ref_substrate)
    assert stack2.layers[2] == SeriesLC(4.9e-9, 0.5e-12)


def test_first_order_transmission_zero_robust(ref_circuit, ref_substrate):
    f_zero = predict_resonances(ref_circuit).f_zero
    for theta_deg in (0.0, 15.0, 30.0, 45.0):
        for pol in ("TE", "TM"):
            inc = Incidence(math.radians(theta_deg), pol)
            stack = build_first_order(ref_circuit, ref_substrate, inc)
            assert abs(stack_response(stack, [f_zero])[1][0]) < 1e-8


def test_first_order_collapsed_limit_matches_sheet_impedance(ref_circuit, rng):
    # vanishing substrate and no parasitic: the full stack equals a single
    # shunt sheet with the closed-form impedance
    circuit = replace(ref_circuit, L_parasitic=0.0)
    thin = Substrate(1e-13, 10.2)
    stack = build_first_order(circuit, thin)
    for _ in range(100):
        f = rng.uniform(1e9, 8e9)
        z = surface_impedance(circuit, f)
        if z is OPEN or abs(z) < 1e-3:
            continue
        eta_y = ETA0 / z
        s11, s21 = stack_response(stack, [f])
        assert s21[0] == pytest.approx(2.0 / (2.0 + eta_y), abs=1e-9)
        assert s11[0] == pytest.approx(-eta_y / (2.0 + eta_y), abs=1e-9)


def test_first_order_dc_limit(ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate)
    assert abs(stack_response(stack, [1e3])[1][0]) < 1e-5


def test_build_second_order_layout(ref_substrate):
    a = SeriesLC(4.9e-9, 0.5e-12)
    b = SeriesLC(2e-9, 0.5e-12)
    mid = Tank(2.5e-9, 0.3e-12)
    stack = build_second_order((a, b), mid, ref_substrate)
    assert len(stack.layers) == 5
    assert stack.layers[0] == stack.layers[4] == Parallel((a, b))
    assert stack.layers[2] == mid
    with pytest.raises(InvalidParameterError):
        build_second_order((a, Tank(1e-9, 1e-12)), mid, ref_substrate)
    with pytest.raises(InvalidParameterError):
        build_second_order((a, b), a, ref_substrate)


def test_second_order_zeros_at_branch_resonances():
    sub = Substrate(3.4e-3, 10.2)
    a = SeriesLC(4.9e-9, 0.5e-12)
    b = SeriesLC(2e-9, 0.5e-12)
    stack = build_second_order((a, b), Tank(2.5e-9, 0.3e-12), sub)
    assert abs(stack_response(stack, [a.resonance()])[1][0]) < 1e-8
    assert abs(stack_response(stack, [b.resonance()])[1][0]) < 1e-8


def test_second_order_symmetry():
    sub = Substrate(3.4e-3, 10.2)
    a = SeriesLC(4.9e-9, 0.5e-12)
    b = SeriesLC(2e-9, 0.5e-12)
    stack = build_second_order((a, b), Tank(2.5e-9, 0.3e-12), sub)
    freqs = np.linspace(1.6e9, 4.8e9, 301)
    s11, _, s22 = stack_response_full(stack, freqs)
    np.testing.assert_allclose(s11, s22, rtol=0, atol=1e-12)


def test_second_order_zero_independence():
    # changing only the second branch's capacitance must not move the first
    # branch's transmission zero
    sub = Substrate(3.4e-3, 10.2)
    a = SeriesLC(4.9e-9, 0.5e-12)
    mid = Tank(2.5e-9, 0.3e-12)
    f_a = a.resonance()
    for scale in (1.0, 1.1, 1.5):
        b = SeriesLC(2e-9, 0.5e-12 * scale)
        stack = build_second_order((a, b), mid, sub)
        assert abs(stack_response(stack, [f_a])[1][0]) < 1e-8
        assert abs(stack_response(stack, [b.resonance()])[1][0]) < 1e-8


def test_stack_twoport_matches_vectorized(ref_circuit, ref_substrate, rng):
    stack = build_first_order(
        ref_circuit, ref_substrate, Incidence(math.radians(30), "TM"), True
    )
    freqs = np.sort(rng.uniform(1e9, 9e9, 50))
    s11, s21 = stack_response(stack, freqs)
    o11, o21, _ = _nodal_sparams(stack, freqs)
    np.testing.assert_allclose(s11, o11, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s21, o21, rtol=0, atol=1e-12)


def test_stack_response_matches_nodal_oracle_1000(rng):
    # 3- and 5-layer stacks, TE/TM, 0-80 degrees, with and without
    # dielectric loss, against the independent Y-matrix solve
    worst = 0.0
    for _ in range(1000):
        sub = Substrate(
            rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0), rng.uniform(0.0, 0.02)
        )
        nodes = [_random_branch(rng) for _ in range(int(rng.integers(2, 4)))]
        if len(nodes) == 3:
            nodes[2] = nodes[0]  # symmetric, like second-order builds (any stack is valid)
        layers = [nodes[0], sub, nodes[1]] + ([sub, nodes[2]] if len(nodes) == 3 else [])
        inc = Incidence(rng.uniform(0.0, math.radians(80)), rng.choice(["TE", "TM"]))
        stack = FssStack(tuple(layers), inc, bool(rng.integers(0, 2)))
        freqs = 10 ** rng.uniform(8.5, 10.5, 4)
        s11, s21, s22 = stack_response_full(stack, freqs)
        o11, o21, o22 = _nodal_sparams(stack, freqs)
        worst = max(worst, np.max(np.abs([s11 - o11, s21 - o21, s22 - o22])))
    assert worst < 1e-11


# 2*pi*f rounds to exactly 1/_U at f = 1/(2*pi*_U): a series branch of _U
# henry and _U farad is exactly short there
_U = 2.0**-15


def test_stack_twoport_raises_on_exact_short():
    # a perfect short has no chain matrix: the engine marks it and reports
    # total reflection with no transmission
    sub = Substrate(1e-3, 4.0)
    stack = FssStack((Tank(2.0 * _U, 3.0 * _U), sub, SeriesLC(_U, _U)))
    f_short = 1.0 / (2.0 * math.pi * _U)  # series branch exactly short here
    with np.errstate(divide="ignore"):  # the engine turns these warnings off
        *_, shorted, _ = _chain(stack.layers, stack.incidence, False, np.array([f_short]))
    assert shorted[0]
    s11, s21 = stack_response(stack, [f_short])
    assert s21[0] == 0j
    assert abs(s11[0]) == pytest.approx(1.0)


def test_vectorized_grid_containing_exact_short():
    # grid point where the series branch is exactly short: the exact-null
    # handling applies to that sample only
    sub = Substrate(1e-3, 4.0)
    stack = FssStack((Tank(2.0 * _U, 3.0 * _U), sub, SeriesLC(_U, _U)))
    f_short = 1.0 / (2.0 * math.pi * _U)
    freqs = np.array([0.5 * f_short, f_short, 2.0 * f_short])
    s11, s21, s22 = stack_response_full(stack, freqs)
    assert s21[1] == 0j
    assert abs(s11[1]) == pytest.approx(1.0)
    assert abs(s22[1]) == pytest.approx(1.0)
    off = freqs[[0, 2]]
    # the other samples are exactly what the grid without the short gives
    _, s21_off = stack_response(stack, off)
    assert np.array_equal(s21[[0, 2]], s21_off)
    # the 1e-7 rad line makes the Y matrix ill-conditioned,
    # which bounds the oracle's own accuracy here
    _, o21, _ = _nodal_sparams(stack, off)
    np.testing.assert_allclose(s21_off, o21, rtol=1e-6)


@pytest.mark.parametrize(
    "bad, violated",
    [
        (math.nan, "all frequencies must be finite"),
        (math.inf, "all frequencies must be finite"),
        (-math.inf, "all frequencies must be positive"),
        (0.0, "all frequencies must be positive"),
        (-1e9, "all frequencies must be positive"),
    ],
)
def test_grid_must_be_finite_and_positive(ref_circuit, ref_substrate, bad, violated):
    # NaN compares false with everything, so a grid with a NaN once passed a
    # "no value <= 0" check and came back as S11 = -1, S21 = 0 there.  The
    # frequency range refuses each, naming the value.
    stack = build_first_order(ref_circuit, ref_substrate)
    for grid in ([1e9, bad], [bad, 2e9, 3e9], [bad]):
        for evaluate in (stack_response, stack_response_full):
            with pytest.raises(InvalidParameterError) as info:
                evaluate(stack, grid)
            assert str(info.value) == f"frequency must lie in [1e3, 1e15] Hz, got {bad}", violated
    # the first value out of range is named, whatever else the grid holds
    with pytest.raises(InvalidParameterError, match="got nan$"):
        stack_response(stack, [math.nan, 1e9, -1e9])


@pytest.mark.parametrize("grid", [[], [[1e9, 2e9]], 1e9], ids=["empty", "2-D", "scalar"])
def test_grid_must_be_a_non_empty_1d_array(ref_circuit, ref_substrate, grid):
    stack = build_first_order(ref_circuit, ref_substrate)
    for evaluate in (stack_response, stack_response_full):
        with pytest.raises(InvalidParameterError, match="non-empty 1-D array"):
            evaluate(stack, grid)


# Thick lossy lines: a line's |Im theta| grows with thickness, frequency and
# tan_delta, and its chain entries with exp(|Im theta|).  The first overflows
# at every frequency from 1 GHz, the second above 1 GHz only.
_OVERFLOWING, _OVERFLOWING_ABOVE_1GHZ = Substrate(1.0, 1e4, 10.0), Substrate(5.0, 10.2, 1.0)


@pytest.mark.parametrize("G", [0.0, 1e-3], ids=["lossless", "lossy"])
def test_overflowing_chain_is_reported_not_returned_as_nan(G):
    # the chain matrix overflows: the complex chain returned nan+nanj
    # silently, with lossless nodes or lossy ones
    def stack(sub):
        node = Tank(1e-9, 1e-12, G)
        return FssStack((node, sub, node), dielectric_loss=True)

    freqs = np.linspace(1e9, 12e9, 12)
    for evaluate in (stack_response, stack_response_full):
        with pytest.raises(SingularNetworkError) as info:
            evaluate(stack(_OVERFLOWING), freqs)
        assert str(info.value) == "network overflows at 1000000000.0 Hz"
        # the error names the first frequency that overflows
        with pytest.raises(SingularNetworkError) as info:
            evaluate(stack(_OVERFLOWING_ABOVE_1GHZ), [1e9, 12e9])
        assert str(info.value) == "network overflows at 12000000000.0 Hz"
    s11, s21 = stack_response(stack(_OVERFLOWING_ABOVE_1GHZ), [1e9])
    assert np.isfinite(s11[0]) and np.isfinite(s21[0])


def test_short_beside_an_overflowing_chain_is_reported_not_returned_as_nan():
    # A short ends transmission, but the reflection on the side of the
    # overflowing lines still comes from their chain: S22 (short first) and
    # S11 (short last) were nan+nanj, silently, beside a clean S21 = 0
    node, sub = Tank(1e-9, 1e-12), _OVERFLOWING
    for layers in ((Inductor(0.0), sub, node, sub, node), (node, sub, node, sub, Inductor(0.0))):
        with pytest.raises(SingularNetworkError) as info:
            stack_response_full(FssStack(layers, dielectric_loss=True), [1e9, 2e9])
        assert str(info.value) == "network overflows at 1000000000.0 Hz"


def test_lossless_unitarity_oblique(ref_circuit, rng):
    sub = Substrate(0.635e-3, 10.2)  # tan_delta = 0
    for _ in range(200):
        inc = Incidence(rng.uniform(0, math.radians(60)), rng.choice(["TE", "TM"]))
        stack = build_first_order(ref_circuit, sub, inc)
        f = rng.uniform(1e9, 9e9)
        s11, s21 = stack_response(stack, [f])
        assert abs(abs(s11[0]) ** 2 + abs(s21[0]) ** 2 - 1.0) < 1e-10


def test_dielectric_loss_breaks_unitarity(ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate, dielectric_loss=True)
    s11, s21 = stack_response(stack, [2.99e9])
    assert abs(s11[0]) ** 2 + abs(s21[0]) ** 2 < 1.0 - 1e-6


def test_engine_peak_memory_is_bounded(ref_circuit, ref_substrate):
    # the engine's temporaries live in fixed-size blocks, so a warm
    # 100,000-point call peaks below twice its three 1.6 MB outputs
    freqs = np.linspace(1e9, 12e9, 100_000)
    outputs = 3 * freqs.size * np.dtype(complex).itemsize
    for loss in (False, True):
        stack = build_first_order(ref_circuit, ref_substrate, dielectric_loss=loss)
        stack_response_full(stack, freqs)
        tracemalloc.start()
        try:
            stack_response_full(stack, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * outputs, (loss, peak)


def test_engine_outputs_are_read_only_and_shared_by_a_table(ref_circuit, ref_substrate):
    # a grid with an exact short in it takes the shorted-point writes too
    stack = build_first_order(ref_circuit, ref_substrate)
    f_zero = 1.0 / (2.0 * math.pi * math.sqrt(ref_circuit.L_series * ref_circuit.C_series))
    freqs = np.array([1e9, f_zero, 8e9])
    s11, s21 = stack_response(stack, freqs)
    assert s21[1] == 0j
    outputs = (s11, s21, *stack_response_full(stack, freqs))
    for out in outputs:
        assert out.flags.owndata
        with pytest.raises(ValueError):
            out[0] = 0.5
        copy = np.array(out)
        copy[0] = 0.5  # np.array gives a writeable copy
    table = ResponseTable(freqs, s11, s21)
    assert table.s11 is s11 and table.s21 is s21
    # the caller's writeable grid is copied, not frozen
    assert table.frequency is not freqs and freqs.flags.writeable


# --- Oracle: the whole-array engine ------------------------------------------
#
# A verbatim copy of the engine as it was before it ran over blocks with
# in-place updates (SeriesLC admittance included), kept as the reference for
# the blocked one.  The only edit: the chain function is a parameter, so a
# test can wrap it.  Both must agree bit for bit, signed zeros and NaNs
# included, and raise the same error with the same message.


def _reference_admittance(b, w):
    if isinstance(b, SeriesLC):
        z = b.R + 1j * (w * b.L - 1.0 / (w * b.C))
        y = np.empty_like(z)
        zero = z == 0
        y[~zero] = 1.0 / z[~zero]
        y[zero] = np.inf
        return y
    if isinstance(b, Tank):
        return b.G + 1j * (w * b.C - 1.0 / (w * b.L))
    if isinstance(b, Inductor):
        if b.L == 0.0:
            return np.full(w.shape, np.inf, dtype=complex)
        return -1j / (w * b.L)
    y = np.zeros(w.shape, dtype=complex)
    for sub in b.branches:
        y = y + _reference_admittance(sub, w)
    return y


def _reference_chain(layers, incidence, dielectric_loss, freqs):
    w = 2.0 * math.pi * freqs
    port = port_impedance(incidence)
    A = np.ones(freqs.shape, dtype=complex)
    B = np.zeros(freqs.shape, dtype=complex)
    C = np.zeros(freqs.shape, dtype=complex)
    D = np.ones(freqs.shape, dtype=complex)
    shorted = np.zeros(freqs.shape, dtype=bool)
    s11_short = np.zeros(freqs.shape, dtype=complex)

    for layer in layers:
        if isinstance(layer, Substrate):
            _, line_z, theta_d = incidence_media(incidence, layer, freqs, dielectric_loss)
            cos_t = np.cos(theta_d)
            sin_t = np.sin(theta_d)
            b_line = 1j * line_z * sin_t
            c_line = 1j * sin_t / line_z
            A, B, C, D = (
                A * cos_t + B * c_line,
                A * b_line + B * cos_t,
                C * cos_t + D * c_line,
                C * b_line + D * cos_t,
            )
        else:
            y = _reference_admittance(layer, w)
            bad = ~np.isfinite(y)
            if bad.any():
                first = bad & ~shorted
                s11_short[first] = (B[first] - D[first] * port) / (B[first] + D[first] * port)
                shorted |= bad
                y = np.where(bad, 0.0, y)
            A = A + B * y
            C = C + D * y
    return A, B, C, D, shorted, s11_short


def _reference_response_arrays(stack, freqs, want_s22):
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InvalidParameterError("frequency grid must be a non-empty 1-D array")
    if np.any(freqs <= 0.0):
        raise InvalidParameterError("all frequencies must be positive")

    port = port_impedance(stack.incidence)
    A, B, C, D, shorted, s11_short = _reference_chain(
        stack.layers, stack.incidence, stack.dielectric_loss, freqs
    )

    delta = A * port + B + C * port * port + D * port
    if not np.all(np.isfinite(delta)):
        raise SingularNetworkError(f"network overflows at {freqs[~np.isfinite(delta)][0]} Hz")
    s21 = 2.0 * port / delta
    s11 = (A * port + B - C * port * port - D * port) / delta
    s22 = None
    if want_s22:
        s22 = (-A * port + B - C * port * port + D * port) / delta

    if shorted.any():
        # No transmission past a short; each side sees its own shorted prefix.
        s11[shorted] = s11_short[shorted]
        s21[shorted] = 0j
        if want_s22:
            s22[shorted] = _reference_chain(
                stack.layers[::-1], stack.incidence, stack.dielectric_loss, freqs[shorted]
            )[5]
    return s11, s21, s22


def _engine_outcome(fn, *args):
    """The raw bits of every output, or the class and message of the error."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(None if s is None else s.view(np.uint64).tolist() for s in out)


def _exact_short(branch):
    """A frequency where the lossless series branch is an exact short, or None."""
    f0 = branch.resonance()
    for f in f0 + np.arange(-32, 33) * np.spacing(f0):
        w = 2.0 * math.pi * np.array([f])
        if (w * branch.L - 1.0 / (w * branch.C))[0] == 0.0:
            return float(f)
    return None


def _shorting_stack(rng, second_order, polarization, loss):
    """A seeded first- or second-order stack and the exact-short frequency
    of one of its series branches."""
    while True:
        s = rng.uniform(0.8, 1.2, 6)
        sub = Substrate(0.635e-3 * s[0], 10.2, 0.0023)
        inc = Incidence(rng.uniform(0.0, math.radians(80)), polarization)
        if second_order:
            branch = SeriesLC(4.9e-9 * s[1], 0.5e-12 * s[2])
            other = SeriesLC(2.0e-9 * s[3], 0.5e-12, rng.choice([0.0, 2.0]))
            stack = build_second_order(
                (branch, other), Tank(2.5e-9 * s[4], 0.3e-12 * s[5]), sub, inc, loss
            )
        else:
            circuit = ExtractedCircuit(
                4.9e-9 * s[1], 0.5e-12 * s[2], 4e-9 * s[3], 0.35e-12 * s[4],
                rng.choice([0.0, 0.8e-9 * s[5]]),
            )
            branch = SeriesLC(circuit.L_series, circuit.C_series)
            stack = build_first_order(circuit, sub, inc, loss)
        f_short = _exact_short(branch)
        if f_short is not None:
            return stack, f_short


def test_blocked_engine_matches_unblocked_reference():
    rng = np.random.default_rng(20261018)
    block = topology._BLOCK
    compared = 0
    for n in (1, block - 1, block, block + 1, 3 * block + 17):
        # exact shorts in the first block, the last block, and on both
        # sides of the first block edge the grid has
        at = sorted({3 % n, n - 1} | ({block - 1, block} if n > block else set()))
        # numpy may round a one-element complex product differently when it
        # is written over an operand, so one-point grids get many stacks
        draws = 30 if n == 1 else 1
        for second_order, polarization, loss, _ in itertools.product(
            (False, True), ("TE", "TM"), (False, True), range(draws)
        ):
            stack, f_short = _shorting_stack(rng, second_order, polarization, loss)
            plain = np.linspace(0.5e9, 12e9, n) if n > 1 else rng.uniform(0.5e9, 12e9, 1)
            shorts = plain.copy()
            shorts[at] = f_short
            with np.errstate(divide="ignore", invalid="ignore"):
                short = _chain(stack.layers, stack.incidence, loss, shorts)[4]
            assert np.flatnonzero(short).tolist() == at
            for freqs, want_s22 in itertools.product((plain, shorts), (True, False)):
                want = _engine_outcome(_reference_response_arrays, stack, freqs, want_s22)
                got = _engine_outcome(topology._response_arrays, stack, freqs, want_s22)
                assert got == want, (n, second_order, polarization, loss, want_s22)
                compared += 1
    assert compared == 4 * 8 * (30 + 4)

    # stacks with lossless and lossy nodes on a thick lossy line that
    # overflows from the third block on: the error names the first frequency
    # at which the whole-array reference chain's delta is not finite
    freqs = np.linspace(0.5e9, 12e9, 3 * block + 17)
    for G in (0.0, 1e-3):
        node = Tank(1e-9, 1e-12, G)
        stack = FssStack((node, Substrate(2.5, 10.2, 1.0), node), dielectric_loss=True)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _engine_outcome(_reference_response_arrays, stack, freqs, True)
        assert want == (SingularNetworkError, f"network overflows at {freqs[9309]} Hz")
        assert 2 * block < 9309 < 3 * block
        for want_s22 in (True, False):
            assert _engine_outcome(topology._response_arrays, stack, freqs, want_s22) == want


def _raw_bits(arrays):
    """The raw bits of every array (masks as booleans)."""
    return [m.tolist() if m.dtype == bool else m.view(np.uint64).tolist() for m in arrays]


def test_chain_matches_reference_from_any_first_layer():
    """``_chain`` fuses the first node with the first line instead of
    multiplying it into the identity.  A complex chain keeps the
    reference's bits for A, B, C, D, shorts and short reflections; a real
    one holds the reference's A.real, B.imag, C.imag and D.real bit for
    bit, and the parts it drops are zero away from the shorts.  This holds
    for a stack's layers, forward or reversed, whose first node shorts at
    grid points, and for a stack with a long line."""
    rng = np.random.default_rng(16)
    compared = reals = 0
    for second_order, polarization, loss, n in itertools.product(
        (False, True), ("TE", "TM"), (False, True), (1, 7, 300)
    ):
        stack, f_short = _shorting_stack(rng, second_order, polarization, loss)
        # the node with the shorting branch goes first: it is the first node
        # of a second-order stack and the last one of a first-order stack
        layers = stack.layers if second_order else stack.layers[::-1]
        plain = np.linspace(0.5e9, 12e9, n) if n > 1 else rng.uniform(0.5e9, 12e9, 1)
        shorts = plain.copy()
        shorts[[0, n // 2]] = f_short
        first = _reference_chain(layers[:1], stack.incidence, loss, shorts)[4]
        assert np.flatnonzero(first).tolist() == sorted({0, n // 2})
        # a line long enough that sin(theta) < 0 on part of the grid
        long = (layers[0], Substrate(30e-3, 10.2, 0.0023), layers[2])
        for chain_layers in (layers, long):
            for freqs in (plain, shorts):
                args = (chain_layers, stack.incidence, loss, freqs)
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = list(_chain(*args))
                if got[4] is None:  # no node shorts: no mask and no reflections
                    got[4:] = np.zeros(freqs.shape, bool), np.zeros(freqs.shape, complex)
                A, B, C, D, shorted, s11_short = _reference_chain(*args)
                if got[0].dtype == float:
                    for dropped in (A.imag, B.real, C.real, D.imag):
                        assert not np.any(dropped[~shorted])
                    A, B, C, D = A.real, B.imag, C.imag, D.real
                    reals += 1
                assert _raw_bits(got) == _raw_bits((A, B, C, D, shorted, s11_short))
                compared += 1
    assert compared == 24 * 2 * 2
    assert 0 < reals < compared


# --- Real and complex chains ---------------------------------------------------
#
# Lossless stacks run a float64 chain, the rest a complex128 one.  Each test
# here compares bit for bit with the reference above and checks the dtype
# of the chain that ran.


def _chain_dtypes(monkeypatch):
    """The dtype of each chain ``topology._chain`` returns from now on."""
    dtypes = []
    chain = topology._chain

    def recorded(layers, incidence, dielectric_loss, freqs):
        out = chain(layers, incidence, dielectric_loss, freqs)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(topology, "_chain", recorded)
    return dtypes


_TANK = Tank(4.9e-9, 0.5e-12)
_SERIES = SeriesLC(4e-9, 0.35e-12)
_BOTTOM = Parallel((Inductor(0.8e-9), _SERIES))
_TANGENT = Substrate(0.635e-3, 10.2, 0.0023)
_NO_TANGENT = Substrate(0.635e-3, 10.2, 0.0)


@pytest.mark.parametrize(
    "layers, dielectric_loss, real",
    [
        ((_TANK, _TANGENT, _BOTTOM), False, True),
        ((_TANK, _NO_TANGENT, _BOTTOM), True, True),
        ((_BOTTOM, _TANGENT, _TANK, _TANGENT, _BOTTOM), False, True),
        ((_BOTTOM, _NO_TANGENT, _TANK, _NO_TANGENT, _BOTTOM), True, True),
        ((_TANK, _TANGENT, _BOTTOM), True, False),
        ((_BOTTOM, _NO_TANGENT, _TANK, _TANGENT, _BOTTOM), True, False),
        ((Tank(4.9e-9, 0.5e-12, 1e-3), _NO_TANGENT, _BOTTOM), False, False),
        ((_TANK, _NO_TANGENT, SeriesLC(4e-9, 0.35e-12, 2.0)), False, False),
        ((_TANK, _NO_TANGENT, Parallel((Inductor(0.8e-9), SeriesLC(4e-9, 0.35e-12, 2.0)))),
         False, False),
    ],
    ids=[
        "tan_delta-loss_off", "no_tan_delta-loss_on", "second_order-loss_off",
        "second_order-no_tan_delta", "lossy_line", "one_lossy_line", "tank_G",
        "series_R", "parallel_one_lossy",
    ],
)
def test_lossless_stacks_and_only_they_take_the_real_path(
    monkeypatch, layers, dielectric_loss, real
):
    dtypes = _chain_dtypes(monkeypatch)
    freqs = np.linspace(0.5e9, 12e9, 1101)
    for inc in (Incidence(), Incidence(0.7, "TE"), Incidence(0.7, "TM")):
        stack = FssStack(layers, inc, dielectric_loss)
        for want_s22 in (True, False):
            want = _engine_outcome(_reference_response_arrays, stack, freqs, want_s22)
            got = _engine_outcome(topology._response_arrays, stack, freqs, want_s22)
            assert got == want, (inc, want_s22)
    assert dtypes == [np.dtype(float if real else complex)] * 6


def test_lossless_grid_with_shorts_in_some_blocks_stays_float64(monkeypatch):
    """Blocks holding an exact short run the float64 chain like the others,
    and match the reference bit for bit, within one call."""
    rng = np.random.default_rng(19)
    block = topology._BLOCK
    n = 3 * block + 17
    dtypes = _chain_dtypes(monkeypatch)
    for second_order, polarization in itertools.product((False, True), ("TE", "TM")):
        stack, f_short = _shorting_stack(rng, second_order, polarization, False)
        while second_order and any(b.R for b in stack.nodes[0].branches):
            stack, f_short = _shorting_stack(rng, second_order, polarization, False)
        freqs = np.linspace(0.5e9, 12e9, n)
        freqs[[5, 2 * block + 9]] = f_short
        for want_s22 in (True, False):
            dtypes.clear()
            want = _engine_outcome(_reference_response_arrays, stack, freqs, want_s22)
            got = _engine_outcome(topology._response_arrays, stack, freqs, want_s22)
            assert got == want, (second_order, polarization, want_s22)
            # the forward chain of each block, and for S22 the reversed
            # chain at the shorts of blocks 0 and 2
            assert dtypes == [np.dtype(float)] * (6 if want_s22 else 4)


def test_lossless_first_order_stack_never_calls_the_complex_chain(
    monkeypatch, ref_circuit, ref_substrate
):
    dtypes = _chain_dtypes(monkeypatch)
    freqs = np.linspace(0.5e9, 12e9, 3 * topology._BLOCK + 17)
    for inc in (Incidence(), Incidence(math.radians(40.0), "TM")):
        stack = build_first_order(ref_circuit, ref_substrate, inc)
        stack_response_full(stack, freqs)
        stack_response(stack, freqs)
    assert dtypes == [np.dtype(float)] * 16


@pytest.mark.parametrize(
    "branch",
    [
        SeriesLC(4.9e-9, 0.5e-12),
        Tank(4.9e-9, 0.5e-12),
        Inductor(0.8e-9),
        Parallel((Inductor(0.8e-9), SeriesLC(4e-9, 0.5e-12))),
        Parallel((SeriesLC(3e-9, 0.4e-12), Parallel((Tank(2.5e-9, 0.3e-12), Inductor(2e-9))))),
    ],
    ids=["series", "tank", "inductor", "parallel", "nested"],
)
def test_susceptance_is_the_admittance_imaginary_part(branch):
    """Bit for bit where the admittance is finite, including 64 ulps around
    every resonance; both non-finite at the exact shorts there."""

    def leaves(b):
        return [x for sub in b.branches for x in leaves(sub)] if isinstance(b, Parallel) else [b]

    freqs = [np.random.default_rng(7).uniform(0.1e9, 40e9, 4000)]
    shorts = 0
    for leaf in leaves(branch):
        if not isinstance(leaf, Inductor):
            f0 = leaf.resonance()
            freqs.append(f0 + np.arange(-32, 33) * np.spacing(f0))
            shorts += isinstance(leaf, SeriesLC)
    w = 2.0 * math.pi * np.concatenate(freqs)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the shorts
        y = _admittance_array(branch, w)
        x = _susceptance_array(branch, w)
    finite = np.isfinite(y)
    assert np.array_equal(np.isfinite(x), finite)
    assert x[finite].view(np.uint64).tolist() == y.imag[finite].view(np.uint64).tolist()
    assert np.count_nonzero(~finite) >= shorts  # each series branch shorts here


def _bits(*values) -> str:
    """Type names and hex float bytes of the values (OPEN by name)."""
    return " ".join(
        "OPEN" if v is OPEN else f"{type(v).__name__}:{np.asarray(v).tobytes().hex()}"
        for v in values
    )


def _bits_outcome(fn, *args) -> str:
    """_bits of fn(*args), or the exception class and message it raised."""
    try:
        out = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, ResponseTable):
        return _bits(out.frequency, out.s11, out.s21)
    return _bits(*out) if isinstance(out, tuple) else _bits(out)


def _response_file_texts(rng):
    """Seeded response-file texts: the CSV schema and Touchstone v1 in every
    format and unit, behind leading blank and comment lines, with malformed
    variants mixed in."""
    blanks = ["\n", "  \n", "\t\n", "! note\n", "!\n"]
    for k in range(120):
        n = int(rng.integers(2, 6))
        cells = [[repr(float(x)) for x in row] for row in rng.uniform(-1.0, 1.0, (n, 8))]
        freqs = np.sort(rng.uniform(1.0, 20.0, n))
        lead = "".join(rng.choice(blanks, int(rng.integers(0, 4))))
        if k % 2 == 0:
            rows = [f"{repr(float(f * 1e9))},{','.join(c[:6])}" for f, c in zip(freqs, cells)]
            if k % 10 == 4:
                rows[-1] += ",1"
            head = CSV_HEADER if k % 14 else CSV_HEADER.replace("s21_db", "s21")
            if "!" in lead:
                lead = "\n \n"
            yield lead + "\n".join([head] + rows) + "\n"
            continue
        unit = rng.choice(["HZ", "KHZ", "MHZ", "GHZ", "hz", "Ghz"])
        fmt = rng.choice(["RI", "MA", "DB", "ri", "db"])
        r = rng.choice(["R 50", "R 376.730313", "R fifty", "R", "R 0", "R -5", "R inf", ""])
        option = rng.choice([f"# {unit} S {fmt} {r}", f"#{fmt} {r} {unit}", "", "# S XY"])
        scale = {"HZ": 1e9, "KHZ": 1e6, "MHZ": 1e3}.get(unit.upper(), 1.0)
        rows = [f"{repr(float(f * scale))} {' '.join(c)}" for f, c in zip(freqs, cells)]
        rng.shuffle(rows)
        if k % 9 == 1:
            rows[0] += " ! trailing comment"
        if k % 11 == 3:
            rows[-1] = " ".join(rows[-1].split()[:8])
        if k % 13 == 5:
            rows[-1] = rows[-1].replace(rows[-1].split()[2], "nan", 1)
        if k % 17 == 7:
            rows = []
        yield lead + "\n".join([option] + rows) + "\n"


def _media_output_lines(tmp_path):
    """Seeded outcomes (the float bytes, or the exception class and
    message) of the TE/TM wave impedances, the L-C resonances, the hybrid
    impedance and the response-file sniffer, one line each."""
    rng = np.random.default_rng(90210)
    lines = []
    for k in range(800):
        theta = 0.0 if k % 10 == 0 else float(rng.uniform(0.0, math.radians(80.0)))
        inc = Incidence(theta, "TE" if k % 2 else "TM")
        tan_delta = 0.0 if k % 7 == 0 else float(rng.uniform(0.0, 0.02))
        sub = Substrate(float(rng.uniform(0.1e-3, 3e-3)), float(rng.uniform(1.0, 12.0)), tan_delta)
        loss = bool(k % 3)
        f = float(rng.uniform(0.1e9, 40e9)) if k % 4 else rng.uniform(0.1e9, 40e9, 3)
        lines.append(_bits(port_impedance(inc)))
        lines.append(_bits_outcome(incidence_media, inc, sub, f, loss))
    for k in range(600):
        L = float(10.0 ** rng.uniform(-10.0, -7.0))
        C = float(10.0 ** rng.uniform(-14.0, -11.0))
        lines.append(_bits(SeriesLC(L, C).resonance(), Tank(C * 1e3, L * 1e-3).resonance()))
        h = HybridCircuit(L, C, float(10.0 ** rng.uniform(-10.0, -7.0)), C * 2.0)
        f = [float(rng.uniform(0.1e9, 40e9)), 0.0, -1e9, math.nan, Tank(L, C).resonance()][k % 5]
        lines.append(_bits_outcome(hybrid_impedance, h, f))
    for k, text in enumerate(_response_file_texts(rng)):
        path = tmp_path / f"r{k}.dat"
        path.write_text(text)
        lines.append(_bits_outcome(load_response, path).replace(str(path), "<file>"))
    return lines


def test_media_resonance_and_reader_outputs_golden(tmp_path):
    """A refactor of the media, resonance, hybrid or sniffer rules must
    leave every bit and every message unchanged; the engine tests above
    call the module's own ``incidence_media`` and cannot.  To pin a
    deliberate change, rewrite the file with
    ``MEDIA_GOLDEN.write_text("\\n".join(_media_output_lines(tmp_path)))``."""
    assert_lines_match(_media_output_lines(tmp_path), MEDIA_GOLDEN)


def test_golden_mismatch_reads_hex_tokens_as_floats(tmp_path):
    # one letter changed inside a float's hex bytes moves that float; the
    # digits around the letter are no decimal numbers of their own
    lines = MEDIA_GOLDEN.read_text().split("\n")[:3]
    path = tmp_path / "expected.txt"
    path.write_text("\n".join(lines))
    token = next(t for t in lines[1].split() if t.startswith("float:"))
    old = token.removeprefix("float:")
    i = next(i for i, ch in enumerate(old) if ch in "abcdef")
    new = old[:i] + ("a" if old[i] != "a" else "b") + old[i + 1:]
    lines[1] = lines[1].replace(token, f"float:{new}", 1)
    moved = abs(int.from_bytes(bytes.fromhex(new), "little")
                - int.from_bytes(bytes.fromhex(old), "little"))
    assert moved > 0
    with pytest.raises(AssertionError) as info:
        assert_lines_match(lines, path)
    assert str(info.value).splitlines()[0] == (
        f"expected.txt: 1 of 3 lines moved, the largest numeric move {moved} ulps"
    )
