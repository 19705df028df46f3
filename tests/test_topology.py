import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fsskit import (
    ETA0,
    ExtractedCircuit,
    FssStack,
    Incidence,
    Inductor,
    Parallel,
    SeriesLC,
    Substrate,
    Tank,
    build_first_order,
    build_second_order,
    incidence_media,
    port_impedance,
    predict_resonances,
    branch_impedance,
    stack_response,
    stack_response_full,
    surface_impedance,
)
from fsskit.lumped import OPEN
from fsskit import topology
from fsskit.errors import InvalidParameterError, SingularNetworkError
from fsskit.topology import SINGULAR_DELTA, _chain


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
    with pytest.raises(InvalidParameterError):
        # asymmetric three-node stacks are rejected
        FssStack((tank, ref_substrate, series, ref_substrate, Tank(5e-9, 0.3e-12)))


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
            nodes[2] = nodes[0]  # three-node stacks must be symmetric
        layers = [nodes[0], sub, nodes[1]] + ([sub, nodes[2]] if len(nodes) == 3 else [])
        inc = Incidence(rng.uniform(0.0, math.radians(80)), rng.choice(["TE", "TM"]))
        stack = FssStack(tuple(layers), inc, bool(rng.integers(0, 2)))
        freqs = 10 ** rng.uniform(8.5, 10.5, 4)
        s11, s21, s22 = stack_response_full(stack, freqs)
        o11, o21, o22 = _nodal_sparams(stack, freqs)
        worst = max(worst, np.max(np.abs([s11 - o11, s21 - o21, s22 - o22])))
    assert worst < 1e-11


def test_stack_twoport_raises_on_exact_short():
    # a perfect short has no chain matrix: the engine marks it and reports
    # total reflection with no transmission
    sub = Substrate(1e-3, 4.0)
    stack = FssStack((Tank(2.0, 3.0), sub, SeriesLC(1.0, 1.0)))
    f_short = 1.0 / (2.0 * math.pi)  # series branch exactly short here
    *_, shorted, _ = _chain(stack.layers, stack.incidence, False, np.array([f_short]))
    assert shorted[0]
    s11, s21 = stack_response(stack, [f_short])
    assert s21[0] == 0j
    assert abs(s11[0]) == pytest.approx(1.0)


def test_vectorized_grid_containing_exact_short():
    # grid point where the series branch is exactly short: the exact-null
    # handling applies to that sample only
    sub = Substrate(1e-3, 4.0)
    stack = FssStack((Tank(2.0, 3.0), sub, SeriesLC(1.0, 1.0)))
    f_short = 1.0 / (2.0 * math.pi)
    freqs = np.array([0.5 * f_short, f_short, 2.0 * f_short])
    s11, s21, s22 = stack_response_full(stack, freqs)
    assert s21[1] == 0j
    assert abs(s11[1]) == pytest.approx(1.0)
    assert abs(s22[1]) == pytest.approx(1.0)
    off = freqs[[0, 2]]
    # the other samples are exactly what the grid without the short gives
    _, s21_off = stack_response(stack, off)
    assert np.array_equal(s21[[0, 2]], s21_off)
    # the 7e-12 rad line makes the Y matrix ill-conditioned (cond ~ 1e10),
    # which bounds the oracle's own accuracy here
    _, o21, _ = _nodal_sparams(stack, off)
    np.testing.assert_allclose(s21_off, o21, rtol=1e-6)


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


def _reference_response_arrays(stack, freqs, want_s22, _chain=_reference_chain):
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InvalidParameterError("frequency grid must be a non-empty 1-D array")
    if np.any(freqs <= 0.0):
        raise InvalidParameterError("all frequencies must be positive")

    port = port_impedance(stack.incidence)
    A, B, C, D, shorted, s11_short = _chain(
        stack.layers, stack.incidence, stack.dielectric_loss, freqs
    )

    delta = A * port + B + C * port * port + D * port
    ok = ~shorted
    if np.any(np.abs(delta[ok]) < SINGULAR_DELTA):
        idx = np.nonzero(ok & (np.abs(delta) < SINGULAR_DELTA))[0][0]
        raise SingularNetworkError(f"singular network at {freqs[idx]} Hz")
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
            s22[shorted] = _chain(
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


def test_blocked_engine_matches_unblocked_reference(monkeypatch):
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
            short = _chain(stack.layers, stack.incidence, loss, shorts)[4]
            assert np.flatnonzero(short).tolist() == at
            for freqs, want_s22 in itertools.product((plain, shorts), (True, False)):
                want = _engine_outcome(_reference_response_arrays, stack, freqs, want_s22)
                got = _engine_outcome(topology._response_arrays, stack, freqs, want_s22)
                assert got == want, (n, second_order, polarization, loss, want_s22)
                compared += 1
    assert compared == 4 * 8 * (30 + 4)

    # a network singular from the third block on, and at an exact short of
    # the first block (which does not count): the error names the first
    # singular frequency of the whole grid
    n = 3 * block + 17
    stack, f_short = _shorting_stack(rng, False, "TE", True)
    freqs = np.linspace(0.5e9, 12e9, n)
    freqs[3] = f_short
    f_bad = freqs[[3, 2 * block + 5, 3 * block + 3]]

    def zeroed(chain):
        def wrapped(layers, incidence, dielectric_loss, f):
            A, B, C, D, short, s11_short = chain(layers, incidence, dielectric_loss, f)
            hit = np.isin(f, f_bad)
            for m in (A, B, C, D):
                m[hit] = 0.0
            return A, B, C, D, short, s11_short

        return wrapped

    # zeroed A-D divide 0 by 0 at the exact short, which real stacks never
    # reach; the engine's own divisions are not wrapped in errstate
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _engine_outcome(
            _reference_response_arrays, stack, freqs, True, zeroed(_reference_chain)
        )
        monkeypatch.setattr(topology, "_chain", zeroed(topology._chain))
        got = _engine_outcome(topology._response_arrays, stack, freqs, True)
    assert want == (SingularNetworkError, f"singular network at {freqs[2 * block + 5]} Hz")
    assert got == want
