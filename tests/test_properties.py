"""Randomized property suites, >= 1000 instances each."""

import math

import numpy as np

from fsskit import (
    DesignTargets,
    ExtractedCircuit,
    FirstOrderGeometry,
    FssStack,
    Incidence,
    Inductor,
    Parallel,
    SeriesLC,
    Substrate,
    Tank,
    circuit_from_targets,
    exact_poles,
    extract_circuit,
    geometry_from_circuit,
    predict_resonances,
    stack_response,
)
from conftest import complex_chain

N = 1000


def _random_branch(rng):
    kind = rng.integers(0, 3)
    l = 10 ** rng.uniform(-9.5, -8.0)
    c = 10 ** rng.uniform(-13.5, -12.0)
    if kind == 0:
        return SeriesLC(l, c)
    if kind == 1:
        return Tank(l, c)
    return Parallel((SeriesLC(l, c), Inductor(10 ** rng.uniform(-9.5, -8.0))))


def _random_stack(rng, lossy=False):
    """A 3- or 5-layer stack; a lossy one has a loss tangent and dielectric
    loss on, so its chain runs in complex128."""
    sub = Substrate(
        rng.uniform(1e-4, 3e-3),
        rng.uniform(1.0, 12.0),
        rng.uniform(1e-4, 0.01) if lossy else 0.0,
    )
    n_nodes = int(rng.integers(2, 4))
    nodes = [_random_branch(rng) for _ in range(n_nodes)]
    if n_nodes == 3:
        nodes[2] = nodes[0]  # symmetric, like second-order builds (any stack is valid)
    layers = []
    for i, node in enumerate(nodes):
        layers.append(node)
        if i < n_nodes - 1:
            layers.append(sub)
    inc = Incidence(rng.uniform(0.0, math.radians(60)), rng.choice(["TE", "TM"]))
    return FssStack(tuple(layers), inc, lossy)


def _assert_passive(s11, s21):
    # a lossy stack absorbs: |S11|^2 + |S21|^2 <= 1
    assert abs(s11[0]) ** 2 + abs(s21[0]) ** 2 <= 1.0


def test_reciprocity_1000(rng):
    # every other stack is lossy
    for i in range(N):
        stack = _random_stack(rng, lossy=i % 2 == 1)
        f = 10 ** rng.uniform(8.5, 10.5)
        A, B, C, D, shorted = complex_chain(
            stack.layers, stack.incidence, stack.dielectric_loss, np.array([f])
        )
        if stack.dielectric_loss:
            _assert_passive(*stack_response(stack, [f]))
        if shorted[0]:
            continue  # exact shorts have no chain matrix
        assert abs(A[0] * D[0] - B[0] * C[0] - 1.0) < 1e-10


def test_lossless_unitarity_1000(rng):
    for _ in range(N):
        stack = _random_stack(rng)
        f = 10 ** rng.uniform(8.5, 10.5)
        s11, s21 = stack_response(stack, [f])
        assert abs(abs(s11[0]) ** 2 + abs(s21[0]) ** 2 - 1.0) < 1e-10


def test_normal_incidence_te_tm_equality_1000(rng):
    # every other stack is lossy
    for i in range(N):
        stack = _random_stack(rng, lossy=i % 2 == 1)
        f = 10 ** rng.uniform(8.5, 10.5)
        te = stack_response(
            FssStack(stack.layers, Incidence(0.0, "TE"), stack.dielectric_loss), [f]
        )
        tm = stack_response(
            FssStack(stack.layers, Incidence(0.0, "TM"), stack.dielectric_loss), [f]
        )
        # bit identical, not merely within tolerance
        assert te[0][0] == tm[0][0] and te[1][0] == tm[1][0]
        if stack.dielectric_loss:
            _assert_passive(*te)


def test_target_roundtrip_1000(rng):
    done = 0
    while done < N:
        c = ExtractedCircuit(
            10 ** rng.uniform(-9.5, -8.0),
            10 ** rng.uniform(-13.5, -12.0),
            10 ** rng.uniform(-9.5, -8.0),
            10 ** rng.uniform(-13.5, -12.0),
        )
        if c.L_series * c.C_series <= c.L_tank * c.C_tank:
            continue
        done += 1
        pred = predict_resonances(c)
        back = circuit_from_targets(
            DesignTargets(pred.f_lower, pred.f_upper, pred.f_zero, c.L_tank)
        )
        for name in ("L_series", "C_series", "L_tank", "C_tank"):
            assert abs(getattr(back, name) - getattr(c, name)) < 1e-9 * getattr(c, name)


def test_geometry_roundtrip_1000(rng):
    for _ in range(N):
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
        back = geometry_from_circuit(c, a, Substrate(1e-3, geom.eps_r))
        for name in ("hat_length", "jc_slot", "cross_slot", "jc_gap"):
            got, want = getattr(back, name), getattr(geom, name)
            assert abs(got - want) < 1e-6 * want


def test_pole_interlacing_1000(rng):
    for _ in range(N):
        c = ExtractedCircuit(
            10 ** rng.uniform(-9.5, -7.5),
            10 ** rng.uniform(-13.5, -11.5),
            10 ** rng.uniform(-9.5, -7.5),
            10 ** rng.uniform(-13.5, -11.5),
        )
        lo, hi = exact_poles(c)
        assert lo < predict_resonances(c).f_zero < hi


def test_series_short_transmission_zero_1000(rng):
    for _ in range(N):
        series = SeriesLC(10 ** rng.uniform(-9.5, -8.0), 10 ** rng.uniform(-13.5, -12.0))
        node = Parallel((series, Inductor(10 ** rng.uniform(-10.0, -8.0))))
        other = Tank(10 ** rng.uniform(-9.5, -8.5), 10 ** rng.uniform(-13.0, -12.0))
        sub = Substrate(rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0))
        inc = Incidence(rng.uniform(0.0, math.radians(60)), rng.choice(["TE", "TM"]))
        stack = FssStack((other, sub, node), inc)
        assert abs(stack_response(stack, [series.resonance()])[1][0]) < 1e-8
