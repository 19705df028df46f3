"""Chain-matrix algebra of the array network engine.

``_chain`` multiplies the ABCD matrices of a stack's shunt nodes and line
sections over a frequency grid; ``stack_response`` turns a stack's chain
matrix into S-parameters between its free-space ports.
"""

import cmath
import math

import numpy as np
import pytest

from fsskit import (
    C0,
    ETA0,
    FssStack,
    Incidence,
    Inductor,
    Parallel,
    SeriesLC,
    Substrate,
    Tank,
    incidence_media,
    stack_response,
)
from conftest import complex_chain

F = 1e9
F_UNIT = 2.0**27 / (2.0 * math.pi)  # w = 2**27 rad/s: Tank(U, U) is exactly open here
U = 2.0**-27
OPEN_NODE = Tank(U, U)


def _thin_line(thickness):
    """A free-space line thinner than ``Substrate`` accepts as input: the
    chain algebra holds for any thickness, and these tests need lines whose
    electrical length underflows to 0 or nearly so."""
    line = object.__new__(Substrate)
    for name, value in (("thickness", thickness), ("eps_r", 1.0), ("tan_delta", 0.0)):
        object.__setattr__(line, name, value)
    return line


def _identity_prefix(f):
    """A lossless node and a line whose chain matrices are exactly the
    identity at f.  ``_chain`` takes the layers of a stack, which start with
    a node and a line; behind this pair it multiplies any sequence.

    The tank is exactly open where w*C equals 1/(w*L) in floating point,
    searched for among the floats next to L = C = 1/w; the line is so
    thin that its electrical length underflows to 0."""
    w = 2.0 * math.pi * f

    def near(x):
        below, above = [x], [x]
        for _ in range(8):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        return below + above[1:]

    by_value = {w * C: C for C in near(1.0 / w)}
    for L in near(1.0 / w):
        C = by_value.get(1.0 / (w * L))
        if C is not None:
            return Tank(L, C), _thin_line(5e-324)
    raise AssertionError(f"no exactly open tank found at {f} Hz")


def _abcd(layers, f, incidence=Incidence(), dielectric_loss=False):
    prefix = _identity_prefix(f)
    identity = complex_chain(prefix, incidence, dielectric_loss, np.array([f]))[:4]
    assert [m[0] for m in identity] == [1, 0, 0, 1]
    layers = (*prefix, *layers)
    A, B, C, D, shorted = complex_chain(layers, incidence, dielectric_loss, np.array([f]))
    assert not shorted[0]
    return A[0], B[0], C[0], D[0]


def _free_space_line(theta, f):
    """eps_r = 1 substrate matched to the normal-incidence port, electrical
    length theta at f."""
    return Substrate(theta * C0 / (2.0 * math.pi * f), 1.0)


def test_shunt_open_branch_is_identity():
    assert _abcd((OPEN_NODE,), F_UNIT) == (1, 0, 0, 1)
    assert _abcd((Parallel((OPEN_NODE, OPEN_NODE)),), F_UNIT) == (1, 0, 0, 1)


def test_shunt_stores_admittance():
    node = Tank(U, 2.0 * U)  # susceptance exactly w*C - 1/(w*L) = 2 - 1 at w = 1 / U
    A, B, C, D = _abcd((node,), F_UNIT)
    assert C == 1j
    assert A == 1 and D == 1 and B == 0


def test_shunt_capacitor_admittance():
    # j*w*C for C = 0.5 pF at 1 GHz, from a tank whose inductive part is
    # negligible
    _, _, C, _ = _abcd((Tank(1e3, 0.5e-12),), F)
    assert C == pytest.approx(3.14159265e-3j, rel=1e-8)


def test_line_zero_length_is_identity():
    A, B, C, D = _abcd((_thin_line(1e-15 * C0 / (2.0 * math.pi * F)),), F)
    assert A == pytest.approx(1, abs=1e-15) and D == pytest.approx(1, abs=1e-15)
    assert B == pytest.approx(0, abs=1e-12) and C == pytest.approx(0, abs=1e-15)


def test_quarter_wave_matched_line_gives_minus_j():
    sub = _free_space_line(math.pi / 2, F_UNIT)
    s11, s21 = stack_response(FssStack((OPEN_NODE, sub, OPEN_NODE)), [F_UNIT])
    assert s21[0] == pytest.approx(-1j, abs=1e-12)
    assert abs(s11[0]) < 1e-12


def test_line_accepts_substrate_impedance():
    sub = Substrate(0.635e-3, 10.2)
    _, zc, theta = incidence_media(Incidence(), sub, F)
    assert zc == pytest.approx(377.0 / math.sqrt(10.2), rel=1e-3)
    _, B, C, _ = _abcd((sub,), F)
    assert B == pytest.approx(1j * zc * math.sin(theta))
    assert C == pytest.approx(1j * math.sin(theta) / zc)


def test_line_accepts_complex_arguments():
    # lossy dielectric: complex impedance and electrical length
    sub = Substrate(0.635e-3, 10.2, 0.01)
    _, zc, theta = incidence_media(Incidence(), sub, F, dielectric_loss=True)
    assert zc.imag != 0.0 and theta.imag != 0.0
    A, _, _, _ = _abcd((sub,), F, dielectric_loss=True)
    assert A == pytest.approx(cmath.cos(theta))


def test_cascade_identities():
    assert _abcd((OPEN_NODE, OPEN_NODE), F_UNIT) == (1, 0, 0, 1)


def test_cascade_merges_adjacent_shunts():
    n1, n2 = Tank(2e-9, 1e-12), SeriesLC(3e-9, 2e-12)
    w = 2 * math.pi * F
    A, B, C, D = _abcd((n1, n2), F)
    # j(wC1 - 1/(wL1)) + 1/(j(wL2 - 1/(wC2))), in closed form
    b_tank = w * 1e-12 - 1 / (w * 2e-9)
    b_series = -1 / (w * 3e-9 - 1 / (w * 2e-12))
    assert C == pytest.approx(1j * (b_tank + b_series))
    assert A == 1 and B == 0 and D == 1
    assert C == pytest.approx(_abcd((Parallel((n1, n2)),), F)[2])


def test_cascade_associativity(rng):
    # the chain of a sequence is the matrix product of the chains of any
    # split of it, through a lossy line
    for _ in range(200):
        f = rng.uniform(1e8, 2e10)
        layers = (
            Tank(10 ** rng.uniform(-9.5, -8), 10 ** rng.uniform(-13, -12)),
            Substrate(rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0), rng.uniform(0, 0.01)),
            SeriesLC(10 ** rng.uniform(-9.5, -8), 10 ** rng.uniform(-13, -12)),
        )
        whole = np.array(_abcd(layers, f, dielectric_loss=True)).reshape(2, 2)
        for k in (1, 2):
            left = np.array(_abcd(layers[:k], f, dielectric_loss=True)).reshape(2, 2)
            right = np.array(_abcd(layers[k:], f, dielectric_loss=True)).reshape(2, 2)
            np.testing.assert_allclose(left @ right, whole, rtol=1e-12, atol=1e-12)


def test_to_sparams_identity_network():
    # a matched line between two open nodes is a perfect through
    sub = _free_space_line(0.7, F_UNIT)
    s11, s21 = stack_response(FssStack((OPEN_NODE, sub, OPEN_NODE)), [F_UNIT])
    assert abs(s21[0]) == pytest.approx(1.0)
    assert s11[0] == pytest.approx(0.0, abs=1e-15)


def test_to_sparams_matched_shunt():
    # shunt susceptance B = 1 S at port 1, then a matched line of length
    # theta to an open node: S21 = 2 e^(-j theta) / (2 + j B eta0) and
    # S11 = -j B eta0 / (2 + j B eta0)
    node = Tank(U, 2.0 * U)
    sub = _free_space_line(0.7, F_UNIT)
    s11, s21 = stack_response(FssStack((node, sub, OPEN_NODE)), [F_UNIT])
    assert s21[0] == pytest.approx(2 * cmath.exp(-0.7j) / (2 + 1j * ETA0))
    assert s11[0] == pytest.approx(-1j * ETA0 / (2 + 1j * ETA0))


def test_to_sparams_shunt_short_blocks_transmission():
    node = SeriesLC(U, U)  # w*L - 1/(w*C) is exactly 0 at w = 1 / U
    sub = _free_space_line(0.7, F_UNIT)
    s11, s21 = stack_response(FssStack((node, sub, OPEN_NODE)), [F_UNIT])
    assert s21[0] == 0 and s11[0] == -1


def test_half_wave_line_transmits_fully():
    sub = _free_space_line(math.pi, F_UNIT)
    stack = FssStack((OPEN_NODE, sub, OPEN_NODE))
    _, s21 = stack_response(stack, [F_UNIT])
    assert abs(s21[0]) == pytest.approx(1.0)


def _random_lossy_layers(rng):
    """Nodes and lines in any order; the lines have loss tangents, so with
    dielectric loss on the chain runs in complex128."""
    layers = []
    for _ in range(rng.integers(1, 6)):
        l = 10 ** rng.uniform(-9.5, -8.0)
        c = 10 ** rng.uniform(-13.5, -12.0)
        kind = rng.integers(0, 4)
        if kind == 0:
            layers.append(
                Substrate(rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0), rng.uniform(1e-4, 0.01))
            )
        elif kind == 1:
            layers.append(SeriesLC(l, c))
        elif kind == 2:
            layers.append(Tank(l, c))
        else:
            layers.append(Parallel((SeriesLC(l, c), Inductor(10 ** rng.uniform(-9.5, -8.0)))))
    return tuple(layers)


def test_reciprocity_of_assembled_networks(rng):
    # shunt/line primitives always produce AD - BC = 1
    for _ in range(100):
        f = rng.uniform(1e8, 2e10)
        A, B, C, D = _abcd(_random_lossy_layers(rng), f, dielectric_loss=True)
        assert abs(A * D - B * C - 1.0) < 1e-10


def test_lossless_unitarity(rng):
    # pure reactances + real equal ports conserve power
    for _ in range(200):
        f = rng.uniform(1e8, 2e10)
        sub = Substrate(rng.uniform(1e-4, 3e-3), rng.uniform(1.0, 12.0))
        nodes = [Tank(10 ** rng.uniform(-9.5, -8), 10 ** rng.uniform(-13.5, -12)),
                 SeriesLC(10 ** rng.uniform(-9.5, -8), 10 ** rng.uniform(-13.5, -12))]
        rng.shuffle(nodes)
        inc = Incidence(rng.uniform(0, math.radians(80)), rng.choice(["TE", "TM"]))
        s11, s21 = stack_response(FssStack((nodes[0], sub, nodes[1]), inc), [f])
        assert abs(abs(s11[0]) ** 2 + abs(s21[0]) ** 2 - 1.0) < 1e-10
