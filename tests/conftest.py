"""Shared fixtures: the S/C-band reference design used throughout the suite.

Reference values: tuned circuit L_series = 4.9 nH, C_series = 0.5 pF,
L_tank = 4 nH, C_tank = 0.35 pF, parasitic 0.8 nH; unit cell period 8.5 mm,
hat 6.8 mm, slots 0.3/0.2 mm, gap 0.5 mm on a 0.635 mm, eps_r 10.2,
tan_delta 0.0023 substrate.
"""

import re
import struct

import numpy as np
import pytest

from fsskit import ExtractedCircuit, FirstOrderGeometry, Substrate
from fsskit.topology import _chain, _stack_terms, port_impedance


def complex_chain(layers, incidence, dielectric_loss, freqs):
    """``topology._chain`` as complex A, B, C, D and the shorted mask.

    A real (lossless) chain holds B/j and C/j; they are multiplied back by
    j, so every caller sees the plain chain matrix whatever the dtype.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # at shorts
        terms = _stack_terms(layers, incidence, dielectric_loss, freqs)
        A, B, C, D, shorted, _ = _chain(terms, port_impedance(incidence))
    if A.dtype == float:
        A, B, C, D = A + 0j, 1j * B, 1j * C, D + 0j
    if shorted is None:
        shorted = np.zeros(freqs.shape, dtype=bool)
    return A, B, C, D, shorted


# a whole decimal token, and a type name with the hex bytes of its
# little-endian float64 values, as ``float:<hex>`` in the topology golden
_NUMBER = re.compile(
    r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan))(?!\w)"
)
_HEX = re.compile(r"\b([A-Za-z_]+:)((?:[0-9a-f]{16})+)\b")


def _numbers(line: str) -> tuple[str, list]:
    """The line with each number replaced by ``#``, and the numbers as
    floats: every float64 of a hex token, then every decimal token."""
    values = [
        x for _, h in _HEX.findall(line) for x in struct.unpack(f"<{len(h) // 16}d", bytes.fromhex(h))
    ]
    line = _HEX.sub(r"\1#", line)
    return _NUMBER.sub("#", line), values + [float(x) for x in _NUMBER.findall(line)]


def _ulps(x: float, y: float) -> int:
    """Number of floats between x and y (0.0 and -0.0 coincide)."""
    def key(v):
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(key(x) - key(y))


def assert_lines_match(lines, path, shown: int = 5) -> None:
    """Compare result lines byte for byte with the expected-lines file
    ``path`` (the lines joined by newlines, no trailing newline).  A
    mismatch names the number of moved lines, the first ``shown`` of them,
    and the largest move in ulps among lines that differ only in numbers."""
    text = "\n".join(lines)
    expected = path.read_bytes().decode()
    if text == expected:
        return
    old = expected.split("\n")
    if len(old) != len(lines):
        raise AssertionError(f"{path.name}: {len(lines)} lines, expected {len(old)}")
    moved = [(i, a, b) for i, (a, b) in enumerate(zip(old, lines), 1) if a != b]
    largest = 0
    for _, a, b in moved:
        (shape_a, xs), (shape_b, ys) = _numbers(a), _numbers(b)
        if shape_a == shape_b and len(xs) == len(ys):
            largest = max([largest, *map(_ulps, xs, ys)])
    report = [f"{path.name}: {len(moved)} of {len(old)} lines moved, "
              f"the largest numeric move {largest} ulps"]
    for i, a, b in moved[:shown]:
        report += [f"line {i}:", f"- {a}", f"+ {b}"]
    raise AssertionError("\n".join(report))


@pytest.fixture
def ref_circuit() -> ExtractedCircuit:
    """Tuned circuit values of the reference design, parasitic included."""
    return ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, 0.8e-9)


@pytest.fixture
def ref_geometry() -> FirstOrderGeometry:
    return FirstOrderGeometry(
        period=8.5e-3,
        hat_length=6.8e-3,
        jc_slot=0.3e-3,
        cross_slot=0.2e-3,
        jc_gap=0.5e-3,
        thickness=0.635e-3,
        eps_r=10.2,
        tan_delta=0.0023,
    )


@pytest.fixture
def ref_substrate() -> Substrate:
    return Substrate(0.635e-3, 10.2, 0.0023)


@pytest.fixture
def nominal_geometry() -> FirstOrderGeometry:
    """Smaller-cell geometry used for the parametric trend studies."""
    return FirstOrderGeometry(
        period=5e-3,
        hat_length=3e-3,
        jc_slot=0.15e-3,
        cross_slot=0.15e-3,
        jc_gap=0.2e-3,
        thickness=0.254e-3,
        eps_r=10.2,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
