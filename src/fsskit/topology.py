"""Assembly and evaluation of layered shunt/line stacks.

A stack alternates shunt lumped-branch nodes with substrate line sections
and is illuminated by a plane wave of given incidence angle and
polarization.  The first-order build is [tank] -- line -- [series branch
(+ optional parasitic inductor)], the second-order build a symmetric
three-node chain.  Lumped values are taken angle independent;
obliquity enters through the port impedances, the line impedance, and
the electrical length only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, ETA0
from .errors import InvalidParameterError, SingularNetworkError
from .extraction import ExtractedCircuit
from .lumped import Branch, Inductor, Parallel, SeriesLC, Tank, _admittance_array

_POLARIZATIONS = ("TE", "TM")

# |denominator| below this is reported as a singular network instead of
# silently turning into infinities.
SINGULAR_DELTA = 1e-30

# The engine runs over the grid in blocks of this many points, so that its
# temporaries stay in cache; every operation is element-wise, so the bits
# do not depend on it.
_BLOCK = 4096


@dataclass(frozen=True)
class Incidence:
    """Plane-wave illumination: angle from normal (radians) and polarization."""

    theta: float = 0.0
    polarization: str = "TE"

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi / 2.0:
            raise InvalidParameterError(
                f"incidence angle must lie in [0, pi/2), got {self.theta}"
            )
        if self.polarization not in _POLARIZATIONS:
            raise InvalidParameterError(
                f"polarization must be one of {_POLARIZATIONS}, got {self.polarization!r}"
            )


@dataclass(frozen=True)
class Substrate:
    thickness: float
    eps_r: float
    tan_delta: float = 0.0

    def __post_init__(self):
        if not self.thickness > 0.0:
            raise InvalidParameterError(
                f"substrate thickness must be positive, got {self.thickness}"
            )
        if not self.eps_r >= 1.0:
            raise InvalidParameterError(f"eps_r must be >= 1, got {self.eps_r}")
        if self.tan_delta < 0.0:
            raise InvalidParameterError(f"tan_delta must be >= 0, got {self.tan_delta}")


@dataclass(frozen=True)
class FssStack:
    """Alternating sequence of shunt branch nodes and substrate line
    sections, outermost nodes first and last.  Immutable; safe to share
    across parallel frequency evaluations."""

    layers: tuple
    incidence: Incidence = Incidence()
    dielectric_loss: bool = False

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 3 or len(layers) % 2 == 0:
            raise InvalidParameterError(
                "stack must alternate shunt nodes and lines, starting and ending "
                f"with a node (got {len(layers)} layers)"
            )
        for i, layer in enumerate(layers):
            if i % 2 == 0:
                if not isinstance(layer, Branch):
                    raise InvalidParameterError(
                        f"layer {i} must be a shunt lumped branch, got {layer!r}"
                    )
            elif not isinstance(layer, Substrate):
                raise InvalidParameterError(
                    f"layer {i} must be a Substrate line section, got {layer!r}"
                )
        nodes = layers[::2]
        if len(nodes) == 3 and nodes[0] != nodes[2]:
            raise InvalidParameterError(
                "three-node stacks must be symmetric (identical outer layers)"
            )

    @property
    def nodes(self) -> tuple:
        return self.layers[::2]


def port_impedance(inc: Incidence) -> float:
    """Free-space wave impedance seen by the given polarization at angle theta."""
    if inc.polarization == "TE":
        return ETA0 / math.cos(inc.theta)
    return ETA0 * math.cos(inc.theta)


def incidence_media(inc: Incidence, sub: Substrate, f, dielectric_loss: bool = False):
    """Port impedance, substrate line impedance, and electrical length.

    Snell refraction into the substrate sets the oblique line parameters;
    with ``dielectric_loss`` the substrate permittivity becomes complex and
    so do the line impedance and electrical length.  ``f`` may be a scalar
    or an array (the electrical length scales linearly with it).
    """
    if dielectric_loss and sub.tan_delta > 0.0:
        eps = sub.eps_r * (1.0 - 1j * sub.tan_delta)
    else:
        eps = sub.eps_r
    sin_i = math.sin(inc.theta)
    # cos of the refraction angle; evaluates to exactly 1.0 at normal
    # incidence so TE and TM outputs are bit-identical there.
    cos_r = (1.0 - sin_i * sin_i / eps) ** 0.5
    z_slab = ETA0 / eps ** 0.5
    if inc.polarization == "TE":
        line_z = z_slab / cos_r
    else:
        line_z = z_slab * cos_r
    theta_d = (2.0 * math.pi / C0) * sub.thickness * (eps ** 0.5) * cos_r * f
    return port_impedance(inc), line_z, theta_d


def build_first_order(
    circuit: ExtractedCircuit,
    sub: Substrate,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
) -> FssStack:
    """Two-node stack: bandpass tank, substrate line, bandstop series branch.

    A zero parasitic inductance omits the inductor branch entirely.
    """
    tank = Tank(circuit.L_tank, circuit.C_tank)
    series = SeriesLC(circuit.L_series, circuit.C_series)
    if circuit.L_parasitic > 0.0:
        bottom: Branch = Parallel((Inductor(circuit.L_parasitic), series))
    else:
        bottom = series
    return FssStack((tank, sub, bottom), inc, dielectric_loss)


def build_second_order(
    outer: tuple[SeriesLC, SeriesLC],
    middle: Tank,
    sub: Substrate,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
) -> FssStack:
    """Symmetric three-node stack: two identical outer nodes, each a pair of
    series L-C branches in parallel, around a bandpass tank."""
    branch_a, branch_b = outer
    for b in (branch_a, branch_b):
        if not isinstance(b, SeriesLC):
            raise InvalidParameterError(f"outer branches must be SeriesLC, got {b!r}")
    if not isinstance(middle, Tank):
        raise InvalidParameterError(f"middle layer must be a Tank, got {middle!r}")
    node = Parallel((branch_a, branch_b))
    return FssStack((node, sub, middle, sub, node), inc, dielectric_loss)


def stack_response(stack: FssStack, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (S11, S21) over a frequency array."""
    s11, s21, _ = _response_arrays(stack, freqs, want_s22=False)
    return s11, s21


def stack_response_full(stack: FssStack, freqs):
    """Vectorized (S11, S21, S22); S12 equals S21 for these reciprocal stacks."""
    return _response_arrays(stack, freqs, want_s22=True)


def _chain(layers, incidence: Incidence, dielectric_loss: bool, freqs: np.ndarray):
    """Chain-matrix entries A, B, C, D of ``layers`` over the grid ``freqs``.

    Where a node is a perfect short (non-finite admittance), the first such
    node ends transmission: the reflection into the prefix chain terminated
    in that short, S11 = (B - D*Z)/(B + D*Z) with Z the port impedance, is
    recorded, and the node is then taken as Y = 0 so the product stays
    finite.  Returns (A, B, C, D, shorted, s11_short); ``s11_short`` is
    meaningful only where ``shorted`` is set.

    A, B, C and D are updated in place through two scratch buffers; every
    product and sum keeps the operand order of the plain matrix product,
    so the bits are those of evaluating it with fresh arrays.
    """
    w = 2.0 * math.pi * freqs
    port = port_impedance(incidence)
    A = np.ones(freqs.shape, dtype=complex)
    B = np.zeros(freqs.shape, dtype=complex)
    C = np.zeros(freqs.shape, dtype=complex)
    D = np.ones(freqs.shape, dtype=complex)
    t1 = np.empty(freqs.shape, dtype=complex)
    t2 = np.empty(freqs.shape, dtype=complex)
    shorted = np.zeros(freqs.shape, dtype=bool)
    s11_short = np.zeros(freqs.shape, dtype=complex)

    for layer in layers:
        if isinstance(layer, Substrate):
            _, line_z, theta_d = incidence_media(incidence, layer, freqs, dielectric_loss)
            cos_t = np.cos(theta_d)
            sin_t = np.sin(theta_d)
            b_line = 1j * line_z * sin_t
            c_line = 1j * sin_t / line_z
            # [A B; C D] @ [cos_t b_line; c_line cos_t].  No product writes
            # over one of its own operands: numpy may round such an aliased
            # complex product differently (seen on one-point arrays).
            np.multiply(A, cos_t, out=t1)
            t1 += np.multiply(B, c_line, out=t2)
            np.multiply(A, b_line, out=t2)
            np.add(t2, np.multiply(B, cos_t, out=A), out=B)
            A, t1 = t1, A
            np.multiply(C, cos_t, out=t1)
            t1 += np.multiply(D, c_line, out=t2)
            np.multiply(C, b_line, out=t2)
            np.add(t2, np.multiply(D, cos_t, out=C), out=D)
            C, t1 = t1, C
        else:
            y = _admittance_array(layer, w)
            bad = ~np.isfinite(y)
            if bad.any():
                first = bad & ~shorted
                s11_short[first] = (B[first] - D[first] * port) / (B[first] + D[first] * port)
                shorted |= bad
                y[bad] = 0.0
            A += np.multiply(B, y, out=t1)
            C += np.multiply(D, y, out=t1)
    return A, B, C, D, shorted, s11_short


def _response_arrays(stack: FssStack, freqs, want_s22: bool):
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InvalidParameterError("frequency grid must be a non-empty 1-D array")
    if np.any(freqs <= 0.0):
        raise InvalidParameterError("all frequencies must be positive")

    s11 = np.empty(freqs.shape, dtype=complex)
    s21 = np.empty(freqs.shape, dtype=complex)
    s22 = np.empty(freqs.shape, dtype=complex) if want_s22 else None
    for start in range(0, freqs.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _block_response(
            stack, freqs[block], s11[block], s21[block], None if s22 is None else s22[block]
        )
    return s11, s21, s22


def _block_response(stack: FssStack, freqs, s11, s21, s22):
    """Write S11, S21 (and S22 unless it is None) of one block of the grid
    into the given output slices."""
    port = port_impedance(stack.incidence)
    A, B, C, D, shorted, s11_short = _chain(
        stack.layers, stack.incidence, stack.dielectric_loss, freqs
    )
    # A*port, D*port and C*port*port are each formed once and shared by
    # delta, S11 and S22; the sums keep the left-to-right order of
    #   delta = A*port + B + C*port*port + D*port
    #   S11 = (A*port + B - C*port*port - D*port) / delta
    #   S22 = (-A*port + B - C*port*port + D*port) / delta
    num11 = A * port
    if s22 is not None:
        num22 = np.multiply(-A, port, out=A)
        num22 += B
    num11 += B
    t = C * port
    Cpp = np.multiply(t, port, out=C)
    Dp = np.multiply(D, port, out=t)
    delta = num11 + Cpp
    delta += Dp

    singular = np.abs(delta) < SINGULAR_DELTA
    singular &= ~shorted
    if singular.any():
        idx = np.flatnonzero(singular)[0]
        raise SingularNetworkError(f"singular network at {freqs[idx]} Hz")
    np.divide(2.0 * port, delta, out=s21)
    num11 -= Cpp
    num11 -= Dp
    np.divide(num11, delta, out=s11)
    if s22 is not None:
        num22 -= Cpp
        num22 += Dp
        np.divide(num22, delta, out=s22)

    if shorted.any():
        # No transmission past a short; each side sees its own shorted prefix.
        s11[shorted] = s11_short[shorted]
        s21[shorted] = 0j
        if s22 is not None:
            s22[shorted] = _chain(
                stack.layers[::-1], stack.incidence, stack.dielectric_loss, freqs[shorted]
            )[5]
