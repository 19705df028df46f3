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
from .lumped import Branch, Inductor, Parallel, SeriesLC, Tank
from .lumped import _admittance_array, _susceptance_array

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
    """Dielectric line section between two nodes: thickness (m), relative
    permittivity and loss tangent (used only with dielectric loss on)."""

    thickness: float
    eps_r: float
    tan_delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.thickness < math.inf:
            raise InvalidParameterError(
                f"substrate thickness must be positive, got {self.thickness}"
            )
        if not 1.0 <= self.eps_r < math.inf:
            raise InvalidParameterError(f"eps_r must be >= 1, got {self.eps_r}")
        if not 0.0 <= self.tan_delta < math.inf:
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


def _oblique(z, cos, polarization: str):
    """Wave impedance ``z`` at obliquity ``cos``: divided by it for TE,
    multiplied by it for TM."""
    return z / cos if polarization == "TE" else z * cos


def port_impedance(inc: Incidence) -> float:
    """Free-space wave impedance seen by the given polarization at angle theta."""
    return _oblique(ETA0, math.cos(inc.theta), inc.polarization)


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
    line_z = _oblique(ETA0 / eps ** 0.5, cos_r, inc.polarization)
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
    D = np.ones(freqs.shape, dtype=complex)
    t1 = np.empty(freqs.shape, dtype=complex)
    t2 = np.empty(freqs.shape, dtype=complex)
    shorted = np.zeros(freqs.shape, dtype=bool)
    s11_short = np.zeros(freqs.shape, dtype=complex)

    def node_admittance(layer):
        """The node's admittance, with its shorts recorded and zeroed."""
        y = _admittance_array(layer, w)
        # the sum of finite values is finite unless it overflows, so the
        # mask is built only when some node shorts (or on such an overflow)
        if not np.isfinite(y.sum()):
            bad = ~np.isfinite(y)
            first = bad & ~shorted
            s11_short[first] = (B[first] - D[first] * port) / (B[first] + D[first] * port)
            np.logical_or(shorted, bad, out=shorted)
            y[bad] = 0.0
        return y

    if layers and not isinstance(layers[0], Substrate):
        # The identity times the first node: A stays exactly 1 and
        # C = 0 + 1*y is exactly y + 0, whose + 0 turns -0 into +0 as the
        # sum of the full product does.
        C = node_admittance(layers[0])
        C += 0.0
        layers = layers[1:]
    else:
        C = np.zeros(freqs.shape, dtype=complex)

    for layer in layers:
        if isinstance(layer, Substrate):
            _, line_z, theta_d = incidence_media(incidence, layer, freqs, dielectric_loss)
            # cast once: each complex product would cast a real cos_t again
            cos_t = np.cos(theta_d).astype(complex, copy=False)
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
            y = node_admittance(layer)
            A += np.multiply(B, y, out=t1)
            C += np.multiply(D, y, out=t1)
    return A, B, C, D, shorted, s11_short


def _line_terms(incidence: Incidence, line: Substrate, freqs: np.ndarray):
    """cos(theta), B/j and C/j of a lossless line's chain matrix."""
    _, line_z, theta_d = incidence_media(incidence, line, freqs)
    sin_t = np.sin(theta_d)
    # numpy divides (1j * sin_t) by line_z as sin_t * (1 / line_z)
    return np.cos(theta_d), line_z * sin_t, sin_t * (1.0 / line_z)


def _lossless_chain(stack: FssStack, freqs: np.ndarray):
    """a = A, b = B/j, c = C/j and d = D of a lossless stack's chain matrix
    over the grid ``freqs``, or None if a line or a node has loss or a node
    shorts somewhere on the grid.

    In a lossless chain A and D are real and B and C imaginary, so each
    complex product and sum of ``_chain`` pairs every nonzero component
    with zeros: it is one real product or sum, and these are the same ones
    in the same order, so the four arrays hold ``_chain``'s bits.
    """
    lines = stack.layers[1::2]
    if stack.dielectric_loss and any(line.tan_delta > 0.0 for line in lines):
        return None
    w = 2.0 * math.pi * freqs
    susceptances = []
    for node in stack.nodes:
        x = _susceptance_array(node, w)
        # the sum of finite values is finite unless it overflows
        if x is None or not np.isfinite(x.sum()):
            return None
        susceptances.append(x)
    # The first node and line, [1 0; jx 1] @ [cos_t j*b_line; j*c_line cos_t],
    # without its products by one and its sums with zero: v*1 is v, and a
    # nonzero v plus a signed zero is v.
    x = susceptances[0]
    a, b, c_line = _line_terms(stack.incidence, lines[0], freqs)
    d = np.multiply(x, b)
    np.subtract(a, d, out=d)
    c = np.multiply(x, a, out=x)
    c += c_line
    t1 = np.empty(freqs.shape)
    t2 = np.empty(freqs.shape)
    for k, x in enumerate(susceptances[1:]):
        if k:
            cos_t, b_line, c_line = _line_terms(stack.incidence, lines[k], freqs)
            # [a jb; jc d] @ [cos_t j*b_line; j*c_line cos_t]
            np.multiply(a, cos_t, out=t1)
            t1 -= np.multiply(b, c_line, out=t2)
            np.multiply(b, cos_t, out=t2)
            np.multiply(a, b_line, out=b)
            b += t2
            a, t1 = t1, a
            np.multiply(c, cos_t, out=t1)
            t1 += np.multiply(d, c_line, out=t2)
            np.multiply(d, cos_t, out=t2)
            np.multiply(c, b_line, out=d)
            np.subtract(t2, d, out=d)
            c, t1 = t1, c
        # [a jb; jc d] @ [1 0; jx 1]
        a -= np.multiply(b, x, out=t1)
        c += np.multiply(d, x, out=t1)
    return a, b, c, d


def _response_arrays(stack: FssStack, freqs, want_s22: bool):
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InvalidParameterError("frequency grid must be a non-empty 1-D array")
    # min and max are NaN if any frequency is; NaN fails every comparison
    lo, hi = freqs.min(), freqs.max()
    if not (lo > 0.0 and hi < math.inf):
        if np.any(freqs <= 0.0):
            raise InvalidParameterError("all frequencies must be positive")
        raise InvalidParameterError("all frequencies must be finite")

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
    into the given output slices.

    A lossless block is evaluated in real arithmetic, and complex numbers
    are formed only for the final divisions; shorts, singular points and
    lossy stacks take the complex path.  Both give the same bits.
    """
    port = port_impedance(stack.incidence)
    chain = _lossless_chain(stack, freqs)
    if chain is not None:
        # the components of _complex_response's delta and numerators
        a, b, c, d = chain
        ap = np.multiply(a, port, out=a)
        dp = np.multiply(d, port, out=d)
        cpp = np.multiply(c, port, out=c)
        cpp *= port
        delta = np.empty(freqs.shape, dtype=complex)
        np.add(ap, dp, out=delta.real)
        np.add(b, cpp, out=delta.imag)
        mag = np.abs(delta)
        if mag.min() >= SINGULAR_DELTA and mag.max() < math.inf:
            np.divide(2.0 * port, delta, out=s21)
            num = np.empty(freqs.shape, dtype=complex)
            np.subtract(ap, dp, out=num.real)
            np.subtract(b, cpp, out=num.imag)
            np.divide(num, delta, out=s11)
            if s22 is not None:
                np.subtract(dp, ap, out=num.real)
                np.divide(num, delta, out=s22)
            return
    _complex_response(stack, freqs, s11, s21, s22)


def _complex_response(stack: FssStack, freqs, s11, s21, s22):
    """``_block_response`` in complex arithmetic, for any stack."""
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
    if singular.any():
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
