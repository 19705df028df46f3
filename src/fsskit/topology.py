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

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .constants import C0, ETA0
from .domain import check, check_flag, check_frequencies, check_real, check_type, number_array
from .errors import InvalidParameterError, SingularNetworkError
from .extraction import ExtractedCircuit
from .lumped import Branch, Inductor, Parallel, SeriesLC, Tank, _susceptance_array

_POLARIZATIONS = ("TE", "TM")

# The engine runs over the grid in blocks of this many points, so that its
# temporaries stay in cache; every operation is element-wise, so the bits
# do not depend on it.
_BLOCK = 4096

# The engine's warnings policy: shorts divide by zero and a lossy line's
# overflow spreads, and _block_response reports the overflow.
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Incidence:
    """Plane-wave illumination: angle from normal (radians) and polarization.

    The angle lies in [0, pi/2) where sin(theta) rounds below 1, so the
    refracted cosine is nonzero in every substrate, air included: up to
    1.5707963162581844 rad (89.99999939629086 deg)."""

    theta: float = 0.0
    polarization: str = "TE"

    def __post_init__(self):
        check_real("incidence angle", self.theta)
        if not (0.0 <= self.theta < math.pi / 2.0 and math.sin(self.theta) < 1.0):
            raise InvalidParameterError(
                f"incidence angle must lie in [0, pi/2) with sin(theta) < 1, got {self.theta}"
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
        check("length", "thickness", self.thickness)
        check("eps_r", "eps_r", self.eps_r)
        check("tan_delta", "tan_delta", self.tan_delta)


# each layer's type and noun: nodes at even positions, lines at odd ones
_LAYER_KINDS = ((Branch, "a shunt lumped branch"), (Substrate, "a Substrate line section"))


@dataclass(frozen=True)
class FssStack:
    """Alternating sequence of shunt branch nodes and substrate line
    sections, outermost nodes first and last.  Immutable."""

    layers: tuple
    incidence: Incidence = Incidence()
    dielectric_loss: bool = False

    def __post_init__(self):
        check_type("incidence", self.incidence, Incidence)
        check_flag("dielectric_loss", self.dielectric_loss)
        check_type("layers", self.layers, (tuple, Iterable), "an iterable")
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 3 or len(layers) % 2 == 0:
            raise InvalidParameterError(
                "stack must alternate shunt nodes and lines, starting and ending "
                f"with a node (got {len(layers)} layers)"
            )
        for i, layer in enumerate(layers):
            kind, noun = _LAYER_KINDS[i % 2]
            if not isinstance(layer, kind):  # the name is formed only for a refusal
                check_type(f"layer {i}", layer, kind, noun)


def _oblique(z, cos, polarization: str):
    """Wave impedance ``z`` at obliquity ``cos``: divided by it for TE,
    multiplied by it for TM."""
    return z / cos if polarization == "TE" else z * cos


def port_impedance(inc: Incidence) -> float:
    """Free-space wave impedance seen by the given polarization at angle theta.
    An incidence that is not an ``Incidence`` is invalid-parameter."""
    check_type("incidence", inc, Incidence)
    return _oblique(ETA0, math.cos(inc.theta), inc.polarization)


def incidence_media(inc: Incidence, sub: Substrate, f, dielectric_loss: bool = False):
    """Port impedance, substrate line impedance, and electrical length.

    Snell refraction into the substrate sets the oblique line parameters;
    with ``dielectric_loss`` the substrate permittivity becomes complex and
    so do the line impedance and electrical length.  ``f`` may be a scalar
    or an array (the electrical length scales linearly with it), each value
    a frequency in range; an empty array gives an empty one.  An incidence,
    substrate, loss flag or frequency of the wrong type is invalid-parameter.
    """
    check_type("incidence", inc, Incidence)
    check_flag("dielectric_loss", dielectric_loss)
    check_type("substrate", sub, Substrate)
    if isinstance(f, np.ndarray):
        f = number_array("frequencies", f)
        check_frequencies(f)
    else:
        f = check("frequency", "frequency", f)
    return port_impedance(inc), *_line_media(inc, sub, f, dielectric_loss)


def _line_media(inc: Incidence, sub: Substrate, f, dielectric_loss: bool):
    """``incidence_media``'s line impedance and electrical length, from
    arguments it has checked."""
    lossy = dielectric_loss and sub.tan_delta > 0.0
    eps = sub.eps_r * (1.0 - 1j * sub.tan_delta) if lossy else sub.eps_r
    sin_i = math.sin(inc.theta)
    # cos of the refraction angle; evaluates to exactly 1.0 at normal
    # incidence so TE and TM outputs are bit-identical there.
    cos_r = (1.0 - sin_i * sin_i / eps) ** 0.5
    line_z = _oblique(ETA0 / eps ** 0.5, cos_r, inc.polarization)
    theta_d = (2.0 * math.pi / C0) * sub.thickness * (eps ** 0.5) * cos_r * f
    return line_z, theta_d


def build_first_order(
    circuit: ExtractedCircuit,
    sub: Substrate,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
) -> FssStack:
    """Two-node stack: bandpass tank, substrate line, bandstop series branch.

    A zero parasitic inductance omits the inductor branch entirely.
    """
    check_type("circuit", circuit, ExtractedCircuit)
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
    check_type("outer branches", outer, (tuple, Iterable), "a pair")
    outer = tuple(outer)
    if len(outer) != 2:
        raise InvalidParameterError(f"need 2 outer branches, got {len(outer)}")
    for b in outer:
        check_type("outer branches", b, SeriesLC, "SeriesLC")
    check_type("middle layer", middle, Tank)
    node = Parallel(outer)
    return FssStack((node, sub, middle, sub, node), inc, dielectric_loss)


def stack_response(stack: FssStack, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (S11, S21) over a frequency array.  The arrays are
    read-only rows of one (2, n) array, which each keeps alive;
    ``np.array(s21)`` gives an independent, writeable copy."""
    check_type("stack", stack, FssStack, "an FssStack")
    s11, s21, _ = _response_arrays(stack, freqs, want_s22=False)
    return s11, s21


def stack_response_full(stack: FssStack, freqs):
    """Vectorized (S11, S21, S22); S12 equals S21 for these reciprocal stacks.
    The arrays are read-only rows of one (3, n) array, as in
    ``stack_response``."""
    check_type("stack", stack, FssStack, "an FssStack")
    return _response_arrays(stack, freqs, want_s22=True)


def _line_terms(layers, incidence: Incidence, dielectric_loss: bool, freqs: np.ndarray):
    """Read-only cos(theta), B and C of each line in ``layers`` over ``freqs``,
    from ``_line_media``.  With no complex electrical length, A and D of
    a chain are real and B and C imaginary (Pozar, *Microwave Engineering*,
    ch. 4): the terms are float64 holding B/j and C/j.  Otherwise they are
    complex128 holding B and C, formed under ``_QUIET``: a thick lossy line
    overflows, and a lossless line cannot (``fsskit.domain``)."""
    media = [_line_media(incidence, layer, freqs, dielectric_loss)
             for layer in layers if isinstance(layer, Substrate)]
    real = not any(np.iscomplexobj(theta_d) for _, theta_d in media)
    lines = []
    for line_z, theta_d in media:
        if real:
            sin_t = np.sin(theta_d)
            # numpy divides (1j * sin_t) by line_z as sin_t * (1 / line_z)
            terms = np.cos(theta_d), line_z * sin_t, sin_t * (1.0 / line_z)
        else:
            with np.errstate(**_QUIET):
                sin_t = np.sin(theta_d)
                # cast once: each complex product would cast a real cos_t again
                cos_t = np.cos(theta_d).astype(complex, copy=False)
                terms = cos_t, 1j * line_z * sin_t, 1j * sin_t / line_z
        for term in terms:
            term.setflags(write=False)
        lines.append(terms)
    return lines


def _chain(terms, port: float):
    """Chain-matrix entries of a stack's layers, or of their reverse, from
    their ``terms``: a node's susceptance array and a line's ``_line_terms``
    tuple, a node first and a line second.

    Every node is lossless.  The entries take the dtype of the terms:
    float64 arrays holding A, B/j, C/j and D, or complex128 arrays holding
    A, B, C and D, where a node's admittance is j times its susceptance.
    Both run the same steps; the sums that pair two imaginary factors
    become differences, as j*j = -1.  Each real product or sum is the one
    that the complex one pairs with zeros, in the same order, so both
    dtypes give the same bits.

    Where a node is a perfect short (non-finite admittance), the first such
    node ends transmission: the reflection into the prefix chain terminated
    in that short, S11 = (B - D*port)/(B + D*port) at the real port
    impedance ``port``, is recorded, and the node is then taken as Y = 0 so
    the product stays finite.  Returns (A, B, C, D, shorted, s11_short);
    ``s11_short`` is complex and meaningful only where ``shorted`` is set,
    and both are None if no node shorts anywhere on the grid.

    Each step is a plain expression in the operand order of the matrix
    product, and writes only arrays made in this call: the terms are
    never written.  A short divides by zero and a lossy line's overflow
    spreads: the caller runs it under ``_QUIET``.
    """
    A, B, c_line = terms[1]  # the first line's terms
    real = A.dtype == float
    plus = np.subtract if real else np.add
    shorted = s11_short = None

    def node_term(y, B, D):
        """The node's susceptance ``y`` (admittance if complex) behind the
        prefix chain B, D, with its shorts recorded and zeroed."""
        nonlocal shorted, s11_short
        # the sum of finite values is finite unless it overflows, so the
        # mask is built only when some node shorts (or on such an overflow)
        if not math.isfinite(y.sum()):
            bad = ~np.isfinite(y)
            if shorted is None:
                shorted = np.zeros(y.shape, dtype=bool)
                s11_short = np.zeros(y.shape, dtype=complex)
            first = bad & ~shorted
            b, d = (np.broadcast_to(m, y.shape)[first] for m in (B, D))
            if real:
                b, d = b * 1j, d + 0j
            s11_short[first] = (b - d * port) / (b + d * port)
            np.logical_or(shorted, bad, out=shorted)
            y = np.where(bad, 0.0, y)
        return y if real else 1j * y

    # The first node and line, [1 0; y 1] @ [cos_t b_line; c_line cos_t],
    # without its products by one and its sums with zero: v*1 is v, and a
    # nonzero v plus a signed zero is v.  Only B = 1*b_line + 0*cos_t keeps
    # its + 0, which turns the -0 real part of a lossless complex b_line
    # into +0.  The node sits behind the identity, B = 0, D = 1.
    y = node_term(terms[0], 0j, 1 + 0j)
    D = plus(A, y * B)
    C = y * A + c_line
    if not real:
        B = B + 0.0

    for term in terms[2:]:
        if isinstance(term, tuple):  # a line's terms
            cos_t, b_line, c_line = term
            # [A B; C D] @ [cos_t b_line; c_line cos_t]
            A, B = plus(A * cos_t, B * c_line), A * b_line + B * cos_t
            C, D = C * cos_t + D * c_line, plus(D * cos_t, C * b_line)
        else:
            y = node_term(term, B, D)
            A = plus(A, B * y)
            C = C + D * y
    return A, B, C, D, shorted, s11_short


def _response_arrays(stack: FssStack, freqs, want_s22: bool):
    """S11, S21 and S22 (or None) of ``stack`` over ``freqs``."""
    freqs = number_array("frequencies", freqs)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InvalidParameterError("frequency grid must be a non-empty 1-D array")
    check_frequencies(freqs)

    # The outputs are the rows S11, S21 (and S22) of one array: one
    # allocation per call, not one per output.  glibc's malloc sizes its
    # dynamic mmap and trim thresholds by the largest block freed, so a warm
    # study then keeps its heap mapped instead of faulting it in every call.
    out = np.empty((3 if want_s22 else 2, freqs.size), dtype=complex)
    _blocked_response(out, port_impedance(stack.incidence), freqs, lambda block: _stack_terms(
        stack.layers, stack.incidence, stack.dielectric_loss, freqs[block]))
    # born read-only, rows included, so a ResponseTable shares them
    out.setflags(write=False)
    return out[0], out[1], out[2] if want_s22 else None


def _stack_terms(layers, incidence: Incidence, dielectric_loss: bool, freqs: np.ndarray):
    """The ``_chain`` terms of ``layers`` over ``freqs``: each node's
    ``_susceptance_array`` and each line's ``_line_terms`` tuple."""
    lines = iter(_line_terms(layers, incidence, dielectric_loss, freqs))
    w = 2.0 * math.pi * freqs
    return [next(lines) if isinstance(layer, Substrate) else _susceptance_array(layer, w)
            for layer in layers]


def _blocked_response(out, port: float, freqs, terms_of):
    """Write S11, S21 (and S22 if ``out`` has three rows) at the real port
    impedance ``port`` over ``freqs`` into the rows of ``out``, one
    ``_BLOCK`` at a time: ``terms_of(block)`` gives the ``_chain`` terms of
    a block, a slice of the grid, under ``_QUIET``."""
    with np.errstate(**_QUIET):
        for start in range(0, freqs.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            _block_response(terms_of(block), port, freqs[block], *out[:, block])


def _block_response(terms, port: float, freqs, s11, s21, s22=None):
    """Write S11, S21 (and S22 unless it is None) of the layers whose
    ``_chain`` terms are ``terms`` at the real port impedance ``port`` over
    the grid ``freqs`` into the given output slices."""
    A, B, C, D, shorted, s11_short = _chain(terms, port)
    # A*port, D*port and C*port*port are each formed once and shared by
    #   delta = A*port + B + C*port*port + D*port
    #   S11 = (A*port + B - C*port*port - D*port) / delta
    #   S22 = (-A*port + B - C*port*port + D*port) / delta
    Cpp = C * port * port
    Dp = D * port
    if A.dtype == float:
        # a real chain holds B/j and C/j: each complex number is assembled
        # from its real and imaginary parts
        Ap = A * port
        delta = np.empty(freqs.shape, dtype=complex)
        np.add(Ap, Dp, out=delta.real)
        np.add(B, Cpp, out=delta.imag)
        num11 = np.empty(freqs.shape, dtype=complex)
        np.subtract(Ap, Dp, out=num11.real)
        np.subtract(B, Cpp, out=num11.imag)
        if s22 is not None:
            num22 = num11.copy()
            np.subtract(Dp, Ap, out=num22.real)
    else:
        ApB = A * port + B
        delta = ApB + Cpp + Dp
        num11 = ApB - Cpp - Dp
        if s22 is not None:
            num22 = -A * port + B - Cpp + Dp

    # |S21| = |2*port/delta| <= 1 in a passive stack: overflow is the one way
    # delta fails, through a lossy line whose |Im theta| grows with thickness,
    # frequency and tan_delta.  As in node_term, the mask is built only if the
    # sum is not finite.
    if not cmath.isfinite(delta.sum()):
        bad = ~np.isfinite(delta)
        if bad.any():
            raise SingularNetworkError(f"network overflows at {freqs[np.argmax(bad)]} Hz")
    np.divide(2.0 * port, delta, out=s21)
    np.divide(num11, delta, out=s11)
    if s22 is not None:
        np.divide(num22, delta, out=s22)

    if shorted is not None:
        # No transmission past a short; each side sees its own shorted prefix.
        s11[shorted] = s11_short[shorted]
        s21[shorted] = 0j
        if s22 is not None:
            masked = [tuple(t[shorted] for t in term) if isinstance(term, tuple) else term[shorted]
                      for term in terms[::-1]]
            s22[shorted] = _chain(masked, port)[5]
