"""Lumped shunt branches of the layered-surface circuit model.

A branch is one of: a series L-C resonator (with optional series loss R),
a parallel L-C tank (with optional parallel conductance G), a bare
inductor, or a parallel combination of branches.  Element values are SI
(henry, farad, ohm, siemens).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransformError, InvalidParameterError


class Open:
    """Marker for an infinite impedance (e.g. a lossless tank at resonance).

    Kept distinct from floating-point infinity so that parallel combination
    stays well defined: an open branch simply contributes zero admittance.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OPEN"


OPEN = Open()


@dataclass(frozen=True)
class SeriesLC:
    """Series L-C branch; shunted it produces a transmission zero at
    1/(2*pi*sqrt(L*C)).  R is an optional series loss resistance."""

    L: float
    C: float
    R: float = 0.0

    def __post_init__(self):
        if not (self.L > 0.0 and self.C > 0.0):
            raise InvalidParameterError(
                f"series L-C branch requires L > 0 and C > 0, got L={self.L}, C={self.C}"
            )
        if self.R < 0.0:
            raise InvalidParameterError(f"series resistance must be >= 0, got {self.R}")

    def resonance(self) -> float:
        """Series-resonance frequency in Hz (the branch is a short there)."""
        return 1.0 / (2.0 * math.pi * math.sqrt(self.L * self.C))


@dataclass(frozen=True)
class Tank:
    """Parallel L-C resonator; G is an optional parallel loss conductance."""

    L: float
    C: float
    G: float = 0.0

    def __post_init__(self):
        if not (self.L > 0.0 and self.C > 0.0):
            raise InvalidParameterError(
                f"tank requires L > 0 and C > 0, got L={self.L}, C={self.C}"
            )
        if self.G < 0.0:
            raise InvalidParameterError(f"tank conductance must be >= 0, got {self.G}")

    def resonance(self) -> float:
        return 1.0 / (2.0 * math.pi * math.sqrt(self.L * self.C))


@dataclass(frozen=True)
class Inductor:
    L: float

    def __post_init__(self):
        if self.L < 0.0:
            raise InvalidParameterError(f"inductance must be >= 0, got {self.L}")


@dataclass(frozen=True)
class Parallel:
    """Parallel combination of branches sharing both terminals."""

    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise InvalidParameterError("parallel combination needs at least one branch")
        object.__setattr__(self, "branches", tuple(self.branches))
        for b in self.branches:
            if not isinstance(b, Branch):
                raise InvalidParameterError(f"not a lumped branch: {b!r}")


Branch = SeriesLC | Tank | Inductor | Parallel


def branch_impedance(b: Branch, f: float):
    """Complex impedance of a branch at frequency f (Hz).

    Returns OPEN for an exactly infinite impedance; 0j (a perfect short)
    is an ordinary return value.
    """
    if not f > 0.0:
        raise InvalidParameterError(f"frequency must be positive, got {f!r}")
    y = complex(_admittance_array(b, np.array([2.0 * math.pi * f]))[0])
    if y == 0:
        return OPEN
    if not cmath.isfinite(y):
        return 0j
    return 1.0 / y


def _admittance_array(b: Branch, w: np.ndarray) -> np.ndarray:
    """Vectorized branch admittance over angular frequencies w.

    Non-finite entries mark frequencies where the branch is a perfect short.
    """
    if isinstance(b, SeriesLC):
        z = b.R + 1j * (w * b.L - 1.0 / (w * b.C))
        with np.errstate(divide="ignore", invalid="ignore"):
            y = 1.0 / z
        y[z == 0] = np.inf
        return y
    if isinstance(b, Tank):
        return b.G + 1j * (w * b.C - 1.0 / (w * b.L))
    if isinstance(b, Inductor):
        if b.L == 0.0:
            return np.full(w.shape, np.inf, dtype=complex)
        return -1j / (w * b.L)
    if isinstance(b, Parallel):
        y = np.zeros(w.shape, dtype=complex)
        for sub in b.branches:
            y += _admittance_array(sub, w)
        return y
    raise InvalidParameterError(f"not a lumped branch: {b!r}")


@dataclass(frozen=True)
class HybridCircuit:
    """Series connection of a tank (L_tank, C_tank) and a series L-C
    (L_series, C_series); equivalent to two series L-C branches in parallel."""

    L_tank: float
    C_tank: float
    L_series: float
    C_series: float

    def __post_init__(self):
        for name in ("L_tank", "C_tank", "L_series", "C_series"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(
                    f"hybrid circuit requires positive elements, got {name}={getattr(self, name)}"
                )


def hybrid_impedance(h: HybridCircuit, f: float):
    """Impedance of the hybrid network: jwL_series + 1/(jwC_series) + tank."""
    if not f > 0.0:
        raise InvalidParameterError(f"frequency must be positive, got {f!r}")
    w = 2.0 * math.pi * f
    z_tank = branch_impedance(Tank(h.L_tank, h.C_tank), f)
    if z_tank is OPEN:
        return OPEN
    return 1j * (w * h.L_series - 1.0 / (w * h.C_series)) + z_tank


def foster_transform(L1: float, C1: float, L2: float, C2: float) -> HybridCircuit:
    """Convert two parallel series-L-C branches into the equivalent hybrid
    network (series L-C in series with a tank).

    The two branch resonances must be distinct; the parallel combination of
    equal-resonance branches collapses to a single series L-C and has no
    hybrid form.  The result is verified against the parallel combination
    on a 200-point frequency grid before being returned.
    """
    for name, v in (("L1", L1), ("C1", C1), ("L2", L2), ("C2", C2)):
        if not v > 0.0:
            raise InvalidParameterError(f"{name} must be positive, got {v}")
    w1_sq = 1.0 / (L1 * C1)
    w2_sq = 1.0 / (L2 * C2)
    if abs(w1_sq - w2_sq) <= 1e-6 * max(w1_sq, w2_sq):
        raise DegenerateTransformError(
            "branch resonances coincide; the parallel combination degenerates "
            f"to a single series L-C (w1^2={w1_sq:.6e}, w2^2={w2_sq:.6e})"
        )

    # Partial-fraction expansion of Z1*Z2/(Z1+Z2) in s = jw:
    #   Z_par = s*L_series + 1/(s*C_series) + k*s/(s^2 + wp^2)
    # with the pole wp^2 interlacing the two branch resonances.
    c_series = C1 + C2
    l_series = L1 * L2 / (L1 + L2)
    a = C1 * C2 * (L1 + L2)
    wp_sq = (C1 + C2) / a
    residue_num = (1.0 - wp_sq * L1 * C1) * (1.0 - wp_sq * L2 * C2)  # < 0 by interlacing
    c_tank = -(a * wp_sq) / residue_num
    l_tank = 1.0 / (wp_sq * c_tank)
    hybrid = HybridCircuit(l_tank, c_tank, l_series, c_series)
    _verify_hybrid(hybrid, L1, C1, L2, C2)
    return hybrid


def _verify_hybrid(h: HybridCircuit, L1, C1, L2, C2, tol=1e-9):
    """Impedance-equality check on 200 log-spaced frequencies spanning
    0.1x to 10x both branch resonances, skipping points within 0.1% of the
    exact poles and zeros."""
    b1, b2 = SeriesLC(L1, C1), SeriesLC(L2, C2)
    f1, f2 = b1.resonance(), b2.resonance()
    fp = math.sqrt((C1 + C2) / (C1 * C2 * (L1 + L2))) / (2.0 * math.pi)
    freqs = np.geomspace(0.1 * min(f1, f2), 10.0 * max(f1, f2), 200)
    special = np.array([f1, f2, fp])
    keep = np.all(np.abs(freqs[:, None] - special[None, :]) > 1e-3 * special[None, :], axis=1)
    w = 2.0 * math.pi * freqs[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        z_par = 1.0 / _admittance_array(Parallel((b1, b2)), w)
        z_tank = 1.0 / _admittance_array(Tank(h.L_tank, h.C_tank), w)
        z_hyb = 1j * (w * h.L_series - 1.0 / (w * h.C_series)) + z_tank
        mismatch = np.abs(z_hyb - z_par) / np.abs(z_par)
    worst = float(np.max(mismatch[np.isfinite(mismatch)], initial=0.0))
    if worst > tol:
        raise DegenerateTransformError(
            f"hybrid transform failed verification (relative mismatch {worst:.3e}); "
            "branch resonances are too close"
        )
