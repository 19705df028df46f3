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

    The impedance functions return it instead of a complex infinity, whose
    phase is undefined; callers test for it with ``is OPEN``.
    """

    def __repr__(self):
        return "OPEN"


OPEN = Open()


def _resonance(L: float, C: float) -> float:
    """Resonance frequency (Hz) of an L-C pair."""
    return 1.0 / (2.0 * math.pi * math.sqrt(L * C))


@dataclass(frozen=True)
class SeriesLC:
    """Series L-C branch; shunted it produces a transmission zero at
    1/(2*pi*sqrt(L*C)).  R is an optional series loss resistance."""

    L: float
    C: float
    R: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.L < math.inf and 0.0 < self.C < math.inf):
            raise InvalidParameterError(
                f"series L-C branch requires L > 0 and C > 0, got L={self.L}, C={self.C}"
            )
        if not 0.0 <= self.R < math.inf:
            raise InvalidParameterError(f"series resistance must be >= 0, got {self.R}")

    def resonance(self) -> float:
        """Series-resonance frequency in Hz (the branch is a short there)."""
        return _resonance(self.L, self.C)


@dataclass(frozen=True)
class Tank:
    """Parallel L-C resonator; G is an optional parallel loss conductance."""

    L: float
    C: float
    G: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.L < math.inf and 0.0 < self.C < math.inf):
            raise InvalidParameterError(
                f"tank requires L > 0 and C > 0, got L={self.L}, C={self.C}"
            )
        if not 0.0 <= self.G < math.inf:
            raise InvalidParameterError(f"tank conductance must be >= 0, got {self.G}")

    def resonance(self) -> float:
        return _resonance(self.L, self.C)


@dataclass(frozen=True)
class Inductor:
    """Bare shunt inductance; L = 0 is a perfect short at every frequency."""

    L: float

    def __post_init__(self):
        if not 0.0 <= self.L < math.inf:
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
    if f == math.inf:
        raise InvalidParameterError(f"frequency must be finite, got {f!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = complex(_admittance_array(b, np.array([2.0 * math.pi * f]))[0])
    if y == 0:
        return OPEN
    if not cmath.isfinite(y):
        return 0j
    return 1.0 / y


def _admittance_array(b: Branch, w: np.ndarray) -> np.ndarray:
    """Vectorized branch admittance over angular frequencies w.

    Non-finite entries mark frequencies where the branch is a perfect short.
    There it divides by zero: callers turn off numpy's divide and invalid
    warnings.
    """
    if isinstance(b, SeriesLC):
        z = b.R + 1j * (w * b.L - 1.0 / (w * b.C))
        # 1 / (0+0j) is inf+nanj: a zero impedance is already non-finite
        return 1.0 / z
    if isinstance(b, Tank):
        return b.G + 1j * (w * b.C - 1.0 / (w * b.L))
    if isinstance(b, Inductor):
        return -1j / (w * b.L)
    if isinstance(b, Parallel):
        y = np.zeros(w.shape, dtype=complex)
        for sub in b.branches:
            y += _admittance_array(sub, w)
        return y
    raise InvalidParameterError(f"not a lumped branch: {b!r}")


def _lossless_branch(b: Branch) -> bool:
    """Whether no series R or parallel G anywhere in the branch is nonzero."""
    if isinstance(b, SeriesLC):
        return b.R == 0.0
    if isinstance(b, Tank):
        return b.G == 0.0
    if isinstance(b, Parallel):
        return all(_lossless_branch(sub) for sub in b.branches)
    return True


def _susceptance_array(b: Branch, w: np.ndarray) -> np.ndarray:
    """Vectorized susceptance (admittance / j) of a lossless branch over
    angular frequencies w.  Only the engine calls it, on the nodes of a
    validated stack, so ``b`` is a branch.

    Where ``_admittance_array`` is finite its imaginary part has these
    bits: each expression repeats the real arithmetic numpy's complex
    product and division do there.  Non-finite entries mark shorts, where
    it divides by zero as ``_admittance_array`` does.
    """
    if isinstance(b, SeriesLC):
        return -1.0 / (w * b.L - 1.0 / (w * b.C))
    if isinstance(b, Tank):
        # the complex path adds 0.0 to this difference, which cannot be -0
        return w * b.C - 1.0 / (w * b.L)
    if isinstance(b, Inductor):
        return -1.0 / (w * b.L)
    x = np.zeros(w.shape)  # a Parallel
    for sub in b.branches:
        x += _susceptance_array(sub, w)
    return x


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
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"hybrid circuit requires positive elements, got {name}={getattr(self, name)}"
                )


def hybrid_impedance(h: HybridCircuit, f: float):
    """Impedance of the hybrid network: jwL_series + 1/(jwC_series) + tank."""
    z_tank = branch_impedance(Tank(h.L_tank, h.C_tank), f)
    if z_tank is OPEN:
        return OPEN
    w = 2.0 * math.pi * f
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
        if not 0.0 < v < math.inf:
            raise InvalidParameterError(f"{name} must be positive, got {v}")
    for name, lc in (("L1*C1", L1 * C1), ("L2*C2", L2 * C2)):
        if not (0.0 < lc < math.inf and 1.0 / lc < math.inf):
            raise InvalidParameterError(
                f"{name} = {lc} puts the branch resonance 1/({name}) out of float range"
            )
    w1_sq = 1.0 / (L1 * C1)
    w2_sq = 1.0 / (L2 * C2)
    if abs(w1_sq - w2_sq) <= 1e-6 * max(w1_sq, w2_sq):
        raise DegenerateTransformError(
            "branch resonances coincide; the parallel combination degenerates "
            f"to a single series L-C (w1^2={w1_sq:.6e}, w2^2={w2_sq:.6e})"
        )

    # Partial-fraction expansion of Z1*Z2/(Z1+Z2) in s = jw:
    #   Z_par = s*L_series + 1/(s*C_series) + (s/C_tank)/(s^2 + wp^2)
    # with wp^2 = 1/(L_tank*C_tank) interlacing the branch resonances.  The
    # elements are formed exactly and each rounded once; one that rounds
    # past the float range becomes inf, which HybridCircuit refuses by name.
    from fractions import Fraction  # here, not at import: it loads decimal

    l1, c1, l2, c2 = map(Fraction, (L1, C1, L2, C2))
    d_sq = (l2 * c2 - l1 * c1) ** 2  # nonzero: the resonances differ
    c_sum, l_sum = c1 + c2, l1 + l2
    exact = (d_sq / (c_sum**2 * l_sum), c1 * c2 * c_sum * l_sum**2 / d_sq, l1 * l2 / l_sum, c_sum)
    # 2**1024 - 2**970, halfway from the largest float to 2**1024, rounds up
    hybrid = HybridCircuit(*(float(x) if x < 2**1024 - 2**970 else math.inf for x in exact))
    _verify_hybrid(hybrid, L1, C1, L2, C2)
    return hybrid


def _verify_hybrid(h: HybridCircuit, L1, C1, L2, C2, tol=1e-9):
    """Impedance-equality check on 200 log-spaced frequencies spanning
    0.1x to 10x both branch resonances, skipping points within 0.1% of the
    exact poles and zeros."""
    b1, b2 = SeriesLC(L1, C1), SeriesLC(L2, C2)
    f1, f2 = b1.resonance(), b2.resonance()
    fp = 1.0 / (2.0 * math.pi * math.sqrt(h.L_tank) * math.sqrt(h.C_tank))
    freqs = np.geomspace(0.1 * min(f1, f2), 10.0 * max(f1, f2), 200)
    special = np.array([f1, f2, fp])
    keep = np.all(np.abs(freqs[:, None] - special[None, :]) > 1e-3 * special[None, :], axis=1)
    w = 2.0 * math.pi * freqs[keep]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z_par = 1.0 / _admittance_array(Parallel((b1, b2)), w)
        z_tank = 1.0 / _admittance_array(Tank(h.L_tank, h.C_tank), w)
        z_hyb = 1j * (w * h.L_series - 1.0 / (w * h.C_series)) + z_tank
        mismatch = np.abs(z_hyb - z_par) / np.abs(z_par)
    compared = mismatch[np.isfinite(mismatch)]
    if compared.size == 0:
        raise DegenerateTransformError(
            "hybrid transform cannot be verified: the impedances leave the float "
            "range at every check frequency"
        )
    worst = float(np.max(compared))
    if worst > tol:
        raise DegenerateTransformError(
            f"hybrid transform failed verification (relative mismatch {worst:.3e}); "
            "the rounded elements do not reproduce the branches"
        )
