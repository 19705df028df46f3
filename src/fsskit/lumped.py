"""Lumped shunt branches of the layered-surface circuit model.

A branch is one of: a series L-C resonator, a parallel L-C tank, a bare
inductor, or a parallel combination of branches.  Every branch is
lossless, so its admittance is jB with B real (Foster's reactance
theorem); loss enters a stack only through its substrate lines.  Element
values are SI (henry, farad).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import check, check_elements, check_real, check_type
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
class _LC:
    """An L-C pair; its two named kinds differ only in how they connect."""

    L: float
    C: float

    def __post_init__(self):
        check_elements(vars(self))

    def resonance(self) -> float:
        """Resonance frequency in Hz: a series branch shorts there, a tank opens."""
        return _resonance(self.L, self.C)


class SeriesLC(_LC):
    """Series L-C branch; shunted it produces a transmission zero at
    1/(2*pi*sqrt(L*C))."""


class Tank(_LC):
    """Parallel L-C resonator; shunted it is an open at 1/(2*pi*sqrt(L*C))."""


@dataclass(frozen=True)
class Inductor:
    """Bare shunt inductance; L = 0 is a perfect short at every frequency."""

    L: float

    def __post_init__(self):
        check_elements(vars(self), shorted="L")


@dataclass(frozen=True)
class Parallel:
    """Parallel combination of branches sharing both terminals."""

    branches: tuple

    def __post_init__(self):
        check_type("branches", self.branches, (tuple, Iterable), "an iterable")
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise InvalidParameterError("parallel combination needs at least one branch")
        for b in self.branches:
            if not isinstance(b, Branch):
                raise InvalidParameterError(f"not a lumped branch: {b!r}")


Branch = SeriesLC | Tank | Inductor | Parallel

# each leaf branch's susceptance over angular frequencies w, from its fields
_LEAVES = {
    SeriesLC: lambda w, L, C: -1.0 / (w * L - 1.0 / (w * C)),
    Tank: lambda w, L, C: w * C - 1.0 / (w * L),
    Inductor: lambda w, L: -1.0 / (w * L),
}


def branch_impedance(b: Branch, f: float):
    """Complex impedance of a branch at frequency f (Hz).

    Returns OPEN for an exactly infinite impedance; 0j (a perfect short)
    is an ordinary return value.
    """
    f = check("frequency", "frequency", f)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = float(_susceptance_array(b, np.array([2.0 * math.pi * f]))[0])
    if x == 0.0:
        return OPEN
    if not math.isfinite(x):
        return 0j
    return 1.0 / complex(0.0, x)


def _susceptance_array(b: Branch, w: np.ndarray) -> np.ndarray:
    """Vectorized susceptance (admittance / j) of a branch over angular
    frequencies w; the engine and ``branch_impedance`` call it.

    Non-finite entries mark frequencies where the branch is a perfect
    short.  There it divides by zero: callers turn off numpy's divide and
    invalid warnings.
    """
    for kind, leaf in _LEAVES.items():
        if isinstance(b, kind):
            return leaf(w, *vars(b).values())
    if isinstance(b, Parallel):
        first, *rest = (_susceptance_array(sub, w) for sub in b.branches)
        return sum(rest, first)
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
        # foster_transform's elements span [1e-55, 1e40] (see fsskit.domain)
        for name, value in vars(self).items():
            check_real(name, value)
            if not 0.0 < value < math.inf:
                raise InvalidParameterError(
                    f"hybrid circuit requires positive elements, got {name}={value}"
                )


def hybrid_impedance(h: HybridCircuit, f: float):
    """Impedance of the hybrid network, jwL_series + 1/(jwC_series) + tank;
    the tank term has a ``Tank``'s bits but not a ``Tank``'s ranges."""
    check_type("circuit", h, HybridCircuit)
    f = check("frequency", "frequency", f)
    w = 2.0 * math.pi * f
    b_tank = _LEAVES[Tank](w, h.L_tank, h.C_tank)
    if b_tank == 0.0:
        return OPEN
    return 1j * (w * h.L_series - 1.0 / (w * h.C_series)) + 1.0 / complex(0.0, b_tank)


def foster_transform(L1: float, C1: float, L2: float, C2: float) -> HybridCircuit:
    """Convert two parallel series-L-C branches into the equivalent hybrid
    network (series L-C in series with a tank).

    The two branch resonances must be distinct; the parallel combination of
    equal-resonance branches collapses to a single series L-C and has no
    hybrid form.  Each element is its exact value rounded once to a normal
    float (``fsskit.domain`` shows why), so within a relative 2**-53 of it.
    """
    check_elements(dict(L1=L1, C1=C1, L2=L2, C2=C2))
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
    # elements are formed exactly and each rounded once.
    from fractions import Fraction  # here, not at import: it loads decimal

    l1, c1, l2, c2 = map(Fraction, (L1, C1, L2, C2))
    d_sq = (l2 * c2 - l1 * c1) ** 2  # nonzero: the resonances differ
    c_sum, l_sum = c1 + c2, l1 + l2
    exact = (d_sq / (c_sum**2 * l_sum), c1 * c2 * c_sum * l_sum**2 / d_sq, l1 * l2 / l_sum, c_sum)
    return HybridCircuit(*map(float, exact))
