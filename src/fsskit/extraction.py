"""Closed-form mapping between unit-cell geometry and lumped circuit values.

The first-order unit cell combines a bandpass layer (cross slot bounded by
a loop slot, characterized by ``cross_slot``) with a bandstop layer of
cross-shaped patches ("hat" length ``hat_length``, slot ``jc_slot``,
inter-element gap ``jc_gap``).  The grid formulas hold for
electrically small cells; all lengths are meters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import EPS0, MU0
from .errors import InvalidGeometryError, InvalidParameterError
from .lumped import OPEN, _check_frequency, _resonance


@dataclass(frozen=True)
class FirstOrderGeometry:
    """Unit-cell dimensions plus substrate description (SI units)."""

    period: float       # lattice period a
    hat_length: float   # bandstop cross "hat" length
    jc_slot: float      # slot width of the bandstop cross
    cross_slot: float   # cross-slot width on the bandpass layer
    jc_gap: float       # gap between adjacent bandstop elements
    thickness: float    # substrate thickness
    eps_r: float
    tan_delta: float = 0.0
    mu_reff: float = 1.0

    def __post_init__(self):
        a = self.period
        if not 0.0 < a < math.inf:
            raise InvalidGeometryError(f"period must be positive, got {a}")
        for name in ("jc_slot", "jc_gap", "hat_length"):
            value = getattr(self, name)
            if not 0.0 < value < a:
                raise InvalidGeometryError(f"{name} must lie in (0, period), got {value}")
        d = a - self.jc_gap - self.cross_slot
        if not (self.cross_slot > 0.0 and self.cross_slot < d):
            raise InvalidGeometryError(
                "cross_slot must satisfy 0 < cross_slot < period - jc_gap - cross_slot, "
                f"got cross_slot={self.cross_slot}, period={a}, jc_gap={self.jc_gap}"
            )
        if not 0.0 < self.thickness < math.inf:
            raise InvalidGeometryError(f"thickness must be positive, got {self.thickness}")
        if not 1.0 <= self.eps_r < math.inf:
            raise InvalidGeometryError(f"eps_r must be >= 1, got {self.eps_r}")
        if not 0.0 <= self.tan_delta < math.inf:
            raise InvalidGeometryError(f"tan_delta must be >= 0, got {self.tan_delta}")
        if not 0.0 < self.mu_reff < math.inf:
            raise InvalidGeometryError(f"mu_reff must be positive, got {self.mu_reff}")


@dataclass(frozen=True)
class ExtractedCircuit:
    """Lumped values of the first-order model: a series L-C branch, a tank,
    and an optional parasitic inductor in parallel with the series branch."""

    L_series: float
    C_series: float
    L_tank: float
    C_tank: float
    L_parasitic: float = 0.0

    def __post_init__(self):
        for name in ("L_series", "C_series", "L_tank", "C_tank"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"circuit element {name} must be positive, got {getattr(self, name)}"
                )
        if not 0.0 <= self.L_parasitic < math.inf:
            raise InvalidParameterError(
                f"L_parasitic must be >= 0, got {self.L_parasitic}"
            )


@dataclass(frozen=True)
class ResonancePrediction:
    """Approximate transmission zero and passband centers of the circuit."""

    f_lower: float
    f_zero: float
    f_upper: float

    def __post_init__(self):
        # f_lower < f_zero holds exactly, and monotone rounding keeps
        # f_lower <= f_zero (equal when L_tank vanishes against L_series);
        # f_zero < f_upper only in the intended dual-band regime (tank
        # resonance above the series one).
        if not self.f_lower <= self.f_zero:
            raise InvalidParameterError(
                f"expected f_lower < f_zero up to rounding, got {self.f_lower} > {self.f_zero}"
            )


def effective_permittivity(eps_r: float) -> float:
    """Effective permittivity of a thin substrate with air on one side."""
    if not eps_r >= 1.0:
        raise InvalidParameterError(f"eps_r must be >= 1, got {eps_r}")
    return (eps_r + 1.0) / 2.0


def _ln_csc(x: float) -> float:
    """ln(1/sin(x)) for x in (0, pi); nonnegative everywhere on that range."""
    if not 0.0 < x < math.pi:
        raise InvalidGeometryError(
            f"grid-formula argument must lie in (0, pi), got {x}"
        )
    return 0.0 - math.log(math.sin(x))  # +0.0 where sin rounds to 1, not -0.0


def _strip_inductance(a: float, mu_reff: float, width: float) -> float:
    """Grid inductance of strips parted by slots of ``width``, period ``a``."""
    return (a * MU0 * mu_reff / (2.0 * math.pi)) * _ln_csc(math.pi * width / (2.0 * a))


def _slot_capacitance(opening: float, slot: float, er_eff: float) -> float:
    """Grid capacitance across a ``slot`` in an ``opening`` (period - gap - slot)."""
    return (opening / math.pi) * EPS0 * er_eff * _ln_csc(math.pi * slot / opening)


def extract_circuit(geom: FirstOrderGeometry) -> ExtractedCircuit:
    """Geometry to lumped values via the subwavelength grid formulas.

    The parasitic inductance has no closed form and is returned as 0;
    set it explicitly or recover it with ``synthesis.fit_circuit``.
    """
    a = geom.period
    er_eff = effective_permittivity(geom.eps_r)

    l_series = _strip_inductance(a, geom.mu_reff, geom.jc_slot)
    c_series = (
        (2.0 * geom.hat_length / math.pi)
        * EPS0 * er_eff
        * _ln_csc(math.pi * geom.jc_gap / (2.0 * a))
    )
    l_tank = _strip_inductance(a, geom.mu_reff, geom.jc_gap)
    d = a - geom.jc_gap - geom.cross_slot
    c_tank = _slot_capacitance(d, geom.cross_slot, er_eff)
    return ExtractedCircuit(l_series, c_series, l_tank, c_tank, 0.0)


def _products(c: ExtractedCircuit) -> tuple[float, float, float]:
    """The products p = L_tank*C_tank, q = L_series*C_series and
    r = L_tank*C_series in which the collapsed-sheet closed forms below
    are polynomials.

    Each must lie in [1e-100, 1e100] s^2, about the cube root of the float
    range: there every term those forms build, the squares, p*q and the
    upper pole x = (p + q + r + root)/(2pq) included, is finite, and no
    divisor underflows.  A product outside it is refused by name.
    """
    products = (
        ("L_tank*C_tank", c.L_tank * c.C_tank),
        ("L_series*C_series", c.L_series * c.C_series),
        ("L_tank*C_series", c.L_tank * c.C_series),
    )
    for name, value in products:
        if not 1e-100 <= value <= 1e100:
            raise InvalidParameterError(
                f"{name} = {value} lies outside [1e-100, 1e100] s^2, the float "
                "range of the collapsed-sheet closed forms"
            )
    return tuple(value for _, value in products)


def surface_impedance(c: ExtractedCircuit, f: float):
    """Sheet impedance of the collapsed model (tank in parallel with the
    series branch, substrate and parasitic inductor ignored).

    Returns OPEN exactly at a pole of the expression, and refuses a
    frequency at which the polynomials leave the float range.
    """
    _check_frequency(f)
    p, q, r = _products(c)
    w = 2.0 * math.pi * f
    x = w * w
    num = 1j * w * c.L_tank * (1.0 - x * q)
    den = 1.0 - x * (p + q + r) + x * x * (p * q)
    if den == 0.0:
        return OPEN
    z = num / den
    if not (math.isfinite(den) and cmath.isfinite(z)):
        raise InvalidParameterError(
            f"the sheet impedance leaves the float range at f = {f!r} Hz"
        )
    return z


def predict_resonances(c: ExtractedCircuit) -> ResonancePrediction:
    """Closed-form approximations: transmission zero from the series branch,
    upper passband from the tank alone, lower passband from the loaded
    series branch.  The parasitic inductor and the substrate are ignored,
    so the upper value in particular underestimates the swept peak."""
    _products(c)  # the range rule; each resonance forms its own product
    f_zero = _resonance(c.L_series, c.C_series)
    f_upper = _resonance(c.L_tank, c.C_tank)
    f_lower = _resonance(c.L_tank + c.L_series, c.C_series)
    return ResonancePrediction(f_lower, f_zero, f_upper)


def exact_poles(c: ExtractedCircuit) -> tuple[float, float]:
    """The two positive pole frequencies of the sheet impedance, ascending.

    Solves the quadratic in x = w^2 from the impedance denominator with the
    numerically stable form of the quadratic formula.  Its discriminant
    (p+q+r)^2 - 4pq is summed as (p-q)^2 + r(r + 2(p+q)), whose terms are
    all non-negative for positive elements, so both poles are always real.
    """
    p, q, r = _products(c)
    b = p + q + r
    a2 = p * q
    root = math.sqrt((p - q) ** 2 + r * (r + 2.0 * (p + q)))
    x_hi = (b + root) / (2.0 * a2)
    x_lo = 2.0 / (b + root)
    f_lo = math.sqrt(x_lo) / (2.0 * math.pi)
    f_hi = math.sqrt(x_hi) / (2.0 * math.pi)
    return (f_lo, f_hi)
