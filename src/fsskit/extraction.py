"""Closed-form mapping between unit-cell geometry and lumped circuit values.

The first-order unit cell combines a bandpass layer (cross slot bounded by
a loop slot, characterized by ``cross_slot``) with a bandstop layer of
cross-shaped patches ("hat" length ``hat_length``, slot ``jc_slot``,
inter-element gap ``jc_gap``).  The grid formulas hold for
electrically small cells; all lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EPS0, MU0
from .domain import check, check_elements
from .errors import InvalidGeometryError, InvalidParameterError
from .lumped import OPEN, _resonance


# the geometry fields that are lengths; the others are named after their quantity
_LENGTHS = ("period", "hat_length", "jc_slot", "cross_slot", "jc_gap", "thickness")


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

    def __post_init__(self):
        for name, value in vars(self).items():
            check("length" if name in _LENGTHS else name, name, value, InvalidGeometryError)
        a = self.period
        for name in ("jc_slot", "jc_gap", "hat_length"):
            value = getattr(self, name)
            if not value < a:
                raise InvalidGeometryError(f"{name} must lie in (0, period), got {value}")
        d = a - self.jc_gap - self.cross_slot
        if not self.cross_slot < d:
            raise InvalidGeometryError(
                "cross_slot must satisfy 0 < cross_slot < period - jc_gap - cross_slot, "
                f"got cross_slot={self.cross_slot}, period={a}, jc_gap={self.jc_gap}"
            )


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
        check_elements(vars(self), shorted="L_parasitic")  # 0 omits the parasitic


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
    check("eps_r", "eps_r", eps_r)
    return (eps_r + 1.0) / 2.0


def _ln_csc(w: float, span: float) -> float:
    """ln(1/sin(pi*w/span)) for 0 < w < span, to full precision."""
    w = min(w, span - w)  # sin(x) = sin(pi - x); span - w is exact past span/2
    if 4.0 * w <= span:
        return -math.log(math.sin(math.pi * w / span))
    # past pi/4 through cos(x) = sin(pi/2 - x), with span - 2w exact
    return -0.5 * math.log1p(-math.sin(math.pi * (span - 2.0 * w) / (2.0 * span)) ** 2)


def _strip_inductance(a: float, width: float) -> float:
    """Grid inductance of strips parted by slots of ``width``, period ``a``."""
    return (a * MU0 / (2.0 * math.pi)) * _ln_csc(width, 2.0 * a)


def _strip_width(a: float, inductance: float) -> float:
    """The slot width of ``_strip_inductance`` in closed form: sin x = e^-k
    for x = pi*w/(2a), solved by atan2 for the smaller of x and pi/2 - x."""
    k = 2.0 * math.pi * inductance / (a * MU0)
    sin_x, cos_x = math.exp(-k), math.sqrt(-math.expm1(-2.0 * k))
    if sin_x < cos_x:
        return (2.0 * a / math.pi) * math.atan2(sin_x, cos_x)
    return a - (2.0 * a / math.pi) * math.atan2(cos_x, sin_x)


def _slot_capacitance(opening: float, slot: float, er_eff: float) -> float:
    """Grid capacitance across a ``slot`` in an ``opening`` (period - gap - slot)."""
    return (opening / math.pi) * EPS0 * er_eff * _ln_csc(slot, opening)


def extract_circuit(geom: FirstOrderGeometry) -> ExtractedCircuit:
    """Geometry to lumped values via the subwavelength grid formulas.

    The parasitic inductance has no closed form and is returned as 0;
    set it explicitly or recover it with ``synthesis.fit_circuit``.
    """
    a = geom.period
    er_eff = effective_permittivity(geom.eps_r)

    l_series = _strip_inductance(a, geom.jc_slot)
    c_series = (2.0 * geom.hat_length / math.pi) * EPS0 * er_eff * _ln_csc(geom.jc_gap, 2.0 * a)
    l_tank = _strip_inductance(a, geom.jc_gap)
    d = a - geom.jc_gap - geom.cross_slot
    c_tank = _slot_capacitance(d, geom.cross_slot, er_eff)
    return ExtractedCircuit(l_series, c_series, l_tank, c_tank, 0.0)


def surface_impedance(c: ExtractedCircuit, f: float):
    """Sheet impedance of the collapsed model (tank in parallel with the
    series branch, substrate and parasitic inductor ignored).

    Returns OPEN exactly at a pole of the expression.
    """
    check("frequency", "frequency", f)
    p, q, r = c.L_tank * c.C_tank, c.L_series * c.C_series, c.L_tank * c.C_series
    w = 2.0 * math.pi * f
    x = w * w
    num = 1j * w * c.L_tank * (1.0 - x * q)
    den = 1.0 - x * (p + q + r) + x * x * (p * q)
    if den == 0.0:
        return OPEN
    return num / den


def predict_resonances(c: ExtractedCircuit) -> ResonancePrediction:
    """Closed-form approximations: transmission zero from the series branch,
    upper passband from the tank alone, lower passband from the loaded
    series branch.  The parasitic inductor and the substrate are ignored,
    so the upper value in particular underestimates the swept peak."""
    f_zero = _resonance(c.L_series, c.C_series)
    f_upper = _resonance(c.L_tank, c.C_tank)
    f_lower = _resonance(c.L_tank + c.L_series, c.C_series)
    return ResonancePrediction(f_lower, f_zero, f_upper)


def exact_poles(c: ExtractedCircuit) -> tuple[float, float]:
    """The two positive pole frequencies of the sheet impedance, ascending.

    Solves the impedance denominator 1 - (p+q+r)x + pqx^2 = 0 in x = w^2
    (p = L_tank*C_tank, q = L_series*C_series, r = L_tank*C_series) by the
    numerically stable quadratic formula.  Its discriminant (p+q+r)^2 - 4pq
    is summed as (p-q)^2 + r(r + 2(p+q)), whose terms are all non-negative
    for positive elements, so both poles are always real.
    """
    p, q, r = c.L_tank * c.C_tank, c.L_series * c.C_series, c.L_tank * c.C_series
    b = p + q + r
    a2 = p * q
    root = math.sqrt((p - q) ** 2 + r * (r + 2.0 * (p + q)))
    x_hi = (b + root) / (2.0 * a2)
    x_lo = 2.0 / (b + root)
    f_lo = math.sqrt(x_lo) / (2.0 * math.pi)
    f_hi = math.sqrt(x_hi) / (2.0 * math.pi)
    return (f_lo, f_hi)
