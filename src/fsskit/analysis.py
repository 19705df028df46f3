"""Frequency sweeps, dual-band metrics, and parametric studies.

Band metrics follow bench practice: passbands are groups of local |S21|
maxima above the half-power line, peak and null positions are refined by
local quadratic interpolation on the dB curve, and 3 dB bandwidths are
referenced to the refined peak level so they stay meaningful for lossy
responses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BandStructureError,
    EmptySweepError,
    FssError,
    InvalidParameterError,
    TruncatedBandError,
)
from .extraction import FirstOrderGeometry, extract_circuit
from .lumped import SeriesLC
from .topology import FssStack, Incidence, Substrate, build_first_order, stack_response

# Local maxima qualify as passband peaks above this absolute level, and a
# valley dropping below it separates two bands.
BAND_THRESHOLD_DB = -3.0

# A grid sample at or below this level is an exact transmission null; it is
# reported as-is instead of being interpolated.
ZERO_FLOOR_DB = -180.0


@dataclass(frozen=True)
class ResponseTable:
    """Swept two-port response: strictly increasing frequencies with S11/S21."""

    frequency: np.ndarray
    s11: np.ndarray
    s21: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequency, dtype=float).copy()
        s11 = np.asarray(self.s11, dtype=complex).copy()
        s21 = np.asarray(self.s21, dtype=complex).copy()
        if f.ndim != 1 or f.size < 2:
            raise InvalidParameterError("response table needs at least 2 rows")
        if s11.shape != f.shape or s21.shape != f.shape:
            raise InvalidParameterError("frequency/S11/S21 lengths differ")
        if not np.all(np.diff(f) > 0.0):
            raise InvalidParameterError("frequencies must be strictly increasing")
        for arr in (f, s11, s21):
            arr.setflags(write=False)
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "s11", s11)
        object.__setattr__(self, "s21", s21)

    def __len__(self):
        return self.frequency.size

    @property
    def s11_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.s11))

    @property
    def s21_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.s21))


@dataclass(frozen=True)
class BandReport:
    """Dual-band summary of a swept response.

    Bandwidths are fractional (3 dB width over peak frequency); insertion
    losses are in dB at the refined peaks.
    """

    f_lower: float
    f_zero: float
    f_upper: float
    bw_lower: float
    bw_upper: float
    il_lower_db: float
    il_upper_db: float
    separation: float

    def __post_init__(self):
        if not self.f_lower < self.f_zero < self.f_upper:
            raise InvalidParameterError(
                f"band ordering violated: {self.f_lower}, {self.f_zero}, {self.f_upper}"
            )
        for name in ("bw_lower", "bw_upper"):
            bw = getattr(self, name)
            if not 0.0 < bw < np.inf:
                raise InvalidParameterError(f"{name} must be finite and positive, got {bw}")
        if self.il_lower_db < 0.0 or self.il_upper_db < 0.0:
            raise InvalidParameterError("insertion loss cannot be negative")


@dataclass(frozen=True)
class SweepPoint:
    """One entry of a parametric sweep; exactly one of report/error is set."""

    value: float
    report: BandReport | None = None
    error: str | None = None


def sweep(
    stack: FssStack,
    f_start: float,
    f_stop: float,
    n_points: int,
    spacing: str = "linear",
) -> ResponseTable:
    """Evaluate the stack on a linear or logarithmic frequency grid."""
    return sweep_at(stack, _grid(f_start, f_stop, n_points, spacing))


def _grid(f_start: float, f_stop: float, n_points: int, spacing: str) -> np.ndarray:
    """The linear or logarithmic frequency grid of a sweep."""
    if not 0.0 < f_start < f_stop:
        raise InvalidParameterError(
            f"need 0 < f_start < f_stop, got {f_start}, {f_stop}"
        )
    if n_points < 2:
        raise InvalidParameterError(f"n_points must be >= 2, got {n_points}")
    if spacing == "linear":
        return np.linspace(f_start, f_stop, n_points)
    if spacing == "log":
        return np.geomspace(f_start, f_stop, n_points)
    raise InvalidParameterError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def sweep_at(stack: FssStack, freqs) -> ResponseTable:
    """Evaluate the stack on an explicit frequency grid."""
    freqs = np.asarray(freqs, dtype=float)
    s11, s21 = stack_response(stack, freqs)
    return ResponseTable(freqs, s11, s21)


def band_report(table: ResponseTable) -> BandReport:
    """Extract dual-band metrics from a swept response.

    The table must contain exactly two passbands: groups of local |S21|
    maxima above the half-power line, where a valley dropping below that
    line separates groups (so a ripple band with two poles counts once).
    """
    f = table.frequency
    db = table.s21_db

    # Local maxima: strictly above the left neighbor, not below the right
    # one, and finite (NaN and -inf samples never qualify).
    m = db[1:-1]
    peaks = 1 + np.flatnonzero((m > db[:-2]) & (m >= db[2:]) & np.isfinite(m))
    qualified = peaks[db[peaks] > BAND_THRESHOLD_DB].tolist()
    bands: list[list[int]] = []
    for i in qualified:
        if bands and np.min(db[bands[-1][-1] : i + 1]) > BAND_THRESHOLD_DB:
            bands[-1].append(i)
        else:
            bands.append([i])
    if len(bands) != 2:
        raise BandStructureError(
            f"expected exactly 2 passbands, found {len(bands)}", band_count=len(bands)
        )
    lower_band, upper_band = bands

    f_lower, level_lower = _band_peak(f, db, lower_band)
    f_upper, level_upper = _band_peak(f, db, upper_band)

    # Null: deepest sample strictly between the two bands.  A floor-level
    # sample is an exact zero and is reported without interpolation.
    lo, hi = lower_band[-1], upper_band[0]
    j = lo + 1 + int(np.argmin(db[lo + 1 : hi]))
    if db[j] <= ZERO_FLOOR_DB:
        f_zero = float(f[j])
    else:
        f_zero, _ = _refine_quadratic(f, db, j)

    bw_lower = _bandwidth(f, db, lower_band, level_lower, f_lower, "lower", j)
    bw_upper = _bandwidth(f, db, upper_band, level_upper, f_upper, "upper", j)

    return BandReport(
        f_lower=f_lower,
        f_zero=f_zero,
        f_upper=f_upper,
        bw_lower=bw_lower,
        bw_upper=bw_upper,
        il_lower_db=max(0.0, -level_lower),
        il_upper_db=max(0.0, -level_upper),
        separation=f_upper - f_lower,
    )


def _band_peak(f, db, band) -> tuple[float, float]:
    """Refined frequency and level of the band's highest peak."""
    top = band[int(np.argmax(db[band]))]
    return _refine_quadratic(f, db, top)


def _refine_quadratic(f, db, i) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1, clamped to the
    bracketing grid interval.  Falls back to the grid point for flat or
    non-finite neighborhoods."""
    x1, x2, x3 = f[i - 1], f[i], f[i + 1]
    y1, y2, y3 = db[i - 1], db[i], db[i + 1]
    if not (np.isfinite(y1) and np.isfinite(y2) and np.isfinite(y3)):
        return float(x2), float(y2)
    d1 = (y2 - y1) / (x2 - x1)
    d2 = (y3 - y2) / (x3 - x2)
    curv = (d2 - d1) / (x3 - x1)
    if curv == 0.0:
        return float(x2), float(y2)
    x_star = 0.5 * (x1 + x2) - d1 / (2.0 * curv)
    x_star = min(max(x_star, x1), x3)
    y_star = y1 + d1 * (x_star - x1) + curv * (x_star - x1) * (x_star - x2)
    return float(x_star), float(y_star)


def _bandwidth(f, db, band, peak_level, f_peak, which, null) -> float:
    """Fractional 3 dB width: crossings of (peak - 3 dB) found by linear
    interpolation outward from the band's outermost peaks that reach the
    target level (a grouped peak under it would bracket no crossing).  A null
    not under the target merges the bands, and a band with no sample at the
    target level is not resolved by the grid."""
    target = peak_level - 3.0
    if not db[null] < target:
        raise BandStructureError(
            f"the {which} band merges with the other one: the null at {db[null]:.3f} dB is "
            f"not 3 dB under its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    band = [i for i in band if db[i] >= target]
    if not band:
        raise BandStructureError(
            f"the {which} band is not resolved by the grid: no sample reaches "
            f"3 dB below its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    f_lo = _crossing(f, db, band[0], target, which, "low")
    f_hi = _crossing(f, db, band[-1], target, which, "high")
    return (f_hi - f_lo) / f_peak


def _crossing(f, db, start, target, which, side) -> float:
    """Crossing at the nearest sample under the target level below
    ``start`` (side "low") or above it (side "high"), interpolated toward
    the sample next to it on the ``start`` side."""
    low = side == "low"
    below = np.flatnonzero(db[:start] < target if low else db[start + 1 :] < target)
    if not below.size:
        raise TruncatedBandError(
            f"{side}-side 3 dB crossing of the {which} band lies "
            f"{'below' if low else 'above'} the swept range",
            side=f"{which}-{side}",
        )
    i, step = (int(below[-1]), 1) if low else (start + 1 + int(below[0]), -1)
    if not np.isfinite(db[i]):
        return float(f[i])
    frac = (target - db[i]) / (db[i + step] - db[i])
    return float(f[i] + frac * (f[i + step] - f[i]))


def parametric_sweep(
    base: FirstOrderGeometry,
    param: str,
    values,
    f_start: float,
    f_stop: float,
    n_points: int = 1401,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
) -> list[SweepPoint]:
    """Re-extract, rebuild, sweep, and report for each perturbed geometry.

    All other dimensions stay at the base values.  Per-point geometry or
    band-structure errors are recorded in the returned entries and the
    sweep continues.  The analytic transmission-zero frequency of each
    circuit is inserted into the grid so the null is sampled exactly.
    """
    values = list(values)
    if not values:
        raise EmptySweepError(f"no values supplied for parameter {param!r}")
    if param not in FirstOrderGeometry.__dataclass_fields__:
        raise InvalidParameterError(f"unknown geometry parameter {param!r}")
    grid = _grid(f_start, f_stop, n_points, "linear")

    points = []
    for value in values:
        try:
            geom = replace(base, **{param: value})
            circuit = extract_circuit(geom)
            sub = Substrate(geom.thickness, geom.eps_r, geom.tan_delta)
            stack = build_first_order(circuit, sub, inc, dielectric_loss)
            f_zero = SeriesLC(circuit.L_series, circuit.C_series).resonance()
            this_grid = grid
            if f_start < f_zero < f_stop:
                this_grid = np.union1d(grid, [f_zero])
            report = band_report(sweep_at(stack, this_grid))
            points.append(SweepPoint(value=value, report=report))
        except FssError as exc:
            points.append(SweepPoint(value=value, error=f"{exc.category}: {exc}"))
    return points


def smooth_response(table: ResponseTable, window_hz: float) -> ResponseTable:
    """Moving average of the complex S-parameters over a frequency window,
    used to knock ripple off imported measurement data."""
    if not 0.0 < window_hz < np.inf:
        raise InvalidParameterError(f"window must be finite and positive, got {window_hz}")
    f = table.frequency
    half = window_hz / 2.0
    lo = np.searchsorted(f, f - half, side="left")
    hi = np.searchsorted(f, f + half, side="right")
    s11 = np.empty_like(table.s11)
    s21 = np.empty_like(table.s21)
    for i in range(len(f)):
        s11[i] = table.s11[lo[i] : hi[i]].mean()
        s21[i] = table.s21[lo[i] : hi[i]].mean()
    return ResponseTable(f, s11, s21)
