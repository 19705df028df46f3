"""Frequency sweeps, dual-band metrics, and parametric studies.

Band metrics follow bench practice: passbands are groups of local |S21|
maxima above the half-power line, peak and null positions are refined by
local quadratic interpolation on the dB curve, and 3 dB bandwidths are
referenced to the refined peak level so they stay meaningful for lossy
responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import check, check_frequencies
from .errors import (
    BandStructureError,
    EmptySweepError,
    FssError,
    InvalidParameterError,
    TruncatedBandError,
)
from .extraction import FirstOrderGeometry, extract_circuit, predict_resonances
from .topology import FssStack, Incidence, Substrate, build_first_order, stack_response

# Local maxima qualify as passband peaks above this absolute level, and a
# valley dropping below it separates two bands.
BAND_THRESHOLD_DB = -3.0

# A grid sample at or below this level is an exact transmission null; it is
# reported as-is instead of being interpolated.
ZERO_FLOOR_DB = -180.0

# Frequency points of a sweep grid whose caller does not set them.
SWEEP_POINTS = 1401


@dataclass(frozen=True)
class ResponseTable:
    """Swept two-port response: strictly increasing frequencies with S11/S21.
    A refused frequency column is named by its first pair out of order, or
    else by its first value out of range.

    The columns are read-only arrays.  An input that is a plain ndarray of
    the column's dtype, owns its memory and is already read-only (as the
    engine's outputs are) is shared; any other input is copied, so no
    write to the caller's arrays reaches the table."""

    frequency: np.ndarray
    s11: np.ndarray
    s21: np.ndarray

    def __post_init__(self):
        for name, dtype in (("frequency", float), ("s11", complex), ("s21", complex)):
            arr = getattr(self, name)
            if not (
                type(arr) is np.ndarray
                and arr.dtype == dtype
                and arr.flags.owndata
                and not arr.flags.writeable
            ):
                arr = np.array(arr, dtype=dtype)  # a copy the table owns
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        f = self.frequency
        if f.ndim != 1 or f.size < 2:
            raise InvalidParameterError("response table needs at least 2 rows")
        if self.s11.shape != f.shape or self.s21.shape != f.shape:
            raise InvalidParameterError("frequency/S11/S21 lengths differ")
        if not np.all(f[1:] > f[:-1]):  # NaN fails too
            i = np.argmin(f[1:] > f[:-1])  # the first pair out of order
            prev, freq = f[i : i + 2].tolist()
            raise InvalidParameterError(
                f"frequencies must be strictly increasing, but {freq!r} Hz follows {prev!r} Hz"
            )
        check_frequencies(f)

    def __len__(self):
        return self.frequency.size

    @property
    def s21_db(self) -> np.ndarray:
        db = np.abs(self.s21)
        with np.errstate(divide="ignore"):
            np.log10(db, out=db)
        db *= 20.0
        return db


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
    grid = _grid(f_start, f_stop, n_points, spacing)
    return ResponseTable(grid, *stack_response(stack, grid))


def _grid(f_start: float, f_stop: float, n_points: int, spacing: str) -> np.ndarray:
    """The linear or logarithmic frequency grid of a sweep."""
    check("frequency", "f_start", f_start)
    check("frequency", "f_stop", f_stop)
    if not f_start < f_stop:
        raise InvalidParameterError(f"need f_start < f_stop, got {f_start}, {f_stop}")
    if isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer)):
        raise InvalidParameterError(f"n_points must be an integer, got {n_points!r}")
    if n_points < 2:
        raise InvalidParameterError(f"n_points must be >= 2, got {n_points}")
    if spacing == "linear":
        grid = np.linspace(f_start, f_stop, n_points)
    elif spacing == "log":
        grid = np.geomspace(f_start, f_stop, n_points)
    else:
        raise InvalidParameterError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    # read-only and owning its memory, so every ResponseTable on it shares
    # it; linspace returns a view, copied once here rather than per table
    if not grid.flags.owndata:
        grid = grid.copy()
    grid.setflags(write=False)
    return grid


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
    mask = np.greater(m, db[:-2])
    scratch = np.greater_equal(m, db[2:])
    mask &= scratch
    mask &= np.isfinite(m, out=scratch)
    peaks = 1 + np.flatnonzero(mask)
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
    bracketing grid interval; the grid point for non-finite neighborhoods.
    At a peak or null the slopes have opposite signs, and below 1e15 Hz no
    quotient underflows (dB steps exceed 1e-31), so the curvature is nonzero."""
    # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
    x1, x2, x3 = f[i - 1 : i + 2].tolist()
    y1, y2, y3 = db[i - 1 : i + 2].tolist()
    if not (math.isfinite(y1) and math.isfinite(y2) and math.isfinite(y3)):
        return x2, y2
    d1 = (y2 - y1) / (x2 - x1)
    d2 = (y3 - y2) / (x3 - x2)
    curv = (d2 - d1) / (x3 - x1)
    x_star = 0.5 * (x1 + x2) - d1 / (2.0 * curv)
    x_star = min(max(x_star, x1), x3)
    y_star = y1 + d1 * (x_star - x1) + curv * (x_star - x1) * (x_star - x2)
    return x_star, y_star


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
    # samples under the target, nearest to start first (start >= 1: a peak)
    under = db[start - 1 :: -1] < target if low else db[start + 1 :] < target
    k = int(np.argmax(under))
    if not under[k]:
        raise TruncatedBandError(
            f"{side}-side 3 dB crossing of the {which} band lies "
            f"{'below' if low else 'above'} the swept range",
            side=f"{which}-{side}",
        )
    i, step = (start - 1 - k, 1) if low else (start + 1 + k, -1)
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
    n_points: int = SWEEP_POINTS,
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
            f_zero = predict_resonances(circuit).f_zero
            this_grid = grid
            if f_start < f_zero < f_stop:
                k = int(np.searchsorted(grid, f_zero))
                if grid[k] != f_zero:
                    this_grid = np.insert(grid, k, f_zero)
                    this_grid.setflags(write=False)
            report = band_report(ResponseTable(this_grid, *stack_response(stack, this_grid)))
            points.append(SweepPoint(value=value, report=report))
        except FssError as exc:
            points.append(SweepPoint(value=value, error=f"{exc.category}: {exc}"))
    return points


def smooth_response(table: ResponseTable, window_hz: float) -> ResponseTable:
    """Moving average of the complex S-parameters over a frequency window,
    used to knock ripple off imported measurement data.  The window must be
    narrower than the data's span, or the centre sample averages it all."""
    f = table.frequency
    return ResponseTable(f, *map(_moving_average(f, window_hz), (table.s11, table.s21)))


def _moving_average(f: np.ndarray, window_hz: float):
    """The moving average over ``window_hz`` on grid ``f``, planned once: a
    function that averages along the last axis into a new read-only array."""
    if not 0.0 < window_hz < np.inf:
        raise InvalidParameterError(f"window must be finite and positive, got {window_hz}")
    span = f[-1] - f[0]
    if not window_hz < span:
        raise InvalidParameterError(f"window {window_hz} must be below the data span {span}")
    half = window_hz / 2.0
    lo = np.searchsorted(f, f - half, side="left")
    width = np.searchsorted(f, f + half, side="right") - lo
    # Runs of samples whose windows slide by one sample at one width are a
    # contiguous slice of a sliding-window view; each window is summed along
    # its own contiguous axis, so every mean equals the slice's .mean().
    cut = np.flatnonzero((np.diff(width) != 0) | (np.diff(lo) != 1)) + 1
    starts = [0, *cut.tolist()]
    ends = [*cut.tolist(), len(f)]
    runs = list(zip(starts, ends, width[starts].tolist(), lo[starts].tolist()))

    def average(s: np.ndarray) -> np.ndarray:
        out = np.empty_like(s)
        views = {}
        for a, b, w, first in runs:
            if w not in views:
                views[w] = sliding_window_view(s, w, axis=-1)
            out[..., a:b] = np.add.reduce(views[w][..., first : first + b - a, :], axis=-1) / w
        out.setflags(write=False)
        return out

    return average
