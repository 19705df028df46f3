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

from .domain import check, check_frequencies, check_real, frequency_array
from .errors import (
    BandStructureError,
    EmptySweepError,
    FssError,
    InvalidParameterError,
    TruncatedBandError,
)
from .extraction import FirstOrderGeometry, extract_circuit, predict_resonances
from .topology import (
    FssStack,
    Incidence,
    Substrate,
    _check_illumination,
    build_first_order,
    stack_response,
)

# Local maxima qualify as passband peaks above this absolute level, and a
# valley dropping below it separates two bands.
BAND_THRESHOLD_DB = -3.0

# A grid sample at or below this level is an exact transmission null; it is
# reported as-is instead of being interpolated.
ZERO_FLOOR_DB = -180.0

# Frequency points of a sweep grid whose caller does not set them.
SWEEP_POINTS = 1401


@dataclass(frozen=True, eq=False)
class ResponseTable:
    """Swept two-port response: strictly increasing frequencies with S11/S21.
    A refused frequency column is named by its first pair out of order, or
    else by its first value out of range.  A table equals and hashes as
    itself alone: ndarray columns have no single truth value.

    The columns are read-only arrays.  A read-only plain ndarray of the
    column's dtype is shared when its memory belongs to a read-only plain
    ndarray: itself, or the block whose row it is (as the engine's outputs
    are).  Any other input is copied, a read-only view of a writeable array
    included, so no write to the caller's arrays reaches the table."""

    frequency: np.ndarray
    s11: np.ndarray
    s21: np.ndarray

    def __post_init__(self):
        for name, dtype in (("frequency", float), ("s11", complex), ("s21", complex)):
            arr = getattr(self, name)
            if not (
                type(arr) is np.ndarray
                and arr.dtype == dtype
                and not arr.flags.writeable
                and _read_only_owner(arr if arr.flags.owndata else arr.base)
            ):
                # a copy the table owns
                arr = np.array(frequency_array(arr) if dtype is float else arr, dtype=dtype)
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


def _read_only_owner(arr) -> bool:
    """Whether ``arr`` is a read-only plain ndarray that owns its memory."""
    return type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable


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
    check("n_points", "n_points", n_points)
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
    maxima above the half-power line, |S21|^2 > 10**-0.3, where a valley
    not above that line separates groups (so a ripple band with two poles
    counts once).
    """
    f = table.frequency
    power = _power(table.s21)
    line = 10.0 ** (BAND_THRESHOLD_DB / 10.0)

    # Local maxima: strictly above the left neighbor, not below the right
    # one, and finite (NaN and inf samples never qualify).
    m = power[1:-1]
    mask = np.greater(m, power[:-2])
    scratch = np.greater_equal(m, power[2:])
    mask &= scratch
    mask &= np.isfinite(m, out=scratch)
    peaks = 1 + np.flatnonzero(mask)
    qualified = peaks[power[peaks] > line]
    # Neighbouring peaks share a band while the valley between them (its
    # lowest sample) stays above the line, which a NaN valley does not.
    joined = np.minimum.reduceat(power, qualified)[:-1] > line
    count = qualified.size - np.count_nonzero(joined)
    if count != 2:
        raise BandStructureError(
            f"expected exactly 2 passbands, found {count}", band_count=count
        )
    split = 1 + int(np.argmin(joined))  # past the one valley no band spans
    lower_band, upper_band = qualified[:split].tolist(), qualified[split:].tolist()

    # Null: deepest sample strictly between the two bands.  A floor-level
    # sample is an exact zero and is reported without interpolation.
    lo, hi = lower_band[-1], upper_band[0]
    j = lo + 1 + int(np.argmin(power[lo + 1 : hi]))
    if power[j] <= 10.0 ** (ZERO_FLOOR_DB / 10.0):
        f_zero = float(f[j])
    else:
        f_zero, _ = _refine_quadratic(f, power, j)

    f_lower, level_lower, bw_lower = _band(f, power, lower_band, "lower", j)
    f_upper, level_upper, bw_upper = _band(f, power, upper_band, "upper", j)

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


def _power(s: np.ndarray) -> np.ndarray:
    """|s|^2 as re*re + im*im, squared one block at a time so that a long
    column holds one full-length array: IEEE products and sums, the same
    bits at every numpy CPU dispatch level, as numpy's abs is not."""
    power = np.empty(s.shape)
    with np.errstate(over="ignore"):  # a square past the float range is inf
        for k in range(0, s.size, 16384):
            part = s[k : k + 16384]
            power[k : k + 16384] = part.real * part.real + part.imag * part.imag
    return power


def _db(p: float) -> float:
    """10*log10(p) through ``math``: -inf for 0, NaN for NaN."""
    return 10.0 * math.log10(p) if p else -math.inf


def _refine_quadratic(f, power, i) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1 of the dB curve
    ``_db(power)``, clamped to the bracketing grid interval; the grid point
    for non-finite neighborhoods.  At a peak or null the slopes have
    opposite signs, and below 1e15 Hz no quotient underflows (dB steps
    exceed 1e-31), so the curvature is nonzero."""
    # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
    x1, x2, x3 = f[i - 1 : i + 2].tolist()
    y1, y2, y3 = map(_db, power[i - 1 : i + 2].tolist())
    if not (math.isfinite(y1) and math.isfinite(y2) and math.isfinite(y3)):
        return x2, y2
    d1 = (y2 - y1) / (x2 - x1)
    d2 = (y3 - y2) / (x3 - x2)
    curv = (d2 - d1) / (x3 - x1)
    x_star = 0.5 * (x1 + x2) - d1 / (2.0 * curv)
    x_star = min(max(x_star, x1), x3)
    y_star = y1 + d1 * (x_star - x1) + curv * (x_star - x1) * (x_star - x2)
    return x_star, y_star


def _band(f, power, band, which, null) -> tuple[float, float, float]:
    """Refined frequency and level of the band's highest peak, and its
    fractional 3 dB width: crossings of (peak - 3 dB) found by linear
    interpolation outward from the band's outermost peaks that reach the
    target level (a grouped peak under it would bracket no crossing).  A null
    not under the target merges the bands, and a band with no sample at the
    target level is not resolved by the grid."""
    f_peak, peak_level = _refine_quadratic(f, power, band[int(np.argmax(power[band]))])
    target = peak_level - 3.0
    level = 10.0 ** (target / 10.0)  # the target as |S21|^2
    if not power[null] < level:
        raise BandStructureError(
            f"the {which} band merges with the other one: the null at {_db(power[null]):.3f} dB "
            f"is not 3 dB under its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    band = [i for i in band if power[i] >= level]
    if not band:
        raise BandStructureError(
            f"the {which} band is not resolved by the grid: no sample reaches "
            f"3 dB below its refined peak level of {peak_level:.3f} dB",
            band_count=2,
        )
    f_lo = _crossing(f, power, band[0], target, level, which, "low")
    f_hi = _crossing(f, power, band[-1], target, level, which, "high")
    return f_peak, peak_level, (f_hi - f_lo) / f_peak


def _crossing(f, power, start, target, level, which, side) -> float:
    """Crossing at the nearest sample under the target (``target`` dB,
    ``level`` |S21|^2) below ``start`` (side "low") or above it (side
    "high"), interpolated in dB toward its neighbour on the ``start`` side."""
    low = side == "low"
    # samples under the target, nearest to start first (start >= 1: a peak)
    under = power[start - 1 :: -1] < level if low else power[start + 1 :] < level
    k = int(np.argmax(under))
    if not under[k]:
        raise TruncatedBandError(
            f"{side}-side 3 dB crossing of the {which} band lies "
            f"{'below' if low else 'above'} the swept range",
            side=f"{which}-{side}",
        )
    i, step = (start - 1 - k, 1) if low else (start + 1 + k, -1)
    y, y_next = _db(power[i]), _db(power[i + step])
    if not math.isfinite(y):  # an exact zero
        return float(f[i])
    frac = (target - y) / (y_next - y)
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
    sweep continues; a base that is not a ``FirstOrderGeometry`` is refused
    first, and the incidence and the loss flag as ``FssStack`` checks them.
    The analytic transmission-zero frequency of each circuit is inserted
    into the grid so the null is sampled exactly.
    """
    if not isinstance(base, FirstOrderGeometry):
        raise InvalidParameterError(f"base must be a FirstOrderGeometry, got {base!r}")
    _check_illumination(inc, dielectric_loss)
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
    a real number (a bool is not one), and narrower than the data's span,
    or the centre sample averages it all.
    One O(n) plan serves both columns; its bound and its refusal of data
    that are not finite are those of ``_moving_average``."""
    f = table.frequency
    return ResponseTable(f, *map(_moving_average(f, window_hz), (table.s11, table.s21)))


def _moving_average(f: np.ndarray, window_hz: float):
    """The moving average over ``window_hz`` on the 1-D grid ``f``, planned
    once: a function that averages a 1-D complex column into a new
    read-only array in O(n).

    ``total`` holds the running sums T_0 = 0, T_k+1 = fl(T_k + s_k), which
    ``np.cumsum`` forms left to right.  Knuth's TwoSum gives each step's
    exact rounding error e_k = T_k + s_k - T_k+1, and ``error`` holds their
    rounded running sums E_k, so T_k + E_k is the exact sum S_k of
    s_0..s_k-1 but for E_k's own rounding.  The mean over [lo, hi) is the
    TwoSum-exact T_hi - T_lo plus E_hi - E_lo, over hi - lo (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 4; Ogita,
    Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005).

    Bound, per real and imaginary part, with u = 2**-53, M the part's
    largest magnitude and n < 2**43 samples, barring underflow: |T_k| <= 1.001*k*M and
    |e_k| <= u*|T_k+1|, so the exact error sum D_k = S_k - T_k is at most
    1.001*u*M*k*(k+1)/2, and E_k, k rounded additions, misses it by at most
    1.002*u**2*M*k*(k+1)*(k+2)/6.  Rounding E_hi - E_lo and adding the
    TwoSum tail cost u*(|D_hi| + |D_lo|) and u**2 times the window's sum,
    so before its last rounding the window's sum is within
    1.01*u**2*M*n*(n+1)*(n+5)/3 + u**2*|sum| of exact.  That rounding and
    the quotient's, taken part by part, put each mean m within
    2u*|m| + (n+1)**3*u**2*M of exact.  Data that are not finite, or whose
    running sum overflows, are refused: they would spread NaN from the
    first bad sample to the end of the column.
    """
    check_real("window", window_hz)
    if not 0.0 < window_hz < np.inf:
        raise InvalidParameterError(f"window must be finite and positive, got {window_hz}")
    span = f[-1] - f[0]
    if not window_hz < span:
        raise InvalidParameterError(f"window {window_hz} must be below the data span {span}")
    half = window_hz / 2.0
    lo = np.searchsorted(f, f - half, side="left")
    hi = np.searchsorted(f, f + half, side="right")

    def average(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            total = np.concatenate([[0.0], np.cumsum(s)])
            error = np.concatenate([[0.0], np.cumsum(_two_sum_error(total[:-1], s, total[1:]))])
            diff = total[hi] - total[lo]
            mean = diff + (_two_sum_error(total[hi], -total[lo], diff) + (error[hi] - error[lo]))
            # part by part: a complex quotient multiplies by a rounded reciprocal
            mean.real /= hi - lo
            mean.imag /= hi - lo
        if not np.isfinite(mean).all():
            raise InvalidParameterError("averaged data must be finite, with a sum below 2**1024")
        mean.setflags(write=False)
        return mean

    return average


def _two_sum_error(a, b, total):
    """The exact rounding error a + b - total of ``total = a + b`` (Knuth's TwoSum)."""
    b_part = total - a
    return (a - (total - b_part)) + (b - b_part)
