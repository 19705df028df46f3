"""The input domain: one range per quantity, checked where values enter
(element, substrate, geometry and target constructors, ``foster_transform``
and ``geometry_from_circuit`` arguments, a fit's starts, every frequency
and count) with one message, ``<name> must lie in [lo, hi] <unit>, got
<value>``.  Each value must first be a real number (an integer for a
count) and not a bool, or ``<name> must be a real number, got <repr>``:
``check_real``, which values without a range call too.  A flag must be a
bool or ``np.bool_`` (``check_flag``): a string such as "no" would switch
it on.  The ranges reach far beyond printed cells, and inside them no
stage leaves the float range:

* Sheet: p, q, r = L_tank*C_tank, L_series*C_series, L_tank*C_series lie in
  [1e-39, 1e9] s^2 and x = (2*pi*f)^2 in [3.9e7, 3.9e31] s^-2.  The pole
  terms lie in [1e-78, 1e18] and the upper pole's x below 1e88; |Z|'s
  numerator stays below 3e62 and its denominator's terms above 1e-63, so a
  nonzero denominator exceeds 1e-79 and |Z| < 1e142.
* Foster: each L*C and 1/(L*C) is finite and nonzero.  The coincidence
  rule keeps |L2*C2 - L1*C1| > 1e-6*max(L1*C1, L2*C2), so the exact hybrid
  elements lie in [1e-55, 1e40] and each rounds once to a normal float.
* Lossy substrate: |eps_r*(1 - j*tan_delta)| <= 1e4*sqrt(101).
* Targets: C_tank, 1/(2*pi*f)^2 and the series elements stay in
  [1e-54, 1e46]; only q_lower - q_zero can round to 0 (f_zero next to
  f_lower), which is refused by name.
* Dimensions: L >= 1e-18 H and period <= 10 m keep each strip width at
  least 6e-7*period below the period, so the hat-length factor is
  positive and re-extraction misses by < 4e-10; C_tank >= 1e-21 F is far
  above the cross-slot bracket's floor, ~4e-31 F.  ln csc takes length pairs.
* Engine: every node is lossless, so its admittance is j times a real
  susceptance, and lossless lines are finite; but a lossy line's
  |Im theta| grows with thickness * f * tan_delta up to 4.5e10 rad, so
  the chain keeps its overflow check.  numpy's warnings are off only where
  the engine can overflow or divide by zero (``topology._QUIET``): a lossy
  line's terms in ``_line_terms`` and each call's chain.  A fit's trial
  step may leave the domain: the constructors refuse it and the fit damps
  the step.  Exact shorts are no overflow and keep their path; the CLI's
  and the importers' finiteness checks guard outside text, where JSON
  integers are unbounded.
* Sweeps: a sweep holds at most 64 bytes a point beside one-byte masks:
  its float grid (8; a parametric sweep's copy with the zero inserted, 8
  more), the engine's one block of two or three complex rows (32 or 48)
  and ``band_report``'s |S21|^2 array (8).  So 1e7 points hold under 0.7 GB,
  and a larger count is a range error, not numpy's allocation error or
  its size limit.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidParameterError

# quantity: (low, high, unit)
_TABLE = {
    "frequency": ("1e3", "1e15", "Hz"),
    "inductance": ("1e-18", "1e6", "H"),
    "capacitance": ("1e-21", "1e3", "F"),
    "length": ("1e-15", "10", "m"),
    "eps_r": ("1", "1e4", ""),
    "tan_delta": ("0", "10", ""),
    "n_points": ("2", "1e7", ""),
    "max_iter": ("0", "inf", ""),
}
RANGES = {q: (float(a), float(b), f"[{a}, {b}] {u}".rstrip()) for q, (a, b, u) in _TABLE.items()}

# an element's quantity by the initial of its name
_ELEMENTS = {"L": "inductance", "C": "capacitance"}


def check(quantity: str, name: str, value, error=InvalidParameterError):
    """Raise ``error`` unless ``value`` is a number (``check_real``) in ``quantity``'s range."""
    lo, hi, span = RANGES[quantity]
    check_real(name, value, error, integer=quantity in ("n_points", "max_iter"))
    if not lo <= value <= hi:  # NaN fails too
        raise error(f"{name} must lie in {span}, got {value}")


def check_real(name: str, value, error=InvalidParameterError, integer: bool = False) -> None:
    """Raise ``error`` unless ``value`` is a ``numbers.Real`` (with ``integer``
    a ``numbers.Integral``) and not a bool, which would count as 0 or 1."""
    kind, noun = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{name} must be {noun}, got {value!r}")


def check_flag(name: str, value) -> None:
    """Raise InvalidParameterError unless ``value`` is a bool or ``np.bool_``."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a bool, got {value!r}")


def check_elements(values: dict, shorted: str = "", prefix: str = "") -> None:
    """Check element values by their names' initials, each named with
    ``prefix``; the one named ``shorted`` may be 0 once it is a number."""
    for name, value in values.items():
        if name == shorted:
            check_real(prefix + name, value)
            if value == 0.0:
                continue
        check(_ELEMENTS[name[0]], prefix + name, value)


def frequency_array(values) -> np.ndarray:
    """``values`` as a float64 array.  A complex array, or an object array
    holding a complex value, is refused: a cast would keep only the real
    part, or fail with a bare TypeError."""
    f = np.asarray(values)
    if f.dtype.kind != "c":
        try:
            return f.astype(float, copy=False)
        except TypeError:
            pass
    raise InvalidParameterError(f"frequencies must be real numbers, got a {f.dtype} array")


def check_frequencies(f: np.ndarray) -> None:
    """Check a 1-D frequency array, naming its first value out of range."""
    lo, hi, _ = RANGES["frequency"]
    if not (lo <= f.min() and f.max() <= hi):
        check("frequency", "frequency", f[~((f >= lo) & (f <= hi))][0])
