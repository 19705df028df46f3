"""Inverse design: band targets to circuit values, circuit values to unit-cell
dimensions, and least-squares fitting of circuit values to response data.

The target inversion is exact (the three resonance relations solve in
closed form once the tank inductance is chosen); the dimension inversion
is closed-form except for the cross slot; the fitter is a damped least-squares
loop over log-parameterized element values whose damping alone sizes each
step; refusing trials that over- or underflow keeps every iterate strictly
positive and the accepted-step residual monotone non-increasing.  A
first-order fit whose data show a transmission null runs that loop twice:
first with L_series * C_series held at the null, then over all five
elements.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from .constants import EPS0
from .domain import check, check_elements, check_flag, check_type
from .errors import (
    DivergedFitError,
    FssError,
    InfeasibleTargetsError,
    InvalidParameterError,
    UnattainableDimensionError,
)
from .extraction import (
    ExtractedCircuit,
    FirstOrderGeometry,
    _ln_csc,
    _slot_capacitance,
    _strip_inductance,
    _strip_width,
    effective_permittivity,
)
from .lumped import _LEAVES, Inductor, SeriesLC, Tank
from .analysis import ResponseTable, _moving_average, _power, _refine_quadratic
from .topology import (
    Incidence,
    Substrate,
    build_first_order,
    build_second_order,
    port_impedance,
    _blocked_response,
    _line_terms,
)

#: Default tank inductance for target inversion; sets the impedance level /
#: bandwidth split when the caller does not choose one.
DEFAULT_TANK_L = 4e-9

FIT_MAX_ITER = 200  # default cap on accepted fitter iterations
#: A first-order fit is anchored at the data's deepest |S21| sample when
#: it lies this many dB under the median |S21|.
NULL_DEPTH_DB = 20.0

FIRST_ORDER_PARAMS = tuple(f.name for f in fields(ExtractedCircuit))
SECOND_ORDER_PARAMS = (
    "L_outer_a",
    "C_outer_a",
    "L_outer_b",
    "C_outer_b",
    "L_tank",
    "C_tank",
)
#: Element names of each fit template, in parameter-vector order.
TEMPLATES = {"first_order": FIRST_ORDER_PARAMS, "second_order": SECOND_ORDER_PARAMS}


@dataclass(frozen=True)
class DesignTargets:
    """Dual-band design goals.  A transmission zero left at None is set to
    the geometric mean of the two band centers; the tank inductance is the
    free knob of the underdetermined inversion."""

    f_lower: float
    f_upper: float
    f_zero: float | None = None
    L_tank: float = DEFAULT_TANK_L

    def __post_init__(self):
        for name in ("f_lower", "f_upper") + (("f_zero",) if self.f_zero is not None else ()):
            object.__setattr__(self, name, check("frequency", name, getattr(self, name)))
        check("inductance", "L_tank", self.L_tank)
        if not self.f_lower < self.f_upper:
            raise InvalidParameterError(
                f"need f_lower < f_upper, got {self.f_lower}, {self.f_upper}"
            )
        if self.f_zero is None:  # the mean of adjacent floats may round onto one of them
            object.__setattr__(self, "f_zero", math.sqrt(self.f_lower * self.f_upper))
        if not self.f_lower < self.f_zero < self.f_upper:
            raise InfeasibleTargetsError(
                f"transmission zero {self.f_zero} must lie strictly between the band "
                f"centers; attainable range is ({self.f_lower}, {self.f_upper})",
                attainable=(self.f_lower, self.f_upper),
            )


def circuit_from_targets(t: DesignTargets) -> ExtractedCircuit:
    """Invert the resonance relations for the chosen tank inductance.

    C_tank comes from the upper band center, then L_series/C_series solve
    the zero and lower-band relations simultaneously.  The parasitic
    inductance is left at zero.
    """
    check_type("targets", t, DesignTargets)
    c_tank = 1.0 / ((2.0 * math.pi * t.f_upper) ** 2 * t.L_tank)
    q_zero = 1.0 / (2.0 * math.pi * t.f_zero) ** 2    # L_series * C_series
    q_lower = 1.0 / (2.0 * math.pi * t.f_lower) ** 2  # (L_tank + L_series) * C_series
    if not q_lower > q_zero:  # rounding can merge them when f_zero is next to f_lower
        raise InvalidParameterError(
            f"transmission zero {t.f_zero} Hz lies within rounding of f_lower = {t.f_lower} Hz"
        )
    l_series = t.L_tank * q_zero / (q_lower - q_zero)
    # an element outside its range is refused here by name
    return ExtractedCircuit(l_series, q_zero / l_series, t.L_tank, c_tank, 0.0)


def geometry_from_circuit(
    c: ExtractedCircuit,
    period: float,
    sub: Substrate,
) -> FirstOrderGeometry:
    """Invert the grid formulas for a chosen lattice period.

    Slot and gap widths invert the strip inductance formula in closed
    form, the hat length is linear in C_series, and the cross slot
    bisects the decreasing branch of its capacitance formula.  The domain
    argument in ``fsskit.domain`` bounds the re-extraction error by 4e-10.
    The grid formulas extract no parasitic inductance, so only
    ``L_parasitic = 0`` is attainable.
    """
    check_type("circuit", c, ExtractedCircuit)
    check("length", "period", period)
    check_type("substrate", sub, Substrate)
    _attainable(c.L_parasitic, 0.0, 0.0, parameter="L_parasitic", target_name="L_parasitic")
    a = period
    er_eff = effective_permittivity(sub.eps_r)

    # the strip inductance falls as the slot widens: the widest slot gives the low end
    strip_range = [_strip_inductance(a, a * w) for w in (1.0 - 1e-9, 1e-9)]
    jc_slot, jc_gap = (
        _strip_width(a, _attainable(getattr(c, name), *strip_range,
                                    parameter=parameter, target_name=name))
        for parameter, name in (("jc_slot", "L_series"), ("jc_gap", "L_tank"))
    )
    gap_factor = 2.0 * EPS0 * er_eff * _ln_csc(jc_gap, 2.0 * a)
    hat_length = c.C_series * math.pi / gap_factor
    if not hat_length < a:
        raise UnattainableDimensionError(
            f"C_series={c.C_series:.4e} needs hat_length={hat_length:.4e} m, which "
            f"exceeds the period; attainable C_series < {a * gap_factor / math.pi:.4e} F",
            parameter="hat_length",
            attainable=(0.0, a * gap_factor / math.pi),
        )

    d0 = a - jc_gap
    cross_slot = _bisect_decreasing(
        lambda s1: _slot_capacitance(d0 - s1, s1, er_eff),
        c.C_tank,
        d0 * 1e-9,
        # The capacitance formula decreases to zero where the slot reaches a
        # third of the open width; invert on that branch only.
        (d0 / 3.0) * (1.0 - 1e-12),
        parameter="cross_slot",
        target_name="C_tank",
    )

    return FirstOrderGeometry(
        period=a,
        hat_length=hat_length,
        jc_slot=jc_slot,
        cross_slot=cross_slot,
        jc_gap=jc_gap,
        thickness=sub.thickness,
        eps_r=sub.eps_r,
        tan_delta=sub.tan_delta,
    )


def _attainable(target, low, high, *, parameter, target_name):
    """``target``, checked to lie in [low, high], the range that ``parameter`` attains."""
    if not (low <= target <= high):
        raise UnattainableDimensionError(
            f"{target_name}={target:.4e} is outside the attainable range "
            f"[{low:.4e}, {high:.4e}] for dimension {parameter!r}",
            parameter=parameter,
            attainable=(low, high),
        )
    return target


def _bisect_decreasing(func, target, lo, hi, *, parameter, target_name):
    """Bisection for a strictly decreasing function, halving until ``lo``
    and ``hi`` are adjacent floats; returns the midpoint, which rounds onto
    one of them."""
    _attainable(target, func(hi), func(lo), parameter=parameter, target_name=target_name)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if func(mid) >= target:
            lo = mid
        else:
            hi = mid
    return mid


@dataclass(frozen=True)
class FitResult:
    """Outcome of a circuit fit: parameter values (SI), the RMS residual,
    accepted-iteration count, and the residual trace.  ``f_null`` is the
    data's null frequency in Hz where the fit was anchored at it, else
    None."""

    template: str
    params: dict
    rms_residual: float
    iterations: int
    trace: tuple
    f_null: float | None = None


def fit_circuit(
    data: ResponseTable,
    template: str,
    initial: dict,
    sub: Substrate,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
    magnitude_only: bool = False,
    max_iter: int = FIT_MAX_ITER,
    smooth_hz: float | None = None,
) -> FitResult:
    """Least-squares fit of circuit values to measured/simulated S21.

    Model and data are compared through one observation map: S21, moving
    averaged when ``smooth_hz`` is given, then |S21| (``magnitude_only``,
    the root of the |S21|^2 that ``band_report`` reads) or its real parts
    followed by its imaginary parts.  The fit minimizes
    the sum of squares of the observed model minus the observed data over
    log-parameterized element values, and the rms residual divides that
    sum by the number of frequencies.  Marquardt's damping
    lambda*diag(J^T J) alone sizes each step.  A trial that leaves the
    domain, overflows the network or has an element over- or underflow
    (to 0.0, which would omit it) is refused and damped further, so every
    iterate stays strictly positive and the residual never rises across
    accepted steps.  Deterministic for identical inputs, with the same bits
    on every CPU: the element values come from ``math`` and the damped
    normal equations are formed and solved without BLAS or LAPACK.

    Responses with deep transmission zeros make the landscape
    multi-modal, so a first-order fit is anchored at the data's null.  The
    series branch shorts the sheet at 1/(2 pi sqrt(L_series C_series)),
    whatever the line, the loss, the angle and the parasitic, so the data
    show that product directly.  A null is the deepest |S21| sample when it
    lies at least ``NULL_DEPTH_DB`` (20 dB) under the median |S21| and is
    neither the first nor the last sample; ``f_null`` is its frequency
    refined on the dB curve by the parabola through it and its neighbours,
    as ``band_report`` refines its null: q = 1/(2 pi f_null)^2.  The anchor
    is one trial step, to the start with C_series = q / L_series, under
    the loop's own rule: it is taken only if it evaluates and lowers the
    residual, and then it counts as one accepted iteration.  The loop then
    runs over log L_series, L_tank, C_tank and L_parasitic with C_series =
    q / L_series, and last over all five elements.  The null is read from
    |S21| of the raw data, with or without ``magnitude_only`` or
    ``smooth_hz``: a moving average across the null fills it and moves it
    (on demo 06's data the averaged null lies 3.9e-4 from the true zero,
    the raw one 7.1e-5).  Every other fit,
    second order, data without a null, ``max_iter = 0`` or an anchor that
    does not lower the residual, runs the free loop alone from the start.
    Second-order fits stay local refiners: starts more than roughly 10-15%
    from the answer can settle in a wrong basin.  Seed them from the
    extraction chain (or any bench estimate of comparable quality).

    ``smooth_hz`` is a window in Hz for the moving average of
    ``smooth_response``, applied alike to the data and to every model
    trace, to the complex S21 before any magnitude is taken, so it averages
    noise without biasing the answer.  Each start value is checked against
    its element's range as ``initial <name>``.  Data whose S21 is not
    finite are refused as invalid-parameter, naming the first such
    frequency, before any model is evaluated; so are smoothed data whose
    running sum overflows, and data whose residual's sum of squares
    overflows at the start.

    ``max_iter``, an integer of at least 0 (numpy's too), caps the accepted
    steps of all stages together, the anchor included; ``iterations``
    counts them, and ``trace`` holds the start's rms and then each accepted
    step's, stage after stage.  ``max_iter = 0`` returns the initial guess
    unchanged, with the residual evaluated at exactly those values;
    exhausting a positive cap without meeting the convergence tests raises
    DivergedFitError carrying the best parameters and the residual trace.
    The line terms, fixed by the substrate, incidence, loss and grid, are
    formed once per fit; each evaluation forms only the nodes, block by
    block as ``stack_response`` does.
    """
    check_type("data", data, ResponseTable)
    if not isinstance(template, str) or template not in TEMPLATES:
        raise InvalidParameterError(
            f"template must be 'first_order' or 'second_order', got {template!r}"
        )
    check_flag("magnitude_only", magnitude_only)
    names = TEMPLATES[template]
    check_type("initial guess", initial, Mapping)
    missing = [n for n in names if n not in initial]
    if missing:
        raise InvalidParameterError(f"initial guess is missing {missing}")
    check_elements({n: initial[n] for n in names}, prefix="initial ")
    x0 = np.array([float(initial[n]) for n in names])
    check("max_iter", "max_iter", max_iter)

    freqs = data.frequency
    bad = np.flatnonzero(~np.isfinite(data.s21))
    if bad.size:
        k = bad[0]
        raise InvalidParameterError(f"S21 must be finite, got {data.s21[k]} at {freqs[k]} Hz")
    average = None if smooth_hz is None else _moving_average(freqs, smooth_hz)

    def observed(s21):
        """S21 as the fit compares it: averaged if asked, then |S21| or (Re, Im)."""
        if average is not None:
            s21 = average(s21)
        if magnitude_only:
            return np.sqrt(_power(s21))
        return np.concatenate([s21.real, s21.imag])

    target = observed(data.s21)
    port = port_impedance(inc)
    check_flag("dielectric_loss", dielectric_loss)
    check_type("substrate", sub, Substrate)
    subs = (sub,) if template == "first_order" else (sub, sub)
    lines = _line_terms(subs, inc, dielectric_loss, freqs)
    w = 2.0 * math.pi * freqs

    def model_residual(values):
        """Residual vector at the element values; raises FssError where they
        leave the domain or the network overflows."""
        out = np.empty((2, freqs.size), dtype=complex)
        _blocked_response(out, port, freqs, lambda block: _template_terms(
            template, values, w[block], [tuple(t[block] for t in line) for line in lines]))
        return observed(out[1]) - target

    def evaluated(values):
        """``values`` and their residual, or None where they leave the
        domain or overflow the network."""
        try:
            return values, model_residual(values)
        except FssError:
            return None

    def from_logs(theta, q=None):
        """Element values at log-values ``theta`` and their residual, or
        None.  With an anchor ``q``, ``theta`` omits C_series, which is
        q / L_series."""
        try:  # an element that over- or underflows leaves the domain
            values = [math.exp(t) for t in theta]
            if q is not None:
                values.insert(1, q / values[0])
        except (OverflowError, ZeroDivisionError):
            return None
        return evaluated(np.array(values))

    # the accepted values travel with their residual.  A start that cannot
    # be evaluated is refused with the error that names why.
    point = x0, model_residual(x0)
    cost = _cost(point[1])
    if cost == math.inf:
        raise InvalidParameterError("the residual's sum of squares at the start overflows")
    trace = [math.sqrt(cost / freqs.size)]
    theta = np.array([math.log(v) for v in x0])
    f_null = None
    if template == "first_order" and max_iter > 0:
        f_null = _null_frequency(freqs, data.s21)
    if f_null is not None:
        q = 1.0 / (2.0 * math.pi * f_null) ** 2  # L_series * C_series at the null
        # L_series and C_series lead the first-order parameter vector
        anchored = evaluated(np.array([x0[0], q / x0[0], *x0[2:]]))
        if anchored is not None and _cost(anchored[1]) < cost:
            point, stage, _ = _damped_least_squares(
                lambda t: from_logs(t, q), np.delete(theta, 1), anchored, freqs.size, max_iter - 1
            )
            trace += stage
            theta = np.array([math.log(v) for v in point[0]])
        else:
            f_null = None
    point, stage, converged = _damped_least_squares(
        from_logs, theta, point, freqs.size, max_iter - (len(trace) - 1)
    )
    trace += stage[1:]
    params = dict(zip(names, point[0]))
    if not converged and max_iter > 0:
        raise DivergedFitError(
            f"fit did not converge within {max_iter} iterations "
            f"(rms residual {trace[-1]:.3e})",
            best=params,
            trace=tuple(trace),
        )
    return FitResult(template, params, trace[-1], len(trace) - 1, tuple(trace), f_null)


def _null_frequency(f, s21):
    """The frequency of the deepest |S21| sample, refined by
    ``_refine_quadratic`` as ``band_report`` refines its null, or None
    unless that sample lies ``NULL_DEPTH_DB`` under the median |S21| and
    strictly inside the span.  Both read |S21|^2 through ``_power``."""
    power = _power(s21)
    j = int(np.argmin(power))
    if not (0 < j < power.size - 1
            and power[j] <= _median(power) / 10.0 ** (NULL_DEPTH_DB / 10.0)):
        return None
    return _refine_quadratic(f, power, j)[0]


def _median(x):
    """``np.median`` of a 1-D array without NaN, with its bits: the middle
    sample, or (a + b) / 2 of the middle two, as its mean forms them.
    ``np.median`` itself imports ``numpy.ma`` at its first call."""
    k = x.size // 2
    if x.size % 2:
        return np.partition(x, k)[k]
    a, b = np.partition(x, (k - 1, k))[k - 1 : k + 1]
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        return (a + b) / 2.0


def _cost(r):
    """The sum of squares of the residual vector ``r``, inf if it overflows."""
    with np.errstate(over="ignore"):
        return float(np.sum(r * r))


def _damped_least_squares(evaluate, theta, point, n, max_iter):
    """Marquardt's damped least squares over log-values ``theta``, from
    ``point``: the element values there and their residual vector.  At most
    ``max_iter`` steps are accepted.  ``evaluate(theta)`` returns such a
    point, or None where it refuses the values.

    Each Jacobian column is a forward difference, or a backward one where
    the forward point is refused.  The damping lambda*diag(J^T J) alone
    sizes each step.  A trial is accepted only where it evaluates and
    lowers the sum of squares; otherwise the damping grows tenfold, and
    where no damping up to 1e15 finds such a step the point is stationary.

    Returns the last accepted point, the rms residual (the root of the sum
    of squares over ``n``) of the start and of each accepted step, and
    whether a stopping test, rather than the cap, ended the loop.
    """
    r = point[1]
    cost = _cost(r)
    trace = [math.sqrt(cost / n)]
    lam = 1e-2
    fd_step = 1e-6   # in log space = relative step on element values
    for _ in range(max_iter):
        jac = np.empty((theta.size, r.size))  # one row per parameter
        for k, bump in enumerate(np.eye(theta.size) * fd_step):
            bumped = evaluate(theta + bump)
            if bumped is None:  # the forward point is refused: difference backward
                bump = -bump
                bumped = evaluate(theta + bump)
            jac[k] = (bumped[1] - r) / bump[k]
        grad = (jac * r).sum(axis=1)
        hess = (jac[:, None] * jac).sum(axis=2)
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        while lam <= 1e15:
            step = _solve(hess + lam * np.diag(diag), -grad)
            trial = evaluate(theta + step)  # refuses a non-finite step
            if trial is not None:
                cost_new = _cost(trial[1])
                if cost_new < cost:
                    break
            lam *= 10.0
        else:
            return point, trace, True  # no improving step at any damping
        theta = theta + step
        point, r, cost = trial, trial[1], cost_new
        lam = max(lam / 10.0, 1e-12)
        trace.append(math.sqrt(cost / n))
        # Converged: negligible relative progress, negligible step, or an
        # rms at the numerical floor of unit-scale S-parameters.
        if (trace[-2] - trace[-1] <= 1e-10 * max(trace[-2], 1e-300)
                or np.max(np.abs(step)) < 1e-13 or trace[-1] < 1e-10):
            return point, trace, True
    return point, trace, False


def _solve(a, b):
    """The solution of ``a x = b`` for a symmetric positive definite ``a``:
    Gaussian elimination without pivoting, in element-wise numpy rather than
    LAPACK, so the same bits on every CPU.  All NaN where a pivot is not
    positive, as for a matrix that is singular or not positive definite."""
    n = b.size
    ab = np.column_stack([a, b])
    for k in range(n):
        if not ab[k, k] > 0.0:
            return np.full(n, np.nan)
        ab[k + 1:] -= ab[k + 1:, k:k + 1] / ab[k, k] * ab[k]
    x = np.zeros(n)
    for k in reversed(range(n)):
        x[k] = (ab[k, n] - np.sum(ab[k, k + 1:n] * x[k + 1:])) / ab[k, k]
    return x


def _build_template(template, params, sub, inc, dielectric_loss):
    """The stack of a fit template from its element values (SI) by name."""
    if template == "first_order":
        return build_first_order(ExtractedCircuit(**params), sub, inc, dielectric_loss)
    l_a, c_a, l_b, c_b, l_tank, c_tank = (params[n] for n in SECOND_ORDER_PARAMS)
    outer = (SeriesLC(l_a, c_a), SeriesLC(l_b, c_b))
    return build_second_order(outer, Tank(l_tank, c_tank), sub, inc, dielectric_loss)


def _template_terms(template, values, w, lines):
    """``_build_template``'s stack as ``_chain`` terms at element values
    ``values`` over angular frequencies ``w``: ``lines`` and the nodes that
    ``_susceptance_array`` forms.  A value out of range, 0.0 too, is refused."""
    check_elements(dict(zip(TEMPLATES[template], values)))
    series, tank = _LEAVES[SeriesLC], _LEAVES[Tank]
    if template == "first_order":
        l_s, c_s, l_t, c_t, l_p = values
        return [tank(w, l_t, c_t), lines[0], _LEAVES[Inductor](w, l_p) + series(w, l_s, c_s)]
    l_a, c_a, l_b, c_b, l_t, c_t = values
    outer = series(w, l_a, c_a) + series(w, l_b, c_b)
    return [outer, lines[0], tank(w, l_t, c_t), lines[1], outer]
