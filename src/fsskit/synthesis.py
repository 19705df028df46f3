"""Inverse design: band targets to circuit values, circuit values to unit-cell
dimensions, and least-squares fitting of circuit values to response data.

The target inversion is exact (the three resonance relations solve in
closed form once the tank inductance is chosen); the dimension inversion
is closed-form except for the cross slot; the fitter is a damped least-squares
loop over log-parameterized element values whose damping alone sizes each
step; refusing trials that over- or underflow keeps every iterate strictly
positive and the accepted-step residual monotone non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import EPS0
from .domain import check
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
from .lumped import SeriesLC, Tank
from .analysis import ResponseTable, _moving_average
from .topology import (
    Incidence,
    Substrate,
    build_first_order,
    build_second_order,
    stack_response,
)

#: Default tank inductance for target inversion; sets the impedance level /
#: bandwidth split when the caller does not choose one.
DEFAULT_TANK_L = 4e-9

FIT_MAX_ITER = 200  # default cap on accepted fitter iterations

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
            check("frequency", name, getattr(self, name))
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
    """
    check("length", "period", period)
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
    accepted-iteration count, and the residual trace."""

    template: str
    params: dict
    rms_residual: float
    iterations: int
    trace: tuple


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

    Minimizes sum |S21_model - S21_data|^2 (or the magnitude-difference
    analog) over log-parameterized element values.  Marquardt's damping
    lambda*diag(J^T J) alone sizes each step.  A trial that leaves the
    domain, overflows the network or has an element over- or underflow
    (to 0.0, which would omit it) is refused and damped further, so every
    iterate stays strictly positive and the residual never rises across
    accepted steps.  Deterministic for identical inputs.

    This is a local refiner: responses with deep transmission zeros make
    the landscape multi-modal, and starts more than roughly 10-15% from
    the answer can settle in a wrong basin.  Seed it from the extraction
    chain (or any bench estimate of comparable quality).

    With ``smooth_hz`` (a window in Hz) the smoothed model is fitted to the
    smoothed data: the moving average of ``smooth_response`` is applied to
    the data and to every model trace, to the complex S21 before any
    magnitude is taken.  The window then averages noise without biasing
    the answer, and the rms residual compares the two smoothed traces.

    ``max_iter = 0`` returns the initial guess unchanged, with the residual
    evaluated at exactly those values;
    exhausting the cap without meeting the convergence tests raises
    DivergedFitError carrying the best parameters and the residual trace.
    """
    if not isinstance(template, str) or template not in TEMPLATES:
        raise InvalidParameterError(
            f"template must be 'first_order' or 'second_order', got {template!r}"
        )
    names = TEMPLATES[template]
    missing = [n for n in names if n not in initial]
    if missing:
        raise InvalidParameterError(f"initial guess is missing {missing}")
    x0 = np.array([float(initial[n]) for n in names])
    if np.any(x0 <= 0.0):
        raise InvalidParameterError("all initial circuit values must be positive")
    if max_iter < 0:
        raise InvalidParameterError(f"max_iter must be >= 0, got {max_iter}")

    freqs = data.frequency
    n_freq = freqs.size
    s21_data = data.s21
    average = None
    if smooth_hz is not None:
        average = _moving_average(freqs, smooth_hz)
        s21_data = average(s21_data)
    mag_data = np.abs(s21_data)

    def model_residual(values):
        """Residual vector at the element values; raises FssError where they
        leave the domain or the network overflows."""
        stack = _build_template(template, dict(zip(names, values)), sub, inc, dielectric_loss)
        _, s21 = stack_response(stack, freqs)
        if average is not None:
            s21 = average(s21)
        if magnitude_only:
            return np.abs(s21) - mag_data
        diff = s21 - s21_data
        return np.concatenate([diff.real, diff.imag])

    def residual(theta):
        """The residual at log-values ``theta``, or None for a refused trial."""
        with np.errstate(over="ignore"):  # an infinite element leaves the domain
            values = np.exp(theta)
        if not values.all():  # 0.0 would omit an element, not make it small
            return None
        try:
            return model_residual(values)
        except FssError:
            return None

    theta = np.log(x0)
    # the residual of the values returned: x0 itself when no step is taken.
    # A start that cannot be evaluated is refused with the error that names why.
    r = model_residual(x0 if max_iter == 0 else np.exp(theta))
    cost = float(np.dot(r, r))
    trace = [math.sqrt(cost / n_freq)]

    if max_iter == 0:
        return FitResult(template, dict(zip(names, x0)), trace[0], 0, tuple(trace))

    lam = 1e-2
    fd_step = 1e-6   # in log space = relative step on element values
    for _ in range(max_iter):
        jac = np.empty((r.size, theta.size))
        for k, bump in enumerate(np.eye(theta.size) * fd_step):
            r_bumped = residual(theta + bump)
            if r_bumped is None:  # the forward point is refused: difference backward
                bump = -bump
                r_bumped = residual(theta + bump)
            jac[:, k] = (r_bumped - r) / bump[k]
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        while lam <= 1e15:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = np.full_like(grad, np.nan)
            r_new = residual(theta + step)  # refuses a non-finite step
            if r_new is not None:
                cost_new = float(np.dot(r_new, r_new))
                if cost_new < cost:
                    break
            lam *= 10.0
        else:
            break  # no improving step at any damping: stationary point
        theta = theta + step
        r, cost = r_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        trace.append(math.sqrt(cost / n_freq))
        # Converged: negligible relative progress, negligible step, or an
        # rms at the numerical floor of unit-scale S-parameters.
        if trace[-2] - trace[-1] <= 1e-10 * max(trace[-2], 1e-300):
            break
        if np.max(np.abs(step)) < 1e-13 or trace[-1] < 1e-10:
            break
    else:
        raise DivergedFitError(
            f"fit did not converge within {max_iter} iterations "
            f"(rms residual {trace[-1]:.3e})",
            best=dict(zip(names, np.exp(theta))),
            trace=tuple(trace),
        )
    params = dict(zip(names, np.exp(theta)))
    return FitResult(template, params, trace[-1], len(trace) - 1, tuple(trace))


def _build_template(template, params, sub, inc, dielectric_loss):
    """The stack of a fit template from its element values (SI) by name."""
    if template == "first_order":
        return build_first_order(ExtractedCircuit(**params), sub, inc, dielectric_loss)
    outer = (
        SeriesLC(params["L_outer_a"], params["C_outer_a"]),
        SeriesLC(params["L_outer_b"], params["C_outer_b"]),
    )
    middle = Tank(params["L_tank"], params["C_tank"])
    return build_second_order(outer, middle, sub, inc, dielectric_loss)
