"""Inverse design: band targets to circuit values, circuit values to unit-cell
dimensions, and least-squares fitting of circuit values to response data.

The target inversion is exact (the three resonance relations solve in
closed form once the tank inductance is chosen); the dimension inversion
bisects the monotone grid formulas; the fitter is a damped least-squares
loop over log-parameterized element values, which keeps every iterate
strictly positive and the accepted-step residual monotone non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import EPS0
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
    effective_permittivity,
    extract_circuit,
)
from .lumped import SeriesLC, Tank
from .analysis import ResponseTable
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

BISECT_TOL_M = 1e-12
BISECT_MAX_ITER = 60

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
    """Dual-band design goals.  The transmission zero defaults to the
    geometric mean of the two band centers; the tank inductance is the free
    knob of the underdetermined inversion."""

    f_lower: float
    f_upper: float
    f_zero: float | None = None
    L_tank: float = DEFAULT_TANK_L

    def __post_init__(self):
        if not 0.0 < self.f_lower < self.f_upper:
            raise InvalidParameterError(
                f"need 0 < f_lower < f_upper, got {self.f_lower}, {self.f_upper}"
            )
        if not self.L_tank > 0.0:
            raise InvalidParameterError(f"L_tank must be positive, got {self.L_tank}")
        if self.f_zero is not None and not self.f_lower < self.f_zero < self.f_upper:
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
    f_zero = t.f_zero if t.f_zero is not None else math.sqrt(t.f_lower * t.f_upper)
    if not t.f_lower < f_zero < t.f_upper:
        raise InfeasibleTargetsError(
            f"transmission zero {f_zero} outside attainable range "
            f"({t.f_lower}, {t.f_upper}) for L_tank={t.L_tank}",
            attainable=(t.f_lower, t.f_upper),
        )
    c_tank = 1.0 / ((2.0 * math.pi * t.f_upper) ** 2 * t.L_tank)
    q_zero = 1.0 / (2.0 * math.pi * f_zero) ** 2    # L_series * C_series
    q_lower = 1.0 / (2.0 * math.pi * t.f_lower) ** 2  # (L_tank + L_series) * C_series
    l_series = t.L_tank * q_zero / (q_lower - q_zero)
    c_series = q_zero / l_series
    return ExtractedCircuit(l_series, c_series, t.L_tank, c_tank, 0.0)


def geometry_from_circuit(
    c: ExtractedCircuit,
    period: float,
    sub: Substrate,
    mu_reff: float = 1.0,
) -> FirstOrderGeometry:
    """Invert the grid formulas for a chosen lattice period.

    Slot and gap widths come from bisection on the monotone inductance
    formulas, the hat length is linear in C_series, and the cross slot
    bisects the decreasing branch of its capacitance formula.  The result
    is verified by re-extraction to 1e-6 relative.
    """
    if not period > 0.0:
        raise InvalidParameterError(f"period must be positive, got {period}")
    a = period
    er_eff = effective_permittivity(sub.eps_r)

    jc_slot = _bisect_decreasing(
        lambda s: _strip_inductance(a, mu_reff, s),
        c.L_series,
        a * 1e-9,
        a * (1.0 - 1e-9),
        parameter="jc_slot",
        target_name="L_series",
    )
    jc_gap = _bisect_decreasing(
        lambda g: _strip_inductance(a, mu_reff, g),
        c.L_tank,
        a * 1e-9,
        a * (1.0 - 1e-9),
        parameter="jc_gap",
        target_name="L_tank",
    )
    gap_factor = 2.0 * EPS0 * er_eff * _ln_csc(math.pi * jc_gap / (2.0 * a))
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

    geom = FirstOrderGeometry(
        period=a,
        hat_length=hat_length,
        jc_slot=jc_slot,
        cross_slot=cross_slot,
        jc_gap=jc_gap,
        thickness=sub.thickness,
        eps_r=sub.eps_r,
        tan_delta=sub.tan_delta,
        mu_reff=mu_reff,
    )
    check = extract_circuit(geom)
    for name in ("L_series", "C_series", "L_tank", "C_tank"):
        want, got = getattr(c, name), getattr(check, name)
        if abs(got - want) > 1e-6 * abs(want):
            raise UnattainableDimensionError(
                f"re-extraction of {name} missed the target by "
                f"{abs(got - want) / abs(want):.2e} relative",
                parameter=name,
            )
    return geom


def _bisect_decreasing(func, target, lo, hi, *, parameter, target_name):
    """Bisection for a strictly decreasing function; converges to
    BISECT_TOL_M within BISECT_MAX_ITER halvings."""
    f_lo = func(lo)
    f_hi = func(hi)
    if not (f_hi <= target <= f_lo):
        raise UnattainableDimensionError(
            f"{target_name}={target:.4e} is outside the attainable range "
            f"[{f_hi:.4e}, {f_lo:.4e}] for dimension {parameter!r}",
            parameter=parameter,
            attainable=(f_hi, f_lo),
        )
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if func(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_TOL_M:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a circuit fit: parameter values (SI), the weighted RMS
    residual, accepted-iteration count, and the residual trace."""

    template: str
    params: dict
    rms_residual: float
    iterations: int
    trace: tuple

    def circuit(self) -> ExtractedCircuit:
        if self.template != "first_order":
            raise InvalidParameterError("circuit() is only defined for first_order fits")
        return ExtractedCircuit(**self.params)


def fit_circuit(
    data: ResponseTable,
    template: str,
    initial: dict,
    sub: Substrate,
    inc: Incidence = Incidence(),
    dielectric_loss: bool = False,
    weights=None,
    magnitude_only: bool = False,
    max_iter: int = 200,
) -> FitResult:
    """Least-squares fit of circuit values to measured/simulated S21.

    Minimizes sum |S21_model - S21_data|^2 (or the magnitude-difference
    analog) over log-parameterized element values, so every iterate stays
    strictly positive and the residual is monotone non-increasing across
    accepted steps.  Deterministic for identical inputs.

    This is a local refiner: responses with deep transmission zeros make
    the landscape multi-modal, and starts more than roughly 10-15% from
    the answer can settle in a wrong basin.  Seed it from the extraction
    chain (or any bench estimate of comparable quality).

    ``max_iter = 0`` returns the initial guess with its residual;
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
    if weights is None:
        w_arr = np.ones(n_freq)
    else:
        w_arr = np.asarray(weights, dtype=float)
        if w_arr.shape != freqs.shape:
            raise InvalidParameterError("weights must match the data length")

    s21_data = data.s21
    mag_data = np.abs(s21_data)

    def residual(theta):
        """Weighted residual vector, or None if the trial point is not
        evaluable (overflowed element values); callers treat None as a
        rejected step."""
        values = np.exp(theta)
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            return None
        try:
            stack = _build_template(template, dict(zip(names, values)), sub, inc, dielectric_loss)
            _, s21 = stack_response(stack, freqs)
        except FssError:
            return None
        if magnitude_only:
            return (np.abs(s21) - mag_data) * w_arr
        diff = (s21 - s21_data) * w_arr
        return np.concatenate([diff.real, diff.imag])

    def rms_of(r):
        return math.sqrt(float(np.dot(r, r)) / n_freq)

    theta = np.log(x0)
    r = residual(theta)
    if r is None:
        raise InvalidParameterError("initial circuit values are not evaluable")
    cost = float(np.dot(r, r))
    trace = [rms_of(r)]

    if max_iter == 0:
        return FitResult(template, dict(zip(names, x0)), trace[0], 0, tuple(trace))

    lam = 1e-2
    fd_step = 1e-6   # in log space = relative step on element values
    max_step = 0.7   # trust bound per iteration, log space
    converged = False
    iterations = 0
    for _ in range(max_iter):
        jac = np.empty((r.size, theta.size))
        for k in range(theta.size):
            bumped = theta.copy()
            bumped[k] += fd_step
            r_bumped = residual(bumped)
            if r_bumped is None:
                bumped[k] -= 2.0 * fd_step
                r_bumped = residual(bumped)
                jac[:, k] = (r - r_bumped) / fd_step
            else:
                jac[:, k] = (r_bumped - r) / fd_step
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        for _ in range(70):
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                biggest = np.max(np.abs(step))
                if biggest > max_step:
                    step = step * (max_step / biggest)
                r_new = residual(theta + step)
                if r_new is not None:
                    cost_new = float(np.dot(r_new, r_new))
                    if cost_new < cost:
                        accepted = True
                        break
            lam *= 10.0
            if lam > 1e15:
                break
        if not accepted:
            converged = True  # no improving step at any damping: stationary point
            break
        theta = theta + step
        r, cost = r_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        iterations += 1
        trace.append(rms_of(r))
        # Converged: negligible relative progress, negligible step, or an
        # rms at the numerical floor of unit-scale S-parameters.
        if trace[-2] - trace[-1] <= 1e-10 * max(trace[-2], 1e-300):
            converged = True
            break
        if np.max(np.abs(step)) < 1e-13 or trace[-1] < 1e-10:
            converged = True
            break

    values = np.exp(theta)
    params = dict(zip(names, values))
    if not converged and iterations >= max_iter:
        raise DivergedFitError(
            f"fit did not converge within {max_iter} iterations "
            f"(rms residual {trace[-1]:.3e})",
            best=params,
            trace=tuple(trace),
        )
    return FitResult(template, params, trace[-1], iterations, tuple(trace))


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
