import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from fsskit import (
    OPEN,
    HybridCircuit,
    Inductor,
    Parallel,
    SeriesLC,
    Tank,
    branch_impedance,
    foster_transform,
    hybrid_impedance,
)
from fsskit.domain import RANGES
from fsskit.errors import DegenerateTransformError, FssError, InvalidParameterError

# At this frequency 2*pi*f rounds to exactly 2**13 rad/s, so a tank of U
# henry and U farad, U = 2**-13, is exactly open and a series branch of U
# henry and U farad exactly short.
F_UNIT = 2.0**13 / (2.0 * math.pi)
U = 2.0**-13


@pytest.mark.parametrize("kind", [SeriesLC, Tank])
def test_lc_kinds_keep_their_dataclass_behaviour(kind):
    # both kinds share one field list, check and resonance; each keeps its
    # own name in repr, equality, hashing, fields and replace
    b = kind(4.9e-9, 0.5e-12)
    assert repr(b) == f"{kind.__name__}(L=4.9e-09, C=5e-13)"
    assert b == kind(4.9e-9, 0.5e-12) and b != kind(4.9e-9, 0.6e-12)
    assert hash(b) == hash((4.9e-9, 0.5e-12))
    assert [(f.name, f.type) for f in fields(b)] == [("L", "float"), ("C", "float")]
    changed = replace(b, C=0.6e-12)
    assert type(changed) is kind and changed == kind(4.9e-9, 0.6e-12)
    assert b.resonance() == 1.0 / (2.0 * math.pi * math.sqrt(4.9e-9 * 0.5e-12))
    with pytest.raises(AttributeError):
        b.L = 1e-9
    with pytest.raises(InvalidParameterError, match="^C must lie in"):
        kind(4.9e-9, 0.0)
    with pytest.raises(InvalidParameterError, match="^C must lie in"):
        replace(b, C=-1.0)


def test_a_series_branch_never_equals_a_tank():
    series, tank = SeriesLC(4.9e-9, 0.5e-12), Tank(4.9e-9, 0.5e-12)
    assert series != tank and tank != series
    assert len({series, tank}) == 2
    assert series.resonance() == tank.resonance()


def test_series_lc_short_at_resonance():
    b = SeriesLC(4.9e-9, 0.5e-12)
    z = branch_impedance(b, b.resonance())
    assert abs(z) < 1e-6  # essentially zero against ~100 ohm reactance scale


def test_series_lc_exact_short_handled():
    z = branch_impedance(SeriesLC(U, U), F_UNIT)
    assert z == 0j


def test_series_lc_off_resonance_reactance():
    b = SeriesLC(4.9e-9, 0.5e-12)
    f = 1e9
    w = 2 * math.pi * f
    assert branch_impedance(b, f) == pytest.approx(1j * (w * 4.9e-9 - 1 / (w * 0.5e-12)))


def test_inductor_impedance():
    z = branch_impedance(Inductor(0.8e-9), 1e9)
    assert z == pytest.approx(5.0265482j, rel=1e-7)


def test_tank_open_at_exact_resonance():
    assert branch_impedance(Tank(U, U), F_UNIT) is OPEN


def test_parallel_with_open_branch_is_identity():
    lone = SeriesLC(2.0 * U, 3.0 * U)
    combo = Parallel((lone, Tank(U, U)))
    assert branch_impedance(combo, F_UNIT) == branch_impedance(lone, F_UNIT)


def test_parallel_with_short_branch_is_short():
    combo = Parallel((Tank(2.0 * U, 3.0 * U), SeriesLC(U, U)))
    assert branch_impedance(combo, F_UNIT) == 0j


def test_parallel_permutation_invariance(rng):
    branches = [
        SeriesLC(4.9e-9, 0.5e-12),
        Inductor(0.8e-9),
        Tank(4e-9, 0.35e-12),
    ]
    f = 2.2e9
    base = branch_impedance(Parallel(tuple(branches)), f)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        z = branch_impedance(Parallel(tuple(branches[i] for i in perm)), f)
        assert z == pytest.approx(base, rel=1e-14)


def test_branch_validation():
    with pytest.raises(InvalidParameterError):
        SeriesLC(0.0, 1e-12)
    with pytest.raises(InvalidParameterError):
        Tank(1e-9, -1e-12)
    with pytest.raises(InvalidParameterError):
        Inductor(-1e-9)
    with pytest.raises(InvalidParameterError):
        Parallel(())
    with pytest.raises(InvalidParameterError, match="not a lumped branch: 'L'"):
        Parallel((Tank(1e-9, 1e-12), "L"))
    with pytest.raises(InvalidParameterError):
        branch_impedance(SeriesLC(1e-9, 1e-12), 0.0)
    with pytest.raises(InvalidParameterError, match="not a lumped branch: 1e-09"):
        branch_impedance(1e-9, 1e9)


def test_zero_inductance_is_a_short_at_every_frequency():
    for f in (F_UNIT, 1e9):
        assert branch_impedance(Inductor(0.0), f) == 0j


def test_open_marker_repr():
    assert repr(OPEN) == "OPEN"


def test_foster_transform_boundary_identities():
    l1, c1, l2, c2 = 4.9e-9, 0.5e-12, 2e-9, 1e-12
    h = foster_transform(l1, c1, l2, c2)
    assert h.C_series == pytest.approx(c1 + c2)
    assert h.C_series == pytest.approx(1.5e-12)
    assert h.L_series == pytest.approx(l1 * l2 / (l1 + l2))
    assert h.L_series == pytest.approx(1.42029e-9, rel=1e-5)
    wp = 1.0 / math.sqrt(h.L_tank * h.C_tank)
    wp_expected = math.sqrt((c1 + c2) / (c1 * c2 * (l1 + l2)))
    assert wp == pytest.approx(wp_expected, rel=1e-12)


def test_foster_transform_impedance_equality_oracle():
    # the second pair's resonances lie 1e-5 apart: its hybrid's L_tank of
    # 2.9e-20 H lies below the inductance range, which only inputs obey
    l1, c1, l2 = 4.9e-9, 0.5e-12, 2e-9
    for c2 in (1e-12, l1 * c1 * (1 + 1e-5) / l2):
        h = foster_transform(l1, c1, l2, c2)
        f1 = SeriesLC(l1, c1).resonance()
        f2 = SeriesLC(l2, c2).resonance()
        fp = math.sqrt((c1 + c2) / (c1 * c2 * (l1 + l2))) / (2 * math.pi)
        freqs = np.geomspace(0.1 * min(f1, f2), 10 * max(f1, f2), 200)
        special = np.array([f1, f2, fp])
        keep = np.all(
            np.abs(freqs[:, None] - special[None, :]) > 1e-3 * special[None, :], axis=1
        )
        worst = 0.0
        for f in freqs[keep]:
            za = branch_impedance(SeriesLC(l1, c1), f)
            zb = branch_impedance(SeriesLC(l2, c2), f)
            z_par = za * zb / (za + zb)
            z_hyb = hybrid_impedance(h, f)
            worst = max(worst, abs(z_hyb - z_par) / abs(z_par))
        assert worst < 1e-9


def test_foster_transform_random_pairs(rng):
    for _ in range(200):
        l1 = 10 ** rng.uniform(-9.5, -7.5)
        c1 = 10 ** rng.uniform(-13.5, -11.5)
        ratio = 10 ** rng.uniform(0.1, 1.0)  # keep resonances apart
        l2 = 10 ** rng.uniform(-9.5, -7.5)
        c2 = 1.0 / (l2 * (ratio / math.sqrt(l1 * c1)) ** 2)
        h = foster_transform(l1, c1, l2, c2)
        f = math.sqrt(SeriesLC(l1, c1).resonance() * SeriesLC(l2, c2).resonance())
        za = branch_impedance(SeriesLC(l1, c1), f)
        zb = branch_impedance(SeriesLC(l2, c2), f)
        z_par = za * zb / (za + zb)
        assert hybrid_impedance(h, f) == pytest.approx(z_par, rel=1e-9)


def test_foster_transform_rejects_equal_resonances():
    with pytest.raises(DegenerateTransformError):
        foster_transform(4.9e-9, 0.5e-12, 4.9e-9, 0.5e-12)
    # scaled L/C with the same product also degenerates
    with pytest.raises(DegenerateTransformError):
        foster_transform(4.9e-9, 0.5e-12, 9.8e-9, 0.25e-12)


def _hybrid_ratios(L1, C1, L2, C2):
    """The hybrid elements L_tank, C_tank, L_series, C_series of two series
    L-C branches as exact integer ratios (p, q), for float or Fraction
    inputs.  With L1 = l1/u, C1 = c1/v, L2 = l2/x and C2 = c2/y the closed
    forms L_tank = d^2/((C1+C2)^2 (L1+L2)), d = L2*C2 - L1*C1,
    C_tank = C1*C2*(C1+C2)*(L1+L2)^2/d^2, L_series = L1*L2/(L1+L2) and
    C_series = C1+C2 shed most of the denominators u, v, x, y."""
    (l1, u), (c1, v), (l2, x), (c2, y) = (t.as_integer_ratio() for t in (L1, C1, L2, C2))
    d_sq = (l2 * c2 * u * v - l1 * c1 * x * y) ** 2  # (d*u*v*x*y)^2
    c_sum, l_sum = c1 * y + c2 * v, l1 * x + l2 * u  # (C1+C2)*v*y, (L1+L2)*u*x
    return ((d_sq, u * x * c_sum**2 * l_sum), (c1 * c2 * c_sum * l_sum**2, d_sq),
            (l1 * l2, l_sum), (c_sum, v * y))


def _exact_elements(L1, C1, L2, C2) -> tuple:
    """The exact hybrid elements L_tank, C_tank, L_series, C_series, each
    rounded once (int / int rounds)."""
    return tuple(p / q for p, q in _hybrid_ratios(L1, C1, L2, C2))


def _in_range(name, value) -> bool:
    lo, hi, _ = RANGES["inductance" if name[0] == "L" else "capacitance"]
    return lo <= value <= hi


def _answers_exactly_or_names_why(args) -> bool:
    """Whether foster_transform answers ``args`` (L1, C1, L2, C2).  An
    answer holds each exact element rounded once; a refusal names the first
    argument out of its range, or else the coincident resonances."""
    try:
        h = foster_transform(*args)
    except FssError as exc:
        outside = [n for n, v in zip(("L1", "C1", "L2", "C2"), args) if not _in_range(n, v)]
        reason = f"{outside[0]} must lie in " if outside else "branch resonances coincide"
        assert str(exc).startswith(reason), (args, str(exc))
        return False
    assert tuple(vars(h).values()) == _exact_elements(*args), args
    assert min(vars(h).values()) >= 2.0**-1022, args  # a normal float
    return True


def test_foster_closed_form_matches_the_parallel_branches_exactly(rng):
    # X_par = X1*X2/(X1 + X2) against X_hyb = wLs - 1/(wCs) - 1/(wCt - 1/(wLt))
    # in exact rationals: the closed form that the sweep below holds
    # foster_transform to is proved without its own algebra
    def rational():
        return Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6)))

    for _ in range(50):
        l1, c1, l2, c2 = (rational() for _ in range(4))
        if l1 * c1 == l2 * c2:
            continue
        lt, ct, ls, cs = (Fraction(p, q) for p, q in _hybrid_ratios(l1, c1, l2, c2))
        for _ in range(4):
            w = rational()
            x1, x2 = w * l1 - 1 / (w * c1), w * l2 - 1 / (w * c2)
            x_hyb = w * ls - 1 / (w * cs) - 1 / (w * ct - 1 / (w * lt))
            assert x_hyb == x1 * x2 / (x1 + x2)


def test_foster_transform_sweep_returns_exact_elements_or_refuses():
    # log-uniform elements over most of the float range, and over the
    # domain: each call returns the exact hybrid rounded once, or refuses by
    # name, and leaks no warning.  Inside the domain only coincident
    # resonances are refused.
    wide = 10.0 ** np.random.default_rng(2023).uniform(-300.0, 300.0, (10_000, 4))
    rng = np.random.default_rng(2024)
    exponents = [np.log10(RANGES[q][:2]) for q in ("inductance", "capacitance") * 2]
    inside = 10.0 ** np.column_stack([rng.uniform(lo, hi, 10_000) for lo, hi in exponents])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in wide.tolist():
            _answers_exactly_or_names_why(args)
        assert all(_answers_exactly_or_names_why(args) for args in inside.tolist())


@pytest.mark.parametrize(
    "args",
    [(1e10, 1e-165, 1e-5, 2e-150),
     (1e-9, 1e-160, 2e-9, 3e-160),
     (1.0, 1e-160, 2.0, 3e-160),
     (1.0, 1e-17, 2e-17, 1.0),
     (6.608067617430691e28, 1.2281363103860731e-26, 1.3016331937893131e-06,
      2.2198604798983137e22),
     (6.264717382399403e84, 3.799295632561313e211, 5.815818740581808e55,
      1.1441122677019981e-144),
     (1.3380133796020552e-31, 2.3104393781318365e179, 2.0411474732663285e-159,
      7.426643738133456e-109),
     (6.922337638843915e22, 3.387908790475318e-263, 1.2770561300989357e263,
      7.406697804255965e-29)],
    ids=[
        "subnormal-C1C2-failed-the-check",
        "product-underflowed-to-0",
        "product-underflowed-to-subnormal",
        "residue-rounded-to-0",
        "residue-rounded-positive",
        "tank-term-underflowed",
        "check-overflowed-in-multiply",
        "check-overflowed-in-divide",
    ],
)
def test_foster_hybrid_is_exact_where_floats_failed(args):
    # the residue arithmetic refused or broke on each of these, and the
    # check leaked numpy overflow warnings on the last two: the one inside
    # the domain is answered exactly, each other names an argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        in_domain = all(map(_in_range, ("L1", "C1", "L2", "C2"), args))
        assert _answers_exactly_or_names_why(args) == in_domain


def _refusal(*args) -> str:
    with pytest.raises(InvalidParameterError) as info:
        foster_transform(*args)
    return str(info.value)


def test_foster_transform_that_fails_its_check_is_refused():
    # its subnormal L_tank = 1.3e-316 and L_series = 1.4e-314 kept about 6
    # and 8 digits, and the hybrid missed the branches
    assert _refusal(4.9e-314, 5e292, 2e-314, 1e293) == (
        "L1 must lie in [1e-18, 1e6] H, got 4.9e-314"
    )


@pytest.mark.parametrize(
    "args,refusal",
    [((414349281630085.4, 2.1522847175857887e-199, 3.3555748620479774e-155,
       1.0257162705091919e126), "L1 must lie in [1e-18, 1e6] H, got 414349281630085.4"),
     ((3.6201564097965544e-85, 2.1948773861513635e-212, 7.05241348058467e-204,
       1.3821975586412308e144), "L1 must lie in [1e-18, 1e6] H, got 3.6201564097965544e-85")],
    ids=["82-percent-off", "0.69-percent-off"],
)
def test_foster_transform_refuses_a_subnormal_element(args, refusal):
    # their hybrids' L_tank were subnormal, 82% and 0.69% off the exact value
    assert _refusal(*args) == refusal


@pytest.mark.parametrize(
    "args,refusal",
    [((1.0, 1e297, 1.0, 1.000005e297), "C1 must lie in [1e-21, 1e3] F, got 1e+297"),
     ((4.84e-322, 5e300, 2e-322, 1e301), "L1 must lie in [1e-18, 1e6] H, got 4.84e-322")],
    ids=["overflow", "underflow"],
)
def test_foster_transform_refuses_an_element_beyond_the_float_range(args, refusal):
    # their hybrids held C_tank = inf and L_tank = 0.0
    assert _refusal(*args) == refusal


def test_foster_transform_refuses_a_check_that_compares_nothing():
    # the branch impedances overflowed at every frequency an impedance check
    # could compare, and the hybrid's L_tank = 1e-323 was subnormal
    assert _refusal(5.387776053536562e-65, 3.6445912241698935e196,
                    3.411225185245806e194, 8.929361209299575e-218) == (
        "L1 must lie in [1e-18, 1e6] H, got 5.387776053536562e-65"
    )


@pytest.mark.parametrize(
    "l1,c1,l2,c2",
    [(1.15e-109, 3.08e-186, 2.49e292, 4.07e71),  # L2*C2 = inf: np.geomspace raised
     (7.55e222, 7.0e89, 1.7e-157, 1.67e-144),  # L1*C1 = inf
     (1e-200, 1e-200, 1.0, 1.0),  # L1*C1 = 0.0, 1/(L1*C1): ZeroDivisionError
     (1.0, 1.0, 1e-160, 1e-160)],  # L2*C2 = 1e-320, w2^2 = inf: "resonances coincide"
)
def test_foster_transform_refuses_a_resonance_out_of_float_range(l1, c1, l2, c2):
    assert not _answers_exactly_or_names_why((l1, c1, l2, c2))


def test_equal_branch_parallel_limit_is_single_series_lc():
    # the degenerate case the transform rejects: two identical branches in
    # parallel equal one series L-C with L/2, 2C
    l, c = 4.9e-9, 0.5e-12
    f = 2.3e9
    za = branch_impedance(SeriesLC(l, c), f)
    z_par = za / 2.0
    assert branch_impedance(SeriesLC(l / 2, 2 * c), f) == pytest.approx(z_par)


def test_hybrid_circuit_validation():
    with pytest.raises(InvalidParameterError):
        HybridCircuit(0.0, 1e-12, 1e-9, 1e-12)


def test_series_short_forces_transmission_zero(rng):
    # a lossless series branch inside any parallel combination shorts the
    # node at its own resonance
    from fsskit import Substrate, FssStack, stack_response

    for _ in range(200):
        l = 10 ** rng.uniform(-9.5, -8.0)
        c = 10 ** rng.uniform(-13.0, -12.0)
        series = SeriesLC(l, c)
        node = Parallel((Inductor(10 ** rng.uniform(-10, -8)), series,
                         Tank(10 ** rng.uniform(-9.5, -8.5), 10 ** rng.uniform(-13, -12))))
        other = Tank(10 ** rng.uniform(-9.5, -8.5), 10 ** rng.uniform(-13, -12))
        sub = Substrate(rng.uniform(1e-4, 2e-3), rng.uniform(1.0, 12.0))
        stack = FssStack((other, sub, node))
        _, s21 = stack_response(stack, [series.resonance()])
        assert abs(s21[0]) < 1e-8


@pytest.mark.parametrize("f", [math.inf, 0.0, -1e9, math.nan])
def test_scalar_impedances_need_a_finite_positive_frequency(f):
    # at f = inf a tank gave 0j (a short) and the hybrid network nan+infj
    for impedance, network in (
        (branch_impedance, Tank(1e-9, 1e-12)),
        (branch_impedance, SeriesLC(1e-9, 1e-12)),
        (hybrid_impedance, HybridCircuit(1e-9, 1e-12, 2e-9, 1e-12)),
    ):
        with pytest.raises(InvalidParameterError) as info:
            impedance(network, f)
        assert str(info.value) == f"frequency must lie in [1e3, 1e15] Hz, got {f!r}"
