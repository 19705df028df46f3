"""Every numeric input of the public API refuses what is not a number.

A bool counts as 0 or 1, and a string, None or a complex once ended in a
bare TypeError (``Inductor(False)`` built a perfect short, ``Incidence(True)``
a 1 rad angle, ``write_touchstone(..., port_z=True)`` wrote ``R 1.000000``).
Each argument below must be refused with its documented category and the
one message form of ``fsskit.domain``: ``<name> must be a real number, got
<repr>``, or ``must be an integer`` for a count.
"""

import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from fsskit import (
    DesignTargets,
    ExtractedCircuit,
    FirstOrderGeometry,
    FssStack,
    HybridCircuit,
    Incidence,
    Inductor,
    Parallel,
    ResponseTable,
    SeriesLC,
    Substrate,
    Tank,
    band_report,
    branch_impedance,
    build_first_order,
    build_second_order,
    circuit_from_targets,
    effective_permittivity,
    exact_poles,
    extract_circuit,
    fit_circuit,
    foster_transform,
    geometry_from_circuit,
    hybrid_impedance,
    incidence_media,
    load_response,
    parametric_sweep,
    port_impedance,
    predict_resonances,
    smooth_response,
    stack_response,
    stack_response_full,
    surface_impedance,
    sweep,
    write_response_csv,
    write_touchstone,
)
from fsskit.errors import FssError, InvalidGeometryError, InvalidParameterError

NOT_NUMBERS = [True, False, np.True_, "1", None, 1j]

SUB = Substrate(0.635e-3, 10.2, 0.0023)
CIRCUIT = ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, 0.8e-9)
HYBRID = foster_transform(4.9e-9, 0.5e-12, 2.0e-9, 0.5e-12)
GEOMETRY = FirstOrderGeometry(8.5e-3, 6.8e-3, 0.3e-3, 0.2e-3, 0.5e-3, 0.635e-3, 10.2, 0.0023)
STACK = build_first_order(CIRCUIT, SUB)
DATA = sweep(STACK, 1e9, 8e9, 41)
START = asdict(CIRCUIT)
TARGETS = dict(f_lower=2.4e9, f_upper=5.8e9, f_zero=3.5e9, L_tank=4e-9)
FOSTER = dict(L1=4.9e-9, C1=0.5e-12, L2=2.0e-9, C2=0.5e-12)


def _keyword(call, valid: dict, key: str):
    return key, lambda v, _: call(**dict(valid, **{key: v}))


def _fields(cls, valid):
    return {f"{cls.__name__}.{key}": _keyword(cls, valid, key) for key in valid}


def _fit(**kwargs):
    return lambda v, _: fit_circuit(DATA, "first_order", **dict(
        dict(initial=START, sub=SUB, max_iter=0), **{k: w(v) for k, w in kwargs.items()}))


def _touchstone(v, path):
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    write_touchstone(np.array([1e9, 2e9]), z, z, z, z, path, v)


# argument: (name in the message, call of the value and a scratch file path)
CASES = {
    **_fields(SeriesLC, dict(L=4.9e-9, C=0.5e-12)),
    **_fields(Tank, dict(L=4e-9, C=0.35e-12)),
    **_fields(Inductor, dict(L=0.8e-9)),
    **_fields(ExtractedCircuit, START),
    **_fields(Substrate, dict(thickness=0.635e-3, eps_r=10.2, tan_delta=0.0023)),
    "Incidence.theta": ("incidence angle", lambda v, _: Incidence(v)),
    **_fields(FirstOrderGeometry, asdict(GEOMETRY)),
    **_fields(DesignTargets, TARGETS),
    **_fields(HybridCircuit, asdict(HYBRID)),
    **{f"foster_transform.{k}": _keyword(foster_transform, FOSTER, k) for k in FOSTER},
    "branch_impedance.f": ("frequency", lambda v, _: branch_impedance(Tank(4e-9, 0.35e-12), v)),
    "hybrid_impedance.f": ("frequency", lambda v, _: hybrid_impedance(HYBRID, v)),
    "surface_impedance.f": ("frequency", lambda v, _: surface_impedance(CIRCUIT, v)),
    "incidence_media.f": ("frequency", lambda v, _: incidence_media(Incidence(), SUB, v)),
    "effective_permittivity.eps_r": ("eps_r", lambda v, _: effective_permittivity(v)),
    "geometry_from_circuit.period": (
        "period", lambda v, _: geometry_from_circuit(CIRCUIT, v, SUB)),
    "sweep.f_start": ("f_start", lambda v, _: sweep(STACK, v, 8e9, 11)),
    "sweep.f_stop": ("f_stop", lambda v, _: sweep(STACK, 1e9, v, 11)),
    "sweep.n_points": ("n_points", lambda v, _: sweep(STACK, 1e9, 8e9, v)),
    "parametric_sweep.f_start": (
        "f_start", lambda v, _: parametric_sweep(GEOMETRY, "jc_gap", [5e-4], v, 8e9, 11)),
    "parametric_sweep.f_stop": (
        "f_stop", lambda v, _: parametric_sweep(GEOMETRY, "jc_gap", [5e-4], 1e9, v, 11)),
    "parametric_sweep.n_points": (
        "n_points", lambda v, _: parametric_sweep(GEOMETRY, "jc_gap", [5e-4], 1e9, 8e9, v)),
    "smooth_response.window_hz": ("window", lambda v, _: smooth_response(DATA, v)),
    **{f"fit_circuit.initial.{k}": (
        f"initial {k}", _fit(initial=lambda v, k=k: {**START, k: v})) for k in START},
    "fit_circuit.max_iter": ("max_iter", _fit(max_iter=lambda v: v)),
    "fit_circuit.smooth_hz": ("window", _fit(smooth_hz=lambda v: v)),
    "write_touchstone.port_z": ("port_z", _touchstone),
}
COUNTS = {"n_points", "max_iter"}
# None is a documented value of these two: no zero target, no smoothing
OPTIONAL = {"DesignTargets.f_zero", "fit_circuit.smooth_hz"}


@pytest.mark.parametrize(
    "argument, value",
    [(argument, value) for argument in sorted(CASES) for value in NOT_NUMBERS
     if not (value is None and argument in OPTIONAL)],
    ids=lambda p: p if isinstance(p, str) and p in CASES else repr(p),
)
def test_every_public_number_input_refuses_what_is_not_a_number(tmp_path, argument, value):
    name, call = CASES[argument]
    path = tmp_path / "out.s2p"
    geometry = argument.startswith("FirstOrderGeometry.")
    expected = InvalidGeometryError if geometry else InvalidParameterError
    noun = "an integer" if name in COUNTS else "a real number"
    with pytest.raises(FssError) as info:
        call(value, path)
    assert type(info.value) is expected
    assert str(info.value) == f"{name} must be {noun}, got {value!r}"
    assert not path.exists()


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("param", [f.name for f in fields(FirstOrderGeometry)])
def test_parametric_sweep_records_a_value_that_is_not_a_number(param, value):
    # each value is a geometry of its own: refused by name, and the sweep goes on
    valid = getattr(GEOMETRY, param)
    bad, good = parametric_sweep(GEOMETRY, param, [value, valid], 1e9, 8e9, 201)
    assert bad.report is None
    assert bad.error == f"invalid-geometry: {param} must be a real number, got {value!r}"
    assert good.error is None


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(5.0)], ids=repr)
@pytest.mark.parametrize("argument", ["sweep.n_points", "fit_circuit.max_iter"])
def test_a_count_refuses_a_real_number_that_is_not_an_integer(argument, value):
    name, call = CASES[argument]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer, got "
                       f"{re.escape(repr(value))}$"):
        call(value, None)


def test_a_count_takes_numpy_integers():
    # the two counts once kept rules of their own: np.int64 ran a sweep and
    # was refused as a fit's max_iter
    tables = [sweep(STACK, 1e9, 8e9, n) for n in (np.int64(5), 5)]
    assert tables[0].s21.tobytes() == tables[1].s21.tobytes()
    start = dict(START, C_tank=0.36e-12)
    runs = [fit_circuit(DATA, "first_order", start, SUB, max_iter=n) for n in (np.int64(50), 50)]
    assert runs[0] == runs[1]
    assert runs[0].iterations > 0


# A flag must be a bool or np.bool_, and an incidence an Incidence: a string
# such as "no" once switched a flag on, and a tuple ended in a bare
# AttributeError at evaluation.  A parametric sweep refuses both on entry
# rather than record them at every point.
NOT_FLAGS = ["no", "", 0, 1, 1.0, None, np.int64(1)]
NOT_INCIDENCES = [(0.0, "TE"), None, 0.0, "TE"]
OUTER = (SeriesLC(4.9e-9, 0.5e-12), SeriesLC(2.0e-9, 0.5e-12))
MIDDLE = Tank(2.5e-9, 0.3e-12)
# entry: its call with an incidence and a loss flag
ILLUMINATED = {
    "FssStack": lambda inc, loss: FssStack(STACK.layers, inc, loss),
    "build_first_order": lambda inc, loss: build_first_order(CIRCUIT, SUB, inc, loss),
    "build_second_order": lambda inc, loss: build_second_order(OUTER, MIDDLE, SUB, inc, loss),
    "parametric_sweep": lambda inc, loss: parametric_sweep(
        GEOMETRY, "jc_gap", [5e-4], 1e9, 8e9, 11, inc, loss),
    "fit_circuit": lambda inc, loss: fit_circuit(
        DATA, "first_order", START, SUB, inc, loss, max_iter=0),
}
FLAGS = {
    "incidence_media.dielectric_loss": (
        "dielectric_loss", lambda v: incidence_media(Incidence(), SUB, 1e9, v)),
    "fit_circuit.magnitude_only": ("magnitude_only", lambda v: fit_circuit(
        DATA, "first_order", START, SUB, magnitude_only=v, max_iter=0)),
    **{f"{entry}.dielectric_loss": ("dielectric_loss", lambda v, call=call: call(Incidence(), v))
       for entry, call in ILLUMINATED.items()},
}


@pytest.mark.parametrize(
    "argument, value", [(a, v) for a in sorted(FLAGS) for v in NOT_FLAGS],
    ids=lambda p: p if isinstance(p, str) and p in FLAGS else repr(p),
)
def test_every_flag_refuses_what_is_not_a_bool(argument, value):
    name, call = FLAGS[argument]
    with pytest.raises(FssError) as info:
        call(value)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"{name} must be a bool, got {value!r}"


@pytest.mark.parametrize("value", NOT_INCIDENCES, ids=repr)
@pytest.mark.parametrize("entry", sorted(ILLUMINATED))
def test_every_stack_entry_refuses_an_incidence_that_is_not_an_incidence(entry, value):
    with pytest.raises(FssError) as info:
        ILLUMINATED[entry](value, False)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"incidence must be an Incidence, got {value!r}"


# The two media entries once ended in a bare AttributeError on such values.
@pytest.mark.parametrize("value", NOT_INCIDENCES, ids=repr)
@pytest.mark.parametrize("call", [lambda inc: incidence_media(inc, SUB, 1e9), port_impedance],
                         ids=["incidence_media", "port_impedance"])
def test_every_media_entry_refuses_an_incidence_that_is_not_an_incidence(call, value):
    with pytest.raises(FssError) as info:
        call(value)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"incidence must be an Incidence, got {value!r}"


@pytest.mark.parametrize("value", [(1e-3, 4.0), None, 4.0, GEOMETRY], ids=repr)
def test_incidence_media_refuses_a_substrate_that_is_not_a_substrate(value):
    with pytest.raises(FssError) as info:
        incidence_media(Incidence(), value, 1e9)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"substrate must be a Substrate, got {value!r}"


# A frequency that is neither a real number nor an ndarray (a tuple, a
# list) once ended in a bare TypeError, and a negative one gave a negative
# electrical length.
@pytest.mark.parametrize("value, message", [
    ((5,), "frequency must be a real number, got (5,)"),
    ([1e9, 2e9], "frequency must be a real number, got [1000000000.0, 2000000000.0]"),
    (-1e9, "frequency must lie in [1e3, 1e15] Hz, got -1000000000.0"),
    (np.array([1e9, -1e9]), "frequency must lie in [1e3, 1e15] Hz, got -1000000000.0"),
    (np.array([[1e9], [np.nan]]), "frequency must lie in [1e3, 1e15] Hz, got nan"),
    (np.array(["1e9"]), "frequencies must be real numbers, got a <U3 array"),
    (np.array([1e9 + 0j]), "frequencies must be real numbers, got a complex128 array"),
], ids=repr)
def test_incidence_media_refuses_a_frequency_outside_the_domain(value, message):
    with pytest.raises(FssError) as info:
        incidence_media(Incidence(), SUB, value)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message


@pytest.mark.parametrize("loss", [False, True])
def test_incidence_media_takes_a_scalar_an_array_or_an_empty_array(loss):
    # a scalar gives a float (a complex one when lossy), an array holds the
    # scalar's bits at each point, and an empty array gives an empty one
    f = np.array([1e9, 2.4e9, 8e9])
    *_, theta = incidence_media(Incidence(), SUB, f, loss)
    scalars = [incidence_media(Incidence(), SUB, x, loss)[2] for x in f.tolist()]
    assert {type(x) for x in scalars} == {complex if loss else float}
    assert theta.tobytes() == np.array(scalars).tobytes()
    assert incidence_media(Incidence(), SUB, np.array([]), loss)[2].shape == (0,)


def _bits(value):
    """The type, dtype and raw bytes of each number or array in ``value``."""
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, ResponseTable):
        return _bits((value.frequency, value.s11, value.s21))
    if isinstance(value, (DesignTargets, ExtractedCircuit)):
        return _bits(list(asdict(value).values()))
    a = np.asarray(value)
    return type(value).__name__, a.dtype.str, a.tobytes()


# entry: its outcome at frequencies made by ``hz`` from float32 numbers
SCALAR_FREQUENCIES = {
    "incidence_media": lambda hz: incidence_media(Incidence(0.3, "TM"), SUB, hz(2.4e9), True),
    "branch_impedance": lambda hz: branch_impedance(Tank(4e-9, 0.35e-12), hz(2.4e9)),
    "hybrid_impedance": lambda hz: hybrid_impedance(HYBRID, hz(2.4e9)),
    "surface_impedance": lambda hz: surface_impedance(CIRCUIT, hz(2.4e9)),
    "sweep": lambda hz: sweep(STACK, hz(1.1e9), hz(2.75e9), 5),
    "DesignTargets": lambda hz: (t := DesignTargets(hz(2.4e9), hz(5.8e9), hz(3.5e9)),
                                 circuit_from_targets(t)),
    "DesignTargets.f_zero=None": lambda hz: (t := DesignTargets(hz(2.4e9), hz(5.8e9)),
                                             circuit_from_targets(t)),
}


# A float32 scalar was computed with in single precision: incidence_media
# returned a float32, surface_impedance overflowed to 0j, and sweep built a
# float32 grid.  Every scalar frequency is handed on as a Python float.
@pytest.mark.parametrize("entry", sorted(SCALAR_FREQUENCIES))
def test_a_float32_frequency_has_the_bits_of_its_float(entry):
    call = SCALAR_FREQUENCIES[entry]
    assert _bits(call(np.float32)) == _bits(call(lambda x: float(np.float32(x))))


# np.asarray of a ragged nesting once raised its bare ValueError
@pytest.mark.parametrize("call, message", [
    (lambda: stack_response(STACK, [[1e9, 2e9], [3e9]]),
     "frequencies must be real numbers, got a ragged sequence"),
    (lambda: stack_response_full(STACK, [1e9, [2e9]]),
     "frequencies must be real numbers, got a ragged sequence"),
    (lambda: ResponseTable([1e9, 2e9], [0.5, [1]], [0.5, 0.5]),
     "S11 must be numbers, got a ragged sequence"),
    (lambda: ResponseTable([[1e9], [2e9, 3e9]], [0.5, 0.5], [0.5, 0.5]),
     "frequencies must be real numbers, got a ragged sequence"),
], ids=["stack_response", "stack_response_full", "ResponseTable.s11", "ResponseTable.frequency"])
def test_a_ragged_column_is_refused_by_name(call, message):
    with pytest.raises(FssError) as info:
        call()
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message


@pytest.mark.parametrize("flag", [True, False])
def test_a_flag_takes_numpy_bools(flag):
    lossy = Substrate(0.635e-3, 10.2, 0.05)
    stacks = [build_first_order(CIRCUIT, lossy, dielectric_loss=f) for f in (np.bool_(flag), flag)]
    assert stacks[0].dielectric_loss is not stacks[1].dielectric_loss
    s21 = [sweep(stack, 1e9, 8e9, 41).s21 for stack in stacks]
    assert s21[0].tobytes() == s21[1].tobytes()
    lossless = sweep(build_first_order(CIRCUIT, lossy), 1e9, 8e9, 41).s21
    assert (s21[0].tobytes() != lossless.tobytes()) == flag
    start = dict(START, C_tank=0.36e-12)
    fits = [fit_circuit(DATA, "first_order", start, SUB, magnitude_only=f, max_iter=50)
            for f in (np.bool_(flag), flag)]
    assert fits[0] == fits[1]


# Every other argument must be of its type, or ``<name> must be <noun>, got
# <repr>``: each of these once ended in a bare AttributeError, TypeError or
# ValueError.  argument: (name and noun in the message, call of the value
# and a scratch file path)
WRONG_TYPES = {
    "band_report.table": ("table must be a ResponseTable", lambda v, _: band_report(v)),
    "smooth_response.table": (
        "table must be a ResponseTable", lambda v, _: smooth_response(v, 1e8)),
    "write_response_csv.table": (
        "table must be a ResponseTable", lambda v, path: write_response_csv(v, path)),
    "fit_circuit.data": ("data must be a ResponseTable", lambda v, _: fit_circuit(
        v, "first_order", START, SUB, max_iter=0)),
    "fit_circuit.initial": ("initial guess must be a Mapping", _fit(initial=lambda v: v)),
    "fit_circuit.sub": ("substrate must be a Substrate", _fit(sub=lambda v: v)),
    "stack_response.stack": (
        "stack must be an FssStack", lambda v, _: stack_response(v, [1e9, 2e9])),
    "stack_response_full.stack": (
        "stack must be an FssStack", lambda v, _: stack_response_full(v, [1e9, 2e9])),
    "sweep.stack": ("stack must be an FssStack", lambda v, _: sweep(v, 1e9, 8e9, 11)),
    "extract_circuit.geom": (
        "geometry must be a FirstOrderGeometry", lambda v, _: extract_circuit(v)),
    "predict_resonances.c": (
        "circuit must be an ExtractedCircuit", lambda v, _: predict_resonances(v)),
    "exact_poles.c": ("circuit must be an ExtractedCircuit", lambda v, _: exact_poles(v)),
    "surface_impedance.c": (
        "circuit must be an ExtractedCircuit", lambda v, _: surface_impedance(v, 1e9)),
    "build_first_order.circuit": (
        "circuit must be an ExtractedCircuit", lambda v, _: build_first_order(v, SUB)),
    "geometry_from_circuit.c": (
        "circuit must be an ExtractedCircuit", lambda v, _: geometry_from_circuit(v, 8.5e-3, SUB)),
    "geometry_from_circuit.sub": (
        "substrate must be a Substrate", lambda v, _: geometry_from_circuit(CIRCUIT, 8.5e-3, v)),
    "circuit_from_targets.t": (
        "targets must be a DesignTargets", lambda v, _: circuit_from_targets(v)),
    "hybrid_impedance.h": ("circuit must be a HybridCircuit", lambda v, _: hybrid_impedance(v, 1e9)),
    "FssStack.layers": ("layers must be an iterable", lambda v, _: FssStack(v)),
    "Parallel.branches": ("branches must be an iterable", lambda v, _: Parallel(v)),
    "parametric_sweep.values": ("values must be an iterable", lambda v, _: parametric_sweep(
        GEOMETRY, "jc_gap", v, 1e9, 8e9, 11)),
    "build_second_order.outer": (
        "outer branches must be a pair", lambda v, _: build_second_order(v, MIDDLE, SUB)),
    "load_response.path": ("path must be a str or os.PathLike", lambda v, _: load_response(v)),
    "write_response_csv.path": (
        "path must be a str or os.PathLike", lambda v, _: write_response_csv(DATA, v)),
    "write_touchstone.path": ("path must be a str or os.PathLike", lambda v, _: write_touchstone(
        [1e9, 2e9], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], v, 50.0)),
}


@pytest.mark.parametrize("value", [5, None, 1.5], ids=repr)
@pytest.mark.parametrize("argument", sorted(WRONG_TYPES))
def test_every_public_entry_refuses_an_argument_of_the_wrong_type(tmp_path, argument, value):
    prefix, call = WRONG_TYPES[argument]
    path = tmp_path / "out.csv"
    with pytest.raises(FssError) as info:
        call(value, path)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"{prefix}, got {value!r}"
    assert not path.exists()


@pytest.mark.parametrize("count", [0, 1, 3])
def test_build_second_order_needs_two_outer_branches(count):
    # a 1-tuple once ended in a bare unpacking ValueError
    with pytest.raises(FssError) as info:
        build_second_order((OUTER * 2)[:count], MIDDLE, SUB)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == f"need 2 outer branches, got {count}"
