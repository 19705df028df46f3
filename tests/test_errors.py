import ast
import math
import re
from collections import defaultdict
from pathlib import Path

import pytest

import fsskit
from fsskit import (
    DesignTargets,
    ExtractedCircuit,
    FirstOrderGeometry,
    HybridCircuit,
    Inductor,
    SeriesLC,
    Substrate,
    Tank,
    errors,
    foster_transform,
    geometry_from_circuit,
)
from fsskit.domain import RANGES
from fsskit.errors import (
    BandStructureError,
    FssError,
    InvalidGeometryError,
    InvalidParameterError,
    UnattainableDimensionError,
)

ERROR_CLASSES = {
    name: cls
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, FssError)
}


def _raise_site_keywords() -> dict:
    """Keyword names passed where the package constructs each error class."""
    passed = defaultdict(set)
    for path in Path(fsskit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ERROR_CLASSES:
                passed[node.func.id] |= {k.arg for k in node.keywords}
    return passed


def test_declared_payload_matches_the_raise_sites():
    passed = _raise_site_keywords()
    assert passed["BandStructureError"] == {"band_count"}
    for name, cls in ERROR_CLASSES.items():
        assert set(cls.payload) == passed.get(name, set()), name


@pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
def test_a_payload_name_not_passed_reads_none(name):
    exc = ERROR_CLASSES[name]("message")
    assert str(exc) == "message"
    assert exc.args == ("message",)
    for field in exc.payload:
        assert getattr(exc, field) is None


def test_payload_is_keyword_only_and_declared():
    exc = UnattainableDimensionError("m", parameter="jc_slot")
    assert (exc.parameter, exc.attainable) == ("jc_slot", None)
    with pytest.raises(TypeError, match="'bogus'"):
        BandStructureError("m", band_count=1, bogus=2)
    with pytest.raises(TypeError, match="'band_count'"):
        FssError("m", band_count=1)
    with pytest.raises(TypeError):
        BandStructureError("m", 1)


# A valid value for every numeric field of each model constructor.
_VALID = {
    Substrate: dict(thickness=0.635e-3, eps_r=10.2, tan_delta=0.0023),
    SeriesLC: dict(L=4.9e-9, C=0.5e-12),
    Tank: dict(L=4e-9, C=0.35e-12),
    Inductor: dict(L=0.8e-9),
    ExtractedCircuit: dict(
        L_series=4.9e-9, C_series=0.5e-12, L_tank=4e-9, C_tank=0.35e-12, L_parasitic=0.8e-9
    ),
    HybridCircuit: dict(L_tank=4e-9, C_tank=0.35e-12, L_series=4.9e-9, C_series=0.5e-12),
    FirstOrderGeometry: dict(
        period=8.5e-3,
        hat_length=6.8e-3,
        jc_slot=0.3e-3,
        cross_slot=0.2e-3,
        jc_gap=0.5e-3,
        thickness=0.635e-3,
        eps_r=10.2,
        tan_delta=0.0023,
    ),
    DesignTargets: dict(f_lower=2.4e9, f_upper=5.8e9, L_tank=4e-9),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "cls,field",
    [(cls, field) for cls, kwargs in _VALID.items() for field in kwargs],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_model_constructors_reject_non_finite_values(cls, field, value):
    # NaN fails every comparison and inf passes one-sided ones, so a range
    # check must also bound the value to be finite
    cls(**_VALID[cls])
    expected = InvalidGeometryError if cls is FirstOrderGeometry else InvalidParameterError
    with pytest.raises(expected) as info:
        cls(**dict(_VALID[cls], **{field: value}))
    assert type(info.value) is expected
    assert str(value) in str(info.value)


# Valid numeric arguments of the two inverse-design entry points.
_FOSTER = dict(L1=4.9e-9, C1=0.5e-12, L2=2.0e-9, C2=0.5e-12)
_GRID = dict(period=8.5e-3)


def _inverse_design(argument, value):
    if argument in _FOSTER:
        return foster_transform(**dict(_FOSTER, **{argument: value}))
    circuit = ExtractedCircuit(4.9e-9, 0.5e-12, 4e-9, 0.35e-12, 0.0)
    sub = Substrate(0.635e-3, 10.2, 0.0023)
    return geometry_from_circuit(circuit, sub=sub, **dict(_GRID, **{argument: value}))


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0], ids=str)
@pytest.mark.parametrize("argument", [*_FOSTER, *_GRID])
def test_inverse_design_names_a_bad_argument(argument, value):
    # not through a derived value such as a nan tank or an attainable range
    _inverse_design(argument, {**_FOSTER, **_GRID}[argument])
    with pytest.raises(InvalidParameterError) as info:
        _inverse_design(argument, value)
    assert type(info.value) is InvalidParameterError
    quantity = {"L": "inductance", "C": "capacitance", "p": "length"}.get(argument[0], argument)
    assert str(info.value) == f"{argument} must lie in {RANGES[quantity][2]}, got {value}"


def test_readme_lists_the_input_domain():
    # README's table of ranges and fsskit.domain.RANGES name the same
    # quantities with the same spans, so neither can drift from the other
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| quantity | range | checked in |\n")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[1:]:  # below the | --- | rule
        names, span, _ = (cell.strip() for cell in row.strip().strip("|").split("|"))
        lo, hi, units = re.fullmatch(r"(\S+) to (\S+) ?(.*)", span).groups()
        names = [name.strip(" `") for name in names.split(",")]
        units = units.split(" or ") if " or " in units else [units] * len(names)
        for name, unit in zip(names, units, strict=True):
            listed[name] = f"[{lo}, {hi}] {unit}".rstrip()
    assert listed == {quantity: span for quantity, (_, _, span) in RANGES.items()}
