import ast
from collections import defaultdict
from pathlib import Path

import pytest

import fsskit
from fsskit import errors
from fsskit.errors import BandStructureError, FssError, UnattainableDimensionError

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
