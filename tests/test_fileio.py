import math

import numpy as np
import pytest

from fsskit import (
    ETA0,
    ResponseTable,
    build_first_order,
    load_response,
    read_response_csv,
    read_touchstone,
    stack_response_full,
    sweep,
    write_response_csv,
    write_touchstone,
)
from fsskit.errors import InvalidParameterError
from fsskit.fileio import CSV_HEADER


def _small_table(ref_circuit, ref_substrate, n=21):
    return sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 8e9, n)


def test_csv_roundtrip(tmp_path, ref_circuit, ref_substrate):
    table = _small_table(ref_circuit, ref_substrate)
    path = tmp_path / "response.csv"
    write_response_csv(table, path)
    back = read_response_csv(path)
    np.testing.assert_allclose(back.frequency, table.frequency, rtol=1e-11)
    np.testing.assert_allclose(back.s11, table.s11, rtol=0, atol=1e-11)
    np.testing.assert_allclose(back.s21, table.s21, rtol=0, atol=1e-11)


def test_csv_header_and_precision(tmp_path, ref_circuit, ref_substrate):
    table = _small_table(ref_circuit, ref_substrate)
    path = tmp_path / "response.csv"
    write_response_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"
    first = lines[1].split(",")
    assert len(first) == 7
    # 12 significant digits: mantissa with 11 decimals
    assert "e" in first[0] and len(first[0].split("e")[0].split(".")[1]) == 11


def test_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidParameterError):
        read_response_csv(path)
    path2 = tmp_path / "short_row.csv"
    path2.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(InvalidParameterError):
        read_response_csv(path2)


def test_touchstone_roundtrip(tmp_path, ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate)
    table = sweep(stack, 1e9, 8e9, 21)
    s11, s21, s22 = stack_response_full(stack, table.frequency)
    path = tmp_path / "response.s2p"
    write_touchstone(table.frequency, s11, s21, s21, s22, path, ETA0)
    back = read_touchstone(path)
    np.testing.assert_allclose(back.frequency, table.frequency, rtol=1e-11)
    np.testing.assert_allclose(back.s21, s21, rtol=0, atol=1e-11)


def test_touchstone_option_line_format(tmp_path, ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate)
    table = sweep(stack, 1e9, 2e9, 3)
    s11, s21, s22 = stack_response_full(stack, table.frequency)
    path = tmp_path / "resp.s2p"
    write_touchstone(table.frequency, s11, s21, s21, s22, path, ETA0,
                     comments=("theta = 0 deg",))
    lines = path.read_text().splitlines()
    assert any(ln == "# HZ S RI R 376.730313" for ln in lines)
    assert lines[0].startswith("!")
    data_rows = [ln for ln in lines if not ln.startswith(("!", "#"))]
    assert all(len(r.split()) == 9 for r in data_rows)
    # reciprocal export: S12 equals S21 column for column
    for row in data_rows:
        cols = row.split()
        assert cols[3] == cols[5] and cols[4] == cols[6]


def test_touchstone_ma_and_db_formats(tmp_path):
    freqs = np.array([1.0, 2.0])  # GHz, the v1 default unit
    s11 = np.array([0.5 + 0.0j, 0.0 + 0.5j])
    s21 = np.array([0.5 - 0.5j, -0.25 + 0.0j])

    ma_rows = []
    db_rows = []
    for i, f in enumerate(freqs):
        vals = []
        db_vals = []
        for s in (s11[i], s21[i], s21[i], s11[i]):
            mag, ang = abs(s), math.degrees(math.atan2(s.imag, s.real))
            vals += [f"{mag:.12e}", f"{ang:.12e}"]
            db_vals += [f"{20*math.log10(mag):.12e}", f"{ang:.12e}"]
        ma_rows.append(f"{f} " + " ".join(vals))
        db_rows.append(f"{f} " + " ".join(db_vals))

    ma_path = tmp_path / "ma.s2p"
    ma_path.write_text("! comment\n# GHZ S MA R 50\n" + "\n".join(ma_rows) + "\n")
    got = read_touchstone(ma_path)
    np.testing.assert_allclose(got.frequency, freqs * 1e9)
    np.testing.assert_allclose(got.s11, s11, atol=1e-12)
    np.testing.assert_allclose(got.s21, s21, atol=1e-12)

    db_path = tmp_path / "db.s2p"
    db_path.write_text("# GHZ S DB R 50\n" + "\n".join(db_rows) + "\n")
    got = read_touchstone(db_path)
    np.testing.assert_allclose(got.s21, s21, atol=1e-12)


def test_touchstone_sorts_rows(tmp_path):
    path = tmp_path / "unsorted.s2p"
    path.write_text(
        "# HZ S RI R 50\n"
        "2e9 0 0 0.5 0 0.5 0 0 0\n"
        "1e9 0 0 0.25 0 0.25 0 0 0\n"
    )
    got = read_touchstone(path)
    assert got.frequency[0] == 1e9
    assert got.s21[0] == 0.25


def test_touchstone_rejects_malformed(tmp_path):
    path = tmp_path / "bad.s2p"
    path.write_text("# HZ S RI R 50\n1e9 0 0 1\n")
    with pytest.raises(InvalidParameterError):
        read_touchstone(path)
    empty = tmp_path / "empty.s2p"
    empty.write_text("# HZ S RI R 50\n")
    with pytest.raises(InvalidParameterError):
        read_touchstone(empty)
    odd = tmp_path / "odd.s2p"
    odd.write_text("# HZ S XX R 50\n1e9 0 0 1 0 1 0 0 0\n")
    with pytest.raises(InvalidParameterError):
        read_touchstone(odd)


@pytest.mark.parametrize("option", ["R fifty", "R -5", "R 0", "R nan", "R inf", "R"])
def test_touchstone_rejects_bad_reference_resistance(tmp_path, option):
    # the value after R must be a finite positive number, even though the
    # data are not renormalized to it
    path = tmp_path / "bad_r.s2p"
    path.write_text(f"# GHZ S RI {option}\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n")
    token = option.split()[1] if " " in option else None
    with pytest.raises(InvalidParameterError, match=f"bad_r.s2p.*got {token!r}"):
        read_touchstone(path)


def test_touchstone_accepts_any_positive_reference_resistance(tmp_path):
    for option in ("R 50", "r 376.730313", "R 1e3", ""):
        path = tmp_path / "ok.s2p"
        path.write_text(f"# GHZ S RI {option}\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n")
        assert read_touchstone(path).s21[0] == 1


@pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
def test_importers_reject_bad_data_rows(tmp_path, cell):
    # one non-numeric or non-finite cell fails with the path and the row
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(CSV_HEADER + f"\n1e9,0,0,0.5,{cell},0,-6\n2e9,0,0,0.5,0,0,-6\n")
    with pytest.raises(InvalidParameterError, match=f"bad.csv.*0.5,{cell}"):
        read_response_csv(csv_path)
    ts_path = tmp_path / "bad.s2p"
    ts_path.write_text(f"# HZ S RI R 50\n1e9 0 0 0.5 {cell} 0.5 0 0 0\n2e9 0 0 0.5 0 0.5 0 0 0\n")
    with pytest.raises(InvalidParameterError, match=f"bad.s2p.*0.5 {cell}"):
        read_touchstone(ts_path)


def test_csv_accepts_infinite_db_columns(tmp_path):
    # the writer prints -inf dB for an exact null; only the data columns
    # must be finite
    path = tmp_path / "null.csv"
    path.write_text(CSV_HEADER + "\n1e9,-1,0,0,0,0,-inf\n2e9,0,0,1,0,-inf,0\n")
    assert read_response_csv(path).s21[0] == 0j


def test_load_response_sniffs_both_formats(tmp_path, ref_circuit, ref_substrate):
    table = _small_table(ref_circuit, ref_substrate)
    csv_path = tmp_path / "data.csv"
    write_response_csv(table, csv_path)
    assert isinstance(load_response(csv_path), ResponseTable)

    ts_path = tmp_path / "data.s2p"
    stack = build_first_order(ref_circuit, ref_substrate)
    s11, s21, s22 = stack_response_full(stack, table.frequency)
    write_touchstone(table.frequency, s11, s21, s21, s22, ts_path, ETA0)
    got = load_response(ts_path)
    np.testing.assert_allclose(got.s21, table.s21, atol=1e-11)


# --- Byte identity of the writers against a per-cell reference ------------


def _ref_cell(x) -> str:
    """12 significant digits; infinities print as inf/-inf."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.11e}"


def _ref_db(z) -> float:
    mag = abs(z)
    return 20.0 * math.log10(mag) if mag > 0.0 else -math.inf


def _ref_csv_text(table) -> str:
    lines = [CSV_HEADER]
    for f, s11, s21 in zip(table.frequency, table.s11, table.s21):
        cells = (f, s11.real, s11.imag, s21.real, s21.imag, _ref_db(s11), _ref_db(s21))
        lines.append(",".join(_ref_cell(x) for x in cells))
    return "\n".join(lines) + "\n"


def _ref_touchstone_text(freqs, s11, s21, s12, s22, port_z, comments=()) -> str:
    lines = [f"! reference impedance {port_z:.6f} ohm"]
    lines.extend(f"! {c}" for c in comments)
    lines.append(f"# HZ S RI R {port_z:.6f}")
    for i, f in enumerate(freqs):
        cells = [float(f)]
        for s in (s11, s21, s12, s22):
            cells += [s[i].real, s[i].imag]
        lines.append(" ".join(_ref_cell(x) for x in cells))
    return "\n".join(lines) + "\n"


# Values whose printed form is easy to get wrong: signed zeros, the
# smallest subnormal, infinities and NaN.
_AWKWARD = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e308, math.inf, -math.inf, math.nan]
)


def _awkward_response(rng, n):
    freqs = np.sort(rng.uniform(1e6, 1e11, n))
    freqs[0] = 5e-324  # smallest positive subnormal frequency
    parts = rng.standard_normal((4, 2, n)) * 10.0 ** rng.uniform(-6, 1, (4, 2, n))
    for arr in parts.reshape(8, n):
        hit = rng.random(n) < 0.05
        arr[hit] = rng.choice(_AWKWARD, hit.sum())
    s = parts[:, 0].astype(complex)  # not re + 1j*im: 1j*inf has a NaN real part
    s.imag = parts[:, 1]
    # exact nulls (-inf dB) and a magnitude that underflows in the dB column
    s[:, rng.random(n) < 0.05] = 0j
    s[:, -1] = complex(-0.0, -0.0)
    s[1, 0] = complex(5e-324, -0.0)
    return freqs, s


@pytest.mark.parametrize("n", [2, 2047, 2048, 2049, 5001])
def test_writers_match_per_cell_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    freqs, (s11, s21, s12, s22) = _awkward_response(rng, n)
    table = ResponseTable(freqs, s11, s21)
    csv_path = tmp_path / "response.csv"
    write_response_csv(table, csv_path)
    assert csv_path.read_bytes() == _ref_csv_text(table).encode()

    ts_path = tmp_path / "response.s2p"
    comments = ("incidence theta = 10.000 deg, polarization = TM",)
    write_touchstone(freqs, s11, s21, s12, s22, ts_path, 50.0, comments=comments)
    want = _ref_touchstone_text(freqs, s11, s21, s12, s22, 50.0, comments)
    assert ts_path.read_bytes() == want.encode()


def test_touchstone_writer_with_no_rows(tmp_path):
    path = tmp_path / "empty.s2p"
    empty = np.array([], dtype=complex)
    write_touchstone(np.array([]), empty, empty, empty, empty, path, ETA0)
    want = _ref_touchstone_text([], empty, empty, empty, empty, ETA0)
    assert path.read_bytes() == want.encode()
