import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from fsskit import (
    ETA0,
    ResponseTable,
    build_first_order,
    load_response,
    stack_response_full,
    sweep,
    write_response_csv,
    write_touchstone,
)
from fsskit import fileio
from fsskit.errors import InvalidParameterError
from fsskit.fileio import CSV_HEADER


def _small_table(ref_circuit, ref_substrate, n=21):
    return sweep(build_first_order(ref_circuit, ref_substrate), 1e9, 8e9, n)


def test_csv_roundtrip(tmp_path, ref_circuit, ref_substrate):
    table = _small_table(ref_circuit, ref_substrate)
    path = tmp_path / "response.csv"
    write_response_csv(table, path)
    back = load_response(path)
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
    with pytest.raises(InvalidParameterError, match="bogus.csv: not a response CSV"):
        load_response(path)
    path2 = tmp_path / "short_row.csv"
    path2.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(InvalidParameterError):
        load_response(path2)


def test_touchstone_roundtrip(tmp_path, ref_circuit, ref_substrate):
    stack = build_first_order(ref_circuit, ref_substrate)
    table = sweep(stack, 1e9, 8e9, 21)
    s11, s21, s22 = stack_response_full(stack, table.frequency)
    path = tmp_path / "response.s2p"
    write_touchstone(table.frequency, s11, s21, s21, s22, path, ETA0)
    back = load_response(path)
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


def test_touchstone_comment_of_several_lines_round_trips(tmp_path, ref_circuit, ref_substrate):
    # every line of a comment is a comment line, at each line break the
    # importer splits at; a bare line would read as a two-column data row
    stack = build_first_order(ref_circuit, ref_substrate)
    table = sweep(stack, 1e9, 2e9, 3)
    s11, s21, s22 = stack_response_full(stack, table.frequency)
    path = tmp_path / "resp.s2p"
    write_touchstone(table.frequency, s11, s21, s21, s22, path, ETA0,
                     comments=("a\nb", "c\r\nd\x0ce", "", "f"))
    lines = path.read_text().split("\n")
    assert lines[1:8] == ["! a", "! b", "! c", "! d", "! e", "! ", "! f"]
    back = load_response(path)
    np.testing.assert_array_equal(back.frequency, table.frequency)
    np.testing.assert_allclose(back.s21, s21, rtol=0, atol=1e-11)


def test_touchstone_writer_refuses_a_str_of_comments(tmp_path):
    # a str is a sequence of one-character comments: "angle 0" wrote seven
    # "!" lines, one per character
    path = tmp_path / "resp.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    with pytest.raises(InvalidParameterError) as info:
        write_touchstone(np.array([1e9, 2e9]), z, z, z, z, path, 50.0, comments="angle 0")
    assert str(info.value) == "comments must be a sequence of strings, got 'angle 0'"
    assert not path.exists()


@pytest.mark.parametrize("comments", [[1], ("ok", None), [b"bytes"], 5, None], ids=repr)
def test_touchstone_writer_refuses_a_comment_that_is_not_a_str(tmp_path, comments):
    # [1] once ended in a bare AttributeError on int.splitlines, 5 and None
    # in a bare TypeError from list()
    path = tmp_path / "resp.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    with pytest.raises(InvalidParameterError) as info:
        write_touchstone(np.array([1e9, 2e9]), z, z, z, z, path, 50.0, comments=comments)
    assert str(info.value) == f"comments must be a sequence of strings, got {comments!r}"
    assert not path.exists()


def test_touchstone_writer_takes_a_generator_of_comments(tmp_path):
    path = tmp_path / "resp.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    write_touchstone(np.array([1e9, 2e9]), z, z, z, z, path, 50.0,
                     comments=(c for c in ("angle 0", "TE\nfirst order")))
    lines = path.read_text().split("\n")
    assert lines[1:4] == ["! angle 0", "! TE", "! first order"]
    assert lines[4] == "# HZ S RI R 50.000000"


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
    got = load_response(ma_path)
    np.testing.assert_allclose(got.frequency, freqs * 1e9)
    np.testing.assert_allclose(got.s11, s11, atol=1e-12)
    np.testing.assert_allclose(got.s21, s21, atol=1e-12)

    db_path = tmp_path / "db.s2p"
    db_path.write_text("# GHZ S DB R 50\n" + "\n".join(db_rows) + "\n")
    got = load_response(db_path)
    np.testing.assert_allclose(got.s21, s21, atol=1e-12)


@pytest.mark.parametrize("column", [1, 3, 5, 7])
@pytest.mark.parametrize("option", ["# GHZ S MA R 50", "! MA is the default format"])
def test_touchstone_rejects_negative_ma_magnitude(tmp_path, option, column):
    # cmath.rect would read -0.5 at 30 degrees as 0.5 at 210 degrees
    row = ["2", "0.5", "30", "0.5", "30", "0.5", "30", "0.5", "30"]
    row[column] = "-0.5"
    path = tmp_path / "negative.s2p"
    path.write_text(f"{option}\n1 0.5 30 0.5 30 0.5 30 0.5 30\n{' '.join(row)}\n")
    with pytest.raises(
        InvalidParameterError, match="negative.s2p: line 3: MA magnitude must not be negative, got -0.5"
    ):
        load_response(path)
    # in the other formats a negative value is an ordinary number
    for fmt in ("RI", "DB"):
        path.write_text(f"# GHZ S {fmt} R 50\n1 0.5 30 0.5 30 0.5 30 0.5 30\n{' '.join(row)}\n")
        assert len(load_response(path)) == 2


def test_touchstone_sorts_rows(tmp_path):
    path = tmp_path / "unsorted.s2p"
    path.write_text(
        "# HZ S RI R 50\n"
        "2e9 0 0 0.5 0 0.5 0 0 0\n"
        "1e9 0 0 0.25 0 0.25 0 0 0\n"
    )
    got = load_response(path)
    assert got.frequency[0] == 1e9
    assert got.s21[0] == 0.25


def test_touchstone_rejects_malformed(tmp_path):
    path = tmp_path / "bad.s2p"
    path.write_text("# HZ S RI R 50\n1e9 0 0 1\n")
    with pytest.raises(InvalidParameterError):
        load_response(path)
    empty = tmp_path / "empty.s2p"
    empty.write_text("# HZ S RI R 50\n")
    with pytest.raises(InvalidParameterError):
        load_response(empty)
    odd = tmp_path / "odd.s2p"
    odd.write_text("# HZ S XX R 50\n1e9 0 0 1 0 1 0 0 0\n")
    with pytest.raises(InvalidParameterError):
        load_response(odd)


_ONE_ROW = "1 data row found; a response needs at least 2"


@pytest.mark.parametrize(
    "name,text,found",
    [("header.csv", CSV_HEADER + "\n", "no data rows found"),
     ("one.csv", CSV_HEADER + "\n1e9,0,0,0.5,0,0,-6\n", _ONE_ROW),
     ("one.s2p", "# HZ S RI R 50\n1e9 0 0 0.5 0 0.5 0 0 0\n", _ONE_ROW),
     ("none.s2p", "! no data\n# HZ S RI R 50\n", "no data rows found")],
    ids=["csv-header-only", "csv-one-row", "touchstone-one-row", "touchstone-no-rows"],
)
def test_importers_name_the_file_with_too_few_rows(tmp_path, name, text, found):
    # ResponseTable's own 2-row check cannot name the file
    path = tmp_path / name
    path.write_text(text)
    message = f"{path}: {found}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        load_response(path)


@pytest.mark.parametrize(
    "lines,number",
    [
        (["# HZ S RI R 50", "3e9 0 0 1 0 1 0 0 0", "1 0 0 1 0 1 0 0 0",
          "# GHZ S MA R 50", "2e9 0 0 1 0 1 0 0 0"], 4),
        (["! header", "# HZ S RI R 50", "", "# GHZ S MA R 50", "1e9 0 0 1 0 1 0 0 0"], 4),
        (["1e9 0 0 1 0 1 0 0 0", "# HZ S RI R 50"], 2),
    ],
    ids=["after-data", "second-option-line", "after-the-only-row"],
)
def test_touchstone_option_line_must_come_first(tmp_path, lines, number):
    # Touchstone v1 has one option line, before the data; a later one must not
    # be applied to rows already read
    path = tmp_path / "late.s2p"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParameterError, match=f"late.s2p: line {number}: option line"):
        load_response(path)


@pytest.mark.parametrize("option", ["R fifty", "R -5", "R 0", "R nan", "R inf", "R"])
def test_touchstone_rejects_bad_reference_resistance(tmp_path, option):
    # the value after R must be a finite positive number, even though the
    # data are not renormalized to it
    path = tmp_path / "bad_r.s2p"
    path.write_text(f"# GHZ S RI {option}\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n")
    token = option.split()[1] if " " in option else None
    with pytest.raises(InvalidParameterError, match=f"bad_r.s2p.*got {token!r}"):
        load_response(path)


def test_touchstone_accepts_any_positive_reference_resistance(tmp_path):
    for option in ("R 50", "r 376.730313", "R 1e3", ""):
        path = tmp_path / "ok.s2p"
        path.write_text(f"# GHZ S RI {option}\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n")
        assert load_response(path).s21[0] == 1


@pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
def test_importers_reject_bad_data_rows(tmp_path, cell):
    # one non-numeric or non-finite cell fails with the path and the row
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(CSV_HEADER + f"\n1e9,0,0,0.5,{cell},0,-6\n2e9,0,0,0.5,0,0,-6\n")
    with pytest.raises(InvalidParameterError, match=f"bad.csv.*0.5,{cell}"):
        load_response(csv_path)
    ts_path = tmp_path / "bad.s2p"
    ts_path.write_text(f"# HZ S RI R 50\n1e9 0 0 0.5 {cell} 0.5 0 0 0\n2e9 0 0 0.5 0 0.5 0 0 0\n")
    with pytest.raises(InvalidParameterError, match=f"bad.s2p.*0.5 {cell}"):
        load_response(ts_path)


@pytest.mark.parametrize(
    "option,row",
    [("# HZ S DB R 50", "2e9 0 0 7000 0 0 0 0 0"),  # a magnitude of 1e350
     ("# GHZ S RI R 50", "1e300 0 0 0.5 0 0.5 0 0 0")],  # beyond float range in Hz
    ids=["db-magnitude", "ghz-frequency"],
)
def test_touchstone_values_must_be_finite_after_conversion(tmp_path, option, row):
    path = tmp_path / "big.s2p"
    path.write_text(f"{option}\n1 0 0 0.5 0 0.5 0 0 0\n{row}\n")
    message = f"{path}: non-finite value after conversion in row {row!r}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        load_response(path)


def test_csv_accepts_infinite_db_columns(tmp_path):
    # the writer prints -inf dB for an exact null; only the data columns
    # must be finite
    path = tmp_path / "null.csv"
    path.write_text(CSV_HEADER + "\n1e9,-1,0,0,0,0,-inf\n2e9,0,0,1,0,-inf,0\n")
    assert load_response(path).s21[0] == 0j


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


_TS_ROWS = "1e9 0 0 0.5 0 0.5 0 0 0\n2e9 0 0 0.25 0 0.25 0 0 0\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (CSV_HEADER + "\n1e9,0,0,0.5,0,0,-6\n2e9,0,0,0.25,0,0,-12\n", None),
        ("\n  \n" + CSV_HEADER + "\n1e9,0,0,0.5,0,0,-6\n2e9,0,0,0.25,0,0,-12\n", None),
        ("! exported by a, b\n# HZ S RI R 50\n" + _TS_ROWS, None),
        ("1 0 0 0.5 0 0.5 0 0 0 ! GHz, MA\n2 0 0 0.25 0 0.25 0 0 0\n", None),
        ("# HZ S RI R 50,\n" + _TS_ROWS,
         "option-line R needs a finite positive reference resistance, got '50,'"),
        ("1e9;0;0;0.5;0;0.5;0;0;0\n", "expected 9-column two-port rows, got 1 columns"),
    ],
    ids=["csv", "csv-after-blanks", "comment-with-comma", "row-comment-with-comma",
         "option-line-with-comma", "no-comma"],
)
def test_load_response_tells_the_formats_apart_by_the_first_line(tmp_path, text, message):
    # a comma before any comment, on a line that is not the option line,
    # makes a CSV; every other file is Touchstone
    path = tmp_path / "data.txt"
    path.write_text(text)
    if message is None:
        assert load_response(path).s21.tolist() == [0.5, 0.25]
    else:
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_response(path)


def test_load_response_reads_each_file_once(tmp_path, ref_circuit, ref_substrate, monkeypatch):
    opened = []
    path_open = pathlib.Path.open

    def recording(self, *args, **kwargs):
        opened.append(self)
        return path_open(self, *args, **kwargs)

    table = _small_table(ref_circuit, ref_substrate)
    write_response_csv(table, tmp_path / "data.csv")
    write_touchstone(table.frequency, table.s11, table.s21, table.s21, table.s11,
                     tmp_path / "data.s2p", ETA0)
    monkeypatch.setattr(pathlib.Path, "open", recording)
    for name in ("data.csv", "data.s2p"):
        load_response(tmp_path / name)
        assert opened == [tmp_path / name]
        opened.clear()


def test_imported_columns_are_the_table_columns(tmp_path, ref_circuit, ref_substrate, monkeypatch):
    # the importers hand read-only arrays to the table, which shares them
    handed = []

    def recording(*columns):
        handed.append(columns)
        return ResponseTable(*columns)

    monkeypatch.setattr(fileio, "ResponseTable", recording)
    table = _small_table(ref_circuit, ref_substrate)
    write_response_csv(table, tmp_path / "data.csv")
    write_touchstone(table.frequency, table.s11, table.s21, table.s21, table.s11,
                     tmp_path / "data.s2p", ETA0)
    for name in ("data.csv", "data.s2p"):
        got = load_response(tmp_path / name)
        assert all(a is b for a, b in zip(handed.pop(), (got.frequency, got.s11, got.s21)))


@pytest.mark.parametrize(
    "freqs, message",
    [
        ([1e9, 3e9, 2e9],
         "frequencies must be strictly increasing, but 2000000000.0 Hz follows 3000000000.0 Hz"),
        ([1e9, 2e9, 2e9],
         "frequencies must be strictly increasing, but 2000000000.0 Hz follows 2000000000.0 Hz"),
        ([-2e9, 1e9, 2e9], "frequency must lie in [1e3, 1e15] Hz, got -2000000000.0"),
    ],
)
def test_importers_give_the_tables_frequency_message(tmp_path, freqs, message):
    # ResponseTable owns the ordering and range rules; an importer only
    # puts the file's name in front of the table's message
    zeros = np.zeros(len(freqs), dtype=complex)
    with pytest.raises(InvalidParameterError) as direct:
        ResponseTable(np.array(freqs), zeros, zeros)
    assert str(direct.value) == message
    path = tmp_path / "data.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"{f!r},0,0,0.5,0,0,-6\n" for f in freqs))
    with pytest.raises(InvalidParameterError) as imported:
        load_response(path)
    assert str(imported.value) == f"{path}: {message}"


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
    freqs[0] = 1e3  # the lowest frequency in range
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


def test_touchstone_writer_refuses_a_complex_frequency_column(tmp_path):
    # a float cast kept the real part only, with a ComplexWarning; it parsed
    # a column of numeric strings, object or not, and failed with a bare
    # ValueError on any other text; None became NaN
    path = tmp_path / "complex.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    columns = [np.array([2e9 + 5e8j, 3e9]), ["a", "b"], ["1e9", "2e9"],
               np.array([b"1e9", b"2e9"]), np.array(["a", 3e9], dtype=object),
               np.array(["1e9", "2e9"], dtype=object), [None, 2e9]]
    dtypes = ["complex128", "<U1", "<U3", "|S3", "object", "object", "object"]
    for freqs, dtype in zip(columns, dtypes):
        with pytest.raises(InvalidParameterError) as info:
            write_touchstone(freqs, z, z, z, z, path, 50.0)
        assert str(info.value) == f"frequencies must be real numbers, got a {dtype} array"
        assert not path.exists()


@pytest.mark.parametrize("column", [["1", "2"], [None, 1], ["a", "b"], [object(), 1]],
                         ids=["numeric-str", "none", "str", "object"])
def test_touchstone_writer_refuses_an_s_column_that_is_not_numbers(tmp_path, column):
    # numpy parsed numeric text, cast None to NaN, and failed with a bare
    # ValueError or TypeError on the rest
    path = tmp_path / "s.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    for k, name in enumerate(["S11", "S21", "S12", "S22"]):
        s = [z] * 4
        s[k] = column
        with pytest.raises(InvalidParameterError) as info:
            write_touchstone(np.array([1e9, 2e9]), *s, path, 50.0)
        assert str(info.value) == f"{name} must be numbers, got a {np.asarray(column).dtype} array"
        assert not path.exists()


_F3 = np.array([2e9, 3e9, 4e9])
_S3 = np.full(3, 0.5 + 0.1j)


@pytest.mark.parametrize(
    "columns, shapes",
    [
        ((_F3, _S3[:2], _S3, _S3, _S3), "(3,), (2,), (3,), (3,), (3,)"),
        ((_F3, _S3, _S3, _S3, _S3[:2]), "(3,), (3,), (3,), (3,), (2,)"),
        ((_F3[:2], _S3, _S3, _S3, _S3), "(2,), (3,), (3,), (3,), (3,)"),
        ((2e9, 0.5, 0.5, 0.5, 0.5), "(), (), (), (), ()"),
    ],
    ids=["s11-short", "s22-short", "frequency-short", "scalars"],
)
def test_touchstone_writer_refuses_columns_of_different_lengths(tmp_path, columns, shapes):
    # column_stack ended in a bare numpy ValueError; a scalar row in a TypeError
    path = tmp_path / "ragged.s2p"
    with pytest.raises(InvalidParameterError) as info:
        write_touchstone(*columns, path, 50.0)
    assert str(info.value) == (
        "frequency, S11, S21, S12 and S22 must be 1-D columns of one length, "
        f"got shapes {shapes}"
    )
    assert not path.exists()


@pytest.mark.parametrize(
    "freqs, port_z, message",
    [
        ([-1.0, 2e9], 50.0, "frequency must lie in [1e3, 1e15] Hz, got -1.0"),
        ([math.nan, 2e9], 50.0, "frequency must lie in [1e3, 1e15] Hz, got nan"),
        ([1e9, 2e9], math.nan, "needs a finite positive reference resistance, got 'nan'"),
        ([1e9, 2e9], -5.0, "needs a finite positive reference resistance, got '-5.000000'"),
        ([1e9, 2e9], 1e-7, "needs a finite positive reference resistance, got '0.000000'"),
        ([1e9, 2e9], 4e-7, "needs a finite positive reference resistance, got '0.000000'"),
        ([1e9, 2e9], "50", "port_z must be a real number, got '50'"),
    ],
    ids=[
        "negative-frequency",
        "nan-frequency",
        "nan-port",
        "negative-port",
        "port-1e-7",
        "port-4e-7",
        "text-port",
    ],
)
def test_touchstone_writer_refuses_what_the_reader_refuses(tmp_path, freqs, port_z, message):
    # each file was written, and load_response then refused it; a text port
    # impedance ended in a ValueError from the format
    path = tmp_path / "refused.s2p"
    z = np.array([0.5 + 0.1j, 0.4 - 0.2j])
    with pytest.raises(InvalidParameterError) as info:
        write_touchstone(np.array(freqs), z, z, z, z, path, port_z)
    assert str(info.value).endswith(message)
    assert not path.exists()


def _ref_rows_text(rows, sep) -> str:
    return "".join(sep.join(map(_ref_cell, row)) + "\n" for row in rows.tolist())


def _hard_values(rng, n):
    """n values whose "%.11e" form the whole-array writer must match: the
    bulk with two-digit exponents, plus every case it hands to "%" or must
    round like it."""
    m = rng.integers(10**11, 10**12, n // 40).astype(float)
    e = rng.integers(-99, 100, m.size).astype(float)
    ties = (m + 0.5) * 10.0 ** (e - 11)  # near ties, and exact ones where representable
    exact_ties = (m + 0.5) * 10.0 ** rng.integers(0, 5, m.size)  # e = 11..15
    off = rng.uniform(1e-3, 3e-3, m.size) * rng.choice([-1.0, 1.0], m.size)
    near_ties = (m + 0.5 + off) * 10.0 ** (e - 11)
    carry = (10**12 - 0.5 + rng.uniform(-1e-3, 1e-3, m.size)) * 10.0 ** (e - 11)
    powers = 10.0 ** np.arange(-99, 100)
    edges = np.array(
        [9.999999999995e99, 9.99999999999949e99, 1e100, 1e-99, 9.999999999995e-100,
         9.9999999999949e-100, 1e-100, 1e22, 1e23, 1e308, 1.7976931348623157e308,
         2.2250738585072014e-308, 5e-324, 0.5, 1.5, 2.5, 0.0, math.inf, math.nan]
    )
    special = np.concatenate(
        [
            ties, exact_ties, near_ties, carry, powers, edges,
            10.0 ** rng.uniform(100, 308, 2000),  # three-digit exponents
            10.0 ** rng.uniform(-323, -100, 2000),
            rng.integers(1, 2**52, 2000) * 5e-324,  # subnormals
            np.frombuffer(rng.bytes(8 * 4000), np.float64),  # any bit pattern
        ]
    )
    finite = special[np.isfinite(special)]
    with np.errstate(over="ignore"):  # the largest float's neighbour is inf
        special = np.concatenate([special, np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)])
    bulk = rng.standard_normal(n - special.size) * 10.0 ** rng.uniform(-99, 99, n - special.size)
    values = np.concatenate([bulk, special])
    values.view(np.uint64)[rng.random(values.size) < 0.5] ^= np.uint64(1 << 63)  # sign bit
    return rng.permutation(values)


def test_writers_match_per_cell_reference_on_a_million_hard_values(tmp_path):
    # ties and their neighbours, mantissas that round up to the next decade,
    # powers of ten, subnormals, three-digit exponents, signed zeros,
    # infinities, NaNs and arbitrary bit patterns, each printed as "%.11e";
    # all in the S columns, as the writer refuses a frequency out of range
    rng = np.random.default_rng(11)
    values = _hard_values(rng, 1_000_008).reshape(-1, 8)
    rows = np.column_stack([np.geomspace(1e3, 1e15, len(values)), values])
    s = rows[:, 1:].copy().view(complex).T
    path = tmp_path / "hard.s2p"
    write_touchstone(rows[:, 0], *s, path, 50.0)
    header = "! reference impedance 50.000000 ohm\n# HZ S RI R 50.000000\n"
    assert path.read_bytes() == (header + _ref_rows_text(rows, " ")).encode()


def test_db_columns_match_per_value_reference(tmp_path):
    rng = np.random.default_rng(5)
    ulp = np.spacing(1.0)
    mags = np.concatenate(
        [
            10.0 ** np.arange(-320, 309),  # exact powers of ten, subnormal ones too
            1.0 + ulp * np.arange(-40, 41),
            rng.integers(1, 2**52, 500) * 5e-324,  # subnormal magnitudes
            10.0 ** rng.uniform(-300, 300, 5000),
        ]
    )
    # exact magnitudes: one part zero, the other carrying it
    exact = mags * np.where(rng.random(mags.size) < 0.5, 1.0, 1j)
    # dB values a hair from a 12-digit rounding tie at any phase, where
    # np.log10 and math.log10, or np.abs and abs, often print differently
    m = rng.integers(10**11, 10**12, 20000)
    db = -(m + 0.5) * 10.0 ** rng.integers(-13, -8, m.size)
    near = 10.0 ** (db / 20.0) * np.exp(2j * np.pi * rng.random(m.size))
    s = np.concatenate([exact, near])
    s[rng.random(s.size) < 0.5] *= -1.0
    table = ResponseTable(1e3 * np.arange(1.0, s.size + 1), s, s[::-1].copy())
    path = tmp_path / "db.csv"
    write_response_csv(table, path)
    assert path.read_bytes() == _ref_csv_text(table).encode()


def test_writers_hold_one_block_in_memory(tmp_path):
    # the text of a 1e5-row table is ~17 MB and its stacked values ~7 MB; the
    # writers' peak must be set by one block of rows, not by the table
    n = 100_000
    rng = np.random.default_rng(3)
    freqs = np.linspace(1e9, 12e9, n)
    s11, s21, s22 = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    table = ResponseTable(freqs, s11, s21)
    one_block = fileio._BLOCK_ROWS * 9 * fileio._CELL  # a Touchstone block's cells
    tracemalloc.start()
    try:
        write_response_csv(table, tmp_path / "big.csv")
        write_touchstone(freqs, s11, s21, s21, s22, tmp_path / "big.s2p", ETA0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * one_block, peak
