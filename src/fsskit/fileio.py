"""Response-table importer and writers: the package CSV schema and
two-port Touchstone v1.

Data files carry no timestamps so identical runs produce identical bytes;
run metadata belongs in a sidecar written by the command-line front end.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path

import numpy as np

from .analysis import ResponseTable
from .errors import InvalidParameterError

CSV_HEADER = "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db"

_FREQ_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}


# Rows formatted per block: big enough that the per-block overhead vanishes,
# small enough that a large table's text is never held in memory at once.
_BLOCK_ROWS = 2048


def _text(path) -> str:
    """The file's text, which must be UTF-8 (a leading byte-order mark, as
    spreadsheet exports write, is dropped)."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: not UTF-8 text ({exc})") from None


def _data_row(path, row: str, parts) -> list:
    """Values of one data row; frequency, S11 and S21 (the first five) must
    be finite."""
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise InvalidParameterError(f"{path}: non-numeric value in row {row!r}") from None
    if not all(map(math.isfinite, vals[:5])):
        raise InvalidParameterError(f"{path}: non-finite value in row {row!r}")
    return vals


# The writers print every value as "%.11e" does, a whole block at a time.  A
# finite nonzero x with decimal exponent e (|e| <= 99) prints as its sign,
# the 12 digits of the integer m = rint(|x| * 10**(11 - e)), and e.  Each
# value fills a 20-byte cell of five little-endian uint32 words,
#   [pad, sign or pad, d0, "."] [d1-d4] [d5-d8] [d9-d11, "e"] [exp sign, 2 exp digits, separator],
# and the pad bytes (0) are dropped when the block is joined.
_CELL = 20
_POW10 = np.array([float(f"1e{11 - e}") for e in range(-99, 100)])  # index e + 99

# |x| * 10**(11 - e) carries about 2e-4 of rounding error, from the product
# and from the power, so a fraction that close to one half may round either
# way: such values go through "%" (as do zero, inf, nan and |e| >= 100).
_TIE = 1e-3
# np.log10 may differ from math.log10 in the last bit or two, which moves
# 20*log10 by under 1e-3 of a unit in the 12th digit: a dB value nearer a
# rounding tie than this is recomputed with math.log10.
_DB_TIE = 1e-2


def _ascii_words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), "<u4")


def _ascii_digits(width: int) -> np.ndarray:
    """Row v holds the ASCII digits of v, zero-padded to `width`."""
    digits = np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T
    return np.ascontiguousarray(digits + ord("0"))


# Word v of the digit tables spells v in ASCII: "0042" and "042e".
_DIGITS4 = _ascii_digits(4).view("<u4").ravel()
_DIGITS3E = np.column_stack((_ascii_digits(3), np.full(1000, ord("e"), np.uint8))).view("<u4").ravel()
_LEAD = _ascii_words("".join(f"\0{sign}{d}." for sign in "\0-" for d in range(10)))
_EXPONENT = _ascii_words("".join(f"{e:+03d}\0" for e in range(-99, 100)))


def _mantissa(x: np.ndarray, tie: float):
    """The 12-digit integer mantissa m and decimal exponent e of each |x|,
    and a mask `exact`, False where m and e may not print x as "%.11e"
    does: zero, inf, nan, |e| >= 100, and a scaled |x| within `tie` of a
    rounding tie."""
    a = np.abs(x)
    exact = np.isfinite(a) & (a != 0.0)
    a = np.where(exact, a, 1.0)  # log10 and the scaling see no 0, inf or nan
    e = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * _POW10.take(e + 99, mode="clip")
    off = np.flatnonzero((scaled < 1e11) | (scaled >= 1e12))  # log10 one off, or |e| > 99
    e[off] += np.where(scaled[off] < 1e11, -1, 1)
    scaled[off] = a[off] * _POW10.take(e[off] + 99, mode="clip")
    exact &= (np.abs(e) < 100) & (np.abs(scaled - np.floor(scaled) - 0.5) > tie)
    m = np.rint(np.where(exact, scaled, 1e11)).astype(np.int64)
    carry = m == 10**12  # 9.99999999999|5 rounds up to the next decade
    m[carry] = 10**11
    e += carry
    exact &= e < 100
    return m, e, exact


def _format_rows(columns, sep: str) -> np.ndarray:
    """Rows of the equal-length float columns as ASCII text in a uint8
    array: each value exactly as ``"%.11e" % value`` prints it, values
    joined by `sep`, one line per row."""
    block = np.column_stack(columns)
    x = block.ravel()
    m, e, exact = _mantissa(x, _TIE)
    cells = np.empty((x.size, _CELL // 4), "<u4")
    q = m // 1000
    cells[:, 3] = _DIGITS3E.take(m - 1000 * q)
    m = q // 10000
    cells[:, 2] = _DIGITS4.take(q - 10000 * m)
    q = m // 10000
    cells[:, 1] = _DIGITS4.take(m - 10000 * q)
    cells[:, 0] = _LEAD.take(q + 10 * np.signbit(x))
    cells[:, 4] = _EXPONENT.take(np.where(exact, e, 0) + 99) | np.uint32(ord(sep) << 24)
    text = cells.view(np.uint8)
    text.reshape(*block.shape, _CELL)[:, -1, -1] = ord("\n")
    slow = np.flatnonzero(~exact)
    if slow.size:  # right-justified in the cell, leading spaces made pads
        fallback = ("%19.11e" * slow.size) % tuple(x[slow].tolist())
        fallback = np.frombuffer(fallback.replace(" ", "\0").encode(), np.uint8)
        text[slow, : _CELL - 1] = fallback.reshape(slow.size, _CELL - 1)
    return text[text != 0]


def _decibels(s: np.ndarray) -> np.ndarray:
    """20*log10|s| as ``20.0 * math.log10(abs(z))`` gives it where
    ``abs(z) > 0``, else -inf (a NaN magnitude included)."""
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.hypot(s.real, s.imag)  # bit for bit abs(complex); np.abs is not
        db = np.where(mag > 0.0, 20.0 * np.log10(mag), -np.inf)
    near = np.isfinite(db) & ~_mantissa(db, _DB_TIE)[2]
    db[near] = 20.0 * np.array(list(map(math.log10, mag[near].tolist())))
    return db


def _row_blocks(n: int) -> list:
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


def write_response_csv(table: ResponseTable, path) -> None:
    """The package CSV schema, every value as ``%.11e`` (12 significant
    digits; inf, -inf and nan print as such), the dB columns derived from
    S11 and S21. Formatted a block of rows at a time, whole-array; the
    bytes are those of formatting each value on its own."""
    f, s11, s21 = table.frequency, table.s11, table.s21
    with Path(path).open("wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for rows in _row_blocks(len(f)):
            a, b = s11[rows], s21[rows]
            columns = (f[rows], a.real, a.imag, b.real, b.imag, _decibels(a), _decibels(b))
            fh.write(_format_rows(columns, ","))


def _imported_table(path, rows) -> ResponseTable:
    """The table of an imported file's (frequency in Hz, S11, S21) rows, at
    least 2; a table error (frequency ordering or range) names the file."""
    if len(rows) < 2:
        found = "1 data row found; a response needs at least 2" if rows else "no data rows found"
        raise InvalidParameterError(f"{path}: {found}")
    freqs, s11, s21 = zip(*rows)
    f = np.array(freqs, dtype=float)
    columns = f, np.array(s11, dtype=complex), np.array(s21, dtype=complex)
    for column in columns:
        column.setflags(write=False)  # so the table shares it
    try:
        return ResponseTable(*columns)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def _csv_rows(path, lines) -> list:
    """(frequency, S11, S21) rows of the package CSV schema."""
    lines = [ln for ln in lines if ln]
    if lines[0] != CSV_HEADER:
        raise InvalidParameterError(
            f"{path}: not a response CSV (expected header {CSV_HEADER!r})"
        )
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise InvalidParameterError(f"{path}: malformed CSV row {ln!r}")
        vals = _data_row(path, ln, parts)
        rows.append((vals[0], complex(vals[1], vals[2]), complex(vals[3], vals[4])))
    return rows


def write_touchstone(
    freqs,
    s11,
    s21,
    s12,
    s22,
    path,
    port_z: float,
    comments=(),
) -> None:
    """Two-port Touchstone v1, Hz / real-imaginary, one row per frequency,
    every value as ``%.11e``, formatted like the CSV writer's.

    The option-line reference resistance is the real port impedance of the
    run; each line of a comment (angle, polarization) gets its own ``! ``.
    """
    lines = [f"! reference impedance {port_z:.6f} ohm"]
    lines.extend("! " + "\n! ".join(c.splitlines()) for c in comments)
    lines.append(f"# HZ S RI R {port_z:.6f}")
    columns = [np.asarray(freqs, dtype=float)]
    for s in (s11, s21, s12, s22):
        s = np.asarray(s, dtype=complex)
        columns += [s.real, s.imag]
    with Path(path).open("wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for rows in _row_blocks(len(columns[0])):
            fh.write(_format_rows([c[rows] for c in columns], " "))


def _check_reference_resistance(path, token) -> None:
    """Reject an option-line R value that is not a finite positive number."""
    try:
        ok = 0.0 < float(token) < math.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InvalidParameterError(
            f"{path}: option-line R needs a finite positive reference resistance, got {token!r}"
        )


def _touchstone_rows(path, lines) -> list:
    """(frequency in Hz, S11, S21) rows of a two-port Touchstone v1 file (RI,
    MA, or DB formats), sorted by frequency.  The one option line, if any,
    is the first line that is not blank or a comment."""
    fmt = "MA"
    scale = 1e9  # Touchstone v1 default unit is GHz
    rows = []
    started = False  # a line that is not blank or a comment has been read

    def to_complex(a: float, b: float) -> complex:
        if fmt == "RI":
            return complex(a, b)
        if fmt == "MA":
            return cmath.rect(a, math.radians(b))
        return cmath.rect(10.0 ** (a / 20.0), math.radians(b))

    for number, raw in enumerate(lines, start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#") and started:
            raise InvalidParameterError(
                f"{path}: line {number}: option line {line!r} must be the first line "
                "that is not blank or a comment"
            )
        started = True
        if line.startswith("#"):
            tokens = iter(line[1:].split())
            for tok in tokens:
                tok = tok.upper()
                if tok in _FREQ_SCALE:
                    scale = _FREQ_SCALE[tok]
                elif tok in ("RI", "MA", "DB"):
                    fmt = tok
                elif tok == "R":  # checked, but the data are not renormalized to it
                    _check_reference_resistance(path, next(tokens, None))
                elif tok != "S":
                    raise InvalidParameterError(
                        f"{path}: unsupported option-line token {tok!r}"
                    )
            continue
        parts = line.split()
        if len(parts) != 9:
            raise InvalidParameterError(
                f"{path}: expected 9-column two-port rows, got {len(parts)} columns"
            )
        vals = _data_row(path, line, parts)
        if fmt == "MA":  # a negative magnitude would flip the phase by 180 degrees
            negative = [v for v in vals[1::2] if v < 0.0]
            if negative:
                raise InvalidParameterError(
                    f"{path}: line {number}: MA magnitude must not be negative, "
                    f"got {negative[0]!r}"
                )
        try:  # frequency (Hz), S11, S21
            row = (vals[0] * scale, to_complex(*vals[1:3]), to_complex(*vals[3:5]))
        except OverflowError:  # a DB magnitude beyond float range
            row = None
        if row is None or not all(map(cmath.isfinite, row)):
            raise InvalidParameterError(
                f"{path}: non-finite value after conversion in row {line!r}"
            )
        rows.append(row)
    rows.sort(key=lambda r: r[0])
    return rows


def load_response(path) -> ResponseTable:
    """Read the package CSV schema or a Touchstone v1 file.  The file is a
    CSV when its first line that is not blank holds a comma before any
    ``!`` comment and is not a ``#`` option line."""
    lines = [ln.strip() for ln in _text(path).splitlines()]
    first = next((ln.split("!", 1)[0] for ln in lines if ln), "")
    csv = "," in first and not first.startswith("#")
    return _imported_table(path, (_csv_rows if csv else _touchstone_rows)(path, lines))
