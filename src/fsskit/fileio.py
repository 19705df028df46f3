"""Response-table readers and writers: the package CSV schema and
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


def _db(z: complex) -> float:
    mag = abs(z)
    return 20.0 * math.log10(mag) if mag > 0.0 else -math.inf


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


def _write_rows(fh, columns, sep: str) -> None:
    """One line per row of the stacked columns, every value as ``%.11e``
    (12 significant digits; inf, -inf and nan print as such), formatted a
    block of rows at a time."""
    block = np.column_stack(columns)
    row = sep.join(["%.11e"] * block.shape[1])
    for start in range(0, len(block), _BLOCK_ROWS):
        chunk = block[start : start + _BLOCK_ROWS]
        fh.write("\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
        fh.write("\n")


def write_response_csv(table: ResponseTable, path) -> None:
    # dB through abs(complex) and math.log10: numpy's vector log10 can
    # differ in the last bit, which would change printed digits.
    s11_db = [_db(z) for z in table.s11.tolist()]
    s21_db = [_db(z) for z in table.s21.tolist()]
    columns = (
        table.frequency,
        table.s11.real,
        table.s11.imag,
        table.s21.real,
        table.s21.imag,
        s11_db,
        s21_db,
    )
    with Path(path).open("w") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, columns, ",")


def read_response_csv(path) -> ResponseTable:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidParameterError(
            f"{path}: not a response CSV (expected header {CSV_HEADER!r})"
        )
    freqs, s11, s21 = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise InvalidParameterError(f"{path}: malformed CSV row {ln!r}")
        vals = _data_row(path, ln, parts)
        freqs.append(vals[0])
        s11.append(complex(vals[1], vals[2]))
        s21.append(complex(vals[3], vals[4]))
    return ResponseTable(np.array(freqs), np.array(s11), np.array(s21))


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
    """Two-port Touchstone v1, Hz / real-imaginary, one row per frequency.

    The option-line reference resistance is the real port impedance of the
    run; extra context (angle, polarization) goes into comment lines.
    """
    lines = [f"! reference impedance {port_z:.6f} ohm"]
    lines.extend(f"! {c}" for c in comments)
    lines.append(f"# HZ S RI R {port_z:.6f}")
    columns = [np.asarray(freqs, dtype=float)]
    for s in (s11, s21, s12, s22):
        s = np.asarray(s, dtype=complex)
        columns += [s.real, s.imag]
    with Path(path).open("w") as fh:
        fh.write("\n".join(lines) + "\n")
        _write_rows(fh, columns, " ")


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


def read_touchstone(path) -> ResponseTable:
    """Parse a two-port Touchstone v1 file (RI, MA, or DB formats)."""
    fmt = "MA"
    scale = 1e9  # Touchstone v1 default unit is GHz
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            i = 0
            while i < len(tokens):
                tok = tokens[i].upper()
                if tok in _FREQ_SCALE:
                    scale = _FREQ_SCALE[tok]
                elif tok in ("RI", "MA", "DB"):
                    fmt = tok
                elif tok == "R":  # checked, but the data are not renormalized to it
                    i += 1
                    _check_reference_resistance(path, tokens[i] if i < len(tokens) else None)
                elif tok == "S":
                    pass
                else:
                    raise InvalidParameterError(
                        f"{path}: unsupported option-line token {tok!r}"
                    )
                i += 1
            continue
        parts = line.split()
        if len(parts) != 9:
            raise InvalidParameterError(
                f"{path}: expected 9-column two-port rows, got {len(parts)} columns"
            )
        rows.append(_data_row(path, line, parts))
    if not rows:
        raise InvalidParameterError(f"{path}: no data rows found")

    def to_complex(a: float, b: float) -> complex:
        if fmt == "RI":
            return complex(a, b)
        if fmt == "MA":
            return cmath.rect(a, math.radians(b))
        return cmath.rect(10.0 ** (a / 20.0), math.radians(b))

    rows.sort(key=lambda r: r[0])
    freqs = np.array([r[0] * scale for r in rows])
    s11 = np.array([to_complex(r[1], r[2]) for r in rows])
    s21 = np.array([to_complex(r[3], r[4]) for r in rows])
    return ResponseTable(freqs, s11, s21)


def load_response(path) -> ResponseTable:
    """Read either the package CSV schema or a Touchstone v1 file, sniffing
    by content."""
    first = ""
    for raw in Path(path).read_text().splitlines():
        if raw.strip():
            first = raw.strip()
            break
    if first == CSV_HEADER:
        return read_response_csv(path)
    return read_touchstone(path)
