"""Config-driven command line: analyze a design, run parametric and angular
sweeps, synthesize from band targets, fit circuit values to imported data.

Config files are JSON in engineering units (GHz, nH, pF, mm, degrees);
conversion to SI happens once at parse time.  Data files produced by a run
are byte-identical across reruns; the only timestamp lives in the
``run_meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import ResponseTable, _grid, band_report, parametric_sweep, smooth_response, sweep
from .constants import C0
from .errors import ConfigError, EmptySweepError, FssError
from .extraction import ExtractedCircuit, FirstOrderGeometry, extract_circuit, predict_resonances
from .fileio import load_response, write_response_csv, write_touchstone
from .lumped import SeriesLC, Tank
from .synthesis import DesignTargets, circuit_from_targets, fit_circuit, geometry_from_circuit
from .topology import (
    FssStack,
    Incidence,
    Substrate,
    build_first_order,
    build_second_order,
    port_impedance,
    stack_response_full,
)

GHZ = 1e9
NH = 1e-9
PF = 1e-12
MM = 1e-3

_GEOM_KEYS = {
    "period_mm": "period",
    "hat_length_mm": "hat_length",
    "jc_slot_mm": "jc_slot",
    "cross_slot_mm": "cross_slot",
    "jc_gap_mm": "jc_gap",
}
_CIRCUIT_KEYS = {
    "L_series_nH": ("L_series", NH),
    "C_series_pF": ("C_series", PF),
    "L_tank_nH": ("L_tank", NH),
    "C_tank_pF": ("C_tank", PF),
    "L_parasitic_nH": ("L_parasitic", NH),
}


def _fail(key: str, expected: str):
    raise ConfigError(f"{key}: expected {expected}")


def _number(block: dict, key: str, context: str, unit: str, *, positive=True, default=None):
    if key not in block:
        if default is not None:
            return default
        _fail(f"{context}.{key}", f"number ({unit})")
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{context}.{key}", f"number ({unit})")
    if positive and not v > 0:
        _fail(f"{context}.{key}", f"positive number ({unit})")
    return float(v)


def _block(cfg: dict, key: str, context: str = "") -> dict:
    path = f"{context}.{key}" if context else key
    if key not in cfg or not isinstance(cfg[key], dict):
        _fail(path, "object")
    return cfg[key]


def _check_keys(block: dict, allowed, context: str):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _parse_substrate(design: dict) -> Substrate:
    sub = _block(design, "substrate", "design")
    _check_keys(sub, ("thickness_mm", "eps_r", "tan_delta"), "design.substrate")
    thickness = _number(sub, "thickness_mm", "design.substrate", "mm") * MM
    eps_r = _number(sub, "eps_r", "design.substrate", "dimensionless")
    if eps_r < 1.0:
        _fail("design.substrate.eps_r", "number >= 1")
    tan_delta = _number(
        sub, "tan_delta", "design.substrate", "dimensionless", positive=False, default=0.0
    )
    if tan_delta < 0.0:
        _fail("design.substrate.tan_delta", "number >= 0")
    return Substrate(thickness, eps_r, tan_delta)


def _parse_geometry(design: dict, sub: Substrate) -> FirstOrderGeometry:
    geo = _block(design, "geometry", "design")
    _check_keys(geo, _GEOM_KEYS, "design.geometry")
    kwargs = {
        field: _number(geo, key, "design.geometry", "mm") * MM
        for key, field in _GEOM_KEYS.items()
    }
    return FirstOrderGeometry(
        thickness=sub.thickness, eps_r=sub.eps_r, tan_delta=sub.tan_delta, **kwargs
    )


def _parse_circuit(block: dict, context: str) -> ExtractedCircuit:
    _check_keys(block, _CIRCUIT_KEYS, context)
    values = {}
    for key, (field, scale) in _CIRCUIT_KEYS.items():
        if field == "L_parasitic":
            values[field] = (
                _number(block, key, context, "nH", positive=False, default=0.0) * scale
            )
        else:
            values[field] = _number(block, key, context, key.rsplit("_", 1)[1]) * scale
    return ExtractedCircuit(**values)


def _parse_loss(design: dict) -> bool:
    loss = design.get("dielectric_loss", False)
    if not isinstance(loss, bool):
        _fail("design.dielectric_loss", "boolean")
    return loss


def _parse_design(cfg: dict):
    """Returns (stack builder taking an Incidence, substrate, geometry-or-None,
    circuit-or-None, order)."""
    design = _block(cfg, "design")
    _check_keys(
        design,
        ("order", "circuit", "geometry", "substrate", "dielectric_loss", "outer", "middle"),
        "design",
    )
    order = design.get("order", "first")
    if order not in ("first", "second"):
        _fail("design.order", "'first' or 'second'")
    loss = _parse_loss(design)
    sub = _parse_substrate(design)

    if order == "first":
        has_geo = "geometry" in design
        has_cir = "circuit" in design
        if has_geo == has_cir:
            raise ConfigError(
                "design: first-order designs need exactly one of 'geometry' or 'circuit'"
            )
        geometry = _parse_geometry(design, sub) if has_geo else None
        circuit = (
            _parse_circuit(_block(design, "circuit", "design"), "design.circuit")
            if has_cir
            else extract_circuit(geometry)
        )

        def builder(inc: Incidence) -> FssStack:
            return build_first_order(circuit, sub, inc, loss)

        return builder, sub, geometry, circuit, order, loss

    if "outer" not in design or "middle" not in design:
        raise ConfigError("design: second-order designs need 'outer' and 'middle' blocks")
    outer_raw = design["outer"]
    if not isinstance(outer_raw, list) or len(outer_raw) != 2:
        _fail("design.outer", "list of two {L_nH, C_pF} objects")
    branches = []
    for i, entry in enumerate(outer_raw):
        if not isinstance(entry, dict):
            _fail(f"design.outer[{i}]", "object with L_nH and C_pF")
        _check_keys(entry, ("L_nH", "C_pF"), f"design.outer[{i}]")
        branches.append(
            SeriesLC(
                _number(entry, "L_nH", f"design.outer[{i}]", "nH") * NH,
                _number(entry, "C_pF", f"design.outer[{i}]", "pF") * PF,
            )
        )
    middle_block = _block(design, "middle", "design")
    _check_keys(middle_block, ("L_tank_nH", "C_tank_pF"), "design.middle")
    middle = Tank(
        _number(middle_block, "L_tank_nH", "design.middle", "nH") * NH,
        _number(middle_block, "C_tank_pF", "design.middle", "pF") * PF,
    )

    def builder(inc: Incidence) -> FssStack:
        return build_second_order((branches[0], branches[1]), middle, sub, inc, loss)

    return builder, sub, None, None, order, loss


def _parse_sweep(cfg: dict):
    blk = _block(cfg, "sweep")
    _check_keys(blk, ("f_start_GHz", "f_stop_GHz", "n_points", "spacing"), "sweep")
    f_start = _number(blk, "f_start_GHz", "sweep", "GHz") * GHZ
    f_stop = _number(blk, "f_stop_GHz", "sweep", "GHz") * GHZ
    if not f_start < f_stop:
        _fail("sweep.f_stop_GHz", "value greater than f_start_GHz")
    n_points = blk.get("n_points", 1401)
    if isinstance(n_points, bool) or not isinstance(n_points, int) or n_points < 2:
        _fail("sweep.n_points", "integer >= 2")
    spacing = blk.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        _fail("sweep.spacing", "'linear' or 'log'")
    return f_start, f_stop, n_points, spacing


def _parse_incidence_single(cfg: dict) -> Incidence:
    blk = cfg.get("incidence", {"theta_deg": 0.0, "polarization": "TE"})
    if not isinstance(blk, dict):
        _fail("incidence", "object")
    _check_keys(blk, ("theta_deg", "polarization"), "incidence")
    theta = blk.get("theta_deg", 0.0)
    pol = blk.get("polarization", "TE")
    if isinstance(theta, list) or isinstance(pol, list):
        raise ConfigError(
            "incidence: this command takes a single theta_deg/polarization "
            "(lists are for the 'angular' command)"
        )
    if isinstance(theta, bool) or not isinstance(theta, (int, float)) or not 0 <= theta < 90:
        _fail("incidence.theta_deg", "number in [0, 90) (degrees)")
    if pol not in ("TE", "TM"):
        _fail("incidence.polarization", "'TE' or 'TM'")
    return Incidence(math.radians(float(theta)), pol)


def _parse_incidence_lists(cfg: dict):
    blk = _block(cfg, "incidence")
    _check_keys(blk, ("theta_deg", "polarization"), "incidence")
    thetas = blk.get("theta_deg", [0.0])
    pols = blk.get("polarization", ["TE", "TM"])
    if not isinstance(thetas, list):
        thetas = [thetas]
    if not isinstance(pols, list):
        pols = [pols]
    if not thetas or not pols:
        raise EmptySweepError("incidence: empty theta_deg or polarization list")
    out = []
    entries: dict[str, list] = {}
    for theta in thetas:
        if isinstance(theta, bool) or not isinstance(theta, (int, float)) or not 0 <= theta < 90:
            _fail("incidence.theta_deg", "numbers in [0, 90) (degrees)")
        for pol in pols:
            if pol not in ("TE", "TM"):
                _fail("incidence.polarization", "'TE' or 'TM' entries")
            name = f"response_{pol.lower()}_{float(theta):g}deg.csv"
            entries.setdefault(name, []).append(f"theta_deg {theta!r} {pol}")
            out.append((name, Incidence(math.radians(float(theta)), pol)))
    clashes = [f"{', '.join(e)} -> {name}" for name, e in entries.items() if len(e) > 1]
    if clashes:
        raise ConfigError(
            "incidence: entries would write the same output file: " + "; ".join(clashes)
        )
    return out


def _apply_smoothing(table, smooth_ghz):
    if smooth_ghz is None:
        return table
    return smooth_response(table, smooth_ghz * GHZ)


def _write_meta(outdir: Path, command: str, config_path):
    meta = {
        "command": command,
        "config": str(config_path),
        "generator": f"fsskit {__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (outdir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _band_report_text(rep) -> str:
    return "\n".join(
        [
            "dual-band report",
            f"lower band : f = {rep.f_lower / GHZ:.6f} GHz  IL = {rep.il_lower_db:.3f} dB"
            f"  BW = {100.0 * rep.bw_lower:.2f}%",
            f"null       : f = {rep.f_zero / GHZ:.6f} GHz",
            f"upper band : f = {rep.f_upper / GHZ:.6f} GHz  IL = {rep.il_upper_db:.3f} dB"
            f"  BW = {100.0 * rep.bw_upper:.2f}%",
            f"separation : {rep.separation / GHZ:.6f} GHz",
            "",
        ]
    )


def _cmd_analyze(cfg, outdir: Path, config_path, smooth_ghz):
    """Response files carry the raw model data; smoothing (if any) applies
    only to the band report, mirroring how measured traces are treated."""
    builder, _, _, _, _, _ = _parse_design(cfg)
    inc = _parse_incidence_single(cfg)
    f_start, f_stop, n_points, spacing = _parse_sweep(cfg)
    freqs = _grid(f_start, f_stop, n_points, spacing)
    s11, s21, s22 = stack_response_full(builder(inc), freqs)
    table = ResponseTable(freqs, s11, s21)

    write_response_csv(table, outdir / "response.csv")
    port = port_impedance(inc)
    write_touchstone(
        freqs,
        s11,
        s21,
        s21,
        s22,
        outdir / "response.s2p",
        port,
        comments=(
            f"incidence theta = {math.degrees(inc.theta):.3f} deg, "
            f"polarization = {inc.polarization}",
        ),
    )
    rep = band_report(_apply_smoothing(table, smooth_ghz))
    (outdir / "band_report.txt").write_text(_band_report_text(rep))


def _cmd_sweep(cfg, outdir: Path, config_path, smooth_ghz):
    builder, sub, geometry, _, order, loss = _parse_design(cfg)
    if order != "first" or geometry is None:
        raise ConfigError(
            "sweep: parametric sweeps need a first-order design specified by geometry"
        )
    blk = _block(cfg, "parametric")
    _check_keys(blk, ("param", "values_mm"), "parametric")
    param_key = blk.get("param")
    if param_key not in _GEOM_KEYS and param_key not in _GEOM_KEYS.values():
        _fail("parametric.param", f"one of {sorted(_GEOM_KEYS)}")
    param = _GEOM_KEYS.get(param_key, param_key)
    values = blk.get("values_mm")
    if not isinstance(values, list):
        _fail("parametric.values_mm", "list of numbers (mm)")
    if not values:
        raise EmptySweepError("parametric.values_mm: empty sweep")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            _fail("parametric.values_mm", "positive numbers (mm)")
    inc = _parse_incidence_single(cfg)
    f_start, f_stop, n_points, _ = _parse_sweep(cfg)

    points = parametric_sweep(
        geometry,
        param,
        [v * MM for v in values],
        f_start,
        f_stop,
        n_points,
        inc,
        loss,
    )
    with (outdir / "parametric.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "param",
                "value_m",
                "f_lower_hz",
                "f_zero_hz",
                "f_upper_hz",
                "bw_lower",
                "bw_upper",
                "il_lower_db",
                "il_upper_db",
                "separation_hz",
                "error",
            ]
        )
        for pt in points:
            if pt.report is None:
                writer.writerow([param, f"{pt.value:.11e}"] + [""] * 8 + [pt.error])
            else:
                r = pt.report
                writer.writerow(
                    [
                        param,
                        f"{pt.value:.11e}",
                        f"{r.f_lower:.11e}",
                        f"{r.f_zero:.11e}",
                        f"{r.f_upper:.11e}",
                        f"{r.bw_lower:.11e}",
                        f"{r.bw_upper:.11e}",
                        f"{r.il_lower_db:.11e}",
                        f"{r.il_upper_db:.11e}",
                        f"{r.separation:.11e}",
                        "",
                    ]
                )


def _cmd_angular(cfg, outdir: Path, config_path, smooth_ghz):
    builder, _, _, _, _, _ = _parse_design(cfg)
    f_start, f_stop, n_points, spacing = _parse_sweep(cfg)
    for name, inc in _parse_incidence_lists(cfg):
        table = sweep(builder(inc), f_start, f_stop, n_points, spacing)
        write_response_csv(table, outdir / name)


def _cmd_synth(cfg, outdir: Path, config_path, smooth_ghz):
    blk = _block(cfg, "targets")
    _check_keys(
        blk,
        ("f_lower_GHz", "f_upper_GHz", "f_zero_GHz", "L_tank_nH", "period_mm"),
        "targets",
    )
    f_lower = _number(blk, "f_lower_GHz", "targets", "GHz") * GHZ
    f_upper = _number(blk, "f_upper_GHz", "targets", "GHz") * GHZ
    f_zero = blk.get("f_zero_GHz")
    if f_zero is not None:
        if isinstance(f_zero, bool) or not isinstance(f_zero, (int, float)) or f_zero <= 0:
            _fail("targets.f_zero_GHz", "positive number (GHz) or null")
        f_zero = float(f_zero) * GHZ
    l_tank = _number(blk, "L_tank_nH", "targets", "nH", default=4.0) * NH
    # Default period: one fifteenth of the free-space wavelength at the
    # lower band center, the usual subwavelength working point.
    period = _number(
        blk, "period_mm", "targets", "mm", default=(C0 / f_lower) / 15.0 / MM
    ) * MM
    design = _block(cfg, "design")
    sub = _parse_substrate(design)

    targets = DesignTargets(f_lower, f_upper, f_zero, l_tank)
    circuit = circuit_from_targets(targets)
    geom = geometry_from_circuit(circuit, period, sub)
    pred = predict_resonances(circuit)

    payload = {
        "circuit": {
            "L_series_H": circuit.L_series,
            "C_series_F": circuit.C_series,
            "L_tank_H": circuit.L_tank,
            "C_tank_F": circuit.C_tank,
            "L_parasitic_H": circuit.L_parasitic,
        },
        "geometry": {
            "period_m": geom.period,
            "hat_length_m": geom.hat_length,
            "jc_slot_m": geom.jc_slot,
            "cross_slot_m": geom.cross_slot,
            "jc_gap_m": geom.jc_gap,
            "thickness_m": geom.thickness,
            "eps_r": geom.eps_r,
            "tan_delta": geom.tan_delta,
        },
        "predicted": {
            "f_lower_Hz": pred.f_lower,
            "f_zero_Hz": pred.f_zero,
            "f_upper_Hz": pred.f_upper,
        },
    }
    (outdir / "design.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = [
        "synthesized first-order design",
        f"targets    : f_lower = {f_lower / GHZ:.4f} GHz, f_upper = {f_upper / GHZ:.4f} GHz",
        f"circuit    : L_series = {circuit.L_series / NH:.4f} nH, "
        f"C_series = {circuit.C_series / PF:.4f} pF",
        f"             L_tank = {circuit.L_tank / NH:.4f} nH, "
        f"C_tank = {circuit.C_tank / PF:.4f} pF",
        f"geometry   : period = {geom.period / MM:.4f} mm, hat_length = {geom.hat_length / MM:.4f} mm",
        f"             jc_slot = {geom.jc_slot / MM:.4f} mm, jc_gap = {geom.jc_gap / MM:.4f} mm, "
        f"cross_slot = {geom.cross_slot / MM:.4f} mm",
        f"predicted  : f_lower = {pred.f_lower / GHZ:.4f} GHz, f_zero = {pred.f_zero / GHZ:.4f} GHz, "
        f"f_upper = {pred.f_upper / GHZ:.4f} GHz",
        "",
    ]
    (outdir / "design_report.txt").write_text("\n".join(lines))


def _cmd_fit(cfg, outdir: Path, config_path, smooth_ghz):
    blk = _block(cfg, "fit")
    _check_keys(
        blk, ("data", "template", "initial", "magnitude_only", "max_iter"), "fit"
    )
    data_path = blk.get("data")
    if not isinstance(data_path, str) or not data_path:
        _fail("fit.data", "path to a response CSV or Touchstone file")
    data_file = Path(data_path)
    if not data_file.is_absolute():
        data_file = Path(config_path).resolve().parent / data_file
    if not data_file.exists():
        raise ConfigError(f"fit.data: file not found: {data_file}")
    template = blk.get("template", "first_order")
    if template not in ("first_order", "second_order"):
        _fail("fit.template", "'first_order' or 'second_order'")
    initial_block = _block(blk, "initial", "fit")
    initial = {}
    for key, raw in initial_block.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw <= 0:
            _fail(f"fit.initial.{key}", "positive number")
        if key.endswith("_nH"):
            initial[key[:-3]] = float(raw) * NH
        elif key.endswith("_pF"):
            initial[key[:-3]] = float(raw) * PF
        else:
            _fail(f"fit.initial.{key}", "key suffixed with _nH or _pF")
    magnitude_only = blk.get("magnitude_only", False)
    if not isinstance(magnitude_only, bool):
        _fail("fit.magnitude_only", "boolean")
    max_iter = blk.get("max_iter", 200)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 0:
        _fail("fit.max_iter", "integer >= 0")

    design = _block(cfg, "design")
    sub = _parse_substrate(design)
    loss = _parse_loss(design)
    inc = _parse_incidence_single(cfg)

    data = _apply_smoothing(load_response(data_file), smooth_ghz)
    result = fit_circuit(
        data,
        template,
        initial,
        sub,
        inc,
        dielectric_loss=loss,
        magnitude_only=magnitude_only,
        max_iter=max_iter,
    )
    payload = {
        "template": result.template,
        "params_SI": dict(sorted(result.params.items())),
        "rms_residual": result.rms_residual,
        "iterations": result.iterations,
    }
    (outdir / "fit_result.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    with (outdir / "residual_trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "rms_residual"])
        for i, rms in enumerate(result.trace):
            writer.writerow([i, f"{rms:.11e}"])


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "angular": _cmd_angular,
    "synth": _cmd_synth,
    "fit": _cmd_fit,
}


def run(command: str, config_path, output_dir, smooth_ghz=None) -> None:
    """Execute one command; raises FssError subclasses on failure."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {sorted(_COMMANDS)}")
    cfg = load_config(config_path)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_meta(outdir, command, config_path)
    _COMMANDS[command](cfg, outdir, config_path, smooth_ghz)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fsskit",
        description="Model, analyze, and inverse-design dual-band frequency-"
        "selective surfaces via their equivalent circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "sweep one design and write response + band report"),
        ("sweep", "parametric geometry sweep with per-value band metrics"),
        ("angular", "response files over incidence angles and polarizations"),
        ("synth", "band targets to circuit values and unit-cell dimensions"),
        ("fit", "least-squares fit of circuit values to imported data"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument(
            "--smooth-ghz",
            type=float,
            default=None,
            help="moving-average window (GHz) applied before reporting/fitting",
        )
    args = parser.parse_args(argv)
    try:
        run(args.command, args.config, args.out, args.smooth_ghz)
    except ConfigError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except FssError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
