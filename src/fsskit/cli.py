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
import os
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (
    SWEEP_POINTS, BandReport, ResponseTable, _grid, band_report, parametric_sweep, sweep,
)
from .constants import C0
from .errors import ConfigError, EmptySweepError, FssError
from .extraction import FirstOrderGeometry, exact_poles, extract_circuit, predict_resonances
from .fileio import load_response, write_response_csv, write_touchstone
from .synthesis import (
    DEFAULT_TANK_L,
    FIRST_ORDER_PARAMS,
    FIT_MAX_ITER,
    SECOND_ORDER_PARAMS,
    TEMPLATES,
    DesignTargets,
    _build_template,
    circuit_from_targets,
    fit_circuit,
    geometry_from_circuit,
)
from .topology import FssStack, Incidence, Substrate, port_impedance, stack_response_full

GHZ = 1e9
NH = 1e-9
PF = 1e-12
MM = 1e-3
# A number's key names its unit; keys without one of these suffixes are
# dimensionless.
_UNITS = {"GHz": GHZ, "nH": NH, "pF": PF, "mm": MM}

_GEOM_KEYS = {
    f"{name}_mm": name for name in ("period", "hat_length", "jc_slot", "cross_slot", "jc_gap")
}


def _element_keys(names) -> dict:
    """Key -> element name: the name plus nH for an inductance (L...), pF for a capacitance."""
    return {f"{n}_{'nH' if n.startswith('L') else 'pF'}": n for n in names}


_CIRCUIT_KEYS = _element_keys(FIRST_ORDER_PARAMS)
_OUTER_KEYS = [dict(zip(("L_nH", "C_pF"), SECOND_ORDER_PARAMS[i:i + 2])) for i in (0, 2)]
_MIDDLE_KEYS = _element_keys(SECOND_ORDER_PARAMS[4:])


def _in_units(keys: dict, values) -> dict:
    """A config block: each key's SI value ``values[keys[key]]`` over the key's unit."""
    return {key: values[name] / _UNITS[key.rsplit("_", 1)[-1]] for key, name in keys.items()}


def _fail(key: str, expected: str):
    raise ConfigError(f"{key}: expected {expected}")


def _positive(v) -> bool:
    return 0 < v < math.inf


def _value(v, path: str, expected: str, ok, scale=1):
    """``v * scale`` if ``v`` is a JSON number, not a boolean, for which
    ``ok`` holds and the product is a finite float (JSON integers are
    unbounded); every numeric config leaf goes through here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not ok(v):
        _fail(path, expected)
    try:
        v *= scale
        if math.isfinite(v):
            return v
    except OverflowError:  # an integer beyond float range
        pass
    _fail(path, f"{expected}, finite in SI units")


def _integer(block: dict, key: str, context: str, default: int, minimum: int) -> int:
    return _value(
        block.get(key, default),
        f"{context}.{key}",
        f"integer >= {minimum}",
        lambda v: isinstance(v, int) and v >= minimum,
    )


def _number(block: dict, key: str, context: str, minimum=None, default=None) -> float:
    """``block[key]`` in SI units, scaled by the unit its key ends with: a
    finite number that is positive, or at least ``minimum`` when given."""
    unit = key.rsplit("_", 1)[-1]
    if minimum is None:
        expected, ok = "positive number", _positive
    else:
        expected, ok = f"number >= {minimum}", lambda v: minimum <= v < math.inf
    return _value(
        block.get(key, default),
        f"{context}.{key}",
        f"{expected} ({unit if unit in _UNITS else 'dimensionless'})",
        ok,
        _UNITS.get(unit, 1.0),
    )


def _block(cfg: dict, key: str, allowed, context: str = "") -> dict:
    """``cfg[key]``, which must be an object with no key outside ``allowed``."""
    path = f"{context}.{key}" if context else key
    if key not in cfg or not isinstance(cfg[key], dict):
        _fail(path, "object")
    _check_keys(cfg[key], allowed, path)
    return cfg[key]


def _check_keys(block: dict, allowed, context: str):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    # every command's blocks, not the running one's: one file may hold them all
    _check_keys(cfg, ("design", "sweep", "incidence", "parametric", "targets", "fit"), str(path))
    return cfg


def _parse_substrate(design: dict) -> Substrate:
    sub = _block(design, "substrate", ("thickness_mm", "eps_r", "tan_delta"), "design")
    return Substrate(
        _number(sub, "thickness_mm", "design.substrate"),
        _number(sub, "eps_r", "design.substrate", minimum=1),
        _number(sub, "tan_delta", "design.substrate", minimum=0, default=0.0),
    )


def _parse_geometry(design: dict, sub: Substrate) -> FirstOrderGeometry:
    geo = _block(design, "geometry", _GEOM_KEYS, "design")
    kwargs = {field: _number(geo, key, "design.geometry") for key, field in _GEOM_KEYS.items()}
    return FirstOrderGeometry(
        thickness=sub.thickness, eps_r=sub.eps_r, tan_delta=sub.tan_delta, **kwargs
    )


def _parse_circuit(design: dict) -> dict:
    """First-order template params (SI) from the design's circuit block."""
    block = _block(design, "circuit", _CIRCUIT_KEYS, "design")
    return {
        name: _number(block, key, "design.circuit", minimum=0, default=0.0)
        if name == "L_parasitic"
        else _number(block, key, "design.circuit")
        for key, name in _CIRCUIT_KEYS.items()
    }


def _read_design(cfg: dict):
    """The part of the design block every command reads: returns (design
    block with its keys checked, substrate, dielectric_loss)."""
    design = _block(
        cfg,
        "design",
        ("order", "circuit", "geometry", "substrate", "dielectric_loss", "outer", "middle"),
    )
    loss = design.get("dielectric_loss", False)
    if not isinstance(loss, bool):
        _fail("design.dielectric_loss", "boolean")
    return design, _parse_substrate(design), loss


def _parse_design(cfg: dict):
    """Returns (stack builder taking an Incidence, geometry-or-None, loss);
    every design becomes fit-template params, built by the template builder."""
    design, sub, loss = _read_design(cfg)
    order = design.get("order", "first")
    if order not in ("first", "second"):
        _fail("design.order", "'first' or 'second'")

    template, geometry = f"{order}_order", None
    if order == "first":
        if ("geometry" in design) == ("circuit" in design):
            raise ConfigError(
                "design: first-order designs need exactly one of 'geometry' or 'circuit'"
            )
        if "geometry" in design:
            geometry = _parse_geometry(design, sub)
            params = asdict(extract_circuit(geometry))
        else:
            params = _parse_circuit(design)
    else:
        if "outer" not in design or "middle" not in design:
            raise ConfigError("design: second-order designs need 'outer' and 'middle' blocks")
        outer = design["outer"]
        if not isinstance(outer, list) or len(outer) != 2:
            _fail("design.outer", "list of two {L_nH, C_pF} objects")
        params = {}
        for i, (keys, entry) in enumerate(zip(_OUTER_KEYS, outer)):
            where = f"design.outer[{i}]"
            if not isinstance(entry, dict):
                _fail(where, "object with L_nH and C_pF")
            _check_keys(entry, keys, where)
            params.update({name: _number(entry, key, where) for key, name in keys.items()})
        middle = _block(design, "middle", _MIDDLE_KEYS, "design")
        params.update({n: _number(middle, k, "design.middle") for k, n in _MIDDLE_KEYS.items()})

    def builder(inc: Incidence) -> FssStack:
        return _build_template(template, params, sub, inc, loss)

    return builder, geometry, loss


def _parse_sweep(cfg: dict):
    blk = _block(cfg, "sweep", ("f_start_GHz", "f_stop_GHz", "n_points", "spacing"))
    f_start = _number(blk, "f_start_GHz", "sweep")
    f_stop = _number(blk, "f_stop_GHz", "sweep")
    if not f_start < f_stop:
        _fail("sweep.f_stop_GHz", "value greater than f_start_GHz")
    n_points = _integer(blk, "n_points", "sweep", SWEEP_POINTS, 2)
    spacing = blk.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        _fail("sweep.spacing", "'linear' or 'log'")
    return f_start, f_stop, n_points, spacing


def _parse_incidence(cfg: dict, single: bool = False):
    """(output file name, Incidence) per theta_deg/polarization pair; no block
    reads as {}.  A ``single`` command takes one pair, normal TE by default."""
    blk = _block({"incidence": {}, **cfg}, "incidence", ("theta_deg", "polarization"))
    if single and any(isinstance(v, list) for v in blk.values()):
        raise ConfigError(
            "incidence: this command takes a single theta_deg/polarization "
            "(lists are for the 'angular' command)"
        )
    thetas = blk.get("theta_deg", [0.0])
    pols = blk.get("polarization", ["TE"] if single else ["TE", "TM"])
    if not isinstance(thetas, list):
        thetas = [thetas]
    if not isinstance(pols, list):
        pols = [pols]
    if not thetas or not pols:
        raise EmptySweepError("incidence: empty theta_deg or polarization list")
    out = []
    entries: dict[str, list] = {}
    for theta in thetas:
        _value(theta, "incidence.theta_deg", "number in [0, 90) (degrees)", lambda v: 0 <= v < 90)
        for pol in pols:
            if pol not in ("TE", "TM"):
                _fail("incidence.polarization", "'TE' or 'TM'")
            name = f"response_{pol.lower()}_{float(theta):g}deg.csv"
            entries.setdefault(name, []).append(f"theta_deg {theta!r} {pol}")
            out.append((name, Incidence(math.radians(float(theta)), pol)))
    clashes = [f"{', '.join(e)} -> {name}" for name, e in entries.items() if len(e) > 1]
    if clashes:
        raise ConfigError(
            "incidence: entries would write the same output file: " + "; ".join(clashes)
        )
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_design(outdir: Path, cfg: dict, design: dict, span, n_points: int, copied=()):
    """design.json, a config that analyze and angular run as is: ``design``, the input's
    substrate, dielectric_loss and ``copied`` blocks, and a linear sweep over ``span`` (Hz)."""
    kept = {k: v for k, v in cfg["design"].items() if k in ("substrate", "dielectric_loss")}
    sweep_block = _in_units({"f_start_GHz": 0, "f_stop_GHz": 1}, span)
    _write_json(outdir / "design.json", {
        "design": {**design, **kept},
        "sweep": {**sweep_block, "n_points": n_points, "spacing": "linear"},
        **{key: cfg[key] for key in copied if key in cfg},
    })


def _write_meta(outdir: Path, command: str, config_path, smooth_ghz):
    meta = {
        "command": command,
        "config": str(config_path),
        "generator": f"fsskit {__version__}",
        "smooth_ghz": smooth_ghz,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(outdir / "run_meta.json", meta)


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
    builder, _, _ = _parse_design(cfg)
    [(_, inc)] = _parse_incidence(cfg, single=True)
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
    (outdir / "band_report.txt").write_text(_band_report_text(band_report(table)))


def _cmd_sweep(cfg, outdir: Path, config_path, smooth_ghz):
    _, geometry, loss = _parse_design(cfg)
    if geometry is None:
        raise ConfigError(
            "sweep: parametric sweeps need a first-order design specified by geometry"
        )
    blk = _block(cfg, "parametric", ("param", "values_mm"))
    param = blk.get("param")
    if param not in _GEOM_KEYS.values():
        _fail("parametric.param", f"one of {sorted(_GEOM_KEYS.values())}")
    values = blk.get("values_mm")
    if not isinstance(values, list):
        _fail("parametric.values_mm", "list of numbers (mm)")
    values = [
        _value(v, "parametric.values_mm", "positive numbers (mm)", _positive, MM) for v in values
    ]
    [(_, inc)] = _parse_incidence(cfg, single=True)
    f_start, f_stop, n_points, spacing = _parse_sweep(cfg)
    if spacing != "linear":
        _fail("sweep.spacing", "'linear' (parametric sweeps run on a linear grid)")

    points = parametric_sweep(
        geometry,
        param,
        values,
        f_start,
        f_stop,
        n_points,
        inc,
        loss,
    )
    with (outdir / "parametric.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        # BandReport's field order is the column order; frequencies are in Hz
        columns = [
            f"{f.name}_hz" if f.name.startswith("f_") or f.name == "separation" else f.name
            for f in fields(BandReport)
        ]
        writer.writerow(["param", "value_m", *columns, "error"])
        for pt in points:
            if pt.report is None:
                metrics = [""] * len(columns) + [pt.error]
            else:
                metrics = [f"{x:.11e}" for x in astuple(pt.report)] + [""]
            writer.writerow([param, f"{pt.value:.11e}"] + metrics)


def _cmd_angular(cfg, outdir: Path, config_path, smooth_ghz):
    builder, _, _ = _parse_design(cfg)
    f_start, f_stop, n_points, spacing = _parse_sweep(cfg)
    for name, inc in _parse_incidence(cfg):
        table = sweep(builder(inc), f_start, f_stop, n_points, spacing)
        write_response_csv(table, outdir / name)


def _cmd_synth(cfg, outdir: Path, config_path, smooth_ghz):
    blk = _block(
        cfg, "targets", ("f_lower_GHz", "f_upper_GHz", "f_zero_GHz", "L_tank_nH", "period_mm")
    )
    f_lower = _number(blk, "f_lower_GHz", "targets")
    f_upper = _number(blk, "f_upper_GHz", "targets")
    f_zero = blk.get("f_zero_GHz")
    if f_zero is not None:
        f_zero = _value(
            f_zero, "targets.f_zero_GHz", "positive number (GHz) or null", _positive, GHZ
        )
    l_tank = _number(blk, "L_tank_nH", "targets", default=DEFAULT_TANK_L / NH)
    # Default period: one fifteenth of the free-space wavelength at the
    # lower band center, the usual subwavelength working point.
    period = _number(blk, "period_mm", "targets", default=(C0 / f_lower) / 15.0 / MM)
    _, sub, _ = _read_design(cfg)

    targets = DesignTargets(f_lower, f_upper, f_zero, l_tank)
    circuit = circuit_from_targets(targets)
    geom = geometry_from_circuit(circuit, period, sub)
    design = {"order": "first", "geometry": _in_units(_GEOM_KEYS, asdict(geom))}
    _write_design(outdir, cfg, design, (f_lower / 2, 2 * f_upper), SWEEP_POINTS)
    # the swept bands of the design as written, read back the way analyze reads it
    written = load_config(outdir / "design.json")
    builder, _, _ = _parse_design(written)
    swept = band_report(sweep(builder(Incidence()), *_parse_sweep(written)))
    lower, upper = exact_poles(circuit)
    bands = {
        "f_lower": (f_lower, lower, swept.f_lower),
        "f_zero": (targets.f_zero, predict_resonances(circuit).f_zero, swept.f_zero),
        "f_upper": (f_upper, upper, swept.f_upper),
    }
    lines = [
        "synthesized first-order design",
        f"circuit    : L_series = {circuit.L_series / NH:.4f} nH, "
        f"C_series = {circuit.C_series / PF:.4f} pF",
        f"             L_tank = {circuit.L_tank / NH:.4f} nH, "
        f"C_tank = {circuit.C_tank / PF:.4f} pF",
        f"geometry   : period = {geom.period / MM:.4f} mm, hat_length = {geom.hat_length / MM:.4f} mm",
        f"             jc_slot = {geom.jc_slot / MM:.4f} mm, jc_gap = {geom.jc_gap / MM:.4f} mm, "
        f"cross_slot = {geom.cross_slot / MM:.4f} mm",
        "band (GHz) :    target    sheet    swept",
        *(f"{name:<10} : " + "".join(f"{f / GHZ:9.4f}" for f in fs) for name, fs in bands.items()),
        "",
    ]
    (outdir / "design_report.txt").write_text("\n".join(lines))


def _cmd_fit(cfg, outdir: Path, config_path, smooth_ghz):
    blk = _block(cfg, "fit", ("data", "template", "initial", "magnitude_only", "max_iter"))
    data_path = blk.get("data")
    if not isinstance(data_path, str) or not data_path:
        _fail("fit.data", "path to a response CSV or Touchstone file")
    data_file = Path(config_path).resolve().parent / data_path  # an absolute path stays as is
    if not data_file.exists():
        raise ConfigError(f"fit.data: file not found: {data_file}")
    template = blk.get("template", "first_order")
    if not isinstance(template, str) or template not in TEMPLATES:
        _fail("fit.template", "'first_order' or 'second_order'")
    # A key missing from the template is left to fit_circuit, which names it.
    keys = _element_keys(TEMPLATES[template])
    initial_block = _block(blk, "initial", keys, "fit")
    initial = {keys[key]: _number(initial_block, key, "fit.initial") for key in initial_block}
    magnitude_only = blk.get("magnitude_only", False)
    if not isinstance(magnitude_only, bool):
        _fail("fit.magnitude_only", "boolean")
    max_iter = _integer(blk, "max_iter", "fit", FIT_MAX_ITER, 0)

    _, sub, loss = _read_design(cfg)
    [(_, inc)] = _parse_incidence(cfg, single=True)

    data = load_response(data_file)
    result = fit_circuit(
        data,
        template,
        initial,
        sub,
        inc,
        dielectric_loss=loss,
        magnitude_only=magnitude_only,
        max_iter=max_iter,
        smooth_hz=None if smooth_ghz is None else smooth_ghz * GHZ,
    )
    kept = ("template", "rms_residual", "iterations")
    _write_json(outdir / "fit_result.json", {key: getattr(result, key) for key in kept})
    if template == "first_order":
        design = {"order": "first", "circuit": _in_units(_CIRCUIT_KEYS, result.params)}
    else:
        outer = [_in_units(keys, result.params) for keys in _OUTER_KEYS]
        middle = _in_units(_MIDDLE_KEYS, result.params)
        design = {"order": "second", "outer": outer, "middle": middle}
    _write_design(outdir, cfg, design, data.frequency[[0, -1]], len(data), ("incidence",))
    with (outdir / "residual_trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "rms_residual"])
        for i, rms in enumerate(result.trace):
            writer.writerow([i, f"{rms:.11e}"])


# Command name -> (handler, help text), in the order of the help listing.
_COMMANDS = {
    "analyze": (_cmd_analyze, "sweep one design and write response + band report"),
    "sweep": (_cmd_sweep, "parametric geometry sweep with per-value band metrics"),
    "angular": (_cmd_angular, "response files over incidence angles and polarizations"),
    "synth": (_cmd_synth, "band targets to circuit values and unit-cell dimensions"),
    "fit": (_cmd_fit, "least-squares fit of circuit values to imported data"),
}
# The one command that takes a --smooth-ghz window: fit averages the data
# and every model trace alike, while on the noiseless model output of the
# other commands a window could only add bias.
_SMOOTHED = "fit"


def run(command: str, config_path, output_dir, smooth_ghz=None) -> None:
    """Execute one command; raises FssError subclasses on failure."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {sorted(_COMMANDS)}")
    if smooth_ghz is not None:
        if command != _SMOOTHED:
            raise ConfigError(f"--smooth-ghz: only {_SMOOTHED!r} takes a window, not {command!r}")
        _value(smooth_ghz, "--smooth-ghz", "finite positive number (GHz)", _positive, GHZ)
    cfg = load_config(config_path)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_meta(outdir, command, config_path, smooth_ghz)
    handler, _ = _COMMANDS[command]
    handler(cfg, outdir, config_path, smooth_ghz)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fsskit",
        description="Model, analyze, and inverse-design dual-band frequency-"
        "selective surfaces via their equivalent circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        if name == _SMOOTHED:
            cmd.add_argument(
                "--smooth-ghz",
                type=float,
                default=None,
                help="moving-average window (GHz) applied to the data and the model",
            )
    args = parser.parse_args(argv)
    try:
        run(args.command, args.config, args.out, getattr(args, "smooth_ghz", None))
    except FssError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    """Console-script entry: run ``main``, flush stdout and stderr, then end
    the process with ``main``'s exit code, skipping interpreter teardown.
    Every file a run writes is closed before ``main`` returns, and nothing
    may rely on running after it (fsskit registers no atexit hook).  A
    flush that fails raises, so a lost write is never reported as exit 0."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with it closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
