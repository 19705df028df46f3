import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fsskit
from fsskit import (
    DesignTargets,
    ResponseTable,
    band_report,
    circuit_from_targets,
    exact_poles,
    extract_circuit,
    geometry_from_circuit,
    load_response,
    predict_resonances,
    topology,
)
from fsskit import cli
from fsskit.analysis import SWEEP_POINTS
from fsskit.cli import main, run
from fsskit.constants import C0
from fsskit.errors import ConfigError, FssError, InvalidParameterError, UnattainableDimensionError
from fsskit.extraction import ExtractedCircuit
from fsskit.fileio import write_touchstone
from fsskit.lumped import SeriesLC, Tank

from conftest import assert_lines_match

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

F_ZERO = 3215415414.85  # transmission zero of the reference circuit


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _load_config(name):
    return json.loads((CONFIGS / name).read_text())


def test_analyze_reference_design(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_first_order.json", out)
    assert (out / "response.csv").exists()
    assert (out / "response.s2p").exists()
    assert (out / "run_meta.json").exists()
    report = (out / "band_report.txt").read_text()
    assert "lower band" in report and "upper band" in report

    table = load_response(out / "response.csv")
    rep = band_report(table)
    assert abs(rep.f_zero - F_ZERO) < 1e6


def test_analyze_outputs_are_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("analyze", CONFIGS / "sc_band_first_order.json", out1)
    run("analyze", CONFIGS / "sc_band_first_order.json", out2)
    for name in ("response.csv", "response.s2p", "band_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# The analyze files for sc_band_first_order.json; a change to the network
# evaluator or the writers must leave them unchanged.  The small text
# outputs are compared byte for byte with their expected lines under
# golden/cli/<case>/, so a mismatch names the lines that moved; the large
# data files keep a SHA-256 digest.
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
LINES = "expected lines"
ANALYZE_GOLDEN = {
    "response.csv": "704854597a2e6f255985fe381c83b147ab7cdba014c368ff4d93080374dfbbdf",
    "response.s2p": "341004188cd46621912256e621c687f44760a88313e9624ad01bee7eb5e5a40c",
    "band_report.txt": LINES,
}


def _assert_golden(out, case, goldens):
    """The files written to ``out``, run_meta.json aside (it carries the
    timestamp), against ``goldens``: each is either ``LINES``, for the
    expected-lines file golden/cli/<case>/<name>, or a SHA-256 digest."""
    assert sorted(p.name for p in out.iterdir() if p.name != "run_meta.json") == sorted(goldens)
    for name, golden in goldens.items():
        data = (out / name).read_bytes()
        if golden == LINES:
            assert_lines_match(data.decode().split("\n"), GOLDEN / case / name)
        else:
            assert hashlib.sha256(data).hexdigest() == golden, name


def test_analyze_golden_bytes(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_first_order.json", out)
    _assert_golden(out, "analyze-first-order", ANALYZE_GOLDEN)


# The same for every other command on its demo config, and for a sweep
# whose points fail (an impossible geometry, a one-band response), so the
# error rows of parametric.csv are pinned too.  The fit cases fit each
# template to the Touchstone file that _write_fit_s2p makes from the demo
# design, starting a few percent off.
COMMAND_GOLDEN = {
    "fit-first-order": ("fit", "sc_band_first_order.json", {"fit": {
        "data": "fit_data.s2p",
        "template": "first_order",
        "initial": {"L_series_nH": 5.1, "C_series_pF": 0.48, "L_tank_nH": 4.2,
                    "C_tank_pF": 0.34, "L_parasitic_nH": 0.9},
    }}, {
        "design.json": "23ae6bd807d11f3606ebb94217ec24c51dfdf0c2c96d128412afdb584f1d3f6b",
        "fit_result.json": LINES,
        "residual_trace.csv": LINES,
    }),
    "fit-second-order": ("fit", "second_order.json", {"fit": {
        "data": "fit_data.s2p",
        "template": "second_order",
        "initial": {"L_outer_a_nH": 5.0, "C_outer_a_pF": 0.49, "L_outer_b_nH": 2.1,
                    "C_outer_b_pF": 0.48, "L_tank_nH": 2.6, "C_tank_pF": 0.29},
    }}, {
        "design.json": "3f12678a57c0d6c8bb4dbe42b7ada9968959a3fed73f4159a2f2c6d72229cb66",
        "fit_result.json": LINES,
        "residual_trace.csv": LINES,
    }),
    "analyze-geometry": ("analyze", "sc_band_geometry.json", {}, {
        "band_report.txt": LINES,
        "response.csv": "9b4f6859c313a2707d6469394e7725dd3277d92d0b61d0c555b0d38789658b38",
        "response.s2p": "16ac56c568d92f659dcbaa05449874eac4d45d394a716039e61bde3ea46690ff",
    }),
    "analyze-second-order": ("analyze", "second_order.json", {}, {
        "band_report.txt": LINES,
        "response.csv": "ffa16bc99fea5eea2055991aeea5211c146532afb3cc5276c1d87760c5383ee3",
        "response.s2p": "5f0600b9f23535693e61467b178b8f7968cfe7884543ae3cfb4337822b42fcc7",
    }),
    "sweep": ("sweep", "parametric_hat_length.json", {}, {
        "parametric.csv": "45f406b252fde4add37a2664bba14cb0d3993035f66da89bab5399a29746dcaa",
    }),
    "sweep-error-rows": ("sweep", "parametric_hat_length.json", {
        "parametric": {"param": "hat_length", "values_mm": [3.0, 9.0, 0.1]},
        "sweep": {"f_start_GHz": 0.5, "f_stop_GHz": 30.0, "n_points": 601},
    }, {
        "parametric.csv": "6018b2ae0c0cd14569bbc0aaa322979c6340c12f89aea245e7670abc6b6dc60b",
    }),
    "angular": ("angular", "angular_scan.json", {}, {
        "response_te_0deg.csv": "1c467d7428f842738a9189329655adfb4c1ab5b8ca2bb8be2be929080f3593ad",
        "response_te_15deg.csv": "e3d7fe8e88078ff826fff90ae64f46813d2a9d14fd07587080665b8f2b1f9808",
        "response_te_30deg.csv": "779146f5b22e1f0b50ca3de307d4c612f23f3b0379e635e07149d180405d29d3",
        "response_te_45deg.csv": "5359772e92418de96de9d69d545605cc01935196fd50b0c961abc8cf06a8a588",
        "response_tm_0deg.csv": "1c467d7428f842738a9189329655adfb4c1ab5b8ca2bb8be2be929080f3593ad",
        "response_tm_15deg.csv": "709112f4fad43c74e7e18533701eccf98b0a998ee035b4ec7fe532c0010e5910",
        "response_tm_30deg.csv": "2ac19b9ab4576812e0f273cc82ef6d51270724eb39fb619d59162780fab3cf02",
        "response_tm_45deg.csv": "181d595cc84f8835f211bf39a3a608a46b2363e049bf55edc4b3f5f9cfe28cad",
    }),
    "synth": ("synth", "synth_targets.json", {}, {
        "design.json": "893d32ded17376644a1c21ff4fc601d63cc5d5346e5e90f36ed10ae923df5189",
        "design_report.txt": LINES,
    }),
}


def _write_fit_s2p(path, template):
    """Noise-free Touchstone data of the demo design of each fit template,
    built with the topology builders rather than through the CLI."""
    if template == "first_order":
        sub = topology.Substrate(0.635e-3, 10.2, 0.0023)
        circuit = ExtractedCircuit(4.9e-9, 0.5e-12, 4.0e-9, 0.35e-12, 0.8e-9)
        stack = topology.build_first_order(circuit, sub)
        freqs = np.linspace(1e9, 12e9, 401)
    else:
        sub = topology.Substrate(3.4e-3, 10.2, 0.0023)
        outer = (SeriesLC(4.9e-9, 0.5e-12), SeriesLC(2.0e-9, 0.5e-12))
        stack = topology.build_second_order(outer, Tank(2.5e-9, 0.3e-12), sub)
        freqs = np.linspace(1.5e9, 4.9e9, 341)
    s11, s21, s22 = topology.stack_response_full(stack, freqs)
    port = topology.port_impedance(topology.Incidence())
    write_touchstone(freqs, s11, s21, s21, s22, path, port)


@pytest.mark.parametrize("case", sorted(COMMAND_GOLDEN))
def test_command_golden_bytes(tmp_path, case):
    command, config, overrides, goldens = COMMAND_GOLDEN[case]
    cfg = dict(_load_config(config), **overrides)
    if command == "fit":
        _write_fit_s2p(tmp_path / cfg["fit"]["data"], cfg["fit"]["template"])
    out = tmp_path / "out"
    run(command, _write(tmp_path, cfg), out)
    _assert_golden(out, case, goldens)


def test_csv_roundtrips_through_importer(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_first_order.json", out)
    table = load_response(out / "response.csv")
    from fsskit.fileio import write_response_csv

    second = tmp_path / "second.csv"
    write_response_csv(table, second)
    again = load_response(second)
    # no loss beyond the printed 12-digit precision
    np.testing.assert_allclose(again.frequency, table.frequency, rtol=1e-11)
    np.testing.assert_allclose(again.s11, table.s11, rtol=0, atol=1e-11)
    np.testing.assert_allclose(again.s21, table.s21, rtol=0, atol=1e-11)
    # the stored columns themselves are byte stable
    for a, b in zip(
        (out / "response.csv").read_text().splitlines(),
        second.read_text().splitlines(),
    ):
        assert a.split(",")[:5] == b.split(",")[:5]


def test_touchstone_option_line(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_first_order.json", out)
    lines = (out / "response.s2p").read_text().splitlines()
    assert "# HZ S RI R 376.730313" in lines


def test_angular_normal_incidence_bodies_identical(tmp_path):
    cfg = _load_config("sc_band_first_order.json")
    cfg["incidence"] = {"theta_deg": [0.0], "polarization": ["TE", "TM"]}
    cfg["sweep"]["n_points"] = 201
    out = tmp_path / "out"
    run("angular", _write(tmp_path, cfg), out)
    te = (out / "response_te_0deg.csv").read_bytes()
    tm = (out / "response_tm_0deg.csv").read_bytes()
    assert te == tm


def test_angular_oblique_files(tmp_path):
    cfg = _load_config("sc_band_first_order.json")
    cfg["incidence"] = {"theta_deg": [0.0, 30.0], "polarization": ["TE", "TM"]}
    cfg["sweep"]["n_points"] = 101
    out = tmp_path / "out"
    run("angular", _write(tmp_path, cfg), out)
    names = sorted(p.name for p in out.glob("response_*.csv"))
    assert names == [
        "response_te_0deg.csv",
        "response_te_30deg.csv",
        "response_tm_0deg.csv",
        "response_tm_30deg.csv",
    ]
    assert (out / "response_te_30deg.csv").read_bytes() != (
        out / "response_tm_30deg.csv"
    ).read_bytes()


def test_angular_rejects_entries_sharing_an_output_file(tmp_path, capsys):
    # 10.0, 10.000001 and 10 all print as "10deg"; six sweeps would leave
    # two files behind
    cfg = _load_config("sc_band_first_order.json")
    cfg["incidence"] = {"theta_deg": [10.0, 10.000001, 10], "polarization": ["TE", "TM"]}
    cfg["sweep"]["n_points"] = 101
    out = tmp_path / "out"
    code = main(["angular", str(_write(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: incidence:")
    assert "\n" not in err.strip()
    for entry in ("theta_deg 10.0 TE", "theta_deg 10.000001 TE", "theta_deg 10 TE",
                  "response_te_10deg.csv", "response_tm_10deg.csv"):
        assert entry in err
    assert not list(out.glob("response_*.csv"))


def test_analyze_evaluates_the_stack_once(tmp_path, monkeypatch):
    calls = []
    engine = topology._response_arrays

    def counted(stack, freqs, want_s22):
        calls.append(np.size(freqs))
        return engine(stack, freqs, want_s22)

    monkeypatch.setattr(topology, "_response_arrays", counted)
    run("analyze", CONFIGS / "sc_band_first_order.json", tmp_path / "out")
    cfg = _load_config("sc_band_first_order.json")
    assert calls == [cfg["sweep"]["n_points"]]


def test_sweep_command(tmp_path):
    cfg = _load_config("parametric_hat_length.json")
    cfg["parametric"]["values_mm"] = [1.0, 3.0]
    cfg["sweep"]["n_points"] = 1401
    out = tmp_path / "out"
    run("sweep", _write(tmp_path, cfg), out)
    rows = (out / "parametric.csv").read_text().splitlines()
    assert rows[0].startswith("param,value_m,f_lower_hz")
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "hat_length"
    assert float(first[2]) > 1e9


def test_sweep_rejects_log_spacing(tmp_path, capsys):
    # parametric sweeps run on a linear grid; a log request is refused
    # instead of being answered with the linear file
    cfg = _load_config("parametric_hat_length.json")
    cfg["parametric"]["values_mm"] = [1.0, 3.0]
    cfg["sweep"]["n_points"] = 601
    outputs = {}
    for spacing in (None, "linear", "log"):
        if spacing is not None:
            cfg["sweep"]["spacing"] = spacing
        out = tmp_path / f"out_{spacing}"
        code = main(["sweep", str(_write(tmp_path, cfg)), "--out", str(out)])
        err = capsys.readouterr().err
        if spacing == "log":
            assert code == 2
            assert err.startswith("error: invalid-config: sweep.spacing: expected 'linear'"), err
            assert not (out / "parametric.csv").exists()
        else:
            assert code == 0, err
            outputs[spacing] = (out / "parametric.csv").read_bytes()
    assert outputs[None] == outputs["linear"]

    # analyze and angular still take a log grid
    for command, name, data in (
        ("analyze", "sc_band_first_order.json", "response.csv"),
        ("angular", "angular_scan.json", "response_te_0deg.csv"),
    ):
        cfg = _load_config(name)
        cfg["sweep"]["spacing"] = "log"
        out = tmp_path / command
        assert main([command, str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / data).read_text().splitlines()[1:]
        f = np.array([float(row.split(",")[0]) for row in rows])
        np.testing.assert_allclose(f, np.geomspace(f[0], f[-1], f.size), rtol=1e-11)


def test_sweep_empty_values_exit_code(tmp_path, capsys):
    cfg = _load_config("parametric_hat_length.json")
    cfg["parametric"]["values_mm"] = []
    code = main(
        ["sweep", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: empty-sweep:")
    assert "\n" not in err.strip()


def _evaluated(monkeypatch):
    """Records each (stack, grid) that the CLI hands to stack_response_full."""
    seen = []
    engine = cli.stack_response_full

    def recorded(stack, freqs):
        seen.append((stack, freqs))
        return engine(stack, freqs)

    monkeypatch.setattr(cli, "stack_response_full", recorded)
    return seen


def _substrate(cfg):
    """The config's substrate in SI units, scaled as the parser scales it."""
    sub = cfg["design"]["substrate"]
    return topology.Substrate(sub["thickness_mm"] * 1e-3, sub["eps_r"], sub["tan_delta"])


def _report_rows(path):
    """design_report.txt's band table: name -> [target, sheet, swept] as printed."""
    lines = path.read_text().splitlines()
    start = lines.index("band (GHz) :    target    sheet    swept") + 1
    return {line.split()[0]: line.split()[2:] for line in lines[start:start + 3]}


def test_synth_command(tmp_path, monkeypatch):
    # analyze runs synth's design.json as is and builds the stack of the
    # synthesized geometry bit for bit (== on nonzero floats), on a linear
    # grid from f_lower/2 to 2 f_upper
    cfg = _load_config(_SYNTH)
    t = cfg["targets"]
    f_lower, f_zero, f_upper = (t[f"{k}_GHz"] * 1e9 for k in ("f_lower", "f_zero", "f_upper"))
    circuit = circuit_from_targets(DesignTargets(f_lower, f_upper, f_zero, t["L_tank_nH"] * 1e-9))
    geom = geometry_from_circuit(circuit, t["period_mm"] * 1e-3, _substrate(cfg))
    run("synth", CONFIGS / _SYNTH, tmp_path / "a")
    seen = _evaluated(monkeypatch)
    run("analyze", tmp_path / "a" / "design.json", tmp_path / "b")
    ((stack, freqs),) = seen
    assert stack == topology.build_first_order(extract_circuit(geom), _substrate(cfg))
    assert np.array_equal(freqs, np.linspace(f_lower / 2, 2 * f_upper, SWEEP_POINTS))
    assert circuit.L_tank == pytest.approx(4e-9)
    pred = predict_resonances(extract_circuit(geom))
    assert pred.f_lower == pytest.approx(2.4e9, rel=1e-6)
    assert pred.f_zero == pytest.approx(3.2154e9, rel=1e-6)
    assert pred.f_upper == pytest.approx(5.8e9, rel=1e-6)
    # the report: each band's target, the collapsed sheet's pole (the series
    # resonance for the null) and the swept band of the design as written
    swept = band_report(ResponseTable(freqs, *topology.stack_response(stack, freqs)))
    lower, upper = exact_poles(circuit)
    sheet_zero = 1 / (2 * math.pi * math.sqrt(circuit.L_series * circuit.C_series))
    expected = {
        "f_lower": (f_lower, lower, swept.f_lower),
        "f_zero": (f_zero, sheet_zero, swept.f_zero),
        "f_upper": (f_upper, upper, swept.f_upper),
    }
    assert (tmp_path / "a" / "design_report.txt").read_text().startswith("synthesized")
    assert _report_rows(tmp_path / "a" / "design_report.txt") == {
        name: [f"{f / 1e9:.4f}" for f in row] for name, row in expected.items()
    }


def test_synth_without_a_zero_target_places_it_at_the_geometric_mean(tmp_path):
    # an omitted targets.f_zero_GHz defaults to sqrt(f_lower * f_upper), and
    # an omitted period_mm to a fifteenth of the lower-band wavelength
    cfg = _config(_SYNTH)
    _set(cfg, "targets.f_zero_GHz", _DELETE)
    _set(cfg, "targets.period_mm", _DELETE)
    _set(cfg, "targets.L_tank_nH", 6.0)  # at 4 nH the hat outgrows the period
    run("synth", _write(tmp_path, cfg), tmp_path / "out")
    f_lower, f_upper = (cfg["targets"][key] * 1e9 for key in ("f_lower_GHz", "f_upper_GHz"))
    circuit = circuit_from_targets(DesignTargets(f_lower, f_upper, None, 6.0 * 1e-9))
    period = (C0 / f_lower) / 15.0 / 1e-3 * 1e-3
    written = cli.load_config(tmp_path / "out" / "design.json")
    _, geom, _ = cli._parse_design(written)
    assert geom == geometry_from_circuit(circuit, period, _substrate(cfg))
    pred = predict_resonances(circuit)
    assert pred.f_zero == pytest.approx(math.sqrt(f_lower * f_upper), rel=1e-12)
    assert pred.f_lower == pytest.approx(f_lower, rel=1e-12)
    rows = _report_rows(tmp_path / "out" / "design_report.txt")
    assert rows["f_zero"][:2] == [f"{math.sqrt(f_lower * f_upper) / 1e9:.4f}"] * 2


def test_fit_command(tmp_path):
    # produce data with the analyze command, then fit it back
    out1 = tmp_path / "data"
    run("analyze", CONFIGS / "sc_band_geometry.json", out1)

    fit_cfg = {
        "design": {
            "order": "first",
            "circuit": {
                "L_series_nH": 4.918,
                "C_series_pF": 0.5115,
                "L_tank_nH": 4.0512,
                "C_tank_pF": 0.3102,
                "L_parasitic_nH": 25.0,
            },
            "substrate": {"thickness_mm": 0.635, "eps_r": 10.2, "tan_delta": 0.0023},
        },
        "incidence": {"theta_deg": 0.0, "polarization": "TE"},
        "fit": {
            "data": str(out1 / "response.csv"),
            "template": "first_order",
            "initial": {
                "L_series_nH": 5.2,
                "C_series_pF": 0.48,
                "L_tank_nH": 3.8,
                "C_tank_pF": 0.33,
                "L_parasitic_nH": 40.0,
            },
            "max_iter": 300,
        },
    }
    out2 = tmp_path / "fit"
    run("fit", _write(tmp_path, fit_cfg), out2)
    result = json.loads((out2 / "fit_result.json").read_text())
    assert sorted(result) == ["iterations", "rms_residual", "template"]
    written = json.loads((out2 / "design.json").read_text())
    circuit = written["design"]["circuit"]
    # the data came from the geometry-extracted circuit with no parasitic
    assert circuit["L_series_nH"] == pytest.approx(4.918046582, rel=1e-3)
    assert circuit["C_series_pF"] == pytest.approx(0.5115165337, rel=1e-3)
    assert circuit["L_tank_nH"] == pytest.approx(4.051191795, rel=1e-3)
    assert circuit["C_tank_pF"] == pytest.approx(0.3102180876, rel=1e-3)
    assert written["design"]["substrate"] == fit_cfg["design"]["substrate"]
    assert written["incidence"] == fit_cfg["incidence"]
    # the data's grid: 1-9 GHz at 1,601 points
    assert written["sweep"] == {"f_start_GHz": 1.0, "f_stop_GHz": 9.0, "n_points": 1601,
                                "spacing": "linear"}
    assert result["rms_residual"] < 1e-6
    # the parasitic the data lack must not pace the fit, and it is never
    # omitted: a trial whose L_parasitic underflows to 0.0 is refused
    assert result["iterations"] <= 40
    assert circuit["L_parasitic_nH"] > 0.0
    trace_rows = (out2 / "residual_trace.csv").read_text().splitlines()
    assert trace_rows[0] == "iteration,rms_residual"
    assert len(trace_rows) >= 3
    rms_values = [float(r.split(",")[1]) for r in trace_rows[1:]]
    assert all(b <= a for a, b in zip(rms_values, rms_values[1:]))


def test_synth_writes_its_design_before_the_band_report(tmp_path, capsys):
    # a 20 mm substrate gives the swept design a third passband: synth fails
    # as analyze does on its design.json, which it leaves behind
    cfg = _config(_SYNTH)
    _set(cfg, "design.substrate.thickness_mm", 20.0)
    cfg["targets"] = {"f_lower_GHz": 2.4, "f_upper_GHz": 4.0, "L_tank_nH": 6.0}
    out = tmp_path / "o"
    assert main(["synth", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: band-structure: expected exactly 2 passbands, found 3"), err
    assert not (out / "design_report.txt").exists()
    assert main(["analyze", str(out / "design.json"), "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == err


def test_unattainable_range_prints_the_widest_slots_positive_inductance(tmp_path):
    # ln(csc x) of the widest slot is formed from the exact complement, so
    # the range's lower end is a small positive inductance, not a rounded 0
    cfg = _config(_SYNTH)
    cfg["targets"] = {"f_lower_GHz": 2.4, "f_upper_GHz": 2.6, "L_tank_nH": 4.0}
    with pytest.raises(UnattainableDimensionError) as exc:
        run("synth", _write(tmp_path, cfg), tmp_path / "o")
    assert "attainable range [2.0547e-27, 3.3763e-08] for dimension 'jc_slot'" in str(exc.value)
    assert math.copysign(1, exc.value.attainable[0]) == 1


@pytest.mark.parametrize("case", ["fit-first-order", "fit-second-order"])
def test_analyze_runs_the_fitted_design_on_the_data_grid(tmp_path, monkeypatch, case):
    _, config, overrides, _ = COMMAND_GOLDEN[case]
    cfg = dict(_load_config(config), **overrides)
    data_file = tmp_path / cfg["fit"]["data"]
    _write_fit_s2p(data_file, cfg["fit"]["template"])
    fits = []
    fit = cli.fit_circuit
    monkeypatch.setattr(cli, "fit_circuit", lambda *a, **k: fits.append(fit(*a, **k)) or fits[-1])
    run("fit", _write(tmp_path, cfg), tmp_path / "fit")
    seen = _evaluated(monkeypatch)
    run("analyze", tmp_path / "fit" / "design.json", tmp_path / "analyze")
    ((stack, freqs),) = seen
    ((template, p),) = [(result.template, result.params) for result in fits]
    sub = _substrate(cfg)
    if template == "first_order":
        fitted = topology.build_first_order(ExtractedCircuit(**p), sub)
    else:
        outer = (SeriesLC(p["L_outer_a"], p["C_outer_a"]), SeriesLC(p["L_outer_b"], p["C_outer_b"]))
        fitted = topology.build_second_order(outer, Tank(p["L_tank"], p["C_tank"]), sub)
    assert stack == fitted  # == on nonzero floats: bit for bit
    data = load_response(data_file)
    assert np.array_equal(freqs, data.frequency)
    _, s21 = topology.stack_response(fitted, data.frequency)
    table = load_response(tmp_path / "analyze" / "response.csv")
    np.testing.assert_allclose(table.s21, s21, rtol=0, atol=1e-11)
    # angular runs it too, at the incidence the fit used
    run("angular", tmp_path / "fit" / "design.json", tmp_path / "angular")
    assert sorted(p.name for p in (tmp_path / "angular").iterdir()) == [
        "response_te_0deg.csv", "run_meta.json"]


def test_angular_reads_a_design_without_incidence_as_normal_incidence(tmp_path):
    run("synth", CONFIGS / _SYNTH, tmp_path / "synth")
    run("angular", tmp_path / "synth" / "design.json", tmp_path / "angular")
    written = {p.name: p.read_bytes() for p in (tmp_path / "angular").iterdir()}
    assert sorted(written) == ["response_te_0deg.csv", "response_tm_0deg.csv", "run_meta.json"]
    assert written["response_te_0deg.csv"] == written["response_tm_0deg.csv"]


def _parsed_params(cfg, monkeypatch):
    """The template params (SI) and the geometry that _parse_design reads."""
    seen = []
    monkeypatch.setattr(cli, "_build_template", lambda template, params, *_: seen.append(params))
    builder, geometry, _ = cli._parse_design(cfg)
    builder(topology.Incidence())
    return seen[0], geometry


@pytest.mark.parametrize("name", ["sc_band_first_order.json", "sc_band_geometry.json",
                                  "second_order.json", "parametric_hat_length.json"])
def test_demo_designs_parse_back_from_what_the_writer_writes(monkeypatch, name):
    # config -> SI -> config -> SI, bit for bit (dict == compares floats by ==)
    cfg = _load_config(name)
    params, geometry = _parsed_params(cfg, monkeypatch)
    design = dict(cfg["design"])
    if geometry is not None:
        design["geometry"] = cli._in_units(cli._GEOM_KEYS, asdict(geometry))
    elif "circuit" in design:
        design["circuit"] = cli._in_units(cli._CIRCUIT_KEYS, params)
    else:
        design["outer"] = [cli._in_units(keys, params) for keys in cli._OUTER_KEYS]
        design["middle"] = cli._in_units(cli._MIDDLE_KEYS, params)
    assert _parsed_params({"design": design}, monkeypatch) == (params, geometry)


@pytest.mark.parametrize("key", ["f_start_GHz", "L_nH", "C_pF", "period_mm"])
def test_unit_round_trip(key):
    # A value that a config number gives comes back bit for bit.  Some SI
    # values lie between the products of two adjacent config floats and the
    # unit: no config number gives them, and they come back one ulp off.
    rng = np.random.default_rng(26)
    unit = cli._UNITS[key.rsplit("_", 1)[-1]]

    def round_trip(si):
        return cli._number(cli._in_units({key: 0}, [si]), key, "t")

    for value in 10.0 ** rng.uniform(-6.0, 6.0, 5000):
        si = cli._number({key: float(value)}, key, "t")
        assert round_trip(si) == si
    off = 0
    for si in unit * 10.0 ** rng.uniform(-6.0, 6.0, 5000) * (1 + rng.uniform(0, 1e-9, 5000)):
        si = float(si)
        off += round_trip(si) != si
        assert abs(round_trip(si) - si) <= math.ulp(si)
    assert 0 < off < 0.1 * 5000


def test_second_order_analyze(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "second_order.json", out)
    rep = band_report(load_response(out / "response.csv"))
    assert rep.f_lower < rep.f_zero < rep.f_upper


def test_config_errors_name_keys(tmp_path, capsys):
    cfg = _load_config("sc_band_first_order.json")
    del cfg["design"]["substrate"]["thickness_mm"]
    code = main(
        ["analyze", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid-config" in err
    assert "design.substrate.thickness_mm" in err
    assert "mm" in err


def test_config_rejects_unknown_keys(tmp_path):
    cfg = _load_config("sc_band_first_order.json")
    cfg["design"]["circuit"]["L_weird_nH"] = 1.0
    with pytest.raises(ConfigError, match="L_weird_nH"):
        run("analyze", _write(tmp_path, cfg), tmp_path / "o")


def test_config_rejects_both_geometry_and_circuit(tmp_path):
    cfg = _load_config("sc_band_first_order.json")
    cfg["design"]["geometry"] = {
        "period_mm": 8.5,
        "hat_length_mm": 6.8,
        "jc_slot_mm": 0.3,
        "cross_slot_mm": 0.2,
        "jc_gap_mm": 0.5,
    }
    with pytest.raises(ConfigError, match="exactly one"):
        run("analyze", _write(tmp_path, cfg), tmp_path / "o")


@pytest.mark.parametrize(
    "text, message",
    [("{", "not valid JSON"), ("[1, 2]", "top level must be a JSON object")],
    ids=["not-json", "not-an-object"],
)
def test_config_text_must_be_a_json_object(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["analyze", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid-config: {config}: {message}")


def test_output_path_that_is_a_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["analyze", str(CONFIGS / _FIRST), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: io-error: ")


def test_fit_data_that_is_a_directory_is_an_io_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(_FIT_CONFIG))
    cfg["fit"]["data"] = str(tmp_path / "data.csv")
    (tmp_path / "data.csv").mkdir()
    out = tmp_path / "o"
    assert main(["fit", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io-error: ") and "data.csv" in err
    assert not (out / "fit_result.json").exists()


def test_unsmoothed_band_report_failure_is_reported_as_is(tmp_path, capsys):
    # 1.5-4 GHz holds only the lower band; the error is reported as the
    # band report raised it, and the data files are still written
    cfg = _load_config(_FIRST)
    cfg["sweep"].update({"f_start_GHz": 1.5, "f_stop_GHz": 4.0})
    out = tmp_path / "o"
    assert main(["analyze", str(_write(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: band-structure: expected exactly 2 passbands, found 1\n"
    assert (out / "response.csv").exists() and not (out / "band_report.txt").exists()


def test_unknown_command():
    with pytest.raises(ConfigError):
        run("paint", CONFIGS / "sc_band_first_order.json", "out")


def test_missing_config_file(tmp_path, capsys):
    code = main(
        ["analyze", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "invalid-config" in capsys.readouterr().err


def test_fit_rejects_bad_data_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(
        "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"
        "1e9,0,0,0.5,0,0,-6\n2e9,0,0,nan,0,0,-6\n3e9,0,0,0.5,0,0,-6\n"
    )
    cfg = {
        "design": {"substrate": {"thickness_mm": 0.635, "eps_r": 10.2}},
        "fit": {"data": str(data), "initial": {"L_series_nH": 4.9}},
    }
    code = main(["fit", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-parameter: ")
    assert "data.csv" in err and "2e9,0,0,nan" in err
    assert "\n" not in err.strip()


_ROW = " 0 0 0.5 0 0.5 0 0 0"


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("data.csv",
         "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"
         "1e9,0,0,0.5,0,0,-6\n3e9,0,0,0.5,0,0,-6\n2e9,0,0,0.5,0,0,-6\n",
         "frequencies must be strictly increasing, but 2000000000.0 Hz follows "
         "3000000000.0 Hz"),
        # Touchstone rows are sorted first, so only a repeated frequency remains
        ("data.s2p", f"# HZ S RI R 50\n3e9{_ROW}\n2e9{_ROW}\n1e9{_ROW}\n2e9{_ROW}\n",
         "frequencies must be strictly increasing, but 2000000000.0 Hz follows "
         "2000000000.0 Hz"),
        ("data.s2p", "# GHZ S MA R 50\n1 0 0 0.5 0 0.5 0 0 0\n2 0 0 -0.5 0 0.5 0 0 0\n",
         "line 3: MA magnitude must not be negative, got -0.5"),
        # 7000 dB is a magnitude of 1e350 and 1e300 GHz is beyond float range in Hz
        ("data.s2p", f"# HZ S DB R 50\n1e9 0 0 7000 0 0 0 0 0\n2e9{_ROW}\n",
         "non-finite value after conversion in row '1e9 0 0 7000 0 0 0 0 0'"),
        ("data.s2p", f"# GHZ S RI R 50\n1{_ROW}\n1e300{_ROW}\n",
         f"non-finite value after conversion in row '1e300{_ROW}'"),
        ("data.csv", "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n1e9,0,0,0.5,0,0,-6\n",
         "1 data row found; a response needs at least 2"),
        # the fit once blamed its start: "initial circuit values are not evaluable"
        ("data.csv",
         "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"
         "0,0,0,0.5,0,0,-6\n1e9,0,0,0.5,0,0,-6\n2e9,0,0,0.5,0,0,-6\n",
         "frequency must lie in [1e3, 1e15] Hz, got 0.0"),
        ("data.s2p", f"# GHZ S RI R 50\n-1{_ROW}\n-2{_ROW}\n1{_ROW}\n",
         "frequency must lie in [1e3, 1e15] Hz, got -2000000000.0"),
        # a spreadsheet export was once read as Touchstone: "expected 9-column
        # two-port rows, got 1 columns"
        ("export.csv", "freq,s21\n1e9,0.5\n2e9,0.5\n",
         "not a response CSV (expected header "
         "'freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db')"),
    ],
    ids=["csv-decreasing", "touchstone-repeated", "touchstone-negative-magnitude",
         "touchstone-db-overflow", "touchstone-ghz-overflow", "csv-one-row", "csv-zero-hz",
         "touchstone-negative-frequency", "csv-foreign-header"],
)
def test_fit_names_the_data_file_and_the_bad_value(tmp_path, capsys, name, text, message):
    data = tmp_path / name
    data.write_text(text)
    cfg = json.loads(json.dumps(_FIT_CONFIG))
    cfg["fit"]["data"] = str(data)
    code = main(["fit", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid-parameter: {data}: {message}\n"


def test_fit_rejects_non_boolean_dielectric_loss(tmp_path, capsys):
    cfg = {
        "design": {
            "substrate": {"thickness_mm": 0.635, "eps_r": 10.2},
            "dielectric_loss": "no",
        },
        "fit": {
            "data": str(CONFIGS / "sc_band_first_order.json"),
            "initial": {"L_series_nH": 4.9},
        },
    }
    code = main(["fit", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: design.dielectric_loss")


def test_fit_data_path_is_read_next_to_the_config_unless_absolute(tmp_path, monkeypatch):
    config_dir, data_dir, cwd = (tmp_path / d for d in ("config", "data", "cwd"))
    for d in (config_dir, data_dir, cwd):
        d.mkdir()
    monkeypatch.chdir(cwd)
    _write_fit_data(data_dir)
    _write_fit_data(config_dir)
    cfg = _config("fit")
    for data, out in ((str(data_dir / "data.csv"), "abs"), ("data.csv", "rel")):
        cfg["fit"]["data"] = data
        assert main(["fit", str(_write(config_dir, cfg)), "--out", str(tmp_path / out)]) == 0
    (data_dir / "data.csv").unlink()  # the absolute path is the only one tried
    cfg["fit"]["data"] = str(data_dir / "data.csv")
    with pytest.raises(ConfigError, match=f"file not found: {data_dir / 'data.csv'}$"):
        run("fit", _write(config_dir, cfg), tmp_path / "o")


@pytest.mark.parametrize("which", ["config", "data"])
def test_files_that_are_not_utf8_are_reported(tmp_path, capsys, which):
    _write_fit_data(tmp_path)
    config = _write(tmp_path, _config("fit"))
    target = config if which == "config" else tmp_path / "data.csv"
    target.write_bytes(b"\xff\xfe" + target.read_bytes())  # a UTF-16 byte-order mark
    code = main(["fit", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if which == "config":
        assert code == 2
        assert err.startswith(f"error: invalid-config: cannot read config {config}: "), err
    else:
        assert code == 1
        assert err.startswith(f"error: invalid-parameter: {target}: not UTF-8 text"), err
    assert err.count("error:") == 1 and err.count("\n") == 1


@pytest.mark.parametrize("which", ["config", "csv", "touchstone"])
def test_files_with_a_utf8_byte_order_mark_are_read(tmp_path, which):
    # spreadsheet "CSV UTF-8" exports start with one: the CSV was sniffed as
    # Touchstone and refused, and the config was invalid JSON
    cfg = _config("fit")
    if which == "touchstone":
        cfg["fit"]["data"] = "data.s2p"
        (tmp_path / "data.s2p").write_text(f"# GHZ S RI R 50\n1{_ROW}\n2{_ROW}\n3{_ROW}\n")
    else:
        _write_fit_data(tmp_path)
    config = _write(tmp_path, cfg)
    target = {"config": config, "csv": tmp_path / "data.csv"}.get(which, tmp_path / "data.s2p")
    run("fit", config, tmp_path / "plain")
    target.write_bytes("\ufeff".encode() + target.read_bytes())
    run("fit", config, tmp_path / "bom")
    design = [(tmp_path / out / "design.json").read_text() for out in ("plain", "bom")]
    assert design[0] == design[1]


def test_parametric_param_takes_the_bare_field_name(tmp_path, capsys):
    cfg = _load_config(_SWEEP)
    cfg["parametric"]["param"] = "hat_length_mm"
    assert main(["sweep", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: parametric.param: expected one of ["), err
    assert "'hat_length'" in err and "_mm" not in err


_FIT_CONFIG = {
    "design": {"substrate": {"thickness_mm": 0.635, "eps_r": 10.2}},
    "fit": {
        "data": "data.csv",
        "template": "first_order",
        "initial": {
            "L_series_nH": 4.9,
            "C_series_pF": 0.5,
            "L_tank_nH": 4.0,
            "C_tank_pF": 0.35,
            "L_parasitic_nH": 0.8,
        },
        "max_iter": 0,
    },
}


def _write_fit_data(tmp_path):
    (tmp_path / "data.csv").write_text(
        "freq_hz,s11_re,s11_im,s21_re,s21_im,s11_db,s21_db\n"
        "1e9,0,0,0.5,0,0,-6\n2e9,0,0,0.5,0,0,-6\n3e9,0,0,0.5,0,0,-6\n"
    )


def _config(base):
    if base == "fit":
        return json.loads(json.dumps(_FIT_CONFIG))
    return _load_config(base)


class _Delete:
    """Marks a leaf to remove; its repr keeps the test id stable across runs."""

    def __repr__(self):
        return "<delete>"


_DELETE = _Delete()


def _set(cfg, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        cfg = cfg[key]
    if value is _DELETE:
        del cfg[leaf]
    else:
        cfg[leaf] = value


def _main_with(tmp_path, command, base, path, value):
    """Exit code of ``command`` on the base config with one leaf set, or
    with one command-line option set when ``path`` starts with "--"."""
    _write_fit_data(tmp_path)
    cfg = _config(base)
    option = [f"{path}={value}"] if path.startswith("--") else []
    if not option:
        _set(cfg, path, value)
    return main([command, str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o"), *option])


_FIRST = "sc_band_first_order.json"
_SECOND = "second_order.json"
_SWEEP = "parametric_hat_length.json"
_ANGULAR = "angular_scan.json"
_SYNTH = "synth_targets.json"
# One malformed leaf (or "--" option) per row: command, base config, the
# leaf and its bad value, then the exit code, the error category and the
# key path the one-line message must start with.
ERROR_CONTRACT = [
    ("analyze", _FIRST, "design.substrate.eps_r", True, 2, "invalid-config",
     "design.substrate.eps_r"),
    ("analyze", _FIRST, "design.substrate.tan_delta", -0.1, 2, "invalid-config",
     "design.substrate.tan_delta"),
    ("analyze", _FIRST, "design.circuit.L_series_nH", "4.9", 2, "invalid-config",
     "design.circuit.L_series_nH"),
    ("analyze", _FIRST, "design.order", "third", 2, "invalid-config", "design.order"),
    ("analyze", _FIRST, "design.dielectric_loss", 1, 2, "invalid-config",
     "design.dielectric_loss"),
    ("analyze", _SECOND, "design.outer", [{"L_nH": 4.9, "C_pF": 0.5}], 2,
     "invalid-config", "design.outer"),
    ("analyze", _SECOND, "design.middle.C_tank_pF", 0, 2, "invalid-config",
     "design.middle.C_tank_pF"),
    ("analyze", _SECOND, "design.middle", _DELETE, 2, "invalid-config",
     "design: second-order designs need 'outer' and 'middle' blocks"),
    ("analyze", _SECOND, "design.outer", [4.9, {"L_nH": 2.0, "C_pF": 0.5}], 2,
     "invalid-config", "design.outer[0]: expected object"),
    ("analyze", _FIRST, "design.substrate", [0.635, 10.2], 2, "invalid-config",
     "design.substrate: expected object"),
    ("analyze", _FIRST, "sweep.n_points", 1, 2, "invalid-config", "sweep.n_points"),
    ("analyze", _FIRST, "sweep.n_points", 2.0, 2, "invalid-config", "sweep.n_points"),
    ("analyze", _FIRST, "sweep.f_stop_GHz", 0.5, 2, "invalid-config", "sweep.f_stop_GHz"),
    ("analyze", _FIRST, "sweep.spacing", "cubic", 2, "invalid-config", "sweep.spacing"),
    ("analyze", _FIRST, "incidence.theta_deg", 95, 2, "invalid-config",
     "incidence.theta_deg"),
    ("analyze", _FIRST, "incidence.theta_deg", -5, 2, "invalid-config",
     "incidence.theta_deg"),
    ("analyze", _FIRST, "incidence.theta_deg", True, 2, "invalid-config",
     "incidence.theta_deg"),
    ("analyze", _FIRST, "incidence.theta_deg", [0.0, 10.0], 2, "invalid-config",
     "incidence: this command takes a single"),
    ("analyze", _FIRST, "incidence.polarization", "XY", 2, "invalid-config",
     "incidence.polarization"),
    ("sweep", _SWEEP, "parametric.values_mm", [1.0, True], 2, "invalid-config",
     "parametric.values_mm"),
    ("sweep", _SWEEP, "parametric.values_mm", [1.0, -2.0], 2, "invalid-config",
     "parametric.values_mm"),
    ("sweep", _SWEEP, "parametric.values_mm", 1.0, 2, "invalid-config",
     "parametric.values_mm: expected list"),
    ("sweep", _SWEEP, "parametric.param", "bogus", 2, "invalid-config",
     "parametric.param"),
    ("sweep", _SWEEP, "parametric.param", ["hat_length"], 2, "invalid-config",
     "parametric.param"),
    ("sweep", _SWEEP, "parametric.param", "hat_length_mm", 2, "invalid-config",
     "parametric.param"),
    ("sweep", _SWEEP, "sweep.spacing", "log", 2, "invalid-config", "sweep.spacing"),
    # a design given by its circuit has no geometry to sweep
    ("sweep", _FIRST, "design.dielectric_loss", True, 2, "invalid-config",
     "sweep: parametric sweeps need"),
    ("angular", _ANGULAR, "incidence.theta_deg", [0.0, True], 2, "invalid-config",
     "incidence.theta_deg"),
    ("angular", _ANGULAR, "incidence.polarization", ["TE", "XY"], 2, "invalid-config",
     "incidence.polarization"),
    ("angular", _ANGULAR, "incidence.theta_deg", [], 1, "empty-sweep", "incidence"),
    ("synth", _SYNTH, "targets.f_zero_GHz", True, 2, "invalid-config",
     "targets.f_zero_GHz"),
    ("synth", _SYNTH, "targets.f_zero_GHz", -1, 2, "invalid-config",
     "targets.f_zero_GHz"),
    ("synth", _SYNTH, "targets.period_mm", 0, 2, "invalid-config", "targets.period_mm"),
    ("fit", "fit", "fit.max_iter", -1, 2, "invalid-config", "fit.max_iter"),
    ("fit", "fit", "fit.data", "", 2, "invalid-config", "fit.data: expected path"),
    ("fit", "fit", "fit.max_iter", True, 2, "invalid-config", "fit.max_iter"),
    ("fit", "fit", "fit.initial.L_tank_nH", True, 2, "invalid-config",
     "fit.initial.L_tank_nH"),
    ("fit", "fit", "fit.initial.C_tank_pF", 0, 2, "invalid-config",
     "fit.initial.C_tank_pF"),
    ("fit", "fit", "fit.initial.L_series", 4.9, 2, "invalid-config", "fit.initial"),
    ("fit", "fit", "fit.magnitude_only", "yes", 2, "invalid-config",
     "fit.magnitude_only"),
    ("fit", "fit", "fit.template", "third_order", 2, "invalid-config", "fit.template"),
    ("fit", "fit", "fit.template", ["first_order"], 2, "invalid-config", "fit.template"),
    ("fit", "fit", "fit.initial.C_tank_pF", _DELETE, 1, "invalid-parameter",
     "initial guess is missing ['C_tank']"),
    # JSON integers are unbounded: a number must convert to a finite float,
    # and stay finite once scaled to SI units
    ("analyze", _FIRST, "design.substrate.eps_r", 10**400, 2, "invalid-config",
     "design.substrate.eps_r"),
    ("analyze", _FIRST, "sweep.f_stop_GHz", 1e300, 2, "invalid-config", "sweep.f_stop_GHz"),
    ("sweep", _SWEEP, "parametric.values_mm", [1.0, 10**400], 2, "invalid-config",
     "parametric.values_mm"),
    ("synth", _SYNTH, "targets.f_zero_GHz", 10**400, 2, "invalid-config",
     "targets.f_zero_GHz"),
    ("fit", "fit", "--smooth-ghz", 1e300, 2, "invalid-config", "--smooth-ghz"),
    # numbers the parser accepts that left the float range on the way (each
    # ended in a traceback): (2*pi*f_upper)**2 overflowed, (2*pi*f_lower)**2
    # underflowed to 0 and was divided by, L_series underflowed to 0, and
    # jc_gap lay so close to the period that the capacitance factor of the
    # hat length rounded to -0.0.  The library's ranges refuse each.
    ("synth", _SYNTH, "targets.f_upper_GHz", 1e160, 1, "invalid-parameter",
     "f_upper must lie in [1e3, 1e15] Hz, got 1e+169"),
    ("synth", _SYNTH, "targets.f_lower_GHz", 1e-200, 1, "invalid-parameter",
     "f_lower must lie in [1e3, 1e15] Hz, got 1e-191"),
    ("synth", _SYNTH, "targets.L_tank_nH", 1e-300, 1, "invalid-parameter",
     "L_tank must lie in [1e-18, 1e6] H, got 1e-309"),
    ("synth", _SYNTH, "targets.period_mm", 1e250, 1, "invalid-parameter",
     "period must lie in [1e-15, 10] m, got 1e+247"),
]


def _case_id(row) -> str:
    """command-leaf-value, with a long run of digits shortened to its length."""
    value = re.sub(r"\d{21,}", lambda m: f"<{len(m.group())} digits>", repr(row[3]))
    return f"{row[0]}-{row[2]}-{value}"


@pytest.mark.parametrize(
    "command,base,path,value,code,category,where",
    ERROR_CONTRACT,
    ids=[_case_id(r) for r in ERROR_CONTRACT],
)
def test_error_contract(tmp_path, capsys, command, base, path, value, code, category, where):
    got = _main_with(tmp_path, command, base, path, value)
    err = capsys.readouterr().err
    assert got == code, err
    assert err.startswith(f"error: {category}: {where}"), err
    assert "\n" not in err.strip()


_LOSSY_OVERFLOW = {
    "design.substrate.eps_r": 1e200,
    "design.substrate.tan_delta": 1e200,
    "design.dielectric_loss": True,
}

# Leaves the parser accepts, set together, whose values left the float
# range on the way (each ended in a traceback) and now lie outside the
# library's ranges: command, base config, the leaves, then the error
# category and the start of its message.
OUT_OF_RANGE = [
    ("analyze", _FIRST, _LOSSY_OVERFLOW, "invalid-parameter", "eps_r must lie in [1, 1e4]"),
    ("angular", _ANGULAR, _LOSSY_OVERFLOW, "invalid-parameter", "eps_r must lie in [1, 1e4]"),
    # (2*pi*f_zero)**2 underflowed to 0 and was divided by
    ("synth", _SYNTH, {"targets.f_lower_GHz": 1e-201, "targets.f_zero_GHz": 1e-200},
     "invalid-parameter", "f_lower must lie in [1e3, 1e15] Hz"),
    # an angle below 90 degrees whose sine rounds to 1 left a refracted
    # cosine of 0 in air, which the oblique line impedance divided by
    ("analyze", _FIRST, {"design.substrate.eps_r": 1.0, "incidence.theta_deg": 89.99999999999999},
     "invalid-parameter",
     "incidence angle must lie in [0, pi/2) with sin(theta) < 1, got 1.5707963267948963"),
    ("angular", _ANGULAR, {"design.substrate.eps_r": 1.0,
                           "incidence.theta_deg": [0.0, 89.99999999999999]},
     "invalid-parameter", "incidence angle must lie in [0, pi/2) with sin(theta) < 1"),
]


@pytest.mark.parametrize(
    "command,base,leaves,category,start",
    OUT_OF_RANGE,
    ids=[f"{r[0]}-{'-'.join(f'{k}={v}' for k, v in r[2].items())}" for r in OUT_OF_RANGE],
)
def test_values_out_of_float_range_end_in_one_error_line(
    tmp_path, capsys, command, base, leaves, category, start
):
    cfg = _config(base)
    for path, value in leaves.items():
        _set(cfg, path, value)
    assert main([command, str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}: {start}") and err.count("\n") == 1, err


def test_sweep_refuses_an_out_of_range_permittivity_before_any_point(tmp_path):
    # the overflowing permittivity was recorded at every point of the sweep;
    # the substrate is now refused as the design is read
    cfg = _config(_SWEEP)
    for path, value in _LOSSY_OVERFLOW.items():
        _set(cfg, path, value)
    with pytest.raises(InvalidParameterError) as info:
        run("sweep", _write(tmp_path, cfg), tmp_path / "o")
    assert str(info.value) == "eps_r must lie in [1, 1e4], got 1e+200"
    assert not (tmp_path / "o" / "parametric.csv").exists()


def _scramble(node, rng):
    """``node`` with each numeric leaf replaced, with probability 1/2, by
    10**U(-300, 300)."""
    if isinstance(node, dict):
        return {key: _scramble(value, rng) for key, value in node.items()}
    if isinstance(node, list):
        return [_scramble(value, rng) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool) and rng.random() < 0.5:
        return 10.0 ** rng.uniform(-300.0, 300.0)
    return node


def test_scrambled_demo_configs_never_end_in_a_traceback(tmp_path):
    # every run either completes or raises FssError, whose one-line form
    # main prints; half the draws evaluate the substrate as lossy
    rng = np.random.default_rng(2023)
    cases = [("analyze", _FIRST), ("angular", _ANGULAR), ("sweep", _SWEEP), ("synth", _SYNTH)]
    past_parsing = set()
    for i in range(120):
        command, base = cases[i % len(cases)]
        cfg = _scramble(_config(base), rng)
        if rng.random() < 0.5:
            cfg["design"]["dielectric_loss"] = True
        try:
            run(command, _write(tmp_path, cfg), tmp_path / f"o{i}")
            past_parsing.add(command)
        except ConfigError:
            pass
        except FssError:
            past_parsing.add(command)
    # no command is refused by the parser on every draw
    assert past_parsing == {command for command, _ in cases}


@pytest.mark.parametrize(
    "command,base,path,value",
    [
        ("analyze", _FIRST, "design.substrate.tan_delta", float("nan")),
        ("analyze", _FIRST, "design.substrate.thickness_mm", float("inf")),
        ("analyze", _FIRST, "design.circuit.L_parasitic_nH", float("nan")),
        ("analyze", _FIRST, "design.circuit.L_parasitic_nH", -0.8),
        ("analyze", _FIRST, "sweep.f_stop_GHz", float("inf")),
        ("sweep", _SWEEP, "parametric.values_mm", [1.0, float("inf")]),
        ("synth", _SYNTH, "targets.f_zero_GHz", float("inf")),
        ("fit", "fit", "fit.initial.L_parasitic_nH", float("inf")),
    ],
)
def test_non_finite_or_negative_numbers_are_config_errors(
    tmp_path, capsys, command, base, path, value
):
    # JSON readers accept NaN and Infinity; a leaf's own key must reject them
    assert _main_with(tmp_path, command, base, path, value) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid-config: {path}")


@pytest.mark.parametrize(
    "template,rename",
    [
        ("first_order", ("L_series_nH", "L_series_pF")),  # a 5.2 pF inductor
        ("first_order", ("L_parasitic_nH", "L_weird_nH")),
        ("second_order", None),  # first-order names under the second-order template
    ],
)
def test_fit_initial_keys_follow_the_template(tmp_path, capsys, template, rename):
    cfg = _config("fit")
    cfg["fit"]["template"] = template
    initial = cfg["fit"]["initial"]
    if rename:
        initial[rename[1]] = initial.pop(rename[0])
    _write_fit_data(tmp_path)
    code = main(["fit", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: fit.initial: unknown key(s)"), err


@pytest.mark.parametrize("command,base", [("fit", "fit"), ("synth", _SYNTH)])
def test_misspelled_design_key_is_a_config_error(tmp_path, capsys, command, base):
    assert _main_with(tmp_path, command, base, "design.dielectric_los", True) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: design: unknown key(s) ['dielectric_los']")


def test_misspelled_top_level_block_is_a_config_error(tmp_path, capsys):
    # one file may hold every command's blocks, so only an unknown name fails
    cfg = _load_config(_FIRST)
    del cfg["incidence"]
    cfg.update(incidance={"theta_deg": 40.0, "polarization": "TM"},
               parametric={}, targets={}, fit={})
    config = _write(tmp_path, cfg)
    assert main(["analyze", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-config: {config}: unknown key(s) ['incidance']"), err
    assert not (tmp_path / "o").exists()
    cfg["incidence"] = cfg.pop("incidance")
    assert main(["analyze", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command,config", [("analyze", _FIRST), ("sweep", _SWEEP),
                                            ("angular", _ANGULAR), ("synth", _SYNTH)])
def test_smooth_flag_is_rejected_where_it_does_nothing(tmp_path, capsys, command, config):
    # a window that fit would take, and ones it would refuse, alike
    for window in ("0.1", "1e300", "inf", "nan"):
        argv = [command, str(CONFIGS / config), "--out", str(tmp_path / "o"),
                f"--smooth-ghz={window}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--smooth-ghz" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,config", [("analyze", _FIRST), ("sweep", _SWEEP),
                                            ("angular", _ANGULAR), ("synth", _SYNTH)])
def test_run_refuses_a_window_for_every_command_but_fit(tmp_path, command, config):
    # run() takes the window as an argument, past argparse; none of these
    # commands would apply it, so none may record it in run_meta.json
    with pytest.raises(ConfigError, match=r"^--smooth-ghz: only 'fit' takes a window"):
        run(command, CONFIGS / config, tmp_path / "o", smooth_ghz=0.05)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,base,window",
    [("analyze", _FIRST, "inf"), ("analyze", _FIRST, "nan"), ("fit", "fit", "inf"),
     ("fit", "fit", "-1")],
)
def test_smooth_window_must_be_finite_and_positive(tmp_path, capsys, command, base, window):
    # fit checks the value; analyze has no flag, and run() refuses a
    # non-finite window there as it refuses any window
    _write_fit_data(tmp_path)
    config = _write(tmp_path, _config(base))
    out = tmp_path / "o"
    if command == "fit":
        assert main([command, str(config), "--out", str(out), f"--smooth-ghz={window}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config: --smooth-ghz: expected finite positive"), err
    else:
        with pytest.raises(ConfigError, match=r"^--smooth-ghz: only 'fit' takes a window"):
            run(command, config, out, smooth_ghz=float(window))
    assert not out.exists()


def test_smooth_window_wider_than_the_data_is_refused(tmp_path, capsys):
    _write_fit_data(tmp_path)
    config = _write(tmp_path, _config("fit"))
    out = tmp_path / "o"
    assert main(["fit", str(config), "--out", str(out), "--smooth-ghz", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: invalid-parameter: window 1000000000000.0 must be below the data span 2000000000.0"
    ), err
    assert not (out / "fit_result.json").exists()


@pytest.mark.parametrize(
    "command,theta", [("analyze", 90.0), ("analyze", 120), ("angular", [0.0, 90.0])]
)
def test_incidence_angle_of_90_degrees_or_more_is_a_config_error(
    tmp_path, capsys, command, theta
):
    cfg = _load_config("sc_band_first_order.json")
    cfg["incidence"] = {"theta_deg": theta, "polarization": "TE"}
    code = main([command, str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: incidence.theta_deg")


def test_smoothed_fit_golden_bytes(tmp_path):
    # the fit-first-order golden case, the smoothed model fitted to its 0.1 GHz
    # moving average
    command, config, overrides, _ = COMMAND_GOLDEN["fit-first-order"]
    cfg = dict(_load_config(config), **overrides)
    _write_fit_s2p(tmp_path / cfg["fit"]["data"], cfg["fit"]["template"])
    out = tmp_path / "out"
    run(command, _write(tmp_path, cfg), out, smooth_ghz=0.1)
    _assert_golden(out, "fit-first-order-smoothed", {
        "design.json": "486c5d20189c5e7e900d58af5db80860c6e7bff1847bdf11d327a28d8665dbb2",
        "fit_result.json": LINES,
        "residual_trace.csv": LINES,
    })


def test_smoothed_fit_recovers_a_noisy_trace(tmp_path):
    # a noisy 801-point trace of the reference circuit, like the one the
    # benchmark's cli cycle fits from the truth; fitting the raw model to the
    # smoothed data instead ends 13% off on L_series
    truth = {"L_series": 4.9e-9, "C_series": 0.5e-12, "L_tank": 4.0e-9,
             "C_tank": 0.35e-12, "L_parasitic": 0.8e-9}
    sub = topology.Substrate(0.635e-3, 10.2, 0.0023)
    stack = topology.build_first_order(ExtractedCircuit(**truth), sub, dielectric_loss=True)
    freqs = np.linspace(1e9, 8e9, 801)
    s11, s21, s22 = topology.stack_response_full(stack, freqs)
    rng = np.random.default_rng(1)
    s21 = s21 + 2e-3 * (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
    write_touchstone(freqs, s11, s21, s21, s22, tmp_path / "bench.s2p",
                     topology.port_impedance(topology.Incidence()))
    cfg = {
        "design": {"substrate": {"thickness_mm": 0.635, "eps_r": 10.2, "tan_delta": 0.0023},
                   "dielectric_loss": True},
        "fit": {
            "data": "bench.s2p",
            "template": "first_order",
            "initial": {f"{name}_{'nH' if name[0] == 'L' else 'pF'}":
                        value / (1e-9 if name[0] == "L" else 1e-12)
                        for name, value in truth.items()},
            "max_iter": 400,
        },
    }
    out = tmp_path / "out"
    assert main(["fit", str(_write(tmp_path, cfg)), "--out", str(out), "--smooth-ghz", "0.1"]) == 0
    circuit = json.loads((out / "design.json").read_text())["design"]["circuit"]
    for name, value in truth.items():
        key, unit = (f"{name}_nH", 1e-9) if name[0] == "L" else (f"{name}_pF", 1e-12)
        assert circuit[key] * unit == pytest.approx(value, rel=0.01), name


@pytest.mark.parametrize("window,command", [(None, "analyze"), (None, "fit"), (0.05, "fit")])
def test_run_meta_records_the_smoothing_window(tmp_path, command, window):
    # rms_residual of fit_result.json compares smoothed traces when a window ran
    if command == "fit":
        cfg = dict(_load_config(_FIRST), **COMMAND_GOLDEN["fit-first-order"][2])
        _write_fit_s2p(tmp_path / "fit_data.s2p", "first_order")
    else:
        cfg = _load_config("sc_band_geometry.json")
    out = tmp_path / "out"
    run(command, _write(tmp_path, cfg), out, smooth_ghz=window)
    assert json.loads((out / "run_meta.json").read_text())["smooth_ghz"] == window


def _cli_process(*args):
    """``python -m fsskit.cli *args`` in a child process, stdout and stderr
    piped; the child imports the same fsskit as this test, installed or not."""
    src = str(Path(fsskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "fsskit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def _digests(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.name != "run_meta.json"
    }


@pytest.mark.parametrize("case", ["analyze-geometry", "sweep", "angular", "synth", "fit-first-order"])
def test_console_entry_writes_the_files_of_an_in_process_run(tmp_path, case):
    # the process ends without interpreter teardown: every file must be
    # complete by then
    command, config, overrides, goldens = COMMAND_GOLDEN[case]
    cfg = dict(_load_config(config), **overrides)
    if command == "fit":
        _write_fit_s2p(tmp_path / cfg["fit"]["data"], cfg["fit"]["template"])
    config = _write(tmp_path, cfg)
    proc = _cli_process(command, config, "--out", tmp_path / "child")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    run(command, config, tmp_path / "in_process")
    assert (tmp_path / "child" / "run_meta.json").exists()
    _assert_golden(tmp_path / "child", case, goldens)
    assert _digests(tmp_path / "child") == _digests(tmp_path / "in_process")


@pytest.mark.parametrize(
    "command,sweep,code,category",
    [
        ("analyze", {"f_start_GHz": 1.5, "f_stop_GHz": 4.0}, 1, "band-structure"),  # one band
        ("sweep", {}, 2, "invalid-config"),  # no geometry to sweep
    ],
    ids=["band-structure", "invalid-config"],
)
def test_console_entry_delivers_the_error_line(tmp_path, capsys, command, sweep, code, category):
    cfg = _load_config(_FIRST)
    cfg["sweep"].update(sweep)
    argv = [command, str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}: ") and err.count("\n") == 1
    proc = _cli_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def test_console_entry_usage_error():
    proc = _cli_process("analyze")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: fsskit analyze")
    assert "the following arguments are required: config, --out" in proc.stderr


class _Stream(io.StringIO):
    """A text stream that logs its flushes to ``events``."""

    def __init__(self, name, events, fail=None):
        super().__init__()
        self.name, self.events, self.fail = name, events, fail

    def flush(self):
        if self.fail is not None:
            raise self.fail
        self.events.append(f"{self.name}.flush")


class _Exited(Exception):
    pass


def _fake_exit(events):
    def _exit(code):
        events.append(("_exit", code))
        raise _Exited  # the real os._exit never returns

    return _exit


def test_entry_flushes_both_streams_then_exits_with_the_code_of_main(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", _fake_exit(events))
    monkeypatch.setattr(sys, "argv", ["fsskit", "analyze", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "o")])
    with pytest.raises(_Exited):
        cli.entry()
    assert events == ["stdout.flush", "stderr.flush", ("_exit", 2)]
    assert sys.stderr.getvalue().startswith("error: invalid-config: cannot read config")


def test_entry_exits_when_started_without_stdout(tmp_path, monkeypatch):
    # a process started with its stdout closed has sys.stdout None
    events = []
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", _fake_exit(events))
    monkeypatch.setattr(sys, "argv", ["fsskit", "synth", str(CONFIGS / _SYNTH),
                                      "--out", str(tmp_path / "o")])
    with pytest.raises(_Exited):
        cli.entry()
    assert events == ["stderr.flush", ("_exit", 0)]
    assert (tmp_path / "o" / "design.json").exists()


def test_entry_raises_a_failed_flush_instead_of_exiting(monkeypatch):
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, fail=BrokenPipeError()))
    monkeypatch.setattr(os, "_exit", _fake_exit(events))
    monkeypatch.setattr(cli, "main", lambda: 0)
    with pytest.raises(BrokenPipeError):
        cli.entry()
    assert events == []


_HELP = {
    "analyze": "sweep one design and write response + band report",
    "sweep": "parametric geometry sweep with per-value band metrics",
    "angular": "response files over incidence angles and polarizations",
    "synth": "band targets to circuit values and unit-cell dimensions",
    "fit": "least-squares fit of circuit values to imported data",
}


def _help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_the_commands_in_order(capsys):
    # parsed, not hashed: argparse's wording and wrapping vary across versions
    lines = _help_text(capsys, ["--help"]).splitlines()
    start = lines.index("  {" + ",".join(_HELP) + "}") + 1
    listed: dict[str, str] = {}
    for line in lines[start:]:
        if not line.startswith("    "):
            break
        if line[4] != " ":
            name, _, text = line.strip().partition(" ")
            listed[name] = text.strip()
        else:  # a help text wrapped onto the next line
            listed[name] += " " + line.strip()
    assert listed == _HELP
    assert list(listed) == list(_HELP)
    for command in _HELP:
        has_smoothing = "--smooth-ghz" in _help_text(capsys, [command, "--help"])
        assert has_smoothing == (command == "fit"), command
