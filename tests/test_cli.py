import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsskit
from fsskit import band_report, extract_circuit, load_response, predict_resonances, topology
from fsskit.cli import main, run
from fsskit.errors import ConfigError
from fsskit.extraction import ExtractedCircuit
from fsskit.fileio import write_touchstone
from fsskit.lumped import SeriesLC, Tank

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


# SHA-256 of the analyze data files for sc_band_first_order.json; a change
# to the network evaluator or the writers must leave them unchanged.
GOLDEN_SHA256 = {
    "response.csv": "704854597a2e6f255985fe381c83b147ab7cdba014c368ff4d93080374dfbbdf",
    "response.s2p": "341004188cd46621912256e621c687f44760a88313e9624ad01bee7eb5e5a40c",
    "band_report.txt": "7d0fbf92ed1b06a29c5b6758acbbedfa803055387a05ce2790b4810e9899074f",
}


def test_analyze_golden_bytes(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_first_order.json", out)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# The same for every other command on its demo config, and for a sweep
# whose points fail (an impossible geometry, a one-band response), so the
# error rows of parametric.csv are pinned too.  The fit cases fit each
# template to the Touchstone file that _write_fit_s2p makes from the demo
# design, starting a few percent off.  run_meta.json is the only file left
# out: it carries the timestamp.
COMMAND_GOLDEN_SHA256 = {
    "fit-first-order": ("fit", "sc_band_first_order.json", {"fit": {
        "data": "fit_data.s2p",
        "template": "first_order",
        "initial": {"L_series_nH": 5.1, "C_series_pF": 0.48, "L_tank_nH": 4.2,
                    "C_tank_pF": 0.34, "L_parasitic_nH": 0.9},
    }}, {
        "fit_result.json": "ce833dcc43c8c6accf060bce7c0a3ff43eb61e5fbd6c95cc297d2a63027535db",
        "residual_trace.csv": "a2f668393fe0d452990b1a17925e81d412da6212d723115c6f221a188c2f3592",
    }),
    "fit-second-order": ("fit", "second_order.json", {"fit": {
        "data": "fit_data.s2p",
        "template": "second_order",
        "initial": {"L_outer_a_nH": 5.0, "C_outer_a_pF": 0.49, "L_outer_b_nH": 2.1,
                    "C_outer_b_pF": 0.48, "L_tank_nH": 2.6, "C_tank_pF": 0.29},
    }}, {
        "fit_result.json": "b3da3e7def2da564b89ee80d238600d115313cedf30fc26bdd9b185e0bdca880",
        "residual_trace.csv": "fdcd668396430b10ab9c36a19f535d913d2b143d3d4df1cf212c293998105569",
    }),
    "analyze-geometry": ("analyze", "sc_band_geometry.json", {}, {
        "band_report.txt": "bb203bfde5b33584543d519605d6cba9b0bb6de0d277a9c6154cfd11db1a2980",
        "response.csv": "9b4f6859c313a2707d6469394e7725dd3277d92d0b61d0c555b0d38789658b38",
        "response.s2p": "16ac56c568d92f659dcbaa05449874eac4d45d394a716039e61bde3ea46690ff",
    }),
    "analyze-second-order": ("analyze", "second_order.json", {}, {
        "band_report.txt": "2355f2cf2058fa4a465af332215969129c60a2c888329b1241a7db1b2ef0832f",
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
        "design.json": "36b30c743cc33eafc76bde3a9fed477758f02c17f7b0e994b820559927eec4c7",
        "design_report.txt": "f21aaa2bfa4f6767d8d44692d0bdc10c91e2327c330475d4155fc81d1472eda4",
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


@pytest.mark.parametrize("case", sorted(COMMAND_GOLDEN_SHA256))
def test_command_golden_bytes(tmp_path, case):
    command, config, overrides, digests = COMMAND_GOLDEN_SHA256[case]
    cfg = dict(_load_config(config), **overrides)
    if command == "fit":
        _write_fit_s2p(tmp_path / cfg["fit"]["data"], cfg["fit"]["template"])
    out = tmp_path / "out"
    run(command, _write(tmp_path, cfg), out)
    written = sorted(p.name for p in out.iterdir() if p.name != "run_meta.json")
    assert written == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def test_synth_command(tmp_path):
    out = tmp_path / "out"
    run("synth", CONFIGS / "synth_targets.json", out)
    design = json.loads((out / "design.json").read_text())
    assert design["circuit"]["L_tank_H"] == pytest.approx(4e-9)
    # synthesized geometry reproduces the requested circuit
    from fsskit import FirstOrderGeometry

    geom = FirstOrderGeometry(
        period=design["geometry"]["period_m"],
        hat_length=design["geometry"]["hat_length_m"],
        jc_slot=design["geometry"]["jc_slot_m"],
        cross_slot=design["geometry"]["cross_slot_m"],
        jc_gap=design["geometry"]["jc_gap_m"],
        thickness=design["geometry"]["thickness_m"],
        eps_r=design["geometry"]["eps_r"],
    )
    circuit = extract_circuit(geom)
    assert circuit.L_series == pytest.approx(design["circuit"]["L_series_H"], rel=1e-6)
    pred = predict_resonances(circuit)
    assert pred.f_lower == pytest.approx(2.4e9, rel=1e-6)
    assert pred.f_upper == pytest.approx(5.8e9, rel=1e-6)
    assert (out / "design_report.txt").read_text().startswith("synthesized")


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
    params = result["params_SI"]
    # the data came from the geometry-extracted circuit with no parasitic
    assert params["L_series"] == pytest.approx(4.918046582e-9, rel=1e-3)
    assert params["C_series"] == pytest.approx(5.115165337e-13, rel=1e-3)
    assert params["L_tank"] == pytest.approx(4.051191795e-9, rel=1e-3)
    assert params["C_tank"] == pytest.approx(3.102180876e-13, rel=1e-3)
    assert result["rms_residual"] < 1e-6
    trace_rows = (out2 / "residual_trace.csv").read_text().splitlines()
    assert trace_rows[0] == "iteration,rms_residual"
    assert len(trace_rows) >= 3
    rms_values = [float(r.split(",")[1]) for r in trace_rows[1:]]
    assert all(b <= a for a, b in zip(rms_values, rms_values[1:]))


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
    """Exit code of ``command`` on the base config with one leaf set."""
    _write_fit_data(tmp_path)
    cfg = _config(base)
    _set(cfg, path, value)
    return main([command, str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")])


_FIRST = "sc_band_first_order.json"
_SECOND = "second_order.json"
_SWEEP = "parametric_hat_length.json"
_ANGULAR = "angular_scan.json"
_SYNTH = "synth_targets.json"

# One malformed leaf per row: command, base config, the leaf and its bad
# value, then the exit code, the error category and the key path the
# one-line message must start with.
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
    ("analyze", _FIRST, "sweep.n_points", 1, 2, "invalid-config", "sweep.n_points"),
    ("analyze", _FIRST, "sweep.n_points", 2.0, 2, "invalid-config", "sweep.n_points"),
    ("analyze", _FIRST, "sweep.f_stop_GHz", 0.5, 2, "invalid-config", "sweep.f_stop_GHz"),
    ("analyze", _FIRST, "sweep.spacing", "cubic", 2, "invalid-config", "sweep.spacing"),
    ("analyze", _FIRST, "incidence.theta_deg", 95, 2, "invalid-config",
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
    ("sweep", _SWEEP, "parametric.param", "bogus", 2, "invalid-config",
     "parametric.param"),
    ("sweep", _SWEEP, "parametric.param", ["hat_length"], 2, "invalid-config",
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
]


@pytest.mark.parametrize(
    "command,base,path,value,code,category,where",
    ERROR_CONTRACT,
    ids=[f"{r[0]}-{r[2]}-{r[3]!r}" for r in ERROR_CONTRACT],
)
def test_error_contract(tmp_path, capsys, command, base, path, value, code, category, where):
    got = _main_with(tmp_path, command, base, path, value)
    err = capsys.readouterr().err
    assert got == code, err
    assert err.startswith(f"error: {category}: {where}"), err
    assert "\n" not in err.strip()


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


@pytest.mark.parametrize("command,config", [("sweep", _SWEEP), ("angular", _ANGULAR),
                                            ("synth", _SYNTH)])
def test_smooth_flag_is_rejected_where_it_does_nothing(tmp_path, capsys, command, config):
    argv = [command, str(CONFIGS / config), "--out", str(tmp_path / "o"), "--smooth-ghz", "0.1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--smooth-ghz" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,base,window",
    [("analyze", _FIRST, "inf"), ("analyze", _FIRST, "nan"), ("fit", "fit", "inf"),
     ("fit", "fit", "-1")],
)
def test_smooth_window_must_be_finite_and_positive(tmp_path, capsys, command, base, window):
    _write_fit_data(tmp_path)
    config = _write(tmp_path, _config(base))
    out = tmp_path / "o"
    assert main([command, str(config), "--out", str(out), f"--smooth-ghz={window}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: --smooth-ghz: expected finite positive"), err
    assert not out.exists()


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


def test_smoothing_flag(tmp_path):
    out = tmp_path / "out"
    run("analyze", CONFIGS / "sc_band_geometry.json", out, smooth_ghz=0.05)
    assert (out / "band_report.txt").exists()


def test_console_entry_subprocess(tmp_path):
    # the child imports the same fsskit as this test, installed or not
    src = str(Path(fsskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fsskit.cli",
            "analyze",
            str(CONFIGS / "sc_band_geometry.json"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "response.csv").exists()
