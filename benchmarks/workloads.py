"""The three benchmark workloads.

Each workload is a closed loop with one client: op ``i`` starts when op
``i - 1`` has finished.  ``prepare(i)`` makes op ``i``'s inputs from the
seed alone (untimed, and outside any traced region); ``run(inputs)`` times
the program's work and then checks its output against an oracle that does
not share the code path under test.

Failures are counted per op.  A failure is ``fatal`` when it breaks a
promise of the program (a wrong S-parameter, a changed data file, an
unexpected exception); the fit workload's wrong-basin and diverged fits
are failures of a documented local refiner and are counted, not fatal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parent / "configs"

GHZ = 1e9
NH = 1e-9
PF = 1e-12
MM = 1e-3

# Reference design of the paper's S/C-band example.
REF_CIRCUIT = {
    "L_series": 4.9e-9,
    "C_series": 0.5e-12,
    "L_tank": 4e-9,
    "C_tank": 0.35e-12,
    "L_parasitic": 0.8e-9,
}
REF_SUBSTRATE = {"thickness": 0.635e-3, "eps_r": 10.2, "tan_delta": 0.0023}
REF_GEOMETRY = {
    "period": 8.5e-3,
    "hat_length": 6.8e-3,
    "jc_slot": 0.3e-3,
    "cross_slot": 0.2e-3,
    "jc_gap": 0.5e-3,
}
# Three-layer design of second_order.json.
REF_SECOND_ORDER = {
    "L_outer_a": 4.9e-9,
    "C_outer_a": 0.5e-12,
    "L_outer_b": 2e-9,
    "C_outer_b": 0.5e-12,
    "L_tank": 2.5e-9,
    "C_tank": 0.3e-12,
}
SECOND_ORDER_SUBSTRATE = {"thickness": 3.4e-3, "eps_r": 10.2, "tan_delta": 0.0023}

RIPPLE = 2e-3          # complex noise per component on synthetic bench data
FIT_POINTS = 801
CLI_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    latency: float
    failure: str | None = None  # None when the op ran and its check passed
    fatal: bool = False
    rss_kb: int = 0             # peak resident memory of a CLI child


def _fsskit():
    # Looked up at call time so that tracing wrappers installed on the
    # package namespace are the functions called.
    import fsskit

    return fsskit


def _rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


def _substrate(fk, spec):
    return fk.Substrate(spec["thickness"], spec["eps_r"], spec["tan_delta"])


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _data_digest(outdir: Path) -> str:
    """Digest of every data file of a run; the sidecar carries a timestamp."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name != "run_meta.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _matches_csv(path: Path, expected) -> bool:
    """A response CSV agrees with an in-process sweep to its 12 printed digits."""
    freqs, s11, s21 = expected
    got = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3, 4), ndmin=2)
    if got.shape[0] != freqs.size:
        return False
    return (
        np.allclose(got[:, 0], freqs, rtol=1e-10, atol=0.0)
        and np.allclose(got[:, 1] + 1j * got[:, 2], s11, rtol=1e-10, atol=1e-12)
        and np.allclose(got[:, 3] + 1j * got[:, 4], s21, rtol=1e-10, atol=1e-12)
    )


# ---------------------------------------------------------------------------
# cli: every command as a user runs it


class CliWorkload:
    """A fixed cycle of CLI runs on the demo configs plus two generated inputs.

    Without ``in_process`` each op is a fresh ``python -m fsskit.cli``
    subprocess; with it (the traced run) the op calls ``fsskit.cli.run`` so
    the layers inside a command can be traced.
    """

    CYCLE = (
        ("analyze", "sc_band_first_order.json", None),
        ("analyze", "second_order.json", None),
        ("analyze", "sc_band_geometry.json", None),
        ("sweep", "parametric_hat_length.json", None),
        ("angular", "angular_scan.json", None),
        ("synth", "synth_targets.json", None),
        ("fit", "fit.json", 0.1),
        ("analyze", "dense.json", None),
    )
    OUTPUTS = {
        "sweep": ("parametric.csv",),
        "synth": ("design.json", "design_report.txt"),
        "fit": ("fit_result.json", "residual_trace.csv"),
    }
    DENSE_POINTS = 50_001
    cycle = len(CYCLE)
    nominal_op_s = 1.0

    def __init__(self, seed: int, workdir: Path, in_process: bool = False, env=None):
        self.workdir = workdir
        self.in_process = in_process
        self.env = env
        self.configs = {name: CONFIGS / name for _, name, _ in self.CYCLE}
        self._generate(seed)
        self.expected = self._expected_responses()
        self.digests = {}

    def _generate(self, seed: int):
        """The dense analyze config, and a noisy lossy Touchstone trace of the
        reference circuit (parasitic included) with a fit config for it.
        The fit starts at the truth, so its cost does not depend on which
        basin a seed lands in; the fit workload measures convergence."""
        fk = _fsskit()
        dense = json.loads(self.configs["sc_band_first_order.json"].read_text())
        dense["sweep"]["n_points"] = self.DENSE_POINTS
        self.configs["dense.json"] = _write_json(self.workdir / "dense.json", dense)

        rng = _rng(seed, 1, 0)
        sub = _substrate(fk, REF_SUBSTRATE)
        stack = fk.build_first_order(fk.ExtractedCircuit(**REF_CIRCUIT), sub, dielectric_loss=True)
        freqs = np.linspace(1 * GHZ, 8 * GHZ, FIT_POINTS)
        s11, s21, s22 = fk.stack_response_full(stack, freqs)
        s21 = s21 + RIPPLE * (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
        fk.write_touchstone(
            freqs, s11, s21, s21, s22, self.workdir / "bench.s2p", fk.port_impedance(fk.Incidence()),
        )
        initial = {
            f"{name}_{'nH' if name.startswith('L') else 'pF'}": value / (NH if name.startswith("L") else PF)
            for name, value in REF_CIRCUIT.items()
        }
        fit_cfg = {
            "design": {
                "substrate": {
                    "thickness_mm": REF_SUBSTRATE["thickness"] / MM,
                    "eps_r": REF_SUBSTRATE["eps_r"],
                    "tan_delta": REF_SUBSTRATE["tan_delta"],
                },
                "dielectric_loss": True,
            },
            "fit": {
                "data": "bench.s2p",
                "template": "first_order",
                "initial": initial,
                "max_iter": 400,
            },
        }
        self.configs["fit.json"] = _write_json(self.workdir / "fit.json", fit_cfg)

    def _expected_responses(self):
        """In-process sweeps of every response file the cycle writes, built
        from the configs with the public API (not the CLI's parser)."""
        expected = {}
        for command, name, _ in self.CYCLE:
            cfg = json.loads(self.configs[name].read_text())
            if command == "analyze":
                expected[(name, "response.csv")] = _config_sweep(cfg, cfg.get("incidence", {}))
            elif command == "angular":
                inc = cfg["incidence"]
                for theta in inc["theta_deg"]:
                    for pol in inc["polarization"]:
                        fname = f"response_{pol.lower()}_{theta:g}deg.csv"
                        expected[(name, fname)] = _config_sweep(
                            cfg, {"theta_deg": theta, "polarization": pol}
                        )
        return expected

    def prepare(self, i: int):
        return i

    def run(self, i: int) -> OpResult:
        slot = i % len(self.CYCLE)
        command, name, smooth = self.CYCLE[slot]
        outdir = self.workdir / f"op{i}"
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            result = (self._run_in_process if self.in_process else self._run_child)(
                command, self.configs[name], outdir, smooth
            )
            if result.failure is None:
                result.failure = self._check(slot, command, name, outdir)
                result.fatal = result.failure is not None
            return result
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _run_in_process(self, command, config, outdir, smooth) -> OpResult:
        fk = _fsskit()
        import fsskit.cli as cli

        t0 = time.perf_counter()
        try:
            cli.run(command, config, outdir, smooth)
        except fk.errors.FssError as exc:
            return OpResult(time.perf_counter() - t0, f"error:{exc.category}", True)
        return OpResult(time.perf_counter() - t0)

    def _run_child(self, command, config, outdir, smooth) -> OpResult:
        argv = [sys.executable, "-m", "fsskit.cli", command, str(config), "--out", str(outdir)]
        if smooth is not None:
            argv += ["--smooth-ghz", str(smooth)]
        errfile = self.workdir / "stderr.txt"
        with errfile.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reaps the child and returns its own resource usage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            message = errfile.read_text(errors="replace").strip().splitlines()
            detail = message[-1] if message else ""
            return OpResult(latency, f"exit {proc.returncode}: {detail}", True, usage.ru_maxrss)
        return OpResult(latency, rss_kb=usage.ru_maxrss)

    def _check(self, slot, command, name, outdir: Path) -> str | None:
        """Data files repeat byte for byte across cycles; the first time a
        slot runs, its response files are compared with in-process sweeps."""
        for fname in self.OUTPUTS.get(command, ()):
            if not (outdir / fname).is_file():
                return f"check: {command} wrote no {fname}"
        digest = _data_digest(outdir)
        if slot in self.digests:
            if digest != self.digests[slot]:
                return f"check: {command} {name} data files changed between cycles"
            return None
        for (cfg_name, fname), expected in self.expected.items():
            if cfg_name == name and not _matches_csv(outdir / fname, expected):
                return f"check: {name} {fname} differs from the in-process sweep"
        self.digests[slot] = digest
        return None


def _config_sweep(cfg, incidence):
    fk = _fsskit()
    design = cfg["design"]
    sub = fk.Substrate(
        design["substrate"]["thickness_mm"] * MM,
        design["substrate"]["eps_r"],
        design["substrate"].get("tan_delta", 0.0),
    )
    loss = design.get("dielectric_loss", False)
    inc = fk.Incidence(
        math.radians(incidence.get("theta_deg", 0.0)), incidence.get("polarization", "TE")
    )
    if design.get("order", "first") == "second":
        outer = tuple(fk.SeriesLC(b["L_nH"] * NH, b["C_pF"] * PF) for b in design["outer"])
        middle = fk.Tank(design["middle"]["L_tank_nH"] * NH, design["middle"]["C_tank_pF"] * PF)
        stack = fk.build_second_order(outer, middle, sub, inc, loss)
    else:
        if "geometry" in design:
            g = design["geometry"]
            circuit = fk.extract_circuit(
                fk.FirstOrderGeometry(
                    period=g["period_mm"] * MM,
                    hat_length=g["hat_length_mm"] * MM,
                    jc_slot=g["jc_slot_mm"] * MM,
                    cross_slot=g["cross_slot_mm"] * MM,
                    jc_gap=g["jc_gap_mm"] * MM,
                    thickness=sub.thickness,
                    eps_r=sub.eps_r,
                    tan_delta=sub.tan_delta,
                )
            )
        else:
            c = design["circuit"]
            circuit = fk.ExtractedCircuit(
                c["L_series_nH"] * NH,
                c["C_series_pF"] * PF,
                c["L_tank_nH"] * NH,
                c["C_tank_pF"] * PF,
                c.get("L_parasitic_nH", 0.0) * NH,
            )
        stack = fk.build_first_order(circuit, sub, inc, loss)
    sw = cfg["sweep"]
    table = fk.sweep(
        stack,
        sw["f_start_GHz"] * GHZ,
        sw["f_stop_GHz"] * GHZ,
        sw.get("n_points", 1401),
        sw.get("spacing", "linear"),
    )
    return table.frequency, table.s11, table.s21


# ---------------------------------------------------------------------------
# scan: warm in-process design exploration


class ScanWorkload:
    """One op studies one seeded first-order geometry: a 1e5-point lossless
    response with its band report, a parametric sweep, and an angular scan."""

    DIMENSIONS = tuple(REF_GEOMETRY)
    DENSE_POINTS = 100_000
    PARAM_VALUES = 8
    PARAM_POINTS = 1401
    ANGLES_DEG = (0.0, 15.0, 30.0, 45.0)
    ANGLE_POINTS = 1101
    cycle = 1
    nominal_op_s = 0.1

    def __init__(self, seed: int, workdir: Path, in_process: bool = True, env=None):
        self.seed = seed

    def prepare(self, i: int):
        """Every dimension of the reference cell moves by 10-20% either way.
        Draws outside the geometry's validity domain (a hat longer than the
        period, say) are not designs and are drawn again."""
        fk = _fsskit()
        rng = _rng(self.seed, 2, i)
        while True:
            signs = rng.choice((-1.0, 1.0), len(self.DIMENSIONS))
            scale = 1.0 + signs * rng.uniform(0.10, 0.20, len(self.DIMENSIONS))
            dims = {d: REF_GEOMETRY[d] * s for d, s in zip(self.DIMENSIONS, scale)}
            try:
                geom = fk.FirstOrderGeometry(**dims, **REF_SUBSTRATE)
                break
            except fk.errors.InvalidGeometryError:
                continue
        param = self.DIMENSIONS[int(rng.integers(len(self.DIMENSIONS)))]
        values = [getattr(geom, param) * s for s in np.linspace(0.7, 1.3, self.PARAM_VALUES)]
        return geom, param, values

    def run(self, inputs) -> OpResult:
        fk = _fsskit()
        geom, param, values = inputs
        t0 = time.perf_counter()
        try:
            circuit = fk.extract_circuit(geom)
            sub = fk.Substrate(geom.thickness, geom.eps_r, geom.tan_delta)
            # The window brackets both bands of every drawn geometry.
            f_low, f_high = fk.exact_poles(circuit)
            f_start, f_stop = 0.5 * f_low, 1.5 * f_high
            f_zero = 1.0 / (2.0 * math.pi * math.sqrt(circuit.L_series * circuit.C_series))
            grid = np.union1d(np.linspace(f_start, f_stop, self.DENSE_POINTS), [f_zero])
            stack = fk.build_first_order(circuit, sub)
            s11, s21, s22 = fk.stack_response_full(stack, grid)
            report = fk.band_report(fk.ResponseTable(grid, s11, s21))
            fk.parametric_sweep(geom, param, values, f_start, f_stop, self.PARAM_POINTS)
            normal = {}
            for theta in self.ANGLES_DEG:
                for pol in ("TE", "TM"):
                    inc = fk.Incidence(math.radians(theta), pol)
                    table = fk.sweep(
                        fk.build_first_order(circuit, sub, inc), f_start, f_stop, self.ANGLE_POINTS
                    )
                    fk.band_report(table)
                    if theta == 0.0:
                        normal[pol] = table
        except fk.errors.FssError as exc:
            return OpResult(time.perf_counter() - t0, f"error:{exc.category}", True)
        latency = time.perf_counter() - t0

        step = (f_stop - f_start) / (self.DENSE_POINTS - 1)
        if not np.all(np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0) <= 1e-9):
            failure = "check: lossless |S11|^2 + |S21|^2 != 1"
        elif not np.all(np.abs(np.abs(s11) - np.abs(s22)) <= 1e-9):
            failure = "check: lossless |S11| != |S22|"
        elif not (
            np.array_equal(normal["TE"].s11, normal["TM"].s11)
            and np.array_equal(normal["TE"].s21, normal["TM"].s21)
        ):
            failure = "check: TE and TM differ at normal incidence"
        elif not abs(report.f_zero - f_zero) <= step:
            failure = "check: band_report.f_zero is not at 1/(2 pi sqrt(Ls Cs))"
        else:
            return OpResult(latency)
        return OpResult(latency, failure, True)


# ---------------------------------------------------------------------------
# fit: least-squares recovery of circuit values from noisy data


class FitWorkload:
    """Fits over a fixed panel of problems, in panel order, in whole passes.

    Two of every three problems are first order (truth within 15% of the
    reference circuit), the third second order (truth within 5%).  Starts
    are log-uniform within 10% of the truth, the range the README says to
    seed from.  The panel is drawn once, from PANEL_SEED; the run's seed
    draws the measurement noise of every fit.  Fits that end in a wrong
    basin cost ten times more than fits that converge, so a panel drawn
    afresh for each seed, or a run ending part-way through the panel,
    would move the median latency by a third between runs.
    """

    PANEL_SEED = 20221114
    PANEL = 60
    cycle = PANEL
    nominal_op_s = 0.25

    def __init__(self, seed: int, workdir: Path, in_process: bool = True, env=None):
        self.seed = seed

    def prepare(self, i: int):
        fk = _fsskit()
        problem = i % self.PANEL
        rng = _rng(self.PANEL_SEED, 3, problem)
        if problem % 3 == 2:
            template, ref, spread = "second_order", REF_SECOND_ORDER, 0.05
            sub = _substrate(fk, SECOND_ORDER_SUBSTRATE)
            f_start, f_stop = 1.5 * GHZ, 4.9 * GHZ
        else:
            template, ref, spread = "first_order", REF_CIRCUIT, 0.15
            sub = _substrate(fk, REF_SUBSTRATE)
            f_start, f_stop = 1 * GHZ, 8 * GHZ
        truth = {k: v * (1.0 + rng.uniform(-spread, spread)) for k, v in ref.items()}
        start = {k: v * math.exp(rng.uniform(math.log(0.9), math.log(1.1))) for k, v in truth.items()}
        if template == "first_order":
            stack = fk.build_first_order(fk.ExtractedCircuit(**truth), sub, dielectric_loss=True)
        else:
            outer = (
                fk.SeriesLC(truth["L_outer_a"], truth["C_outer_a"]),
                fk.SeriesLC(truth["L_outer_b"], truth["C_outer_b"]),
            )
            middle = fk.Tank(truth["L_tank"], truth["C_tank"])
            stack = fk.build_second_order(outer, middle, sub, dielectric_loss=True)
        freqs = np.linspace(f_start, f_stop, FIT_POINTS)
        s11, s21 = fk.stack_response(stack, freqs)
        rng = _rng(self.seed, 4, i)
        noise = RIPPLE * (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
        data = fk.ResponseTable(freqs, s11, s21 + noise)
        floor = math.sqrt(float(np.mean(np.abs(noise) ** 2)))
        return template, data, start, sub, truth, floor

    def run(self, inputs) -> OpResult:
        fk = _fsskit()
        template, data, start, sub, truth, floor = inputs
        t0 = time.perf_counter()
        try:
            result = fk.fit_circuit(data, template, start, sub, dielectric_loss=True)
        except fk.errors.DivergedFitError:
            return OpResult(time.perf_counter() - t0, "diverged-fit")
        except fk.errors.FssError as exc:
            return OpResult(time.perf_counter() - t0, f"error:{exc.category}", True)
        latency = time.perf_counter() - t0

        trace = np.asarray(result.trace)
        if result.rms_residual != trace[-1] or np.any(np.diff(trace) > 0.0):
            return OpResult(latency, "check: fit residual trace is not monotone", True)
        worst = max(abs(result.params[k] / v - 1.0) for k, v in truth.items())
        if result.rms_residual > 1.5 * floor or worst > 0.02:
            return OpResult(latency, "wrong-basin")
        return OpResult(latency)


WORKLOADS = {"cli": CliWorkload, "scan": ScanWorkload, "fit": FitWorkload}
