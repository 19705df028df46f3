"""Layer tracing from outside the program.

Each traced public function is replaced, in the namespace of every
``fsskit`` module that binds it, by a wrapper that records a span (layer,
parent span, start, end, counts).  Callers bind names with
``from .x import y``, so patching only the defining module would miss most
calls.  A function that no longer exists is reported as absent with zero
calls; removing it from the program never breaks the benchmark.

Self time of a span is its duration minus the durations of its direct child
spans.  Spans stay in memory and are reduced to per-layer metrics at the end
of a pass.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# (module, function) pairs, named "<module>.<function>" in the metrics.
LAYERS = (
    ("cli", "run"),
    ("fileio", "write_response_csv"),
    ("fileio", "write_touchstone"),
    ("fileio", "load_response"),
    ("analysis", "smooth_response"),
    ("analysis", "band_report"),
    ("analysis", "parametric_sweep"),
    ("topology", "stack_response"),
    ("topology", "stack_response_full"),
    ("topology", "stack_sparams"),
    ("extraction", "extract_circuit"),
    ("synthesis", "fit_circuit"),
    ("synthesis", "geometry_from_circuit"),
)

ENGINE = ("topology.stack_response", "topology.stack_response_full")

IMPORT_SAMPLES = 5


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_points(args, kwargs, result, exc):
    freqs = _arg(args, kwargs, 1, "freqs")
    return {"points": int(np.size(freqs))} if freqs is not None else {}


def _count_table(args, kwargs, result, exc):
    table = _arg(args, kwargs, 0, "table")
    return {"points": len(table)} if table is not None else {}


def _count_csv(args, kwargs, result, exc):
    table = _arg(args, kwargs, 0, "table")
    return {
        "bytes": _file_size(_arg(args, kwargs, 1, "path")),
        "rows": len(table) if table is not None else 0,
    }


def _count_touchstone(args, kwargs, result, exc):
    return {"bytes": _file_size(_arg(args, kwargs, 5, "path"))}


def _count_rows(args, kwargs, result, exc):
    return {"rows": len(result)} if result is not None else {}


def _count_point_errors(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"point_errors": sum(1 for p in result if getattr(p, "error", None))}


def _count_iterations(args, kwargs, result, exc):
    if result is not None:
        return {"iterations": result.iterations}
    trace = getattr(exc, "trace", None)  # DivergedFitError carries the rms trace
    return {"iterations": len(trace) - 1} if trace else {}


def _count_command(args, kwargs, result, exc):
    return {"command": _arg(args, kwargs, 0, "command")}


COUNTERS = {
    "cli.run": _count_command,
    "fileio.write_response_csv": _count_csv,
    "fileio.write_touchstone": _count_touchstone,
    "fileio.load_response": _count_rows,
    "analysis.band_report": _count_table,
    "analysis.parametric_sweep": _count_point_errors,
    "topology.stack_response": _count_points,
    "topology.stack_response_full": _count_points,
    "synthesis.fit_circuit": _count_iterations,
}


class Tracer:
    """Installs span-recording wrappers on the LAYERS of a loaded fsskit."""

    def __init__(self):
        self.spans = []  # [layer, parent index or -1, start, end, counts]
        self._stack = []
        self._patches = []
        self.absent = []

    def _wrap(self, layer, func):
        counter = COUNTERS.get(layer)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    span[4] = counter(args, kwargs, result, exc)

        return traced

    def install(self):
        found = []
        for mod_name, func_name in LAYERS:
            layer = f"{mod_name}.{func_name}"
            try:
                owner = importlib.import_module(f"fsskit.{mod_name}")
            except ImportError:
                owner = None
            func = getattr(owner, func_name, None)
            if func is None:
                self.absent.append(layer)
            else:
                found.append((layer, func))
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fsskit" or name.startswith("fsskit."))
        ]
        for layer, func in found:
            wrapper = self._wrap(layer, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, func))

    def uninstall(self):
        for mod, attr, func in reversed(self._patches):
            setattr(mod, attr, func)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()


def layer_metrics(spans):
    """Reduce one pass's spans to per-layer counts and times.

    Returns (counts, times, ratios): counts must repeat exactly between
    passes over the same ops; times are wall-clock seconds, except
    ``topology.ns_per_point`` (nanoseconds of engine time per point).
    """
    n = len(spans)
    duration = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += duration[i]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    counts, times = {}, {}
    for mod_name, func_name in LAYERS:
        layer = f"{mod_name}.{func_name}"
        counts[f"{layer}.calls"] = 0
        times[f"{layer}.self_s"] = 0.0
    for i, s in enumerate(spans):
        layer = s[0]
        counts[f"{layer}.calls"] += 1
        times[f"{layer}.self_s"] += duration[i] - child[i]
        for key, value in (s[4] or {}).items():
            if key != "command":
                counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value

    evals = engine_points = 0
    engine_wall = 0.0
    analyze_points = analyze_rows = 0
    for i, s in enumerate(spans):
        if s[0] not in ENGINE and s[0] != "fileio.write_response_csv":
            continue
        up = [spans[p] for p in ancestors(i)]
        if s[0] in ENGINE:
            if any(a[0] == "synthesis.fit_circuit" for a in up):
                evals += 1
            if not any(a[0] in ENGINE for a in up):
                engine_wall += duration[i]
                engine_points += (s[4] or {}).get("points", 0)
        in_analyze = any(
            a[0] == "cli.run" and (a[4] or {}).get("command") == "analyze" for a in up
        )
        if in_analyze:
            if s[0] in ENGINE:
                analyze_points += (s[4] or {}).get("points", 0)
            else:
                analyze_rows += (s[4] or {}).get("rows", 0)

    iterations = counts.get("synthesis.fit_circuit.iterations", 0)
    counts["synthesis.fit_circuit.model_evals"] = evals
    counts["topology.engine_points"] = engine_points
    ratios = {
        "synthesis.fit_circuit.evals_per_iter": evals / iterations if iterations else 0.0,
        "cli.analyze.eval_ratio": analyze_points / analyze_rows if analyze_rows else 0.0,
    }
    times["topology.ns_per_point"] = (
        1e9 * engine_wall / engine_points if engine_points else 0.0
    )
    return counts, times, ratios


def _importtime_totals(stderr: str):
    """Top-level scipy cumulative time and fsskit self time, in seconds, from
    ``python -X importtime`` output (post-order, nesting by indentation)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        rows.append((self_us, cum_us, depth, name.strip()))
    scipy_us = fsskit_us = 0
    open_parents = []  # (depth, is-or-inside scipy), walked parents first
    for self_us, cum_us, depth, name in reversed(rows):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        inside = any(flag for _, flag in open_parents)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cum_us
        if name == "fsskit" or name.startswith("fsskit."):
            fsskit_us += self_us
        open_parents.append((depth, inside or is_scipy))
    return scipy_us / 1e6, fsskit_us / 1e6


def import_metrics(env):
    """Medians over fresh interpreters: wall time of ``import fsskit``, and
    the -X importtime split into scipy and fsskit's own modules."""
    probe = (
        "import time; t = time.perf_counter(); import fsskit; "
        "print(time.perf_counter() - t)"
    )
    walls, scipy_s, self_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        walls.append(float(out.stdout.strip().splitlines()[-1]))
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fsskit"], env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        sc, fs = _importtime_totals(out.stderr)
        scipy_s.append(sc)
        self_s.append(fs)
    return {
        "import.fsskit_s": statistics.median(walls),
        "import.scipy_s": statistics.median(scipy_s),
        "import.fsskit_self_s": statistics.median(self_s),
    }
