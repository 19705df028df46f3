"""fsskit benchmark: one command for every workload, metric and check.

    python3 benchmarks/run.py --workload {cli,scan,fit} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is not installed,
and ``src`` is put on the path of this process and of every child.

``--trace 0`` times ops with tracing off and prints the end-to-end metrics:
median and tail latency, correct ops per second, set-up time (the median of
several fresh interpreters) and peak resident memory.  ``--trace 1``
replays a fixed number of ops twice under the layer tracer and once without
it, checks that every count repeats exactly, and prints the per-layer
metrics, import-time figures and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919  # not used while the benchmark was written
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # ops above the reported tail percentile


def bench_env() -> dict:
    """Environment of this process and its children: ``src`` importable, and
    at most two threads in any numeric library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def op_count(wl, seconds: float) -> int:
    """Ops in a run: whole cycles (of CLI commands, of the fit panel) that
    take about ``seconds`` at the workload's nominal speed on a 2-core
    machine.  The count is fixed by the run length, never by a measured
    time, so every run of a seed does the same work and the tail
    percentile does not move with the machine's speed."""
    return wl.cycle * max(1, math.ceil(seconds / (wl.cycle * wl.nominal_op_s)))


def tail(latencies):
    """The highest whole percentile with at least TAIL_BEYOND ops above it
    (nearest rank), or the median when there are too few ops."""
    n = len(latencies)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    if pct <= 50:
        return statistics.median(latencies), 50
    return sorted(latencies)[math.ceil(pct / 100 * n) - 1], pct


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fsskit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(args, env) -> list[float]:
    """Fresh interpreter to first timed op, several times: each child imports
    the package, makes the inputs, runs one untimed op and says so."""
    samples = []
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}, said {line!r})")
        samples.append(elapsed)
    return samples


class DeterminismError(RuntimeError):
    """Two traced passes over the same ops disagreed on a count."""


def make_workload(name, seed, workdir, in_process, env):
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir, in_process=in_process, env=env)
    wl.run(wl.prepare(0))  # untimed warm-up
    return wl


def end_to_end(args, env):
    setup = measure_setup(args, env)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, workdir, False, env)
        results = [wl.run(wl.prepare(i)) for i in range(op_count(wl, args.seconds))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r.latency for r in results]
    ok = sum(1 for r in results if r.failure is None)
    tail_s, tail_pct = tail(latencies)
    if args.workload == "cli":
        rss_kb = max(r.rss_kb for r in results)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail_s, "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "rss_peak_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "latency_s.tail": f"p{tail_pct} of n={len(latencies)}",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    return results, metrics, notes


def traced(args, env):
    from tracing import Tracer, import_metrics, layer_metrics

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, workdir, True, env)
        n_ops = op_count(wl, args.seconds / 3)  # three passes fill the run
        inputs = [wl.prepare(i) for i in range(n_ops)]
        with Tracer() as first:
            first_results = [wl.run(x) for x in inputs]
        plain_results = [wl.run(x) for x in inputs]
        with Tracer() as second:
            second_results = [wl.run(x) for x in inputs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts, times, ratios = layer_metrics(first.spans)
    counts_again, times_again, _ = layer_metrics(second.spans)
    outcomes = [[r.failure for r in rs] for rs in (first_results, plain_results, second_results)]
    if counts != counts_again or outcomes[0] != outcomes[1] or outcomes[0] != outcomes[2]:
        diff = sorted(k for k in counts if counts[k] != counts_again.get(k))
        raise DeterminismError(f"counts or outcomes differ between passes over the same ops: {diff}")

    def wall(results):
        return sum(r.latency for r in results)

    metrics = {
        name: (value, "B" if name.endswith(".bytes") else "count") for name, value in counts.items()
    }
    for name, value in times.items():
        unit = "ns" if name == "topology.ns_per_point" else "s"
        metrics[name] = ((value + times_again[name]) / 2.0, unit)
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    metrics.update({name: (value, "s") for name, value in import_metrics(env).items()})
    metrics["trace.ops"] = (n_ops, "count")
    metrics["trace.failed"] = (sum(1 for f in outcomes[0] if f is not None), "count")
    overhead = (wall(first_results) + wall(second_results)) / 2.0 - wall(plain_results)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"absent layers": ", ".join(first.absent) or "none"}
    return first_results, metrics, notes


def select(metrics: dict, spec: list) -> dict:
    """The metrics BENCHMARK.json names for this mode, in its order."""
    out = {}
    for entry in spec:
        value, unit = metrics.get(entry["name"], (0, entry["unit"]))
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "scan", "fit"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fsskit" / "__init__.py").is_file():
        print(f"error: no fsskit source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = bench_env()
    os.environ.update(env)  # before numpy is imported here
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        workdir = WORK / f"{args.workload}-setup-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            make_workload(args.workload, args.seed, workdir, False, env)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            results, metrics, notes = traced(args, env)
        else:
            results, metrics, notes = end_to_end(args, env)
    except DeterminismError as exc:
        print(f"error: benchmark: {exc}", file=sys.stderr)
        return 3
    selected = select(metrics, spec["per_layer" if args.trace else "end_to_end"])

    failed = [r for r in results if r.failure is not None]
    kinds = {}
    for r in failed:
        kinds[r.failure] = kinds.get(r.failure, 0) + 1
    print(f"# fsskit benchmark, workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# provenance " + json.dumps(provenance(args.workload, args.seed), sort_keys=True))
    shown = [(name, m["value"], m["unit"]) for name, m in selected.items()]
    shown += [(name, v, u) for name, (v, u) in metrics.items() if name not in selected]
    shown.append(("fail_ratio", len(failed) / len(results), "ratio"))
    notes["fail_ratio"] = f"{len(failed)} failed of {len(results)} attempted"
    for name, value, unit in shown:
        note = notes.pop(name, None)
        gate = "" if name in selected else "  [not in BENCHMARK.json]"
        print(f"{name:44s} {value!r:>24} {unit}{gate}" + (f"   ({note})" if note else ""))
    for name, note in notes.items():
        print(f"# {name}: {note}")
    for kind, n in sorted(kinds.items()):
        print(f"# failure x{n}: {kind}")
    print(json.dumps({
        "correct": not any(r.fatal for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": selected,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
