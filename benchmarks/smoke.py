"""Smoke test of the benchmark at a tiny run length.

    python3 benchmarks/smoke.py

For every workload it checks that the untraced run prints each end-to-end
metric of BENCHMARK.json and the traced run each per-layer metric, by name
and with its unit, that the counts of two traced runs of one seed are
equal, and that a directory holding only the benchmark (no program source)
makes it fail without a result.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
# Every workload run.py offers; `fit` is runnable but not in BENCHMARK.json.
WORKLOADS = ("cli", "scan", "fit")

# Per-layer metrics that may rightly read zero on every workload at this length.
MAY_BE_ZERO = {
    "analysis.parametric_sweep.point_errors",
    "topology.stack_sparams.calls",
    "trace.failed",
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [
        sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, spec_metrics, label, printed=("fail_ratio",)):
    """The run's result line, after checking it against BENCHMARK.json and
    that the ungated figures named in ``printed`` were printed too."""
    if proc.returncode != 0:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for name in printed:
        if not any(line.startswith(name + " ") for line in lines):
            sys.exit(f"{label}: no {name} line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in spec_metrics]:
        sys.exit(f"{label}: metric names {list(metrics)}")
    for m in spec_metrics:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), numbers.Real):
            sys.exit(f"{label}: {m['name']} = {got}, want a number in {m['unit']}")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    seen_nonzero = set()
    for name in WORKLOADS:
        result_of(run(name, 0), spec["end_to_end"], f"{name} trace 0",
                  printed=("fail_ratio", "latency_s.p50"))
        first = result_of(run(name, 1), spec["per_layer"], f"{name} trace 1")
        again = result_of(run(name, 1), spec["per_layer"], f"{name} trace 1, again")
        changed = [c for c in counts if first[c]["value"] != again[c]["value"]]
        if changed:
            sys.exit(f"{name}: counts differ between two traced runs of one seed: {changed}")
        seen_nonzero.update(k for k, v in first.items() if v["value"] != 0)
        print(f"ok {name}")
    never = [m["name"] for m in spec["per_layer"]
             if m["name"] not in seen_nonzero and m["name"] not in MAY_BE_ZERO]
    if never:
        sys.exit(f"per-layer metrics that no workload moved: {never}")

    bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(WORKLOADS[0], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit("a directory without the program must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
