"""Smoke test of the benchmark: python3 perfbench/smoke.py (exit 0 = pass).

Runs every workload at the tiny size, untraced and traced, and checks that
the last output line is the result object with every metric BENCHMARK.json
names, each with its declared unit, and that the outputs were correct and
no operation failed.
Then checks that the benchmark refuses to run, without a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if (result.get("correct") is not True or result.get("attempted", 0) < 1
            or result.get("failed") != 0):
        errors.append(f"{where}: not correct: {proc.stdout[-1000:]}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            errors.append(f"{where}: {metric['name']} missing")
        elif (got.get("unit") != metric["unit"]
              or not isinstance(got.get("value"), Real)):
            errors.append(f"{where}: {metric['name']} = {got}, unit {metric['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append(f"{where}: undeclared metrics {sorted(extra)}")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    errors = check_refuses_without_sources()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_result(workload["name"], trace)
    for error in errors:
        print(error)
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
