"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` on two seeds untraced and one seed
traced, and checks that each run passes its output checks and prints every
metric that BENCHMARK.json declares, with its unit and nothing else.  It
also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]
SEEDS = (0, 1)


def _result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _check_run(workload: str, seed: int, trace: int, declared: dict) -> list[str]:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    where = f"{workload} seed {seed} trace {trace}"
    result = _result(proc)
    if proc.returncode != 0 or result is None:
        return [f"{where}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures = [line for line in proc.stdout.splitlines() if "failed:" in line]
        problems.append(f"{where}: output checks failed: {failures}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    expected = declared["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, declared {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end {name} is 0")
    return problems


def _check_refuses_without_source() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            RUN + ["--workload", "large_set", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _result(proc) is not None:
        return [f"without the package source: exit {proc.returncode}, "
                f"result {_result(proc)!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {e["name"]: e["unit"] for e in spec[key]}
                for key in ("end_to_end", "per_layer")}
    problems = _check_refuses_without_source()
    for entry in spec["workloads"]:
        runs = [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]
        for seed, trace in runs:
            found = _check_run(entry["name"], seed, trace, declared)
            print(f"{'FAIL' if found else 'ok  '}  {entry['name']} seed {seed} trace {trace}",
                  flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem)
    print("self-test passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
