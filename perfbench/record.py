"""Write perfbench/record.json: environment and output digests at seed 0.

    python3 perfbench/record.py

Runs one op of every workload at full size and the record seed, untraced,
and stores each workload's digest (the repr of every rho, alpha and lambda
value it reports, plus a hash over all replicates) with the environment the
numbers came from.  Later runs at that seed print whether their digest
still matches, so a change that alters values as well as speed shows.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import RECORD, RECORD_SEED  # noqa: E402


def _line(stdout: str, prefix: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise RuntimeError(f"no {prefix.strip()!r} line in the output")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"seed": RECORD_SEED, "env": {}, "digests": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", str(RECORD_SEED), "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout + proc.stderr)
            print(f"{name}: run failed; nothing written")
            return 1
        record["env"][name] = _line(proc.stdout, "# env ")
        record["digests"][name] = _line(proc.stdout, "# digest ")
        print(f"{name}: {record['digests'][name]['sha256']}", flush=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
