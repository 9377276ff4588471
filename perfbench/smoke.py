"""Fast self-check of the benchmark at tiny size (about 10 s).

Runs every workload traced and untraced on 8 utterances through run.py, and
checks that each last line is a passing result whose metrics are exactly the
ones BENCHMARK.json declares, with their units. Then it runs run.py in a copy
of the benchmark without the program beside it and checks that it fails
without printing a result.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} trace={trace}"
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if units != _declared(spec, key):
                failures.append(f"{label}: metrics {units} differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: {result}")
            print(f"ok {label}: {len(units)} metrics")

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "train-rnnt", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok without the program: exit {proc.returncode}")

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
