"""Every workload, untraced then traced, each in a fresh process.

    python3 perfbench/report.py

Run from the root of a source checkout. Each run lasts the
``run_seconds`` of BENCHMARK.json, with seed 1. Prints every end-to-end
and per-layer metric by name, with its unit and sample count, per workload.
Exits 1 if a run fails or any op fails its output check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 1


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED)]
            command += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and json.loads(lines[-1])["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
