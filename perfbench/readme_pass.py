"""README-config pass: all six CLI modes on the README's example configs.

    python3 perfbench/readme_pass.py

Run from the root of a source checkout. Each mode runs once timed
(``cli.readme.<mode>_s``) and twice more; every run must exit 0 and
write byte-identical files. ``check-order`` and ``analyze-load`` have no
example of their own, so they run on the ``simulate`` example with
``--mode``, as the README documents. The last line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sstap.cli  # noqa: E402

MODES = ("simulate", "check-order", "analyze-load", "multilevel", "dsstap", "figure1")
RERUNS = 2


def readme_configs() -> dict[str, dict]:
    """Every ```json block of the README that names a mode, by mode."""
    text = (ROOT / "README.md").read_text()
    configs = {}
    for block in re.findall(r"```json\n(.*?)```", text, flags=re.S):
        try:
            config = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(config, dict) and "mode" in config:
            configs[config["mode"]] = config
    return configs


def outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def main() -> int:
    configs = readme_configs()
    work = ROOT / ".perfbench_out" / f"readme-{os.getpid()}"
    metrics, attempted, failed = {}, 0, 0
    try:
        for mode in MODES:
            attempted += 1
            config = configs.get(mode, configs.get("simulate"))
            if config is None:
                failed += 1
                print(f"{mode}: no README config", file=sys.stderr)
                continue
            config_path = work / mode / "config.json"
            config_path.parent.mkdir(parents=True)
            config_path.write_text(json.dumps(config))
            runs = []
            for rerun in range(RERUNS + 1):
                out = work / mode / f"run{rerun}"
                start = time.perf_counter()
                code = sstap.cli.main(["--config", str(config_path), "--out", str(out), "--mode", mode])
                elapsed = time.perf_counter() - start
                if rerun == 0:
                    metrics[f"cli.readme.{mode}_s"] = {"value": elapsed, "unit": "s"}
                runs.append((code, outputs(out) if out.is_dir() else {}))
            problems = [f"exit code {code}" for code, _files in runs if code != 0]
            if any(files != runs[0][1] for _code, files in runs):
                problems.append("reruns wrote different bytes")
            if problems:
                failed += 1
                print(f"{mode}: {'; '.join(problems)}", file=sys.stderr)
            print(f"cli.readme.{mode}_s = {metrics[f'cli.readme.{mode}_s']['value']:.4f} s, "
                  f"{'ok' if not problems else 'FAILED'} over {len(runs)} runs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
