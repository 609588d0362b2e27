"""Collect saved benchmark output into one BENCH_<n>.json file.

Each run file holds the stdout of one untraced
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``;
the tool reads its header line (``W seed N trace 0:``), its final JSON
line, and an optional ``wall_s SECONDS`` line with the run's wall time. Each ladder file holds the stdout of ``python3 perfbench/ladder.py``,
whose final line is the JSON list of ladder records.

    python3 tools/bench_json.py --out BENCH_7.json \\
        --runs parent bench/parent/*.txt --runs change bench/change/*.txt \\
        --ladder parent ladder-parent.txt --ladder change ladder-change.txt

For every workload and side the output gives, per gated metric
(``op_p50_ref``, ``setup_s``, ``peak_rss_mb``), the median and the first
and third quartiles over the runs (``statistics.quantiles`` with the
inclusive method), and the per-run values in seed order so that runs can
be paired across sides by seed. When every run of a workload and side
has a wall time, ``wall_s`` summarises those the same way. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

GATED = ("op_p50_ref", "setup_s", "peak_rss_mb")
HEADER = re.compile(r"^(\w+) seed (-?\d+) trace ([01]):$")
WALL = re.compile(r"^wall_s (\S+)$")


def read_run(path: Path) -> tuple[str, int, dict]:
    """(workload, seed, final JSON object) of one saved run.py stdout.

    A ``wall_s`` line, if present, is added to the object as ``wall_s``.
    """
    lines = path.read_text().splitlines()
    headers = [m for m in map(HEADER.match, lines) if m]
    if len(headers) != 1:
        raise ValueError(f"{path}: expected one 'W seed N trace T:' line, found {len(headers)}")
    workload, seed, trace = headers[0].groups()
    if trace != "0":
        raise ValueError(f"{path}: a traced run has no gated metrics")
    walls = [float(m.group(1)) for m in map(WALL.match, lines) if m]
    result = json.loads([line for line in lines if not WALL.match(line)][-1])
    if walls:
        result["wall_s"] = walls[-1]
    return workload, int(seed), result


def summarise(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def collect_runs(paths: list[Path]) -> dict:
    """Per workload: run count, seeds, failed ops, and each gated metric's summary."""
    by_workload: dict[str, list[tuple[int, dict]]] = {}
    for path in paths:
        workload, seed, result = read_run(path)
        by_workload.setdefault(workload, []).append((seed, result))
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        runs.sort(key=lambda run: run[0])
        entry = {
            "runs": len(runs),
            "seeds": [seed for seed, _result in runs],
            "attempted": sum(result["attempted"] for _seed, result in runs),
            "failed": sum(result["failed"] for _seed, result in runs),
            "correct": all(result["correct"] for _seed, result in runs),
        }
        for name in GATED:
            values = [result["metrics"][name]["value"] for _seed, result in runs]
            entry[name] = {**summarise(values), "unit": runs[0][1]["metrics"][name]["unit"], "values": values}
        if all("wall_s" in result for _seed, result in runs):
            walls = [result["wall_s"] for _seed, result in runs]
            entry["wall_s"] = {**summarise(walls), "unit": "s", "values": walls}
        summary[workload] = entry
    return summary


def read_ladder(path: Path) -> list[dict]:
    return json.loads(path.read_text().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="file to write, e.g. BENCH_7.json")
    parser.add_argument(
        "--runs", nargs="+", action="append", default=[], metavar=("SIDE", "FILE"),
        help="a side's name, then its saved run.py outputs",
    )
    parser.add_argument(
        "--ladder", nargs=2, action="append", default=[], metavar=("SIDE", "FILE"),
        help="a side's name and its saved ladder.py output",
    )
    args = parser.parse_args(argv)

    try:
        metrics: dict[str, dict] = {}
        for side, *files in args.runs:
            if not files:
                raise ValueError(f"--runs {side} names no files")
            for workload, entry in collect_runs([Path(f) for f in files]).items():
                metrics.setdefault(workload, {})[side] = entry
        ladder = {side: read_ladder(Path(file)) for side, file in args.ladder}
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_json: {exc}", file=sys.stderr)
        return 2
    document = {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        "metrics": metrics,
        "ladder": ladder,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
