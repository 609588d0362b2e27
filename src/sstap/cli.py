"""Command line runner.

A single JSON config drives every mode; the CLI resolves defaults,
executes, and emits a JSON report (plus per-mode CSV files when an
output directory is given). Reports embed the resolved config and seed
and contain no volatile fields, so identical configs reproduce
byte-identical outputs.

Exit codes: 0 on success, 2 for configuration problems, 3 when a module
reports the instance itself is unusable (infeasible ranges, non-monotone
functions, order violations, unusable distribution specs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import analysis, dsstap, multilevel
from .core import (
    FunctionKind,
    Instance,
    Interval,
    ThresholdFunction,
    Worker,
    check_order_preserving,
    default_probe_grid,
)
from .errors import ConfigError, SstapError
from .policy import CYCLE_DELAY_MODES, greedy_threshold_count, run_stream, verify_order_preserving

__all__ = ["RunConfig", "run", "run_figure1", "main"]

SCHEMA_VERSION = 1
MODES = ("simulate", "analyze-load", "multilevel", "dsstap", "check-order", "figure1")

FIGURE1_DEFAULTS = {
    "n": 200,
    "alphas": {"start": 0.1, "stop": 5.0, "step": 0.1},
    "trials": 100,
    "domain": [1e-6, 1.0],
}
# Most thresholds one figure1 run may sweep: 200 times the default 50.
FIGURE1_MAX_THRESHOLDS = 10_000
# Most figure1 greedy searches, n x thresholds x trials: 10 times the defaults.
FIGURE1_MAX_WORK = 10_000_000
# Largest workers.count, jobs.count or figure1.n: 10 times the largest pool in perfbench/ladder.py.
MAX_GENERATED = 100_000
# Most Monte Carlo samples per dsstap cell (10 times the default), and most
# cells x samples per run (about 10 times a 30 x 30 matrix at the default).
MAX_MC_SAMPLES = 1_000_000
DSSTAP_MAX_WORK = 1_000_000_000
# Most jobs x workers of tabulated pools per run (about 4 s): a tabulated choice scans every free worker.
TABULATED_MAX_WORK = 10_000_000


class RunConfig:
    """Validated run configuration with the resolved JSON dict retained."""

    def __init__(self, raw: dict[str, Any]):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        mode = raw.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {list(MODES)}, got {mode!r}")
        seed = raw.get("seed", 0)
        if not (_is_integer(seed) and seed >= 0):
            raise ConfigError("seed must be a nonnegative integer")
        schema = raw.get("schema_version", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
        self.mode: str = mode
        self.seed: int = seed
        self.force = _flag(raw, "force_non_order_preserving")
        self.raw = dict(raw)
        self.raw["schema_version"] = SCHEMA_VERSION
        self.raw["seed"] = seed
        self.raw.setdefault("force_non_order_preserving", self.force)


def _is_integer(value: Any) -> bool:
    # bool is an int subclass, but a JSON true is not a count or a seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flag(raw: dict[str, Any], key: str) -> bool:
    """An optional JSON boolean, false when absent; any other value is a config error."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _number(value: Any, field: str) -> float:
    """A JSON number read as a float; strings, booleans and other values are config errors."""
    if not _is_number(value):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field} is too large for a float") from None


def _list(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list")
    return value


def _numbers(value: Any, field: str) -> list[float]:
    return [_number(v, field) for v in _list(value, field)]


def _require(raw: dict[str, Any], key: str) -> Any:
    if key not in raw:
        raise ConfigError(f"missing required field {key!r}")
    return raw[key]


def _parse_interval(value: Any, field: str) -> Interval:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{field} must be a [lo, hi] pair")
    try:
        return Interval(_number(value[0], field), _number(value[1], field))
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _parse_function(value: Any, field: str = "function") -> ThresholdFunction:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object")
    kind = value.get("kind")
    try:
        if kind == "product":
            domain = value.get("domain", [0.0, 1.0])
            return ThresholdFunction.product(_parse_interval(domain, f"{field}.domain"))
        if kind == "ratio":
            return ThresholdFunction.ratio(_parse_interval(_require(value, "domain"), f"{field}.domain"))
        if kind == "tabulated":
            rows = _require(value, "table")
            if not isinstance(rows, list) or not all(
                isinstance(r, (list, tuple)) and len(r) == 3 for r in rows
            ):
                raise ConfigError(f"{field}.table must be a list of [x, p, value] rows")
            table = {
                (_number(x, f"{field}.table"), _number(p, f"{field}.table")): _number(v, f"{field}.table")
                for x, p, v in rows
            }
            domain = value.get("domain")
            return ThresholdFunction.tabulated(
                table, _parse_interval(domain, f"{field}.domain") if domain else None
            )
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    raise ConfigError(f"{field}.kind must be product, ratio, or tabulated")


def _parse_workers(value: Any, field: str = "workers") -> tuple[Worker, ...]:
    try:
        if isinstance(value, dict):
            count = _require(value, "count")
            if not _is_integer(count) or not 1 <= count <= MAX_GENERATED:
                raise ConfigError(f"{field}.count must be an integer in [1, {MAX_GENERATED}]")
            scheme = value.get("scheme", "linear")
            if scheme != "linear":
                raise ConfigError(f"{field}.scheme must be 'linear'")
            return tuple(Worker(id=i, rate=i / count) for i in range(1, count + 1))
        if isinstance(value, list):
            workers = []
            for entry in value:
                if not isinstance(entry, dict):
                    raise ConfigError(f"{field} entries must be objects")
                worker_id = _require(entry, "id")
                if not _is_integer(worker_id):
                    raise ConfigError(f"{field} ids must be integers")
                cycle = entry.get("cycle_rate")
                workers.append(
                    Worker(
                        id=worker_id,
                        rate=_number(_require(entry, "rate"), f"{field} rate"),
                        cycle_rate=math.inf if cycle is None else _number(cycle, f"{field} cycle_rate"),
                    )
                )
            return tuple(workers)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    raise ConfigError(f"{field} must be a list of workers or a generator object")


def _parse_jobs(value: Any, seed: int, field: str = "jobs") -> list[tuple[float, float]]:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object")
    if "values" in value:
        entries = value["values"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{field}.values must be a nonempty list")
        jobs: list[tuple[float, float]] = []
        for entry in entries:
            if _is_number(entry):
                entry = (entry, 0.0)
            elif not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ConfigError(f"{field}.values entries must be numbers or [value, time] pairs")
            jobs.append((_number(entry[0], f"{field}.values"), _number(entry[1], f"{field}.values")))
        previous = 0.0
        for _value, arrival_time in jobs:
            if not arrival_time >= previous:
                raise ConfigError(f"{field}.values arrival times must be nonnegative and nondecreasing")
            if not math.isfinite(arrival_time):
                raise ConfigError(f"{field}.values arrival times must be finite")
            previous = arrival_time
        return jobs
    if "distribution" in value:
        count = value.get("count")
        if not _is_integer(count) or not 1 <= count <= MAX_GENERATED:
            raise ConfigError(f"{field}.count must be an integer in [1, {MAX_GENERATED}]")
        spec = _parse_distribution(value["distribution"], f"{field}.distribution")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        return [(float(v), 0.0) for v in spec.sample(rng, count)]
    raise ConfigError(f"{field} requires either values or a distribution")


def _parse_distribution(value: Any, field: str) -> dsstap.DistributionSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object")
    kind = value.get("kind")
    try:
        if kind == "uniform":
            return dsstap.DistributionSpec.uniform(
                _number(_require(value, "a"), f"{field}.a"), _number(_require(value, "b"), f"{field}.b")
            )
        if kind == "point-mass":
            return dsstap.DistributionSpec.point_mass(_number(_require(value, "c"), f"{field}.c"))
        if kind == "empirical":
            return dsstap.DistributionSpec.empirical(_numbers(_require(value, "samples"), f"{field}.samples"))
        if kind == "gaussian-mixture":
            omega = _parse_interval(_require(value, "omega"), f"{field}.omega")
            spec = analysis.MixtureSpec(
                centers=tuple(_numbers(_require(value, "centers"), f"{field}.centers")),
                weights=tuple(_numbers(_require(value, "weights"), f"{field}.weights")),
                sigma=_number(_require(value, "sigma"), f"{field}.sigma"),
                omega=omega,
            )
            return dsstap.DistributionSpec.gaussian_mixture(spec)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    raise ConfigError(f"{field}.kind must be uniform, point-mass, empirical, or gaussian-mixture")


def _parse_alpha(raw: dict[str, Any], field: str = "alpha") -> float:
    alpha = _number(_require(raw, "alpha"), field)
    if not math.isfinite(alpha):
        raise ConfigError(f"{field} must be a finite number")
    return alpha


def _build_instance(raw: dict[str, Any], seed: int = 0, field: str = "") -> Instance:
    """An instance from the alpha, function and workers of ``raw``; ``field`` prefixes its errors."""
    try:
        return Instance(
            alpha=_parse_alpha(raw, f"{field}alpha"),
            f=_parse_function(_require(raw, "function"), f"{field}function"),
            workers=_parse_workers(_require(raw, "workers"), f"{field}workers"),
            rng_seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{field}{exc}") from exc


def _check_tabulated_work(pools: Sequence[tuple[ThresholdFunction, int]], n_jobs: int) -> None:
    """Refuse a run whose (function, worker count) pools, each offered every job, scan too much."""
    work = sum(n_jobs * n_workers for f, n_workers in pools if f.kind is FunctionKind.TABULATED)
    if work > TABULATED_MAX_WORK:
        raise ConfigError(f"tabulated jobs x workers must be at most {TABULATED_MAX_WORK}")


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _records_payload(records, jobs) -> list[dict[str, Any]]:
    payload = []
    for record, (value, _time) in zip(records, jobs):
        payload.append(
            {
                "job_id": record.job_id,
                "value": value,
                "outcome": "assigned" if record.assigned else "rejected",
                "worker_id": record.worker_id,
                "f_value": record.f_value,
                "threshold": record.threshold,
            }
        )
    return payload


def _records_csv(records, jobs) -> str:
    lines = ["job_id,value,outcome,worker_id,f_value"]
    for record, (value, _time) in zip(records, jobs):
        if record.assigned:
            lines.append(f"{record.job_id},{value!r},assigned,{record.worker_id},{record.f_value!r}")
        else:
            lines.append(f"{record.job_id},{value!r},rejected,,")
    return "\n".join(lines) + "\n"


def _run_simulate(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    instance = _build_instance(config.raw, config.seed)
    jobs = _parse_jobs(_require(config.raw, "jobs"), config.seed)
    mode = config.raw.get("cycle_delay_mode", "deterministic")
    if mode not in CYCLE_DELAY_MODES:
        raise ConfigError("cycle_delay_mode must be deterministic or exponential")
    _check_tabulated_work([(instance.f, len(instance.workers))], len(jobs))
    records, reward = run_stream(
        instance,
        jobs,
        force_non_order_preserving=config.force,
        cycle_delay_mode=mode,
    )
    heuristic = config.force and not verify_order_preserving(instance).preserving
    report = {
        "reward": reward,
        "heuristic": heuristic,
        "records": _records_payload(records, jobs),
    }
    return report, {"records.csv": _records_csv(records, jobs)}


def _run_check_order(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    raw = config.raw
    f = _parse_function(_require(raw, "function"))
    workers = _parse_workers(_require(raw, "workers"))
    rates = sorted({w.rate for w in workers})
    if "probes" in raw:
        probes = _numbers(raw["probes"], "probes")
    else:
        observed = []
        if "jobs" in raw:
            observed = [value for value, _t in _parse_jobs(raw["jobs"], config.seed)]
        probes = default_probe_grid(f, observed)
    try:
        result = check_order_preserving(f, probes, rates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    witness = None if result.witness is None else dataclasses.asdict(result.witness)
    return {"preserving": result.preserving, "witness": witness}, {}


def _run_analyze_load(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    instance = _build_instance(config.raw, config.seed)
    jobs = _parse_jobs(_require(config.raw, "jobs"), config.seed)
    if len(jobs) != len(instance.workers):
        raise ConfigError("analyze-load needs exactly one job per worker")
    _check_tabulated_work([(instance.f, len(instance.workers))], len(jobs))
    result = analysis.verify_load_bounds(instance, [value for value, _t in jobs])
    report: dict[str, Any] = {
        "verdict": result.verdict.value,
        "reward": result.reward,
        "l_jobs": result.l_jobs,
    }
    if result.report is not None:
        report["u"] = list(result.report.u)
        report["v"] = list(result.report.v)
        report["l_max"] = result.report.l_max
        report["l_min"] = result.report.l_min
    return report, {}


def _run_multilevel(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    raw = config.raw
    levels_raw = _require(raw, "levels")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise ConfigError("levels must be a nonempty list")
    levels = []
    for position, entry in enumerate(levels_raw, start=1):
        if not isinstance(entry, dict):
            raise ConfigError("levels entries must be objects")
        level = _build_instance(entry, field=f"levels[{position}].")
        if not level.workers:
            raise ConfigError(f"levels[{position}].workers must not be empty")
        levels.append(level)
    ids = [worker.id for level in levels for worker in level.workers]
    if len(set(ids)) != len(ids):
        raise ConfigError("worker ids must be unique across levels")
    jobs = _parse_jobs(_require(raw, "jobs"), config.seed)
    compare = _flag(raw, "compare_flat")
    # the flat pool runs every worker under the first level's function
    flat = [(levels[0].f, len(ids))] if compare else []
    _check_tabulated_work([(level.f, len(level.workers)) for level in levels] + flat, len(jobs))
    if compare:
        comparison = multilevel.compare_flat(levels, jobs, force_non_order_preserving=config.force)
        result = comparison.leveled
        extra = {"flat": comparison.flat, "gap": comparison.gap}
    else:
        result = multilevel.run_multilevel(levels, jobs, force_non_order_preserving=config.force)
        extra = {}
    report = {
        "rewards": list(result.rewards),
        "total": result.total,
        "job_outcomes": [
            {"job_id": job_id, "level": level} for job_id, level in result.job_outcomes
        ],
    }
    report.update(extra)
    return report, {}


def _run_dsstap(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    raw = config.raw
    case = _require(raw, "case")
    f = _parse_function(_require(raw, "function"))
    alpha = _parse_alpha(raw)
    samples = raw.get("samples", dsstap.DEFAULT_MC_SAMPLES)
    if not _is_integer(samples) or not dsstap.MIN_MC_SAMPLES <= samples <= MAX_MC_SAMPLES:
        raise ConfigError(f"samples must be an integer in [{dsstap.MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    rate_entries = _list(_require(raw, "rate_specs"), "rate_specs")
    # case I has one cell per rate spec, case II one per job spec and rate spec
    job_entries = _list(_require(raw, "job_specs"), "job_specs") if case == "II" else [None]
    if len(job_entries) * len(rate_entries) * samples > DSSTAP_MAX_WORK:
        raise ConfigError(f"dsstap cells x samples must be at most {DSSTAP_MAX_WORK}")
    rate_specs = [_parse_distribution(entry, f"rate_specs[{i}]") for i, entry in enumerate(rate_entries)]
    if case == "I":
        job_spec = _parse_distribution(_require(raw, "job_spec"), "job_spec")
        value, std_error = dsstap.expected_reward_case1(
            job_spec, rate_specs, f, alpha, mc=(samples, config.seed)
        )
        return {"case": "I", "value": value, "std_error": std_error}, {}
    if case == "II":
        job_specs = [_parse_distribution(entry, f"job_specs[{i}]") for i, entry in enumerate(job_entries)]
        try:
            matrix = dsstap.estimate_prob_matrix(job_specs, rate_specs, f, alpha, mc=(samples, config.seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        assignment, total = dsstap.hungarian_max(matrix)
        report = {
            "case": "II",
            "provenance": matrix.provenance.value,
            "samples": matrix.samples,
            "entries": matrix.entries,
            "std_error": matrix.std_error,
            "assignment": list(assignment),
            "total": total,
        }
        return report, {"matrix.csv": matrix.csv_text()}
    raise ConfigError("case must be 'I' or 'II'")


def run_figure1(
    n: int,
    alphas: Sequence[float],
    trials: int,
    seed: int,
    domain: Interval = Interval(1e-6, 1.0),
) -> list[dict[str, float]]:
    """Threshold sweep: greedy pass counts for the ratio function.

    Workers have rates i/n; each trial draws n uniform job values from the
    domain (stream derived from (seed, trial)) and the same draws are
    reused across every threshold. Returns one row per threshold with the
    mean and sample standard deviation of the pass count.
    """
    if n < 1:
        raise ConfigError("figure1.n must be positive")
    if trials < 1:
        raise ConfigError("figure1.trials must be positive")
    try:
        f = ThresholdFunction.ratio(domain)
    except ValueError as exc:
        raise ConfigError(f"figure1.domain: {exc}") from exc
    rates = [i / n for i in range(1, n + 1)]
    counts = np.zeros((len(alphas), trials))
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        jobs = rng.uniform(domain.lo, domain.hi, n)
        for k, alpha in enumerate(alphas):
            counts[k, trial] = greedy_threshold_count(f, float(alpha), rates, jobs)
    rows = []
    for k, alpha in enumerate(alphas):
        std = float(counts[k].std(ddof=1)) if trials > 1 else 0.0
        rows.append(
            {"alpha": float(alpha), "mean_passed": float(counts[k].mean()), "std_dev": std}
        )
    return rows


def _figure1_csv(rows: Sequence[dict[str, float]]) -> str:
    lines = ["alpha,mean_passed,std_dev"]
    for row in rows:
        lines.append(f"{row['alpha']!r},{row['mean_passed']!r},{row['std_dev']!r}")
    return "\n".join(lines) + "\n"


def _run_figure1(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    section = config.raw.get("figure1", {})
    if not isinstance(section, dict):
        raise ConfigError("figure1 must be an object")
    raw = {**FIGURE1_DEFAULTS, **section}
    n = raw["n"]
    trials = raw["trials"]
    if not _is_integer(n) or not _is_integer(trials):
        raise ConfigError("figure1.n and figure1.trials must be integers")
    alphas_cfg = raw["alphas"]
    if isinstance(alphas_cfg, dict):
        start = _number(alphas_cfg.get("start", 0.1), "figure1.alphas.start")
        stop = _number(alphas_cfg.get("stop", 5.0), "figure1.alphas.stop")
        step = _number(alphas_cfg.get("step", 0.1), "figure1.alphas.step")
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError("figure1.alphas start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise ConfigError("figure1.alphas must have positive step and stop >= start")
        steps = (stop - start) / step + 1e-9
        if not steps < FIGURE1_MAX_THRESHOLDS:
            raise ConfigError(f"figure1.alphas must give at most {FIGURE1_MAX_THRESHOLDS} thresholds")
        count = int(math.floor(steps)) + 1
        alphas = [start + k * step for k in range(count)]
    elif isinstance(alphas_cfg, list) and alphas_cfg:
        alphas = [_number(a, "figure1.alphas") for a in alphas_cfg]
        if not all(math.isfinite(a) for a in alphas):
            raise ConfigError("figure1.alphas must be finite")
    else:
        raise ConfigError("figure1.alphas must be a list or a start/stop/step object")
    if n > MAX_GENERATED:
        raise ConfigError(f"figure1.n must be at most {MAX_GENERATED}")
    if n * len(alphas) * trials > FIGURE1_MAX_WORK:
        raise ConfigError(f"figure1 n x thresholds x trials must be at most {FIGURE1_MAX_WORK}")
    domain = _parse_interval(raw["domain"], "figure1.domain")
    rows = run_figure1(n, alphas, trials, config.seed, domain)
    report = {"n": n, "trials": trials, "rows": rows}
    return report, {"figure1.csv": _figure1_csv(rows)}


_DISPATCH = {
    "simulate": _run_simulate,
    "check-order": _run_check_order,
    "analyze-load": _run_analyze_load,
    "multilevel": _run_multilevel,
    "dsstap": _run_dsstap,
    "figure1": _run_figure1,
}


def run(config: RunConfig) -> tuple[dict[str, Any], dict[str, str]]:
    """Execute one mode; returns (report dict, extra CSV files by name)."""
    body, files = _DISPATCH[config.mode](config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": config.mode,
        "seed": config.seed,
        "config": config.raw,
    }
    report.update(body)
    return _jsonify(report), files


def _write_outputs(report: dict[str, Any], files: dict[str, str], out_dir: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_dir is None:
        sys.stdout.write(text)
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(text)
    for name, content in files.items():
        (directory / name).write_text(content)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sstap",
        description="Sequential threshold assignment simulator and analyzer",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--mode", choices=MODES, help="override the mode in the config")
    parser.add_argument("--seed", type=int, help="override the seed in the config")
    parser.add_argument("--out", help="directory for report.json and CSV outputs")
    parser.add_argument("--trials", type=int, help="override figure1 trial count")
    parser.add_argument(
        "--force-non-order-preserving",
        action="store_true",
        help="run the policy heuristically on a non-order-preserving function",
    )
    args = parser.parse_args(argv)

    try:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past the parser's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        if args.mode:
            raw["mode"] = args.mode
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.trials is not None:
            raw.setdefault("figure1", {})
            if not isinstance(raw["figure1"], dict):
                raise ConfigError("figure1 must be an object")
            raw["figure1"]["trials"] = args.trials
        if args.force_non_order_preserving:
            raw["force_non_order_preserving"] = True
        config = RunConfig(raw)
        report, files = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SstapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_outputs(report, files, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
