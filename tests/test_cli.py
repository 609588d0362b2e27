"""CLI: config validation, mode dispatch, reports, CSVs, determinism."""

from __future__ import annotations

import contextlib
import json
import math
import signal
import subprocess
import sys

import pytest

from sstap import cli
from tests.conftest import NON_ORDER_PRESERVING_TABLE

GOLDEN_SIMULATE = {
    "mode": "simulate",
    "alpha": 0.15,
    "function": {"kind": "product", "domain": [0.0, 1.0]},
    "workers": [
        {"id": 1, "rate": 0.4},
        {"id": 2, "rate": 0.5},
        {"id": 3, "rate": 0.6},
        {"id": 4, "rate": 0.7},
    ],
    "jobs": {"values": [0.0975, 0.275, 0.9575, 0.4854]},
    "seed": 0,
}

TABULATED_FUNCTION = {
    "kind": "tabulated",
    "table": [[x, p, v] for (x, p), v in sorted(NON_ORDER_PRESERVING_TABLE.items())],
}


MIXTURE_CASE1 = {
    "mode": "dsstap",
    "case": "I",
    "alpha": 0.58,
    "samples": 2_000,
    "function": {"kind": "product"},
    "job_spec": {
        "kind": "gaussian-mixture",
        "omega": [0.0, 1.0],
        "centers": [0.6],
        "weights": [1.0],
        "sigma": 0.05,
    },
    "rate_specs": [{"kind": "point-mass", "c": 1.0}],
}

# One tabulated pair, with 1001 x 1000 atom pairs: above the exact cap, so
# the pass probability is sampled.
TABULATED_MONTE_CARLO = {
    "mode": "dsstap",
    "case": "I",
    "alpha": 0.5,
    "samples": 1000,
    "function": {"kind": "tabulated", "table": [[0.5, 0.5, 1.0]]},
    "job_spec": {"kind": "empirical", "samples": [0.5] * 1001},
    "rate_specs": [{"kind": "empirical", "samples": [0.5] * 1000}],
}


def with_mixture(**changes):
    return {**MIXTURE_CASE1, "job_spec": {**MIXTURE_CASE1["job_spec"], **changes}}


def with_alpha_range(**changes):
    alphas = {"start": 0.5, "stop": 1.0, "step": 0.25, **changes}
    return {"mode": "figure1", "figure1": {"n": 5, "alphas": alphas, "trials": 2}}


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once it has run for the given seconds."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *extra, out=None):
    argv = ["--config", write_config(tmp_path, payload)]
    if out is not None:
        argv += ["--out", str(out)]
    argv += list(extra)
    return cli.main(argv)


class TestConfigValidation:
    def test_missing_mode_exits_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, {"alpha": 0.1}) == 2
        assert "mode" in capsys.readouterr().err

    def test_unknown_mode_exits_2(self, tmp_path):
        assert run_cli(tmp_path, {"mode": "solve"}) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "absent.json")]) == 2

    def test_missing_field_named_in_error(self, tmp_path, capsys):
        payload = dict(GOLDEN_SIMULATE)
        del payload["workers"]
        assert run_cli(tmp_path, payload) == 2
        assert "workers" in capsys.readouterr().err

    def test_bad_seed_type_exits_2(self, tmp_path):
        assert run_cli(tmp_path, {**GOLDEN_SIMULATE, "seed": "zero"}) == 2

    def test_bad_schema_version_exits_2(self, tmp_path):
        assert run_cli(tmp_path, {**GOLDEN_SIMULATE, "schema_version": 99}) == 2

    def test_bad_interval_named(self, tmp_path, capsys):
        payload = {**GOLDEN_SIMULATE, "function": {"kind": "product", "domain": [1, 0]}}
        assert run_cli(tmp_path, payload) == 2
        assert "function.domain" in capsys.readouterr().err

    def test_bad_worker_rate_exits_2(self, tmp_path):
        payload = {**GOLDEN_SIMULATE, "workers": [{"id": 1, "rate": 2.0}]}
        assert run_cli(tmp_path, payload) == 2


class TestSimulateMode:
    def test_golden_report(self, tmp_path, capsys):
        assert run_cli(tmp_path, GOLDEN_SIMULATE) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "simulate"
        assert report["reward"] == 3
        assert report["heuristic"] is False
        outcomes = [(r["outcome"], r["worker_id"]) for r in report["records"]]
        assert outcomes == [
            ("rejected", None),
            ("assigned", 3),
            ("assigned", 1),
            ("assigned", 2),
        ]
        assert report["config"]["alpha"] == 0.15
        assert report["schema_version"] == 1

    def test_records_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(tmp_path, GOLDEN_SIMULATE, out=out) == 0
        csv = (out / "records.csv").read_text().splitlines()
        assert csv[0] == "job_id,value,outcome,worker_id,f_value"
        assert csv[1] == "1,0.0975,rejected,,"
        assert csv[2].startswith("2,0.275,assigned,3,0.165")
        assert len(csv) == 5

    def test_non_order_preserving_exits_3(self, tmp_path, capsys):
        payload = {
            "mode": "simulate",
            "alpha": 0.1,
            "function": TABULATED_FUNCTION,
            "workers": [
                {"id": 1, "rate": 0.25},
                {"id": 2, "rate": 0.5},
                {"id": 3, "rate": 0.75},
            ],
            "jobs": {"values": [1.0, 2.0, 3.0]},
        }
        assert run_cli(tmp_path, payload) == 3
        assert "order" in capsys.readouterr().err

    def test_force_flag_runs_heuristically(self, tmp_path, capsys):
        payload = {
            "mode": "simulate",
            "alpha": 0.1,
            "function": TABULATED_FUNCTION,
            "workers": [
                {"id": 1, "rate": 0.25},
                {"id": 2, "rate": 0.5},
                {"id": 3, "rate": 0.75},
            ],
            "jobs": {"values": [1.0, 2.0, 3.0]},
        }
        assert run_cli(tmp_path, payload, "--force-non-order-preserving") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reward"] == 2
        assert report["heuristic"] is True

    def test_domain_violation_exits_3(self, tmp_path):
        payload = {**GOLDEN_SIMULATE, "jobs": {"values": [1.5]}}
        assert run_cli(tmp_path, payload) == 3

    def test_sampled_jobs_are_seeded(self, tmp_path, capsys):
        payload = {
            **GOLDEN_SIMULATE,
            "jobs": {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0}, "count": 8},
        }
        assert run_cli(tmp_path, payload) == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli(tmp_path, payload) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert len(first["records"]) == 8

    def test_worker_generator_scheme(self, tmp_path, capsys):
        payload = {
            **GOLDEN_SIMULATE,
            "workers": {"count": 5, "scheme": "linear"},
            "jobs": {"values": [0.9]},
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        # rates 0.2..1.0; the weakest feasible one takes the job
        assert report["records"][0]["worker_id"] == 1

    def test_seed_override_changes_sampled_jobs(self, tmp_path, capsys):
        payload = {
            **GOLDEN_SIMULATE,
            "jobs": {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0}, "count": 4},
        }
        assert run_cli(tmp_path, payload) == 0
        base = json.loads(capsys.readouterr().out)
        assert run_cli(tmp_path, payload, "--seed", "7") == 0
        other = json.loads(capsys.readouterr().out)
        assert base["records"] != other["records"]
        assert other["seed"] == 7

    def test_cycling_workers_config(self, tmp_path, capsys):
        payload = {
            "mode": "simulate",
            "alpha": 0.1,
            "function": {"kind": "product"},
            "workers": [{"id": 1, "rate": 0.5, "cycle_rate": 2.0}],
            "jobs": {"values": [[0.9, 0.0], [0.9, 0.25], [0.9, 0.5]]},
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["outcome"] for r in report["records"]] == [
            "assigned",
            "rejected",
            "assigned",
        ]


class TestCheckOrderMode:
    def test_preserving_function(self, tmp_path, capsys):
        payload = {
            "mode": "check-order",
            "function": {"kind": "product"},
            "workers": [{"id": 1, "rate": 0.4}, {"id": 2, "rate": 0.9}],
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["preserving"] is True and report["witness"] is None

    def test_violation_reports_witness(self, tmp_path, capsys):
        payload = {
            "mode": "check-order",
            "function": TABULATED_FUNCTION,
            "workers": [
                {"id": 1, "rate": 0.25},
                {"id": 2, "rate": 0.5},
                {"id": 3, "rate": 0.75},
            ],
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["preserving"] is False
        assert set(report["witness"]) == {"x_a", "x_b", "p_u", "p_v"}


class TestAnalyzeLoadMode:
    def test_bounds_hold_report(self, tmp_path, capsys):
        payload = {
            **GOLDEN_SIMULATE,
            "mode": "analyze-load",
            "jobs": {"values": [0.9, 0.8, 0.7, 0.6]},
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "bounds-hold"
        assert report["l_min"] <= report["l_jobs"] <= report["l_max"]
        assert report["u"] == [1.0, 1.0, 1.0, 1.0]

    def test_vacuous_report(self, tmp_path, capsys):
        payload = {**GOLDEN_SIMULATE, "mode": "analyze-load"}
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "vacuous"
        assert "l_max" not in report


class TestMultilevelMode:
    PAYLOAD = {
        "mode": "multilevel",
        "levels": [
            {
                "workers": [{"id": 1, "rate": 0.9}],
                "alpha": 0.42,
                "function": {"kind": "product"},
            },
            {
                "workers": [{"id": 2, "rate": 0.5}],
                "alpha": 0.42,
                "function": {"kind": "product"},
            },
        ],
        "jobs": {"values": [0.85, 0.5]},
    }

    def test_leveled_run(self, tmp_path, capsys):
        assert run_cli(tmp_path, self.PAYLOAD) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rewards"] == [1, 0]
        assert report["total"] == 1
        assert report["job_outcomes"] == [
            {"job_id": 1, "level": 1},
            {"job_id": 2, "level": None},
        ]

    def test_compare_flat(self, tmp_path, capsys):
        payload = {**self.PAYLOAD, "compare_flat": True}
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["total"], report["flat"], report["gap"]) == (1, 2, 1)

    def test_incomparable_levels_exit_3(self, tmp_path):
        levels = [dict(self.PAYLOAD["levels"][0]), dict(self.PAYLOAD["levels"][1])]
        levels[1] = {**levels[1], "alpha": 0.5}
        payload = {**self.PAYLOAD, "levels": levels, "compare_flat": True}
        assert run_cli(tmp_path, payload) == 3


class TestDsstapMode:
    def test_case1_closed_form(self, tmp_path, capsys):
        payload = {
            "mode": "dsstap",
            "case": "I",
            "alpha": 0.15,
            "function": {"kind": "product"},
            "job_spec": {"kind": "uniform", "a": 0.0, "b": 1.0},
            "rate_specs": [
                {"kind": "point-mass", "c": 0.4},
                {"kind": "point-mass", "c": 0.5},
                {"kind": "point-mass", "c": 0.6},
                {"kind": "point-mass", "c": 0.7},
            ],
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(2.8607142857142858, abs=1e-12)
        assert report["std_error"] == 0.0

    def test_case2_matrix_and_matching(self, tmp_path, capsys):
        out = tmp_path / "out"
        payload = {
            "mode": "dsstap",
            "case": "II",
            "alpha": 0.45,
            "function": {"kind": "product"},
            "job_specs": [
                {"kind": "point-mass", "c": 0.3},
                {"kind": "point-mass", "c": 0.9},
            ],
            "rate_specs": [
                {"kind": "point-mass", "c": 0.5},
                {"kind": "point-mass", "c": 1.0},
            ],
        }
        assert run_cli(tmp_path, payload, out=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["entries"] == [[0.0, 0.0], [1.0, 1.0]]
        assert report["provenance"] == "closed-form"
        assert report["total"] == 1.0
        assert sorted(report["assignment"]) == [0, 1]
        csv = (out / "matrix.csv").read_text().splitlines()
        assert csv[0] == "i,j,w,std_error"
        assert len(csv) == 5

    def test_bad_spec_exits_3(self, tmp_path):
        payload = {
            "mode": "dsstap",
            "case": "I",
            "alpha": 0.15,
            "function": {"kind": "product"},
            "job_spec": {"kind": "uniform", "a": -1.0, "b": 0.5},
            "rate_specs": [{"kind": "point-mass", "c": 0.5}],
        }
        assert run_cli(tmp_path, payload) == 3

    def test_too_few_samples_exits_2(self, tmp_path):
        payload = {
            "mode": "dsstap",
            "case": "I",
            "alpha": 0.15,
            "function": {"kind": "product"},
            "samples": 10,
            "job_spec": {"kind": "uniform", "a": 0.0, "b": 1.0},
            "rate_specs": [{"kind": "point-mass", "c": 0.5}],
        }
        assert run_cli(tmp_path, payload) == 2

    def test_gaussian_mixture_spec_parses(self, tmp_path, capsys):
        assert run_cli(tmp_path, MIXTURE_CASE1) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["std_error"] > 0.0
        # Pr(X >= 0.58) for X ~ N(0.6, 0.05^2) barely truncated by [0, 1]
        assert report["value"] == pytest.approx(0.6554, abs=0.06)

    def test_tabulated_monte_carlo_case1(self, tmp_path, capsys):
        assert run_cli(tmp_path, TABULATED_MONTE_CARLO) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == 1.0 and report["std_error"] == 0.0

    def test_tabulated_monte_carlo_case2(self, tmp_path, capsys):
        payload = {**TABULATED_MONTE_CARLO, "case": "II", "job_specs": [TABULATED_MONTE_CARLO["job_spec"]]}
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["provenance"] == "monte-carlo"
        assert report["entries"] == [[1.0]] and report["total"] == 1.0


class TestFigure1Mode:
    def test_small_sweep(self, tmp_path, capsys):
        payload = {
            "mode": "figure1",
            "figure1": {"n": 50, "alphas": [0.5, 3.0], "trials": 20},
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 50 and report["trials"] == 20
        assert [row["alpha"] for row in report["rows"]] == [0.5, 3.0]
        assert report["rows"][0]["mean_passed"] > report["rows"][1]["mean_passed"]

    def test_trials_override_flag(self, tmp_path, capsys):
        payload = {
            "mode": "figure1",
            "figure1": {"n": 20, "alphas": [1.0], "trials": 5},
        }
        assert run_cli(tmp_path, payload, "--trials", "9") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 9

    def test_sweep_object_expands(self, tmp_path, capsys):
        payload = {
            "mode": "figure1",
            "figure1": {
                "n": 20,
                "alphas": {"start": 0.5, "stop": 1.0, "step": 0.25},
                "trials": 3,
            },
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["alpha"] for row in report["rows"]] == [0.5, 0.75, 1.0]

    def test_threshold_count_is_capped(self, tmp_path, capsys):
        at_cap = with_alpha_range(start=0.0, stop=cli.FIGURE1_MAX_THRESHOLDS - 1.0, step=1.0)
        at_cap["figure1"].update(n=1, trials=1)
        assert run_cli(tmp_path, at_cap) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == cli.FIGURE1_MAX_THRESHOLDS
        above = with_alpha_range(start=0.0, stop=float(cli.FIGURE1_MAX_THRESHOLDS), step=1.0)
        assert run_cli(tmp_path, above) == 2
        assert "at most" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "out"
        payload = {
            "mode": "figure1",
            "figure1": {"n": 20, "alphas": [1.0, 2.0], "trials": 4},
        }
        assert run_cli(tmp_path, payload, out=out) == 0
        lines = (out / "figure1.csv").read_text().splitlines()
        assert lines[0] == "alpha,mean_passed,std_dev"
        assert len(lines) == 3
        assert lines[1].startswith("1.0,")


def _shared_id_levels():
    levels = [dict(level) for level in TestMultilevelMode.PAYLOAD["levels"]]
    levels[1]["workers"] = [{"id": 1, "rate": 0.5}]
    return {**TestMultilevelMode.PAYLOAD, "levels": levels}


class TestExitCodeContract:
    """Malformed configs exit 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "payload",
        [
            {**GOLDEN_SIMULATE, "jobs": {"values": [[0.9, 1.0], [0.9, 0.5]]}},
            {**TestMultilevelMode.PAYLOAD, "jobs": {"values": [[0.85, 2.0], [0.5, 1.0]]}},
            _shared_id_levels(),
            {"mode": "figure1", "figure1": {"n": 5, "alphas": [1.0], "trials": 2, "domain": [0.0, 1.0]}},
            {**GOLDEN_SIMULATE, "alpha": True},
            {**GOLDEN_SIMULATE, "seed": True},
            {**GOLDEN_SIMULATE, "workers": {"count": True}},
            {**GOLDEN_SIMULATE, "mode": "check-order", "probes": 5},
            {**GOLDEN_SIMULATE, "mode": "check-order", "probes": []},
            {**GOLDEN_SIMULATE, "mode": "check-order", "workers": []},
            with_mixture(centers=0.5),
            with_mixture(weights=1.0),
            with_mixture(sigma=0),
            {**MIXTURE_CASE1, "rate_specs": 5},
            {**MIXTURE_CASE1, "case": "II", "job_specs": 5},
            with_alpha_range(step=math.nan),
            with_alpha_range(stop=math.inf),
            {"mode": "figure1", "figure1": {"n": 5, "alphas": [0.5, math.nan], "trials": 2}},
            {"mode": "figure1", "figure1": 5},
        ],
        ids=[
            "simulate-time-backwards",
            "multilevel-time-backwards",
            "worker-id-shared-by-levels",
            "figure1-domain-at-zero",
            "alpha-true",
            "seed-true",
            "worker-count-true",
            "probes-not-a-list",
            "probes-empty",
            "check-order-without-workers",
            "mixture-centers-not-a-list",
            "mixture-weights-not-a-list",
            "mixture-sigma-zero",
            "rate-specs-not-a-list",
            "job-specs-not-a-list",
            "figure1-step-nan",
            "figure1-stop-infinity",
            "figure1-alpha-list-nan",
            "figure1-not-an-object",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, payload):
        assert run_cli(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            with_mixture(sigma=math.nan),
            with_mixture(centers=[math.nan]),
            with_mixture(centers=[0.4, 0.6], weights=[math.nan, 1.0]),
            with_alpha_range(step=1e-300),
        ],
        ids=["mixture-sigma-nan", "mixture-center-nan", "mixture-weight-nan", "figure1-step-tiny"],
    )
    def test_unbounded_work_is_refused_within_a_second(self, tmp_path, capsys, payload):
        with time_limit(1.0):
            assert run_cli(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "payload",
        [
            GOLDEN_SIMULATE,
            {
                "mode": "figure1",
                "figure1": {"n": 30, "alphas": [0.5, 2.0], "trials": 6},
                "seed": 3,
            },
        ],
        ids=["simulate", "figure1"],
    )
    def test_reruns_are_byte_identical(self, tmp_path, payload):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(tmp_path, payload, out=out_a) == 0
        assert run_cli(tmp_path, payload, out=out_b) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_console_script_entry_point(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_SIMULATE))
    result = subprocess.run(
        [sys.executable, "-m", "sstap.cli", "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["reward"] == 3
