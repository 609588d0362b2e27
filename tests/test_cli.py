"""CLI: config validation, mode dispatch, reports, CSVs, determinism."""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstap import cli
from tests.conftest import NON_ORDER_PRESERVING_TABLE, time_limit

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


# 401 digits: a JSON integer that float() cannot hold.
HUGE = 10**400


def with_alpha_range(**changes):
    alphas = {"start": 0.5, "stop": 1.0, "step": 0.25, **changes}
    return {"mode": "figure1", "figure1": {"n": 5, "alphas": alphas, "trials": 2}}


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

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, GOLDEN_SIMULATE, "--seed", "-1") == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--mode", "simulate"], ["--seed", "3"], ["--trials", "2"], ["--force-non-order-preserving"]]
    )
    def test_override_of_a_non_object_root_exits_2(self, tmp_path, capsys, flag):
        assert run_cli(tmp_path, [1], *flag) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_bad_schema_version_exits_2(self, tmp_path):
        assert run_cli(tmp_path, {**GOLDEN_SIMULATE, "schema_version": 99}) == 2

    def test_bad_interval_named(self, tmp_path, capsys):
        payload = {**GOLDEN_SIMULATE, "function": {"kind": "product", "domain": [1, 0]}}
        assert run_cli(tmp_path, payload) == 2
        assert "function.domain" in capsys.readouterr().err

    def test_integer_past_the_json_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"mode": "simulate", "seed": ' + "9" * 5000 + "}")
        assert cli.main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

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

    def test_hundred_thousand_workers_within_two_seconds(self, tmp_path, capsys):
        payload = {"mode": "check-order", "function": {"kind": "product"}, "workers": {"count": 100_000}}
        with time_limit(2.0):
            assert run_cli(tmp_path, payload) == 0
        assert json.loads(capsys.readouterr().out)["preserving"] is True

    def test_probe_outside_domain_exits_3(self, tmp_path, capsys):
        payload = {**GOLDEN_SIMULATE, "mode": "check-order", "probes": [0.5, 1.5]}
        assert run_cli(tmp_path, payload) == 3
        assert "outside domain" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "alpha,kind,domain,rates,jobs",
        [
            (1e-10, "ratio", [0.001, 1e10], [0.3, 0.7], [1.0, 2.0]),
            (1.2141868412068164, "product", [0, 1.4302060167127721], [0.8489593995678604], [1.4302060167127721]),
            (0.0741117558755038, "ratio", [7.495148022718467, 10], [0.5554785805104759], [7.495148022718467]),
            (1.2141868412068164, "product", [0, 10], [0.8489593995678604], [1.4302060167127721]),
        ],
        ids=["ratio-wide-domain", "product-boundary-past-domain", "ratio-boundary-past-domain",
             "product-job-at-the-edge"],
    )
    def test_rounding_at_the_boundary_keeps_the_sandwich(self, tmp_path, capsys, alpha, kind, domain, rates, jobs):
        payload = {
            "mode": "analyze-load",
            "alpha": alpha,
            "function": {"kind": kind, "domain": domain},
            "workers": [{"id": i, "rate": rate} for i, rate in enumerate(rates, start=1)],
            "jobs": {"values": jobs},
        }
        assert run_cli(tmp_path, payload) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "bounds-hold"
        assert report["l_min"] <= report["l_jobs"] <= report["l_max"]

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

    def test_mixture_too_wide_to_sample_exits_3(self, tmp_path, capsys):
        payload = {**with_mixture(centers=[0.5], sigma=1000), "samples": 1000}
        assert run_cli(tmp_path, payload) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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


def tabulated_run(workers, n_jobs, mode="simulate", full_table=True):
    """Point-mass jobs at 0.5 under a tabulated f, offered to linear workers.

    With the full table every job scans every free worker; without it the
    order check at the start of the run meets a missing pair and exits 3.
    """
    rates = [i / workers for i in range(1, workers + 1)]
    table = [[0.5, rate, 1.0] for rate in rates] if full_table else [[0.5, 1.0, 1.0]]
    return {
        "mode": mode,
        "alpha": 0.5,
        "function": {"kind": "tabulated", "table": table},
        "workers": {"count": workers},
        "jobs": {"distribution": {"kind": "point-mass", "c": 0.5}, "count": n_jobs},
    }


def tabulated_levels(level_sizes, n_jobs, compare_flat, full_table=True):
    """A multilevel run of ``tabulated_run`` levels with the given worker counts and distinct ids."""
    levels, first_id = [], 1
    for size in level_sizes:
        run = tabulated_run(size, n_jobs, full_table=full_table)
        workers = [{"id": first_id + k, "rate": (k + 1) / size} for k in range(size)]
        levels.append({"alpha": run["alpha"], "function": run["function"], "workers": workers})
        first_id += size
    jobs = tabulated_run(1, n_jobs)["jobs"]
    return {"mode": "multilevel", "levels": levels, "jobs": jobs, "compare_flat": compare_flat}


def _with_level(position, **changes):
    levels = [dict(level) for level in TestMultilevelMode.PAYLOAD["levels"]]
    levels[position].update(changes)
    return {**TestMultilevelMode.PAYLOAD, "levels": levels}


class TestExitCodeContract:
    """Malformed configs exit 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "payload",
        [
            {**GOLDEN_SIMULATE, "jobs": {"values": [[0.9, 1.0], [0.9, 0.5]]}},
            {**TestMultilevelMode.PAYLOAD, "jobs": {"values": [[0.85, 2.0], [0.5, 1.0]]}},
            _with_level(1, workers=[{"id": 1, "rate": 0.5}]),
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
            {**GOLDEN_SIMULATE, "jobs": {"values": [[0.5, 0.0], [0.6, math.inf]]}},
            {**TestMultilevelMode.PAYLOAD, "jobs": {"values": [[0.5, math.inf]]}},
            {**GOLDEN_SIMULATE, "mode": "analyze-load", "workers": GOLDEN_SIMULATE["workers"][:2],
             "jobs": {"values": [0.9]}},
            {**GOLDEN_SIMULATE, "workers": [{"id": 1, "rate": "0.9"}]},
            {**GOLDEN_SIMULATE, "jobs": {"values": [["0.9", "1"]]}},
            _with_level(1, alpha="0.42"),
            _with_level(0, workers=[]),
            {**GOLDEN_SIMULATE, "alpha": HUGE},
            {**GOLDEN_SIMULATE, "workers": [{"id": 1, "rate": HUGE}]},
            {**GOLDEN_SIMULATE, "jobs": {"values": [HUGE]}},
            {**GOLDEN_SIMULATE, "function": {"kind": "product", "domain": [0, HUGE]}},
            {**GOLDEN_SIMULATE, "seed": -1, "jobs": {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0}, "count": 4}},
            {**MIXTURE_CASE1, "seed": -1},
            {"mode": "figure1", "figure1": {"n": 5, "alphas": [1.0], "trials": 2}, "seed": -1},
            {**GOLDEN_SIMULATE, "function": {"kind": "product", "domain": [0, 1e308]},
             "jobs": {"distribution": {"kind": "uniform", "a": -1e308, "b": 1e308}, "count": 4}},
            {**GOLDEN_SIMULATE, "force_non_order_preserving": "no"},
            {**TestMultilevelMode.PAYLOAD, "compare_flat": "false"},
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
            "simulate-arrival-time-infinite",
            "multilevel-arrival-time-infinite",
            "analyze-load-unequal-counts",
            "worker-rate-string",
            "job-pair-strings",
            "level-alpha-string",
            "level-without-workers",
            "alpha-huge-integer",
            "worker-rate-huge-integer",
            "job-value-huge-integer",
            "domain-endpoint-huge-integer",
            "seed-negative-simulate",
            "seed-negative-dsstap",
            "seed-negative-figure1",
            "uniform-width-overflows",
            "force-flag-string",
            "compare-flat-string",
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
            {**GOLDEN_SIMULATE, "workers": {"count": 10**9}},
            {**GOLDEN_SIMULATE, "jobs": {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0}, "count": 10**10}},
            {"mode": "figure1", "figure1": {"n": 10**8}},
            {"mode": "figure1", "figure1": {"trials": 10**9}},
            {**MIXTURE_CASE1, "samples": 10**10},
            {**MIXTURE_CASE1, "case": "II", "samples": cli.MAX_MC_SAMPLES,
             "job_specs": [{"kind": "point-mass", "c": 0.5}] * 40,
             "rate_specs": [{"kind": "point-mass", "c": 0.5}] * 40},
            # 3163^2 = 10_004_569 jobs x workers, just over the tabulated cap
            tabulated_run(3163, 3163),
            tabulated_run(3163, 3163, mode="analyze-load"),
            # 2 levels x 1600 workers x 3126 jobs = 10_003_200
            tabulated_levels([1600, 1600], 3126, compare_flat=False),
            # 2 x 1000 x 2501 leveled plus 2000 x 2501 flat = 10_004_000
            tabulated_levels([1000, 1000], 2501, compare_flat=True),
        ],
        ids=[
            "mixture-sigma-nan",
            "mixture-center-nan",
            "mixture-weight-nan",
            "figure1-step-tiny",
            "worker-count-huge",
            "job-count-huge",
            "figure1-n-huge",
            "figure1-trials-huge",
            "dsstap-samples-huge",
            "dsstap-cells-times-samples",
            "tabulated-simulate",
            "tabulated-analyze-load",
            "tabulated-multilevel",
            "tabulated-compare-flat",
        ],
    )
    def test_unbounded_work_is_refused_within_a_second(self, tmp_path, capsys, payload):
        with time_limit(1.0):
            assert run_cli(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            # 3162^2 = 9_998_244
            tabulated_run(3162, 3162, full_table=False),
            # the compare-flat case above without its flat share: 5_002_000
            tabulated_levels([1000, 1000], 2501, compare_flat=False, full_table=False),
        ],
        ids=["simulate", "multilevel-without-flat-pool"],
    )
    def test_tabulated_work_under_the_cap_is_run(self, tmp_path, capsys, payload):
        # the run starts and then meets the table's missing pairs
        assert run_cli(tmp_path, payload) == 3
        assert capsys.readouterr().err.startswith("error: no table entry")


def readme_examples():
    """The README's example config of each mode, each cheap enough to run in well under 0.1 s.

    ``check-order`` and ``analyze-load`` have no example of their own and run
    the ``simulate`` one, as the README documents.
    """
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    configs = {}
    for block in re.findall(r"```json\n(.*?)```", text, flags=re.S):
        try:
            config = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(config, dict) and "mode" in config:
            configs[config["mode"]] = config
    for mode in ("check-order", "analyze-load"):
        configs[mode] = {**configs["simulate"], "mode": mode}
    configs["figure1"] = {**configs["figure1"], "figure1": {**configs["figure1"]["figure1"], "trials": 2}}
    configs["dsstap"] = {**configs["dsstap"], "samples": 1000}
    return configs


def node_paths(value, path=()):
    """Key and index paths to every value inside a JSON value: the empty path, containers and leaves."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from node_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from node_paths(item, path + (i,))


def resolve(value, path):
    for key in path:
        value = value[key]
    return value


def run_in_process(config, *extra):
    """Exit code of the CLI on ``config``, run in this process under a 2 s limit."""
    with tempfile.TemporaryDirectory() as work:
        config_path = Path(work) / "config.json"
        config_path.write_text(json.dumps(config))
        with time_limit(2.0):
            return cli.main(["--config", str(config_path), "--out", str(Path(work) / "out"), *extra])


README_EXAMPLES = readme_examples()
HOSTILE_LEAVES = [0, -1, 1e-300, 1e308, -1e308, math.nan, math.inf, -math.inf, HUGE, "text", True, None, [], {}]
JUNK_SUBTREES = [{}, [], {"a": [1, {"b": None}]}, [[1, 2], [3]]]


class TestExitCodeFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_readme_examples_exit_0_2_or_3(self, data):
        """One or two leaves of a README example replaced by a hostile value:
        the CLI exits 0, 2 or 3 in-process, never raises, and stays quick."""
        config = copy.deepcopy(README_EXAMPLES[data.draw(st.sampled_from(sorted(README_EXAMPLES)))])
        paths = [path for path in node_paths(config) if not isinstance(resolve(config, path), (dict, list))]
        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
            resolve(config, path[:-1])[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE_LEAVES)))
        assert run_in_process(config) in (0, 2, 3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_deleted_keys_and_junk_subtrees_exit_0_2_or_3(self, data):
        """One or two keys of a README example deleted, or whole subtrees
        replaced by nested junk: the CLI exits 0, 2 or 3 in-process.

        ``--trials 2`` keeps a deleted figure1 trial count from restoring the
        default 100-trial sweep, a valid run of about 2 s.
        """
        config = copy.deepcopy(README_EXAMPLES[data.draw(st.sampled_from(sorted(README_EXAMPLES)))])
        for _ in range(data.draw(st.integers(1, 2))):
            paths = list(node_paths(config))[1:]
            if not paths:
                break
            path = data.draw(st.sampled_from(paths))
            parent = resolve(config, path[:-1])
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(JUNK_SUBTREES)))
        assert run_in_process(config, "--trials", "2") in (0, 2, 3)


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
