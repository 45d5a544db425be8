"""Benchmark + tests for the scale gate (``benchmarks/scale.py``).

One tiny sweep point runs through the real ``run_point`` path (the same
code the CI subprocess executes); the gate's decision logic — sweep
parsing, throughput regression, determinism drift, memory flatness, and
the kernel speedup report — is unit-tested against synthetic reports so
gate bugs surface in the normal suite rather than as CI verdicts.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.scale import (
    DETERMINISM_FIELDS,
    SCHEMA,
    check_memory_flatness,
    check_regression,
    main,
    parse_sweep,
    point_key,
    run_point,
    speedups,
)
from repro.experiments.common import DEFAULT_SEED


class TestRunPoint:
    def test_tiny_point_runs_and_reports(self):
        row = run_point(20, 120, DEFAULT_SEED, "")
        assert row["hosts"] == 20 and row["kind"] == ""
        assert row["legacy"] is False
        assert row["n_jobs"] > 0
        assert row["sim_events"] > 0
        assert row["wall_clock_s"] > 0
        assert row["maxrss_kb"] > 0
        for fld in DETERMINISM_FIELDS:
            assert fld in row

    def test_persistent_point_carries_rescore_counters(self):
        row = run_point(20, 120, DEFAULT_SEED, "")
        assert row["rescore_binds"] > 0
        assert row["rescore_full_rebuilds"] == 0
        assert 0 < row["rescore_cells_rescored"] < row["rescore_cells_total"]
        assert row["rescore_savings_x"] > 1.0
        assert any(k.startswith("dirty_") for k in row["rescore_hist"])

    def test_fresh_point_has_no_rescore_counters(self):
        row = run_point(20, 120, DEFAULT_SEED, "fresh")
        assert row["kind"] == "fresh" and row["legacy"] is False
        assert "rescore_binds" not in row

    def test_point_is_deterministic_across_kernels(self):
        rows = [run_point(20, 120, DEFAULT_SEED, kind)
                for kind in ("", "", "fresh", "legacy")]
        for other in rows[1:]:
            for fld in DETERMINISM_FIELDS:
                assert rows[0][fld] == other[fld]


class TestSweepParsing:
    def test_points_and_kind_suffixes(self):
        assert parse_sweep(
            "1000x3400, 10000x100000:legacy,1000x3400:fresh"
        ) == [
            (1000, 3400, ""),
            (10000, 100000, "legacy"),
            (1000, 3400, "fresh"),
        ]

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            parse_sweep("1000x3400:turbo")

    def test_point_key(self):
        assert point_key(1000, 3400, "") == "h1000-j3400"
        assert point_key(1000, 3400, "legacy") == "h1000-j3400-legacy"
        assert point_key(1000, 3400, "fresh") == "h1000-j3400-fresh"


def _row(hosts=1000, jobs=3400, kind="", norm=20.0, rss=50_000):
    return {
        "hosts": hosts,
        "jobs_target": jobs,
        "legacy": kind == "legacy",
        "kind": kind,
        "n_jobs": jobs,
        "wall_clock_s": 5.0,
        "events_per_s": norm / 0.01,
        "normalized_events_per_s": norm,
        "maxrss_kb": rss,
        "energy_kwh": 5.0,
        "cpu_hours": 10.0,
        "migrations": 3,
        "n_completed": jobs,
        "sim_events": 800,
    }


def _report(rows):
    return {
        "schema": SCHEMA,
        "seed": DEFAULT_SEED,
        "calibration_s": 0.01,
        "results": {
            point_key(r["hosts"], r["jobs_target"], r["kind"]): r
            for r in rows
        },
    }


class TestRegressionGate:
    def test_equal_reports_pass(self):
        rep = _report([_row()])
        assert check_regression(rep, copy.deepcopy(rep), 0.30) == []

    def test_throughput_regression_fails(self):
        new = _report([_row(norm=10.0)])
        base = _report([_row(norm=20.0)])
        failures = check_regression(new, base, 0.30)
        assert any("throughput regressed" in f for f in failures)

    def test_faster_run_passes(self):
        new = _report([_row(norm=40.0)])
        base = _report([_row(norm=20.0)])
        assert check_regression(new, base, 0.30) == []

    def test_determinism_drift_fails_regardless_of_speed(self):
        new = _report([_row(norm=100.0)])
        new["results"]["h1000-j3400"]["energy_kwh"] += 1e-9
        failures = check_regression(new, _report([_row()]), 0.30)
        assert any("energy_kwh drifted" in f for f in failures)

    def test_seed_mismatch_skips_determinism(self):
        new = _report([_row()])
        new["seed"] = 1
        new["results"]["h1000-j3400"]["energy_kwh"] += 1.0
        assert check_regression(new, _report([_row()]), 0.30) == []

    def test_missing_point_fails(self):
        failures = check_regression(_report([]), _report([_row()]), 0.30)
        assert any("missing" in f for f in failures)

    def test_schema_guard(self):
        bad = _report([_row()])
        bad["schema"] = "something-else"
        assert check_regression(_report([_row()]), bad, 0.30)


class TestProfiledRows:
    """cProfile-inflated rows are tagged and can never gate."""

    def test_profiled_child_row_is_tagged(self, tmp_path, capsys):
        prof = tmp_path / "point.prof"
        assert main(["--single", "--hosts", "20", "--jobs", "120",
                     "--profile-out", str(prof)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        row = json.loads(line.split(" ", 1)[1])
        assert row["profiled"] is True
        assert prof.exists()

    def test_unprofiled_child_row_is_not_tagged(self, capsys):
        assert main(["--single", "--hosts", "20", "--jobs", "120"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "profiled" not in json.loads(line.split(" ", 1)[1])

    @pytest.mark.parametrize("side", ["new", "base"])
    def test_profiled_row_on_either_side_is_refused(self, side):
        new, base = _report([_row()]), _report([_row()])
        # Even an otherwise passing (faster, identical) pair is refused.
        new["results"]["h1000-j3400"]["normalized_events_per_s"] = 40.0
        {"new": new, "base": base}[side]["results"]["h1000-j3400"][
            "profiled"] = True
        failures = check_regression(new, base, 0.30)
        assert len(failures) == 1
        assert "profiled row" in failures[0]

    def test_profile_with_check_against_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sweep", "20x120", "--profile",
                  "--check-against", "baseline.json"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_no_committed_baseline_has_a_profiled_row(self):
        """A profiled report committed as a baseline could never gate."""
        paths = sorted(
            (Path(__file__).parent / "baselines").glob("BENCH_scale_*.json")
        )
        assert paths
        for path in paths:
            for key, row in json.loads(path.read_text())["results"].items():
                assert not row.get("profiled"), f"{path.name}: {key}"


class TestMemoryFlatness:
    def test_flat_memory_passes(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=55_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_growing_memory_fails(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=90_000)])
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)

    def test_different_hosts_not_compared(self):
        rep = _report([_row(hosts=1000, jobs=3400, rss=50_000),
                       _row(hosts=10000, jobs=10300, rss=500_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_different_kernels_not_compared(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, kind="legacy", rss=500_000),
                       _row(jobs=20600, kind="fresh", rss=250_000)])
        assert check_memory_flatness(rep, 0.30) == []

    def test_raw_rss_growth_fails_whatever_the_matrix_reports(self):
        """The gate compares raw peak RSS; ``matrix_nbytes`` exempts nothing."""
        rep = _report([
            dict(_row(jobs=3400, rss=150_000), matrix_nbytes=100_000 * 1024.0),
            dict(_row(jobs=10300, rss=450_000), matrix_nbytes=400_000 * 1024.0),
        ])
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)
        assert any("450000 vs 150000 KB" in f for f in failures)

    def test_old_report_rows_without_kind_field(self):
        rep = _report([_row(jobs=3400, rss=50_000),
                       _row(jobs=10300, rss=90_000)])
        for row in rep["results"].values():
            del row["kind"]
        failures = check_memory_flatness(rep, 0.30)
        assert any("memory grew" in f for f in failures)


class TestSpeedups:
    def test_persistent_vs_legacy_ratio(self):
        rep = _report([_row(norm=100.0),
                       _row(jobs=1000, kind="legacy", norm=10.0)])
        assert speedups(rep) == {"h1000": 10.0}

    def test_persistent_vs_fresh_ratio(self):
        rep = _report([_row(norm=100.0),
                       _row(jobs=1000, kind="legacy", norm=10.0),
                       _row(jobs=2000, kind="fresh", norm=50.0)])
        assert speedups(rep) == {"h1000": 10.0, "h1000-vs-fresh": 2.0}

    def test_no_comparison_point_no_ratio(self):
        assert speedups(_report([_row()])) == {}
