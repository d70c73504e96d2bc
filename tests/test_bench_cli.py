"""The ``repro bench`` subcommand: recording, gating, exit statuses."""

import json

import pytest

from repro.bench import EXIT_BENCH_REGRESSION, check_regressions
from repro.cli import build_parser, main


def _report(min_seconds, name="test_predict"):
    """A minimal pytest-benchmark JSON report with one benchmark."""
    return {
        "datetime": "2026-08-07T00:00:00",
        "machine_info": {"node": "test", "python_version": "3.11"},
        "benchmarks": [
            {
                "name": name,
                "stats": {
                    "mean": min_seconds * 1.1,
                    "min": min_seconds,
                    "stddev": min_seconds * 0.01,
                    "rounds": 5,
                },
                "extra_info": {"speedup": 2.0},
            }
        ],
    }


def _write_report(tmp_path, min_seconds, name="test_predict"):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(_report(min_seconds, name)))
    return path


class TestArgumentParsing:
    def test_bench_defaults(self):
        arguments = build_parser().parse_args(["bench"])
        assert arguments.command == "bench"
        assert arguments.from_json is None
        assert arguments.trajectory == "BENCH_PR3.json"
        assert arguments.threshold == 0.2
        assert not arguments.check and not arguments.no_record

    def test_bench_all_flags(self):
        arguments = build_parser().parse_args(
            ["bench", "--from-json", "report.json", "--label", "PR9",
             "--trajectory", "traj.json", "--check", "--threshold", "0.5",
             "--no-record"]
        )
        assert arguments.from_json == "report.json"
        assert arguments.label == "PR9"
        assert arguments.trajectory == "traj.json"
        assert arguments.check
        assert arguments.threshold == 0.5
        assert arguments.no_record

    @pytest.mark.parametrize("flag", [
        ["--engine", "dynamic"],
        ["--storage-dtype", "float16"],
        ["--blas-threads", "2"],
    ], ids=lambda flag: flag[0])
    def test_unknown_engine_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", *flag])


class TestRecording:
    def test_from_json_appends_entry(self, tmp_path, capsys):
        report = _write_report(tmp_path, 0.010)
        trajectory = tmp_path / "traj.json"
        status = main(
            ["bench", "--from-json", str(report), "--label", "first",
             "--trajectory", str(trajectory)]
        )
        assert status == 0
        history = json.loads(trajectory.read_text())
        assert len(history) == 1
        assert history[0]["label"] == "first"
        assert history[0]["benchmarks"]["test_predict"]["min_seconds"] == 0.010
        assert "recorded" in capsys.readouterr().out

    def test_missing_report_exits_2(self, tmp_path, capsys):
        status = main(
            ["bench", "--from-json", str(tmp_path / "nope.json"),
             "--trajectory", str(tmp_path / "traj.json")]
        )
        assert status == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        report.write_text("not json {")
        status = main(
            ["bench", "--from-json", str(report),
             "--trajectory", str(tmp_path / "traj.json")]
        )
        assert status == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_no_record_leaves_trajectory_untouched(self, tmp_path):
        report = _write_report(tmp_path, 0.010)
        trajectory = tmp_path / "traj.json"
        status = main(
            ["bench", "--from-json", str(report), "--no-record",
             "--trajectory", str(trajectory)]
        )
        assert status == 0
        assert not trajectory.exists()


class TestCheck:
    def _record(self, tmp_path, min_seconds, label, extra=()):
        report = _write_report(tmp_path, min_seconds)
        return main(
            ["bench", "--from-json", str(report), "--label", label,
             "--trajectory", str(tmp_path / "traj.json"), *extra]
        )

    def test_first_entry_passes_check(self, tmp_path, capsys):
        status = self._record(tmp_path, 0.010, "first", extra=["--check"])
        assert status == 0
        assert "no prior entry" in capsys.readouterr().out

    def test_no_regression_passes(self, tmp_path, capsys):
        assert self._record(tmp_path, 0.010, "first") == 0
        status = self._record(tmp_path, 0.011, "second", extra=["--check"])
        assert status == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_4(self, tmp_path, capsys):
        assert self._record(tmp_path, 0.010, "first") == 0
        status = self._record(tmp_path, 0.020, "slower", extra=["--check"])
        assert status == EXIT_BENCH_REGRESSION
        err = capsys.readouterr().err
        assert "regression" in err and "test_predict" in err

    def test_threshold_is_respected(self, tmp_path):
        assert self._record(tmp_path, 0.010, "first") == 0
        status = self._record(
            tmp_path, 0.020, "slower",
            extra=["--check", "--threshold", "1.5"],
        )
        assert status == 0

    def test_check_with_no_record_compares_latest(self, tmp_path):
        assert self._record(tmp_path, 0.010, "first") == 0
        status = self._record(
            tmp_path, 0.020, "probe", extra=["--check", "--no-record"]
        )
        assert status == EXIT_BENCH_REGRESSION
        history = json.loads((tmp_path / "traj.json").read_text())
        assert [entry["label"] for entry in history] == ["first"]

    def test_different_cpu_count_not_compared(self, tmp_path, capsys):
        trajectory = tmp_path / "traj.json"
        report = _write_report(tmp_path, 0.010)
        assert main(
            ["bench", "--from-json", str(report), "--label", "other-box",
             "--trajectory", str(trajectory)]
        ) == 0
        history = json.loads(trajectory.read_text())
        history[0]["cpu_count"] = history[0]["cpu_count"] + 64
        trajectory.write_text(json.dumps(history))
        status = self._record(tmp_path, 0.050, "this-box", extra=["--check"])
        assert status == 0
        assert "no prior entry" in capsys.readouterr().out


class TestCheckRegressionsUnit:
    def test_only_shared_benchmarks_compared(self):
        entry = {"benchmarks": {"a": {"min_seconds": 2.0},
                                "new": {"min_seconds": 9.0}}}
        baseline = {"benchmarks": {"a": {"min_seconds": 1.0},
                                   "gone": {"min_seconds": 0.1}}}
        regressions = check_regressions(entry, baseline, threshold=0.2)
        assert [r[0] for r in regressions] == ["a"]
        name, old, new, slowdown = regressions[0]
        assert (old, new) == (1.0, 2.0)
        assert slowdown == pytest.approx(1.0)

    def test_missing_stats_skipped(self):
        entry = {"benchmarks": {"a": {"min_seconds": None}}}
        baseline = {"benchmarks": {"a": {"min_seconds": 1.0}}}
        assert check_regressions(entry, baseline, threshold=0.2) == []

    def test_speedup_is_not_a_regression(self):
        entry = {"benchmarks": {"a": {"min_seconds": 0.5}}}
        baseline = {"benchmarks": {"a": {"min_seconds": 1.0}}}
        assert check_regressions(entry, baseline, threshold=0.2) == []
