"""Tests for the experiment CLI (python -m repro.experiments)."""

import pytest

from repro.experiments import __main__ as cli


class TestArgumentParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["nonsense"])
        assert "invalid choice" in capsys.readouterr().err

    def test_requires_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])
        assert "experiment" in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(cli.EXPERIMENTS) == {
            "fig4",
            "fig5",
            "fig6",
            "adams",
            "sa",
            "ablations",
            "availability",
            "striping",
            "dynamic",
            "batching",
            "storage",
            "surrogate",
            "serving",
            "cache_scale",
        }

    def test_all_mains_accept_quick_and_chart(self):
        import inspect

        for name, fn in cli.EXPERIMENTS.items():
            params = inspect.signature(fn).parameters
            assert "quick" in params, name
            assert "chart" in params, name


class TestExecution:
    @pytest.fixture()
    def stub_registry(self, monkeypatch):
        calls = []

        def fake(quick=False, chart=False):
            calls.append((quick, chart))
            return "STUB REPORT"

        monkeypatch.setattr(cli, "EXPERIMENTS", {"stub": fake})
        return calls

    def test_runs_and_prints(self, stub_registry, capsys):
        assert cli.main(["stub"]) == 0
        out = capsys.readouterr().out
        assert "=== stub" in out
        assert "STUB REPORT" in out
        assert stub_registry == [(False, False)]

    def test_quick_and_chart_flags_forwarded(self, stub_registry, capsys):
        cli.main(["stub", "--quick", "--chart"])
        assert stub_registry == [(True, True)]
        capsys.readouterr()

    def test_out_writes_file(self, stub_registry, tmp_path, capsys):
        cli.main(["stub", "--out", str(tmp_path / "reports")])
        path = tmp_path / "reports" / "stub.txt"
        assert path.read_text() == "STUB REPORT\n"
        capsys.readouterr()

    def test_all_runs_every_entry(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {
                "one": lambda quick=False, chart=False: seen.append("one") or "r1",
                "two": lambda quick=False, chart=False: seen.append("two") or "r2",
            },
        )
        cli.main(["all"])
        assert seen == ["one", "two"]
        capsys.readouterr()

    def test_run_report_only_for_runner_trials(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.runtime import get_runner

        def outside(quick=False, chart=False):
            return "OUTSIDE"

        def through(quick=False, chart=False):
            get_runner().report.num_trials += 3
            return "THROUGH"

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"outside": outside, "through": through}
        )
        cli.main(["all", "--no-cache", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        outside_part, through_part = out.split("=== through")
        assert "0 trials" not in outside_part
        assert "run report: no trials through the runner" in outside_part
        assert "run report: 3 trials" in through_part
        assert "no trials through the runner" not in through_part
        assert (tmp_path / "outside.txt").read_text() == "OUTSIDE\n"
        assert (tmp_path / "through.txt").read_text() == "THROUGH\n"


class TestSampleBoundIsAUsageError:
    """``python -m repro pipeline`` refuses a sample interval that would
    overflow one run's samples while building, before anything runs."""

    @pytest.mark.parametrize(
        "observe", [[], ["--observe"], ["--trace-out", "t.jsonl"]]
    )
    def test_overflowing_interval_exits_2(self, observe, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        argv = ["pipeline", "--quick", *observe, "--sample-interval", "1e-9"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err
        assert "max_trace_events" in errors[0]
        assert "Traceback" not in captured.err
        assert not (tmp_path / "t.jsonl").exists()
