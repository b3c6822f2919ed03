"""Tests for the pipeline facade (repro.pipeline), the consolidated CLI
(``python -m repro``) and the canonical-name deprecation shims.

The facade's headline contract: ``solve()`` reproduces the experiment
harness's numbers bit-identically (shared ``workload_seed`` derivation),
observed or not.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import PipelineConfig, PipelineResult, solve
from repro.__main__ import main as repro_main
from repro.analysis.stats import summarize
from repro.experiments import PAPER_COMBOS, PaperSetup, simulate_combo
from repro.experiments.runner import workload_seed
from repro.observe import Observer, ObserverConfig
from repro.runtime import RunReport
from repro.serving import ServingConfig

NAN = float("nan")


@pytest.fixture(scope="module")
def small_setup() -> PaperSetup:
    return PaperSetup().scaled_down(num_videos=30, num_servers=4, num_runs=2)


class TestPipelineConfig:
    def test_rejects_unknown_algorithms(self):
        with pytest.raises(ValueError, match="unknown replicator"):
            PipelineConfig(replicator="nope")
        with pytest.raises(ValueError, match="unknown placer"):
            PipelineConfig(placer="nope")
        with pytest.raises(ValueError, match="num_runs"):
            PipelineConfig(num_runs=0)

    @pytest.mark.parametrize(
        ("config_cls", "overrides", "match"),
        [
            (PipelineConfig, {"arrival_rate_per_min": NAN}, "arrival_rate"),
            (PipelineConfig, {"arrival_rate_per_min": -1.0}, "arrival_rate"),
            (PipelineConfig, {"theta": -1.0}, "theta"),
            (ServingConfig, {"theta": NAN}, "theta"),
            (PipelineConfig, {"replication_degree": 0.5}, r"outside \[1, N\]"),
            (ServingConfig, {"replication_degree": 9.0}, r"outside \[1, N\]"),
            (PipelineConfig, {"backbone_mbps": NAN}, "backbone_mbps"),
            (ServingConfig, {"backbone_mbps": float("inf")}, "backbone_mbps"),
            (PipelineConfig, {"anneal_chains": 0}, "anneal_chains"),
            (PipelineConfig, {"anneal_steps_per_level": 0}, "anneal_steps"),
            (PipelineConfig, {"anneal_max_levels": 0}, "anneal_max_levels"),
            (PipelineConfig, {"refine_max_steps": -1}, "refine_max_steps"),
        ],
    )
    def test_bad_design_points_fail_at_construction(
        self, config_cls, overrides, match
    ):
        with pytest.raises(ValueError, match=match):
            config_cls(**overrides)

    def test_lazy_exports_from_package_root(self):
        import repro

        assert repro.PipelineConfig is PipelineConfig
        assert repro.solve is solve
        assert repro.Observer is Observer
        assert repro.ObserverConfig is ObserverConfig
        assert "solve" in dir(repro)
        with pytest.raises(AttributeError):
            repro.not_a_thing


class TestSolve:
    def test_end_to_end_summary(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                setup=small_setup,
            )
        )
        assert isinstance(result, PipelineResult)
        assert len(result.results) == small_setup.num_runs
        assert result.rejection.num_samples == small_setup.num_runs
        assert 0.0 <= result.rejection.mean <= 1.0
        assert result.replication is not None and result.sa_result is None
        text = result.format()
        assert "pipeline:" in text and "rejection" in text
        assert "run report" in text  # engine report is folded in

    def test_matches_simulate_combo_bit_identically(self, small_setup):
        """The facade must reproduce the figure harness's numbers."""
        combo_results = simulate_combo(
            small_setup, PAPER_COMBOS[0], 0.75, 1.2, 12.0
        )
        facade = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                replicator="zipf",
                placer="slf",
                setup=small_setup,
            )
        )
        assert len(facade.results) == len(combo_results)
        for a, b in zip(facade.results, combo_results):
            assert a.same_outcome(b)
        assert facade.rejection.mean == pytest.approx(
            summarize([r.rejection_rate for r in combo_results]).mean
        )

    def test_observed_path_is_bit_identical(self, small_setup):
        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=12.0,
            setup=small_setup,
        )
        plain = solve(config)
        observer = Observer(ObserverConfig(sample_interval_min=5.0))
        observed = solve(config, observer=observer)
        for a, b in zip(plain.results, observed.results):
            assert a.same_outcome(b)
        registry = observer.registry
        assert registry.counter("sim.runs").value == small_setup.num_runs
        assert observer.phase_seconds.keys() >= {"replicate", "place", "simulate"}
        # Phase times are folded into the run report.
        assert observed.report.phase_seconds["simulate"] > 0.0

    @staticmethod
    def _observation(observer):
        """Every simulation series row and traced arrival/departure."""
        series = {
            name: series.rows
            for name, series in observer.registry.series.items()
            if name.startswith("sim.")
        }
        events = [
            event
            for event in observer.tracer.events
            if event["kind"] in ("arrival", "departure")
        ]
        return series, events

    @pytest.mark.parametrize("chaos", [False, True])
    def test_observed_solve_honours_jobs(self, small_setup, chaos):
        from repro.cluster_sim import FailoverPolicy, FailureSpec
        from repro.runtime import ParallelRunner

        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=40.0,
            setup=small_setup,
            **(
                {
                    "failures": FailureSpec(
                        kind="mtbf", mtbf_min=20.0, mttr_min=4.0
                    ),
                    "failover": FailoverPolicy(),
                    "failover_on_down": True,
                }
                if chaos
                else {}
            ),
        )
        observer_config = ObserverConfig(
            sample_interval_min=2.0, trace_events=True, trace_event_every=5
        )
        solved = {}
        for jobs in (1, 2):
            observer = Observer(observer_config)
            with ParallelRunner(jobs=jobs) as runner:
                result = solve(config, observer=observer, runner=runner)
            assert result.report.jobs == jobs
            solved[jobs] = result, observer
        (serial, serial_obs), (pooled, pooled_obs) = solved.values()
        for a, b in zip(serial.results, pooled.results, strict=True):
            assert a.same_outcome(b)
            assert a.delegated == b.delegated == ("failures" if chaos else "")
        series, events = self._observation(serial_obs)
        assert events and all(series.values())
        assert self._observation(pooled_obs) == (series, events)
        assert pooled_obs.registry.counter("sim.runs").value == len(
            pooled.results
        )

    def test_runner_observer_keeps_batches_only(self, small_setup):
        # Simulated runs always go to solve's observer; a runner built
        # around another observer keeps its batch records, nothing else.
        from repro.runtime import ParallelRunner

        config = PipelineConfig(setup=small_setup, arrival_rate_per_min=12.0)
        mine, theirs = Observer(), Observer()
        with ParallelRunner(jobs=1, observer=theirs) as runner:
            solve(config, observer=mine, runner=runner)
        assert mine.registry.counter("sim.runs").value == small_setup.num_runs
        assert "simulate" in mine.phase_seconds
        assert "sim.runs" not in theirs.registry.counters
        assert theirs.registry.counter("runner.batches").value == 1

    def test_observed_trials_skip_the_cache(self, small_setup, tmp_path):
        from repro.runtime import ParallelRunner, ResultCache

        config = PipelineConfig(setup=small_setup, arrival_rate_per_min=12.0)
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        solve(config, runner=runner)
        observer = Observer()
        solve(config, observer=observer, runner=runner)
        assert runner.report.num_cache_hits == 0
        assert observer.registry.counter("sim.runs").value == small_setup.num_runs

    def test_refine_stage_runs(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                refine=True,
                refine_max_steps=200,
                setup=small_setup,
            )
        )
        assert result.refinement is not None
        assert (
            result.refinement.final_imbalance
            <= result.refinement.initial_imbalance + 1e-12
        )

    def test_anneal_stage_runs(self, small_setup):
        result = solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=12.0,
                anneal=True,
                anneal_chains=1,
                anneal_steps_per_level=20,
                anneal_max_levels=4,
                setup=small_setup,
            )
        )
        assert result.sa_result is not None and result.replication is None
        assert "annealing" in result.format()

    def test_seed_derivation_is_shared(self, small_setup):
        """Same derivation as simulate_combo: seed depends on rate/theta."""
        a = workload_seed(small_setup.seed, 12.0, 0.75)
        b = workload_seed(small_setup.seed, 12.0, 0.75)
        assert a == b
        assert workload_seed(small_setup.seed, 13.0, 0.75) != a
        assert workload_seed(small_setup.seed, 12.0, 0.8) != a
        assert workload_seed(small_setup.seed, 12.0, 0.75, 1) != a


class TestConsolidatedCli:
    def test_pipeline_subcommand(self, capsys):
        code = repro_main(
            [
                "pipeline",
                "--quick",
                "--runs",
                "2",
                "--rate",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline:" in out and "rejection" in out

    def test_pipeline_trace_out_and_observe_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = repro_main(
            [
                "pipeline",
                "--quick",
                "--runs",
                "2",
                "--rate",
                "20",
                "--sample-interval",
                "10",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0 and trace.exists()
        capsys.readouterr()
        assert repro_main(["observe-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "observation report" in out
        assert "sim.server_load_mbps" in out

    def test_experiments_delegation(self, capsys):
        """Old harness invocations keep working through the new front door."""
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["experiments", "--help"])
        assert excinfo.value.code == 0
        assert "figures" in capsys.readouterr().out.lower()

    def test_fuzz_delegation_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["fuzz", "--help"])
        assert excinfo.value.code == 0

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            repro_main(["not-a-command"])

    def test_top_level_help_lists_every_subcommand(self, capsys):
        """``--help`` must enumerate all five subcommands with descriptions."""
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        descriptions = {
            "experiments": "figure harness",
            "fuzz": "differential fuzzing",
            "pipeline": "facade",
            "serve": "serving control plane",
            "observe-report": "trace JSONL",
        }
        for name, blurb in descriptions.items():
            assert name in out, f"--help is missing the {name} subcommand"
            assert blurb in out, f"--help lacks a description for {name}"

    def test_shared_sim_flags_identical_across_pipeline_and_serve(self, capsys):
        """--engine/--shards/--jobs/--observe spell the same on both verbs."""
        helps = {}
        for verb in ("pipeline", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                repro_main([verb, "--help"])
            assert excinfo.value.code == 0
            helps[verb] = capsys.readouterr().out
        for flag in ("--engine", "--shards", "--jobs", "--observe"):
            for verb, text in helps.items():
                assert flag in text, f"{verb} --help is missing {flag}"
        for engine in ("optimized", "vector", "reference", "audited"):
            assert engine in helps["pipeline"] and engine in helps["serve"]


class TestRemovedAliases:
    """The pre-schema aliases completed their deprecation window (DESIGN.md
    "Deprecation windows") and were removed — reading them is an error."""

    def test_run_report_aliases_removed(self):
        report = RunReport()
        report.num_trials = 7
        for old in [
            "trials",
            "simulated",
            "cache_hits",
            "events",
            "sa_runs",
            "sa_steps",
            "audited_runs",
            "audited_events",
            "audit_violations",
        ]:
            with pytest.raises(AttributeError):
                getattr(report, old)

    def test_summary_n_alias_removed(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.num_samples == 3
        with pytest.raises(AttributeError):
            summary.n

    def test_canonical_names_do_not_warn(self):
        report = RunReport()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report.num_trials += 1
            _ = report.num_events
            _ = summarize([1.0, 2.0]).num_samples
