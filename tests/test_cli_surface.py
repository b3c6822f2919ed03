"""The ``python -m repro pipeline|serve`` flag surface and its configs.

Every flag that sets a config field stores under the field's name and
declares no default, so an omitted flag leaves the dataclass default and a
bad value fails the config's own check, reported as an argparse usage error
(exit 2) before anything runs.  The option strings and choice lists are
pinned to the surface the hand-written parsers exposed.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro
import repro.pipeline
import repro.serving
from repro.__main__ import build_parser, main
from repro.experiments.config import PaperSetup
from repro.pipeline import PipelineConfig
from repro.serving import ServingConfig

INF = math.inf

CONFIGS = {"pipeline": PipelineConfig, "serve": ServingConfig}

#: Flags that set no config field (``failover`` also picks the policy).
RUN_FLAGS = {
    "pipeline": {
        "quick", "jobs", "observe", "trace_out", "failover", "max_retries",
        "rereplicate", "migration_mbps", "sample_interval", "trace_events",
    },
    "serve": {"quick", "jobs", "observe", "trace_out", "failover"},
}

OPTION_STRINGS = {
    "pipeline": [
        "--anneal", "--backbone-mbps", "--degree", "--dispatcher", "--engine",
        "--failover", "--failures", "--jobs", "--max-retries",
        "--migration-mbps", "--observe", "--placer", "--quick", "--rate",
        "--refine", "--replicator", "--rereplicate", "--runs",
        "--sample-interval", "--screen-candidates", "--screen-seed",
        "--shards", "--surrogate", "--theta", "--top-k", "--trace-events",
        "--trace-out", "-h", "--help",
    ],
    "serve": [
        "--anneal-polish", "--backbone-mbps", "--base-rate", "--day-epochs",
        "--degree", "--dispatcher", "--drift", "--drift-threshold",
        "--elastic", "--engine", "--epoch-minutes", "--epochs", "--failover",
        "--failures", "--flash-epochs", "--flash-multiplier", "--jobs",
        "--max-servers", "--move-budget", "--observe", "--peak-rate",
        "--quick", "--replan", "--screen", "--seed", "--shards", "--slo",
        "--theta", "--trace-out", "-h", "--help",
    ],
}

_SHARED_CHOICES = {
    "--dispatcher": ["static_rr", "least_loaded", "first_fit"],
    "--engine": ["optimized", "vector", "reference", "audited"],
}
CHOICES = {
    "pipeline": {
        **_SHARED_CHOICES,
        "--replicator": [
            "zipf", "classification", "adams", "proportional",
            "cache_proportional", "large_cache", "p2p",
        ],
        "--placer": ["slf", "round_robin", "greedy", "p2p_stripe"],
    },
    "serve": {**_SHARED_CHOICES, "--replan": ["drift", "always", "never"]},
}

#: The keywords the hand-written parsers passed when no flag was given.
OMITTED = {
    "pipeline": dict(
        theta=0.75, replication_degree=1.2, arrival_rate_per_min=30.0,
        num_runs=None, replicator="zipf", placer="slf", refine=False,
        anneal=False, dispatcher="static_rr", engine="vector",
        backbone_mbps=0.0, failures=None, failover=None, rereplication=None,
        failover_on_down=False, surrogate=False, screen_candidates=24,
        screen_top_k=3, screen_seed=0, shards=1,
    ),
    "serve": dict(
        epochs=8, epoch_minutes=None, theta=0.75, replication_degree=1.2,
        base_rate_per_min=15.0, peak_rate_per_min=30.0, day_epochs=4,
        flash_epochs=(), flash_multiplier=2.0, drift=None, replan="drift",
        drift_threshold=0.10, move_budget=None, screen=False,
        anneal_polish=False, elastic=False, slo_rejection_rate=0.05,
        max_servers=None, dispatcher="static_rr", engine="vector",
        backbone_mbps=0.0, failures=None, failover=None,
        failover_on_down=False, shards=1, seed=None,
    ),
}

#: A valid non-default value for every config-field flag (None: a switch).
SET_VALUES = {
    "pipeline": {
        "--theta": "0.5", "--degree": "1.5", "--dispatcher": "first_fit",
        "--engine": "optimized", "--backbone-mbps": "100",
        "--failures": "random:mtbf=30,mttr=10", "--shards": "2",
        "--rate": "12", "--runs": "4", "--replicator": "adams",
        "--placer": "greedy", "--refine": None, "--anneal": None,
        "--surrogate": None, "--screen-candidates": "30", "--top-k": "2",
        "--screen-seed": "7",
    },
    "serve": {
        "--theta": "0.5", "--degree": "1.5", "--dispatcher": "least_loaded",
        "--engine": "reference", "--backbone-mbps": "100",
        "--failures": "random:mtbf=30,mttr=10", "--shards": "2",
        "--epochs": "3", "--epoch-minutes": "20", "--base-rate": "10",
        "--peak-rate": "40", "--day-epochs": "6", "--flash-epochs": "1,2",
        "--flash-multiplier": "3", "--drift": "release:2",
        "--replan": "always", "--drift-threshold": "0.2",
        "--move-budget": "40", "--screen": None, "--anneal-polish": None,
        "--elastic": None, "--slo": "0.02", "--max-servers": "12",
        "--seed": "3",
    },
}

#: Bad values for every config field a flag sets; each must fail both the
#: dataclass and the CLI.  Switches have no bad value.
INVALID = {
    "pipeline": {
        "--theta": ["-0.1", "nan", "inf"],
        "--degree": ["0.5", "100", "nan"],
        "--dispatcher": ["bogus"],
        "--engine": ["bogus"],
        "--backbone-mbps": ["-1", "inf", "nan"],
        "--failures": ["bogus", "random:mtbf=-1"],
        "--shards": ["0", "-1"],
        "--rate": ["-1", "inf", "nan"],
        "--runs": ["0", "-1"],
        "--replicator": ["bogus"],
        "--placer": ["bogus"],
        "--screen-candidates": ["0", "2"],
        "--top-k": ["0", "-1"],
        "--screen-seed": ["-1"],
    },
    "serve": {
        "--theta": ["-0.1", "nan", "inf"],
        "--degree": ["0.5", "100", "nan"],
        "--dispatcher": ["bogus"],
        "--engine": ["bogus"],
        "--backbone-mbps": ["-1", "inf", "nan"],
        "--failures": ["bogus", "random:mtbf=-1"],
        "--shards": ["0", "-1"],
        "--epochs": ["0", "-1"],
        "--epoch-minutes": ["0", "-1", "inf", "nan"],
        "--base-rate": ["-1", "40", "nan"],
        "--peak-rate": ["0", "inf", "nan"],
        "--day-epochs": ["0"],
        "--flash-epochs": ["-1", "0,x", "1,,2"],
        "--flash-multiplier": ["0.5", "inf", "nan"],
        "--drift": ["bogus", "rankswap:x"],
        "--replan": ["bogus"],
        "--drift-threshold": ["-0.1", "1.5", "nan"],
        "--move-budget": ["-1"],
        "--slo": ["-0.1", "1.5", "nan"],
        "--max-servers": ["1", "0"],
        "--seed": ["-1"],
    },
}

#: Bad run-flag values: the CLI rejects them, no config field is involved.
INVALID_RUN_FLAGS = [
    ("pipeline", ["--jobs", "0"]),
    ("serve", ["--jobs", "0"]),
    ("serve", ["--jobs", "-2"]),
    ("pipeline", ["--failover", "--max-retries", "0"]),
    ("pipeline", ["--rereplicate", "--migration-mbps", "-1"]),
    ("pipeline", ["--sample-interval", "-1"]),
    ("pipeline", ["--observe", "--sample-interval", "nan"]),
    ("pipeline", ["--observe", "--sample-interval", "inf"]),
]

#: Boundary values that are valid: the dataclass accepts each.
VALID_EDGES = [
    (PipelineConfig, {"theta": 0.0}),
    (PipelineConfig, {"replication_degree": 1.0}),
    (PipelineConfig, {"replication_degree": 8.0}),
    (PipelineConfig, {"arrival_rate_per_min": 0.0}),
    (PipelineConfig, {"backbone_mbps": 0.0}),
    (PipelineConfig, {"screen_candidates": 1, "screen_top_k": 1}),
    (PipelineConfig, {"screen_seed": 0, "anneal_seed": 0}),
    (ServingConfig, {"base_rate_per_min": 0.0}),
    (ServingConfig, {"base_rate_per_min": 30.0, "peak_rate_per_min": 30.0}),
    (ServingConfig, {"flash_multiplier": 1.0, "flash_epochs": (0,)}),
    (ServingConfig, {"drift_threshold": 0.0, "slo_rejection_rate": 1.0}),
    (ServingConfig, {"drift_threshold": 1.0, "slo_rejection_rate": 0.0}),
    (ServingConfig, {"move_budget": 0, "seed": 0}),
    (ServingConfig, {"tracker_alpha": 1.0, "tracker_smoothing": 0.0}),
    (ServingConfig, {"max_servers": 8}),
]


class _Stop(Exception):
    pass


def _verb_parser(verb: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices[verb]


def _field_actions(verb: str) -> dict:
    """``option string -> action`` for the flags that set a config field."""
    actions = {}
    for action in _verb_parser(verb)._actions:
        if action.dest in RUN_FLAGS[verb] or action.dest == "help":
            continue
        actions[action.option_strings[0]] = action
    return actions


@pytest.fixture()
def built(monkeypatch):
    """``built(argv) -> config``: the config the CLI would run."""
    captured = []

    def fake_solve(config, observer=None, runner=None):
        captured.append(config)
        raise _Stop

    class FakePlane:
        def __init__(self, config, observer=None, runner=None):
            captured.append(config)

        def run(self):
            raise _Stop

    monkeypatch.setattr(repro.pipeline, "solve", fake_solve)
    monkeypatch.setattr(repro.serving, "ServingControlPlane", FakePlane)

    def build(argv):
        captured.clear()
        with pytest.raises(_Stop):
            main(argv)
        (config,) = captured
        return config

    return build


def _comparable(config) -> dict:
    """Field values, with drift processes (no ``__eq__``) by type + state."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    drift = values.get("drift")
    if drift is not None:
        values["drift"] = (type(drift), vars(drift))
    return values


# ----------------------------------------------------------------------
# The surface: option strings, choices, dests, defaults
# ----------------------------------------------------------------------
class TestSurface:
    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_option_strings_pinned(self, verb):
        options = [
            option
            for action in _verb_parser(verb)._actions
            for option in action.option_strings
        ]
        assert sorted(options) == sorted(OPTION_STRINGS[verb])

    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_choices_pinned(self, verb):
        choices = {
            action.option_strings[0]: list(action.choices)
            for action in _verb_parser(verb)._actions
            if action.choices is not None
        }
        assert choices == CHOICES[verb]

    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_every_dest_is_a_field_or_run_flag(self, verb):
        names = {f.name for f in fields(CONFIGS[verb])}
        for action in _verb_parser(verb)._actions:
            if action.dest != "help":
                assert action.dest in names | RUN_FLAGS[verb], action.dest

    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_field_flags_declare_no_default(self, verb):
        for option, action in _field_actions(verb).items():
            assert action.default is argparse.SUPPRESS, option

    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_omitted_flags_give_the_previous_cli_values(self, verb, built):
        config = built([verb])
        expected = CONFIGS[verb](**OMITTED[verb], setup=PaperSetup())
        assert _comparable(config) == _comparable(expected)
        assert config == CONFIGS[verb](setup=PaperSetup())

    @pytest.mark.parametrize("verb", sorted(CONFIGS))
    def test_value_table_covers_every_field_flag(self, verb):
        assert set(SET_VALUES[verb]) == set(_field_actions(verb))
        switches = {
            option
            for option, action in _field_actions(verb).items()
            if action.nargs == 0
        }
        assert switches | set(INVALID[verb]) == set(_field_actions(verb))

    @pytest.mark.parametrize(
        ("verb", "option"),
        [(verb, option) for verb in sorted(SET_VALUES) for option in SET_VALUES[verb]],
    )
    def test_flag_sets_exactly_its_field(self, verb, option, built):
        action = _field_actions(verb)[option]
        value = SET_VALUES[verb][option]
        argv = [verb, option] if value is None else [verb, option, value]
        if action.nargs == 0:
            converted = action.const
        else:
            converted = action.type(value) if action.type else value
        default = CONFIGS[verb](setup=PaperSetup())
        expected = replace(default, **{action.dest: converted})
        assert _comparable(built(argv)) == _comparable(expected)
        assert getattr(default, action.dest) != getattr(expected, action.dest)

    def test_quick_keeps_its_verb_meaning(self, built):
        assert built(["pipeline", "--quick"]).setup == PaperSetup().quick()
        assert built(["serve", "--quick"]).setup == PaperSetup().scaled_down()

    def test_failover_sets_the_policy_and_down_failover(self, built):
        from repro.cluster_sim import FailoverPolicy, RereplicationPolicy

        pipeline = built(
            ["pipeline", "--failover", "--max-retries", "5", "--rereplicate"]
        )
        assert pipeline.failover == FailoverPolicy(max_retries=5)
        assert pipeline.failover_on_down is True
        assert pipeline.rereplication == RereplicationPolicy()
        serve = built(["serve", "--failover"])
        assert serve.failover == FailoverPolicy()
        assert serve.failover_on_down is True


# ----------------------------------------------------------------------
# Bad design points: ValueError at construction, exit 2 through the CLI
# ----------------------------------------------------------------------
class TestFailFast:
    @pytest.mark.parametrize(
        ("config_cls", "overrides"),
        [
            (ServingConfig, {"seed": -1}),
            (PipelineConfig, {"anneal_seed": -1, "anneal": True}),
            (PipelineConfig, {"screen_seed": -1, "surrogate": True}),
            (ServingConfig, {"tracker_alpha": 0.0}),
            (ServingConfig, {"tracker_alpha": 2.0}),
            (ServingConfig, {"tracker_smoothing": -1.0}),
            (ServingConfig, {"tracker_smoothing": INF}),
            (ServingConfig, {"epoch_minutes": INF}),
            (ServingConfig, {"peak_rate_per_min": INF}),
            (ServingConfig, {"flash_multiplier": INF}),
            (ServingConfig, {"flash_epochs": (1.5,)}),
            (PipelineConfig, {"num_runs": 1.5}),
            (PipelineConfig, {"shards": 1.5}),
            (ServingConfig, {"shards": 1.5}),
        ],
    )
    def test_raises_value_error_at_construction(self, config_cls, overrides):
        with pytest.raises(ValueError):
            config_cls(**overrides)

    @pytest.mark.parametrize(("config_cls", "overrides"), VALID_EDGES)
    def test_valid_edges_construct(self, config_cls, overrides):
        config_cls(**overrides)

    @pytest.mark.parametrize(
        ("verb", "option", "value"),
        [
            (verb, option, value)
            for verb in sorted(INVALID)
            for option in INVALID[verb]
            for value in INVALID[verb][option]
        ],
    )
    def test_invalid_field_value(self, verb, option, value, capsys):
        action = _field_actions(verb)[option]
        try:
            converted = action.type(value) if action.type else value
        except ValueError:
            converted = None  # argparse rejects it before any config exists
        if converted is not None:
            with pytest.raises(ValueError):
                CONFIGS[verb](**{action.dest: converted}, setup=PaperSetup())
        self._assert_usage_error([verb, "--quick", option, value], capsys)

    @pytest.mark.parametrize(("verb", "flags"), INVALID_RUN_FLAGS)
    def test_invalid_run_flag(self, verb, flags, capsys):
        self._assert_usage_error([verb, "--quick", *flags], capsys)

    @staticmethod
    def _assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--shards", "0"],
            ["serve", "--seed", "-1"],
            ["serve", "--flash-epochs", "0,x"],
        ],
    )
    def test_python_m_repro_prints_one_usage_error(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: python -m repro ")
        assert proc.stderr.count("error:") == 1
