"""Pinned serving scenario replays (``tests/corpus/serving/``).

Each JSON file is a self-contained serving control-plane scenario — the
``build_serving`` parameter dict plus the run digest pinned when the
scenario was recorded.  Replaying must reproduce the digest bit-for-bit,
so any behavior change in the epoch loop, the workload generation, the
drift/elasticity machinery or the chaos integration shows up as a diff
against a named, reviewable scenario.
"""

import json
from pathlib import Path

import pytest

from repro.serving import ServingControlPlane, chain_batch_epochs
from repro.verify.fuzz import run_case
from repro.verify.scenarios import FuzzCase, build_serving

SCENARIO_DIR = Path(__file__).parent / "corpus" / "serving"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def load(path: Path) -> dict:
    payload = json.loads(path.read_text())
    assert payload["format"] == 1
    assert payload["kind"] == "serving"
    return payload


def test_scenario_corpus_is_seeded():
    names = {path.stem for path in SCENARIOS}
    assert {
        "anneal_polish_drift",
        "popularity_inversion",
        "flash_crowd_peak",
        "rack_failure_migration",
    } <= names


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_replays_to_pinned_digest(path):
    payload = load(path)
    result = ServingControlPlane(build_serving(payload["params"])).run()
    assert result.digest() == payload["digest"], (
        f"{payload['name']}: the serving loop no longer reproduces the "
        "pinned scenario; if the change is intentional, re-record the "
        "digest"
    )


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_passes_the_fuzz_invariants(path):
    # The pinned scenarios double as fuzz cases: conservation, budget,
    # hysteresis and the frozen-vs-batch oracle must all hold on them.
    payload = load(path)
    outcome = run_case(
        FuzzCase(kind="serving", name=payload["name"], params=payload["params"])
    )
    assert outcome.ok, outcome.failures


def test_popularity_inversion_triggers_replans():
    payload = load(SCENARIO_DIR / "popularity_inversion.json")
    config = build_serving(payload["params"])
    result = ServingControlPlane(config).run()
    assert result.replans >= 2
    assert all(
        s.replicas_copied <= config.move_budget for s in result.snapshots
    )


def test_flash_crowd_peak_adds_a_server():
    payload = load(SCENARIO_DIR / "flash_crowd_peak.json")
    result = ServingControlPlane(build_serving(payload["params"])).run()
    assert result.servers_added >= 1
    assert result.slo_breaches >= 1


def test_rack_failure_scenario_sees_failures_and_stays_in_budget():
    payload = load(SCENARIO_DIR / "rack_failure_migration.json")
    config = build_serving(payload["params"])
    result = ServingControlPlane(config).run()
    assert sum(s.result.num_failures for s in result.snapshots) >= 1
    assert all(
        s.replicas_copied <= config.move_budget for s in result.snapshots
    )
    # The frozen twin of a chaos scenario still matches the batch chain.
    frozen = config.frozen()
    for snapshot, batch in zip(
        ServingControlPlane(frozen).run().snapshots, chain_batch_epochs(frozen)
    ):
        assert snapshot.result.same_outcome(batch)


def test_anneal_polish_scenario_adopts_polished_layouts():
    payload = load(SCENARIO_DIR / "anneal_polish_drift.json")
    config = build_serving(payload["params"])
    assert config.anneal_polish and config.drift is not None
    assert config.flash_epochs and config.move_budget is not None
    result = ServingControlPlane(config).run()
    assert result.replans >= 2
    assert all(
        s.replicas_copied <= config.move_budget for s in result.snapshots
    )


#: Digests of two 24-epoch runs of the serve-diurnal benchmark
#: configuration (drift, move budget, SA polish, screen, elasticity).
SERVE_DIURNAL_PINS = {
    0: "96bca1da02c6a8c3981be915da779bc487997d2622be984203c4c15b60604939",
    7: "4d30661883433a6fc158d13c869fb87aa7f63fcab7c0eb3d15bc6efc285ec338",
}


@pytest.mark.parametrize("seed", sorted(SERVE_DIURNAL_PINS))
def test_short_serve_diurnal_run_replays_to_pinned_digest(seed):
    from repro.serving import ServingConfig, parse_drift

    config = ServingConfig(
        epochs=24,
        day_epochs=8,
        base_rate_per_min=15.0,
        peak_rate_per_min=45.0,
        flash_epochs=(5, 17),
        drift=parse_drift("rankswap:10"),
        replan="drift",
        move_budget=60,
        anneal_polish=True,
        screen=True,
        elastic=True,
        engine="vector",
        seed=seed,
    )
    result = ServingControlPlane(config).run()
    assert result.replans >= 3
    assert result.digest() == SERVE_DIURNAL_PINS[seed]


@pytest.mark.fuzz
class TestServingFuzzCampaign:
    def test_serving_campaign_is_reproducible(self, tmp_path):
        from repro.verify.fuzz import fuzz

        first = fuzz(8, 3, corpus_dir=tmp_path, serving=True)
        second = fuzz(8, 3, corpus_dir=tmp_path, serving=True)
        assert first.ok, [o.failures for o in first.failures]
        assert first.digest == second.digest
        assert list(tmp_path.glob("*.json")) == []  # nothing failed

    def test_serving_draw_is_deterministic(self):
        import numpy as np

        from repro.verify.scenarios import draw_serving_case

        a = [
            draw_serving_case(c, i)
            for i, c in enumerate(np.random.SeedSequence(5).spawn(6))
        ]
        b = [
            draw_serving_case(c, i)
            for i, c in enumerate(np.random.SeedSequence(5).spawn(6))
        ]
        assert a == b
        assert all(case.kind == "serving" for case in a)

    def test_serving_case_roundtrips_through_json(self):
        import numpy as np

        from repro.verify.scenarios import draw_serving_case

        case = draw_serving_case(np.random.SeedSequence(1).spawn(1)[0], 0)
        clone = FuzzCase.from_json(
            json.loads(json.dumps(case.to_json()))
        )
        assert clone == case
        assert run_case(clone).ok
