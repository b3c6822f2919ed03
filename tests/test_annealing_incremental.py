"""Incremental (delta-cost) annealing cross-checked against full recompute.

The incremental context must (a) evaluate each move's cost delta within
float-accumulation tolerance of a full recompute, (b) restore the state
*bitwise* on rollback, (c) consume the rng identically to the full path,
(d) keep its per-server holder lists equal to the matrix's nonzero rows,
and (e) drive the engine to comparable solutions at a large speedup.  The
full-recompute loop remains available via ``use_incremental=False`` and is
the behavior oracle throughout, calibration walk included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.annealing import (
    GeometricCooling,
    ScalableBitRateProblem,
    SimulatedAnnealer,
)
from repro.model.problem import ReplicationProblem


def make_problem(
    num_videos=40,
    num_servers=4,
    storage_gb=30.0,
    bandwidth_mbps=900.0,
    rates=(1.5, 3.0, 4.0, 6.0),
    theta=0.75,
    arrival_rate_per_min=20.0,
):
    popularity = ZipfPopularity(num_videos, theta)
    cluster = ClusterSpec.homogeneous(
        num_servers, storage_gb=storage_gb, bandwidth_mbps=bandwidth_mbps
    )
    videos = VideoCollection.homogeneous(num_videos)
    problem = ReplicationProblem(
        cluster,
        videos,
        popularity,
        arrival_rate_per_min=arrival_rate_per_min,
        peak_minutes=90.0,
        allowed_bit_rates_mbps=rates,
    )
    return ScalableBitRateProblem(problem)


RATE_SETS = {
    "2-rates": (1.5, 3.0),
    "3-rates": (1.5, 3.0, 6.0),
    "4-rates": (1.5, 3.0, 4.0, 6.0),
}
#: (storage GB, bandwidth Mb/s) per server for 24 homogeneous 90-minute
#: videos (0.675 GB per Mb/s) at 20 requests/min over a 90-minute peak.
BOUNDS = {
    # Server 0's 24 lowest-rate replicas fill 24.3 of 26 GB.
    "storage-bound": (26.0, 20_000.0),
    # Server 0 carries 1,597 of 1,600 Mb/s.
    "bandwidth-bound": (200.0, 1_600.0),
}


def edge_instance(rates, bound):
    """A feasible start with the two edge servers of the neighborhood:
    server 0 holds every video (no add move) and server 1 holds only
    top-rate replicas (no raise move)."""
    storage_gb, bandwidth_mbps = BOUNDS[bound]
    sa = make_problem(
        num_videos=24,
        num_servers=4,
        storage_gb=storage_gb,
        bandwidth_mbps=bandwidth_mbps,
        rates=rates,
    )
    state = np.zeros((24, 4))
    state[:, 0] = sa.min_rate
    state[1:4, 1] = sa.max_rate
    state[4:14, 2] = sa.min_rate
    state[14:, 3] = sa.min_rate
    assert sa._violating_servers(state).size == 0
    return sa, state


def assert_holders_match(context):
    state = context.export_state()
    for server, holders in enumerate(context._holders):
        assert holders == np.flatnonzero(state[:, server] > 0).tolist()
    np.testing.assert_array_equal(np.array(context._cols).T, state)


def assert_deltas_match_full_recompute(sa, moves, seed_base):
    state = sa.initial_state(np.random.default_rng(0))
    context = sa.make_incremental(state)
    full_state = state.copy()
    checked = 0
    for i in range(moves):
        seed = seed_base + i
        before = sa.cost(full_state)
        neighbor = sa.propose(full_state, np.random.default_rng(seed))
        delta = context.propose(np.random.default_rng(seed))
        if neighbor is None:
            # rng parity: the context must fall through exactly when
            # the full path does.
            assert delta is None
            continue
        assert delta == pytest.approx(sa.cost(neighbor) - before, abs=1e-9)
        checked += 1
        if i % 2 == 0:
            full_state = neighbor
            context.commit()
        else:
            context.rollback()
        # Bitwise agreement after every commit/rollback.
        np.testing.assert_array_equal(context.export_state(), full_state)
    assert checked > moves // 6  # the walk must actually exercise moves


class TestDeltaCrossCheck:
    def test_deltas_match_full_recompute(self):
        assert_deltas_match_full_recompute(make_problem(), 600, 5_000)

    def test_deltas_match_full_recompute_at_paper_scale(self):
        # M=250 on N=8 servers with four rates at lambda=40/min.
        sa = make_problem(
            num_videos=250,
            num_servers=8,
            storage_gb=120.0,
            bandwidth_mbps=1800.0,
            arrival_rate_per_min=40.0,
        )
        assert_deltas_match_full_recompute(sa, 1000, 10_000)

    def test_rollback_restores_caches_exactly(self):
        sa = make_problem()
        state = sa.initial_state(np.random.default_rng(1))
        context = sa.make_incremental(state)
        cost_before = context.cost()
        rng = np.random.default_rng(7)
        rolled_back = 0
        for _ in range(50):
            if context.propose(rng) is not None:
                context.rollback()
                rolled_back += 1
        assert rolled_back > 0
        np.testing.assert_array_equal(context.export_state(), state)
        assert context.cost() == cost_before

    def test_resync_matches_incremental_caches(self):
        sa = make_problem()
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(2)))
        rng = np.random.default_rng(3)
        for _ in range(200):
            if context.propose(rng) is not None:
                context.commit()
        drifted = context.cost()
        context.resync()
        assert context.cost() == pytest.approx(drifted, abs=1e-9)
        assert context.cost() == pytest.approx(
            sa.cost(context.export_state()), abs=1e-12
        )


class TestHolderIndexParity:
    @pytest.mark.parametrize("bound", sorted(BOUNDS))
    @pytest.mark.parametrize("rates", sorted(RATE_SETS))
    def test_state_agrees_with_full_path_after_every_step(self, rates, bound):
        sa, state = edge_instance(RATE_SETS[rates], bound)
        context = sa.make_incremental(state)
        full_state = state.copy()
        moved = repaired = 0
        for i in range(400):
            seed = 9_000 + i
            neighbor = sa.propose(full_state, np.random.default_rng(seed))
            delta = context.propose(np.random.default_rng(seed))
            assert (delta is None) == (neighbor is None)
            if neighbor is not None:
                moved += 1
                repaired += len(context._log) > 1  # the repair shed
                if i % 3:
                    full_state = neighbor
                    context.commit()
                else:
                    context.rollback()
            np.testing.assert_array_equal(context.export_state(), full_state)
            assert_holders_match(context)
        assert moved > 100 and repaired > 0

    def test_holder_lists_after_rollback_and_resync(self):
        sa, state = edge_instance(RATE_SETS["3-rates"], "storage-bound")
        context = sa.make_incremental(state)
        rng = np.random.default_rng(21)
        rolled_back = 0
        for i in range(300):
            if context.propose(rng) is None:
                continue
            if i % 2:
                context.commit()
            else:
                context.rollback()
                rolled_back += 1
                assert_holders_match(context)
        assert rolled_back > 50
        context.resync()
        assert_holders_match(context)

    def test_cached_cost_survives_commit_and_rollback(self):
        sa = make_problem()
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(4)))
        rng = np.random.default_rng(5)
        for i in range(200):
            before = context.cost()
            delta = context.propose(rng)
            if delta is None:
                assert context.cost() == before
                continue
            if i % 2:
                context.commit()
                assert context.cost() == pytest.approx(before + delta, abs=1e-12)
            else:
                context.rollback()
                assert context.cost() == before
            assert context.cost() == pytest.approx(
                sa.cost(context.export_state()), abs=1e-9
            )


class _ScriptedRng:
    """Stands in for a Generator: ``integers`` returns scripted draws."""

    def __init__(self, *draws):
        self._draws = list(draws)
        self.bounds = []

    def integers(self, bound):
        self.bounds.append(bound)
        return self._draws.pop(0)


class TestMoveSelection:
    """The shared selection helpers against the paper's neighborhood."""

    def setup_method(self):
        self.sa = make_problem(num_videos=8, rates=(1.5, 3.0, 6.0))
        self.column = [0.0, 1.5, 0.0, 6.0, 3.0, 0.0, 1.5, 0.0]
        self.holders = [1, 3, 4, 6]

    def test_add_picks_the_kth_absent_video(self):
        absent = [0, 2, 5, 7]
        for k, video in enumerate(absent):
            rng = _ScriptedRng(1, k)  # move kind 1 = add
            assert self.sa._choose_move(self.column, self.holders, rng) == (
                video, 1.5,
            )
            assert rng.bounds == [2, len(absent)]

    def test_raise_steps_one_rate_up_among_raisable_holders(self):
        # Video 3 is at the top rate, so the raisable list is [1, 4, 6].
        for k, (video, value) in enumerate([(1, 3.0), (4, 6.0), (6, 3.0)]):
            rng = _ScriptedRng(0, k)
            assert self.sa._choose_move(self.column, self.holders, rng) == (
                video, value,
            )
            assert rng.bounds == [2, 3]

    def test_single_move_kind_still_draws_the_kind(self):
        full = [1.5] * 8
        rng = _ScriptedRng(0, 2)
        assert self.sa._choose_move(full, list(range(8)), rng) == (2, 3.0)
        assert rng.bounds == [1, 8]
        top = [6.0] * 8
        assert self.sa._choose_move(top, list(range(8)), _ScriptedRng()) is None

    def test_shed_lowers_the_lowest_rate_replica_first(self):
        counts = [1] * 8
        # Lowest rates 1.5 (videos 1 and 6, ascending id on ties) are the
        # last replicas at the floor (Eq. 7), so video 4 drops 3 -> 1.5.
        assert self.sa._choose_shed(self.column, self.holders, counts, 3) == (
            4, 1.5,
        )
        counts[6] = 2
        assert self.sa._choose_shed(self.column, self.holders, counts, 3) == (
            6, 0.0,
        )
        counts[1] = 2
        assert self.sa._choose_shed(self.column, self.holders, counts, 3) == (
            1, 0.0,
        )
        # The protected video is never shed.
        assert self.sa._choose_shed(self.column, self.holders, counts, 1) == (
            6, 0.0,
        )
        assert self.sa._choose_shed([0.0, 1.5], [1], [1, 1], 0) is None

    def test_shed_matches_the_sorted_candidates_rule(self):
        def sorted_rule(column, holders, counts, protect):
            candidates = [video for video in holders if video != protect]
            candidates.sort(key=column.__getitem__)  # stable: ties by id
            for video in candidates:
                rate = column[video]
                if rate > 1.5 + 1e-12:
                    return video, {3.0: 1.5, 6.0: 3.0}[rate]
                if counts[video] > 1:
                    return video, 0.0
            return None

        # Ties at every rate, and last replicas at the floor (counts 1)
        # ahead of every shedable replica.
        column = [1.5, 1.5, 3.0, 1.5, 3.0, 6.0, 1.5, 6.0, 0.0, 3.0]
        holders = [0, 1, 2, 3, 4, 5, 6, 7, 9]
        counts = [1, 1, 2, 1, 1, 1, 2, 3, 1, 2]
        for protect in range(10):
            assert self.sa._choose_shed(
                column, holders, counts, protect
            ) == sorted_rule(column, holders, counts, protect)
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(500):
            column = rng.choice(
                [0.0, 1.5, 3.0, 6.0], size=6, p=[0.2, 0.5, 0.2, 0.1]
            ).tolist()
            holders = [v for v, rate in enumerate(column) if rate > 0]
            counts = rng.integers(1, 3, size=6).tolist()
            protect = int(rng.integers(6))
            chosen = self.sa._choose_shed(column, holders, counts, protect)
            assert chosen == sorted_rule(column, holders, counts, protect)
            outcomes.add(None if chosen is None else chosen[1])
        assert outcomes == {None, 0.0, 1.5, 3.0}


SERVE_SIZED_N = (7, 8, 9, 16)


def serve_sized_problem(num_servers):
    """M=200 at the serving plane's two rates: one rate step up from the
    floor, with storage for about twice the lowest-rate catalogue."""
    per_server = -(-200 // num_servers)
    return make_problem(
        num_videos=200,
        num_servers=num_servers,
        storage_gb=2.0 * 2.7 * per_server,
        bandwidth_mbps=3.0 * 4.0 * 1800.0 / num_servers,
        rates=(4.0, 6.0),
    )


class TestCalibrationParity:
    @pytest.mark.parametrize(
        "sa",
        [
            make_problem(),
            # Uniform popularity: many moves leave the cost exactly
            # unchanged, the case cached deltas would turn uphill.
            make_problem(theta=0.0, rates=(1.5, 3.0)),
            edge_instance(RATE_SETS["2-rates"], "bandwidth-bound")[0],
            # Serve-sized: numpy's pairwise sum changes its order at 8
            # elements, and the serving plane's elasticity moves N
            # across that line.
            *(serve_sized_problem(n) for n in SERVE_SIZED_N),
        ],
        ids=["zipf", "uniform", "bandwidth-bound"]
        + [f"serve-N{n}" for n in SERVE_SIZED_N],
    )
    def test_context_walk_gives_the_full_walk_t0(self, sa):
        annealer = SimulatedAnnealer(steps_per_level=10, max_levels=2)
        state = sa.initial_state(np.random.default_rng(0))
        for seed in range(8):
            full = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed)
            ).temperature(0)
            incremental = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed), incremental=True
            ).temperature(0)
            assert incremental == full

    @pytest.mark.parametrize("num_servers", SERVE_SIZED_N)
    def test_stacked_cost_equals_each_cost(self, num_servers):
        sa = serve_sized_problem(num_servers)
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(0)))
        rng = np.random.default_rng(num_servers)
        states = [context.export_state()]
        while len(states) < 40:
            if context.propose(rng) is not None:
                context.commit()
                states.append(context.export_state())
        stacked = sa.cost(np.stack(states))
        assert stacked.shape == (len(states),)
        assert stacked.tolist() == [sa.cost(state) for state in states]


class TestEngineIncremental:
    def test_engine_uses_incremental_and_agrees(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            GeometricCooling(0.05),
            steps_per_level=50,
            max_levels=20,
            patience_levels=0,
        )
        full = annealer.run(sa, np.random.default_rng(9), use_incremental=False)
        inc = annealer.run(sa, np.random.default_rng(9))
        assert inc.steps == full.steps
        # Reported costs are always full recomputations of real states.
        assert inc.best_cost == pytest.approx(sa.cost(inc.best_state), abs=1e-12)
        # Same seed, same rng discipline: a near-zero delta may still flip
        # one acceptance (cached vs recomputed float noise), after which
        # trajectories diverge — but solutions land in the same regime.
        assert inc.best_cost == pytest.approx(full.best_cost, rel=0.05)
        assert sa._violating_servers(inc.best_state).size == 0

    def test_incremental_result_fields_consistent(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=40, max_levels=10, patience_levels=0
        )
        result = annealer.run(sa, np.random.default_rng(11))
        assert result.steps == 40 * result.levels
        assert 0 < result.accepted <= result.steps
        assert result.wall_time_sec > 0
        assert result.steps_per_sec > 0
        assert len(result.cost_history) == result.levels + 1

    def test_use_incremental_false_is_original_path(self):
        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=30, max_levels=5, patience_levels=0
        )
        result = annealer.run(sa, np.random.default_rng(13), use_incremental=False)
        assert result.best_cost == pytest.approx(
            sa.cost(result.best_state), abs=1e-12
        )


class TestCalibrationGuard:
    def test_empty_calibration_walk_gets_sane_default(self):
        """Every-propose-None calibration must not freeze the schedule."""

        class DeadEndProblem:
            def initial_state(self, rng):
                return 0.0

            def cost(self, state):
                return float(state)

            def propose(self, state, rng):
                return None  # all moves fall through

        annealer = SimulatedAnnealer(
            steps_per_level=5, max_levels=3, patience_levels=0
        )
        schedule = annealer._calibrate_schedule(
            DeadEndProblem(), 0.0, np.random.default_rng(0)
        )
        t0 = schedule.temperature(0)
        assert np.isfinite(t0)
        assert t0 == pytest.approx(1.0)
        # And a full run on such a problem terminates cleanly.
        result = annealer.run(DeadEndProblem(), np.random.default_rng(0))
        assert result.steps == 15
        assert result.accepted == 0


class TestRunChainsReporting:
    def test_chains_record_sa_throughput(self):
        from repro.annealing import run_chains
        from repro.runtime import ParallelRunner, use_runner

        sa = make_problem()
        annealer = SimulatedAnnealer(
            steps_per_level=20, max_levels=4, patience_levels=0
        )
        with ParallelRunner(jobs=1) as runner, use_runner(runner):
            chains = run_chains(sa, annealer, num_chains=2, seed=5)
            report = runner.report
        assert report.num_sa_runs == 2
        assert report.num_sa_steps == sum(r.steps for r in chains.results)
        assert report.sa_steps_per_sec > 0
