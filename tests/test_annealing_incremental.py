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


class TestInfeasibleStart:
    """From a state that breaks a bound, the context voids every move the
    feasibility check must reject before applying it; it must still fall
    through exactly when the full path does and keep the same state."""

    @pytest.mark.parametrize("bound", ["storage", "bandwidth"])
    @pytest.mark.parametrize("num_servers", [5, 8, 16])
    def test_context_matches_full_path(self, bound, num_servers):
        sa = serve_sized_problem(num_servers)
        start = {"storage": violating_start, "bandwidth": bandwidth_violating_start}[
            bound
        ](sa)
        context = sa.make_incremental(start)
        full_state = start.copy()
        voided = moved = 0
        for i in range(400):
            seed = 31_000 + i
            neighbor = sa.propose(full_state, np.random.default_rng(seed))
            delta = context.propose(np.random.default_rng(seed))
            assert (delta is None) == (neighbor is None)
            if neighbor is None:
                voided += sa._violating_servers(full_state).size > 0
            else:
                moved += 1
                # Stay infeasible for 200 proposals, then commit one in four.
                if i >= 200 and i % 4 == 3:
                    full_state = neighbor
                    context.commit()
                else:
                    context.rollback()
            np.testing.assert_array_equal(context.export_state(), full_state)
        assert voided > 100 and moved > 20


class TestRatesBelowTheFloor:
    """A warm start may hold replicas below the lowest allowed rate; the
    shed scan must then keep looking past the first lowest-rate replica,
    as the full path does."""

    def test_context_matches_full_path(self):
        sa = non_dyadic_problem(8)
        state = sa.initial_state(np.random.default_rng(0))
        for video in range(150, 200):  # two replicas below the floor
            state[video, :] = 0.0
            state[video, [video % 8, (video + 1) % 8]] = 0.05
        for video in range(40):  # a second replica at the floor
            state[video, (video + 1) % 8] = sa.min_rate
        assert sa._violating_servers(state).size == 0
        context = sa.make_incremental(state)
        assert context._lowest is None
        full_state = state.copy()
        shed_below = 0
        for i in range(600):
            seed = 47_000 + i
            neighbor = sa.propose(full_state, np.random.default_rng(seed))
            delta = context.propose(np.random.default_rng(seed))
            assert (delta is None) == (neighbor is None)
            if neighbor is not None:
                shed_below += any(
                    old == 0.05 for _, _, old, *_ in context._log[1:]
                )
                full_state = neighbor
                context.commit()
            np.testing.assert_array_equal(context.export_state(), full_state)
        assert shed_below > 5


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

    def choose_move(self, column, holders, rng):
        raisable = self.sa._raisable(column, holders)
        return self.sa._choose_move(column, holders, raisable, rng)

    def test_add_picks_the_kth_absent_video(self):
        absent = [0, 2, 5, 7]
        for k, video in enumerate(absent):
            rng = _ScriptedRng(1, k)  # move kind 1 = add
            assert self.choose_move(self.column, self.holders, rng) == (
                video, 1.5,
            )
            assert rng.bounds == [2, len(absent)]

    def test_raise_steps_one_rate_up_among_raisable_holders(self):
        # Video 3 is at the top rate, so the raisable list is [1, 4, 6].
        for k, (video, value) in enumerate([(1, 3.0), (4, 6.0), (6, 3.0)]):
            rng = _ScriptedRng(0, k)
            assert self.choose_move(self.column, self.holders, rng) == (
                video, value,
            )
            assert rng.bounds == [2, 3]

    def test_single_move_kind_still_draws_the_kind(self):
        full = [1.5] * 8
        rng = _ScriptedRng(0, 2)
        assert self.choose_move(full, list(range(8)), rng) == (2, 3.0)
        assert rng.bounds == [1, 8]
        top = [6.0] * 8
        assert self.choose_move(top, list(range(8)), _ScriptedRng()) is None

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


NON_DYADIC_N = (5, 8, 9, 16)


def non_dyadic_problem(num_servers):
    """M=200 at rates with no exact binary form, so a rate row sum (and
    every load) depends on its summation order; room for about twice the
    lowest-rate catalogue, as in :func:`serve_sized_problem`."""
    per_server = -(-200 // num_servers)
    return make_problem(
        num_videos=200,
        num_servers=num_servers,
        storage_gb=2.0 * 0.1 * 0.675 * per_server,
        bandwidth_mbps=3.0 * 0.1 * 1800.0 / num_servers,
        rates=(0.1, 0.3, 0.7),
    )


def violating_start(sa):
    """The lowest-rate start with its first 40 videos added to server 0
    at the top rate: server 0 breaks its storage bound, as a migrated
    layout handed to the serving plane's polish can."""
    state = sa.initial_state(np.random.default_rng(0))
    state[:40, 0] = sa.max_rate
    assert sa._violating_servers(state).tolist() == [0]
    return state


def bandwidth_violating_start(sa):
    """The fewest most popular videos moved onto server 0 alone, at the
    top rate, that push server 0 past its bandwidth (storage holds)."""
    for top in range(1, 40):
        state = sa.initial_state(np.random.default_rng(0))
        state[:top, :] = 0.0
        state[:top, 0] = sa.max_rate
        if sa._violating_servers(state).size:
            break
    assert sa._violating_servers(state).tolist() == [0]
    assert sa.server_loads(state)[0] > sa._bandwidth[0]
    return state


def context_caches(context):
    """Every cache of an incremental context, floats as raw bytes."""
    floats = lambda values: np.asarray(values, dtype=np.float64).tobytes()
    return (
        context._state.tobytes(),
        floats(context._cols),
        context._holders,
        context._raisable,
        context._sites,
        context._counts,
        floats(context._row_sums),
        floats(context._quality),
        context._weights.tobytes(),
        floats([context._quality_sum, context._cost]),
        context._total_replicas,
        floats(context._loads),
        floats(context._storage),
    )


def assert_fresh(context, sa):
    """*context* holds bitwise what a new context on its state holds."""
    fresh = sa.make_incremental(context.export_state())
    assert context_caches(context) == context_caches(fresh)


PROBLEMS = {
    "zipf": make_problem,
    # Uniform popularity: many moves leave the cost exactly unchanged,
    # the case cached deltas would turn uphill.
    "uniform": lambda: make_problem(theta=0.0, rates=(1.5, 3.0)),
    "bandwidth-bound": lambda: edge_instance(
        RATE_SETS["2-rates"], "bandwidth-bound"
    )[0],
    # Serve-sized: numpy's pairwise sum changes its order at 8 elements,
    # and the serving plane's elasticity moves N across that line.
    **{
        f"serve-N{n}": (lambda n=n: serve_sized_problem(n))
        for n in SERVE_SIZED_N
    },
    **{
        f"non-dyadic-N{n}": (lambda n=n: non_dyadic_problem(n))
        for n in NON_DYADIC_N
    },
}


def walk_states(sa, start, seed, steps=64):
    """The start and every state an accept-all walk from it commits,
    with the walk's exact costs from the context."""
    context = sa.make_incremental(start)
    rng = np.random.default_rng(seed)
    states = [context.export_state()]
    context.begin_walk()
    for _ in range(steps):
        if context.propose(rng) is not None:
            context.commit()
            states.append(context.export_state())
    return states, context.end_walk(), context


class TestCalibrationParity:
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_context_walk_gives_the_full_walk_t0(self, name):
        sa = PROBLEMS[name]()
        annealer = SimulatedAnnealer(steps_per_level=10, max_levels=2)
        state = sa.initial_state(np.random.default_rng(0))
        for seed in range(8):
            full = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed)
            ).temperature(0)
            context = sa.make_incremental(state)
            incremental = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed), context=context
            ).temperature(0)
            assert incremental == full
            # The walk is undone: the loop starts from a pristine context.
            np.testing.assert_array_equal(context.export_state(), state)
            assert_fresh(context, sa)

    @pytest.mark.parametrize("num_servers", NON_DYADIC_N)
    @pytest.mark.parametrize("sized", ["serve", "non-dyadic"])
    def test_violating_warm_start_walk(self, sized, num_servers):
        sa = {"serve": serve_sized_problem, "non-dyadic": non_dyadic_problem}[
            sized
        ](num_servers)
        state = violating_start(sa)
        annealer = SimulatedAnnealer(steps_per_level=10, max_levels=2)
        for seed in range(4):
            full = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed)
            ).temperature(0)
            context = sa.make_incremental(state)
            incremental = annealer._calibrate_schedule(
                sa, state, np.random.default_rng(seed), context=context
            ).temperature(0)
            assert incremental == full
            np.testing.assert_array_equal(context.export_state(), state)
            assert_fresh(context, sa)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_walk_costs_equal_each_cost(self, name):
        sa = PROBLEMS[name]()
        start = sa.initial_state(np.random.default_rng(0))
        for seed in range(3):
            states, costs, context = walk_states(sa, start, seed)
            assert len(states) > 1
            assert costs.tolist() == [sa.cost(state) for state in states]
            assert_fresh(context, sa)

    @pytest.mark.parametrize("num_servers", [1, 2])
    def test_walk_costs_on_few_servers(self, num_servers):
        # One server column is summed pairwise, not in video order.
        sa = make_problem(
            num_videos=150, num_servers=num_servers, storage_gb=900.0,
            bandwidth_mbps=1e5, rates=(0.1, 0.3, 0.7),
        )
        start = sa.initial_state(np.random.default_rng(0))
        states, costs, _ = walk_states(sa, start, 4, steps=40)
        assert len(states) > 10
        assert costs.tolist() == [sa.cost(state) for state in states]

    def test_walk_without_commits(self):
        sa = non_dyadic_problem(8)
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(0)))
        context.begin_walk()
        costs = context.end_walk()
        assert costs.tolist() == [sa.cost(context.export_state())]
        assert_fresh(context, sa)


class TestResyncIsARebuild:
    """``resync`` recomputes only the videos of committed moves and
    skips when none was committed; the caches must still equal a full
    rebuild bit for bit."""

    @pytest.mark.parametrize(
        "name", ["zipf", "serve-N9", "non-dyadic-N5", "non-dyadic-N16"]
    )
    def test_resync_equals_a_new_context(self, name):
        sa = PROBLEMS[name]()
        context = sa.make_incremental(sa.initial_state(np.random.default_rng(0)))
        rng = np.random.default_rng(17)
        for level in range(12):
            for i in range(30):
                if context.propose(rng) is None:
                    continue
                # Level 3 commits nothing: its resync must be a no-op.
                if level != 3 and i % 3:
                    context.commit()
                else:
                    context.rollback()
            context.resync()
            assert_fresh(context, sa)

    def test_resync_after_a_walk_on_a_violating_start(self):
        sa = non_dyadic_problem(9)
        context = sa.make_incremental(violating_start(sa))
        rng = np.random.default_rng(2)
        context.begin_walk()
        for _ in range(64):
            if context.propose(rng) is not None:
                context.commit()
        context.end_walk()
        for _ in range(200):
            if context.propose(rng) is not None:
                context.commit()
        context.resync()
        assert_fresh(context, sa)


class _PassThrough:
    """A Generator stand-in whose bit generator is not PCG64: the engine
    uses it as given, one numpy call per draw."""

    bit_generator = None

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)

    def integers(self, n):
        return self.generator.integers(n)

    def random(self):
        return self.generator.random()


class _RaisingContext:
    """Delegates to *context*, but raises on the *limit*-th proposal, as
    the Eq. 7 check does mid-run."""

    def __init__(self, context, limit):
        self._context = context
        self._left = limit

    def __getattr__(self, name):
        return getattr(self._context, name)

    def propose(self, rng):
        self._left -= 1
        if not self._left:
            raise ValueError("state lost a video's last replica (Eq. 7)")
        return self._context.propose(rng)


class _RaisingProblem(ScalableBitRateProblem):
    def __init__(self, problem, limit):
        super().__init__(problem)
        self._limit = limit

    def make_incremental(self, state):
        return _RaisingContext(super().make_incremental(state), self._limit)


class TestDrawStreamBitIdentity:
    """The incremental loop on a PCG64 generator (buffered draws) against
    the same seed drawn one numpy call at a time."""

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_run_matches_unbuffered_draws(self, name):
        sa = PROBLEMS[name]()
        annealer = SimulatedAnnealer(
            steps_per_level=60, max_levels=12, patience_levels=0
        )
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            plain = _PassThrough(seed)
            buffered = annealer.run(sa, rng)
            unbuffered = annealer.run(sa, plain)
            assert buffered.best_state.tobytes() == unbuffered.best_state.tobytes()
            assert buffered.best_cost == unbuffered.best_cost
            assert buffered.final_cost == unbuffered.final_cost
            assert buffered.cost_history == unbuffered.cost_history
            assert buffered.accepted == unbuffered.accepted
            assert buffered.steps == unbuffered.steps
            assert buffered.levels == unbuffered.levels
            assert buffered.accepted > 0
            assert rng.bit_generator.state == plain.generator.bit_generator.state

    @pytest.mark.parametrize("limit", [10, 64, 300])
    def test_generator_synced_when_the_run_raises(self, limit):
        # The walk and the loop share one context: 10 and 64 raise in
        # the T0 walk, 300 in the Metropolis loop.
        problem = _RaisingProblem(serve_sized_problem(8).problem, limit)
        annealer = SimulatedAnnealer(steps_per_level=60, max_levels=12)
        rng = np.random.default_rng(3)
        plain = _PassThrough(3)
        for source in (rng, plain):
            with pytest.raises(ValueError, match="last replica"):
                annealer.run(problem, source)
        assert rng.bit_generator.state == plain.generator.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(3).bit_generator.state


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
