"""Tests for the placement algorithms (Sec. 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.objective import load_imbalance
from repro.placement import (
    GreedyLeastLoadedPlacer,
    PlacementError,
    RandomFeasiblePlacer,
    RoundRobinPlacer,
    SmallestLoadFirstPlacer,
    greedy_least_loaded_placement,
    placement_imbalance,
    random_feasible_placement,
    round_robin_placement,
    slf_imbalance_bound,
    smallest_load_first_placement,
    theorem2_holds,
)
from repro.pipeline import PLACERS
from repro.placement.base import sorted_replica_stream
from repro.placement.p2p import p2p_stripe_placement
from repro.placement.slf import _place_round, _relaxed_choice
from repro.popularity import zipf_probabilities
from repro.replication import (
    REPLICATOR_REGISTRY,
    ReplicationResult,
    adams_replication,
    no_replication,
    zipf_interval_replication,
)


def make_replication(m=20, n=4, budget=40, theta=0.75):
    return adams_replication(zipf_probabilities(m, theta), n, budget)


class TestSmallestLoadFirst:
    def test_all_replicas_placed(self):
        replication = make_replication()
        layout = smallest_load_first_placement(replication, 10)
        assert layout.total_replicas == replication.total_replicas
        np.testing.assert_array_equal(
            layout.replica_counts, replication.replica_counts
        )

    def test_distinct_servers_structural(self):
        replication = make_replication()
        layout = smallest_load_first_placement(replication, 10)
        for video in range(layout.num_videos):
            servers = layout.servers_of(video)
            assert len(servers) == len(set(servers.tolist()))

    def test_storage_respected(self):
        replication = make_replication(m=20, n=4, budget=40)
        layout = smallest_load_first_placement(replication, 10)
        assert layout.server_replica_counts().max() <= 10

    def test_theorem2_bound(self):
        replication = make_replication()
        layout = smallest_load_first_placement(replication, 10)
        assert theorem2_holds(layout, replication)

    def test_theorem2_bound_paper_scale(self):
        probs = zipf_probabilities(200, 0.75)
        for budget in [240, 280, 320, 360, 400]:
            replication = zipf_interval_replication(probs, 8, budget)
            layout = smallest_load_first_placement(replication, 50)
            assert theorem2_holds(layout, replication)

    def test_tight_storage(self):
        # Budget exactly N * C: every server ends exactly full.
        replication = make_replication(m=20, n=4, budget=40)
        layout = smallest_load_first_placement(replication, 10)
        np.testing.assert_array_equal(layout.server_replica_counts(), 10)

    def test_beats_round_robin_on_skewed_weights(self):
        replication = make_replication(m=50, n=8, budget=80, theta=1.0)
        slf = smallest_load_first_placement(replication, 10)
        rr = round_robin_placement(replication, 10)
        probs = replication.popularity
        assert placement_imbalance(slf, probs) <= placement_imbalance(rr, probs) + 1e-12

    def test_infeasible_storage_rejected(self):
        replication = make_replication(m=20, n=4, budget=40)
        with pytest.raises(PlacementError, match="exceed"):
            smallest_load_first_placement(replication, 9)

    def test_bit_rate_stamped(self):
        replication = make_replication()
        layout = smallest_load_first_placement(replication, 10, bit_rate_mbps=6.0)
        assert set(np.unique(layout.rate_matrix)) == {0.0, 6.0}

    def test_wrapper(self):
        replication = make_replication()
        layout = SmallestLoadFirstPlacer().place(replication, 10)
        assert layout.total_replicas == replication.total_replicas


def _argmin_slf(replication, capacity_replicas, bit_rate_mbps=4.0):
    """Algorithm 1 as one masked ``argmin`` over all servers per replica.

    The straightforward form the round-sorted implementation must match
    bit for bit.  Returns ``(rate_matrix, relaxations)``, where
    *relaxations* counts replicas that needed the relaxed rule.
    """
    num_servers = replication.num_servers
    stream = sorted_replica_stream(replication)
    weights = replication.weights()
    loads = np.zeros(num_servers, dtype=np.float64)
    storage_left = np.full(num_servers, capacity_replicas, dtype=np.int64)
    holds = np.zeros((replication.num_videos, num_servers), dtype=bool)
    relaxations = 0
    for start in range(0, stream.size, num_servers):
        used_this_round = np.zeros(num_servers, dtype=bool)
        for video in stream[start : start + num_servers]:
            video = int(video)
            feasible = ~used_this_round & ~holds[video] & (storage_left > 0)
            if not feasible.any():
                relaxations += 1
                feasible = ~holds[video] & (storage_left > 0)
            server = int(np.argmin(np.where(feasible, loads, np.inf)))
            holds[video, server] = True
            used_this_round[server] = True
            storage_left[server] -= 1
            loads[server] += weights[video]
    return np.where(holds, bit_rate_mbps, 0.0), relaxations


def _setups():
    from repro.experiments.cache_scale_sweep import cache_scale_setup
    from repro.experiments.config import PaperSetup

    return {"paper": PaperSetup(), "cache": cache_scale_setup()}


@st.composite
def tight_storage_instances(draw):
    """Replica counts up to N with storage C = ceil(R / N): full servers."""
    num_servers = draw(st.integers(1, 8))
    num_videos = draw(st.integers(1, 24))
    counts = draw(
        st.lists(
            st.integers(1, num_servers),
            min_size=num_videos,
            max_size=num_videos,
        )
    )
    # Integer weights make exact load ties (and so tie-breaks) common.
    mass = draw(
        st.lists(st.integers(1, 6), min_size=num_videos, max_size=num_videos)
    )
    popularity = np.asarray(mass, dtype=np.float64)
    replication = ReplicationResult(
        np.asarray(counts), num_servers, popularity / popularity.sum()
    )
    capacity = -(-replication.total_replicas // num_servers)
    return replication, capacity


class TestSlfMatchesArgminOracle:
    """The round-sorted SLF against the per-replica ``argmin`` loop."""

    # Paper-scale degrees 2.0 and 4.0 give many videos r_i near N, so
    # almost every round opens with a video straddling the previous one.
    @pytest.mark.parametrize(
        "scale, degree",
        [
            pytest.param("paper", 1.2, id="paper"),
            pytest.param("cache", 1.2, id="cache"),
            pytest.param("paper", 2.0, id="paper-2.0"),
            pytest.param("paper", 4.0, id="paper-4.0"),
        ],
    )
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.2])
    def test_every_replicator_bit_identical(self, scale, degree, theta):
        setup = _setups()[scale]
        probs = setup.popularity(theta).probabilities
        capacity = setup.capacity_replicas(degree)
        for name, replicator in REPLICATOR_REGISTRY.items():
            replication = replicator().replicate(
                probs, setup.num_servers, setup.replica_budget(degree)
            )
            expected, _ = _argmin_slf(replication, capacity)
            layout = smallest_load_first_placement(replication, capacity)
            assert np.array_equal(layout.rate_matrix, expected), name

    @settings(max_examples=150, deadline=None)
    @given(tight_storage_instances())
    def test_tight_storage_bit_identical(self, instance):
        replication, capacity = instance
        expected, relaxations = _argmin_slf(replication, capacity, 6.0)
        layout = smallest_load_first_placement(
            replication, capacity, bit_rate_mbps=6.0
        )
        assert np.array_equal(layout.rate_matrix, expected)
        # Every full round gives each server one replica, so storage lasts
        # and a video's run of r_i <= N replicas always finds an unused
        # non-holder: valid inputs never need the relaxed rule.
        assert relaxations == 0
        np.testing.assert_array_equal(
            layout.server_replica_counts().max(), capacity
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relaxed_rule_is_masked_argmin(self, data):
        # The relaxed rule cannot be reached through valid inputs (see the
        # test above), so it is checked directly: least current load over
        # servers lacking the video with storage left, lowest id on ties.
        num_servers = data.draw(st.integers(1, 8))
        def per_server(values):
            return st.lists(values, min_size=num_servers, max_size=num_servers)

        loads = data.draw(per_server(st.integers(0, 3)))
        storage = data.draw(per_server(st.integers(0, 2)))
        holders = data.draw(st.sets(st.integers(0, num_servers - 1)))
        loads = [float(load) for load in loads]
        feasible = (np.asarray(storage) > 0) & ~np.isin(
            np.arange(num_servers), list(holders)
        )
        if not feasible.any():
            with pytest.raises(PlacementError, match="no feasible server"):
                _relaxed_choice(0, holders, loads, storage)
            return
        expected = int(np.argmin(np.where(feasible, loads, np.inf)))
        assert _relaxed_choice(0, holders, loads, storage) == expected


def _argmin_round(videos, straddled, loads, storage_left, weights):
    """One SLF round as a masked ``argmin`` per replica, relaxed rule
    included; returns ``(servers, loads, storage_left)``."""
    num_servers = len(loads)
    loads = np.asarray(loads, dtype=np.float64)
    storage_left = np.asarray(storage_left, dtype=np.int64)
    used = np.zeros(num_servers, dtype=bool)
    held_by = {videos[0]: set(straddled)}
    servers = []
    for video in videos:
        holders = held_by.setdefault(video, set())
        lacks = ~np.isin(np.arange(num_servers), list(holders))
        feasible = ~used & lacks & (storage_left > 0)
        if not feasible.any():
            feasible = lacks & (storage_left > 0)
        if not feasible.any():
            raise PlacementError("no feasible server")
        server = int(np.argmin(np.where(feasible, loads, np.inf)))
        holders.add(server)
        used[server] = True
        storage_left[server] -= 1
        loads[server] += weights[video]
        servers.append(server)
    return servers, loads.tolist(), storage_left.tolist()


class TestSlfRound:
    """One round of the whole-round SLF against the per-replica rule."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_matches_argmin(self, data):
        # Storage may run out and the first video may already hold most
        # servers, so rounds whose picks come up short (and the relaxed
        # rule) are drawn as well as whole-slice rounds.
        num_servers = data.draw(st.integers(1, 8))

        def per_server(values):
            return st.lists(values, min_size=num_servers, max_size=num_servers)

        loads = [float(load) for load in data.draw(per_server(st.integers(0, 3)))]
        storage = data.draw(per_server(st.integers(0, 2)))
        runs = data.draw(
            st.lists(st.integers(1, num_servers), min_size=1, max_size=num_servers)
        )
        videos = [video for video, run in enumerate(runs) for _ in range(run)]
        videos = videos[:num_servers]
        straddled = data.draw(
            st.sets(st.integers(0, num_servers - 1), max_size=num_servers - 1)
        )
        weights = data.draw(
            st.lists(st.integers(1, 4), min_size=len(runs), max_size=len(runs))
        )
        weights = [float(weight) for weight in weights]
        try:
            expected = _argmin_round(videos, straddled, loads, storage, weights)
        except PlacementError:
            with pytest.raises(PlacementError, match="no feasible server"):
                _place_round(videos, straddled, loads, storage, weights)
            return
        servers = _place_round(videos, straddled, loads, storage, weights)
        assert (servers, loads, storage) == expected


def _cyclic_deal_oracle(replication, capacity_replicas, bit_rate_mbps=4.0):
    """The stripe deal one video at a time: each video's replicas go to
    the next distinct servers with storage left, from a cyclic offset
    that advances by ``r_i`` per video, hottest video first."""
    num_servers = replication.num_servers
    counts = replication.replica_counts
    order = np.argsort(-replication.popularity, kind="stable")
    fill = np.zeros(num_servers, dtype=np.int64)
    matrix = np.zeros((replication.num_videos, num_servers))
    offset = 0
    for video in order:
        needed = int(counts[video])
        placed = 0
        for step in range(num_servers):
            server = (offset + step) % num_servers
            if fill[server] >= capacity_replicas:
                continue
            matrix[video, server] = bit_rate_mbps
            fill[server] += 1
            placed += 1
            if placed == needed:
                break
        assert placed == needed
        offset = (offset + needed) % num_servers
    return matrix


class TestStripeMatchesCyclicOracle:
    """The closed-form stripe deal against the per-video cyclic loop."""

    @pytest.mark.parametrize("scale", ["paper", "cache"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 0.9, 1.2])
    def test_every_replicator_bit_identical(self, scale, theta):
        setup = _setups()[scale]
        degree = 1.2
        probs = setup.popularity(theta).probabilities
        capacity = setup.capacity_replicas(degree)
        for name, replicator in REPLICATOR_REGISTRY.items():
            replication = replicator().replicate(
                probs, setup.num_servers, setup.replica_budget(degree)
            )
            expected = _cyclic_deal_oracle(replication, capacity)
            layout = p2p_stripe_placement(replication, capacity)
            assert np.array_equal(layout.rate_matrix, expected), name

    @settings(max_examples=150, deadline=None)
    @given(tight_storage_instances())
    def test_tight_storage_bit_identical(self, instance):
        replication, capacity = instance
        expected = _cyclic_deal_oracle(replication, capacity, 6.0)
        layout = p2p_stripe_placement(replication, capacity, bit_rate_mbps=6.0)
        assert np.array_equal(layout.rate_matrix, expected)


class TestBitRateValidation:
    @pytest.mark.parametrize("placer", sorted(PLACERS))
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_every_placer_rejects_non_positive_rate(self, placer, rate):
        replication = make_replication()
        with pytest.raises(ValueError, match="bit_rate_mbps must be > 0"):
            PLACERS[placer]().place(replication, 10, bit_rate_mbps=rate)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_other_entry_points_reject_non_positive_rate(self, rate):
        replication = make_replication()
        with pytest.raises(ValueError, match="bit_rate_mbps must be > 0"):
            random_feasible_placement(
                replication, 10, np.random.default_rng(0), bit_rate_mbps=rate
            )
        with pytest.raises(ValueError, match="bit_rate_mbps must be > 0"):
            greedy_least_loaded_placement(
                replication, np.full(4, 10), bit_rate_mbps=rate
            )


class TestRoundRobinPlacement:
    def test_all_replicas_placed(self):
        replication = make_replication()
        layout = round_robin_placement(replication, 10)
        assert layout.total_replicas == replication.total_replicas

    def test_distinct_servers(self):
        replication = make_replication(m=10, n=4, budget=40)
        layout = round_robin_placement(replication, 10)
        np.testing.assert_array_equal(layout.replica_counts, replication.replica_counts)

    def test_storage_balanced(self):
        replication = make_replication(m=20, n=4, budget=38)
        layout = round_robin_placement(replication, 10)
        counts = layout.server_replica_counts()
        assert counts.max() - counts.min() <= 1

    def test_optimal_for_uniform_weights(self):
        # Equal weights: RR achieves zero imbalance when R divides N evenly.
        probs = np.full(8, 0.125)
        replication = no_replication(probs, 4)
        layout = round_robin_placement(replication, 2)
        assert placement_imbalance(layout, probs) == pytest.approx(0.0)

    def test_sorted_variant(self):
        replication = make_replication()
        layout = round_robin_placement(replication, 10, sort_by_weight=True)
        assert layout.total_replicas == replication.total_replicas

    def test_wrapper(self):
        replication = make_replication()
        layout = RoundRobinPlacer(sort_by_weight=True).place(replication, 10)
        assert layout.total_replicas == replication.total_replicas


class TestGreedyPlacement:
    def test_places_everything(self):
        replication = make_replication()
        layout = greedy_least_loaded_placement(replication, 10)
        assert layout.total_replicas == replication.total_replicas

    def test_per_server_capacities(self):
        replication = make_replication(m=20, n=4, budget=40)
        caps = np.array([20, 12, 8, 8])
        layout = greedy_least_loaded_placement(replication, caps)
        assert np.all(layout.server_replica_counts() <= caps)

    def test_shares_shift_load(self):
        replication = make_replication(m=50, n=4, budget=100, theta=0.75)
        shares = np.array([3.0, 1.0, 1.0, 1.0])
        layout = greedy_least_loaded_placement(
            replication, 50, server_shares=shares
        )
        loads = layout.replica_weights(replication.popularity).sum(axis=0)
        assert loads[0] > loads[1:].max() - 1e-12

    def test_no_worse_than_theorem2_bound_in_practice(self):
        replication = make_replication(m=100, n=8, budget=160)
        layout = greedy_least_loaded_placement(replication, 20)
        assert placement_imbalance(layout, replication.popularity) <= slf_imbalance_bound(
            replication
        ) + 1e-12

    def test_bad_shares_rejected(self):
        replication = make_replication()
        with pytest.raises(ValueError):
            greedy_least_loaded_placement(
                replication, 10, server_shares=np.array([1.0, -1.0, 1.0, 1.0])
            )

    def test_insufficient_total_storage(self):
        replication = make_replication(m=20, n=4, budget=40)
        with pytest.raises(PlacementError):
            greedy_least_loaded_placement(replication, np.array([10, 10, 10, 9]))

    def test_wrapper(self):
        replication = make_replication()
        layout = GreedyLeastLoadedPlacer().place(replication, 10)
        assert layout.total_replicas == replication.total_replicas


class TestRandomPlacement:
    def test_feasible_output(self, rng):
        replication = make_replication()
        layout = random_feasible_placement(replication, 10, rng)
        assert layout.total_replicas == replication.total_replicas
        assert layout.server_replica_counts().max() <= 10

    def test_deterministic_given_seed(self):
        replication = make_replication()
        a = random_feasible_placement(replication, 10, np.random.default_rng(1))
        b = random_feasible_placement(replication, 10, np.random.default_rng(1))
        np.testing.assert_array_equal(a.rate_matrix, b.rate_matrix)

    def test_typically_worse_than_slf(self, rng):
        # Slack storage (27 > 200/8): a fully random order dead-ends with
        # high probability when capacity is exactly tight.
        replication = make_replication(m=100, n=8, budget=200, theta=1.0)
        slf = smallest_load_first_placement(replication, 27)
        probs = replication.popularity
        random_imbalances = [
            placement_imbalance(random_feasible_placement(replication, 27, rng), probs)
            for _ in range(10)
        ]
        assert placement_imbalance(slf, probs) <= min(random_imbalances) + 1e-12

    def test_wrapper_uses_own_rng(self):
        replication = make_replication()
        layout = RandomFeasiblePlacer(np.random.default_rng(5)).place(replication, 10)
        assert layout.total_replicas == replication.total_replicas


class TestBounds:
    def test_bound_value(self):
        replication = make_replication()
        expected = replication.max_weight() - replication.min_weight()
        assert slf_imbalance_bound(replication) == pytest.approx(expected)

    def test_theorem3_bound_trend_non_increasing(self):
        """Theorem 3: the bound shrinks as the replication degree grows.

        The *max* weight is strictly non-increasing in the budget (tested in
        test_replication_adams); the max - min spread can tick up by a step
        when a duplication drops the minimum weight, so the theorem is
        verified as a trend: each bound stays within one weight-granularity
        step of the best seen so far, and the endpoints strictly improve.
        """
        probs = zipf_probabilities(200, 0.75)
        bounds = []
        for budget in [200, 240, 280, 320, 360, 400]:
            replication = adams_replication(probs, 8, budget)
            bounds.append(slf_imbalance_bound(replication))
        assert bounds[-1] < bounds[0]
        best = np.inf
        for bound in bounds:
            assert bound <= best * 1.10 or bound <= best + probs[-1]
            best = min(best, bound)

    def test_placement_imbalance_matches_manual(self):
        replication = make_replication(m=4, n=2, budget=4)
        layout = smallest_load_first_placement(replication, 2)
        weights = layout.replica_weights(replication.popularity)
        manual = load_imbalance(weights.sum(axis=0))
        assert placement_imbalance(layout, replication.popularity) == pytest.approx(manual)
