"""Layouts born from holder lists (``ReplicaLayout.from_holders``).

SLF, the P2P stripe deal and ``from_assignment`` build their layouts from
``(video, server)`` pairs and never fill a dense ``(M, N)`` matrix; the
matrix becomes a lazy view.  These tests pin that such a layout is the
same layout as its dense twin ``ReplicaLayout(rate_matrix=...)`` in every
view, that bad holder lists fail at construction, and that one theta of
the E17 grid designs and scores in less memory than one dense matrix.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.model import ClusterSpec, VideoCollection
from repro.model.layout import LayoutViolation, ReplicaLayout
from repro.placement import smallest_load_first_placement
from repro.placement.p2p import p2p_stripe_placement
from repro.replication import ReplicationResult


def _random_replication(rng):
    """Random counts ``1 <= r_i <= N`` and a random popularity vector."""
    num_servers = int(rng.integers(1, 12))
    num_videos = int(rng.integers(1, 60))
    counts = rng.integers(1, num_servers + 1, size=num_videos)
    popularity = rng.dirichlet(np.ones(num_videos))
    return ReplicationResult(counts, num_servers, popularity)


def _holder_born(kind, seed):
    """A layout of the named holder-born producer on a random instance."""
    rng = np.random.default_rng(seed)
    replication = _random_replication(rng)
    capacity = -(-replication.total_replicas // replication.num_servers)
    capacity += int(rng.integers(0, 3))
    if kind == "slf":
        return smallest_load_first_placement(replication, capacity)
    if kind == "p2p_stripe":
        return p2p_stripe_placement(replication, capacity)
    lists = [
        rng.choice(replication.num_servers, size=int(r), replace=False)
        for r in replication.replica_counts
    ]
    return ReplicaLayout.from_assignment(
        [servers.tolist() for servers in lists], replication.num_servers
    )


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def _validate_outcome(layout, cluster, videos, **kwargs):
    try:
        layout.validate(cluster, videos, **kwargs)
    except LayoutViolation as error:
        return str(error)
    return None


class TestParityWithDenseTwin:
    @pytest.mark.parametrize("kind", ["slf", "p2p_stripe", "assignment"])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_view_matches(self, kind, seed):
        layout = _holder_born(kind, seed)
        # Read the holder-side views before anything densifies.
        counts = layout.replica_counts
        total = layout.total_replicas
        lists = layout.holder_lists
        index = layout.holder_index
        assert "rate_matrix" not in vars(layout)

        twin = ReplicaLayout(rate_matrix=layout.rate_matrix)
        for got, want in zip(index, twin.holder_index):
            _assert_same_array(got, want)
        np.testing.assert_array_equal(layout.rate_matrix, twin.rate_matrix)
        assert layout.rate_matrix.dtype == np.float64
        np.testing.assert_array_equal(layout.presence, twin.presence)
        assert counts.dtype == twin.replica_counts.dtype == np.int64
        np.testing.assert_array_equal(counts, twin.replica_counts)
        assert total == twin.total_replicas
        assert lists == twin.holder_lists
        assert (layout.num_videos, layout.num_servers) == (
            twin.num_videos,
            twin.num_servers,
        )

        videos = VideoCollection.homogeneous(
            layout.num_videos, bit_rate_mbps=4.0, duration_min=90.0
        )
        # Storage for exactly the fullest server's replicas passes; one
        # replica less fails Eq. (4), with the same message on both.
        per_replica_gb = 4.0 * 90.0 * 60.0 / 8000.0
        fullest = int(twin.server_replica_counts().max())
        outcomes = []
        for slots in (fullest, fullest - 1):
            cluster = ClusterSpec.homogeneous(
                layout.num_servers,
                storage_gb=slots * per_replica_gb + 1e-6,
                bandwidth_mbps=1800.0,
            )
            outcome = _validate_outcome(layout, cluster, videos)
            assert outcome == _validate_outcome(twin, cluster, videos)
            outcomes.append(outcome)
        assert outcomes[0] is None and "storage" in outcomes[1]

    def test_csr_form_matches_pairs_form(self):
        pairs = ReplicaLayout.from_holders(
            num_servers=3,
            pairs=([2, 0, 0, 2], [1, 2, 0, 0]),
            rate=4.0,
            num_videos=3,
        )
        csr = ReplicaLayout.from_holders(
            [0, 2, 2, 4], [0, 2, 0, 1], [4.0] * 4, num_servers=3
        )
        for got, want in zip(csr.holder_index, pairs.holder_index):
            _assert_same_array(got, want)
        assert csr.holder_lists == ((0, 2), (), (0, 1))

    def test_unsorted_csr_holders_are_sorted(self):
        layout = ReplicaLayout.from_holders(
            [0, 3, 4], [2, 0, 1, 1], [6.0, 6.0, 6.0, 2.0], num_servers=3
        )
        assert layout.holder_lists == ((0, 1, 2), (1,))
        np.testing.assert_array_equal(
            layout.rate_matrix, [[6.0, 6.0, 6.0], [0.0, 2.0, 0.0]]
        )

    def test_caller_arrays_are_copied(self):
        indices = np.array([0, 1])
        layout = ReplicaLayout.from_holders(
            [0, 1, 2], indices, [4.0, 4.0], num_servers=2
        )
        indices[:] = 0
        assert layout.holder_lists == ((0,), (1,))


class TestLazyMatrix:
    def test_read_only_and_cached(self):
        layout = ReplicaLayout.from_assignment([[1, 0], [0], [1]], 2)
        matrix = layout.rate_matrix
        assert matrix is layout.rate_matrix
        assert matrix.dtype == np.float64 and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_layout_is_immutable(self):
        layout = ReplicaLayout.from_assignment([[0]], 1)
        with pytest.raises(AttributeError):
            layout.rate_matrix = np.zeros((1, 1))
        with pytest.raises(AttributeError):
            del layout.holder_index

    def test_pickle_round_trip(self):
        layout = ReplicaLayout.from_assignment([[1, 0], [], [1]], 2)
        copy = pickle.loads(pickle.dumps(layout))
        assert copy.holder_lists == layout.holder_lists
        np.testing.assert_array_equal(copy.rate_matrix, layout.rate_matrix)


class TestFailFast:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pairs": ([0, 3], [0, 1]), "num_videos": 3},  # video >= M
            {"pairs": ([0, -1], [0, 1]), "num_videos": 3},  # video < 0
            {"pairs": ([0, 1], [0, 2]), "num_videos": 3},  # server >= N
            {"pairs": ([0, 1], [0, -1]), "num_videos": 3},  # server < 0
            {"pairs": ([0, 1], [0]), "num_videos": 3},  # ragged pairs
            {"pairs": ([0.0], [0]), "num_videos": 3},  # non-integer
            {"pairs": ([0], [0]), "num_videos": 0},  # no videos
        ],
    )
    def test_bad_pairs(self, kwargs):
        with pytest.raises(ValueError):
            ReplicaLayout.from_holders(num_servers=2, rate=4.0, **kwargs)

    @pytest.mark.parametrize("rate", [0.0, -4.0, np.nan, np.inf, None])
    def test_bad_pair_rate(self, rate):
        with pytest.raises(ValueError, match="rate"):
            ReplicaLayout.from_holders(
                num_servers=2, pairs=([0], [1]), rate=rate, num_videos=1
            )

    @pytest.mark.parametrize("rates", [[4.0, 0.0], [4.0, -1.0], [np.nan, 4.0], [4.0, np.inf]])
    def test_bad_csr_rates(self, rates):
        with pytest.raises(ValueError, match="rates"):
            ReplicaLayout.from_holders([0, 1, 2], [0, 1], rates, num_servers=2)

    def test_out_of_range_csr_server(self):
        with pytest.raises(ValueError, match="server index 2"):
            ReplicaLayout.from_holders([0, 1, 2], [0, 2], [4.0, 4.0], num_servers=2)

    @pytest.mark.parametrize(
        "indptr",
        [
            [1, 1, 2],  # does not start at 0
            [0, 2, 1, 2],  # decreasing
            [0, 1],  # ends before the last index
            [0, 1, 3],  # ends past the last index
            [0],  # no video
            [[0, 1, 2]],  # not 1-D
        ],
    )
    def test_inconsistent_indptr(self, indptr):
        with pytest.raises(ValueError):
            ReplicaLayout.from_holders(indptr, [0, 1], [4.0, 4.0], num_servers=2)

    def test_repeated_server_in_csr(self):
        with pytest.raises(LayoutViolation, match="video 1 assigned twice"):
            ReplicaLayout.from_holders(
                [0, 1, 3], [0, 1, 1], [4.0, 4.0, 4.0], num_servers=2
            )

    def test_repeated_server_in_pairs(self):
        with pytest.raises(LayoutViolation, match="video 0 assigned twice"):
            ReplicaLayout.from_holders(
                num_servers=3, pairs=([0, 1, 0], [2, 2, 2]), rate=4.0, num_videos=2
            )

    def test_same_server_across_videos_is_fine(self):
        layout = ReplicaLayout.from_holders(
            num_servers=1, pairs=([0, 1], [0, 0]), rate=4.0, num_videos=2
        )
        assert layout.holder_lists == ((0,), (0,))

    def test_forms_do_not_mix(self):
        with pytest.raises(ValueError, match="not both"):
            ReplicaLayout.from_holders(
                [0, 1], [0], [4.0], num_servers=1, pairs=([0], [0]), rate=4.0
            )
        with pytest.raises(ValueError):
            ReplicaLayout.from_holders([0, 1], [0], [4.0], num_servers=1, rate=4.0)
        with pytest.raises(ValueError, match="indptr, indices and rates"):
            ReplicaLayout.from_holders([0, 1], [0], num_servers=1)

    def test_bad_server_count(self):
        with pytest.raises(ValueError):
            ReplicaLayout.from_holders([0, 1], [0], [4.0], num_servers=0)


def test_trial_cache_key_unchanged_for_holder_born_layout():
    from repro.experiments.config import PaperSetup
    from repro.pipeline import REPLICATORS
    from repro.runtime.trial import make_trials

    setup = PaperSetup().quick()
    replication = REPLICATORS["zipf"]().replicate(
        setup.popularity(0.75).probabilities,
        setup.num_servers,
        setup.replica_budget(1.2),
    )
    layout = smallest_load_first_placement(
        replication, setup.capacity_replicas(1.2)
    )
    assert "rate_matrix" not in vars(layout)
    twin = ReplicaLayout(rate_matrix=layout.rate_matrix)

    def key(of):
        (trial,) = make_trials(
            setup,
            of,
            theta=0.75,
            degree=1.2,
            arrival_rate_per_min=30.0,
            seed=7,
            num_runs=1,
        )
        return trial.config_key

    assert key(layout) == key(twin)


def test_cache_scale_theta_allocates_no_dense_matrix():
    # Design and score one theta of the full E17 grid (N=100 x M=10k):
    # four strategies, every layout through the surrogate.  The peak of
    # traced allocations stays below one dense (M, N) float64 matrix, so
    # no step on the path builds one.
    from repro.analysis.surrogate import SurrogateWorkload, evaluate_layouts
    from repro.experiments.cache_scale_sweep import (
        build_strategy_layouts,
        cache_scale_setup,
    )

    setup = cache_scale_setup()
    cluster = setup.cluster(1.2)
    dense_bytes = setup.num_videos * setup.num_servers * 8
    tracemalloc.start()
    try:
        _, layouts, _ = build_strategy_layouts(setup, 0.9, 1.2)
        workload = SurrogateWorkload(
            popularity=setup.popularity(0.9).probabilities,
            arrival_rate_per_min=0.95 * setup.saturation_rate_per_min,
            holding_time_min=setup.duration_min,
        )
        batch = evaluate_layouts(
            layouts, workload, cluster, dispatcher="least_loaded"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.num_layouts == 4 and batch.diagnostics.converged
    assert peak < dense_bytes, f"peak {peak} B >= one dense matrix {dense_bytes} B"


class TestHolderDigest:
    def test_keying_leaves_the_matrix_unbuilt(self):
        from repro.experiments.config import PaperSetup
        from repro.runtime.trial import make_trials

        setup = PaperSetup().quick()
        layout = _holder_born("slf", 3)
        (trial,) = make_trials(
            setup, layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=30.0, seed=7, num_runs=1,
        )
        assert "rate_matrix" not in vars(layout)
        assert vars(layout)["holder_digest"] == layout.holder_digest
        twin = ReplicaLayout(rate_matrix=layout.rate_matrix)
        (twin_trial,) = make_trials(
            setup, twin, theta=0.75, degree=1.2,
            arrival_rate_per_min=30.0, seed=7, num_runs=1,
        )
        assert twin_trial.simulator_key == trial.simulator_key
        assert twin_trial.config_key == trial.config_key

    def test_digest_binds_shape_servers_and_rates(self):
        base = ReplicaLayout.from_assignment([[0, 1], [1]], 2)
        same = ReplicaLayout(rate_matrix=[[4.0, 4.0], [0.0, 4.0]])
        variants = [
            ReplicaLayout.from_assignment([[0, 1], [1]], 3),  # idle server
            ReplicaLayout.from_assignment([[0, 1], [0]], 2),
            ReplicaLayout.from_assignment([[0, 1], [1]], 2, bit_rate_mbps=3.0),
            ReplicaLayout.from_assignment([[0, 1], [1], []], 2),
        ]
        assert same.holder_digest == base.holder_digest
        digests = {v.holder_digest for v in variants}
        assert len(digests) == len(variants)
        assert base.holder_digest not in digests

    def test_digest_survives_pickling(self):
        layout = ReplicaLayout.from_assignment([[1, 0], [], [1]], 2)
        fresh = pickle.loads(pickle.dumps(layout))  # digest not yet built
        digest = layout.holder_digest
        assert fresh.holder_digest == digest
        assert pickle.loads(pickle.dumps(layout)).holder_digest == digest
