"""Tests for the replica-layout representation and constraint checks."""

import numpy as np
import pytest

from repro.model import ClusterSpec, VideoCollection
from repro.model.layout import LayoutViolation, ReplicaLayout


def simple_layout() -> ReplicaLayout:
    """3 videos on 2 servers: v0 on both, v1 on s0, v2 on s1, 4 Mb/s."""
    return ReplicaLayout.from_assignment([[0, 1], [0], [1]], 2)


class TestConstruction:
    def test_from_assignment(self):
        layout = simple_layout()
        np.testing.assert_array_equal(layout.replica_counts, [2, 1, 1])
        assert layout.total_replicas == 4
        assert layout.replication_degree == pytest.approx(4 / 3)

    def test_duplicate_server_rejected(self):
        with pytest.raises(LayoutViolation, match="twice"):
            ReplicaLayout.from_assignment([[0, 0]], 2)

    def test_bad_server_index_rejected(self):
        with pytest.raises(ValueError):
            ReplicaLayout.from_assignment([[2]], 2)

    def test_empty(self):
        layout = ReplicaLayout.empty(3, 2)
        assert layout.total_replicas == 0

    def test_matrix_readonly(self):
        layout = simple_layout()
        with pytest.raises(ValueError):
            layout.rate_matrix[0, 0] = 1.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ReplicaLayout(rate_matrix=np.array([[-1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ReplicaLayout(rate_matrix=np.zeros(3))


class TestViews:
    def test_servers_of(self):
        layout = simple_layout()
        np.testing.assert_array_equal(layout.servers_of(0), [0, 1])
        np.testing.assert_array_equal(layout.servers_of(2), [1])

    def test_videos_on(self):
        layout = simple_layout()
        np.testing.assert_array_equal(layout.videos_on(0), [0, 1])

    def test_server_replica_counts(self):
        np.testing.assert_array_equal(simple_layout().server_replica_counts(), [2, 2])

    def test_server_storage_used(self):
        layout = simple_layout()
        used = layout.server_storage_used_gb(np.full(3, 90.0))
        np.testing.assert_allclose(used, [5.4, 5.4])

    def test_video_bit_rates(self):
        layout = simple_layout()
        np.testing.assert_allclose(layout.video_bit_rates, 4.0)


class TestLoadModel:
    def test_replica_weights(self):
        layout = simple_layout()
        popularity = np.array([0.5, 0.3, 0.2])
        weights = layout.replica_weights(popularity)
        np.testing.assert_allclose(weights[0], [0.25, 0.25])
        np.testing.assert_allclose(weights[1], [0.3, 0.0])
        np.testing.assert_allclose(weights[2], [0.0, 0.2])

    def test_weights_sum_to_one_when_all_placed(self):
        layout = simple_layout()
        weights = layout.replica_weights(np.array([0.5, 0.3, 0.2]))
        assert weights.sum() == pytest.approx(1.0)

    def test_expected_server_load(self):
        layout = simple_layout()
        popularity = np.array([0.5, 0.3, 0.2])
        load = layout.expected_server_load_mbps(popularity, 100.0)
        # server 0: (0.25 + 0.3) * 100 * 4 = 220; server 1: (0.25+0.2)*400=180
        np.testing.assert_allclose(load, [220.0, 180.0])

    def test_unplaced_video_contributes_nothing(self):
        layout = ReplicaLayout(rate_matrix=np.array([[4.0, 0.0], [0.0, 0.0]]))
        weights = layout.replica_weights(np.array([0.5, 0.5]))
        assert weights.sum() == pytest.approx(0.5)


class TestValidate:
    def setup_method(self):
        self.cluster = ClusterSpec.homogeneous(2, storage_gb=6.0, bandwidth_mbps=100.0)
        self.videos = VideoCollection.homogeneous(3, bit_rate_mbps=4.0, duration_min=90.0)

    def test_valid_layout_passes(self):
        simple_layout().validate(self.cluster, self.videos)

    def test_storage_violation(self):
        # 3 replicas of 2.7 GB on server 0 exceed 6 GB.
        layout = ReplicaLayout.from_assignment([[0], [0], [0]], 2)
        with pytest.raises(LayoutViolation, match="storage"):
            layout.validate(self.cluster, self.videos)

    def test_missing_video_violation(self):
        layout = ReplicaLayout(rate_matrix=np.array([[4.0, 0], [4.0, 0], [0, 0.0]]))
        with pytest.raises(LayoutViolation, match="no replica"):
            layout.validate(self.cluster, self.videos)

    def test_partial_layout_allowed_when_requested(self):
        layout = ReplicaLayout(rate_matrix=np.array([[4.0, 0], [0, 4.0], [0, 0.0]]))
        layout.validate(self.cluster, self.videos, require_full_coverage=False)

    def test_mixed_rate_within_video_rejected(self):
        layout = ReplicaLayout(rate_matrix=np.array([[4.0, 2.0], [4.0, 0], [0, 4.0]]))
        with pytest.raises(LayoutViolation, match="differing bit rates"):
            layout.validate(self.cluster, self.videos)

    def test_bandwidth_violation(self):
        layout = simple_layout()
        popularity = np.array([0.5, 0.3, 0.2])
        # 1000 requests -> server 0 load 2200 Mb/s > 100 Mb/s.
        with pytest.raises(LayoutViolation, match="bandwidth"):
            layout.validate(
                self.cluster,
                self.videos,
                popularity=popularity,
                requests_per_peak=1000.0,
            )

    def test_bandwidth_ok_at_low_load(self):
        layout = simple_layout()
        layout.validate(
            self.cluster,
            self.videos,
            popularity=np.array([0.5, 0.3, 0.2]),
            requests_per_peak=10.0,
        )

    def test_shape_mismatch(self):
        layout = ReplicaLayout.empty(2, 2)
        with pytest.raises(LayoutViolation, match="shape"):
            layout.validate(self.cluster, self.videos)

    def test_is_valid_boolean_form(self):
        assert simple_layout().is_valid(self.cluster, self.videos)
        bad = ReplicaLayout.from_assignment([[0], [0], [0]], 2)
        assert not bad.is_valid(self.cluster, self.videos)


def _random_layout(rng, num_videos, num_servers, density, *, mixed=False):
    """A random layout: each (video, server) pair holds a replica with
    probability *density*; rates are one value, or per-video with *mixed*."""
    present = rng.random((num_videos, num_servers)) < density
    if mixed:
        rates = rng.choice([1.5, 3.0, 4.0, 6.0], size=(num_videos, 1))
    else:
        rates = np.full((num_videos, 1), 4.0)
    return ReplicaLayout(rate_matrix=np.where(present, rates, 0.0))


class TestHolderIndex:
    """The cached CSR index equals the per-row ``flatnonzero`` it replaces."""

    @staticmethod
    def assert_matches_rows(layout: ReplicaLayout) -> None:
        indptr, indices, rates = layout.holder_index
        matrix = layout.rate_matrix
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert indptr.shape == (layout.num_videos + 1,)
        assert indptr[0] == 0 and indptr[-1] == layout.total_replicas
        np.testing.assert_array_equal(np.diff(indptr), layout.replica_counts)
        for video in range(layout.num_videos):
            expected = np.flatnonzero(matrix[video] > 0)
            got = indices[indptr[video] : indptr[video + 1]]
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(
                rates[indptr[video] : indptr[video + 1]], matrix[video, expected]
            )
            np.testing.assert_array_equal(layout.servers_of(video), expected)
            assert layout.holder_lists[video] == tuple(expected.tolist())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_random_layouts(self, seed, density):
        rng = np.random.default_rng(seed)
        num_videos = int(rng.integers(1, 40))
        num_servers = int(rng.integers(1, 12))
        layout = _random_layout(
            rng, num_videos, num_servers, density, mixed=bool(seed % 2)
        )
        self.assert_matches_rows(layout)

    def test_empty_rows(self):
        layout = ReplicaLayout(
            rate_matrix=np.array([[0.0, 0.0], [4.0, 4.0], [0.0, 0.0], [0.0, 4.0]])
        )
        self.assert_matches_rows(layout)
        np.testing.assert_array_equal(layout.holder_index.indptr, [0, 0, 2, 2, 3])
        assert layout.holder_lists == ((), (0, 1), (), (1,))

    def test_fully_empty_layout(self):
        layout = ReplicaLayout.empty(5, 3)
        self.assert_matches_rows(layout)
        assert layout.holder_index.indices.size == 0
        np.testing.assert_array_equal(layout.holder_index.indptr, np.zeros(6))

    def test_mixed_per_video_rates(self):
        layout = ReplicaLayout(
            rate_matrix=np.array([[2.0, 0.0, 2.0], [0.0, 6.0, 6.0], [1.5, 0.0, 0.0]])
        )
        self.assert_matches_rows(layout)
        np.testing.assert_array_equal(
            layout.holder_index.rates, [2.0, 2.0, 6.0, 6.0, 1.5]
        )

    def test_e17_shape(self):
        # The large-cache shape of E17: M=10k videos on N=100 servers.
        rng = np.random.default_rng(17)
        layout = _random_layout(rng, 10_000, 100, 0.012)
        indptr, indices, _ = layout.holder_index
        rows, cols = np.nonzero(layout.rate_matrix > 0)
        np.testing.assert_array_equal(indices, cols)
        np.testing.assert_array_equal(
            np.repeat(np.arange(layout.num_videos), np.diff(indptr)), rows
        )
        for video in rng.choice(layout.num_videos, 50, replace=False):
            np.testing.assert_array_equal(
                layout.servers_of(int(video)),
                np.flatnonzero(layout.rate_matrix[video] > 0),
            )

    def test_arrays_not_writeable(self):
        layout = simple_layout()
        for array in layout.holder_index:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        with pytest.raises(ValueError):
            layout.servers_of(0)[0] = 1

    def test_computed_once(self):
        layout = simple_layout()
        first = layout.holder_index
        assert layout.holder_index is first
        assert layout.holder_lists is layout.holder_lists
        for field_a, field_b in zip(first, layout.holder_index):
            assert field_a is field_b
