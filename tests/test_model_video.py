"""Tests for videos and video collections."""

import numpy as np
import pytest

from repro.model.video import Video, VideoCollection, storage_gb


class TestStorageGb:
    def test_paper_value(self):
        # 4 Mb/s x 90 min = 2.7 GB, the paper's MPEG-2 movie footprint.
        assert storage_gb(4.0, 90.0) == pytest.approx(2.7)

    def test_one_mbps_90min(self):
        assert storage_gb(1.0, 90.0) == pytest.approx(0.675)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            storage_gb(0, 90)
        with pytest.raises(ValueError):
            storage_gb(4, 0)


class TestVideo:
    def test_defaults(self):
        video = Video(0)
        assert video.bit_rate_mbps == 4.0
        assert video.duration_min == 90.0
        assert video.storage_gb == pytest.approx(2.7)

    def test_with_bit_rate(self):
        video = Video(3, 4.0, 90.0).with_bit_rate(6.0)
        assert video.video_id == 3
        assert video.bit_rate_mbps == 6.0
        assert video.storage_gb == pytest.approx(4.05)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Video(-1)


class TestVideoCollection:
    def test_homogeneous(self):
        videos = VideoCollection.homogeneous(5, bit_rate_mbps=4.0)
        assert len(videos) == 5
        assert videos.is_single_rate
        np.testing.assert_allclose(videos.bit_rates_mbps, 4.0)
        np.testing.assert_allclose(videos.storage_gb, 2.7)

    def test_id_order_enforced(self):
        with pytest.raises(ValueError, match="id order"):
            VideoCollection([Video(1), Video(0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VideoCollection([])

    def test_getitem_and_iter(self):
        videos = VideoCollection.homogeneous(3)
        assert videos[1].video_id == 1
        assert [v.video_id for v in videos] == [0, 1, 2]

    def test_slicing_rejected(self):
        with pytest.raises(TypeError):
            VideoCollection.homogeneous(3)[0:2]

    def test_with_bit_rates(self):
        videos = VideoCollection.homogeneous(3)
        updated = videos.with_bit_rates(np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(updated.bit_rates_mbps, [2.0, 4.0, 6.0])
        assert not updated.is_single_rate
        # Original is unchanged (immutability).
        assert videos.is_single_rate

    def test_with_bit_rates_shape_check(self):
        with pytest.raises(ValueError):
            VideoCollection.homogeneous(3).with_bit_rates(np.array([2.0]))


class TestSharedViews:
    """The vectorized views are built once, read-only, and stay out of
    the collection's ``__dict__`` and pickle."""

    def test_views_are_shared_and_read_only(self):
        videos = VideoCollection(
            Video(i, 4.0 + i, 60.0 + 10 * i) for i in range(4)
        )
        for name in ("bit_rates_mbps", "durations_min", "storage_gb"):
            view = getattr(videos, name)
            assert getattr(videos, name) is view
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1.0
        np.testing.assert_array_equal(videos.durations_min, [60, 70, 80, 90])
        np.testing.assert_allclose(
            videos.storage_gb, [storage_gb(4.0 + i, 60.0 + 10 * i) for i in range(4)]
        )

    def test_views_leave_content_key_and_pickle_alone(self):
        import pickle

        from repro.runtime import content_key

        videos = VideoCollection.homogeneous(6)
        key, blob = content_key(videos), pickle.dumps(videos)
        videos.durations_min, videos.storage_gb, videos.bit_rates_mbps
        assert list(vars(videos)) == ["_videos"]
        assert content_key(videos) == key
        assert pickle.dumps(videos) == blob
        copy = pickle.loads(blob)
        assert list(copy) == list(videos)
        np.testing.assert_array_equal(copy.durations_min, videos.durations_min)
