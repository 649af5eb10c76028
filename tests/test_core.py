import numpy as np
import pytest

from skelstat.core import (
    BoxStats,
    DataError,
    FeatureType,
    FeatureWindow,
    FrameLabel,
    Keypoint,
    Label,
    MeanTensor,
    MetricsReport,
    PoseDetection,
    SdomReport,
    Split,
    Tracklet,
    WindowingConfig,
)


def make_detection(frame, video="v1", track="t1", k=3):
    return PoseDetection(video, frame, track, tuple(Keypoint(float(i), float(i), 0.9) for i in range(k)))


class TestKeypoint:
    def test_valid(self):
        kp = Keypoint(-3.5, 10.0, 0.0)
        assert kp.x == -3.5  # off-frame coordinates are allowed

    @pytest.mark.parametrize("x,y,c", [(float("nan"), 0, 0.5), (0, float("inf"), 0.5), (0, 0, 1.5), (0, 0, -0.1)])
    def test_invalid(self, x, y, c):
        with pytest.raises(DataError):
            Keypoint(x, y, c)


class TestTracklet:
    def test_strictly_increasing_frames(self):
        with pytest.raises(DataError):
            Tracklet("v1", "t1", (make_detection(5), make_detection(5)))
        with pytest.raises(DataError):
            Tracklet("v1", "t1", (make_detection(5), make_detection(3)))

    def test_foreign_detection_rejected(self):
        with pytest.raises(DataError):
            Tracklet("v1", "t1", (make_detection(0, video="v2"),))

    def test_len(self):
        t = Tracklet("v1", "t1", (make_detection(0), make_detection(1)))
        assert len(t) == 2


class TestWindowingConfig:
    def test_defaults(self):
        cfg = WindowingConfig()
        assert (cfg.T, cfg.stride, cfg.k, cfg.N) == (24, 6, 17, 35)

    @pytest.mark.parametrize(
        "kw",
        [
            {"T": 1},
            {"stride": 0},
            {"k": 0},
            {"N": 0},
            {"frame_width": 0},
            {"frame_width": float("nan")},
            {"frame_height": float("inf")},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DataError):
            WindowingConfig(**kw)


class TestFeatureWindow:
    def make(self, T=4, k=2, **kw):
        defaults = dict(
            coords=np.ones((T, k, 2)),
            mask=np.ones((T, k), dtype=bool),
            video_id="v1",
            start_frame=0,
            track_ids=("t1",),
            label=Label.NORMAL,
            split=Split.TRAIN,
        )
        defaults.update(kw)
        return FeatureWindow(**defaults)

    def test_immutable(self):
        w = self.make()
        with pytest.raises(ValueError):
            w.coords[0, 0, 0] = 5.0

    def test_masked_entries_must_be_zero(self):
        mask = np.ones((4, 2), dtype=bool)
        mask[0, 0] = False
        with pytest.raises(DataError):
            self.make(mask=mask)  # coords are all ones
        coords = np.ones((4, 2, 2))
        coords[0, 0] = 0.0
        w = self.make(coords=coords, mask=mask)
        assert not w.mask[0, 0]

    def test_nonfinite_rejected(self):
        coords = np.ones((4, 2, 2))
        coords[1, 1, 0] = float("nan")
        with pytest.raises(DataError):
            self.make(coords=coords)

    def test_bad_shape(self):
        with pytest.raises(DataError):
            self.make(coords=np.ones((4, 2, 3)))


class TestSdomReport:
    def test_exact_identity_enforced(self):
        SdomReport(1.0, 2.5, 1.5, FeatureType.POSE, (1, 1, 1))
        with pytest.raises(DataError):
            SdomReport(1.0, 2.5, 1.4999, FeatureType.POSE, (1, 1, 1))

    def test_negative_delta_rejected(self):
        with pytest.raises(DataError):
            SdomReport(-0.1, 0.0, 0.1, FeatureType.POSE, (1, 1, 1))


class TestMetricsReport:
    def test_range_checks(self):
        MetricsReport(0.5, 0.5, 0.5, 0.0)
        with pytest.raises(DataError):
            MetricsReport(1.5, 0.5, 0.5, 0.0)
        with pytest.raises(DataError):
            MetricsReport(0.5, 0.5, -0.1, 0.0)


class TestBoxStats:
    def test_ordering_enforced(self):
        BoxStats(0.0, 1.0, 2.0, 3.0, 4.0)
        with pytest.raises(DataError):
            BoxStats(0.0, 2.0, 1.0, 3.0, 4.0)


def test_mean_tensor_validation():
    MeanTensor(np.zeros((2, 1, 2)), 1)
    with pytest.raises(DataError):
        MeanTensor(np.zeros((2, 1, 2)), 0)
    with pytest.raises(DataError):
        MeanTensor(np.zeros((2, 2)), 1)


def test_frame_label_negative_frame():
    with pytest.raises(DataError):
        FrameLabel("v1", -1, Label.NORMAL)
