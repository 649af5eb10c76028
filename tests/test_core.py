import numpy as np
import pytest

from skelstat.core import (
    BoxStats,
    DataError,
    Detections,
    FeatureType,
    Labels,
    MeanTensor,
    MetricsReport,
    SdomReport,
    Split,
    WindowBatch,
    WindowingConfig,
)


def make_detections(frames, videos=None, tracks=None, k=3):
    """One row per frame; every keypoint of a row is (i, i, 0.9)."""
    n = len(frames)
    kp = np.tile([[float(i), float(i), 0.9] for i in range(k)], (n, 1, 1))
    return Detections.from_columns(videos or ["v1"] * n, tracks or ["t1"] * n, frames, kp)


class TestKeypoint:
    def test_valid(self):
        det = Detections.from_columns(["v1"], ["t1"], [0], [[[-3.5, 10.0, 0.0]]])
        assert det.kp[0, 0, 0] == -3.5  # off-frame coordinates are allowed

    @pytest.mark.parametrize("x,y,c", [(float("nan"), 0, 0.5), (0, float("inf"), 0.5), (0, 0, 1.5), (0, 0, -0.1)])
    def test_invalid(self, x, y, c):
        with pytest.raises(DataError):
            Detections.from_columns(["v1"], ["t1"], [0], [[[x, y, c]]])


class TestTracklet:
    def test_strictly_increasing_frames(self):
        with pytest.raises(DataError, match="duplicate"):
            make_detections([5, 5])
        with pytest.raises(DataError, match="non-negative"):
            make_detections([0, -1])
        # rows are sorted, so frames out of order are not an error
        assert make_detections([5, 3]).frame.tolist() == [3, 5]

    def test_other_video_starts_new_tracklet(self):
        det = make_detections([0, 0], videos=["v2", "v1"])
        assert det.video_ids == ("v1", "v2")
        assert [b.tolist() for b in det.tracklet_bounds()] == [[0, 1], [1, 2]]

    def test_len(self):
        starts, stops = make_detections([0, 1]).tracklet_bounds()
        assert (stops - starts).tolist() == [2]

    def test_runs_break_at_gaps_and_tracks(self):
        det = make_detections([0, 1, 3, 0, 1], tracks=["a", "a", "a", "b", "b"])
        assert [b.tolist() for b in det.run_bounds()] == [[0, 2, 3], [2, 3, 5]]
        empty = make_detections([])
        assert [b.size for b in empty.run_bounds()] == [0, 0]


class TestWindowingConfig:
    def test_defaults(self):
        cfg = WindowingConfig()
        assert (cfg.T, cfg.stride, cfg.k, cfg.N) == (24, 6, 17, 35)

    def test_hip_fallback_for_small_layouts(self):
        assert WindowingConfig(k=13).hip_indices == (11, 12)
        assert WindowingConfig(k=4).hip_indices == (0, 1)
        assert WindowingConfig(k=1).hip_indices == (0, 0)
        assert WindowingConfig(k=4, hip_indices=(2, 3)).hip_indices == (2, 3)

    @pytest.mark.parametrize(
        "kw",
        [
            {"T": 1},
            {"stride": 0},
            {"k": 0},
            {"N": 0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(DataError):
            WindowingConfig(**kw)

    @pytest.mark.parametrize("hips", [(-1, 2), (2, -1), (0, 4), (4, 0)])
    def test_hip_pair_outside_the_layout(self, hips):
        # a negative index would pick a joint from the end of the row
        with pytest.raises(DataError, match=r"hip indices .* outside the 4-keypoint layout"):
            WindowingConfig(k=4, hip_indices=hips)


class TestFeatureWindow:
    """The window checks of ``WindowBatch.from_columns``, the checked
    constructor for windows built outside ``build_windows``, on one window."""

    def make(self, T=4, k=2, coords=None, mask=None):
        coords = np.ones((T, k, 2)) if coords is None else coords
        mask = np.ones((T, k), dtype=bool) if mask is None else mask
        return WindowBatch.from_columns(coords[None], mask[None], ["v1"], [0], [Split.TRAIN], [("t1",)])

    def test_immutable(self):
        w = self.make()
        with pytest.raises(ValueError):
            w.coords[0, 0, 0, 0] = 5.0

    def test_masked_entries_must_be_zero(self):
        mask = np.ones((4, 2), dtype=bool)
        mask[0, 0] = False
        with pytest.raises(DataError):
            self.make(mask=mask)  # coords are all ones
        coords = np.ones((4, 2, 2))
        coords[0, 0] = 0.0
        w = self.make(coords=coords, mask=mask)
        assert not w.mask[0, 0, 0]

    def test_nonfinite_rejected(self):
        coords = np.ones((4, 2, 2))
        coords[1, 1, 0] = float("nan")
        with pytest.raises(DataError):
            self.make(coords=coords)

    def test_bad_shape(self):
        with pytest.raises(DataError):
            self.make(coords=np.ones((4, 2, 3)))
        with pytest.raises(DataError, match="mismatch"):
            self.make(mask=np.ones((4, 3), dtype=bool))


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
        Labels.from_columns(["v1"], [-1], [False])


def test_repeated_label_refused():
    # contradictory labels of one frame would leave its class to the score join
    with pytest.raises(DataError, match="duplicate label for \\(v1\x00, frame 3\\)"):
        Labels.from_columns(["v1", "v1\x00", "v2", "v1\x00"], [3, 3, 3, 3], [False, False, False, True])
    assert Labels.from_columns(["v1", "v1\x00"], [3, 3], [False, True]).positive.tolist() == [False, True]


@pytest.mark.parametrize("video, frame, positive", [
    (["v"], [0], [True, False]),  # an extra flag was dropped
    (["v", "v"], [0, 1], [True]),  # a short flag column raised IndexError
    (["v", "v"], [0], [True, False]),
])
def test_label_columns_of_unequal_length_refused(video, frame, positive):
    with pytest.raises(DataError, match="one length"):
        Labels.from_columns(video, frame, positive)


def test_labels_sorted():
    labels = Labels.from_columns(["v2", "v1", "v1"], [0, 3, 1], [False, True, False])
    assert labels.video.tolist() == ["v1", "v1", "v2"] and labels.frame.tolist() == [1, 3, 0]
    assert labels.positive.tolist() == [False, True, False]
