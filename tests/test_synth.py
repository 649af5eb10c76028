import numpy as np
import pytest

from skelstat.core import SPLITS, DataError, FeatureType, Split
from skelstat.features import CenterPolicy, build_windows
from skelstat.ingest import serialize_labels, serialize_tracklets
from skelstat.metrics import auc_roc, roc_curve
from skelstat.synth import (
    GroupConverge,
    PoseDeform,
    SynthSpec,
    TrajectoryShift,
    generate,
    oracle_scores,
)

SMALL = dict(
    n_train_videos=2,
    n_val_videos=2,
    frames_per_video=60,
    persons_per_video=2,
    k=4,
)


class TestSpecValidation:
    def test_fraction_without_mode(self):
        with pytest.raises(DataError, match="anomaly mode"):
            SynthSpec(anomaly_fraction=0.2)

    def test_too_short_video(self):
        with pytest.raises(DataError, match="frames_per_video"):
            SynthSpec(frames_per_video=10, T=24)

    def test_bad_mode_parameters(self):
        with pytest.raises(DataError):
            TrajectoryShift(-1.0)
        with pytest.raises(DataError):
            GroupConverge(1.5)
        with pytest.raises(DataError):
            PoseDeform(-0.1)

    def test_to_dict_round_trip_fields(self):
        spec = SynthSpec(anomaly_modes=(TrajectoryShift(5.0),), anomaly_fraction=0.1, **SMALL)
        d = spec.to_dict()
        assert d["anomaly_modes"] == [{"kind": "trajectory_shift", "delta": 5.0}]
        assert d["seed"] == 0 and d["k"] == 4


class TestGenerate:
    def test_shape_of_output(self):
        bundle = generate(SynthSpec(**SMALL))
        assert len(bundle.videos) == 4
        assert {m.split for m in bundle.videos.values()} == {"train", "val"}
        # one tracklet per person per video, full length
        starts, stops = bundle.detections.tracklet_bounds()
        assert len(starts) == 4 * 2
        assert ((stops - starts) == 60).all()
        # labels cover exactly the val videos' frames
        labeled = set(zip(bundle.labels.video.tolist(), bundle.labels.frame.tolist()))
        assert len(labeled) == 2 * 60
        assert all(v.startswith("val") for v, _ in labeled)

    def test_zero_fraction_all_normal(self):
        bundle = generate(SynthSpec(**SMALL))
        assert not bundle.labels.positive.any()

    def test_label_fraction_matches_spec(self):
        spec = SynthSpec(anomaly_modes=(TrajectoryShift(50.0),), anomaly_fraction=0.25, **SMALL)
        bundle = generate(spec)
        for video in ("val000", "val001"):
            flags = bundle.labels.positive[bundle.labels.video == video].tolist()
            assert sum(flags) == round(0.25 * 60)
            # anomalous frames form one contiguous segment
            first = flags.index(True)
            run = flags[first:].index(False) if False in flags[first:] else len(flags) - first
            assert sum(flags) == run

    def test_seed_determinism_byte_identical(self):
        spec = SynthSpec(anomaly_modes=(PoseDeform(0.5),), anomaly_fraction=0.2, seed=7, **SMALL)
        a, b = generate(spec), generate(spec)
        assert serialize_tracklets(a.detections) == serialize_tracklets(b.detections)
        assert serialize_labels(a.labels) == serialize_labels(b.labels)

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(seed=1, **SMALL))
        b = generate(SynthSpec(seed=2, **SMALL))
        assert serialize_tracklets(a.detections) != serialize_tracklets(b.detections)

    def test_spawn_radius_confines_starts(self):
        spec = SynthSpec(spawn_radius=5.0, drift_speed=0.0, jitter_std=0.0, **SMALL)
        bundle = generate(spec)
        center = np.array([spec.frame_width / 2, spec.frame_height / 2])
        det = bundle.detections
        for first in det.tracklet_bounds()[0]:
            hips = det.kp[first, list(spec.config().hip_indices), :2]
            mid = hips.mean(axis=0)
            assert np.abs(mid - center).max() <= 5.0 + 1e-9

    def test_trajectory_shift_moves_segment(self):
        spec = SynthSpec(
            anomaly_modes=(TrajectoryShift(200.0),),
            anomaly_fraction=0.3,
            drift_speed=0.0,
            jitter_std=0.0,
            seed=3,
            **SMALL,
        )
        bundle = generate(spec)
        labels = bundle.labels
        anomalous = set(zip(labels.video[labels.positive].tolist(), labels.frame[labels.positive].tolist()))
        det = bundle.detections
        for a, b in zip(*det.tracklet_bounds()):
            video_id = det.video_ids[det.video[a]]
            if not video_id.startswith("val"):
                continue
            xs = det.kp[a:b, 0, 0]
            base = xs[0]
            for frame, x in zip(det.frame[a:b].tolist(), xs):
                expected = base + (200.0 if (video_id, frame) in anomalous else 0.0)
                assert x == pytest.approx(expected, abs=1e-9)

    def test_windows_build_from_generated_bundle(self):
        bundle = generate(SynthSpec(**SMALL, T=24, stride=6))
        for ft in (FeatureType.POSE, FeatureType.ABSOLUTE_TRAJECTORY, FeatureType.SOCIAL_TRAJECTORY):
            windows = build_windows(bundle, ft, CenterPolicy.NONE)
            assert windows
            assert {SPLITS[code] for code in windows.split.tolist()} <= {Split.TRAIN, Split.VAL_NORMAL, Split.VAL_ANOMALOUS}


class TestOracleScores:
    def bundle(self, **kw):
        params = dict(
            anomaly_modes=(TrajectoryShift(150.0),),
            anomaly_fraction=0.25,
            jitter_std=0.5,
            seed=5,
        )
        params.update(SMALL)
        params.update(kw)
        return generate(SynthSpec(**params))

    def roc(self, bundle, rows):
        """ROC of oracle rows against the bundle's labels."""
        labels = bundle.labels
        positive = dict(zip(zip(labels.video.tolist(), labels.frame.tolist()), labels.positive.tolist()))
        scores = [s for _, _, s in rows]
        return roc_curve(scores, [positive[(v, f)] for v, f, _ in rows])

    def test_perfect_oracle_auc_one(self):
        bundle = self.bundle()
        roc = self.roc(bundle, oracle_scores(bundle, "perfect"))
        assert auc_roc(roc) == 1.0

    def test_random_oracle_near_half(self):
        bundle = self.bundle(frames_per_video=200)
        roc = self.roc(bundle, oracle_scores(bundle, "random", seed=11))
        assert 0.35 < auc_roc(roc) < 0.65

    def test_random_oracle_seeded(self):
        bundle = self.bundle()
        assert oracle_scores(bundle, "random", seed=3) == oracle_scores(bundle, "random", seed=3)
        assert oracle_scores(bundle, "random", seed=3) != oracle_scores(bundle, "random", seed=4)

    def test_distance_oracle_detects_large_shift(self):
        bundle = self.bundle(frames_per_video=120, spawn_radius=10.0, drift_speed=0.2)
        roc = self.roc(bundle, oracle_scores(bundle, "distance"))
        assert auc_roc(roc) > 0.85

    def test_scores_cover_every_labeled_frame(self):
        bundle = self.bundle()
        for mode in ("perfect", "random", "distance"):
            rows = oracle_scores(bundle, mode)
            assert {(v, f) for v, f, _ in rows} == set(
                zip(bundle.labels.video.tolist(), bundle.labels.frame.tolist())
            )

    def test_unknown_mode(self):
        with pytest.raises(DataError, match="oracle mode"):
            oracle_scores(self.bundle(), "psychic")
