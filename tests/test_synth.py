import dataclasses
import math

import numpy as np
import pytest

from oracle import distances_to_train_mean, read_dataset, track_windows
from skelstat.core import SPLITS, DataError, Detections, FeatureType, Split, WindowingConfig, video_names
from skelstat.features import CenterPolicy, build_windows
from skelstat.ingest import serialize_labels, serialize_manifest, serialize_tracklets
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


def score_rows(frames):
    """(video, frame, score) rows of an oracle's ``FrameScores``."""
    return list(zip(video_names(frames).tolist(), frames.frame.tolist(), frames.score.tolist()))


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
        labeled = set(zip(video_names(bundle.labels).tolist(), bundle.labels.frame.tolist()))
        assert len(labeled) == 2 * 60
        assert all(v.startswith("val") for v, _ in labeled)

    def test_zero_fraction_all_normal(self):
        bundle = generate(SynthSpec(**SMALL))
        assert not bundle.labels.positive.any()

    def test_label_fraction_matches_spec(self):
        spec = SynthSpec(anomaly_modes=(TrajectoryShift(50.0),), anomaly_fraction=0.25, **SMALL)
        bundle = generate(spec)
        for video in ("val000", "val001"):
            flags = bundle.labels.positive[bundle.labels.video == bundle.labels.video_ids.index(video)].tolist()
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
        anomalous = set(zip(video_names(labels)[labels.positive].tolist(), labels.frame[labels.positive].tolist()))
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
        positive = dict(zip(zip(video_names(labels).tolist(), labels.frame.tolist()), labels.positive.tolist()))
        scores = [s for _, _, s in rows]
        return roc_curve(scores, [positive[(v, f)] for v, f, _ in rows])

    def test_perfect_oracle_auc_one(self):
        bundle = self.bundle()
        roc = self.roc(bundle, score_rows(oracle_scores(bundle, "perfect")))
        assert auc_roc(roc) == 1.0

    def test_random_oracle_near_half(self):
        bundle = self.bundle(frames_per_video=200)
        roc = self.roc(bundle, score_rows(oracle_scores(bundle, "random", seed=11)))
        assert 0.35 < auc_roc(roc) < 0.65

    def test_random_oracle_seeded(self):
        bundle = self.bundle()
        random = [score_rows(oracle_scores(bundle, "random", seed=seed)) for seed in (3, 3, 4)]
        assert random[0] == random[1]
        assert random[0] != random[2]

    def test_distance_oracle_detects_large_shift(self):
        bundle = self.bundle(frames_per_video=120, spawn_radius=10.0, drift_speed=0.2)
        roc = self.roc(bundle, score_rows(oracle_scores(bundle, "distance")))
        assert auc_roc(roc) > 0.85

    def test_scores_cover_every_labeled_frame(self):
        bundle = self.bundle()
        for mode in ("perfect", "random", "distance"):
            rows = score_rows(oracle_scores(bundle, mode))
            assert {(v, f) for v, f, _ in rows} == set(
                zip(video_names(bundle.labels).tolist(), bundle.labels.frame.tolist())
            )

    def test_unknown_mode(self):
        with pytest.raises(DataError, match="oracle mode"):
            oracle_scores(self.bundle(), "psychic")


# the distance oracle sums the training mean with Kahan compensation over chunks
# of rows and the reference one coordinate at a time: equal within this tolerance
REL_TOL = 1e-12


def reference_distance_scores(bundle):
    """The distance oracle's rows rebuilt from ``tests/oracle.py``: uncentered
    trajectory windows, each validation window's distance to the training
    mean, and each labeled frame's maximum over the validation windows that
    cover it; uncovered frames get the least covered score (0.0 when none)."""
    cfg = bundle.config
    data = read_dataset(serialize_tracklets(bundle.detections), serialize_labels(bundle.labels),
                        serialize_manifest(bundle.videos), cfg.k)
    windows = track_windows(data, "traj", cfg.T, cfg.stride, cfg.hip_indices, center=False)
    scored = [
        (w, d)
        for split in ("val_normal", "val_anomalous")
        for w, d in zip([w for w in windows if w.split == split], distances_to_train_mean(windows, split))
    ]
    best = {}
    for video in sorted(data.labels):
        for frame in sorted(data.labels[video]):
            covering = [d for w, d in scored if w.video == video and w.start <= frame < w.start + cfg.T]
            best[(video, frame)] = max(covering) if covering else None
    floor = min((score for score in best.values() if score is not None), default=0.0)
    return [(video, frame, floor if score is None else score) for (video, frame), score in best.items()]


class TestDistanceOracle:
    @pytest.mark.parametrize("seed, mode", [(1, TrajectoryShift(60.0)), (2, PoseDeform(0.5)), (3, GroupConverge(0.5))])
    def test_scores_match_the_reference(self, seed, mode):
        # 63 frames: windows start at 0, 6, ..., 36, so frames 60-62 are uncovered
        bundle = generate(SynthSpec(**{**SMALL, "frames_per_video": 63}, anomaly_modes=(mode,),
                                    anomaly_fraction=0.25, seed=seed))
        rows, want = score_rows(oracle_scores(bundle, "distance")), reference_distance_scores(bundle)
        assert [(v, f) for v, f, _ in rows] == [(v, f) for v, f, _ in want]
        assert any(f >= 60 for _, f, _ in rows)
        for (_, _, got), (_, _, expected) in zip(rows, want):
            assert math.isclose(got, expected, rel_tol=REL_TOL)

    def test_refuses_a_bundle_without_training_windows(self):
        bundle = generate(SynthSpec(**SMALL))
        det = bundle.detections
        val = np.array([video.startswith("val") for video in video_names(det).tolist()])
        val_only = Detections.from_columns(
            video_names(det)[val].tolist(), np.array(det.track_ids, dtype=object)[det.track[val]].tolist(),
            det.frame[val], det.kp[val],
        )
        with pytest.raises(DataError, match="^distance oracle needs both training and validation windows$"):
            oracle_scores(dataclasses.replace(bundle, detections=val_only), "distance")

    @pytest.mark.parametrize("change", ["all_train", "windows_too_long"])
    def test_refuses_a_bundle_without_validation_windows(self, change):
        bundle = generate(SynthSpec(**SMALL))
        if change == "all_train":
            bundle = dataclasses.replace(bundle, videos={
                video: dataclasses.replace(meta, split="train") for video, meta in bundle.videos.items()})
        else:  # no window fits a video: no window of either kind
            bundle = dataclasses.replace(bundle, config=WindowingConfig(T=61, k=SMALL["k"]))
        with pytest.raises(DataError, match="^distance oracle needs both training and validation windows$"):
            oracle_scores(bundle, "distance")
