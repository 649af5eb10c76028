from types import SimpleNamespace

import numpy as np
import pytest

from oracle import export_text, read_dataset, track_windows
from skelstat.core import (
    SPLITS,
    DataError,
    Detections,
    FeatureType,
    Label,
    Labels,
    Split,
    WindowingConfig,
)
from skelstat.features import (
    CenterPolicy,
    build_windows,
    center_window,
    person_center,
    serialize_windows,
    window_starts,
)
from skelstat.ingest import DatasetBundle, VideoMeta, serialize_labels, serialize_manifest, serialize_tracklets

CFG = WindowingConfig(T=24, stride=6, k=17)
CENTER = (50.0, 50.0)  # the frame center of the 100 x 100 videos of ``bundle_of``


def detection(frame, coords, video="v1", track="t1", k=None):
    """One (video, track, frame, (k, 3) keypoints) row with confidence 0.9;
    coords: (k, 2) array or a single (x, y) used for every joint."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        k = k or 17
        coords = np.tile(coords, (k, 1))
    return video, track, frame, np.column_stack([coords, np.full(len(coords), 0.9)])


def table(rows, k=17):
    """Detections from ``detection`` rows."""
    if not rows:
        return Detections.from_columns([], [], [], np.zeros((0, k, 3)))
    video, track, frame, kp = zip(*rows)
    return Detections.from_columns(list(video), list(track), list(frame), np.array(kp))


def tracklet_from_frames(frames, rng=None, video="v1", track="t1", k=17):
    rng = rng or np.random.default_rng(0)
    return table([detection(f, rng.uniform(0, 100, size=(k, 2)), video, track) for f in frames])


def normal_labels(frames):
    """Dense labels of one video by frame (-1 unlabeled, 0 normal, 1
    anomalous), Normal on ``frames``."""
    frames = list(frames)
    labels = np.full(max(frames, default=-1) + 1, -1, dtype=np.int8)
    labels[frames] = 0
    return labels


NO_LABELS = normal_labels([])


def bundle_of(detections, labels=NO_LABELS, video_split="val", cfg=CFG, video="v1"):
    """A bundle of one video's detections and dense labels, 100 x 100 pixels."""
    frames = np.flatnonzero(labels >= 0)
    return DatasetBundle(
        detections=detections,
        labels=Labels.from_columns([video] * len(frames), frames, labels[frames] == 1),
        videos={video: VideoMeta(video_split, 100, 100)},
        config=cfg,
    )


def pose_windows(bundle, center=CenterPolicy.FIRST_POSE_TO_FRAME_CENTER):
    return unbatch(build_windows(bundle, FeatureType.POSE, center))


def traj_windows(bundle, center=CenterPolicy.FIRST_POSE_TO_FRAME_CENTER):
    return unbatch(build_windows(bundle, FeatureType.ABSOLUTE_TRAJECTORY, center))


def social_windows(bundle, truncate=False):
    return unbatch(build_windows(bundle, FeatureType.SOCIAL_TRAJECTORY, truncate_social=truncate))


def unbatch(batch):
    """The windows of a batch as one record each, for per-window assertions."""
    return [
        SimpleNamespace(
            coords=batch.coords[i],
            mask=batch.mask[i],
            video_id=batch.video_ids[batch.video[i]],
            start_frame=int(batch.start[i]),
            track_ids=tuple(batch.track_ids[c] for c in batch.track[i] if c >= 0),
            split=SPLITS[batch.split[i]],
            shape=batch.coords.shape[1:3],
        )
        for i in range(len(batch))
    ]


def center_of(coords):
    return tuple(person_center(table([detection(0, coords)]).kp)[0])


class TestPersonCenter:
    def test_midpoint(self):
        coords = np.zeros((17, 2))
        coords[11] = (10, 20)
        coords[12] = (30, 40)
        assert center_of(coords) == (20, 30)

    def test_coincident_hips(self):
        coords = np.full((17, 2), 5.0)
        assert center_of(coords) == (5, 5)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            coords = rng.uniform(-10, 500, size=(17, 2))
            expected = ((coords[11][0] + coords[12][0]) / 2, (coords[11][1] + coords[12][1]) / 2)
            assert center_of(coords) == pytest.approx(expected, abs=0)

    def test_bad_layout(self):
        with pytest.raises(DataError, match="hip indices"):
            person_center(table([detection(0, np.zeros((5, 2)))], k=5).kp, hip_indices=(11, 12))

    def test_negative_index_refused(self):
        kp = table([detection(0, np.arange(8.0).reshape(4, 2))], k=4).kp
        with pytest.raises(DataError, match="hip indices"):
            person_center(kp, hip_indices=(-1, 2))
        with pytest.raises(DataError, match="anchor indices"):
            center_window(kp[None, :, :, :2], CENTER, (-1, 2))


class TestPoseWindows:
    def test_exact_length_run_one_window(self):
        t = tracklet_from_frames(range(24))
        windows = pose_windows(bundle_of(t, normal_labels(range(24))), CenterPolicy.NONE)
        assert len(windows) == 1
        assert windows[0].start_frame == 0

    def test_36_frames_three_windows(self):
        t = tracklet_from_frames(range(36))
        windows = pose_windows(bundle_of(t, normal_labels(range(36))), CenterPolicy.NONE)
        assert [w.start_frame for w in windows] == [0, 6, 12]

    def test_gap_splits_runs(self):
        frames = [f for f in range(30) if f != 10]
        t = tracklet_from_frames(frames)
        windows = pose_windows(bundle_of(t, normal_labels(frames)), CenterPolicy.NONE)
        assert windows == []  # runs of 10 and 19 are both shorter than T=24

    def test_window_count_law_against_enumeration(self):
        rng = np.random.default_rng(5)
        cfg_small = WindowingConfig(T=5, stride=2, k=2, hip_indices=(0, 1))
        for _ in range(50):
            L = int(rng.integers(1, 40))
            t = tracklet_from_frames(range(L), rng, k=2)
            bundle = bundle_of(t, normal_labels(range(L)), cfg=cfg_small)
            windows = pose_windows(bundle, CenterPolicy.NONE)
            expected = [s for s in range(0, max(L - 5 + 1, 0), 2)]
            assert [w.start_frame for w in windows] == expected

    def test_coords_match_source(self):
        rng = np.random.default_rng(6)
        t = tracklet_from_frames(range(24), rng)
        (w,) = pose_windows(bundle_of(t, normal_labels(range(24))), CenterPolicy.NONE)
        assert np.array_equal(w.coords, t.kp[:, :, :2])

    def test_single_joint_layout_centers_on_that_joint(self):
        cfg = WindowingConfig(T=24, stride=6, k=1)
        t = table([detection(f, (float(f), 7.0), k=1) for f in range(30)], k=1)
        windows = pose_windows(bundle_of(t, normal_labels(range(30)), cfg=cfg))
        assert [w.start_frame for w in windows] == [0, 6]
        for w in windows:
            assert tuple(w.coords[0, 0]) == CENTER
            assert np.array_equal(w.coords[:, 0, 0], 50.0 + np.arange(24.0))

    def test_split_assignment(self):
        labels = normal_labels(range(24))
        labels[3] = 1
        t = tracklet_from_frames(range(24))
        windows = build_windows(bundle_of(t, labels, video_split="val"), FeatureType.POSE, CenterPolicy.NONE)
        (w,) = unbatch(windows)
        label = serialize_windows(windows).split("\t")[3]
        assert w.split is Split.VAL_ANOMALOUS and label == Label.ANOMALOUS.value
        (w_train,) = pose_windows(bundle_of(t, NO_LABELS, video_split="train"), CenterPolicy.NONE)
        assert w_train.split is Split.TRAIN


class TestCenterWindow:
    def window(self, rng=None):
        rng = rng or np.random.default_rng(1)
        return rng.uniform(0, 100, size=(24, 17, 2))

    def hip_mid(self, frame):
        return (frame[11] + frame[12]) / 2.0

    def test_already_centered_is_identity(self):
        coords = self.window()
        shift = np.array(CENTER) - self.hip_mid(coords[0])
        coords = coords + shift
        out = center_window(coords, CENTER, CFG.hip_indices)
        assert np.allclose(out, coords, atol=1e-9)

    def test_constant_preshift_cancels(self):
        coords = self.window()
        out_a = center_window(coords, CENTER, CFG.hip_indices)
        out_b = center_window(coords + np.array([123.4, -56.7]), CENTER, CFG.hip_indices)
        assert np.allclose(out_a, out_b, atol=1e-9)

    def test_anchor_lands_on_frame_center_and_displacements_kept(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            coords = self.window(rng)
            out = center_window(coords, CENTER, CFG.hip_indices)
            assert self.hip_mid(out[0]) == pytest.approx(CENTER, abs=1e-9)
            assert np.allclose(np.diff(out, axis=0), np.diff(coords, axis=0), atol=1e-9)


class TestTrajectoryWindows:
    def test_count_matches_pose_windows(self):
        t = tracklet_from_frames(range(40))
        labels = normal_labels(range(40))
        pose = pose_windows(bundle_of(t, labels), CenterPolicy.NONE)
        traj = traj_windows(bundle_of(t, labels), CenterPolicy.NONE)
        assert len(traj) == len(pose)
        assert all(w.shape == (24, 1) for w in traj)

    def test_trajectory_is_hip_midpoint_of_pose(self):
        rng = np.random.default_rng(8)
        t = tracklet_from_frames(range(24), rng)
        labels = normal_labels(range(24))
        (pose,) = pose_windows(bundle_of(t, labels), CenterPolicy.NONE)
        (traj,) = traj_windows(bundle_of(t, labels), CenterPolicy.NONE)
        expected = (pose.coords[:, 11, :] + pose.coords[:, 12, :]) / 2.0
        assert np.allclose(traj.coords[:, 0, :], expected, atol=0)

    def test_constant_position_centered_to_frame_center(self):
        t = table([detection(f, (30.0, 40.0)) for f in range(24)])
        (w,) = traj_windows(bundle_of(t, normal_labels(range(24))))
        assert np.allclose(w.coords, np.tile(CENTER, (24, 1, 1)), atol=1e-9)

    def test_small_layout_uses_first_two_joints_as_hips(self):
        rng = np.random.default_rng(14)
        t = tracklet_from_frames(range(24), rng, k=4)
        cfg = WindowingConfig(T=24, stride=6, k=4)
        (w,) = traj_windows(bundle_of(t, normal_labels(range(24)), cfg=cfg), CenterPolicy.NONE)
        assert np.array_equal(w.coords[:, 0], (t.kp[:, 0, :2] + t.kp[:, 1, :2]) / 2.0)

    def test_single_joint_layout_builds_trajectory_and_social_windows(self):
        points = np.random.default_rng(15).uniform(0, 100, size=(30, 2))
        t = table([detection(f, points[f : f + 1], k=1) for f in range(30)], k=1)
        bundle = bundle_of(t, normal_labels(range(30)), cfg=WindowingConfig(T=24, stride=6, k=1))
        traj, social = traj_windows(bundle, CenterPolicy.NONE), social_windows(bundle)
        assert [w.start_frame for w in traj] == [w.start_frame for w in social] == [0, 6]
        for w in traj + social:
            assert np.array_equal(w.coords[:, 0], points[w.start_frame : w.start_frame + 24])


def label_window(labels, video_id, start, T, video_split):
    """The exported label of the pose window over [start, start + T) of a
    one-track video with dense ``labels``."""
    cfg = WindowingConfig(T=T, stride=T, k=2)
    t = table([detection(f, (1.0, 1.0), video_id, k=2) for f in range(start, start + T)], k=2)
    bundle = bundle_of(t, labels, video_split, cfg, video_id)
    (line,) = serialize_windows(build_windows(bundle, FeatureType.POSE, CenterPolicy.NONE)).splitlines()
    return Label(line.split("\t")[3])


class TestLabelWindow:
    def test_all_normal(self):
        labels = normal_labels(range(24))
        assert label_window(labels, "v1", 0, 24, "val") is Label.NORMAL

    def test_any_anomalous(self):
        labels = normal_labels(range(24))
        labels[23] = 1
        assert label_window(labels, "v1", 0, 24, "val") is Label.ANOMALOUS

    def test_unlabeled_val_frame_errors(self):
        labels = normal_labels(range(23))
        with pytest.raises(DataError, match=r"unlabeled validation frame \(v1, 23\)"):
            label_window(labels, "v1", 0, 24, "val")
        labels[5] = -1
        with pytest.raises(DataError, match=r"unlabeled validation frame \(v1, 5\)"):
            label_window(labels, "v1", 0, 24, "val")

    def test_train_implicitly_normal(self):
        assert label_window(NO_LABELS, "v1", 0, 24, "train") is Label.NORMAL

    def test_matches_any_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            flags = rng.random(24) < 0.2
            labels = flags.astype(np.int8)
            expected = Label.ANOMALOUS if any(flags) else Label.NORMAL
            assert label_window(labels, "v1", 0, 24, "val") is expected


def social_bundle(detections, n_videos=("v1",), cfg=None):
    cfg = cfg or WindowingConfig(T=4, stride=2, k=2, N=3, hip_indices=(0, 1))
    return DatasetBundle(
        detections=table(detections, k=2),
        labels=Labels.from_columns([], [], []),
        videos={v: VideoMeta("train", 100, 100) for v in n_videos},
        config=cfg,
    )


class TestSocialWindows:
    def det(self, frame, track, xy, video="v1"):
        return detection(frame, np.tile(xy, (2, 1)), video, track, k=2)

    def test_two_tracks_padded(self):
        dets = [self.det(f, t, (float(f), 1.0 if t == "a" else 2.0)) for f in range(4) for t in ("a", "b")]
        (w,) = social_windows(social_bundle(dets))
        assert w.shape == (4, 3)
        assert w.mask[:, :2].all() and not w.mask[:, 2].any()
        assert np.array_equal(w.coords[:, 2], np.zeros((4, 2)))
        assert w.track_ids == ("a", "b")

    def test_partial_presence_zero_filled(self):
        dets = [self.det(f, "a", (1.0, 1.0)) for f in range(4)]
        dets += [self.det(f, "b", (2.0, 2.0)) for f in range(2)]  # leaves at frame 2
        (w,) = social_windows(social_bundle(dets))
        assert w.mask[:2, 1].all() and not w.mask[2:, 1].any()
        assert np.array_equal(w.coords[2:, 1], np.zeros((2, 2)))

    def test_capacity_exceeded(self):
        dets = [self.det(f, f"t{t}", (float(t), 0.0)) for f in range(4) for t in range(4)]
        with pytest.raises(DataError, match="capacity"):
            social_windows(social_bundle(dets))
        windows = social_windows(social_bundle(dets), truncate=True)
        assert windows[0].track_ids == ("t0", "t1", "t2")

    def test_tracklet_order_does_not_matter(self):
        rng = np.random.default_rng(12)
        dets = [self.det(f, t, tuple(rng.uniform(0, 50, 2))) for f in range(6) for t in ("a", "b", "c")]
        bundle_fwd = social_bundle(dets)
        bundle_rev = social_bundle(dets[::-1])
        for wa, wb in zip(social_windows(bundle_fwd), social_windows(bundle_rev)):
            assert np.array_equal(wa.coords, wb.coords)
            assert wa.track_ids == wb.track_ids

    def test_occupied_coords_come_from_source(self):
        rng = np.random.default_rng(13)
        points = {(f, t): tuple(rng.uniform(0, 50, 2)) for f in range(6) for t in ("a", "b")}
        dets = [self.det(f, t, xy) for (f, t), xy in points.items()]
        for w in social_windows(social_bundle(dets)):
            for ti, track in enumerate(w.track_ids):
                for t in range(w.shape[0]):
                    if w.mask[t, ti]:
                        assert tuple(w.coords[t, ti]) == points[(w.start_frame + t, track)]

    def test_empty_frame_range_window(self):
        # labels define the frame range, no tracks at all
        labels = Labels.from_columns(["v1"] * 4, range(4), [False] * 4)
        cfg = WindowingConfig(T=4, stride=2, k=2, N=3, hip_indices=(0, 1))
        bundle = DatasetBundle(
            detections=table([], k=2), labels=labels, videos={"v1": VideoMeta("val", 100, 100)}, config=cfg
        )
        (w,) = social_windows(bundle)
        assert not w.mask.any() and not w.coords.any()


class TestWindowStartsHelper:
    def test_matches_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            L = int(rng.integers(1, 100))
            T = int(rng.integers(2, 30))
            stride = int(rng.integers(1, 10))
            _, starts = window_starts(np.array([0]), np.array([L]), T, stride)
            expected = (L - T) // stride + 1 if L >= T else 0
            assert len(starts) == expected


class TestWindowSerialization:
    def test_bit_exact_round_trip(self):
        # the export is the text oracle.export_text writes for the oracle's windows
        rng = np.random.default_rng(21)
        t = tracklet_from_frames(range(30), rng)
        bundle = bundle_of(t, normal_labels(range(30)))
        texts = serialize_tracklets(t), serialize_labels(bundle.labels), serialize_manifest(bundle.videos)
        expected = track_windows(read_dataset(*texts, k=17), "pose", 24, 6, CFG.hip_indices, center=True)
        assert serialize_windows(build_windows(bundle, FeatureType.POSE)) == export_text(expected)


def test_build_windows_uses_manifest_resolution():
    bundle = DatasetBundle(
        detections=table([detection(f, (10.0, 10.0)) for f in range(24)]),
        labels=Labels.from_columns([], [], []),
        videos={"v1": VideoMeta("train", 200, 50)},
        config=WindowingConfig(),
    )
    (w,) = traj_windows(bundle)
    assert np.allclose(w.coords[0, 0], (100.0, 25.0), atol=1e-9)
