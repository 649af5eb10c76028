"""Seeded synthetic skeleton datasets with controllable anomaly separation.

The motion model is deliberately simple (linear drift plus Gaussian
jitter): the generator exists to give the analysis and metrics pipeline a
ground truth with tunable separation, not to look like real footage.
Randomness comes from numpy's PCG64 via one SeedSequence child per video,
so identical specs serialize byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from .analysis import distance_series, windows_by_split
from .core import DataError, Detections, FeatureType, Labels, Split, WindowingConfig
from .features import CenterPolicy, build_windows
from .ingest import DatasetBundle, VideoMeta
from .metrics import windows_to_frame_scores


@dataclass(frozen=True)
class TrajectoryShift:
    """Displace every joint by delta pixels in x during anomalous frames."""

    kind: ClassVar[str] = "trajectory_shift"
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise DataError(f"shift delta must be >= 0, got {self.delta}")


@dataclass(frozen=True)
class PoseDeform:
    """Scale the skeleton's joint offsets by (1 + amplitude) during anomalies."""

    kind: ClassVar[str] = "pose_deform"
    amplitude: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise DataError(f"deform amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class GroupConverge:
    """Pull everyone toward the group centroid at the given rate."""

    kind: ClassVar[str] = "group_converge"
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise DataError(f"converge rate must be in [0, 1], got {self.rate}")


AnomalyMode = Union[TrajectoryShift, PoseDeform, GroupConverge]


@dataclass(frozen=True)
class SynthSpec:
    n_train_videos: int = 3
    n_val_videos: int = 3
    frames_per_video: int = 240
    persons_per_video: int = 3
    k: int = 17
    frame_width: float = 856.0
    frame_height: float = 480.0
    drift_speed: float = 1.0  # max |velocity| per axis, px/frame
    jitter_std: float = 1.0  # per-joint Gaussian noise, px
    spawn_radius: Optional[float] = None  # None: spawn anywhere inside the frame
    anomaly_modes: Tuple[AnomalyMode, ...] = ()
    anomaly_fraction: float = 0.0
    seed: int = 0
    T: int = 24
    stride: int = 6
    N: int = 35

    def __post_init__(self):
        object.__setattr__(self, "anomaly_modes", tuple(self.anomaly_modes))
        if min(self.n_train_videos, self.n_val_videos) < 1:
            raise DataError("need at least one train and one val video")
        if self.frames_per_video < self.T:
            raise DataError("frames_per_video must be >= T")
        if self.persons_per_video < 1:
            raise DataError("persons_per_video must be >= 1")
        if self.k < 2:
            raise DataError("k must be >= 2 (two hip joints)")
        if not 0.0 <= self.anomaly_fraction <= 1.0:
            raise DataError(f"anomaly_fraction must be in [0, 1], got {self.anomaly_fraction}")
        if self.anomaly_fraction > 0 and not self.anomaly_modes:
            raise DataError("anomaly_fraction > 0 requires at least one anomaly mode")
        if self.drift_speed < 0 or self.jitter_std < 0:
            raise DataError("motion parameters must be non-negative")

    def config(self) -> WindowingConfig:
        return WindowingConfig(
            T=self.T,
            stride=self.stride,
            k=self.k,
            N=max(self.N, self.persons_per_video),
        )

    def to_dict(self) -> dict:
        modes = [{"kind": mode.kind, **asdict(mode)} for mode in self.anomaly_modes]
        return {**asdict(self), "anomaly_modes": modes, "rng": "numpy PCG64, one SeedSequence child per video"}


def _skeleton_template(k: int, hip_indices: Tuple[int, int]) -> np.ndarray:
    """Fixed per-joint offsets around the person center; the two hips sit
    symmetrically so their midpoint is exactly the center path."""
    template = np.zeros((k, 2), dtype=np.float64)
    for i in range(k):
        angle = 2.0 * math.pi * i / k
        template[i] = (8.0 * math.cos(angle), 12.0 * math.sin(angle))
    left, right = hip_indices
    template[left] = (-6.0, 0.0)
    template[right] = (6.0, 0.0)
    return template


def _anomaly_segment(spec: SynthSpec, rng: np.random.Generator) -> Optional[Tuple[int, int]]:
    seg_len = round(spec.anomaly_fraction * spec.frames_per_video)
    if seg_len == 0:
        return None
    # keep a T-frame normal margin on both sides when the video allows it
    margin = min(spec.T, (spec.frames_per_video - seg_len) // 2)
    start_lo = margin
    start_hi = spec.frames_per_video - seg_len - margin
    start = int(rng.integers(start_lo, start_hi + 1)) if start_hi > start_lo else start_lo
    return (start, start + seg_len)


def generate(spec: SynthSpec) -> DatasetBundle:
    """Deterministic dataset: normal tracklets follow linear drift plus
    jitter, anomalous segments apply the configured modes, labels mark
    exactly the anomalous frames."""
    cfg = spec.config()
    template = _skeleton_template(spec.k, cfg.hip_indices)
    F, P = spec.frames_per_video, spec.persons_per_video
    t = np.arange(F, dtype=np.float64)

    video_ids = [f"train{i:03d}" for i in range(spec.n_train_videos)]
    video_ids += [f"val{i:03d}" for i in range(spec.n_val_videos)]
    children = np.random.SeedSequence(spec.seed).spawn(len(video_ids))

    kp: List[np.ndarray] = []
    positive: List[np.ndarray] = []
    videos: Dict[str, VideoMeta] = {}
    for video_id, child in zip(video_ids, children):
        is_val = video_id.startswith("val")
        rng = np.random.default_rng(child)
        videos[video_id] = VideoMeta("val" if is_val else "train", spec.frame_width, spec.frame_height)
        segment = _anomaly_segment(spec, rng) if is_val else None

        if spec.spawn_radius is None:
            lo = np.array([0.1 * spec.frame_width, 0.1 * spec.frame_height])
            hi = np.array([0.9 * spec.frame_width, 0.9 * spec.frame_height])
            starts = rng.uniform(lo, hi, size=(P, 2))
        else:
            center = np.array([spec.frame_width / 2.0, spec.frame_height / 2.0])
            starts = center + rng.uniform(-spec.spawn_radius, spec.spawn_radius, size=(P, 2))
        velocities = rng.uniform(-spec.drift_speed, spec.drift_speed, size=(P, 2))
        centers = starts[:, None, :] + velocities[:, None, :] * t[None, :, None]  # (P, F, 2)

        if segment is not None:
            seg = slice(*segment)
            seg_len = segment[1] - segment[0]
            for mode in spec.anomaly_modes:
                if isinstance(mode, GroupConverge):
                    centroid = centers[:, seg, :].mean(axis=0)
                    progress = np.linspace(0.0, 1.0, seg_len)[None, :, None]
                    centers[:, seg, :] += mode.rate * progress * (centroid[None] - centers[:, seg, :])

        joints = centers[:, :, None, :] + template[None, None, :, :]
        joints += rng.normal(0.0, spec.jitter_std, size=joints.shape)
        confidences = rng.uniform(0.5, 1.0, size=(P, F, spec.k))

        if segment is not None:
            seg = slice(*segment)
            for mode in spec.anomaly_modes:
                if isinstance(mode, TrajectoryShift):
                    joints[:, seg, :, 0] += mode.delta
                elif isinstance(mode, PoseDeform):
                    joints[:, seg, :, :] += mode.amplitude * template[None, None, :, :]

        kp.append(np.concatenate([joints, confidences[..., None]], axis=3).reshape(P * F, spec.k, 3))
        if is_val:
            lo, hi = segment or (0, 0)
            positive.append((lo <= t) & (t < hi))

    tracks = [f"p{p:02d}" for p in range(P)]
    detections = Detections.from_columns(
        video=[video_id for video_id in video_ids for _ in range(P * F)],
        track=[track for _ in video_ids for track in tracks for _ in range(F)],
        frame=np.tile(np.arange(F), len(video_ids) * P),
        kp=np.concatenate(kp),
    )
    val_ids = video_ids[spec.n_train_videos :]
    frames = np.tile(np.arange(F), len(val_ids))
    labels = Labels.from_columns(np.repeat(val_ids, F), frames, np.concatenate(positive))
    return DatasetBundle(detections=detections, labels=labels, videos=videos, config=cfg)


ORACLE_MODES = ("perfect", "random", "distance")


def oracle_scores(
    bundle: DatasetBundle,
    mode: str,
    seed: int = 0,
) -> List[Tuple[str, int, float]]:
    """Anomaly-polarity scores for every labeled frame.

    ``perfect`` separates the classes exactly, ``random`` draws seeded
    uniform scores, ``distance`` scores each frame by the maximum
    uncentered-trajectory-window distance to the training mean (the
    implicit nearest-mean baseline detector).
    """
    if mode not in ORACLE_MODES:
        raise DataError(f"unknown oracle mode {mode!r}; expected one of {ORACLE_MODES}")
    labels = bundle.labels
    if mode != "distance":
        if mode == "perfect":
            scores = labels.positive.astype(np.float64)
        else:
            scores = np.random.default_rng(seed).random(len(labels.frame))
        return list(zip(labels.video.tolist(), labels.frame.tolist(), scores.tolist()))

    # distance mode: uncentered trajectories keep absolute displacement, so
    # shifted segments stand out against the training mean
    windows = build_windows(bundle, FeatureType.ABSOLUTE_TRAJECTORY, CenterPolicy.NONE)
    by_split = windows_by_split(windows)
    val = np.concatenate([by_split[Split.VAL_NORMAL], by_split[Split.VAL_ANOMALOUS]])
    if not len(by_split[Split.TRAIN]) or not len(val):
        raise DataError("distance oracle needs both training and validation windows")
    series = distance_series(windows, FeatureType.ABSOLUTE_TRAJECTORY)
    scores = np.concatenate([series[s].values for s in (Split.VAL_NORMAL, Split.VAL_ANOMALOUS) if s in series])
    frames, _ = windows_to_frame_scores(windows, scores, labels, rows=val)
    return list(zip(frames.video.tolist(), frames.frame.tolist(), frames.score.tolist()))
