"""Shared domain types for skeleton-dataset difficulty analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple

import numpy as np


class SkelstatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SkelstatError):
    """Malformed input data; carries the offending line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DataError(SkelstatError):
    """Semantically invalid data (shape mismatch, bad labels, empty input)."""


class Label(Enum):
    NORMAL = "normal"
    ANOMALOUS = "anomalous"


class Split(Enum):
    TRAIN = "train"
    VAL_NORMAL = "val_normal"
    VAL_ANOMALOUS = "val_anomalous"


class FeatureType(Enum):
    POSE = "pose"
    ABSOLUTE_TRAJECTORY = "traj"
    SOCIAL_TRAJECTORY = "social"


@dataclass(frozen=True)
class Keypoint:
    """One detected joint in frame coordinates."""

    x: float
    y: float
    confidence: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(f"keypoint coordinates must be finite, got ({self.x}, {self.y})")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise DataError(f"keypoint confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class PoseDetection:
    """One person's keypoints in one frame of one video."""

    video_id: str
    frame_index: int
    track_id: str
    keypoints: Tuple[Keypoint, ...]

    def __post_init__(self):
        if self.frame_index < 0:
            raise DataError(f"frame_index must be non-negative, got {self.frame_index}")
        object.__setattr__(self, "keypoints", tuple(self.keypoints))


@dataclass(frozen=True)
class Tracklet:
    """Time-ordered detections of one tracked person within one video."""

    video_id: str
    track_id: str
    detections: Tuple[PoseDetection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        prev = -1
        for det in self.detections:
            if det.video_id != self.video_id or det.track_id != self.track_id:
                raise DataError(
                    f"detection ({det.video_id}, {det.track_id}) does not belong to "
                    f"tracklet ({self.video_id}, {self.track_id})"
                )
            if det.frame_index <= prev:
                raise DataError(
                    f"tracklet ({self.video_id}, {self.track_id}): frame indices must be "
                    f"strictly increasing at frame {det.frame_index}"
                )
            prev = det.frame_index

    def __len__(self):
        return len(self.detections)


@dataclass(frozen=True)
class FrameLabel:
    video_id: str
    frame_index: int
    label: Label

    def __post_init__(self):
        if self.frame_index < 0:
            raise DataError(f"frame_index must be non-negative, got {self.frame_index}")


@dataclass(frozen=True)
class WindowingConfig:
    """Window geometry plus the skeleton layout needed to build features.

    ``hip_indices`` names the (left, right) hip joints used for person
    centers; defaults match the COCO-17 layout.
    """

    T: int = 24
    stride: int = 6
    k: int = 17
    N: int = 35
    frame_width: float = 856.0
    frame_height: float = 480.0
    hip_indices: Tuple[int, int] = (11, 12)

    def __post_init__(self):
        if self.T < 2:
            raise DataError(f"T must be >= 2, got {self.T}")
        if self.stride < 1:
            raise DataError(f"stride must be >= 1, got {self.stride}")
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.N < 1:
            raise DataError(f"N must be >= 1, got {self.N}")
        if not (0.0 < self.frame_width < math.inf and 0.0 < self.frame_height < math.inf):
            raise DataError("frame dimensions must be finite and positive")

    @property
    def frame_center(self) -> Tuple[float, float]:
        return (self.frame_width / 2.0, self.frame_height / 2.0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FeatureWindow:
    """A T x k x 2 coordinate tensor with occupancy mask and provenance."""

    coords: np.ndarray
    mask: np.ndarray
    video_id: str
    start_frame: int
    track_ids: Tuple[str, ...]
    label: Label
    split: Split

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if coords.ndim != 3 or coords.shape[2] != 2:
            raise DataError(f"coords must have shape (T, k, 2), got {coords.shape}")
        if mask.shape != coords.shape[:2]:
            raise DataError(f"mask shape {mask.shape} does not match coords {coords.shape[:2]}")
        if not np.isfinite(coords).all():
            raise DataError("window coordinates must be finite")
        if coords[~mask].any():
            raise DataError("masked-out coordinates must be exactly (0, 0)")
        object.__setattr__(self, "coords", _freeze(coords))
        object.__setattr__(self, "mask", _freeze(mask))
        object.__setattr__(self, "track_ids", tuple(self.track_ids))

    @property
    def shape(self) -> Tuple[int, int]:
        """(T, k) of this window."""
        return self.coords.shape[:2]


@dataclass(frozen=True)
class MeanTensor:
    """Element-wise mean over a set of homogeneous windows."""

    values: np.ndarray
    sample_count: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.shape[2] != 2:
            raise DataError(f"mean tensor must have shape (T, k, 2), got {values.shape}")
        if self.sample_count < 1:
            raise DataError(f"sample_count must be positive, got {self.sample_count}")
        object.__setattr__(self, "values", _freeze(values))


@dataclass(frozen=True)
class SdomReport:
    """Scaled mean distances and their signed difference for one feature."""

    delta_n: float
    delta_a: float
    sdom: float
    feature_type: FeatureType
    counts: Tuple[int, int, int]  # (train, val-normal, val-anomalous)

    def __post_init__(self):
        if self.delta_n < 0 or self.delta_a < 0:
            raise DataError("delta values must be non-negative")
        if self.sdom != self.delta_a - self.delta_n:
            raise DataError("sdom must equal delta_a - delta_n exactly")

    def to_dict(self) -> dict:
        return {
            "delta_n": self.delta_n,
            "delta_a": self.delta_a,
            "sdom": self.sdom,
            "feature_type": self.feature_type.value,
            "counts": {
                "train": self.counts[0],
                "val_normal": self.counts[1],
                "val_anomalous": self.counts[2],
            },
        }


@dataclass(frozen=True)
class EmbeddingPrior:
    """Mean of the latent prior the external model maps normal data to."""

    mu_normal: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu_normal, dtype=np.float64)
        if mu.ndim != 1 or mu.size == 0:
            raise DataError(f"prior mean must be 1-D and non-empty, got shape {mu.shape}")
        if not np.isfinite(mu).all():
            raise DataError("prior mean must be finite")
        object.__setattr__(self, "mu_normal", _freeze(mu))


class FrameScores(NamedTuple):
    """Per-frame anomaly scores as columns, one row per labeled frame;
    a higher score always means more anomalous."""

    video: np.ndarray  # str video ids
    frame: np.ndarray  # int64 frame indices
    score: np.ndarray  # float64
    positive: np.ndarray  # bool, True where the frame is labeled Anomalous


@dataclass(frozen=True)
class MetricsReport:
    auc_roc: float
    auc_pr: float
    eer: float
    eer_threshold: float
    n_pos: int = 0
    n_neg: int = 0
    uncovered_frames: int = 0

    def __post_init__(self):
        for name in ("auc_roc", "auc_pr", "eer"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise DataError(f"{name} must be in [0, 1], got {value}")
        if not math.isfinite(self.eer_threshold):
            raise DataError("eer_threshold must be finite")

    def to_dict(self) -> dict:
        return {
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "eer": self.eer,
            "eer_threshold": self.eer_threshold,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "uncovered_frames": self.uncovered_frames,
        }


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with Tukey whisker fences clamped to the data."""

    lower_fence: float
    q1: float
    median: float
    q3: float
    upper_fence: float

    def __post_init__(self):
        values = (self.lower_fence, self.q1, self.median, self.q3, self.upper_fence)
        if any(not math.isfinite(v) for v in values):
            raise DataError("box statistics must be finite")
        if not (self.lower_fence <= self.q1 <= self.median <= self.q3 <= self.upper_fence):
            raise DataError(f"box statistics must be ordered, got {values}")

    def to_dict(self) -> dict:
        return {
            "lower_fence": self.lower_fence,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "upper_fence": self.upper_fence,
        }
