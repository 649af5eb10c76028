"""Shared domain types for skeleton-dataset difficulty analysis."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

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


class Split(Enum):
    TRAIN = "train"
    VAL_NORMAL = "val_normal"
    VAL_ANOMALOUS = "val_anomalous"


class FeatureType(Enum):
    POSE = "pose"
    ABSOLUTE_TRAJECTORY = "traj"
    SOCIAL_TRAJECTORY = "social"


def _code(names) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Sorted table of the distinct names and each name's int64 code into it,
    from a stable sort and its run heads: exact for names with a trailing NUL."""
    names = np.array(names, dtype=object)
    order = np.argsort(names, kind="stable")
    ordered = names[order]
    head = np.r_[True, ordered[1:] != ordered[:-1]][: names.size]
    codes = np.empty(names.size, dtype=np.int64)
    codes[order] = np.cumsum(head) - 1
    return tuple(ordered[head].tolist()), codes


def code_into(video_ids: Tuple[str, ...], names) -> np.ndarray:
    """Each name's code in the table ``video_ids``; len(video_ids) for a name it lacks."""
    index = dict(zip(video_ids, range(len(video_ids))))
    return np.array([index.get(name, len(video_ids)) for name in names], dtype=np.int64)


def video_names(table) -> np.ndarray:
    """Each row's video id, as an object array, of a table with ``video_ids`` and ``video`` codes."""
    return np.array(table.video_ids, dtype=object)[table.video]


def _bounds(new: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of n rows cut before each row where ``new`` is true."""
    starts = np.flatnonzero(np.r_[True, new]) if n else np.zeros(0, dtype=np.int64)
    return starts, np.r_[starts[1:], n] if n else starts


class Detections(NamedTuple):
    """Pose detections as columns, one row per (video, track, frame), sorted
    by (video, track, frame). Video and track ids are codes into sorted name
    tables, so code order is name order; a tracklet is a run of rows with
    one (video, track) code pair."""

    video_ids: Tuple[str, ...]  # name table of the video codes
    video: np.ndarray  # int64 codes into video_ids
    track_ids: Tuple[str, ...]  # name table of the track codes
    track: np.ndarray  # int64 codes into track_ids
    frame: np.ndarray  # int64 frame indices
    kp: np.ndarray  # (D, k, 3) float64 rows of (x, y, confidence)

    @classmethod
    def from_columns(cls, video, track, frame, kp) -> "Detections":
        """Sorted table from per-row video ids, track ids, frames and (D, k, 3)
        keypoints; refuses non-finite values, confidences outside [0, 1],
        negative frames and repeated (video, track, frame) triples, naming
        the first repeat in table order."""
        frame, kp = np.asarray(frame, dtype=np.int64), np.asarray(kp, dtype=np.float64)
        if kp.ndim != 3 or kp.shape[2] != 3 or not len(video) == len(track) == len(frame) == len(kp):
            raise DataError(f"detection columns must have one length and (D, k, 3) keypoints, got {kp.shape}")
        if not np.isfinite(kp[:, :, :2]).all():
            raise DataError("keypoint coordinates must be finite")
        if not ((kp[:, :, 2] >= 0.0) & (kp[:, :, 2] <= 1.0)).all():
            raise DataError("keypoint confidences must be in [0, 1]")
        if (frame < 0).any():
            raise DataError(f"frame_index must be non-negative, got {frame.min()}")
        video_ids, video = _code(video)
        track_ids, track = _code(track)
        order = np.lexsort((frame, track, video))
        table = cls(video_ids, video[order], track_ids, track[order], frame[order], kp[order])
        same = (np.diff(table.video) == 0) & (np.diff(table.track) == 0) & (np.diff(table.frame) == 0)
        if same.any():
            i = same.argmax()
            video_id, track_id = video_ids[table.video[i]], track_ids[table.track[i]]
            raise DataError(f"duplicate detection for ({video_id}, {track_id}, frame {table.frame[i]})")
        return table

    def tracklet_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, stops) row offsets of each tracklet."""
        new = (np.diff(self.video) != 0) | (np.diff(self.track) != 0)
        return _bounds(new, len(self.frame))

    def run_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(starts, stops) of the maximal runs of consecutive frames within
        each tracklet."""
        new = (np.diff(self.video) != 0) | (np.diff(self.track) != 0) | (np.diff(self.frame) != 1)
        return _bounds(new, len(self.frame))


def frame_extent(n: int, *columns) -> Tuple[np.ndarray, np.ndarray]:
    """(first, last) frame of each code below n over pairs of (codes,
    frames) columns; (0, -1) for a code without rows, so last - first + 1
    is always the length of the span."""
    first, last = np.full(n, np.iinfo(np.int64).max), np.full(n, -1)
    for code, frame in columns:
        np.minimum.at(first, code, frame)
        np.maximum.at(last, code, frame)
    first[last < 0] = 0
    return first, last


class Labels(NamedTuple):
    """Frame labels as columns, one row per labeled frame, sorted by
    (video, frame); video ids are codes into a sorted name table."""

    video_ids: Tuple[str, ...]  # name table of the video codes
    video: np.ndarray  # int64 codes into video_ids
    frame: np.ndarray  # int64 frame indices
    positive: np.ndarray  # bool, True where the frame is labeled Anomalous

    @classmethod
    def from_columns(cls, video, frame, positive) -> "Labels":
        """Labels sorted by (video, frame) from per-row video ids, frames and flags;
        refuses columns of unequal length, negative frames and repeated (video, frame) rows."""
        frame, positive = np.asarray(frame, dtype=np.int64), np.asarray(positive, dtype=bool)
        if not len(video) == len(frame) == len(positive):
            raise DataError(f"label columns must have one length, got {len(video)}, {len(frame)}, {len(positive)}")
        if (frame < 0).any():
            raise DataError(f"frame_index must be non-negative, got {frame.min()}")
        video_ids, video = _code(video)
        order = np.lexsort((frame, video))
        labels = cls(video_ids, video[order], frame[order], positive[order])
        same = (np.diff(labels.video) == 0) & (np.diff(labels.frame) == 0)
        if same.any():
            i = same.argmax()
            raise DataError(f"duplicate label for ({video_ids[labels.video[i]]}, frame {labels.frame[i]})")
        return labels

    def search(self, video, frame) -> np.ndarray:
        """The number of label rows before each (video code, frame) in (video,
        frame) order: its label's row, or where that row would be inserted; a
        code of len(video_ids) sorts after every row. Broadcasts, so a (W, 1)
        column of codes meets a (W, T) block of frames."""
        frames = np.unique(self.frame)
        # (video code, frame rank) keys, with rank frames.size free for a frame past the last
        span = frames.size + 1
        key = np.asarray(video, dtype=np.int64) * span + np.searchsorted(frames, frame)
        return np.searchsorted(self.video * span + np.searchsorted(frames, self.frame), key)

    def rows(self, video, frame) -> np.ndarray:
        """The label row of each (video code, frame), -1 where none is labeled."""
        row = self.search(video, frame)
        hit = (np.append(self.video, -1)[row] == video) & (np.append(self.frame, -1)[row] == frame)
        return np.where(hit, row, -1)


MAX_WINDOW_PARAM = 10**6  # the largest T, stride, k or N a WindowingConfig takes


@dataclass(frozen=True)
class WindowingConfig:
    """Window geometry plus the skeleton layout needed to build features.

    ``hip_indices`` names the (left, right) hip joints used for person
    centers; unset, it is the COCO-17 pair (11, 12) when k >= 13, the
    first two joints when 2 <= k < 13 and the only joint when k == 1.
    Frame sizes come from the manifest, one per video. T, stride, k and N
    are at most ``MAX_WINDOW_PARAM``.
    """

    T: int = 24
    stride: int = 6
    k: int = 17
    N: int = 35
    hip_indices: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.hip_indices is None:
            hips = (11, 12) if self.k >= 13 else (0, 1) if self.k >= 2 else (0, 0)
            object.__setattr__(self, "hip_indices", hips)
        if self.T < 2:
            raise DataError(f"T must be >= 2, got {self.T}")
        if self.stride < 1:
            raise DataError(f"stride must be >= 1, got {self.stride}")
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.N < 1:
            raise DataError(f"N must be >= 1, got {self.N}")
        for name in ("T", "stride", "k", "N"):
            if getattr(self, name) > MAX_WINDOW_PARAM:
                raise DataError(f"{name} must be <= {MAX_WINDOW_PARAM}, got {getattr(self, name)}")
        if not 0 <= min(self.hip_indices) <= max(self.hip_indices) < self.k:
            raise DataError(f"hip indices {self.hip_indices} outside the {self.k}-keypoint layout")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


SPLITS: Tuple[Split, ...] = tuple(Split)  # WindowBatch.split codes index this


@dataclass(frozen=True)
class WindowBatch:
    """Feature windows as columns, one row per window.

    ``coords[w]`` is window w's (T, k, 2) tensor: k joints of one track
    (pose), its hip midpoint (trajectory, k = 1) or k = N social slots.
    ``mask`` marks the occupied entries; the others hold exactly (0, 0).
    Video and track ids are codes into sorted name tables, so code order
    is name order. A window's track ids are its row of ``track`` up to the
    first -1: one track for pose and trajectory windows, the track of each
    occupied social slot in slot order. The builders emit windows in
    (video, track ids, start) order. ``len()`` is the window count. Every
    batch refuses non-finite coordinates.
    """

    coords: np.ndarray  # (W, T, k, 2) float64
    mask: np.ndarray  # (W, T, k) bool
    video_ids: Tuple[str, ...]  # name table of the video codes
    video: np.ndarray  # (W,) int64 codes into video_ids
    start: np.ndarray  # (W,) int64 first frame of each window
    split: np.ndarray  # (W,) int8 codes into SPLITS
    track_ids: Tuple[str, ...]  # name table of the track codes
    track: np.ndarray  # (W, m) int64 codes into track_ids, -1 after a window's last track

    def __post_init__(self):
        if not np.isfinite(self.coords).all():
            raise DataError("window coordinates must be finite")

    def __len__(self) -> int:
        return len(self.start)

    @classmethod
    def from_columns(cls, coords, mask, video, start, split, tracks) -> "WindowBatch":
        """Checked batch, rows in the given order, from (W, T, k, 2)
        coordinates, a (W, T, k) mask, and per window a video id, a start
        frame, a ``Split`` and a sequence of track ids; refuses non-finite
        coordinates and masked-out entries other than (0, 0)."""
        coords, mask = np.asarray(coords, dtype=np.float64), np.asarray(mask, dtype=bool)
        if coords.ndim != 4 or coords.shape[3] != 2:
            raise DataError(f"coords must have shape (W, T, k, 2), got {coords.shape}")
        if mask.shape != coords.shape[:3]:
            raise DataError(f"window shape mismatch: mask {mask.shape} vs coords {coords.shape[:3]}")
        if not len(video) == len(start) == len(split) == len(tracks) == len(coords):
            raise DataError(f"window columns must have one length, got {len(coords)} windows")
        video_ids, video = _code(video)
        track_ids, codes = _code([track_id for ids in tracks for track_id in ids])
        counts = np.array([len(ids) for ids in tracks], dtype=np.int64)
        track = np.full((len(tracks), int(counts.max(initial=0))), -1, dtype=np.int64)
        track[np.arange(track.shape[1]) < counts[:, None]] = codes
        batch = cls(
            _freeze(coords), _freeze(mask), video_ids, video, np.asarray(start, dtype=np.int64),
            np.array([SPLITS.index(s) for s in split], dtype=np.int8), track_ids, track,
        )
        if coords[~mask].any():
            raise DataError("masked-out coordinates must be exactly (0, 0)")
        return batch


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
        counts = dict(zip([s.value for s in Split], self.counts))
        return {**asdict(self), "feature_type": self.feature_type.value, "counts": counts}


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
    """Per-frame anomaly scores as columns, one row per labeled frame, coded
    as the labels are; a higher score always means more anomalous."""

    video_ids: Tuple[str, ...]  # name table of the video codes
    video: np.ndarray  # int64 codes into video_ids
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
        return asdict(self)


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
        return asdict(self)
