"""Window construction for the three input formulations.

Pose windows slice one tracklet into T-frame runs of all k keypoints.
Trajectory windows reduce each frame to the hip-midpoint person center
first. Social windows collect the centers of every person in the scene
into N zero-padded node slots per frame; the complete graph over the
slots is implied and never materialized. ``build_windows`` returns the
windows of one feature for the whole bundle as one ``WindowBatch``.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .core import (
    SPLITS,
    DataError,
    FeatureType,
    Split,
    WindowBatch,
    frame_extent,
    video_names,
)
from .ingest import DatasetBundle, format_rows

logger = logging.getLogger(__name__)

_TRAIN, _VAL_NORMAL, _VAL_ANOMALOUS = (SPLITS.index(s) for s in Split)


class CenterPolicy(Enum):
    NONE = "none"
    FIRST_POSE_TO_FRAME_CENTER = "first_pose_to_frame_center"


def person_center(kp: np.ndarray, hip_indices: Tuple[int, int] = (11, 12)) -> np.ndarray:
    """(D, 2) arithmetic midpoints of the two hip keypoints' (x, y) in
    (D, k, >= 2) keypoint rows."""
    left, right = hip_indices
    if not 0 <= min(left, right) <= max(left, right) < kp.shape[1]:
        raise DataError(f"hip indices {hip_indices} outside the {kp.shape[1]}-keypoint layout")
    with np.errstate(over="ignore", invalid="ignore"):  # WindowBatch refuses a non-finite result
        return (kp[:, left, :2] + kp[:, right, :2]) / 2.0


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, i) for every i in range(counts[owner]), owner by owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def window_starts(run_starts, run_lengths, T: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """(run, start) of every window inside runs of consecutive frames (or
    rows) [start, start + length): one window at run offsets 0, stride,
    2 * stride, ... while all T frames fit, run by run."""
    run, offset = _expand(np.maximum(run_lengths - T + stride, 0) // stride)
    return run, run_starts[run] + stride * offset


def _center_shift(coords: np.ndarray, frame_center, hip_indices: Tuple[int, int]) -> np.ndarray:
    """The (..., 2) vector that moves the first frame's anchor of each
    (T, k, 2) window to its ``frame_center``: the hip midpoint, or joint 0
    when k == 1."""
    k = coords.shape[-2]
    anchor_indices = (0, 0) if k == 1 else hip_indices
    if not 0 <= min(anchor_indices) <= max(anchor_indices) < k:
        raise DataError(f"anchor indices {anchor_indices} outside the {k}-joint layout")
    first = coords[..., 0, :, :]
    anchor = (first[..., anchor_indices[0], :] + first[..., anchor_indices[1], :]) / 2.0
    return np.asarray(frame_center) - anchor


def center_window(coords: np.ndarray, frame_center, hip_indices: Tuple[int, int]) -> np.ndarray:
    """Translate one (T, k, 2) window, or each window of a (W, T, k, 2)
    stack, so the first frame's hip midpoint (joint 0 when k == 1) sits at
    ``frame_center`` (an (x, y) pair, or one per window); the same vector is
    applied to every frame so relative movement is preserved."""
    coords = np.asarray(coords, dtype=np.float64)
    return coords + _center_shift(coords, frame_center, hip_indices)[..., None, None, :]


def _window_splits(
    bundle: DatasetBundle, video: np.ndarray, start: np.ndarray, T: int
) -> Tuple[np.ndarray, Optional[Tuple[int, DataError]]]:
    """Split codes (``SPLITS``) of windows sorted by video, by the
    any-anomalous rule over each window's T frames: training windows are
    Normal, and an unlabeled validation frame is an error. Returns the codes
    and, for the first window in the given order that holds an unlabeled
    validation frame, its index and the error (None if no window does).
    """
    split = np.full(len(start), _TRAIN, dtype=np.int8)
    labels = bundle.labels
    is_val = np.array([bundle.videos[v].split != "train" for v in labels.video_ids], dtype=bool)
    rows = np.flatnonzero(is_val[video])
    # label rows [lo, hi) hold the window's frames; labels are unique per frame
    lo, hi = labels.search(video[rows][:, None], start[rows][:, None] + [0, T]).T
    missing = np.flatnonzero(hi - lo < T)
    if missing.size:
        i = missing[0]
        row = int(rows[i])
        frame = np.setdiff1d(np.arange(start[row], start[row] + T), labels.frame[lo[i] : hi[i]])[0]
        error = DataError(f"unlabeled validation frame ({labels.video_ids[video[row]]}, {frame}) inside window")
        return split, (row, error)
    anomalous = np.r_[0, np.cumsum(labels.positive)]
    split[rows] = np.where(anomalous[hi] > anomalous[lo], _VAL_ANOMALOUS, _VAL_NORMAL)
    return split, None


def _track_windows(bundle: DatasetBundle, points: np.ndarray, center: CenterPolicy) -> WindowBatch:
    """Windows of T consecutive frames over (D, k, 2) per-detection points,
    stride apart inside every run of consecutive frames of each tracklet;
    gapped tracklets yield fewer windows, with no interpolation. Rows come
    in (video, track, start) order, as the detections are sorted. Centering
    moves each window to its video's frame center from the manifest."""
    detections, cfg = bundle.detections, bundle.config
    starts, stops = detections.run_bounds()
    _, first = window_starts(starts, stops - starts, cfg.T, cfg.stride)
    coords = points[first[:, None] + np.arange(cfg.T)]
    video, start = detections.video[first], detections.frame[first]
    if center is not CenterPolicy.NONE:
        size = np.array([(m.width, m.height) for m in map(bundle.videos.get, detections.video_ids)]).reshape(-1, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # WindowBatch refuses a non-finite result
            coords += _center_shift(coords, size[video] / 2.0, cfg.hip_indices)[:, None, None, :]
    split, unlabeled = _window_splits(bundle, video, start, cfg.T)
    if unlabeled:
        raise unlabeled[1]
    return WindowBatch(
        coords, np.ones(coords.shape[:3], dtype=bool), detections.video_ids, video, start, split,
        detections.track_ids, detections.track[first][:, None],
    )


def _social_windows(bundle: DatasetBundle, truncate: bool) -> WindowBatch:
    """T x N x 2 per-video windows of everyone's person center.

    Windows advance by ``stride`` over the video's frame range, from its
    first to its last frame with a detection or a label. Every track with a
    detection inside a window's T frames gets one node slot (ascending
    track id); frames where the track is absent stay zero with mask=false.
    More than N such tracks is an error unless ``truncate`` keeps the N
    lowest ids with a warning.
    """
    detections, labels, cfg = bundle.detections, bundle.labels, bundle.config
    T, stride, N = cfg.T, cfg.stride, cfg.N
    video_ids, row_video = detections.video_ids, detections.video
    first, last = frame_extent(len(video_ids), (row_video, detections.frame), (labels.video, labels.frame))
    window_video, start = window_starts(first, last - first + 1, T, stride)
    n_windows = np.bincount(window_video, minlength=len(video_ids))

    # (window, row) pairs: a row lies in the windows of its video whose T frames hold its frame
    rel = detections.frame - first[row_video]
    j_lo = np.maximum(-((T - 1 - rel) // stride), 0)
    j_hi = np.minimum(rel // stride, n_windows[row_video] - 1)
    row, offset = _expand(np.maximum(j_hi - j_lo + 1, 0))
    window = (np.cumsum(n_windows) - n_windows)[row_video[row]] + j_lo[row] + offset
    # a window lies in one video, so (window, track) names a tracklet: the distinct
    # pairs, ascending, are the occupied slots by window, then track id
    n_tracks = len(detections.track_ids)
    occupied, pair = np.unique(window * n_tracks + detections.track[row], return_inverse=True)
    slot_window, slot_track = np.divmod(occupied, n_tracks)
    counts = np.bincount(slot_window, minlength=len(start))
    slot = np.arange(len(occupied)) - (np.cumsum(counts) - counts)[slot_window]

    split, unlabeled = _window_splits(bundle, window_video, start, T)
    stop = unlabeled[0] if unlabeled else len(start)
    for w in np.flatnonzero(counts > N).tolist():
        if w > stop:
            break
        video_id, frame = video_ids[window_video[w]], int(start[w])
        if not truncate:
            raise DataError(
                f"social window ({video_id}, frames {frame}..{frame + T - 1}) has "
                f"{counts[w]} tracks, capacity N={N}"
            )
        logger.warning(
            "social window (%s, frames %d..%d): truncated %d tracks over capacity %d",
            video_id, frame, frame + T - 1, counts[w] - N, N,
        )
    if unlabeled:
        raise unlabeled[1]

    kept = slot < N
    track = np.full((len(start), N), -1, dtype=np.int64)
    track[slot_window[kept], slot[kept]] = slot_track[kept]
    order = np.lexsort((start, *track.T[::-1], window_video))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))

    held = kept[pair]  # the (window, row) pairs whose tracklet kept its slot
    row, window, slot = row[held], window[held], slot[pair[held]]
    at = (position[window], detections.frame[row] - start[window], slot)
    coords = np.zeros((len(start), T, N, 2), dtype=np.float64)
    mask = np.zeros((len(start), T, N), dtype=bool)
    coords[at] = person_center(detections.kp, cfg.hip_indices)[row]
    mask[at] = True
    return WindowBatch(
        coords, mask, video_ids, window_video[order], start[order], split[order],
        detections.track_ids, track[order],
    )


def build_windows(
    bundle: DatasetBundle,
    feature_type,
    center: CenterPolicy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER,
    truncate_social: bool = False,
) -> WindowBatch:
    """All windows of one feature type for a whole bundle, in (video, track
    ids, start) order: T x k x 2 pose windows, T x 1 x 2 windows of the
    hip-midpoint person center, or T x N x 2 social windows.

    Centering uses each video's frame size from the manifest; social
    windows are not centered.
    """
    if feature_type is FeatureType.SOCIAL_TRAJECTORY:
        return _social_windows(bundle, truncate_social)
    kp = bundle.detections.kp
    if feature_type is FeatureType.POSE:
        return _track_windows(bundle, kp[:, :, :2], center)
    return _track_windows(bundle, person_center(kp, bundle.config.hip_indices)[:, None, :], center)


def serialize_windows(windows: WindowBatch) -> str:
    """Line-delimited export with bit-exact decimal round-trip."""
    W, T, k = windows.mask.shape
    bits = (windows.mask.reshape(W, T * k).view(np.uint8) + ord("0")).tobytes().decode("ascii")
    columns = [
        video_names(windows),
        windows.start,
        np.array([s.value for s in SPLITS], dtype=object)[windows.split],
        np.where(windows.split == _VAL_ANOMALOUS, "anomalous", "normal"),
        ["|".join(windows.track_ids[code] for code in row if code >= 0) for row in windows.track.tolist()],
        windows.coords.reshape(W, T * k * 2).T,
        [bits[a : a + T * k] for a in range(0, W * T * k, T * k)],
    ]
    return format_rows(f"%s\t%s\t%s\t%s\t{T}\t{k}\t%s\t" + ",".join(["%r"] * (T * k * 2)) + "\t%s", columns)
