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
    Label,
    ParseError,
    Split,
    WindowBatch,
)
from .ingest import DatasetBundle, _lines

logger = logging.getLogger(__name__)

_TRAIN, _VAL_NORMAL, _VAL_ANOMALOUS = (SPLITS.index(s) for s in Split)


class CenterPolicy(Enum):
    NONE = "none"
    FIRST_POSE_TO_FRAME_CENTER = "first_pose_to_frame_center"


def person_center(kp: np.ndarray, hip_indices: Tuple[int, int] = (11, 12)) -> np.ndarray:
    """(D, 2) arithmetic midpoints of the two hip keypoints' (x, y) in
    (D, k, >= 2) keypoint rows."""
    left, right = hip_indices
    if max(left, right) >= kp.shape[1]:
        raise DataError(f"hip indices {hip_indices} outside the {kp.shape[1]}-keypoint layout")
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
    if max(anchor_indices) >= k:
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
    bundle: DatasetBundle, video_ids: np.ndarray, video: np.ndarray, start: np.ndarray, T: int
) -> Tuple[np.ndarray, Optional[Tuple[int, DataError]]]:
    """Split codes (``SPLITS``) of windows sorted by video, by the
    any-anomalous rule over each window's T frames: training windows are
    Normal, and an unlabeled validation frame is an error. Returns the codes
    and, for the first window in the given order that holds an unlabeled
    validation frame, its index and the error (None if no window does).
    """
    split = np.full(len(start), _TRAIN, dtype=np.int8)
    is_val = np.array([bundle.videos[v].split != "train" for v in video_ids], dtype=bool)
    rows = np.flatnonzero(is_val[video])
    if not len(rows):
        return split, None

    # one label axis: a block per validation video, as long as its windows reach
    extent = np.zeros(len(video_ids), dtype=np.int64)
    np.maximum.at(extent, video[rows], start[rows] + T)
    offset = np.cumsum(extent) - extent
    labels = bundle.labels
    code = np.minimum(np.searchsorted(video_ids, labels.video), len(video_ids) - 1)
    keep = (video_ids[code] == labels.video) & (labels.frame < extent[code])
    axis = np.full(int(extent.sum()), -1, dtype=np.int8)
    axis[offset[code[keep]] + labels.frame[keep]] = labels.positive[keep]

    at = offset[video[rows]] + start[rows]
    unlabeled = np.r_[0, np.cumsum(axis < 0)]
    missing = np.flatnonzero(unlabeled[at + T] > unlabeled[at])
    if missing.size:
        row, first = int(rows[missing[0]]), int(at[missing[0]])
        frame = int(start[row]) + int(np.argmax(axis[first : first + T] < 0))
        error = DataError(f"unlabeled validation frame ({video_ids[video[row]]}, {frame}) inside window")
        return split, (row, error)
    anomalous = np.r_[0, np.cumsum(axis > 0)]
    split[rows] = np.where(anomalous[at + T] > anomalous[at], _VAL_ANOMALOUS, _VAL_NORMAL)
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
    video_ids = np.array(detections.video_ids, dtype=object)
    video, start = detections.video[first], detections.frame[first]
    if center is not CenterPolicy.NONE:
        size = np.array([(bundle.videos[v].width, bundle.videos[v].height) for v in video_ids]).reshape(-1, 2)
        coords += _center_shift(coords, size[video] / 2.0, cfg.hip_indices)[:, None, None, :]
    split, unlabeled = _window_splits(bundle, video_ids, video, start, cfg.T)
    if unlabeled:
        raise unlabeled[1]
    return WindowBatch(
        coords, np.ones(coords.shape[:3], dtype=bool), video_ids, video, start, split,
        np.array(detections.track_ids, dtype=object), detections.track[first][:, None],
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
    video_ids = np.array(sorted(bundle.videos), dtype=object)
    row_video = np.searchsorted(video_ids, np.array(detections.video_ids, dtype=object))[detections.video]
    first = np.full(len(video_ids), np.iinfo(np.int64).max)
    last = np.full(len(video_ids), -1)
    for video, frame in ((row_video, detections.frame), (np.searchsorted(video_ids, labels.video), labels.frame)):
        np.minimum.at(first, video, frame)
        np.maximum.at(last, video, frame)
    window_video, start = window_starts(first, np.where(last >= 0, last - first + 1, 0), T, stride)
    n_windows = np.bincount(window_video, minlength=len(video_ids))

    # candidate windows of a tracklet: those whose T frames overlap its first..last frame
    tracklet_start, tracklet_stop = detections.tracklet_bounds()
    video = row_video[tracklet_start]
    lo = first[video]
    j_lo = np.maximum(-((lo + T - 1 - detections.frame[tracklet_start]) // stride), 0)
    j_hi = np.minimum((detections.frame[tracklet_stop - 1] - lo) // stride, n_windows[video] - 1)
    tracklet, offset = _expand(np.maximum(j_hi - j_lo + 1, 0))
    window = (np.cumsum(n_windows) - n_windows)[video[tracklet]] + j_lo[tracklet] + offset

    # a candidate is kept when its tracklet has rows in [start, start + T): the rows'
    # (tracklet, frame rank) keys ascend, so one searchsorted per bound finds them
    frames = np.unique(detections.frame)
    width = len(frames) + 1
    key = np.repeat(np.arange(len(tracklet_start)), tracklet_stop - tracklet_start) * width
    key += np.searchsorted(frames, detections.frame)
    base = tracklet * width
    row_lo = np.searchsorted(key, base + np.searchsorted(frames, start[window]))
    row_hi = np.searchsorted(key, base + np.searchsorted(frames, start[window] + T))
    present = np.flatnonzero(row_hi > row_lo)
    present = present[np.argsort(window[present], kind="stable")]  # by window, then track
    tracklet, window, row_lo, row_hi = tracklet[present], window[present], row_lo[present], row_hi[present]
    counts = np.bincount(window, minlength=len(start))
    slot = np.arange(len(window)) - (np.cumsum(counts) - counts)[window]

    split, unlabeled = _window_splits(bundle, video_ids, window_video, start, T)
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
    tracklet, window, row_lo, row_hi, slot = (a[kept] for a in (tracklet, window, row_lo, row_hi, slot))
    track = np.full((len(start), N), -1, dtype=np.int64)
    track[window, slot] = detections.track[tracklet_start[tracklet]]
    order = np.lexsort((start, *track.T[::-1], window_video))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))

    slot_of_row, offset = _expand(row_hi - row_lo)
    rows = row_lo[slot_of_row] + offset
    at = (position[window[slot_of_row]], detections.frame[rows] - start[window[slot_of_row]], slot[slot_of_row])
    coords = np.zeros((len(start), T, N, 2), dtype=np.float64)
    mask = np.zeros((len(start), T, N), dtype=bool)
    coords[at] = person_center(detections.kp, cfg.hip_indices)[rows]
    mask[at] = True
    return WindowBatch(
        coords, mask, video_ids, window_video[order], start[order], split[order],
        np.array(detections.track_ids, dtype=object), track[order],
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


def _label(split: Split) -> Label:
    """A window's label follows from its split: only val_anomalous is Anomalous."""
    return Label.ANOMALOUS if split is Split.VAL_ANOMALOUS else Label.NORMAL


def serialize_windows(windows: WindowBatch) -> str:
    """Line-delimited export with bit-exact decimal round-trip."""
    W, T, k = windows.mask.shape
    coords = windows.coords.reshape(W, T * k * 2).tolist()
    bits = (windows.mask.reshape(W, T * k).view(np.uint8) + ord("0")).tobytes().decode("ascii")
    lines = []
    rows = zip(windows.video.tolist(), windows.start.tolist(), windows.split.tolist(), windows.track.tolist())
    for i, (video, start, split, track) in enumerate(rows):
        split = SPLITS[split]
        track_text = "|".join(windows.track_ids[code] for code in track if code >= 0)
        lines.append(
            f"{windows.video_ids[video]}\t{start}\t{split.value}\t{_label(split).value}"
            f"\t{T}\t{k}\t{track_text}\t{','.join(map(repr, coords[i]))}\t{bits[i * T * k : (i + 1) * T * k]}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_windows(stream) -> WindowBatch:
    """Windows from a ``serialize_windows`` export; every line must have
    the first line's (T, k), and its label must follow from its split."""
    split_tokens = {s.value: s for s in Split}
    shape = None
    coords, masks, videos, starts, splits, tracks = [], [], [], [], [], []
    for line_number, line in enumerate(_lines(stream), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 9:
            raise ParseError(f"expected 9 tab-separated fields, got {len(parts)}", line_number)
        video_id, start_text, split_text, label_text, T_text, k_text, track_text, coords_text, mask_text = parts
        try:
            start_frame, T, k = int(start_text), int(T_text), int(k_text)
        except ValueError:
            raise ParseError("start_frame, T and k must be integers", line_number) from None
        if split_text not in split_tokens:
            raise ParseError(f"unknown split/label ({split_text!r}, {label_text!r})", line_number)
        if label_text != _label(split_tokens[split_text]).value:
            raise ParseError(f"label {label_text!r} does not match split {split_text!r}", line_number)
        shape = shape or (T, k)
        if (T, k) != shape:
            raise ParseError(f"window shape {(T, k)} differs from the first window's {shape}", line_number)
        values = coords_text.split(",")
        if len(values) != T * k * 2:
            raise ParseError(f"expected {T * k * 2} coordinates, got {len(values)}", line_number)
        if len(mask_text) != T * k:
            raise ParseError(f"expected {T * k} mask bits, got {len(mask_text)}", line_number)
        try:
            coords.append([float(v) for v in values])
        except ValueError:
            raise ParseError("invalid coordinate value", line_number) from None
        masks.append([c == "1" for c in mask_text])
        videos.append(video_id)
        starts.append(start_frame)
        splits.append(split_tokens[split_text])
        tracks.append(track_text.split("|") if track_text else [])
    T, k = shape or (0, 0)
    return WindowBatch.from_columns(
        np.array(coords, dtype=np.float64).reshape(len(coords), T, k, 2),
        np.array(masks, dtype=bool).reshape(len(masks), T, k),
        videos, starts, splits, tracks,
    )
