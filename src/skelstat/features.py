"""Window construction for the three input formulations.

Pose windows slice one tracklet into T-frame runs of all k keypoints.
Trajectory windows reduce each frame to the hip-midpoint person center
first. Social windows collect the centers of every person in the scene
into N zero-padded node slots per frame; the complete graph over the
slots is implied and never materialized.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .core import (
    DataError,
    Detections,
    FeatureType,
    FeatureWindow,
    Label,
    ParseError,
    Split,
    WindowingConfig,
)
from .ingest import DatasetBundle

logger = logging.getLogger(__name__)


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


def window_starts(run_length: int, T: int, stride: int) -> range:
    """Start offsets of windows inside a contiguous run of ``run_length`` frames."""
    if run_length < T:
        return range(0)
    return range(0, run_length - T + 1, stride)


def center_window(
    coords: np.ndarray,
    cfg: WindowingConfig,
    policy: CenterPolicy,
    anchor_indices: Optional[Tuple[int, int]] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Translate a whole window so the first frame's anchor midpoint sits at
    the frame center; the same vector is applied to every frame so relative
    movement is preserved.

    ``anchor_indices`` defaults to the configured hip pair for multi-joint
    windows and to node 0 for single-node (trajectory) windows. When a mask
    is given, only occupied entries are translated and the anchor is the
    centroid of the occupied nodes in the first frame.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if policy is CenterPolicy.NONE:
        return coords.copy()
    if mask is not None:
        occupied = np.asarray(mask, dtype=bool)
        first = occupied[0]
        if not first.any():
            return coords.copy()
        anchor = coords[0][first].mean(axis=0)
        shift = np.asarray(cfg.frame_center) - anchor
        out = coords.copy()
        out[occupied] += shift
        return out
    k = coords.shape[1]
    if anchor_indices is None:
        anchor_indices = (0, 0) if k == 1 else cfg.hip_indices
    if max(anchor_indices) >= k:
        raise DataError(f"anchor indices {anchor_indices} outside the {k}-joint layout")
    anchor = (coords[0, anchor_indices[0]] + coords[0, anchor_indices[1]]) / 2.0
    shift = np.asarray(cfg.frame_center) - anchor
    return coords + shift


def label_window(
    labels: np.ndarray,
    video_id: str,
    start: int,
    T: int,
    video_split: str,
) -> Label:
    """Any-anomalous rule over [start, start+T) of one video's dense labels
    (``Labels.dense``); training frames are implicitly Normal, unlabeled
    validation frames are an error."""
    if video_split == "train":
        return Label.NORMAL
    window = labels[start : start + T]
    missing = np.flatnonzero(window < 0)
    if missing.size or window.size < T:
        frame = start + (int(missing[0]) if missing.size else window.size)
        raise DataError(f"unlabeled validation frame ({video_id}, {frame}) inside window")
    return Label.ANOMALOUS if window.any() else Label.NORMAL


def _window_split(video_split: str, label: Label) -> Split:
    if video_split == "train":
        return Split.TRAIN
    return Split.VAL_ANOMALOUS if label is Label.ANOMALOUS else Split.VAL_NORMAL


def _windows_from_arrays(
    detections: Detections,
    coords: np.ndarray,
    cfg: WindowingConfig,
    labels: np.ndarray,
    center: CenterPolicy,
    video_split: str,
    anchor_indices: Optional[Tuple[int, int]],
) -> List[FeatureWindow]:
    T, stride = cfg.T, cfg.stride
    k = coords.shape[1]
    windows = []
    for a, b in zip(*(bounds.tolist() for bounds in detections.run_bounds())):
        video_id = detections.video_ids[detections.video[a]]
        track_id = detections.track_ids[detections.track[a]]
        for offset in window_starts(b - a, T, stride):
            i = a + offset
            start_frame = int(detections.frame[i])
            window_coords = center_window(coords[i : i + T], cfg, center, anchor_indices)
            label = label_window(labels, video_id, start_frame, T, video_split)
            windows.append(
                FeatureWindow(
                    coords=window_coords,
                    mask=np.ones((T, k), dtype=bool),
                    video_id=video_id,
                    start_frame=start_frame,
                    track_ids=(track_id,),
                    label=label,
                    split=_window_split(video_split, label),
                )
            )
    return windows


def build_pose_windows(
    detections: Detections,
    cfg: WindowingConfig,
    labels: np.ndarray,
    center: CenterPolicy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER,
    video_split: str = "val",
) -> List[FeatureWindow]:
    """T x k x 2 windows over every contiguous T-frame run of each tracklet
    of one video's detections; ``labels`` is that video's dense labels.

    Gapped tracklets yield fewer windows; no interpolation is attempted.
    """
    return _windows_from_arrays(
        detections, detections.kp[:, :, :2], cfg, labels, center, video_split, cfg.hip_indices
    )


def build_trajectory_windows(
    detections: Detections,
    cfg: WindowingConfig,
    labels: np.ndarray,
    center: CenterPolicy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER,
    video_split: str = "val",
) -> List[FeatureWindow]:
    """T x 1 x 2 windows of the hip-midpoint person center."""
    centers = person_center(detections.kp, cfg.hip_indices)[:, None, :]
    return _windows_from_arrays(detections, centers, cfg, labels, center, video_split, (0, 0))


def build_social_windows(
    bundle: DatasetBundle,
    cfg: Optional[WindowingConfig] = None,
    center: CenterPolicy = CenterPolicy.NONE,
    truncate: bool = False,
) -> List[FeatureWindow]:
    """T x N x 2 per-video windows of everyone's person center.

    Windows advance by ``stride`` over the video's full frame range. Every
    track seen inside a window's range gets one node slot (ascending
    track_id); frames where the track is absent stay zero with mask=false.
    More than N simultaneous tracks is an error unless ``truncate`` keeps
    the N lowest ids with a warning.
    """
    cfg = cfg or bundle.config
    windows: List[FeatureWindow] = []
    T, stride, N = cfg.T, cfg.stride, cfg.N

    by_video: Dict[str, Dict[str, Dict[int, List[float]]]] = {}
    for video_id, detections in bundle.detections.per_video().items():
        centers = person_center(detections.kp, cfg.hip_indices).tolist()
        frames = detections.frame.tolist()
        by_video[video_id] = {
            detections.track_ids[detections.track[a]]: dict(zip(frames[a:b], centers[a:b]))
            for a, b in zip(*(bounds.tolist() for bounds in detections.tracklet_bounds()))
        }

    for video_id in sorted(bundle.videos):
        video_split = bundle.videos[video_id].split
        tracks = by_video.get(video_id, {})
        video_labels = bundle.labels.dense(video_id)
        frames_seen = [f for track in tracks.values() for f in track]
        frames_seen += np.flatnonzero(video_labels >= 0).tolist()
        if not frames_seen:
            continue
        lo, hi = min(frames_seen), max(frames_seen)
        for start in range(lo, hi - T + 2, stride):
            present = sorted(
                tid
                for tid, track in tracks.items()
                if any(frame in track for frame in range(start, start + T))
            )
            if len(present) > N:
                if not truncate:
                    raise DataError(
                        f"social window ({video_id}, frames {start}..{start + T - 1}) has "
                        f"{len(present)} tracks, capacity N={N}"
                    )
                dropped = present[N:]
                present = present[:N]
                logger.warning(
                    "social window (%s, frames %d..%d): truncated %d tracks over capacity %d",
                    video_id, start, start + T - 1, len(dropped), N,
                )
            coords = np.zeros((T, N, 2), dtype=np.float64)
            mask = np.zeros((T, N), dtype=bool)
            for slot, tid in enumerate(present):
                track = tracks[tid]
                for t in range(T):
                    point = track.get(start + t)
                    if point is not None:
                        coords[t, slot] = point
                        mask[t, slot] = True
            if center is not CenterPolicy.NONE:
                coords = center_window(coords, cfg, center, mask=mask)
            label = label_window(video_labels, video_id, start, T, video_split)
            windows.append(
                FeatureWindow(
                    coords=coords,
                    mask=mask,
                    video_id=video_id,
                    start_frame=start,
                    track_ids=tuple(present),
                    label=label,
                    split=_window_split(video_split, label),
                )
            )
    return sort_windows(windows)


def build_windows(
    bundle: DatasetBundle,
    feature_type,
    center: CenterPolicy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER,
    truncate_social: bool = False,
) -> List[FeatureWindow]:
    """Build all windows of one feature type for a whole bundle.

    Per-video frame resolutions from the manifest override the config's
    global frame size for centering.
    """
    if feature_type is FeatureType.SOCIAL_TRAJECTORY:
        return build_social_windows(bundle, bundle.config, CenterPolicy.NONE, truncate_social)

    builder = (
        build_pose_windows if feature_type is FeatureType.POSE else build_trajectory_windows
    )
    windows: List[FeatureWindow] = []
    for video_id, detections in bundle.detections.per_video().items():
        meta = bundle.videos[video_id]
        cfg = replace(bundle.config, frame_width=meta.width, frame_height=meta.height)
        windows.extend(builder(detections, cfg, bundle.labels.dense(video_id), center, meta.split))
    return sort_windows(windows)


def sort_windows(windows: Iterable[FeatureWindow]) -> List[FeatureWindow]:
    """Canonical downstream ordering: (video_id, track_ids, start_frame)."""
    return sorted(windows, key=lambda w: (w.video_id, w.track_ids, w.start_frame))


def serialize_windows(windows: Iterable[FeatureWindow]) -> str:
    """Line-delimited export with bit-exact decimal round-trip."""
    lines = []
    for w in windows:
        T, k = w.shape
        coords_text = ",".join(repr(float(v)) for v in w.coords.reshape(-1))
        mask_text = "".join("1" if m else "0" for m in w.mask.reshape(-1))
        track_text = "|".join(w.track_ids)
        lines.append(
            f"{w.video_id}\t{w.start_frame}\t{w.split.value}\t{w.label.value}"
            f"\t{T}\t{k}\t{track_text}\t{coords_text}\t{mask_text}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_windows(stream) -> List[FeatureWindow]:
    from .ingest import _lines

    label_tokens = {l.value: l for l in Label}
    split_tokens = {s.value: s for s in Split}
    windows = []
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
        if split_text not in split_tokens or label_text not in label_tokens:
            raise ParseError(f"unknown split/label ({split_text!r}, {label_text!r})", line_number)
        values = coords_text.split(",")
        if len(values) != T * k * 2:
            raise ParseError(f"expected {T * k * 2} coordinates, got {len(values)}", line_number)
        if len(mask_text) != T * k:
            raise ParseError(f"expected {T * k} mask bits, got {len(mask_text)}", line_number)
        try:
            coords = np.array([float(v) for v in values], dtype=np.float64).reshape(T, k, 2)
        except ValueError:
            raise ParseError("invalid coordinate value", line_number) from None
        mask = np.array([c == "1" for c in mask_text], dtype=bool).reshape(T, k)
        windows.append(
            FeatureWindow(
                coords=coords,
                mask=mask,
                video_id=video_id,
                start_frame=start_frame,
                track_ids=tuple(track_text.split("|")) if track_text else (),
                label=label_tokens[label_text],
                split=split_tokens[split_text],
            )
        )
    return windows
