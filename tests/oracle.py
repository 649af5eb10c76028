"""Naive reference versions of the windowing and analysis rules, written
from the README.

The program builds windows with array arithmetic; these functions rebuild
them one frame at a time from plain dicts, so the two can be compared on
any dataset. Only the parsers come from skelstat: both sides read the same
text files. The analysis part (split means, S-DoM and distances to the
training mean) works on ``Window`` tuples, one coordinate at a time.

A window is a ``Window`` tuple of plain Python values; ``OracleError``
carries the text of the error the program must raise.
"""

import math
from typing import Dict, List, NamedTuple, Tuple

from skelstat.ingest import parse_labels, parse_manifest, parse_tracklets

Point = Tuple[float, float]


class OracleError(Exception):
    """A dataset the rules refuse; the message is the program's error text."""


class Window(NamedTuple):
    video: str
    track_ids: Tuple[str, ...]
    start: int
    split: str  # "train", "val_normal" or "val_anomalous"
    coords: List[List[Point]]  # T rows of k (pose), 1 (traj) or N (social) points
    mask: List[List[bool]]


class Dataset(NamedTuple):
    tracks: Dict[str, Dict[str, Dict[int, List[Point]]]]  # video -> track -> frame -> k joints
    labels: Dict[str, Dict[int, bool]]  # video -> frame -> anomalous
    videos: Dict[str, Tuple[str, float, float]]  # video -> (split, width, height)


def read_dataset(tracklets_text: str, labels_text: str, manifest_text: str, k: int) -> Dataset:
    """The three canonical files as plain dicts."""
    detections = parse_tracklets(tracklets_text, k)
    tracks: Dict[str, Dict[str, Dict[int, List[Point]]]] = {}
    rows = zip(
        detections.video.tolist(), detections.track.tolist(), detections.frame.tolist(),
        detections.kp[:, :, :2].tolist(),
    )
    for video, track, frame, joints in rows:
        video_tracks = tracks.setdefault(detections.video_ids[video], {})
        video_tracks.setdefault(detections.track_ids[track], {})[frame] = [tuple(p) for p in joints]
    labels: Dict[str, Dict[int, bool]] = {}
    table = parse_labels(labels_text)
    for video, frame, positive in zip(table.video.tolist(), table.frame.tolist(), table.positive.tolist()):
        labels.setdefault(video, {})[frame] = positive
    videos = {v: (m.split, m.width, m.height) for v, m in parse_manifest(manifest_text).items()}
    return Dataset(tracks, labels, videos)


def window_split(data: Dataset, video: str, start: int, T: int) -> str:
    """Training windows are normal; a validation window is anomalous when
    any of its T frames is, and an unlabeled frame inside it is an error."""
    if data.videos[video][0] == "train":
        return "train"
    labels = data.labels.get(video, {})
    anomalous = False
    for frame in range(start, start + T):
        if frame not in labels:
            raise OracleError(f"unlabeled validation frame ({video}, {frame}) inside window")
        anomalous = anomalous or labels[frame]
    return "val_anomalous" if anomalous else "val_normal"


def hip_midpoint(joints: List[Point], hips: Tuple[int, int]) -> Point:
    left, right = joints[hips[0]], joints[hips[1]]
    return ((left[0] + right[0]) / 2.0, (left[1] + right[1]) / 2.0)


def runs(frames) -> List[List[int]]:
    """Maximal runs of consecutive frames, in frame order."""
    out: List[List[int]] = []
    for frame in sorted(frames):
        if out and frame == out[-1][-1] + 1:
            out[-1].append(frame)
        else:
            out.append([frame])
    return out


def track_windows(
    data: Dataset, feature: str, T: int, stride: int, hips: Tuple[int, int], center: bool
) -> List[Window]:
    """Pose or trajectory windows of every track: within each run of
    consecutive frames, one window at run offsets 0, stride, 2 * stride, ...
    as long as all T frames fit. A pose point is a joint, a trajectory point
    the hip midpoint. Centering shifts the whole window so that the first
    frame's hip midpoint (pose; the only joint when k = 1) or point
    (trajectory) lands on the frame center of the video. Windows come in
    (video, track, start) order."""
    out = []
    for video in sorted(data.tracks):
        _, width, height = data.videos[video]
        for track in sorted(data.tracks[video]):
            poses = data.tracks[video][track]
            for run in runs(poses):
                offset = 0
                while offset + T <= len(run):
                    frames = run[offset : offset + T]
                    if feature == "pose":
                        coords = [list(poses[f]) for f in frames]
                        k = len(coords[0])
                        anchor = hip_midpoint(coords[0], (0, 0) if k == 1 else hips)
                    else:
                        coords = [[hip_midpoint(poses[f], hips)] for f in frames]
                        anchor = coords[0][0]
                    if center:
                        dx, dy = width / 2.0 - anchor[0], height / 2.0 - anchor[1]
                        coords = [[(x + dx, y + dy) for x, y in row] for row in coords]
                    mask = [[True] * len(row) for row in coords]
                    split = window_split(data, video, frames[0], T)
                    out.append(Window(video, (track,), frames[0], split, coords, mask))
                    offset += stride
    return out


def social_windows(
    data: Dataset, T: int, stride: int, N: int, hips: Tuple[int, int], truncate: bool
) -> List[Window]:
    """Social windows of every video: starts advance by stride from the
    first to the last frame that has a detection or a label, as long as all
    T frames fit. The tracks with a detection inside a window fill its N
    slots in ascending id order; more than N tracks is an error unless
    ``truncate`` keeps the N lowest ids. A slot holds the track's hip
    midpoint where it has a detection and (0, 0), masked out, elsewhere.
    Windows come in (video, track ids, start) order."""
    out = []
    for video in sorted(data.videos):
        tracks = data.tracks.get(video, {})
        frames = [f for poses in tracks.values() for f in poses] + list(data.labels.get(video, {}))
        if not frames:
            continue
        start, last = min(frames), max(frames)
        while start + T - 1 <= last:
            present = sorted(
                track for track, poses in tracks.items()
                if any(start <= frame < start + T for frame in poses)
            )
            if len(present) > N:
                if not truncate:
                    raise OracleError(
                        f"social window ({video}, frames {start}..{start + T - 1}) has "
                        f"{len(present)} tracks, capacity N={N}"
                    )
                present = present[:N]
            coords = [[(0.0, 0.0)] * N for _ in range(T)]
            mask = [[False] * N for _ in range(T)]
            for slot, track in enumerate(present):
                for t in range(T):
                    joints = tracks[track].get(start + t)
                    if joints is not None:
                        coords[t][slot] = hip_midpoint(joints, hips)
                        mask[t][slot] = True
            split = window_split(data, video, start, T)
            out.append(Window(video, tuple(present), start, split, coords, mask))
            start += stride
    return sorted(out, key=lambda w: (w.video, w.track_ids, w.start))


SPLIT_NAMES = {"train": "train-normal", "val_normal": "val-normal", "val_anomalous": "val-anomalous"}


def split_mean(windows: List[Window], split: str) -> List[List[Point]]:
    """Element-wise mean of the coordinates of one split's windows."""
    grids = [w.coords for w in windows if w.split == split]
    if not grids:
        raise OracleError("cannot take the mean of zero windows")
    n, T, k = len(grids), len(grids[0]), len(grids[0][0])
    return [
        [
            (sum(g[t][j][0] for g in grids) / n, sum(g[t][j][1] for g in grids) / n)
            for j in range(k)
        ]
        for t in range(T)
    ]


def distance(a: List[List[Point]], b: List[List[Point]]) -> float:
    """Euclidean distance between two T x k grids of points, unscaled."""
    return math.sqrt(sum(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for row_a, row_b in zip(a, b) for p, q in zip(row_a, row_b)
    ))


def sdom(windows: List[Window]) -> Tuple[float, float, float]:
    """(Δn, Δa, S-DoM): the distances from the training mean to the
    val-normal and val-anomalous means, each scaled by 1/T, and Δa − Δn.
    Every split must hold a window."""
    for split, name in SPLIT_NAMES.items():
        if not any(w.split == split for w in windows):
            raise OracleError(f"{name} split is empty")
    train = split_mean(windows, "train")
    T = len(train)
    delta_n = distance(train, split_mean(windows, "val_normal")) / T
    delta_a = distance(train, split_mean(windows, "val_anomalous")) / T
    return delta_n, delta_a, delta_a - delta_n


def distances_to_train_mean(windows: List[Window], split: str) -> List[float]:
    """Unscaled distance of each window of one split, in window order, to
    the mean of the training windows."""
    train = split_mean(windows, "train")
    return [distance(w.coords, train) for w in windows if w.split == split]
