"""Naive reference versions of the windowing and analysis rules, written
from the README.

The program builds windows with array arithmetic; these functions rebuild
them one frame at a time from plain dicts, so the two can be compared on
any dataset. Only the parsers come from skelstat: both sides read the same
text files. ``export_text`` writes ``Window`` tuples in the windows export
format. The analysis part (split means, S-DoM and distances to the
training mean) works on ``Window`` tuples, one coordinate at a time. The
score part (AUC-ROC and the equal error rate) counts sample pairs and
thresholds one score at a time. ``validation`` counts what ``validate``
reports, one video and one frame at a time. ``read_labels`` and
``read_scores`` read the label and score CSVs one line at a time, and
``tracklet_text``, ``label_text``, ``score_text`` and ``embedding_text``
write those files one line at a time.

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


def validation(data: Dataset, T: int) -> dict:
    """The ``validate`` report of a dataset, video by video in id order.

    Per video: its tracks and detections, the first and last detected
    frame, its labeled and anomalous frames, the unlabeled frames between
    its first and last label (a warning when any) and the frames inside
    runs of at least T consecutive frames of one track. An anomalous label
    on a training video is fatal."""
    videos, fatal, warnings = [], [], []
    for video in sorted(data.videos):
        split = data.videos[video][0]
        tracks = data.tracks.get(video, {})
        labels = data.labels.get(video, {})
        frames = [frame for poses in tracks.values() for frame in poses]
        n_anomalous = sum(labels.values())
        if split == "train" and n_anomalous:
            fatal.append(f"training video {video!r} has {n_anomalous} anomalous-labeled frames")
        gaps = max(labels) - min(labels) + 1 - len(labels) if labels else 0
        if gaps:
            warnings.append(f"video {video!r}: {gaps} unlabeled frames inside label range")
        eligible = sum(len(run) for poses in tracks.values() for run in runs(poses) if len(run) >= T)
        videos.append({
            "video_id": video, "split": split, "n_tracklets": len(tracks), "n_detections": len(frames),
            "frame_range": [min(frames), max(frames)] if frames else None, "n_labeled": len(labels),
            "n_anomalous": n_anomalous, "label_gaps": gaps, "window_eligible_frames": eligible,
        })
    return {"ok": not fatal, "videos": videos, "fatal_errors": fatal, "warnings": warnings}


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


def export_text(windows: List[Window]) -> str:
    """The README's windows export, one tab-separated line per window: id,
    start, split, label (anomalous only for val_anomalous), T, k, the track
    ids joined by "|", the T x k x 2 coordinates as ``repr`` texts joined by
    ",", and one "1" or "0" mask bit per point."""
    lines = []
    for w in windows:
        label = "anomalous" if w.split == "val_anomalous" else "normal"
        coords = ",".join(repr(v) for row in w.coords for point in row for v in point)
        bits = "".join("1" if m else "0" for row in w.mask for m in row)
        lines.append("\t".join(map(str, (
            w.video, w.start, w.split, label, len(w.coords), len(w.coords[0]), "|".join(w.track_ids), coords, bits,
        ))))
    return "".join(line + "\n" for line in lines)


def tracklet_text(rows) -> str:
    """Tracklet lines of (video, frame, track, k x 3 values) rows: the
    values as ``repr`` texts, "x,y,c" per joint, joints joined by ";"."""
    lines = []
    for video, frame, track, values in rows:
        joints = [",".join(repr(v) for v in values[j : j + 3]) for j in range(0, len(values), 3)]
        lines.append(f"{video}\t{frame}\t{track}\t{';'.join(joints)}")
    return "".join(line + "\n" for line in lines)


def label_text(rows) -> str:
    """labels.csv lines of (video, frame, anomalous) rows."""
    return "".join(f"{video},{frame},{1 if anomalous else 0}\n" for video, frame, anomalous in rows)


def score_text(rows) -> str:
    """scores.csv lines of (video, frame, score) rows, each score as the
    ``repr`` of a Python float."""
    return "".join(f"{video},{frame},{float(score)!r}\n" for video, frame, score in rows)


def embedding_text(vectors, splits, sources, mu) -> str:
    """The embedding file: the "dim=<d> mu=<v1,...,vd>" header, then per
    vector its split, its values and, unless it is None, its source, joined
    by tabs. Values are ``repr`` texts of Python floats."""
    lines = [f"dim={len(mu)} mu=" + ",".join(repr(float(v)) for v in mu)]
    for vector, split, source in zip(vectors, splits, sources):
        fields = [split, ",".join(repr(float(v)) for v in vector)]
        lines.append("\t".join(fields if source is None else fields + [source]))
    return "".join(line + "\n" for line in lines)


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


def mann_whitney_auc(scores: List[float], positive: List[bool]) -> float:
    """AUC-ROC as the Mann-Whitney statistic: the share of (positive,
    negative) pairs whose positive scores higher, a tie counting one half
    (Fawcett 2006, "An introduction to ROC analysis"). O(n²)."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def counted_rates(scores: List[float], positive: List[bool], threshold: float) -> Tuple[float, float]:
    """(FPR, FNR) of the rule "positive when score >= threshold", by counting."""
    n_pos = sum(positive)
    fp = sum(1 for s, p in zip(scores, positive) if s >= threshold and not p)
    fn = sum(1 for s, p in zip(scores, positive) if s < threshold and p)
    return fp / (len(scores) - n_pos), fn / n_pos


def eer_crossing(scores: List[float], positive: List[bool]) -> Tuple[Tuple[float, float, float], ...]:
    """The equal error rate by direct counting: the (threshold, FPR, FNR)
    of the last threshold with FPR < FNR and of the first with FPR >= FNR,
    scanning one unit above the top score and then every distinct score
    downwards. The EER lies between the two."""
    thresholds = sorted(set(scores), reverse=True)
    previous = None
    for threshold in [thresholds[0] + 1.0] + thresholds:
        fpr, fnr = counted_rates(scores, positive, threshold)
        if fpr >= fnr:
            return previous, (threshold, fpr, fnr)
        previous = (threshold, fpr, fnr)
    raise AssertionError("FPR reaches 1 and FNR 0 at the lowest score")


class LineFault(NamedTuple):
    """The first faulty line of a file: the error text and its line number."""

    message: str
    line: int


INT64_MAX = 2**63 - 1


def read_csv(text: str, field: str, check):
    """The ``video_id,frame_index,<field>`` rows of a text, or the first
    ``LineFault``. Lines are those of ``str.splitlines``, stripped; blank
    lines are skipped. A frame index is a Python ``int`` within int64.
    ``check(video, frame, value)`` returns the row's kept value, or the
    text of a fault that outranks a repeated (video, frame)."""
    rows, seen = [], set()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            return LineFault(f"expected 'video_id,frame_index,{field}', got {line!r}", number)
        video, frame_text, value = fields
        try:
            frame = int(frame_text)
        except ValueError:
            return LineFault(f"invalid frame index {frame_text!r}", number)
        if frame > INT64_MAX:
            return LineFault(f"frame index {frame} too large", number)
        kept = check(video, frame, value)
        if isinstance(kept, str):
            return LineFault(kept, number)
        if (video, frame) in seen:
            return LineFault(f"duplicate {field} for ({video}, frame {frame})", number)
        seen.add((video, frame))
        rows.append((video, frame, kept))
    return sorted(rows)


def read_labels(text: str):
    """Sorted (video, frame, anomalous) rows of a labels.csv text, or its
    first ``LineFault``."""
    def check(video, frame, value):
        if frame < 0:
            return f"negative frame index {frame}"
        if value not in ("0", "1"):
            return f"label must be 0 or 1, got {value!r}"
        return value == "1"
    return read_csv(text, "label", check)


def read_scores(text: str, labels: Dict[Tuple[str, int], bool], sign: float):
    """Sorted (video, frame, sign * score, anomalous) rows of a scores.csv
    text joined to ``labels`` ((video, frame) -> anomalous), or its first
    ``LineFault``."""
    def check(video, frame, value):
        try:
            score = float(value)
        except ValueError:
            return f"invalid score {value!r}"
        if not math.isfinite(score):
            return f"non-finite score {value!r}"
        if (video, frame) not in labels:
            return f"score for unlabeled frame ({video}, {frame})"
        return score
    rows = read_csv(text, "score", check)
    if isinstance(rows, LineFault):
        return rows
    return [(video, frame, sign * score, labels[video, frame]) for video, frame, score in rows]
