"""Output checks for the benchmark, independent of the program.

Every expected value is derived from the generator's spec and arrays
(``inputs.py``) with numpy and the standard library; nothing here imports
skelstat. A failed check raises ``CheckFailed``; a
check may return notes on defects it does not count as failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from inputs import HEIGHT, STRIDE, T, WIDTH, ScoreDataset, Track, TrackDataset

SPLITS = ("train", "val_normal", "val_anomalous")
SDOM_RTOL = 1e-9
AUC_ATOL = 1e-12


class CheckFailed(Exception):
    """An output of the program differs from what the inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _load_json(path: Path):
    require(path.is_file(), f"missing output {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} is not valid JSON: {exc}") from None


def _split(data: TrackDataset, video: str, start: int) -> str:
    if data.videos[video] == "train":
        return "train"
    return "val_anomalous" if data.labels[video][start : start + T].any() else "val_normal"


def track_window_starts(track: Track) -> Iterator[int]:
    """Row index of each window's first frame: every STRIDE-th T-frame slice
    of each run of consecutive frames."""
    breaks = np.nonzero(np.diff(track.frames) != 1)[0] + 1
    edges = [0, *breaks.tolist(), track.frames.size]
    for a, b in zip(edges, edges[1:]):
        yield from range(a, b - T + 1, STRIDE)


def social_window_starts(data: TrackDataset, video: str) -> range:
    """Start frames of one video's social windows, over every frame that has
    a detection or a label."""
    frames = [t.frames for t in data.tracks if t.video == video]
    if video in data.labels:
        frames.append(np.arange(data.labels[video].size))
    seen = np.concatenate(frames)
    return range(int(seen.min()), int(seen.max()) - T + 2, STRIDE)


def window_counts(data: TrackDataset, feature: str) -> Dict[str, int]:
    """Windows per split by the window-count law."""
    counts = dict.fromkeys(SPLITS, 0)
    if feature == "social":
        for video in data.videos:
            for start in social_window_starts(data, video):
                counts[_split(data, video, start)] += 1
        return counts
    for track in data.tracks:
        for i in track_window_starts(track):
            counts[_split(data, track.video, int(track.frames[i]))] += 1
    return counts


def expected_sdom(data: TrackDataset, feature: str) -> Tuple[float, float]:
    """(delta_n, delta_a) of centred pose or trajectory windows, from the
    generator's arrays: training mean vs each validation split's mean,
    Frobenius norm over T."""
    left, right = data.spec.hips
    center = np.array([WIDTH / 2.0, HEIGHT / 2.0])
    by_split: Dict[str, List[np.ndarray]] = {s: [] for s in SPLITS}
    for track in data.tracks:
        coords = track.coords
        if feature == "traj":
            coords = ((coords[:, left] + coords[:, right]) / 2.0)[:, None, :]
            anchor_left = anchor_right = 0
        else:
            anchor_left, anchor_right = left, right
        for i in track_window_starts(track):
            window = coords[i : i + T]
            anchor = (window[0, anchor_left] + window[0, anchor_right]) / 2.0
            split = _split(data, track.video, int(track.frames[i]))
            by_split[split].append(window + (center - anchor))
    means = {s: np.mean(np.stack(w), axis=0) for s, w in by_split.items()}
    delta_n = float(np.linalg.norm(means["train"] - means["val_normal"])) / T
    delta_a = float(np.linalg.norm(means["train"] - means["val_anomalous"])) / T
    return delta_n, delta_a


def _check_sdom_entry(entry: dict, counts: Dict[str, int], feature: str) -> None:
    require(entry.get("feature_type") == feature, f"{feature}: wrong feature_type")
    require(entry.get("counts") == counts, f"{feature}: S-DoM counts {entry.get('counts')} != {counts}")
    require(
        entry["sdom"] == entry["delta_a"] - entry["delta_n"],
        f"{feature}: sdom != delta_a - delta_n",
    )


def _close(actual: float, expected: float, scale: float, what: str) -> None:
    require(
        abs(actual - expected) <= SDOM_RTOL * max(scale, 1e-300),
        f"{what}: {actual!r} differs from recomputed {expected!r}",
    )


def _csv_rows(path: Path, header: List[str]) -> List[List[str]]:
    require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == header, f"{path.name}: bad header")
    require(all(len(r) == len(header) for r in rows[1:]), f"{path.name}: malformed row")
    return rows[1:]


def _hist_counts(path: Path) -> int:
    return sum(int(row[2]) for row in _csv_rows(path, ["bin_left", "bin_right", "count", "split"]))


def check_report(out: Path, data: TrackDataset) -> None:
    """``skelstat report``: window counts, S-DoM and histogram totals."""
    report = _load_json(out / "report.json")
    features = report.get("features", {})
    require(sorted(features) == ["pose", "social", "traj"], "report: wrong feature set")
    sdoms = {}
    for feature, entry in features.items():
        counts = window_counts(data, feature)
        require(entry.get("counts") == counts, f"{feature}: window counts {entry.get('counts')} != {counts}")
        require("sdom" in entry, f"{feature}: S-DoM missing")
        sdom = entry["sdom"]
        _check_sdom_entry(sdom, counts, feature)
        sdoms[feature] = sdom["sdom"]
        if feature != "social":
            delta_n, delta_a = expected_sdom(data, feature)
            scale = max(delta_n, delta_a)
            _close(sdom["delta_n"], delta_n, scale, f"{feature} delta_n")
            _close(sdom["delta_a"], delta_a, scale, f"{feature} delta_a")
        for split in SPLITS:
            total = _hist_counts(out / f"hist_{feature}_{split}.csv")
            require(total == counts[split], f"{feature}/{split}: histogram holds {total} of {counts[split]}")
    require(
        report.get("ranking") == sorted(sdoms, key=sdoms.get, reverse=True),
        "report: ranking is not by descending S-DoM",
    )


def check_sdom(out: Path, data: TrackDataset, feature: str) -> None:
    """``skelstat sdom``: window counts per split and sdom arithmetic."""
    entry = _load_json(out / "sdom.json")
    _check_sdom_entry(entry, window_counts(data, feature), feature)


def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """AUC-ROC as the rank-sum statistic, ties at half weight; exact in
    integers until the final division."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.r_[0, np.nonzero(np.diff(sorted_scores))[0] + 1]
    ends = np.r_[starts[1:], scores.size]
    doubled_rank = np.empty(scores.size, dtype=np.int64)
    doubled_rank[order] = np.repeat(starts + ends + 1, ends - starts)  # 2 * average rank
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    u_doubled = int(doubled_rank[positive].sum()) - n_pos * (n_pos + 1)
    return u_doubled / (2 * n_pos * n_neg)


def step_auc_pr(scores: np.ndarray, positive: np.ndarray) -> float:
    """Step-wise area under precision-recall over distinct thresholds."""
    order = np.argsort(-scores, kind="stable")
    s, p = scores[order], positive[order]
    last = np.r_[np.nonzero(np.diff(s))[0], s.size - 1]
    tp = np.cumsum(p)[last]
    recall = tp / p.sum()
    precision = tp / (last + 1)
    return float(np.sum(np.diff(np.r_[0.0, recall]) * precision))


_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def _curve(rows: List[List[str]], name: str, notes: List[str]) -> np.ndarray:
    """Curve cells as numbers. Cells written as ``np.float64(v)`` (numpy's
    scalar repr) are read as ``v`` and reported in ``notes``, not failed:
    they are a formatting defect of the program, while these checks are
    about the curve's values."""
    values = []
    for row in rows:
        for cell in row:
            match = _NUMPY_SCALAR.fullmatch(cell)
            if match:
                cell = match.group(1)
                if not notes or not notes[-1].startswith(name):
                    notes.append(f"{name}: cells written as numpy scalar reprs, e.g. {row!r}")
            values.append(float(cell))
    return np.array(values).reshape(len(rows), -1)


def check_metrics(out: Path, data: ScoreDataset) -> List[str]:
    """``skelstat metrics``: class counts, AUC-ROC = Mann-Whitney, AUC-PR,
    and complete, monotone ROC/PR curve files."""
    videos = sorted(data.scores)
    scores = np.concatenate([data.scores[v] for v in videos])
    positive = np.concatenate([data.labels[v] for v in videos]).astype(bool)
    report = _load_json(out / "metrics.json")
    n_pos = int(positive.sum())
    require(report.get("n_pos") == n_pos, f"n_pos {report.get('n_pos')} != {n_pos}")
    require(report.get("n_neg") == positive.size - n_pos, f"n_neg {report.get('n_neg')} != {positive.size - n_pos}")
    auc = mann_whitney_auc(scores, positive)
    require(abs(report["auc_roc"] - auc) <= AUC_ATOL, f"auc_roc {report['auc_roc']!r} != Mann-Whitney {auc!r}")
    ap = step_auc_pr(scores, positive)
    require(abs(report["auc_pr"] - ap) <= 1e-9, f"auc_pr {report['auc_pr']!r} != {ap!r}")
    require(0.0 <= report["eer"] <= 1.0, "eer outside [0, 1]")
    distinct = np.unique(scores).size
    notes: List[str] = []
    roc = _curve(_csv_rows(out / "roc.csv", ["threshold", "fpr", "tpr"]), "roc.csv", notes)
    require(len(roc) == distinct + 1, f"roc.csv has {len(roc)} points, expected {distinct + 1}")
    require(roc[0].tolist() == [math.inf, 0.0, 0.0] and roc[-1, 1:].tolist() == [1.0, 1.0],
            "roc.csv: curve does not run from (0, 0) to (1, 1)")
    require((np.diff(roc[:, 0]) < 0).all(), "roc.csv: thresholds not strictly descending")
    require((np.diff(roc[:, 1:], axis=0) >= 0).all(), "roc.csv: rates not monotone")
    pr = _curve(_csv_rows(out / "pr.csv", ["threshold", "recall", "precision"]), "pr.csv", notes)
    require(len(pr) == distinct, f"pr.csv has {len(pr)} points, expected {distinct}")
    require(pr[-1, 1] == 1.0 and (np.diff(pr[:, 1]) >= 0).all(), "pr.csv: recall not rising to 1")
    return notes


def check_synth(out: Path, n_train: int, n_val: int, frames: int, persons: int, k: int,
                anomaly_fraction: float, seed: int) -> None:
    """``skelstat synth``: the tracklet file re-parses to the expected number
    of well-formed detections; labels, scores and manifest are complete."""
    path = out / "tracklets.txt"
    require(path.is_file(), "missing output tracklets.txt")
    keys = set()
    number = 0
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            require(len(fields) == 4, f"tracklets.txt:{number}: {len(fields)} fields")
            video, frame, track, kp = fields
            try:
                frame_index = int(frame)
                values = [float(v) for triple in kp.split(";") for v in triple.split(",")]
            except ValueError as exc:
                raise CheckFailed(f"tracklets.txt:{number}: {exc}") from None
            require(0 <= frame_index < frames, f"tracklets.txt:{number}: frame {frame}")
            require(len(values) == 3 * k, f"tracklets.txt:{number}: {len(values)} values")
            require(all(math.isfinite(v) for v in values), f"tracklets.txt:{number}: non-finite value")
            require(all(0.0 <= c <= 1.0 for c in values[2::3]), f"tracklets.txt:{number}: confidence")
            keys.add((video, track, frame))
    expected = (n_train + n_val) * frames * persons
    require(len(keys) == number == expected, f"tracklets.txt: {len(keys)} detections, expected {expected}")

    with open(out / "labels.csv", encoding="utf-8") as fh:
        labels = [line.rstrip("\n").split(",") for line in fh]
    require(len(labels) == n_val * frames, f"labels.csv: {len(labels)} rows, expected {n_val * frames}")
    anomalous: Dict[str, int] = {}
    for video, _, value in labels:
        require(value in ("0", "1"), f"labels.csv: label {value!r}")
        anomalous[video] = anomalous.get(video, 0) + int(value)
    segment = round(anomaly_fraction * frames)
    require(sorted(anomalous.values()) == [segment] * n_val, "labels.csv: wrong anomalous segment length")

    with open(out / "scores_distance.csv", encoding="utf-8") as fh:
        scores = [float(line.rsplit(",", 1)[1]) for line in fh]
    require(len(scores) == n_val * frames, f"scores_distance.csv: {len(scores)} rows")
    require(all(math.isfinite(s) for s in scores), "scores_distance.csv: non-finite score")
    manifest = _load_json(out / "manifest.json")
    require(len(manifest) == n_train + n_val, "manifest.json: wrong video count")
    require(_load_json(out / "synth_spec.json").get("seed") == seed, "synth_spec.json: wrong seed")
