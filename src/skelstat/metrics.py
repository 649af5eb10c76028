"""Score evaluation: ROC, precision-recall, equal error rate.

Scores are columns: ``scores`` (float64, higher = more anomalous) and
``positive`` (bool, True for Anomalous frames). ``roc_curve`` and
``pr_curve`` return ``(m, 3)`` arrays of (threshold, x, y) rows, read from
one table of distinct thresholds; ``auc_roc``, ``eer`` and
``error_rates`` read a ROC array and ``auc_pr`` a PR array.

Tied scores are processed as one threshold group, which makes the
trapezoidal AUC-ROC equal to the Mann-Whitney statistic with half-weight
ties. AUC-PR uses the step-wise area (no interpolation of precision).
Areas are summed left to right with ``np.cumsum``: pairwise summation
(``np.sum``) would change the last bits of the reported values.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .core import DataError, FrameScores, Labels, MetricsReport, WindowBatch


def _threshold_counts(scores, positive) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Distinct thresholds (descending) with cumulative TP/FP counts for the
    rule "predict positive when score >= threshold"."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if scores.ndim != 1 or scores.shape != positive.shape:
        raise DataError(f"scores {scores.shape} and labels {positive.shape} must be matching 1-D columns")
    if scores.size == 0:
        raise DataError("no samples to evaluate")
    if not np.isfinite(scores).all():
        raise DataError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    n_pos = int(np.count_nonzero(positive))
    n_neg = scores.size - n_pos
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    positive = positive[order]
    distinct = np.nonzero(np.diff(scores))[0]
    last = np.r_[distinct, len(scores) - 1]
    tp = np.cumsum(positive)[last]
    fp = (last + 1) - tp
    return scores[last], tp, fp, n_pos, n_neg


def roc_curve(scores, positive) -> np.ndarray:
    """(threshold, fpr, tpr) rows at every distinct threshold, from
    (inf, 0, 0) to (1, 1)."""
    thresholds, tp, fp, n_pos, n_neg = _threshold_counts(scores, positive)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one positive and one negative sample")
    return np.column_stack((np.r_[math.inf, thresholds], np.r_[0.0, fp / n_neg], np.r_[0.0, tp / n_pos]))


def auc_roc(roc: np.ndarray) -> float:
    """Trapezoidal area under a ``roc_curve``."""
    fpr, tpr = roc[:, 1], roc[:, 2]
    return float(np.cumsum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)[-1])


def pr_curve(scores, positive) -> np.ndarray:
    """(threshold, recall, precision) rows at every distinct threshold."""
    thresholds, tp, fp, n_pos, _ = _threshold_counts(scores, positive)
    if n_pos == 0:
        raise DataError("PR curve needs at least one positive sample")
    return np.column_stack((thresholds, tp / n_pos, tp / (tp + fp)))


def auc_pr(pr: np.ndarray) -> float:
    """Step-wise area under a ``pr_curve``."""
    recall, precision = pr[:, 1], pr[:, 2]
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def _rate_curves(roc: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FPR and FNR as functions of the threshold (descending), starting at
    the ROC's all-negative point, placed one unit above the top score."""
    thresholds = np.r_[roc[1, 0] + 1.0, roc[1:, 0]]
    return thresholds, roc[:, 1], 1.0 - roc[:, 2]


def error_rates(roc: np.ndarray, threshold: float) -> Tuple[float, float]:
    """(FPR, FNR) of the rule "positive when score >= threshold", read off
    the linearly interpolated rate curves between adjacent distinct
    thresholds of a ``roc_curve``."""
    thresholds, fpr, fnr = _rate_curves(roc)
    if threshold >= thresholds[0]:
        return float(fpr[0]), float(fnr[0])
    if threshold <= thresholds[-1]:
        return float(fpr[-1]), float(fnr[-1])
    j = int(np.searchsorted(-thresholds, -threshold, side="left"))
    if thresholds[j] == threshold:
        return float(fpr[j]), float(fnr[j])
    alpha = (thresholds[j - 1] - threshold) / (thresholds[j - 1] - thresholds[j])
    return (
        float(fpr[j - 1] + alpha * (fpr[j] - fpr[j - 1])),
        float(fnr[j - 1] + alpha * (fnr[j] - fnr[j - 1])),
    )


def eer(roc: np.ndarray) -> Tuple[float, float]:
    """Equal error rate and its threshold, from a ``roc_curve``.

    Both rates are linearly interpolated between adjacent distinct
    thresholds and the intersection point is returned; at that threshold
    the interpolated rates agree exactly. Direct counting at the same
    threshold can differ by at most the FPR+FNR jump across the crossing
    (tied scores cannot be split by any threshold).
    """
    thresholds, fpr, fnr = _rate_curves(roc)
    diff = fpr - fnr  # non-decreasing from -1 to +1
    j = int(np.searchsorted(diff >= 0, True))
    if diff[j] == 0.0:
        return float(fpr[j]), float(thresholds[j])
    alpha = -diff[j - 1] / (diff[j] - diff[j - 1])
    rate = float(fpr[j - 1] + alpha * (fpr[j] - fpr[j - 1]))
    threshold = float(thresholds[j - 1] + alpha * (thresholds[j] - thresholds[j - 1]))
    return rate, threshold


def windows_to_frame_scores(
    windows: WindowBatch,
    scores,
    labels: Labels,
    rows=None,
) -> Tuple[FrameScores, List[Tuple[str, int]]]:
    """Per-frame anomaly score = max over all scored windows covering the frame.

    ``scores[i]`` is the score of window ``rows[i]`` (of window i when
    ``rows`` is None). Labeled frames no window covers get the least
    anomalous covered frame's score (0.0 when no frame is covered). Returns
    every labeled frame's score, sorted by (video, frame), and the uncovered
    frame keys.
    """
    rows = np.arange(len(windows)) if rows is None else np.asarray(rows, dtype=np.int64)
    window_scores = np.asarray(scores, dtype=np.float64)
    if window_scores.shape != rows.shape:
        raise DataError(f"{window_scores.size} scores for {rows.size} windows")
    if not np.isfinite(window_scores).all():
        raise DataError(f"non-finite window score {window_scores[~np.isfinite(window_scores)][0]}")
    starts = windows.start[rows]
    if (starts < 0).any():
        raise DataError("window start frames must be non-negative")
    T = windows.coords.shape[1]
    names = np.unique(np.concatenate([labels.video, windows.video_ids]))
    window_video = np.searchsorted(names, windows.video_ids)[windows.video[rows]]
    label_video = np.searchsorted(names, labels.video)

    # one dense frame axis: a block per video, long enough for its windows and labels
    extent = np.zeros(len(names), dtype=np.int64)
    np.maximum.at(extent, window_video, starts + T)
    np.maximum.at(extent, label_video, labels.frame + 1)
    offset = np.cumsum(extent) - extent
    positions = (offset[window_video] + starts)[:, None] + np.arange(T)
    best = np.full(int(extent.sum()), -np.inf)  # -inf: no window covers the frame
    np.maximum.at(best, positions.ravel(), np.repeat(window_scores, T))

    frame_best = best[offset[label_video] + labels.frame]
    covered = np.isfinite(frame_best)
    observed = best[np.isfinite(best)]
    score = np.where(covered, frame_best, observed.min() if observed.size else 0.0)
    uncovered = list(zip(labels.video[~covered].tolist(), labels.frame[~covered].tolist()))
    return FrameScores(labels.video, labels.frame, score, labels.positive), uncovered


def metrics_report(
    scores, positive, uncovered_frames: int = 0
) -> Tuple[MetricsReport, np.ndarray, np.ndarray]:
    """AUC-ROC, AUC-PR and EER of one concatenated sample set, with the ROC
    and PR arrays they were read from."""
    roc = roc_curve(scores, positive)
    pr = pr_curve(scores, positive)
    eer_rate, eer_threshold = eer(roc)
    n_pos = int(np.count_nonzero(positive))
    report = MetricsReport(
        auc_roc=auc_roc(roc),
        auc_pr=auc_pr(pr),
        eer=eer_rate,
        eer_threshold=eer_threshold,
        n_pos=n_pos,
        n_neg=len(positive) - n_pos,
        uncovered_frames=uncovered_frames,
    )
    return report, roc, pr


def metrics_report_per_video(
    scores, positive, video, uncovered_frames: int = 0
) -> Tuple[MetricsReport, List[str]]:
    """Average the three metrics over videos instead of concatenating.

    Single-class videos cannot be scored and are skipped; their ids are
    returned alongside the averaged report.
    """
    scores, positive = np.asarray(scores), np.asarray(positive, dtype=bool)
    # codes, not `video == video_id`: numpy compares a str scalar without its trailing NULs
    video_ids, video = np.unique(np.asarray(video, dtype=object), return_inverse=True)
    reports = []
    skipped = []
    for code, video_id in enumerate(video_ids.tolist()):
        rows = video == code
        if positive[rows].all() or not positive[rows].any():
            skipped.append(video_id)
            continue
        reports.append(metrics_report(scores[rows], positive[rows])[0])
    if not reports:
        raise DataError("no video has both classes; per-video averaging impossible")
    return (
        MetricsReport(
            auc_roc=sum(r.auc_roc for r in reports) / len(reports),
            auc_pr=sum(r.auc_pr for r in reports) / len(reports),
            eer=sum(r.eer for r in reports) / len(reports),
            eer_threshold=sum(r.eer_threshold for r in reports) / len(reports),
            n_pos=sum(r.n_pos for r in reports),
            n_neg=sum(r.n_neg for r in reports),
            uncovered_frames=uncovered_frames,
        ),
        skipped,
    )
