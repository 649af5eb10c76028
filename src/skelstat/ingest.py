"""Parsing, validation and serialization of the canonical dataset files.

Canonical formats (all UTF-8, line-delimited):

* tracklets: ``video_id<TAB>frame_index<TAB>track_id<TAB>x1,y1,c1;x2,y2,c2;...``
* labels:    ``video_id,frame_index,label`` with label 0 (normal) / 1 (anomalous)
* embeddings: header ``dim=<d> mu=<v1,...,vd>`` then ``split<TAB>v1,...,vd``
* scores:    ``video_id,frame_index,score``
* manifest:  JSON mapping video_id -> {"split": "train"|"val", "width": W, "height": H}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DataError,
    EmbeddingPrior,
    FrameLabel,
    FrameScores,
    Keypoint,
    Label,
    ParseError,
    PoseDetection,
    Split,
    Tracklet,
    WindowingConfig,
)


class ScorePolarity(Enum):
    ANOMALY = "anomaly"  # higher = more anomalous, stored as-is
    NORMALITY = "normality"  # higher = more normal, negated at ingest


@dataclass(frozen=True)
class VideoMeta:
    """Per-video manifest entry: split assignment and frame resolution."""

    split: str  # "train" | "val"
    width: float
    height: float

    def __post_init__(self):
        if self.split not in ("train", "val"):
            raise DataError(f"video split must be 'train' or 'val', got {self.split!r}")
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise DataError("video dimensions must be finite and positive")


@dataclass
class DatasetBundle:
    """A fully assembled dataset: tracklets, labels, manifest, window config."""

    tracklets: List[Tracklet]
    labels: List[FrameLabel]
    videos: Dict[str, VideoMeta]
    config: WindowingConfig

    def __post_init__(self):
        for tracklet in self.tracklets:
            if tracklet.video_id not in self.videos:
                raise DataError(f"tracklet video {tracklet.video_id!r} missing from manifest")
        for lab in self.labels:
            if lab.video_id not in self.videos:
                raise DataError(f"label video {lab.video_id!r} missing from manifest")

    def label_index(self) -> Dict[Tuple[str, int], Label]:
        return {(l.video_id, l.frame_index): l.label for l in self.labels}


def _lines(stream) -> Iterable[str]:
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        return stream.splitlines()
    return (line.decode("utf-8") if isinstance(line, bytes) else line for line in stream)


def _parse_float(text: str, what: str, line_number: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"invalid {what} {text!r}", line_number) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {text!r}", line_number)
    return value


def _parse_int(text: str, what: str, line_number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid {what} {text!r}", line_number) from None


def parse_tracklets(stream, k: int) -> List[Tracklet]:
    """Parse the tracklet file, grouping detections into sorted tracklets.

    Rejects malformed lines, keypoint counts other than ``k``, duplicate
    (video, track, frame) triples and non-finite coordinates.
    """
    detections: Dict[Tuple[str, str], Dict[int, PoseDetection]] = {}
    for line_number, line in enumerate(_lines(stream), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_number)
        video_id, frame_text, track_id, kp_text = parts
        frame_index = _parse_int(frame_text, "frame index", line_number)
        if frame_index < 0:
            raise ParseError(f"negative frame index {frame_index}", line_number)
        triples = kp_text.split(";")
        if len(triples) != k:
            raise ParseError(f"expected {k} keypoints, got {len(triples)}", line_number)
        keypoints = []
        for triple in triples:
            fields = triple.split(",")
            if len(fields) != 3:
                raise ParseError(f"keypoint must be 'x,y,c', got {triple!r}", line_number)
            x = _parse_float(fields[0], "x coordinate", line_number)
            y = _parse_float(fields[1], "y coordinate", line_number)
            c = _parse_float(fields[2], "confidence", line_number)
            if not 0.0 <= c <= 1.0:
                raise ParseError(f"confidence {c} outside [0, 1]", line_number)
            keypoints.append(Keypoint(x, y, c))
        key = (video_id, track_id)
        per_track = detections.setdefault(key, {})
        if frame_index in per_track:
            raise ParseError(
                f"duplicate detection for ({video_id}, {track_id}, frame {frame_index})",
                line_number,
            )
        per_track[frame_index] = PoseDetection(video_id, frame_index, track_id, tuple(keypoints))

    tracklets = []
    for (video_id, track_id) in sorted(detections):
        per_track = detections[(video_id, track_id)]
        ordered = tuple(per_track[f] for f in sorted(per_track))
        tracklets.append(Tracklet(video_id, track_id, ordered))
    return tracklets


def serialize_tracklets(tracklets: Iterable[Tracklet]) -> str:
    lines = []
    for tracklet in tracklets:
        for det in tracklet.detections:
            kp_text = ";".join(
                f"{float(kp.x)!r},{float(kp.y)!r},{float(kp.confidence)!r}" for kp in det.keypoints
            )
            lines.append(f"{det.video_id}\t{det.frame_index}\t{det.track_id}\t{kp_text}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_labels(stream) -> List[FrameLabel]:
    """Parse the frame-label CSV; 0 maps to Normal, 1 to Anomalous."""
    seen = set()
    labels = []
    for line_number, line in enumerate(_lines(stream), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 'video_id,frame_index,label', got {line!r}", line_number)
        video_id = parts[0]
        frame_index = _parse_int(parts[1], "frame index", line_number)
        if parts[2] not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {parts[2]!r}", line_number)
        key = (video_id, frame_index)
        if key in seen:
            raise ParseError(f"duplicate label for ({video_id}, frame {frame_index})", line_number)
        seen.add(key)
        labels.append(FrameLabel(video_id, frame_index, Label.ANOMALOUS if parts[2] == "1" else Label.NORMAL))
    labels.sort(key=lambda l: (l.video_id, l.frame_index))
    return labels


def serialize_labels(labels: Iterable[FrameLabel]) -> str:
    lines = [
        f"{l.video_id},{l.frame_index},{1 if l.label is Label.ANOMALOUS else 0}"
        for l in sorted(labels, key=lambda l: (l.video_id, l.frame_index))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


_SPLIT_TOKENS = {s.value: s for s in Split}


def parse_embeddings(stream) -> Tuple[np.ndarray, np.ndarray, List[Optional[str]], EmbeddingPrior]:
    """Parse the embedding file; the header carries the prior mean.

    Returns the (n, d) vectors, their split tokens (``Split`` values), the
    source window ids (None where a line has none) and the prior.
    """
    lines = iter(enumerate(_lines(stream), start=1))
    header = None
    for line_number, line in lines:
        if line.strip():
            header = (line_number, line.strip())
            break
    if header is None:
        raise ParseError("embedding file is empty; missing 'dim=... mu=...' header")
    line_number, text = header
    parts = text.split()
    if len(parts) != 2 or not parts[0].startswith("dim=") or not parts[1].startswith("mu="):
        raise ParseError(f"header must be 'dim=<d> mu=<v1,...,vd>', got {text!r}", line_number)
    dim = _parse_int(parts[0][4:], "dimension", line_number)
    if dim < 1:
        raise ParseError(f"dimension must be positive, got {dim}", line_number)
    mu_fields = parts[1][3:].split(",")
    if len(mu_fields) != dim:
        raise ParseError(f"prior mean has {len(mu_fields)} values, expected {dim}", line_number)
    mu = [_parse_float(v, "prior value", line_number) for v in mu_fields]
    prior = EmbeddingPrior(mu)

    vectors, splits, sources = [], [], []
    for line_number, line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'split<TAB>v1,...,vd', got {line!r}", line_number)
        split_token = parts[0]
        if split_token not in _SPLIT_TOKENS:
            raise ParseError(
                f"unknown split {split_token!r}; expected one of {sorted(_SPLIT_TOKENS)}",
                line_number,
            )
        fields = parts[1].split(",")
        if len(fields) != dim:
            raise ParseError(f"vector has {len(fields)} values, expected {dim}", line_number)
        vectors.append([_parse_float(v, "embedding value", line_number) for v in fields])
        splits.append(split_token)
        sources.append(parts[2] if len(parts) == 3 else None)
    vectors = np.array(vectors, dtype=np.float64).reshape(len(splits), dim)
    return vectors, np.array(splits, dtype=str), sources, prior


def serialize_embeddings(
    vectors: np.ndarray, splits: Sequence[str], sources: Sequence[Optional[str]], prior: EmbeddingPrior
) -> str:
    """Inverse of ``parse_embeddings``."""
    mu_text = ",".join(repr(float(v)) for v in prior.mu_normal)
    lines = [f"dim={prior.mu_normal.size} mu={mu_text}"]
    for vector, split, source in zip(np.asarray(vectors).tolist(), splits, sources):
        line = f"{split}\t" + ",".join(repr(float(v)) for v in vector)
        if source is not None:
            line += f"\t{source}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_scores(
    stream,
    polarity: ScorePolarity,
    labels: Mapping[Tuple[str, int], Label],
) -> FrameScores:
    """Parse per-frame scores and join them against known frame labels,
    sorted by (video, frame).

    Normality scores are negated so downstream metrics can always assume
    higher = more anomalous.
    """
    seen = set()
    rows = []
    for line_number, line in enumerate(_lines(stream), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 'video_id,frame_index,score', got {line!r}", line_number)
        video_id = parts[0]
        frame_index = _parse_int(parts[1], "frame index", line_number)
        score = _parse_float(parts[2], "score", line_number)
        key = (video_id, frame_index)
        if key not in labels:
            raise ParseError(f"score for unlabeled frame ({video_id}, {frame_index})", line_number)
        if key in seen:
            raise ParseError(f"duplicate score for ({video_id}, frame {frame_index})", line_number)
        seen.add(key)
        if polarity is ScorePolarity.NORMALITY:
            score = -score
        rows.append((video_id, frame_index, score, labels[key] is Label.ANOMALOUS))
    rows.sort()
    video, frame, score, positive = zip(*rows) if rows else ((), (), (), ())
    return FrameScores(
        video=np.array(video, dtype=str),
        frame=np.array(frame, dtype=np.int64),
        score=np.array(score, dtype=np.float64),
        positive=np.array(positive, dtype=bool),
    )


def serialize_scores(rows: Iterable[Tuple[str, int, float]]) -> str:
    lines = [f"{video_id},{frame_index},{float(score)!r}" for video_id, frame_index, score in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_manifest(stream) -> Dict[str, VideoMeta]:
    text = stream if isinstance(stream, str) else stream.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object mapping video_id to metadata")
    videos = {}
    for video_id, meta in raw.items():
        if not isinstance(meta, dict) or not {"split", "width", "height"} <= set(meta):
            raise ParseError(f"manifest entry for {video_id!r} needs split, width and height")
        videos[video_id] = VideoMeta(meta["split"], float(meta["width"]), float(meta["height"]))
    return videos


def serialize_manifest(videos: Mapping[str, VideoMeta]) -> str:
    raw = {
        video_id: {"split": meta.split, "width": meta.width, "height": meta.height}
        for video_id, meta in sorted(videos.items())
    }
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


@dataclass
class VideoReport:
    video_id: str
    split: str
    n_tracklets: int
    n_detections: int
    frame_range: Optional[Tuple[int, int]]  # None for videos with no detections
    n_labeled: int
    n_anomalous: int
    label_gaps: int  # labeled-range frames without a label
    window_eligible_frames: int  # frames inside contiguous runs of length >= T

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "split": self.split,
            "n_tracklets": self.n_tracklets,
            "n_detections": self.n_detections,
            "frame_range": list(self.frame_range) if self.frame_range else None,
            "n_labeled": self.n_labeled,
            "n_anomalous": self.n_anomalous,
            "label_gaps": self.label_gaps,
            "window_eligible_frames": self.window_eligible_frames,
        }


@dataclass
class ValidationReport:
    videos: List[VideoReport] = field(default_factory=list)
    fatal_errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.fatal_errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "videos": [v.to_dict() for v in self.videos],
            "fatal_errors": list(self.fatal_errors),
            "warnings": list(self.warnings),
        }


def validate_bundle(bundle: DatasetBundle) -> ValidationReport:
    """Cross-check tracklets, labels and manifest; anomalous labels inside
    the training split are fatal (the setting is unsupervised)."""
    report = ValidationReport()
    by_video_tracklets: Dict[str, List[Tracklet]] = {}
    for tracklet in bundle.tracklets:
        by_video_tracklets.setdefault(tracklet.video_id, []).append(tracklet)
    by_video_labels: Dict[str, List[FrameLabel]] = {}
    for label in bundle.labels:
        by_video_labels.setdefault(label.video_id, []).append(label)

    T = bundle.config.T
    for video_id in sorted(bundle.videos):
        meta = bundle.videos[video_id]
        tracklets = by_video_tracklets.get(video_id, [])
        labels = by_video_labels.get(video_id, [])
        n_anomalous = sum(1 for l in labels if l.label is Label.ANOMALOUS)
        if meta.split == "train" and n_anomalous:
            report.fatal_errors.append(
                f"training video {video_id!r} has {n_anomalous} anomalous-labeled frames"
            )
        frames = [d.frame_index for t in tracklets for d in t.detections]
        frame_range = (min(frames), max(frames)) if frames else None
        gaps = 0
        if labels:
            labeled = {l.frame_index for l in labels}
            lo, hi = min(labeled), max(labeled)
            gaps = (hi - lo + 1) - len(labeled)
            if gaps:
                report.warnings.append(f"video {video_id!r}: {gaps} unlabeled frames inside label range")
        eligible = 0
        for tracklet in tracklets:
            run = 1
            prev = None
            for det in tracklet.detections:
                if prev is not None and det.frame_index == prev + 1:
                    run += 1
                else:
                    if run >= T:
                        eligible += run
                    run = 1
                prev = det.frame_index
            if run >= T:
                eligible += run
        report.videos.append(
            VideoReport(
                video_id=video_id,
                split=meta.split,
                n_tracklets=len(tracklets),
                n_detections=sum(len(t) for t in tracklets),
                frame_range=frame_range,
                n_labeled=len(labels),
                n_anomalous=n_anomalous,
                label_gaps=gaps,
                window_eligible_frames=eligible,
            )
        )
    return report


def load_bundle(
    tracklet_path,
    label_path,
    manifest_path,
    config: WindowingConfig = WindowingConfig(),
) -> DatasetBundle:
    """Read the three canonical files from disk into a DatasetBundle."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        videos = parse_manifest(fh.read())
    with open(tracklet_path, "r", encoding="utf-8") as fh:
        tracklets = parse_tracklets(fh.read(), config.k)
    with open(label_path, "r", encoding="utf-8") as fh:
        labels = parse_labels(fh.read())
    return DatasetBundle(tracklets=tracklets, labels=labels, videos=videos, config=config)
