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
    Detections,
    EmbeddingPrior,
    FrameScores,
    Labels,
    ParseError,
    Split,
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
    """A fully assembled dataset: detections, labels, manifest, window config."""

    detections: Detections
    labels: Labels
    videos: Dict[str, VideoMeta]
    config: WindowingConfig

    def __post_init__(self):
        label_videos = np.unique(self.labels.video).tolist()
        for kind, video_ids in (("tracklet", self.detections.video_ids), ("label", label_videos)):
            missing = [v for v in video_ids if v not in self.videos]
            if missing:
                raise DataError(f"{kind} video {missing[0]!r} missing from manifest")
        k = self.detections.kp.shape[1]
        if k != self.config.k:
            raise DataError(f"detections have {k} keypoints, configured k={self.config.k}")


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


_MAX_INT = np.iinfo(np.int64).max


def _parse_int(text: str, what: str, line_number: int) -> int:
    """An integer that fits the int64 columns."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"invalid {what} {text!r}", line_number) from None
    if value > _MAX_INT:
        raise ParseError(f"{what} {value} too large", line_number)
    return value


# Lines per parse block: bounds the per-field strings alive at once.
_BLOCK_LINES = 2048
_DROP_NUMBER_CHARS = str.maketrans("", "", "0123456789.+-eE")  # leaves only field separators


def _parse_detection(line: str, line_number: int, k: int) -> Tuple[str, int, str, List[float]]:
    """One tracklet line as (video, frame, track, k*3 values), with the
    first fault of the line raised as a ParseError."""
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
    values = []
    for triple in triples:
        fields = triple.split(",")
        if len(fields) != 3:
            raise ParseError(f"keypoint must be 'x,y,c', got {triple!r}", line_number)
        x = _parse_float(fields[0], "x coordinate", line_number)
        y = _parse_float(fields[1], "y coordinate", line_number)
        c = _parse_float(fields[2], "confidence", line_number)
        if not 0.0 <= c <= 1.0:
            raise ParseError(f"confidence {c} outside [0, 1]", line_number)
        values += (x, y, c)
    return video_id, frame_index, track_id, values


def _parse_block(rows, k: int):
    """(frames, (n, k, 3) keypoints) of split lines whose structure, numbers
    and ranges all pass the array checks, else None."""
    if any(len(r) != 4 for r in rows):
        return None
    kp_texts = "\t".join(r[3] for r in rows)
    if kp_texts.translate(_DROP_NUMBER_CHARS) != "\t".join([",,;" * (k - 1) + ",,"] * len(rows)):
        return None
    try:
        frames = np.array([int(r[1]) for r in rows], dtype=np.int64)
        fields = kp_texts.replace("\t", ",").replace(";", ",").split(",")
        kp = np.fromiter(map(float, fields), np.float64, len(fields)).reshape(len(rows), k, 3)
    except (ValueError, OverflowError):
        return None
    if (frames < 0).any() or not np.isfinite(kp).all() or not ((kp[:, :, 2] >= 0) & (kp[:, :, 2] <= 1)).all():
        return None
    return frames, kp


def parse_tracklets(stream, k: int) -> Detections:
    """Parse the tracklet file into a Detections table.

    Rejects malformed lines, keypoint counts other than ``k``, duplicate
    (video, track, frame) triples and non-finite coordinates; the error
    names the first offending line. Lines are parsed in blocks: a block
    that passes the array checks is converted whole, any other block line
    by line.
    """
    lines = list(_lines(stream))
    numbered = [(n, line.rstrip("\n")) for n, line in enumerate(lines, start=1) if line.strip()]
    frame = np.empty(len(numbered), dtype=np.int64)
    kp = np.empty((len(numbered), k, 3), dtype=np.float64)
    videos, tracks = [], []
    for a in range(0, len(numbered), _BLOCK_LINES):
        block = numbered[a : a + _BLOCK_LINES]
        rows = [text.split("\t") for _, text in block]
        parsed = _parse_block(rows, k)
        if parsed is None:
            try:
                rows = [_parse_detection(text, n, k) for n, text in block]
            except ParseError as exc:
                parse_tracklets(lines[: exc.line_number - 1], k)  # a repeat on an earlier line wins
                raise
            parsed = np.array([r[1] for r in rows]), np.reshape([r[3] for r in rows], (-1, k, 3))
        frame[a : a + len(rows)], kp[a : a + len(rows)] = parsed
        videos += [r[0] for r in rows]
        tracks += [r[2] for r in rows]
    table = Detections.sorted_rows(videos, tracks, frame, kp, np.array([n for n, _ in numbered]))
    repeat = table.first_repeat()
    if repeat is not None:
        raise ParseError(*repeat)
    return table


def serialize_tracklets(detections: Detections) -> str:
    """The tracklet text of a table, one line per row in table order."""
    d = detections
    k = d.kp.shape[1]
    template = "%s\t%d\t%s\t" + ";".join(["%r,%r,%r"] * k)
    rows = zip(d.video.tolist(), d.frame.tolist(), d.track.tolist(), d.kp.reshape(-1, 3 * k).tolist())
    lines = [template % (d.video_ids[v], frame, d.track_ids[t], *values) for v, frame, t, values in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_labels(stream) -> Labels:
    """Parse the frame-label CSV; 1 marks an Anomalous frame, 0 a Normal one."""
    seen = set()
    rows = []
    for line_number, line in enumerate(_lines(stream), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 'video_id,frame_index,label', got {line!r}", line_number)
        video_id = parts[0]
        frame_index = _parse_int(parts[1], "frame index", line_number)
        if frame_index < 0:
            raise ParseError(f"negative frame index {frame_index}", line_number)
        if parts[2] not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {parts[2]!r}", line_number)
        key = (video_id, frame_index)
        if key in seen:
            raise ParseError(f"duplicate label for ({video_id}, frame {frame_index})", line_number)
        seen.add(key)
        rows.append((video_id, frame_index, parts[2] == "1"))
    return Labels.from_columns(*(zip(*rows) if rows else ((), (), ())))


def serialize_labels(labels: Labels) -> str:
    rows = zip(labels.video.tolist(), labels.frame.tolist(), labels.positive.tolist())
    lines = [f"{video_id},{frame_index},{int(positive)}" for video_id, frame_index, positive in rows]
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


def parse_scores(stream, polarity: ScorePolarity, labels: Labels) -> FrameScores:
    """Parse per-frame scores and join them against known frame labels,
    sorted by (video, frame).

    Normality scores are negated so downstream metrics can always assume
    higher = more anomalous.
    """
    positive_by_frame = dict(
        zip(zip(labels.video.tolist(), labels.frame.tolist()), labels.positive.tolist())
    )
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
        if key not in positive_by_frame:
            raise ParseError(f"score for unlabeled frame ({video_id}, {frame_index})", line_number)
        if key in seen:
            raise ParseError(f"duplicate score for ({video_id}, frame {frame_index})", line_number)
        seen.add(key)
        if polarity is ScorePolarity.NORMALITY:
            score = -score
        rows.append((video_id, frame_index, score, positive_by_frame[key]))
    rows.sort()
    video, frame, score, positive = zip(*rows) if rows else ((), (), (), ())
    return FrameScores(
        video=np.array(video, dtype=object),
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
    labels = bundle.labels
    by_video = bundle.detections.per_video()
    T = bundle.config.T
    for video_id in sorted(bundle.videos):
        meta = bundle.videos[video_id]
        dense = labels.dense(video_id)
        labeled = np.flatnonzero(dense >= 0)
        n_anomalous = int(np.count_nonzero(dense == 1))
        if meta.split == "train" and n_anomalous:
            report.fatal_errors.append(
                f"training video {video_id!r} has {n_anomalous} anomalous-labeled frames"
            )
        gaps = int(labeled[-1] - labeled[0] + 1) - labeled.size if labeled.size else 0
        if gaps:
            report.warnings.append(f"video {video_id!r}: {gaps} unlabeled frames inside label range")
        detections = by_video.get(video_id, bundle.detections.take(slice(0)))
        starts, stops = detections.run_bounds()
        runs = stops - starts
        report.videos.append(
            VideoReport(
                video_id=video_id,
                split=meta.split,
                n_tracklets=len(detections.tracklet_bounds()[0]),
                n_detections=detections.frame.size,
                frame_range=(int(detections.frame.min()), int(detections.frame.max())) if runs.size else None,
                n_labeled=labeled.size,
                n_anomalous=n_anomalous,
                label_gaps=gaps,
                window_eligible_frames=int(runs[runs >= T].sum()),
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
        detections = parse_tracklets(fh.read(), config.k)
    with open(label_path, "r", encoding="utf-8") as fh:
        labels = parse_labels(fh.read())
    return DatasetBundle(detections=detections, labels=labels, videos=videos, config=config)
