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
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Dict, List, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .core import (
    SPLITS,
    DataError,
    Detections,
    EmbeddingPrior,
    FrameScores,
    Labels,
    ParseError,
    WindowingConfig,
    _code,
    code_into,
    frame_extent,
    video_names,
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
    """A fully assembled dataset: detections, labels, manifest, window config;
    the detections and labels carry codes into the sorted manifest ids."""

    detections: Detections
    labels: Labels
    videos: Dict[str, VideoMeta]
    config: WindowingConfig

    def __post_init__(self):
        video_ids = tuple(sorted(self.videos))
        for kind, field in (("tracklet", "detections"), ("label", "labels")):
            table = getattr(self, field)
            code = code_into(video_ids, table.video_ids)
            if len(video_ids) in code:  # argmax finds the first name the manifest lacks
                raise DataError(f"{kind} video {table.video_ids[code.argmax()]!r} missing from manifest")
            setattr(self, field, table._replace(video_ids=video_ids, video=code[table.video]))
        k = self.detections.kp.shape[1]
        if k != self.config.k:
            raise DataError(f"detections have {k} keypoints, configured k={self.config.k}")


def format_rows(template: str, columns: Sequence[Sequence]) -> str:
    """One ``template`` line per row of equally long columns of Python
    values, by one %-format over all cells (``%s`` of a float is its
    shortest round-trip ``repr``): no string is built per row."""
    return ((template + "\n") * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def json_text(obj) -> str:
    """The text of every JSON output: indented, keys sorted, newline-terminated."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


# Characters per parse block: bounds the line and field strings alive at once.
_BLOCK_CHARS = 1 << 18
# Every byte but the field separators (tab, comma, semicolon), for bytes.translate to delete.
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b"\t,;")))


def _check_detection(line: str, line_number: int, k: int) -> Tuple[str, str, int]:
    """The (video, track, frame) key of a tracklet line, with the first
    fault of the line raised as a ParseError."""
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
    for triple in triples:
        fields = triple.split(",")
        if len(fields) != 3:
            raise ParseError(f"keypoint must be 'x,y,c', got {triple!r}", line_number)
        _parse_float(fields[0], "x coordinate", line_number)
        _parse_float(fields[1], "y coordinate", line_number)
        c = _parse_float(fields[2], "confidence", line_number)
        if not 0.0 <= c <= 1.0:
            raise ParseError(f"confidence {c} outside [0, 1]", line_number)
    return video_id, track_id, frame_index


def _parse_block(lines: List[str], k: int):
    """(video ids, track ids, frames, (n, k, 3) keypoints) of tracklet lines
    with four tab-separated fields and k ``x,y,c`` triples, whose frames
    ``int()`` reads within int64 and whose values ``float()`` reads, else None."""
    rows = [line.split("\t") for line in lines]
    if any(len(r) != 4 for r in rows):
        return None
    kp_texts = "\t".join(r[3] for r in rows)
    # the UTF-8 bytes of other characters, lone surrogates included, are never separators
    separators = kp_texts.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if separators != b"\t".join([b",,;" * (k - 1) + b",,"] * len(rows)):
        return None
    try:
        frames = np.array([int(r[1]) for r in rows], dtype=np.int64)
        fields = kp_texts.replace("\t", ",").replace(";", ",").split(",")
        kp = np.fromiter(map(float, fields), np.float64, len(fields)).reshape(len(rows), k, 3)
    except (ValueError, OverflowError):
        return None
    return [r[0] for r in rows], [r[2] for r in rows], frames, kp


def parse_tracklets(text: str, k: int) -> Detections:
    """Parse the tracklet file into a Detections table.

    Valid text is converted in blocks of about ``_BLOCK_CHARS`` characters,
    each cut just after a newline, and checked as a whole table. On any
    fault, malformed lines, keypoint counts other than ``k``, non-finite
    values and repeated (video, track, frame) triples included, the lines
    are checked one by one, and the first bad line is raised as a
    ParseError.
    """
    columns = [([], [], np.empty(0, dtype=np.int64), np.empty((0, k, 3)))]  # an empty text's table
    a = 0
    while a < len(text):
        b = text.find("\n", a + _BLOCK_CHARS) + 1 or len(text)
        lines = list(filter(str.strip, text[a:b].splitlines()))
        a = b
        if not lines:  # a block of blank lines only has no columns to convert
            continue
        parsed = _parse_block(lines, k)
        if parsed is None:
            break
        columns.append(parsed)
    else:
        videos, tracks, frames, kps = zip(*columns)
        video, track = list(chain.from_iterable(videos)), list(chain.from_iterable(tracks))
        frame, kp = np.concatenate(frames), np.concatenate(kps)
        del columns, videos, tracks, frames, kps  # the blocks, before from_columns sorts a copy
        try:
            return Detections.from_columns(video, track, frame, kp)
        except DataError:
            pass
    _raise_first_fault(
        text.splitlines(), "detection", lambda line, line_number: _check_detection(line, line_number, k)
    )


def serialize_tracklets(detections: Detections) -> str:
    """The tracklet text of a table, one line per row in table order."""
    d = detections
    k = d.kp.shape[1]
    track = np.array(d.track_ids, dtype=object)[d.track].tolist()
    columns = [video_names(d).tolist(), d.frame.tolist(), track, *d.kp.reshape(-1, 3 * k).T.tolist()]
    return format_rows("%s\t%d\t%s\t" + ";".join(["%r,%r,%r"] * k), columns)


def _columns(lines: List[str]) -> Optional[Tuple[List[str], np.ndarray, List[str]]]:
    """(video ids, int64 frame indices, third fields) of the stripped
    non-blank ``video_id,frame_index,x`` lines, or None when a line has
    another field count or a frame index is not an int64 integer (by
    Python's ``int`` syntax)."""
    kept = list(filter(None, map(str.strip, lines)))
    if list(map(str.count, kept, repeat(","))).count(2) != len(kept):
        return None
    fields = ",".join(kept).split(",") if kept else []
    try:
        return fields[0::3], np.fromiter(map(int, fields[1::3]), np.int64, len(kept)), fields[2::3]
    except (ValueError, OverflowError):
        return None


def parse_labels(text: str) -> Labels:
    """Parse the frame-label CSV; 1 marks an Anomalous frame, 0 a Normal one.

    Valid text is converted column by column. On any fault, a repeated
    (video, frame) included, the lines are checked one by one, and the
    first bad line is raised as a ParseError.
    """
    lines = text.splitlines()
    columns = _columns(lines)
    if columns is not None and set(columns[2]) <= {"0", "1"} and not (columns[1] < 0).any():
        video, frame, label = columns
        try:
            return Labels.from_columns(video, frame, np.fromiter(map("1".__eq__, label), bool, len(label)))
        except DataError:
            pass
    _raise_first_fault(lines, "label", _check_label)


def _csv_fields(line: str, field: str, line_number: int) -> Tuple[Tuple[str, int], str]:
    """The (video, frame) key and the last field of a stripped
    ``video_id,frame_index,<field>`` line, with a field count or frame
    index fault raised as a ParseError."""
    line = line.strip()
    parts = line.split(",")
    if len(parts) != 3:
        raise ParseError(f"expected 'video_id,frame_index,{field}', got {line!r}", line_number)
    return (parts[0], _parse_int(parts[1], "frame index", line_number)), parts[2]


def _check_label(line: str, line_number: int) -> Tuple[str, int]:
    """A label line's key, after its checks: the fields, a negative frame, then a label other than 0/1."""
    key, text = _csv_fields(line, "label", line_number)
    if key[1] < 0:
        raise ParseError(f"negative frame index {key[1]}", line_number)
    if text not in ("0", "1"):
        raise ParseError(f"label must be 0 or 1, got {text!r}", line_number)
    return key


def _raise_first_fault(lines: List[str], what: str, check) -> NoReturn:
    """Check the non-blank lines one by one and raise the first fault: what
    ``check(line, line number)`` raises, then a repeat of the key it
    returns, ``(ids..., frame)``."""
    seen = set()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key = check(line, line_number)
        if key in seen:
            raise ParseError(f"duplicate {what} for ({', '.join(key[:-1])}, frame {key[-1]})", line_number)
        seen.add(key)
    raise AssertionError(f"the column checks refused {what}s the line checks accept")


def serialize_labels(labels: Labels) -> str:
    return format_rows("%s,%s,%d", [video_names(labels).tolist(), labels.frame.tolist(), labels.positive.tolist()])


_SPLIT_TOKENS = {split.value: code for code, split in enumerate(SPLITS)}


def parse_embeddings(text: str) -> Tuple[np.ndarray, np.ndarray, List[Optional[str]], EmbeddingPrior]:
    """Parse the embedding file; the header carries the prior mean.

    Returns the (n, d) vectors, their int8 split codes into ``SPLITS``, the
    source window ids (None where a line has none) and the prior.
    """
    lines = iter(enumerate(text.splitlines(), start=1))
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
        splits.append(_SPLIT_TOKENS[split_token])
        sources.append(parts[2] if len(parts) == 3 else None)
    vectors = np.array(vectors, dtype=np.float64).reshape(len(splits), dim)
    return vectors, np.array(splits, dtype=np.int8), sources, prior


def parse_scores(text: str, polarity: ScorePolarity, labels: Labels) -> FrameScores:
    """Parse per-frame scores and join them against known frame labels,
    sorted by (video, frame).

    Normality scores are negated so downstream metrics can always assume
    higher = more anomalous. Valid text is converted column by column, its
    video names coded into the labels' table, and joined to the label rows
    by ``Labels.rows``. On any fault, an unlabeled video included, the
    lines are checked one by one, and the first bad line is raised as a
    ParseError.
    """
    lines = text.splitlines()
    columns = _columns(lines)
    if columns is not None:
        video, frame, texts = columns
        try:
            score = np.fromiter(map(float, texts), np.float64, len(texts))
        except ValueError:
            score = None
        if score is not None and np.isfinite(score).all():
            video_ids, video = _code(video)
            row = labels.rows(code_into(labels.video_ids, video_ids)[video], frame)
            order = np.argsort(row, kind="stable")
            row = row[order]
            if (row >= 0).all() and (np.diff(row) != 0).all():
                score = -score[order] if polarity is ScorePolarity.NORMALITY else score[order]
                return FrameScores(labels.video_ids, labels.video[row], labels.frame[row], score,
                                   labels.positive[row])
    labeled = set(zip(video_names(labels).tolist(), labels.frame.tolist()))

    def check(line: str, line_number: int) -> Tuple[str, int]:
        key, text = _csv_fields(line, "score", line_number)
        _parse_float(text, "score", line_number)
        if key not in labeled:
            raise ParseError(f"score for unlabeled frame ({key[0]}, {key[1]})", line_number)
        return key

    _raise_first_fault(lines, "score", check)


def serialize_scores(frames: FrameScores) -> str:
    return format_rows("%s,%s,%r", [video_names(frames).tolist(), frames.frame.tolist(), frames.score.tolist()])


def parse_manifest(text: str) -> Dict[str, VideoMeta]:
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
        try:
            width, height = float(meta["width"]), float(meta["height"])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"manifest entry for {video_id!r}: width and height must be finite numbers") from None
        videos[video_id] = VideoMeta(meta["split"], width, height)
    return videos


def serialize_manifest(videos: Mapping[str, VideoMeta]) -> str:
    raw = {
        video_id: {"split": meta.split, "width": meta.width, "height": meta.height}
        for video_id, meta in sorted(videos.items())
    }
    return json_text(raw)


class VideoReport(NamedTuple):
    video_id: str
    split: str
    n_tracklets: int
    n_detections: int
    frame_range: Optional[Tuple[int, int]]  # first and last detected frame, None without detections
    n_labeled: int
    n_anomalous: int
    label_gaps: int  # labeled-range frames without a label
    window_eligible_frames: int  # frames inside contiguous runs of length >= T


class ValidationReport(NamedTuple):
    videos: List[VideoReport]
    fatal_errors: List[str]
    warnings: List[str]

    @property
    def ok(self) -> bool:
        return not self.fatal_errors

    def to_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok, "videos": [v._asdict() for v in self.videos]}


def validate_bundle(bundle: DatasetBundle) -> ValidationReport:
    """Cross-check tracklets, labels and manifest; anomalous labels inside
    the training split are fatal (the setting is unsupervised). Every count
    is one reduction over a whole table by manifest video code."""
    detections, labels = bundle.detections, bundle.labels
    video_ids, row_video, label_video = detections.video_ids, detections.video, labels.video
    n = len(video_ids)
    starts, stops = detections.run_bounds()
    runs = stops - starts
    first, last = frame_extent(n, (row_video, detections.frame))
    label_first, label_last = frame_extent(n, (label_video, labels.frame))
    n_labeled = np.bincount(label_video, minlength=n)
    videos = list(map(
        VideoReport,
        video_ids,
        [bundle.videos[v].split for v in video_ids],
        np.bincount(row_video[detections.tracklet_bounds()[0]], minlength=n).tolist(),
        np.bincount(row_video, minlength=n).tolist(),
        [(a, b) if b >= 0 else None for a, b in zip(first.tolist(), last.tolist())],
        n_labeled.tolist(),
        np.bincount(label_video[labels.positive], minlength=n).tolist(),
        (label_last - label_first + 1 - n_labeled).tolist(),
        np.bincount(row_video[np.repeat(runs >= bundle.config.T, runs)], minlength=n).tolist(),
    ))
    fatal = [
        f"training video {v.video_id!r} has {v.n_anomalous} anomalous-labeled frames"
        for v in videos if v.split == "train" and v.n_anomalous
    ]
    warnings = [
        f"video {v.video_id!r}: {v.label_gaps} unlabeled frames inside label range"
        for v in videos if v.label_gaps
    ]
    return ValidationReport(videos, fatal, warnings)


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
