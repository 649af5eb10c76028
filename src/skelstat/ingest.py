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
    DataError,
    Detections,
    EmbeddingPrior,
    FrameScores,
    Labels,
    ParseError,
    Split,
    WindowingConfig,
    frame_extent,
    run_codes,
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

    def manifest_codes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted manifest ids as an object array, and the code into it
        of each detection row and of each label row."""
        video_ids = np.array(sorted(self.videos), dtype=object)
        detection_video = np.searchsorted(video_ids, np.array(self.detections.video_ids, dtype=object))
        return video_ids, detection_video[self.detections.video], np.searchsorted(video_ids, self.labels.video)


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


def parse_tracklets(text: str, k: int) -> Detections:
    """Parse the tracklet file into a Detections table.

    Rejects malformed lines, keypoint counts other than ``k``, duplicate
    (video, track, frame) triples and non-finite coordinates; the error
    names the first offending line. Lines are parsed in blocks: a block
    that passes the array checks is converted whole, any other block line
    by line.
    """
    lines = text.splitlines()
    numbered = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
    frame = np.empty(len(numbered), dtype=np.int64)
    kp = np.empty((len(numbered), k, 3), dtype=np.float64)
    videos, tracks = [], []
    for a in range(0, len(numbered), _BLOCK_LINES):
        block = numbered[a : a + _BLOCK_LINES]
        rows = [line.split("\t") for _, line in block]
        parsed = _parse_block(rows, k)
        if parsed is None:
            try:
                rows = [_parse_detection(line, n, k) for n, line in block]
            except ParseError as exc:
                parse_tracklets("\n".join(lines[: exc.line_number - 1]), k)  # a repeat on an earlier line wins
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
    video = np.array(d.video_ids, dtype=object)[d.video].tolist()
    track = np.array(d.track_ids, dtype=object)[d.track].tolist()
    columns = [video, d.frame.tolist(), track, *d.kp.reshape(-1, 3 * k).T.tolist()]
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


def _check_label(key: Tuple[str, int], text: str, line_number: int) -> None:
    """A label line's checks after its frame index: a negative frame, then a label other than 0/1."""
    if key[1] < 0:
        raise ParseError(f"negative frame index {key[1]}", line_number)
    if text not in ("0", "1"):
        raise ParseError(f"label must be 0 or 1, got {text!r}", line_number)


def _raise_first_fault(lines: List[str], field: str, check) -> NoReturn:
    """Check ``video_id,frame_index,<field>`` lines one by one and raise the
    first fault: a field count, a frame index, what ``check((video, frame),
    field text, line number)`` raises, then a repeated (video, frame)."""
    seen = set()
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 'video_id,frame_index,{field}', got {line!r}", line_number)
        key = (parts[0], _parse_int(parts[1], "frame index", line_number))
        check(key, parts[2], line_number)
        if key in seen:
            raise ParseError(f"duplicate {field} for ({key[0]}, frame {key[1]})", line_number)
        seen.add(key)
    raise AssertionError(f"the column checks refused {field}s the line checks accept")


def serialize_labels(labels: Labels) -> str:
    return format_rows("%s,%s,%d", [labels.video.tolist(), labels.frame.tolist(), labels.positive.tolist()])


_SPLIT_TOKENS = {s.value: s for s in Split}


def parse_embeddings(text: str) -> Tuple[np.ndarray, np.ndarray, List[Optional[str]], EmbeddingPrior]:
    """Parse the embedding file; the header carries the prior mean.

    Returns the (n, d) vectors, their split tokens (``Split`` values), the
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
        splits.append(split_token)
        sources.append(parts[2] if len(parts) == 3 else None)
    vectors = np.array(vectors, dtype=np.float64).reshape(len(splits), dim)
    return vectors, np.array(splits, dtype=str), sources, prior


def serialize_embeddings(
    vectors: np.ndarray, splits: Sequence[str], sources: Sequence[Optional[str]], prior: EmbeddingPrior
) -> str:
    """Inverse of ``parse_embeddings``."""
    dim = prior.mu_normal.size
    header = f"dim={dim} mu=" + ",".join(map(repr, prior.mu_normal.tolist())) + "\n"
    values = np.asarray(vectors, dtype=np.float64).reshape(len(splits), dim).T.tolist()
    tails = ["" if source is None else "\t" + source for source in sources]
    return header + format_rows("%s\t" + ",".join(["%r"] * dim) + "%s", [list(splits), *values, tails])


def parse_scores(text: str, polarity: ScorePolarity, labels: Labels) -> FrameScores:
    """Parse per-frame scores and join them against known frame labels,
    sorted by (video, frame).

    Normality scores are negated so downstream metrics can always assume
    higher = more anomalous. Valid text is converted column by column and
    joined to the label rows on their sorted (video code, frame) key. On
    any fault the lines are checked one by one, and the first bad line is
    raised as a ParseError.
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
            video = np.array(video, dtype=object)
            row = _label_rows(labels, video, frame)
            order = np.argsort(row, kind="stable")
            row = row[order]
            if (row >= 0).all() and (np.diff(row) != 0).all():
                if polarity is ScorePolarity.NORMALITY:
                    score = -score
                return FrameScores(video[order], frame[order], score[order], labels.positive[row])
    labeled = set(zip(labels.video.tolist(), labels.frame.tolist()))

    def check(key: Tuple[str, int], text: str, line_number: int) -> None:
        _parse_float(text, "score", line_number)
        if key not in labeled:
            raise ParseError(f"score for unlabeled frame ({key[0]}, {key[1]})", line_number)

    _raise_first_fault(lines, "score", check)


def _label_rows(labels: Labels, video: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The label row of each (video, frame), -1 where none is labeled."""
    if not labels.frame.size:
        return np.full(frame.size, -1)
    names, label_code = run_codes(labels.video)
    frames = np.unique(labels.frame)
    # (video code, frame rank) keys: exact, and ascending in label row order
    label_key = label_code * frames.size + np.searchsorted(frames, labels.frame)
    code = np.minimum(np.searchsorted(names, video), names.size - 1)
    rank = np.minimum(np.searchsorted(frames, frame), frames.size - 1)
    key = code * frames.size + rank
    row = np.minimum(np.searchsorted(label_key, key), label_key.size - 1)
    return np.where((names[code] == video) & (frames[rank] == frame) & (label_key[row] == key), row, -1)


def serialize_scores(rows: Sequence[Tuple[str, int, float]]) -> str:
    video, frame, score = zip(*rows) if rows else ((), (), ())
    # float(): under numpy 2 the repr of a numpy scalar is "np.float64(...)"
    return format_rows("%s,%s,%r", [video, frame, list(map(float, score))])


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
    video_ids, row_video, label_video = bundle.manifest_codes()
    n = len(video_ids)
    starts, stops = detections.run_bounds()
    runs = stops - starts
    first, last = frame_extent(n, (row_video, detections.frame))
    label_first, label_last = frame_extent(n, (label_video, labels.frame))
    n_labeled = np.bincount(label_video, minlength=n)
    videos = list(map(
        VideoReport,
        video_ids.tolist(),
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
