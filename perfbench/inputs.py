"""Seeded benchmark inputs, written in skelstat's file formats.

This module uses numpy and the standard library only and never imports
skelstat, so a change to the program cannot change what it is measured
on. Every float is written as its shortest round-trip text (``repr``), the
same as the program's own serializers, so the arrays kept here are exactly
what the program parses back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

WIDTH, HEIGHT = 856.0, 480.0
T, STRIDE = 24, 6


@dataclass(frozen=True)
class TrackSpec:
    """Shape of a tracklet dataset: videos, frames, people and churn."""

    n_train: int
    n_val: int
    frames: int
    persons: int
    k: int
    churn: int = 0  # a person's track id is re-issued every ~churn frames; 0 keeps one id
    drop: float = 0.0  # share of detections removed at random
    anomaly_fraction: float = 0.25

    @property
    def hips(self):
        return (11, 12) if self.k >= 13 else (0, 1)

    @property
    def max_tracks_per_window(self) -> int:
        """Upper bound on track ids inside one T-frame window (social slots)."""
        if not self.churn:
            return self.persons
        return self.persons * (1 + -(-(T - 1) // self.min_lifetime))

    @property
    def min_lifetime(self) -> int:
        return max(1, self.churn // 2)


@dataclass
class Track:
    video: str
    track_id: str
    frames: np.ndarray  # (n,) int64, ascending
    coords: np.ndarray  # (n, k, 2) float64
    conf: np.ndarray  # (n, k) float64


@dataclass
class TrackDataset:
    spec: TrackSpec
    videos: Dict[str, str]  # video id -> "train" | "val"
    tracks: List[Track]
    labels: Dict[str, np.ndarray] = field(default_factory=dict)  # val video -> (frames,) 0/1

    @property
    def detections(self) -> int:
        return sum(t.frames.size for t in self.tracks)


@dataclass
class ScoreDataset:
    labels: Dict[str, np.ndarray]  # video -> (frames,) 0/1
    scores: Dict[str, np.ndarray]  # video -> (frames,) float64


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tag.encode()]))


def _anomaly_labels(rng: np.random.Generator, frames: int, fraction: float) -> np.ndarray:
    """One anomalous segment, kept T frames away from both ends."""
    labels = np.zeros(frames, dtype=np.int8)
    length = round(fraction * frames)
    if length:
        start = int(rng.integers(T, frames - length - T + 1))
        labels[start : start + length] = 1
    return labels


def _track_ids(rng: np.random.Generator, spec: TrackSpec) -> np.ndarray:
    """Per-frame track-id ordinal of one person; lifetimes are churn/2..3churn/2."""
    if not spec.churn:
        return np.zeros(spec.frames, dtype=np.int64)
    lives = rng.integers(spec.min_lifetime, spec.churn + spec.churn // 2 + 1, size=spec.frames)
    edges = np.cumsum(lives)
    return np.searchsorted(edges, np.arange(spec.frames), side="right")


def make_tracklet_dataset(spec: TrackSpec, seed: int) -> TrackDataset:
    """People drift across the frame with joint jitter. Anomalous segments of
    validation videos triple the walking speed and stretch the skeleton, so
    pose and trajectory S-DoM are clearly positive."""
    rng = _rng(seed, f"tracks/{spec}")
    angles = 2.0 * np.pi * np.arange(spec.k) / spec.k
    template = np.stack([8.0 * np.cos(angles), 12.0 * np.sin(angles)], axis=1)
    left, right = spec.hips
    template[left], template[right] = (-6.0, 0.0), (6.0, 0.0)
    F = spec.frames
    videos = {f"train{i:03d}": "train" for i in range(spec.n_train)}
    videos.update({f"val{i:03d}": "val" for i in range(spec.n_val)})
    data = TrackDataset(spec=spec, videos=videos, tracks=[])
    for video, split in videos.items():
        anomalous = np.zeros(F, dtype=np.int8)
        if split == "val":
            anomalous = _anomaly_labels(rng, F, spec.anomaly_fraction)
            data.labels[video] = anomalous
        speed = np.where(anomalous == 1, 3.0, 1.0)
        stretch = np.where(anomalous == 1, 1.5, 1.0)
        starts = rng.uniform([0.2 * WIDTH, 0.2 * HEIGHT], [0.8 * WIDTH, 0.8 * HEIGHT], (spec.persons, 2))
        velocity = rng.uniform(-0.4, 0.4, (spec.persons, 2))
        travelled = np.cumsum(speed) - speed[0]
        centers = starts[:, None, :] + velocity[:, None, :] * travelled[None, :, None]
        joints = centers[:, :, None, :] + stretch[None, :, None, None] * template[None, None]
        joints += rng.normal(0.0, 1.0, joints.shape)
        conf = rng.uniform(0.5, 1.0, (spec.persons, F, spec.k))
        keep = rng.random((spec.persons, F)) >= spec.drop
        next_id = 0
        for p in range(spec.persons):
            ordinal = _track_ids(rng, spec)
            for life in np.unique(ordinal):
                frames = np.nonzero((ordinal == life) & keep[p])[0]
                if frames.size:
                    data.tracks.append(
                        Track(video, f"t{next_id:05d}", frames, joints[p, frames], conf[p, frames])
                    )
                    next_id += 1
    return data


def make_score_dataset(n_videos: int, frames: int, seed: int) -> ScoreDataset:
    """Detector-like frame scores: a smooth AR(1) signal per video, raised by
    a per-video amount inside the one anomalous segment."""
    rng = _rng(seed, f"scores/{n_videos}/{frames}")
    videos = [f"val{i:03d}" for i in range(n_videos)]
    labels = {v: _anomaly_labels(rng, frames, 0.25) for v in videos}
    noise = rng.normal(0.0, 0.3, (n_videos, frames))
    signal = np.empty_like(noise)
    signal[:, 0] = noise[:, 0]
    for t in range(1, frames):
        signal[:, t] = 0.9 * signal[:, t - 1] + noise[:, t]
    bump = rng.uniform(0.5, 2.0, n_videos)
    offset = rng.normal(0.0, 0.3, n_videos)
    scores = {}
    for i, v in enumerate(videos):
        scores[v] = signal[i] + offset[i] + bump[i] * labels[v]
    return ScoreDataset(labels=labels, scores=scores)


def tracklets_text(data: TrackDataset) -> str:
    """Detections in frame order within each video, as a tracker emits them."""
    rows = []
    for track in data.tracks:
        values = np.concatenate([track.coords, track.conf[:, :, None]], axis=2)
        for frame, flat in zip(track.frames.tolist(), values.reshape(len(values), -1).tolist()):
            text = [repr(v) for v in flat]
            kp = ";".join(",".join(text[j : j + 3]) for j in range(0, len(text), 3))
            rows.append((track.video, frame, track.track_id, kp))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return "".join(f"{v}\t{f}\t{t}\t{kp}\n" for v, f, t, kp in rows)


def labels_text(labels: Dict[str, np.ndarray]) -> str:
    return "".join(
        f"{video},{frame},{int(value)}\n"
        for video in sorted(labels)
        for frame, value in enumerate(labels[video].tolist())
    )


def manifest_text(videos: Dict[str, str]) -> str:
    raw = {v: {"split": s, "width": WIDTH, "height": HEIGHT} for v, s in sorted(videos.items())}
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def scores_text(data: ScoreDataset) -> str:
    return "".join(
        f"{video},{frame},{score!r}\n"
        for video in sorted(data.scores)
        for frame, score in enumerate(data.scores[video].tolist())
    )


def write_tracklet_inputs(data: TrackDataset, directory: Path) -> Dict[str, Path]:
    paths = {
        "tracklets": directory / "tracklets.txt",
        "labels": directory / "labels.csv",
        "manifest": directory / "manifest.json",
    }
    paths["tracklets"].write_text(tracklets_text(data), encoding="utf-8")
    paths["labels"].write_text(labels_text(data.labels), encoding="utf-8")
    paths["manifest"].write_text(manifest_text(data.videos), encoding="utf-8")
    return paths


def write_score_inputs(data: ScoreDataset, directory: Path) -> Dict[str, Path]:
    paths = {
        "scores": directory / "scores.csv",
        "labels": directory / "labels.csv",
        "manifest": directory / "manifest.json",
    }
    paths["scores"].write_text(scores_text(data), encoding="utf-8")
    paths["labels"].write_text(labels_text(data.labels), encoding="utf-8")
    paths["manifest"].write_text(manifest_text({v: "val" for v in data.labels}), encoding="utf-8")
    return paths
