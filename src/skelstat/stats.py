"""Distance-distribution summaries and the consolidated difficulty report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .analysis import DistanceSeries, distance_series, sdom_report, windows_by_split
from .core import BoxStats, DataError, FeatureType, Split
from .features import CenterPolicy, build_windows
from .ingest import DatasetBundle


@dataclass(frozen=True)
class FixedCount:
    n: int


@dataclass(frozen=True)
class FixedWidth:
    width: float


AUTO = "auto"
Binning = Union[FixedCount, FixedWidth, str]


def parse_binning(text: str) -> Binning:
    """CLI binning syntax: 'auto', 'count:<n>' or 'width:<w>'."""
    if text == AUTO:
        return AUTO
    kind, _, value = text.partition(":")
    try:
        if kind == "count":
            return FixedCount(int(value))
        if kind == "width" and math.isfinite(float(value)):  # histogram refuses widths <= 0
            return FixedWidth(float(value))
    except ValueError:
        pass
    raise DataError(f"invalid binning spec {text!r}; expected auto, count:<n> or width:<w>")


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    split: str

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2 or (np.diff(edges) <= 0).any():
            raise DataError("bin edges must be strictly ascending with >= 2 entries")
        if counts.shape != (edges.size - 1,) or (counts < 0).any():
            raise DataError("counts must be non-negative with one entry per bin")
        edges.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    def to_dict(self) -> dict:
        return {
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
            "split": self.split,
        }


def _auto_bin_count(values: np.ndarray) -> Optional[int]:
    """Freedman-Diaconis bin count clamped to [10, 200]; None when IQR is 0."""
    q1, q3 = np.quantile(values, [0.25, 0.75])
    iqr = q3 - q1
    if iqr == 0:
        return None
    width = 2.0 * iqr / len(values) ** (1.0 / 3.0)
    span = float(values.max() - values.min())
    if span == 0:
        return None
    return int(min(200, max(10, math.ceil(span / width))))


def histogram(series: DistanceSeries, binning: Binning = AUTO) -> Histogram:
    """Bin a distance series; right-open bins, last bin right-closed."""
    values = series.values
    if values.size == 0:
        raise DataError("cannot histogram an empty series")
    lo, hi = float(values.min()), float(values.max())
    split_tag = series.split.value if series.split else series.tag

    if binning == AUTO:
        n = _auto_bin_count(values)
        binning = FixedCount(n) if n is not None else FixedCount(10)
    if isinstance(binning, FixedCount):
        if binning.n < 1:
            raise DataError(f"bin count must be positive, got {binning.n}")
        if lo == hi:
            edges = np.linspace(lo - 0.5, hi + 0.5, binning.n + 1)
        else:
            edges = np.linspace(lo, hi, binning.n + 1)
    elif isinstance(binning, FixedWidth):
        if binning.width <= 0:
            raise DataError(f"bin width must be positive, got {binning.width}")
        n_bins = max(1, math.ceil((hi - lo) / binning.width)) if hi > lo else 1
        if lo + binning.width * n_bins < hi:  # the rounded quotient left hi past the last edge
            n_bins += 1
        edges = lo + binning.width * np.arange(n_bins + 1)
    else:
        raise DataError(f"unknown binning {binning!r}")
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(bin_edges=edges, counts=counts, split=split_tag)


def box_stats(series: DistanceSeries) -> BoxStats:
    """Quartiles by linear interpolation, Tukey fences clamped to the data."""
    values = series.values
    if values.size == 0:
        raise DataError("cannot summarize an empty series")
    q1, median, q3 = (float(q) for q in np.quantile(values, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    lo_limit = q1 - 1.5 * iqr
    hi_limit = q3 + 1.5 * iqr
    inside_lo = values[values >= lo_limit]
    inside_hi = values[values <= hi_limit]
    # no data point inside the fence: the whisker collapses onto the quartile
    lower = min(float(inside_lo.min()), q1) if inside_lo.size else q1
    upper = max(float(inside_hi.max()), q3) if inside_hi.size else q3
    return BoxStats(lower_fence=lower, q1=q1, median=median, q3=q3, upper_fence=upper)


_SPLIT_ORDER = (Split.TRAIN, Split.VAL_NORMAL, Split.VAL_ANOMALOUS)


def difficulty_report(
    bundle: DatasetBundle,
    feature_types: Sequence[FeatureType] = tuple(FeatureType),
    center: CenterPolicy = CenterPolicy.FIRST_POSE_TO_FRAME_CENTER,
    binning: Binning = AUTO,
    truncate_social: bool = False,
) -> dict:
    """Consolidated per-feature difficulty summary of one dataset.

    For every feature type: the S-DoM report, per-split box statistics and
    histograms of the distances to the training-set mean, and finally a
    ranking of the feature types by S-DoM (descending). Degenerate splits
    produce warnings instead of failures.
    """
    report: dict = {
        "config": {
            "T": bundle.config.T,
            "stride": bundle.config.stride,
            "k": bundle.config.k,
            "N": bundle.config.N,
            "centering": center.value,
        },
        "features": {},
        "warnings": [],
    }
    sdom_by_feature: Dict[str, float] = {}
    for feature_type in feature_types:
        entry: dict = {"warnings": []}
        windows = build_windows(bundle, feature_type, center, truncate_social)
        by_split = windows_by_split(windows)
        entry["counts"] = {s.value: len(by_split[s]) for s in _SPLIT_ORDER}
        empty = [s.value for s in _SPLIT_ORDER if not len(by_split[s])]
        if empty:
            entry["warnings"].append(f"empty splits: {', '.join(empty)}; S-DoM skipped")
            report["features"][feature_type.value] = entry
            continue
        for split in _SPLIT_ORDER:
            if len(by_split[split]) < 2:
                entry["warnings"].append(f"split {split.value} has a single window")
        sr = sdom_report(windows, feature_type)
        entry["sdom"] = sr.to_dict()
        sdom_by_feature[feature_type.value] = sr.sdom
        entry["box_stats"], entry["histograms"] = {}, {}
        for split, series in distance_series(windows, feature_type).items():
            entry["box_stats"][split.value] = box_stats(series).to_dict()
            entry["histograms"][split.value] = histogram(series, binning).to_dict()
        report["features"][feature_type.value] = entry

    report["ranking"] = sorted(sdom_by_feature, key=sdom_by_feature.get, reverse=True)
    for feature_type in feature_types:
        for warning in report["features"][feature_type.value]["warnings"]:
            report["warnings"].append(f"{feature_type.value}: {warning}")
    return report


REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "features", "ranking", "warnings"],
    "properties": {
        "config": {
            "type": "object",
            "required": ["T", "stride", "k", "N", "centering"],
            "properties": {
                "T": {"type": "integer", "minimum": 2},
                "stride": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
                "centering": {"type": "string"},
            },
        },
        "ranking": {"type": "array", "items": {"type": "string"}},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "features": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["counts", "warnings"],
                "properties": {
                    "counts": {
                        "type": "object",
                        "additionalProperties": {"type": "integer", "minimum": 0},
                    },
                    "warnings": {"type": "array", "items": {"type": "string"}},
                    "sdom": {
                        "type": "object",
                        "required": ["delta_n", "delta_a", "sdom", "feature_type", "counts"],
                        "properties": {
                            "delta_n": {"type": "number", "minimum": 0},
                            "delta_a": {"type": "number", "minimum": 0},
                            "sdom": {"type": "number"},
                            "feature_type": {"type": "string"},
                        },
                    },
                    "box_stats": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["lower_fence", "q1", "median", "q3", "upper_fence"],
                        },
                    },
                    "histograms": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["bin_edges", "counts", "split"],
                        },
                    },
                },
            },
        },
    },
}
