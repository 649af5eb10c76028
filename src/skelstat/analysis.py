"""Mean tensors, scaled mean distances, S-DoM and distance series.

The scaled distances between means carry a 1/T factor; the per-sample
distances to the training mean deliberately do not, so the two families
of numbers live on different scales. Both are kept as-is so downstream
histograms stay interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import (
    DataError,
    EmbeddingPrior,
    FeatureType,
    FeatureWindow,
    MeanTensor,
    SdomReport,
    Split,
)

_CHUNK = 512


@dataclass(frozen=True)
class DistanceSeries:
    """Non-negative distances for one split of one feature or latent space."""

    values: np.ndarray
    split: Optional[Split]
    tag: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError(f"distance series must be 1-D, got shape {values.shape}")
        if values.size and (not np.isfinite(values).all() or (values < 0).any()):
            raise DataError("distances must be finite and non-negative")
        values = np.ascontiguousarray(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


def _check_homogeneous(windows: Sequence[FeatureWindow]):
    shape = windows[0].shape
    for w in windows:
        if w.shape != shape:
            raise DataError(f"window shape mismatch: {w.shape} vs {shape}")
    return shape


def mean_tensor(windows: Sequence[FeatureWindow]) -> MeanTensor:
    """Element-wise mean over P windows, Kahan-compensated per chunk so the
    result stays stable on very large window sets."""
    if not windows:
        raise DataError("cannot take the mean of zero windows")
    T, k = _check_homogeneous(windows)
    total = np.zeros((T, k, 2), dtype=np.float64)
    comp = np.zeros_like(total)
    for i in range(0, len(windows), _CHUNK):
        chunk = np.stack([w.coords for w in windows[i : i + _CHUNK]])
        y = chunk.sum(axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return MeanTensor(values=total / len(windows), sample_count=len(windows))


def delta(mu_a: MeanTensor, mu_b: MeanTensor) -> float:
    """Scaled Euclidean distance between two means: (1/T) * Frobenius norm."""
    if mu_a.values.shape != mu_b.values.shape:
        raise DataError(
            f"mean shape mismatch: {mu_a.values.shape} vs {mu_b.values.shape}"
        )
    T = mu_a.values.shape[0]
    return float(np.linalg.norm(mu_a.values - mu_b.values)) / T


def sdom(delta_a: float, delta_n: float) -> float:
    """Signed difference of the two scaled mean distances."""
    if not (np.isfinite(delta_a) and np.isfinite(delta_n)):
        raise DataError("delta values must be finite")
    if delta_a < 0 or delta_n < 0:
        raise DataError("delta values must be non-negative")
    return delta_a - delta_n


def windows_by_split(windows: Sequence[FeatureWindow]) -> Dict[Split, List[FeatureWindow]]:
    """Windows grouped by split, every split present, in ``Split`` order."""
    by_split: Dict[Split, List[FeatureWindow]] = {s: [] for s in Split}
    for window in windows:
        by_split[window.split].append(window)
    return by_split


def sdom_report(
    train_normal: Sequence[FeatureWindow],
    val_normal: Sequence[FeatureWindow],
    val_anomalous: Sequence[FeatureWindow],
    feature_type: FeatureType = FeatureType.POSE,
) -> SdomReport:
    """Full S-DoM computation over the three splits of one feature type."""
    for name, split in (
        ("train-normal", train_normal),
        ("val-normal", val_normal),
        ("val-anomalous", val_anomalous),
    ):
        if not split:
            raise DataError(f"{name} split is empty")
    mu_tn = mean_tensor(train_normal)
    mu_vn = mean_tensor(val_normal)
    mu_va = mean_tensor(val_anomalous)
    delta_n = delta(mu_tn, mu_vn)
    delta_a = delta(mu_tn, mu_va)
    return SdomReport(
        delta_n=delta_n,
        delta_a=delta_a,
        sdom=sdom(delta_a, delta_n),
        feature_type=feature_type,
        counts=(len(train_normal), len(val_normal), len(val_anomalous)),
    )


def distances_to_mean(
    windows: Sequence[FeatureWindow],
    mu: MeanTensor,
    split: Optional[Split] = None,
    tag: str = "",
) -> DistanceSeries:
    """Unscaled Euclidean distance of every window to the mean tensor."""
    shape = mu.values.shape
    out = np.empty(len(windows), dtype=np.float64)
    for i in range(0, len(windows), _CHUNK):
        chunk = windows[i : i + _CHUNK]
        for w in chunk:
            if w.coords.shape != shape:
                raise DataError(f"window shape {w.coords.shape} does not match mean {shape}")
        stacked = np.stack([w.coords for w in chunk])
        diff = stacked.reshape(len(chunk), -1) - mu.values.reshape(-1)
        out[i : i + len(chunk)] = np.linalg.norm(diff, axis=1)
    return DistanceSeries(values=out, split=split, tag=tag)


def latent_distances(
    vectors: np.ndarray,
    splits: np.ndarray,
    prior: EmbeddingPrior,
) -> Dict[Split, DistanceSeries]:
    """Euclidean distance of each embedding row to the latent prior mean,
    grouped by split token (``Split`` value); splits with no rows are left out."""
    vectors = np.asarray(vectors, dtype=np.float64)
    splits = np.asarray(splits)
    dim = prior.mu_normal.size
    if vectors.ndim != 2 or vectors.shape[1] != dim:
        raise DataError(f"embedding dimension does not match prior {dim}: got shape {vectors.shape}")
    diff = vectors - prior.mu_normal
    # a batched row dot product: the same bits as np.linalg.norm of each row
    distances = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    return {
        split: DistanceSeries(values=distances[splits == split.value], split=split, tag="latent")
        for split in Split
        if (splits == split.value).any()
    }
