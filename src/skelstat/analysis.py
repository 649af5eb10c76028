"""Mean tensors, scaled mean distances, S-DoM and distance series.

The scaled distances between means carry a 1/T factor; the per-sample
distances to the training mean deliberately do not, so the two families
of numbers live on different scales. Both are kept as-is so downstream
histograms stay interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .core import (
    SPLITS,
    DataError,
    EmbeddingPrior,
    FeatureType,
    MeanTensor,
    SdomReport,
    Split,
    WindowBatch,
)

_CHUNK = 512


@dataclass(frozen=True)
class DistanceSeries:
    """Non-negative distances for one split of one feature or latent space."""

    values: np.ndarray
    split: Optional[Split]

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


def rows_by_split(codes: np.ndarray) -> Dict[Split, np.ndarray]:
    """Row indices of each split's rows, given their int8 codes into ``SPLITS``,
    ascending, every split present, in ``Split`` order."""
    return {split: np.flatnonzero(codes == code) for code, split in enumerate(SPLITS)}


def _rows(windows: WindowBatch, split: Optional[Split]) -> np.ndarray:
    return np.arange(len(windows)) if split is None else rows_by_split(windows.split)[split]


def mean_tensor(windows: WindowBatch, split: Optional[Split] = None) -> MeanTensor:
    """Element-wise mean over the windows of one split (all when None),
    Kahan-compensated over chunks of rows taken in batch order, so the
    result stays stable on very large window sets."""
    rows = _rows(windows, split)
    if not len(rows):
        raise DataError("cannot take the mean of zero windows")
    total = np.zeros(windows.coords.shape[1:], dtype=np.float64)
    comp = np.zeros_like(total)
    for i in range(0, len(rows), _CHUNK):
        y = windows.coords[rows[i : i + _CHUNK]].sum(axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return MeanTensor(values=total / len(rows), sample_count=len(rows))


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


def sdom_report(windows: WindowBatch, feature_type: FeatureType = FeatureType.POSE) -> SdomReport:
    """Full S-DoM computation over the three splits of one feature type."""
    by_split = rows_by_split(windows.split)
    for name, split in zip(("train-normal", "val-normal", "val-anomalous"), SPLITS):
        if not len(by_split[split]):
            raise DataError(f"{name} split is empty")
    mu_tn = mean_tensor(windows, Split.TRAIN)
    mu_vn = mean_tensor(windows, Split.VAL_NORMAL)
    mu_va = mean_tensor(windows, Split.VAL_ANOMALOUS)
    delta_n = delta(mu_tn, mu_vn)
    delta_a = delta(mu_tn, mu_va)
    return SdomReport(
        delta_n=delta_n,
        delta_a=delta_a,
        sdom=sdom(delta_a, delta_n),
        feature_type=feature_type,
        counts=tuple(len(by_split[s]) for s in SPLITS),
    )


def distances_to_mean(
    windows: WindowBatch,
    mu: MeanTensor,
    split: Optional[Split] = None,
) -> DistanceSeries:
    """Unscaled Euclidean distance to the mean tensor of every window of
    one split (all when None), in batch order."""
    shape = mu.values.shape
    if windows.coords.shape[1:] != shape:
        raise DataError(f"window shape {windows.coords.shape[1:]} does not match mean {shape}")
    rows = _rows(windows, split)
    out = np.empty(len(rows), dtype=np.float64)
    for i in range(0, len(rows), _CHUNK):
        # the copy fancy indexing makes, squared in place: np.linalg.norm(axis=1)'s operations and bits
        diff = windows.coords[rows[i : i + _CHUNK]].reshape(-1, mu.values.size)
        diff -= mu.values.reshape(-1)
        diff *= diff
        np.sqrt(np.add.reduce(diff, axis=1), out=out[i : i + len(diff)])
    return DistanceSeries(values=out, split=split)


def distance_series(windows: WindowBatch) -> Dict[Split, DistanceSeries]:
    """Distances to the training mean of the windows of each split that has any."""
    by_split = rows_by_split(windows.split)
    if not len(by_split[Split.TRAIN]):
        raise DataError("no training windows; cannot compute the training mean")
    mu_tn = mean_tensor(windows, Split.TRAIN)
    return {s: distances_to_mean(windows, mu_tn, s) for s in Split if len(by_split[s])}


def latent_distances(
    vectors: np.ndarray,
    splits: np.ndarray,
    prior: EmbeddingPrior,
) -> Dict[Split, DistanceSeries]:
    """Euclidean distance of each embedding row to the latent prior mean,
    grouped by the rows' int8 split codes into ``SPLITS``; splits with no rows
    are left out."""
    vectors = np.asarray(vectors, dtype=np.float64)
    dim = prior.mu_normal.size
    if vectors.ndim != 2 or vectors.shape[1] != dim:
        raise DataError(f"embedding dimension does not match prior {dim}: got shape {vectors.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # DistanceSeries refuses a non-finite result
        diff = vectors - prior.mu_normal
        # a batched row dot product: the same bits as np.linalg.norm of each row
        distances = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    return {split: DistanceSeries(distances[rows], split) for split, rows in rows_by_split(splits).items() if len(rows)}
