"""Difficulty statistics for skeleton-based video-anomaly datasets."""

from .core import (
    BoxStats,
    DataError,
    Detections,
    FeatureType,
    Label,
    Labels,
    MeanTensor,
    MetricsReport,
    ParseError,
    SdomReport,
    SkelstatError,
    Split,
    WindowBatch,
    WindowingConfig,
)

__all__ = [
    "BoxStats",
    "DataError",
    "Detections",
    "FeatureType",
    "Label",
    "Labels",
    "MeanTensor",
    "MetricsReport",
    "ParseError",
    "SdomReport",
    "SkelstatError",
    "Split",
    "WindowBatch",
    "WindowingConfig",
]

__version__ = "0.1.0"
