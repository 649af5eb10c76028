"""Difficulty statistics for skeleton-based video-anomaly datasets."""

from .core import (
    BoxStats,
    DataError,
    Detections,
    FeatureType,
    FeatureWindow,
    Label,
    Labels,
    MeanTensor,
    MetricsReport,
    ParseError,
    SdomReport,
    SkelstatError,
    Split,
    WindowingConfig,
)

__all__ = [
    "BoxStats",
    "DataError",
    "Detections",
    "FeatureType",
    "FeatureWindow",
    "Label",
    "Labels",
    "MeanTensor",
    "MetricsReport",
    "ParseError",
    "SdomReport",
    "SkelstatError",
    "Split",
    "WindowingConfig",
]

__version__ = "0.1.0"
