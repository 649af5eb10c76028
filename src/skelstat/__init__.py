"""Difficulty statistics for skeleton-based video-anomaly datasets."""

from .core import (
    BoxStats,
    DataError,
    FeatureType,
    FeatureWindow,
    FrameLabel,
    Keypoint,
    Label,
    MeanTensor,
    MetricsReport,
    ParseError,
    PoseDetection,
    SdomReport,
    SkelstatError,
    Split,
    Tracklet,
    WindowingConfig,
)

__all__ = [
    "BoxStats",
    "DataError",
    "FeatureType",
    "FeatureWindow",
    "FrameLabel",
    "Keypoint",
    "Label",
    "MeanTensor",
    "MetricsReport",
    "ParseError",
    "PoseDetection",
    "SdomReport",
    "SkelstatError",
    "Split",
    "Tracklet",
    "WindowingConfig",
]

__version__ = "0.1.0"
