"""Difficulty statistics for skeleton-based video-anomaly datasets."""

import os

# One BLAS thread unless the caller sets a count. OpenBLAS reads the count once,
# when numpy loads it, and this is numpy's first import in every CLI process.
# skelstat's arithmetic gains nothing from a thread pool: the pool costs CPU at
# start-up, and above 10^4 values it makes a dot product's last bits depend on
# the core count. Child processes see the caller's environment unchanged.
_pin = "OPENBLAS_NUM_THREADS" not in os.environ
if _pin:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
from .core import (
    BoxStats,
    DataError,
    Detections,
    FeatureType,
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

if _pin:
    del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "BoxStats",
    "DataError",
    "Detections",
    "FeatureType",
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
