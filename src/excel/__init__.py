"""Patch-text CAM pipeline for weakly supervised segmentation.

Dense class activation maps come from cosine similarity between ViT patch
features and enriched class text embeddings. The package covers the whole
desk-scale loop: deterministic numeric primitives, a minimal 12-layer ViT
with pluggable attention calibration, text-embedding clustering and
enrichment, a trainable relation adapter with an affinity diversity loss,
AdamW training of that adapter, and evaluation.
"""

__version__ = "0.1.0"

from .errors import (
    ChecksumError,
    DataError,
    ExcelError,
    MissingTensorError,
    NumericError,
    ShapeError,
    UsageError,
)
from .numerics import Rng

__all__ = [
    "ChecksumError",
    "DataError",
    "ExcelError",
    "MissingTensorError",
    "NumericError",
    "Rng",
    "ShapeError",
    "UsageError",
    "__version__",
]
