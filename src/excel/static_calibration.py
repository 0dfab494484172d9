"""Training-free CAM generation from calibrated features and enriched text.

A CAM for class c is the min-max-normalized cosine similarity between
every patch feature column and the class's enriched text embedding.
Pseudo labels come from a dual confidence band: the winning class above
tau_fg, background below tau_bg, ignore (255) in between.
"""

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .blobio import save_tensors
from .encoder import Calibration, EncoderWeights, LayerTrace, encode_chunks
from .errors import DataError, UsageError
from .text_enrichment import IGNORE_LABEL, TextRepresentation

BACKGROUND_LABEL = 0


@dataclass
class CamStack:
    maps: np.ndarray  # (k, h, w) float32 in [0, 1]
    class_ids: list[int]  # ascending dataset label values
    grid: tuple[int, int]


PseudoLabelMap = np.ndarray  # (h, w) uint8: class id, 0 background, 255 ignore


def static_cam(
    patch_features: np.ndarray, bank: TextRepresentation, present: list[int]
) -> CamStack:
    """Per-class normalized cosine maps over the (D, h, w) feature grid for
    the image-level label set `present` (dataset class ids)."""
    patch_features = nm.as_f32(patch_features, "patch features")
    if patch_features.ndim != 3:
        raise DataError(f"patch features must be (D, h, w), got {patch_features.shape}")
    if not present:
        raise DataError("empty present-class set: image-level labels are required")
    dim, h, w = patch_features.shape
    if dim != bank.dim:
        raise DataError(f"feature dim {dim} does not match text bank dim {bank.dim}")
    flat = patch_features.reshape(dim, h * w)
    class_ids = sorted(set(int(c) for c in present))
    maps = np.empty((len(class_ids), h, w), dtype=np.float32)
    for i, cid in enumerate(class_ids):
        column = bank.column_for_class_id(cid)
        sims = nm.cosine_matrix(flat, column[:, None])[:, 0]
        maps[i] = nm.minmax_norm(sims).reshape(h, w)
    return CamStack(maps=maps, class_ids=class_ids, grid=(h, w))


def cam_to_pseudo_label(cams: CamStack, tau_fg: float, tau_bg: float) -> PseudoLabelMap:
    """Confidence-band refinement: winning class >= tau_fg, background
    <= tau_bg, ignore in between. Argmax ties break toward the lower
    class id (class_ids are kept ascending)."""
    if not 0.0 <= tau_bg < tau_fg <= 1.0:
        raise UsageError(f"thresholds must satisfy 0 <= tau_bg < tau_fg <= 1, got bg={tau_bg} fg={tau_fg}")
    scores = cams.maps
    best = scores.argmax(axis=0)
    peak = scores.max(axis=0)
    ids = np.asarray(cams.class_ids, dtype=np.int32)
    labels = np.full(cams.grid, IGNORE_LABEL, dtype=np.uint8)
    labels[peak <= tau_bg] = BACKGROUND_LABEL
    fg = peak >= tau_fg
    labels[fg] = ids[best[fg]].astype(np.uint8)
    return labels


@dataclass
class CamResult:
    """One image's CAMs and pseudo labels, static or dynamic."""

    cams: CamStack
    labels: PseudoLabelMap
    trace: LayerTrace | None  # the pass the CAMs were made from, kept only under `keep_traces`


def run_static_passes(
    records,
    weights: EncoderWeights,
    bank: TextRepresentation,
    calibration: Calibration,
    tau_fg: float,
    tau_bg: float,
    keep_traces: bool,
    job: Callable[[slice], tuple] | None = None,
) -> list[CamResult]:
    """encode -> static_cam -> cam_to_pseudo_label over dataset records
    (`.labels`) in their order, one stacked pass per `encoder.chunks`
    chunk, run by `encode_chunks`: the one CAM loop of both stages.

    job(part) gives a chunk's (images, relations, prefixes) just before
    its pass; by default it reads the chunk's records' `.image`, which
    is the static stage, with zero learnable state. The dynamic stage
    passes a job that resumes its static traces under a relation bias.
    Without `keep_traces` a chunk's traces are dropped as soon as its CAMs
    are made, so at most the two chunks in flight hold traces at a time."""
    results = []

    def read_images(part):
        return [rec.image for rec in records[part]], None, None

    def consume(part, traces):
        for rec, trace in zip(records[part], traces):
            cams = static_cam(trace.patch_features, bank, rec.labels)
            labels = cam_to_pseudo_label(cams, tau_fg, tau_bg)
            results.append(CamResult(cams=cams, labels=labels, trace=trace if keep_traces else None))

    encode_chunks(len(records), weights, calibration, job or read_images, consume)
    return results


# --------------------------------------------------------------------------
# CAM export


def save_cams(path, cams: CamStack, provenance=None) -> Path:
    tensors = {f"cam.{cid:03d}": cams.maps[i] for i, cid in enumerate(cams.class_ids)}
    meta = {"class_ids": cams.class_ids, "grid": list(cams.grid)}
    return save_tensors(path, tensors, meta=meta, provenance=provenance)
