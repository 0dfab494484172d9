"""Enriched per-class text embeddings built from a description knowledge base.

The knowledge file carries precomputed embeddings (one template plus n
description vectors per class); no text encoder runs here. Descriptions
are clustered into attribute centroids, each class template hunts its
top-K most similar centroids, and the weighted neighbors are folded back
into the template to form the enriched embedding.

Column conventions follow the math: embeddings, templates, centroids and
enriched vectors are all (D, count) matrices with one item per column,
L2-normalized at ingestion.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nm
from .blobio import is_positive_int, load_tensors, save_tensors
from .errors import DataError, NumericError, UsageError
from .numerics import Rng

TEMPLATE_TEXT = "a clean origami of [CLASS]"
KMEANS_MAX_ITERS = 100  # Lloyd iterations before k-means stops unconverged
IGNORE_LABEL = 255  # the label-map value of a pixel no class claims
# class ids 1..C share a uint8 label map with background 0 and IGNORE_LABEL
MAX_CLASSES = IGNORE_LABEL - 1


@dataclass
class KnowledgeBase:
    embeddings: np.ndarray  # (D, n*C), unit columns, class-major order
    class_index: np.ndarray  # (n*C,) int32 column -> class
    templates: np.ndarray  # (D, C), unit columns
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _normalize_columns(m: np.ndarray, what: str) -> np.ndarray:
    m64 = m.astype(np.float64)
    norms = np.sqrt(np.einsum("di,di->i", m64, m64))
    if norms.min(initial=np.inf) < 1e-12:
        raise DataError(f"zero embedding: column {int(np.argmin(norms))} of {what}")
    return (m64 / norms).astype(np.float32)


def _is_name_list(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(isinstance(v, str) for v in value)


_POSITIVE = "a positive integer"
_NAMES = "a non-empty list of strings"


def _class_names(names, path) -> list[str]:
    """`names`, the meta `classes` of the knowledge or bank file at `path`,
    as it is read or before it is written: at most MAX_CLASSES names, so a
    writer refuses what its reader would."""
    if len(names) > MAX_CLASSES:
        raise DataError(
            f"manifest {path} meta 'classes' lists {len(names)} classes, "
            f"more than the {MAX_CLASSES} class ids a label map holds"
        )
    return list(names)


def save_knowledge(path, class_names, templates, descriptions, provenance=None) -> Path:
    """Write the knowledge file `ingest_knowledge` reads: per class `c`,
    `templates[c]` of shape (dim,) and `descriptions[c]` of shape (n, dim)."""
    class_names = _class_names(class_names, path)
    tensors = {}
    for c, (template, desc) in enumerate(zip(templates, descriptions)):
        tensors[f"template.{c:02d}"] = template
        tensors[f"descriptions.{c:02d}"] = desc
    n, dim = len(descriptions[0]), len(templates[0])
    meta = {"classes": class_names, "n": n, "dim": dim, "template_text": TEMPLATE_TEXT}
    return save_tensors(path, tensors, meta=meta, provenance=provenance)


def ingest_knowledge(path) -> KnowledgeBase:
    """Load a knowledge file and L2-normalize every embedding column."""
    tf = load_tensors(path)
    class_names = _class_names(tf.meta_value("classes", _is_name_list, _NAMES), tf.path)
    n = tf.meta_value("n", is_positive_int, _POSITIVE)
    dim = tf.meta_value("dim", is_positive_int, _POSITIVE)
    templates = []
    blocks = []
    class_index = []
    for c, name in enumerate(class_names):
        template = tf.require(f"template.{c:02d}", (dim,))
        desc = tf.require(f"descriptions.{c:02d}")
        if desc.ndim != 2 or desc.shape[1] != dim:
            raise DataError(
                f"descriptions for class '{name}' have shape {desc.shape}, "
                f"expected (n, {dim})"
            )
        if desc.shape[0] != n:
            raise DataError(
                f"ragged description count: class '{name}' has {desc.shape[0]} "
                f"descriptions, expected {n}"
            )
        templates.append(template)
        blocks.append(desc.T)
        class_index.extend([c] * n)
    embeddings = _normalize_columns(np.concatenate(blocks, axis=1), "descriptions")
    template_mat = _normalize_columns(np.stack(templates, axis=1), "templates")
    return KnowledgeBase(
        embeddings=embeddings,
        class_index=np.asarray(class_index, dtype=np.int32),
        templates=template_mat,
        class_names=class_names,
    )


# --------------------------------------------------------------------------
# clustering


@dataclass
class AttributeSpace:
    centroids: np.ndarray  # (D, B), unit columns (normalized after convergence)
    raw_centroids: np.ndarray  # (D, B), member means in embedding space
    assignment: np.ndarray  # (M,) int32 column -> centroid
    inertia: float
    objective_history: list[float] = field(default_factory=list)
    iterations: int = 0


def _kmeans_pp_seed(points: np.ndarray, b: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over row-points; returns (b, D) initial centroids."""
    m = points.shape[0]
    chosen = [int(gen.integers(0, m))]
    d2 = np.einsum("ij,ij->i", points - points[chosen[0]], points - points[chosen[0]])
    while len(chosen) < b:
        total = d2.sum()
        if total <= 0:
            remaining = [i for i in range(m) if i not in set(chosen)]
            chosen.append(remaining[0])
        else:
            idx = int(gen.choice(m, p=d2 / total))
            chosen.append(idx)
        diff = points - points[chosen[-1]]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return points[chosen].copy()


def cluster_attributes(kb: KnowledgeBase, b: int, rng: Rng) -> AttributeSpace:
    """Lloyd k-means with k-means++ seeding over the knowledge columns.

    The sum-of-squared-distances objective is checked to be non-increasing
    after every iteration; empty clusters are re-seeded at the point
    farthest from its assigned centroid. Centroids are L2-normalized after
    convergence so downstream dot-product scores stay commensurate with
    unit templates.
    """
    m = kb.embeddings.shape[1]
    if not 1 <= b <= m:
        raise UsageError(f"cluster count {b} outside 1..{m}")
    points = kb.embeddings.T.astype(np.float64)  # (M, D)
    gen = rng.generator()
    centroids = _kmeans_pp_seed(points, b, gen)
    assignment = np.full(m, -1, dtype=np.int32)
    history: list[float] = []
    prev_obj = np.inf
    iterations = 0
    for _ in range(KMEANS_MAX_ITERS):
        iterations += 1
        d2 = (
            np.einsum("ij,ij->i", points, points)[:, None]
            - 2.0 * points @ centroids.T
            + np.einsum("kj,kj->k", centroids, centroids)[None, :]
        )
        new_assignment = np.argmin(d2, axis=1).astype(np.int32)
        for j in range(b):
            members = points[new_assignment == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        # re-seed empty clusters at the point farthest from its own centroid
        empties = [j for j in range(b) if not np.any(new_assignment == j)]
        if empties:
            residual = points - centroids[new_assignment]
            far_order = np.argsort(-np.einsum("ij,ij->i", residual, residual), kind="stable")
            for rank, j in enumerate(empties):
                centroids[j] = points[far_order[rank]]
        diff = points - centroids[new_assignment]
        obj = float(np.einsum("ij,ij->i", diff, diff).sum())
        if obj > prev_obj * (1 + 1e-12) + 1e-12:
            raise NumericError(f"k-means objective increased: {prev_obj} -> {obj}")
        history.append(obj)
        prev_obj = obj
        if np.array_equal(new_assignment, assignment) and not empties:
            assignment = new_assignment
            break
        assignment = new_assignment
    # the last update left every centroid at its members' mean (or at a
    # re-seeded point when it had none)
    raw = np.ascontiguousarray(centroids.T)
    return AttributeSpace(
        centroids=_normalize_columns(raw.astype(np.float32), "centroids"),
        raw_centroids=raw.astype(np.float32),
        assignment=assignment,
        inertia=prev_obj,
        objective_history=history,
        iterations=iterations,
    )


# --------------------------------------------------------------------------
# hunting and enrichment


def hunt_attributes(template: np.ndarray, centroids: np.ndarray, k: int):
    """Top-k columns of the (D, B) `centroids` by dot-product score; ties
    break toward lower index.

    Returns (indices, scores) sorted by descending score. k past the
    centroid count returns everything.
    """
    if k < 1:
        raise UsageError(f"neighbor count must be >= 1, got {k}")
    template = nm.as_f32(template, "template").reshape(-1)
    scores = template.astype(np.float64) @ centroids.astype(np.float64)
    order = np.argsort(-scores, kind="stable")[:k]
    return order.astype(np.int32), scores[order].astype(np.float32)


def enrich(template: np.ndarray, neighbors: np.ndarray, lam: float) -> np.ndarray:
    """Fold softmax-weighted neighbor columns into the template.

    neighbors is (D, K); the softmax runs over exactly the K selected
    scores. lam = 0 returns the template bit-for-bit.
    """
    template = nm.as_f32(template, "template").reshape(-1)
    neighbors = nm.as_f32(neighbors, "neighbors")
    if neighbors.ndim != 2 or neighbors.shape[0] != template.shape[0]:
        raise DataError(f"neighbor matrix shape {neighbors.shape} does not match dim {template.shape[0]}")
    if neighbors.shape[1] == 0:
        raise DataError("enrich: empty neighbor set")
    if lam == 0.0:
        return template.copy()
    scores = template.astype(np.float64) @ neighbors.astype(np.float64)
    weights = nm.softmax_rows(scores[None, :].astype(np.float32))[0]
    folded = neighbors.astype(np.float64) @ weights.astype(np.float64)
    return (template.astype(np.float64) + lam * folded).astype(np.float32)


@dataclass
class TextRepresentation:
    class_names: list[str]
    enriched: np.ndarray  # (D, C)

    @property
    def dim(self) -> int:
        return self.enriched.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def column_for_class_id(self, class_id: int) -> np.ndarray:
        """Enriched embedding for a dataset label value (1-based foreground)."""
        if not 1 <= class_id <= self.num_classes:
            raise DataError(f"class id {class_id} outside 1..{self.num_classes}")
        return self.enriched[:, class_id - 1]


def build_text_bank(
    kb: KnowledgeBase,
    clusters: int,
    topk: int,
    lam: float,
    rng: Rng,
) -> TextRepresentation:
    """Cluster the knowledge base into `clusters` attributes and enrich
    every class template with its `topk` nearest.

    clusters=0 is the no-clustering baseline: no attribute space, and each
    class folds all of its own description embeddings; `topk` is unused.
    """
    if clusters:
        centroids = cluster_attributes(kb, clusters, rng.child("clustering")).centroids
    columns = []
    for c in range(kb.num_classes):
        template = kb.templates[:, c]
        if clusters:
            neighbors = centroids[:, hunt_attributes(template, centroids, topk)[0]]
        else:
            neighbors = kb.embeddings[:, kb.class_index == c]
        columns.append(enrich(template, neighbors, lam))
    return TextRepresentation(class_names=list(kb.class_names), enriched=np.stack(columns, axis=1))


def attribute_bank(knowledge_path, clusters: int, topk: int, lam: float, seed: int) -> TextRepresentation:
    """The attribute stage's bank, as `excel build-attrs` and a run both
    build it: the knowledge file clustered (unless `clusters` is 0) and
    enriched on the `attributes` stream of `seed`."""
    kb = ingest_knowledge(knowledge_path)
    return build_text_bank(kb, clusters=clusters, topk=topk, lam=lam, rng=Rng(seed).child("attributes"))


# --------------------------------------------------------------------------
# bank serialization


def save_bank(path, bank: TextRepresentation, provenance=None) -> Path:
    """One tensor file: the enriched embeddings as `enriched` (C, dim),
    and meta `classes` and `dim`."""
    meta = {"classes": _class_names(bank.class_names, path), "dim": bank.dim}
    return save_tensors(path, {"enriched": nm.transpose(bank.enriched)}, meta=meta, provenance=provenance)


def load_bank(path) -> TextRepresentation:
    """The bank at `path`: meta `classes` and `dim`, and the tensor
    `enriched` of shape (len(classes), dim). Other meta keys and tensors,
    which banks written by older versions hold, are ignored."""
    tf = load_tensors(path)
    class_names = _class_names(tf.meta_value("classes", _is_name_list, _NAMES), tf.path)
    dim = tf.meta_value("dim", is_positive_int, _POSITIVE)
    enriched = nm.transpose(tf.require("enriched", (len(class_names), dim)))
    return TextRepresentation(class_names=class_names, enriched=enriched)
