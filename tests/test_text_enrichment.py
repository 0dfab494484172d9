import numpy as np
import pytest

from excel.blobio import save_tensors
from excel.errors import DataError, UsageError
from excel.numerics import Rng, cosine_matrix, minmax_norm
from excel.text_enrichment import (
    KnowledgeBase,
    build_text_bank,
    cluster_attributes,
    enrich,
    hunt_attributes,
    ingest_knowledge,
    load_bank,
    save_bank,
)


def synthetic_kb(seed=0, classes=3, n=20, dim=16):
    gen = Rng(seed).generator()
    emb = gen.standard_normal((dim, classes * n)).astype(np.float32)
    emb /= np.linalg.norm(emb.astype(np.float64), axis=0)
    templates = gen.standard_normal((dim, classes)).astype(np.float32)
    templates /= np.linalg.norm(templates.astype(np.float64), axis=0)
    return KnowledgeBase(
        embeddings=emb,
        class_index=np.repeat(np.arange(classes, dtype=np.int32), n),
        templates=templates,
        class_names=[f"class{i}" for i in range(classes)],
    )


def kb_from_points(points):
    """KnowledgeBase whose columns are the given unit (D, M) points."""
    m = points.shape[1]
    return KnowledgeBase(
        embeddings=points.astype(np.float32),
        class_index=np.zeros(m, dtype=np.int32),
        templates=points[:, :1].astype(np.float32),
        class_names=["only"],
    )


# --------------------------------------------------------------------------
# ingestion


def write_knowledge(tmp_path, classes=3, n=20, dim=64, mangle=None):
    gen = Rng(17).generator()
    tensors = {}
    for c in range(classes):
        t = gen.standard_normal(dim).astype(np.float32)
        d = gen.standard_normal((n, dim)).astype(np.float32)
        tensors[f"template.{c:02d}"] = t
        tensors[f"descriptions.{c:02d}"] = d
    if mangle:
        mangle(tensors)
    meta = {"classes": [f"class{c}" for c in range(classes)], "n": n, "dim": dim}
    return save_tensors(tmp_path / "kb.json", tensors, meta=meta)


def test_ingest_fixture_counts(fixture_kb):
    assert fixture_kb.num_classes == 3
    assert fixture_kb.embeddings.shape[1] // fixture_kb.num_classes == 20
    assert fixture_kb.embeddings.shape == (64, 60)
    norms = np.linalg.norm(fixture_kb.embeddings.astype(np.float64), axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_ingest_synthetic_roundtrip(tmp_path):
    path = write_knowledge(tmp_path)
    kb = ingest_knowledge(path)
    assert kb.embeddings.shape == (64, 60)
    assert kb.class_index.tolist() == [c for c in range(3) for _ in range(20)]


def test_ingest_ragged_count_error(tmp_path):
    def chop(tensors):
        tensors["descriptions.01"] = tensors["descriptions.01"][:19]

    path = write_knowledge(tmp_path, mangle=chop)
    with pytest.raises(DataError, match="ragged"):
        ingest_knowledge(path)


def test_ingest_zero_vector_error(tmp_path):
    def zero(tensors):
        tensors["descriptions.00"][3] = 0.0

    path = write_knowledge(tmp_path, mangle=zero)
    with pytest.raises(DataError, match="zero embedding"):
        ingest_knowledge(path)


def test_ingest_dim_mismatch_error(tmp_path):
    def reshape(tensors):
        tensors["descriptions.02"] = tensors["descriptions.02"][:, :32]

    path = write_knowledge(tmp_path, mangle=reshape)
    with pytest.raises(DataError, match="expected"):
        ingest_knowledge(path)


# --------------------------------------------------------------------------
# clustering


def test_cluster_each_point_its_own_centroid():
    gen = Rng(2).generator()
    pts = gen.standard_normal((8, 6)).astype(np.float32)
    pts /= np.linalg.norm(pts.astype(np.float64), axis=0)
    kb = kb_from_points(pts)
    space = cluster_attributes(kb, b=6, rng=Rng(3))
    assert space.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(space.assignment.tolist())) == 6


def two_blob_kb(seed=4, per_blob=20, dim=12, noise=0.1):
    gen = Rng(seed).generator()
    mu1 = np.zeros(dim)
    mu1[0] = 1.0
    mu2 = np.zeros(dim)
    mu2[1] = 1.0
    pts = []
    for mu in (mu1, mu2):
        block = mu[None, :] + noise * gen.standard_normal((per_blob, dim))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        pts.append(block)
    points = np.concatenate(pts, axis=0).T.astype(np.float32)
    return kb_from_points(points), per_blob, noise


def test_cluster_two_blobs_recovers_assignment():
    kb, per_blob, noise = two_blob_kb()
    space = cluster_attributes(kb, b=2, rng=Rng(5))
    points = kb.embeddings.T.astype(np.float64)
    blob_means = [points[:per_blob].mean(axis=0), points[per_blob:].mean(axis=0)]
    # brute-force nearest-mean oracle
    oracle = np.array(
        [np.argmin([np.linalg.norm(p - m) for m in blob_means]) for p in points]
    )
    # identify which centroid matches which blob
    c0 = space.raw_centroids[:, 0].astype(np.float64)
    mapping = int(np.argmin([np.linalg.norm(c0 - m) for m in blob_means]))
    mapped = np.where(space.assignment == 0, mapping, 1 - mapping)
    assert np.array_equal(mapped, oracle)
    for j in range(2):
        blob = blob_means[mapping] if j == 0 else blob_means[1 - mapping]
        dist = np.linalg.norm(space.raw_centroids[:, j].astype(np.float64) - blob)
        assert dist <= 3 * noise / np.sqrt(per_blob)


def test_cluster_objective_non_increasing_many_seeds():
    for seed in range(50):
        kb = synthetic_kb(seed=seed, classes=2, n=10, dim=8)
        space = cluster_attributes(kb, b=4, rng=Rng(seed))
        hist = space.objective_history
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:]))


def test_centroids_equal_member_means():
    kb = synthetic_kb(seed=11)
    space = cluster_attributes(kb, b=7, rng=Rng(11))
    points = kb.embeddings.T.astype(np.float64)
    for j in range(7):
        members = points[space.assignment == j]
        assert len(members) > 0
        np.testing.assert_allclose(
            space.raw_centroids[:, j], members.mean(axis=0), atol=1e-5
        )


def test_cluster_voc_sized_all_non_empty():
    # 20 classes x 20 descriptions -> 400 columns, 112 clusters
    kb = synthetic_kb(seed=12, classes=20, n=20, dim=32)
    space = cluster_attributes(kb, b=112, rng=Rng(12))
    assert space.centroids.shape[1] == 112
    occupied = set(space.assignment.tolist())
    assert occupied == set(range(112))


def test_cluster_b_out_of_range():
    kb = synthetic_kb()
    with pytest.raises(UsageError):
        cluster_attributes(kb, b=0, rng=Rng(0))
    with pytest.raises(UsageError):
        cluster_attributes(kb, b=61, rng=Rng(0))


def test_cluster_deterministic():
    kb = synthetic_kb(seed=13)
    s1 = cluster_attributes(kb, b=5, rng=Rng(14))
    s2 = cluster_attributes(kb, b=5, rng=Rng(14))
    assert s1.centroids.tobytes() == s2.centroids.tobytes()
    assert np.array_equal(s1.assignment, s2.assignment)


# --------------------------------------------------------------------------
# hunting


def test_hunt_all_centroids_sorted():
    kb = synthetic_kb(seed=20)
    space = cluster_attributes(kb, b=6, rng=Rng(20))
    idx, scores = hunt_attributes(kb.templates[:, 0], space.centroids, k=6)
    assert len(idx) == 6
    assert all(scores[i] >= scores[i + 1] for i in range(5))
    assert hunt_attributes(kb.templates[:, 0], space.centroids, k=100)[0].shape == (6,)


def test_hunt_top1_is_matching_centroid():
    dim = 8
    centroids = np.eye(dim, 5, dtype=np.float32)
    template = centroids[:, 3]
    idx, scores = hunt_attributes(template, centroids, k=1)
    assert idx[0] == 3
    assert scores[0] == pytest.approx(1.0, abs=1e-6)


def test_hunt_matches_full_sort_oracle():
    gen = Rng(21).generator()
    for trial in range(20):
        b = int(gen.integers(3, 30))
        dim = int(gen.integers(4, 16))
        centroids = gen.standard_normal((dim, b)).astype(np.float32)
        centroids /= np.linalg.norm(centroids.astype(np.float64), axis=0)
        t = gen.standard_normal(dim).astype(np.float32)
        k = int(gen.integers(1, b + 1))
        idx, scores = hunt_attributes(t, centroids, k)
        full = t.astype(np.float64) @ centroids.astype(np.float64)
        oracle = sorted(range(b), key=lambda j: (-full[j], j))[:k]
        assert idx.tolist() == oracle


def test_hunt_tie_breaks_to_lower_index():
    centroids = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])], axis=1).astype(np.float32)
    idx, _ = hunt_attributes(np.array([1.0, 0.0], np.float32), centroids, k=2)
    assert idx.tolist() == [0, 1]


def test_hunt_selected_minimum_dominates_unselected():
    gen = Rng(22).generator()
    for trial in range(1000):
        b = int(gen.integers(2, 24))
        dim = 8
        centroids = gen.standard_normal((dim, b)).astype(np.float32)
        centroids /= np.linalg.norm(centroids.astype(np.float64), axis=0)
        t = gen.standard_normal(dim).astype(np.float32)
        k = int(gen.integers(1, b))
        idx, scores = hunt_attributes(t, centroids, k)
        full = t.astype(np.float64) @ centroids.astype(np.float64)
        unselected = np.delete(full, idx)
        if unselected.size:
            assert scores.min() >= unselected.max() - 1e-9


# --------------------------------------------------------------------------
# enrichment


def test_enrich_lambda_zero_is_identity_bitwise():
    gen = Rng(30).generator()
    t = gen.standard_normal(8).astype(np.float32)
    neighbors = gen.standard_normal((8, 4)).astype(np.float32)
    out = enrich(t, neighbors, lam=0.0)
    assert out.tobytes() == t.tobytes()


def test_enrich_single_neighbor():
    t = np.array([1.0, 0.0], np.float32)
    a = np.array([[0.0], [1.0]], np.float32)
    out = enrich(t, a, lam=0.5)
    np.testing.assert_allclose(out, [1.0, 0.5], atol=1e-7)


def test_enrich_two_equal_scores_average():
    t = np.array([1.0, 0.0, 0.0], np.float32)
    neighbors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.float32)  # both orthogonal to t
    out = enrich(t, neighbors, lam=1.0)
    np.testing.assert_allclose(out, [1.0, 0.5, 0.5], atol=1e-6)


def test_enrich_lambda_scaling_exact():
    gen = Rng(31).generator()
    t = gen.standard_normal(8).astype(np.float32)
    neighbors = gen.standard_normal((8, 5)).astype(np.float32)
    base = enrich(t, neighbors, lam=1.0).astype(np.float64) - t.astype(np.float64)
    for s in (0.25, 0.5, 2.0):
        scaled = enrich(t, neighbors, lam=s).astype(np.float64) - t.astype(np.float64)
        np.testing.assert_allclose(scaled, s * base, atol=1e-6)


# --------------------------------------------------------------------------
# bank


def test_bank_lambda_zero_equals_templates(fixture_kb):
    bank = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.0, rng=Rng(40))
    assert bank.enriched.tobytes() == fixture_kb.templates.tobytes()


def test_bank_deterministic(fixture_kb):
    b1 = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.5, rng=Rng(41))
    b2 = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.5, rng=Rng(41))
    assert b1.enriched.tobytes() == b2.enriched.tobytes()


def test_bank_matches_independent_recomputation(fixture_kb):
    bank = build_text_bank(fixture_kb, clusters=16, topk=8, lam=0.5, rng=Rng(42))
    # the bank clusters on its rng's `clustering` stream
    centroids = cluster_attributes(fixture_kb, 16, Rng(42).child("clustering")).centroids.astype(np.float64)
    for c in range(fixture_kb.num_classes):
        t = fixture_kb.templates[:, c].astype(np.float64)
        scores = t @ centroids
        order = sorted(range(centroids.shape[1]), key=lambda j: (-scores[j], j))[:8]
        sel = centroids[:, order]
        raw = scores[order]
        weights = np.exp(raw - raw.max())
        weights /= weights.sum()
        expected = t + 0.5 * sel @ weights
        np.testing.assert_allclose(bank.enriched[:, c], expected, atol=1e-5)
        # enriched stays aligned with its template at least as well as the oracle bound
        cos_impl = float(
            cosine_matrix(bank.enriched[:, c : c + 1], fixture_kb.templates[:, c : c + 1])[0, 0]
        )
        cos_oracle = float(
            expected @ t / (np.linalg.norm(expected) * np.linalg.norm(t))
        )
        assert cos_impl > cos_oracle - 1e-5


def test_bank_unclustered_uses_own_descriptions(fixture_kb):
    # each class folds the softmax-weighted sum of all its own descriptions
    bank = build_text_bank(fixture_kb, clusters=0, topk=8, lam=0.5, rng=Rng(43))
    for c in range(fixture_kb.num_classes):
        t = fixture_kb.templates[:, c].astype(np.float64)
        own = fixture_kb.embeddings[:, fixture_kb.class_index == c].astype(np.float64)
        scores = t @ own
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        np.testing.assert_allclose(bank.enriched[:, c], t + 0.5 * own @ weights, atol=1e-5)


def test_bank_save_load_roundtrip(tmp_path, fixture_kb):
    bank = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.5, rng=Rng(44))
    path = save_bank(tmp_path / "bank.json", bank, provenance={"stage": "attributes"})
    loaded = load_bank(path)
    assert loaded.enriched.tobytes() == bank.enriched.tobytes()
    assert loaded.class_names == bank.class_names
    assert loaded.dim == bank.dim == fixture_kb.templates.shape[0]


def test_argmax_class_invariant_under_positive_scaling(fixture_kb):
    gen = Rng(45).generator()
    bank = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.5, rng=Rng(45))
    feats = gen.standard_normal((64, 30)).astype(np.float32)
    sims = cosine_matrix(feats, bank.enriched)
    scaled = bank.enriched * gen.uniform(0.5, 3.0, bank.enriched.shape[1]).astype(np.float32)
    sims_scaled = cosine_matrix(feats, scaled)
    assert np.array_equal(sims.argmax(axis=1), sims_scaled.argmax(axis=1))
    # per-class maps are unchanged too: minmax of a per-class column is
    # invariant to positive rescaling of that column
    for c in range(sims.shape[1]):
        np.testing.assert_allclose(
            minmax_norm(sims[:, c]), minmax_norm(sims_scaled[:, c]), atol=1e-6
        )
