"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with -s to see them inline).

The heavyweight toy-dataset artifacts (static/vanilla/dynamic label maps,
a 500-iteration training run) are computed once per module and shared.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from excel.blobio import write_json
from excel.cli import main
from excel.config import PipelineConfig, parse_config
from excel.dynamic_calibration import (
    AdapterParams,
    adapter_diversity_loss,
    dynamic_cams,
    dynamic_relation,
    init_adapter,
)
from excel.encoder import (
    LAYER_COUNT,
    VALUE_VALUE,
    VANILLA,
    Calibration,
    LayerTrace,
    encode_stack,
    expected_row_sums,
    layer_attention,
)
from excel.numerics import Rng, softmax_rows
from excel.pipeline import run_pipeline
from excel.static_calibration import run_static_passes
from excel.text_enrichment import (
    KnowledgeBase,
    attribute_bank,
    build_text_bank,
    cluster_attributes,
    hunt_attributes,
)
from excel.training_eval import evaluate, train_loop, upsample_labels
from conftest import assert_masks_oracle, every_pair, one_image_gradient, oracle_relation, read_loss_curve

TRAIN_ITERATIONS = 500


def ok(num, message):
    print(f"PASS  criterion {num}: {message}")


# --------------------------------------------------------------------------
# shared toy-scale artifacts


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory, fixture_paths, fixture_weights, fixture_dataset, fixture_bank, fixture_static):
    # fixture_bank is clustered with cfg's topk and lam under seed 7, and
    # fixture_static is its calibrated pass under cfg's calibration; the
    # no-clustering baseline is the bank of a run with clusters 0
    cfg = PipelineConfig(iterations=TRAIN_ITERATIONS, seed=7)
    bank = fixture_bank
    bank_unclustered = attribute_bank(fixture_paths["knowledge"], clusters=0, topk=cfg.topk, lam=cfg.lam, seed=cfg.seed)

    def miou_of(label_maps):
        preds = [upsample_labels(labels, fixture_weights.patch_size) for labels in label_maps]
        gts = [rec.mask for rec in fixture_dataset.images]
        return evaluate(preds, gts, num_labels=len(fixture_dataset.class_names)).miou

    def static_labels(policy, which_bank):
        results = run_static_passes(
            fixture_dataset.images, fixture_weights, which_bank, policy, cfg.tau_fg, cfg.tau_bg, keep_traces=False
        )
        return [res.labels for res in results]

    t0 = time.monotonic()
    vanilla_labels = static_labels(VANILLA, bank)
    unclustered_labels = static_labels(cfg.calibration(), bank_unclustered)

    backbone_before = b"".join(
        arr.tobytes() for arr in fixture_weights.tensors.values()
    )
    train_dir = tmp_path_factory.mktemp("train")
    adapter = train_loop(fixture_static, fixture_weights.dim, cfg, train_dir, {})
    backbone_after = b"".join(
        arr.tobytes() for arr in fixture_weights.tensors.values()
    )
    dynamic_labels = [
        res.labels
        for res in dynamic_cams(
            fixture_dataset.images,
            fixture_weights,
            adapter,
            bank,
            cfg.tau_fg,
            cfg.tau_bg,
            [static.trace for static in fixture_static],
        )
    ]
    elapsed = time.monotonic() - t0
    return {
        "config": cfg,
        "miou_static": miou_of([res.labels for res in fixture_static]),
        "miou_vanilla": miou_of(vanilla_labels),
        "miou_unclustered": miou_of(unclustered_labels),
        "miou_dynamic": miou_of(dynamic_labels),
        "curve": read_loss_curve(train_dir / "loss_curve.csv"),
        "backbone_unchanged": backbone_before == backbone_after,
        "elapsed": elapsed,
    }


# --------------------------------------------------------------------------
# criterion 1: attention stochasticity


def test_criterion_1_attention_stochasticity(fixture_weights):
    t0 = time.monotonic()
    gen = Rng(1001).generator()
    hw = fixture_weights.grid[0] * fixture_weights.grid[1]
    tokens = hw + 1
    worst = 0.0
    for i in range(20):
        image = gen.random((3, 64, 64)).astype(np.float32)
        feats = gen.standard_normal((6, hw)).astype(np.float32)
        beta = float(gen.uniform(0, 1))
        relation = dynamic_relation(feats, alpha=3.0, beta=beta)
        assert_masks_oracle(relation, oracle_relation(feats, 3.0, beta))
        policies = [
            (VANILLA, None),
            (VALUE_VALUE, None),
            (Calibration(layers=5), None),
            (Calibration(layers=5), relation),
        ]
        for policy, bias in policies:
            trace = encode_stack([image], fixture_weights, policy, None if bias is None else [bias])[0]
            for layer in range(LAYER_COUNT):
                expected = expected_row_sums(policy, bias, layer, tokens)
                attn = layer_attention(trace, fixture_weights, layer)
                err = np.abs(attn.sum(axis=2) - expected[None, :]).max()
                worst = max(worst, float(err))
                assert err <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok(1, f"4 policies x 20 images: max row-sum deviation {worst:.2e} (<1e-5), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: masking semantics


def test_criterion_2_masking_semantics():
    gen = Rng(1002).generator()
    for trial in range(100):
        hw = int(gen.integers(4, 26))
        feats = gen.standard_normal((int(gen.integers(3, 10)), hw)).astype(np.float32)
        beta = float(gen.uniform(0.0, 1.0))
        rel = dynamic_relation(feats, alpha=3.0, beta=beta)
        oracle = oracle_relation(feats, 3.0, beta)
        assert_masks_oracle(rel, oracle)
        soft = softmax_rows(rel)
        assert (soft[oracle < 0] == 0.0).all()
        assert np.isfinite(np.diag(rel)).all()
    ok(2, "100 random relations: softmax exactly 0 where r<0; diagonal finite for beta<=1")


# --------------------------------------------------------------------------
# criterion 3: gradient oracle


def _tiny_gradient_instance(seed):
    gen = Rng(seed).generator()
    feats = [gen.standard_normal((10, 8)).astype(np.float32) for _ in range(12)]
    trace = LayerTrace(
        grid=(3, 3), calibration=Calibration(layers=0), relation=None, resume=feats[-1], features=np.stack(feats), patch_features=np.zeros((8, 3, 3), np.float32),
    )
    adapter = init_adapter(Rng(seed).child("a"), 8, 4, 6, 1, 0.5, 3.0, 1.0)
    adapter = AdapterParams({k: a.astype(np.float64) for k, a in adapter.tensors.items()}, adapter.alpha, adapter.beta)
    labels = gen.integers(0, 3, size=(3, 3)).astype(np.uint8)
    labels[0, 0] = 255
    return trace, adapter, labels


def test_criterion_3_gradient_oracle():
    t0 = time.monotonic()
    eps = 1e-3
    worst = 0.0
    for seed in range(20):
        trace, adapter, labels = _tiny_gradient_instance(seed)
        batch = every_pair(labels)
        _, grads = one_image_gradient(trace, adapter, batch)
        for name, arr in adapter.tensors.items():
            flat = arr.reshape(-1)
            fd = np.zeros(flat.shape[0])
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + eps
                lp = adapter_diversity_loss(trace, adapter, batch)
                flat[i] = orig - eps
                lm = adapter_diversity_loss(trace, adapter, batch)
                flat[i] = orig
                fd[i] = (lp - lm) / (2 * eps)
            an = grads[name].reshape(-1)
            rel = np.abs(an - fd) / np.maximum(np.maximum(np.abs(an), np.abs(fd)), eps)
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    ok(3, f"20 seeds, hw=9 D=8: max relative error vs central differences {worst:.2e} (<1e-4), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: clustering oracle


def _random_kb(seed, classes=2, n=10, dim=8):
    gen = Rng(seed).generator()
    emb = gen.standard_normal((dim, classes * n)).astype(np.float32)
    emb /= np.linalg.norm(emb.astype(np.float64), axis=0)
    return KnowledgeBase(
        embeddings=emb,
        class_index=np.repeat(np.arange(classes, dtype=np.int32), n),
        templates=emb[:, :classes].copy(),
        class_names=[f"c{i}" for i in range(classes)],
    )


def test_criterion_4_clustering_oracle():
    # objective monotone + centroid/member-mean agreement over 50 seeded runs
    worst_gap = 0.0
    for seed in range(50):
        kb = _random_kb(seed)
        space = cluster_attributes(kb, b=4, rng=Rng(seed))
        hist = space.objective_history
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:]))
        points = kb.embeddings.T.astype(np.float64)
        for j in range(space.centroids.shape[1]):
            members = points[space.assignment == j]
            if len(members):
                gap = np.abs(space.raw_centroids[:, j] - members.mean(axis=0)).max()
                worst_gap = max(worst_gap, float(gap))
                assert gap <= 1e-5
    # separated blobs: exact recovery against the nearest-mean oracle
    gen = Rng(4040).generator()
    dim, per_blob, noise = 12, 20, 0.1
    mu = [np.eye(dim)[0], np.eye(dim)[1]]
    pts = []
    for m in mu:
        block = m[None, :] + noise * gen.standard_normal((per_blob, dim))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        pts.append(block)
    points = np.concatenate(pts, axis=0)
    kb = KnowledgeBase(
        embeddings=points.T.astype(np.float32),
        class_index=np.zeros(2 * per_blob, np.int32),
        templates=points[:1].T.astype(np.float32),
        class_names=["only"],
    )
    space = cluster_attributes(kb, b=2, rng=Rng(4041))
    blob_means = [points[:per_blob].mean(axis=0), points[per_blob:].mean(axis=0)]
    oracle = np.array([np.argmin([np.linalg.norm(p - m) for m in blob_means]) for p in points])
    c0 = space.raw_centroids[:, 0].astype(np.float64)
    flip = int(np.argmin([np.linalg.norm(c0 - m) for m in blob_means]))
    mapped = np.where(space.assignment == 0, flip, 1 - flip)
    assert np.array_equal(mapped, oracle)
    ok(4, f"50 runs monotone; centroid/member-mean gap {worst_gap:.1e} (<1e-5); blob assignment exact")


# --------------------------------------------------------------------------
# criterion 5: text enrichment identities


def test_criterion_5_tse_identities(fixture_kb, toy_run):
    # lambda = 0 reproduces templates bit for bit
    bank0 = build_text_bank(fixture_kb, clusters=8, topk=4, lam=0.0, rng=Rng(5050))
    assert bank0.enriched.tobytes() == fixture_kb.templates.tobytes()
    # TOPK: min selected score >= max unselected score on 1000 random banks
    gen = Rng(5051).generator()
    for trial in range(1000):
        b = int(gen.integers(2, 24))
        centroids = gen.standard_normal((8, b)).astype(np.float32)
        centroids /= np.linalg.norm(centroids.astype(np.float64), axis=0)
        t = gen.standard_normal(8).astype(np.float32)
        k = int(gen.integers(1, b))
        idx, scores = hunt_attributes(t, centroids, k)
        full = t.astype(np.float64) @ centroids.astype(np.float64)
        unselected = np.delete(full, idx)
        assert scores.min() >= unselected.max() - 1e-9
    # clustered attributes do not trail the no-clustering baseline
    clustered = toy_run["miou_static"]
    unclustered = toy_run["miou_unclustered"]
    assert clustered >= unclustered - 0.02
    ok(
        5,
        f"lambda=0 bitwise; TOPK dominance x1000; mIoU clustered {clustered:.4f} >= "
        f"unclustered {unclustered:.4f} - 0.02",
    )


def test_criterion_5_unclustered_baseline_is_a_run(tmp_path, fixture_paths, toy_run):
    # the no-clustering baseline as `excel run` reaches it: a static-only
    # run with clusters 0 scores criterion 5's unclustered mIoU to every
    # digit, and its bank blob is the one `build-attrs` writes from its config
    inputs = {key: str(fixture_paths[key]) for key in ("weights", "knowledge", "dataset")}
    cfg = parse_config({**inputs, "seed": 7, "clusters": 0, "out_dir": str(tmp_path / "run")})
    _, report = run_pipeline(cfg, mode="static-only")
    assert report.miou == toy_run["miou_unclustered"]
    bank = tmp_path / "cli" / "attrs.json"
    argv = ["build-attrs", "--config", str(write_json(tmp_path / "run.json", cfg.to_dict())), "--out", str(bank)]
    assert main(argv) == 0
    assert bank.with_suffix(".bin").read_bytes() == (tmp_path / "run" / "attrs.bin").read_bytes()
    ok(5, f"clusters 0 static-only run mIoU {report.miou!r}, the baseline's to every digit; build-attrs bank identical")


# --------------------------------------------------------------------------
# criterion 6: training-free vs trained ordering


def test_criterion_6_policy_ordering(toy_run):
    static, vanilla, dynamic = (
        toy_run["miou_static"],
        toy_run["miou_vanilla"],
        toy_run["miou_dynamic"],
    )
    assert dynamic >= static
    assert static >= vanilla + 0.05
    assert toy_run["elapsed"] < 600.0
    ok(
        6,
        f"dynamic {dynamic:.4f} >= static {static:.4f} >= vanilla {vanilla:.4f} + 0.05; "
        f"full run {toy_run['elapsed']:.0f}s (<600s)",
    )


# --------------------------------------------------------------------------
# criterion 7: loss descent + frozen backbone


def test_criterion_7_loss_descent_frozen_backbone(toy_run):
    curve = toy_run["curve"]
    assert len(curve) == TRAIN_ITERATIONS
    first, last = curve[0][1], curve[-1][1]
    assert last < first
    # trend check partway through
    assert curve[200][1] < curve[0][1]
    assert toy_run["backbone_unchanged"]
    ok(7, f"diversity loss {first:.4f} -> {last:.4f} over {TRAIN_ITERATIONS} iterations; backbone bytes unchanged")


# --------------------------------------------------------------------------
# criterion 8: determinism of the full pipeline


def _tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_run_determinism(tmp_path, fixture_paths):
    def run_once(out_dir):
        cfg = parse_config(
            {
                "seed": 21,
                "weights": str(fixture_paths["weights"]),
                "knowledge": str(fixture_paths["knowledge"]),
                "dataset": str(fixture_paths["dataset"]),
                "out_dir": str(out_dir),
                "iterations": 40,
                "batch_size": 4,
                "clusters": 16,
            }
        )
        run_pipeline(cfg, mode="full")
        return _tree_bytes(out_dir)

    tree1 = run_once(tmp_path / "run1")
    tree2 = run_once(tmp_path / "run2")
    assert tree1.keys() == tree2.keys()
    diffs = [name for name in tree1 if tree1[name] != tree2[name]]
    assert diffs == []
    ok(8, f"two full runs: {len(tree1)} files byte-identical")


# --------------------------------------------------------------------------
# criterion 9: metric correctness


def test_criterion_9_metric_correctness():
    pred = np.zeros((2, 8), np.uint8)
    gt = np.zeros((2, 8), np.uint8)
    pred[:, 0:4] = 1
    gt[:, 2:6] = 1
    report = evaluate([pred], [gt], num_labels=2)
    assert report.per_class_iou[1] == 1 / 3  # exact: 4 / 12
    gen = Rng(9090).generator()
    maps = [gen.integers(0, 4, size=(6, 6)).astype(np.uint8) for _ in range(4)]
    identical = evaluate(maps, maps, num_labels=4)
    assert identical.miou == 1.0
    ok(9, "half-overlap IoU exactly 1/3; identical maps mIoU exactly 1.0")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
