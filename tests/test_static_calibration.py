import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from excel.errors import DataError, UsageError
from excel.numerics import Rng
from excel.blobio import load_tensors
from excel.static_calibration import (
    CamStack,
    cam_to_pseudo_label,
    run_static_passes,
    save_cams,
    static_cam,
)
from excel.encoder import LAYER_COUNT, VANILLA, AttentionWork, Calibration, _attention, _head_attention, encode_stack
from excel.text_enrichment import TextRepresentation
from excel.config import PipelineConfig


def bank_from_columns(columns):
    """Minimal bank whose enriched columns are given as (D, C)."""
    columns = columns.astype(np.float32)
    return TextRepresentation(class_names=[f"c{i}" for i in range(columns.shape[1])], enriched=columns)


# --------------------------------------------------------------------------
# intra_correlation


def intra_correlation(q, k, v, weights):
    """The encoder's attention map for one head in a calibrated layer."""
    calibration = Calibration(layers=1, weights=weights)
    return _head_attention(calibration, LAYER_COUNT - 1, q, k, v, q.shape[1], None, AttentionWork.of(q.shape))


def test_intra_correlation_selector_weights():
    gen = Rng(1).generator()
    q = gen.standard_normal((6, 4)).astype(np.float32)
    k = gen.standard_normal((6, 4)).astype(np.float32)
    v = gen.standard_normal((6, 4)).astype(np.float32)
    out = intra_correlation(q, k, v, (1.0, 0.0, 0.0))
    np.testing.assert_allclose(out, _attention(q, q, 4, AttentionWork.of(q.shape)), atol=1e-7)


def test_intra_correlation_identical_tokens_uniform():
    token = Rng(2).generator().standard_normal(4).astype(np.float32)
    o = np.tile(token, (5, 1))
    out = intra_correlation(o, o, o, (1 / 3, 1 / 3, 1 / 3))
    np.testing.assert_allclose(out, np.full((5, 5), 1 / 5), atol=1e-6)


def test_intra_correlation_matches_three_way_oracle():
    gen = Rng(3).generator()
    q = gen.standard_normal((7, 5)).astype(np.float32)
    k = gen.standard_normal((7, 5)).astype(np.float32)
    v = gen.standard_normal((7, 5)).astype(np.float32)
    w = (0.2, 0.3, 0.5)

    def naive_sa(o):
        logits = o.astype(np.float64) @ o.T.astype(np.float64) / np.sqrt(5)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    oracle = w[0] * naive_sa(q) + w[1] * naive_sa(k) + w[2] * naive_sa(v)
    np.testing.assert_allclose(intra_correlation(q, k, v, w), oracle, atol=1e-5)
    np.testing.assert_allclose(intra_correlation(q, k, v, w).sum(axis=1), 1.0, atol=1e-5)


# --------------------------------------------------------------------------
# static_cam


def test_static_cam_constant_map_is_zero():
    t = np.array([1.0, 0.0], np.float32)
    bank = bank_from_columns(t[:, None])
    feats = np.tile(t[:, None, None], (1, 2, 2)).astype(np.float32)
    cams = static_cam(feats, bank, [1])
    assert (cams.maps == 0.0).all()


def test_static_cam_two_orthogonal_halves():
    t1 = np.array([1.0, 0.0], np.float32)
    t2 = np.array([0.0, 1.0], np.float32)
    bank = bank_from_columns(np.stack([t1, t2], axis=1))
    feats = np.zeros((2, 2, 2), np.float32)
    feats[:, :, 0] = t1[:, None]  # left column is class 1
    feats[:, :, 1] = t2[:, None]  # right column is class 2
    cams = static_cam(feats, bank, [1, 2])
    # direct cosine oracle: cos is 1 on own half, 0 on the other
    m1 = cams.maps[cams.class_ids.index(1)]
    m2 = cams.maps[cams.class_ids.index(2)]
    np.testing.assert_allclose(m1[:, 0], 1.0, atol=1e-6)
    np.testing.assert_allclose(m1[:, 1], 0.0, atol=1e-6)
    np.testing.assert_allclose(m2[:, 1], 1.0, atol=1e-6)
    np.testing.assert_allclose(m2[:, 0], 0.0, atol=1e-6)


def test_static_cam_scale_invariance():
    gen = Rng(4).generator()
    bank = bank_from_columns(gen.standard_normal((8, 2)).astype(np.float32))
    feats = gen.standard_normal((8, 3, 3)).astype(np.float32)
    c1 = static_cam(feats, bank, [1, 2])
    c2 = static_cam(10.0 * feats, bank, [1, 2])
    np.testing.assert_allclose(c1.maps, c2.maps, atol=1e-5)


def test_static_cam_values_in_unit_interval(fixture_weights, fixture_bank, fixture_dataset):
    rec = fixture_dataset.images[0]
    trace = encode_stack([rec.image], fixture_weights, Calibration(layers=5))[0]
    cams = static_cam(trace.patch_features, fixture_bank, rec.labels)
    assert cams.maps.min() >= 0.0 and cams.maps.max() <= 1.0


def test_static_cam_empty_present_error():
    bank = bank_from_columns(np.eye(2, dtype=np.float32))
    with pytest.raises(DataError, match="image-level labels"):
        static_cam(np.ones((2, 2, 2), np.float32), bank, [])


def test_static_cam_dim_mismatch():
    bank = bank_from_columns(np.eye(3, dtype=np.float32))
    with pytest.raises(DataError, match="dim"):
        static_cam(np.ones((2, 2, 2), np.float32), bank, [1])


# --------------------------------------------------------------------------
# cam_to_pseudo_label


def stack_for(values, class_ids=(1,)):
    maps = np.asarray(values, np.float32)
    if maps.ndim == 2:
        maps = maps[None]
    return CamStack(maps=maps, class_ids=list(class_ids), grid=maps.shape[1:])


def test_pseudo_label_confident_class():
    labels = cam_to_pseudo_label(stack_for([[0.9, 0.9], [0.9, 0.9]]), 0.55, 0.25)
    assert (labels == 1).all()


def test_pseudo_label_background():
    labels = cam_to_pseudo_label(stack_for([[0.1, 0.1], [0.1, 0.1]]), 0.55, 0.25)
    assert (labels == 0).all()


def test_pseudo_label_ignore_band():
    labels = cam_to_pseudo_label(stack_for([[0.4]]), 0.55, 0.25)
    assert labels[0, 0] == 255


def test_pseudo_label_argmax_tie_lower_class():
    maps = np.stack([np.full((1, 1), 0.8), np.full((1, 1), 0.8)])
    labels = cam_to_pseudo_label(stack_for(maps, class_ids=(2, 5)), 0.55, 0.25)
    assert labels[0, 0] == 2


def test_pseudo_label_threshold_ordering():
    with pytest.raises(UsageError):
        cam_to_pseudo_label(stack_for([[0.5]]), 0.25, 0.55)
    with pytest.raises(UsageError):
        cam_to_pseudo_label(stack_for([[0.5]]), 1.2, 0.2)


def static_result(rec, weights, bank, policy=None):
    cfg = PipelineConfig()
    policy = cfg.calibration() if policy is None else policy
    return run_static_passes([rec], weights, bank, policy, cfg.tau_fg, cfg.tau_bg, keep_traces=True)[0]


def test_pseudo_labels_only_from_present_classes(fixture_weights, fixture_bank, fixture_dataset):
    for rec in fixture_dataset.images[:6]:
        res = static_result(rec, fixture_weights, fixture_bank)
        found = set(np.unique(res.labels).tolist()) - {0, 255}
        assert found <= set(rec.labels)


# --------------------------------------------------------------------------
# pipeline composition


def test_static_pipeline_deterministic(fixture_weights, fixture_bank, fixture_dataset):
    rec = fixture_dataset.images[0]
    r1 = static_result(rec, fixture_weights, fixture_bank)
    r2 = static_result(rec, fixture_weights, fixture_bank)
    assert r1.cams.maps.tobytes() == r2.cams.maps.tobytes()
    assert np.array_equal(r1.labels, r2.labels)


def test_static_pipeline_zero_layers_matches_vanilla(fixture_weights, fixture_bank, fixture_dataset):
    rec = fixture_dataset.images[0]
    res_zero = static_result(rec, fixture_weights, fixture_bank, Calibration(layers=0, weights=(0.2, 0.3, 0.5)))
    res_vanilla = static_result(rec, fixture_weights, fixture_bank, VANILLA)
    assert res_zero.cams.maps.tobytes() == res_vanilla.cams.maps.tobytes()


def arrays_in(value):
    """Every array reachable from `value` through dataclass fields, lists
    and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays_in(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_in(item)


def test_kept_trace_holds_resume_features_and_patch_features_only(wide_weights, fixture_bank):
    # at T=257 a kept trace is one resume residual, 12 normalized features
    # and the patch features, float32, each in a buffer of its own size; no
    # (H, T, T) attention map: 920,832 bytes at D=64
    cfg = PipelineConfig()
    record = SimpleNamespace(image=Rng(68).generator().random((3, 256, 256)).astype(np.float32), labels=[1, 2])
    [result] = run_static_passes(
        [record], wide_weights, fixture_bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
    )
    tokens, dim, (gh, gw) = 257, wide_weights.dim, wide_weights.grid
    arrays = list(arrays_in(result.trace))
    assert sum(a.nbytes for a in arrays) == (1 + 12) * tokens * dim * 4 + dim * gh * gw * 4 == 920_832
    assert all(a.dtype == np.float32 and (a.base is None or a.base.nbytes == a.nbytes) for a in arrays)
    assert not any(a.shape == (wide_weights.heads, tokens, tokens) for a in arrays)


def test_cam_export_roundtrip(tmp_path, fixture_weights, fixture_bank, fixture_dataset):
    rec = fixture_dataset.images[2]
    res = static_result(rec, fixture_weights, fixture_bank)
    path = save_cams(tmp_path / "c.cams.json", res.cams, provenance={"stage": "static"})
    loaded = load_tensors(path)
    assert loaded.meta == {"class_ids": res.cams.class_ids, "grid": list(res.cams.grid)}
    maps = np.stack([loaded.require(f"cam.{cid:03d}", res.cams.grid) for cid in res.cams.class_ids])
    assert maps.tobytes() == res.cams.maps.tobytes()
