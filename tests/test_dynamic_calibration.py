import math

import numpy as np
import pytest

from excel.dynamic_calibration import (
    AdapterParams,
    _pair_affinity,
    _pair_loss,
    adapter_diversity_loss,
    adapter_forward_stack,
    adapter_shapes,
    biased_relations,
    build_affinity_batch,
    diversity_loss_gradient_stack,
    dynamic_cams,
    dynamic_relation,
    flat_views,
    init_adapter,
)
from excel.encoder import LAYER_COUNT, AttentionWork, Calibration, LayerTrace, _head_attention, relation_bias
from excel.errors import DataError, NumericError, UsageError
from excel.numerics import Rng
from excel.config import PipelineConfig
from conftest import assert_masks_oracle, every_pair, float64_adapter, one_image_gradient, oracle_relation


def trace_from_features(features, grid):
    return LayerTrace(
        grid=grid,
        calibration=Calibration(layers=0),
        relation=None,
        resume=np.zeros_like(features[0]),
        features=np.stack(features),
        patch_features=np.zeros((features[0].shape[1],) + grid, np.float32),
    )


def tiny_setup(seed=0, fusion_kernel=1, grid=(3, 3), dim=8, d_proj=4, d_dyn=6, sigma=0.5, float64=True):
    """hw=9 instance with one ignored token; float64 params keep
    finite-difference probes exact."""
    gen = Rng(seed).generator()
    t = grid[0] * grid[1] + 1
    feats = [gen.standard_normal((t, dim)).astype(np.float32) for _ in range(LAYER_COUNT)]
    trace = trace_from_features(feats, grid)
    adapter = init_adapter(Rng(seed).child("adapter"), dim, d_proj, d_dyn, fusion_kernel, sigma, 3.0, 1.0)
    if float64:
        adapter = float64_adapter(adapter)
    labels = gen.integers(0, 3, size=grid).astype(np.uint8)
    labels[0, 0] = 255
    return trace, adapter, labels


# --------------------------------------------------------------------------
# adapter forward


def test_adapter_zero_maps_zero_bias_gives_zero():
    trace, adapter, _ = tiny_setup(seed=1)
    zero = AdapterParams({k: np.zeros_like(a) for k, a in adapter.tensors.items()}, 3.0, 1.0)
    out = adapter_forward_stack([trace], zero)[0]
    assert out.shape == (6, 9)
    assert (out == 0.0).all()


def test_adapter_single_layer_block_selector():
    trace, adapter, _ = tiny_setup(seed=2)
    only = 4
    feats = [np.zeros_like(f) for f in trace.features]
    feats[only] = trace.features[only]
    trace_sparse = trace_from_features(feats, trace.grid)
    # zero every delta except the live layer; fusion = identity-ish slice sum
    tensors = {name: np.zeros(shape) for name, shape in adapter_shapes(8, 4, 6, 1).items()}
    tensors["delta.w"][only] = np.eye(4, 8)
    tensors["fusion.w"] = np.ones((6, 48, 1, 1))
    sel = AdapterParams(tensors, 3.0, 1.0)
    out = adapter_forward_stack([trace_sparse], sel)[0]
    expected_rows = trace.features[only][1:, :4].astype(np.float64).sum(axis=1)
    np.testing.assert_allclose(out, np.tile(expected_rows, (6, 1)), atol=1e-5)


def test_adapter_matches_per_token_loop_oracle():
    trace, adapter, _ = tiny_setup(seed=3)
    out = adapter_forward_stack([trace], adapter)[0]
    hw = 9
    for tok in range(hw):
        parts = []
        for l in range(LAYER_COUNT):
            x = trace.features[l][1 + tok].astype(np.float64)
            parts.append(adapter.tensors["delta.w"][l] @ x + adapter.tensors["delta.b"][l])
        z = np.concatenate(parts)
        expected = adapter.tensors["fusion.w"][:, :, 0, 0] @ z + adapter.tensors["fusion.b"]
        np.testing.assert_allclose(out[:, tok], expected, atol=1e-4)


def test_adapter_conv3_matches_neighborhood_oracle():
    trace, adapter, _ = tiny_setup(seed=4, fusion_kernel=3)
    out = adapter_forward_stack([trace], adapter)[0]
    gh, gw = trace.grid
    z = np.zeros((gh, gw, 48))
    for l in range(LAYER_COUNT):
        w, b = adapter.tensors["delta.w"][l], adapter.tensors["delta.b"][l]
        proj = trace.features[l][1:].astype(np.float64) @ w.T + b
        z[:, :, l * 4 : (l + 1) * 4] = proj.reshape(gh, gw, 4)
    zpad = np.zeros((gh + 2, gw + 2, 48))
    zpad[1:-1, 1:-1] = z
    for y in range(gh):
        for x in range(gw):
            acc = adapter.tensors["fusion.b"].copy()
            for dy in range(3):
                for dx in range(3):
                    acc += adapter.tensors["fusion.w"][:, :, dy, dx] @ zpad[y + dy, x + dx]
            np.testing.assert_allclose(out[:, y * gw + x], acc, atol=1e-4)


def test_adapter_requires_twelve_layers():
    trace, adapter, _ = tiny_setup(seed=5)
    short = trace_from_features(trace.features[:7], trace.grid)
    with pytest.raises(DataError, match="12"):
        adapter_forward_stack([short], adapter)


def test_adapter_param_count_reported():
    adapter = init_adapter(Rng(0), 8, 4, 6, 1, 0.02, 3.0, 1.0)
    assert sum(a.size for a in adapter.tensors.values()) == 12 * (4 * 8 + 4) + 6 * 48 + 6


# --------------------------------------------------------------------------
# dynamic relation


def test_relation_identical_tokens_all_zero():
    f = np.tile(np.array([[1.0], [2.0]], np.float32), (1, 5))
    rel = dynamic_relation(f, alpha=3.0, beta=1.0)
    oracle = oracle_relation(f, 3.0, 1.0)
    np.testing.assert_allclose(oracle, 0.0, atol=1e-6)
    assert_masks_oracle(rel, oracle)
    assert np.isfinite(rel).all()


def test_relation_beta_zero_masks_only_negative_cosines():
    gen = Rng(6).generator()
    f = gen.standard_normal((6, 8)).astype(np.float32)
    rel = dynamic_relation(f, alpha=2.0, beta=0.0)
    assert_masks_oracle(rel, oracle_relation(f, 2.0, 0.0))
    from excel.numerics import cosine_matrix

    cos = cosine_matrix(f, f)
    assert np.array_equal(np.isneginf(rel), cos.astype(np.float64) * 2 < 0)
    live = ~np.isneginf(rel)
    np.testing.assert_allclose(rel[live], 2.0 * cos[live], atol=1e-6)


def test_relation_sampled_entry_hand_computed():
    gen = Rng(7).generator()
    f = gen.standard_normal((5, 6)).astype(np.float32)
    alpha, beta = 3.0, 1.0
    rel = dynamic_relation(f, alpha, beta)
    oracle = oracle_relation(f, alpha, beta)
    assert_masks_oracle(rel, oracle)
    f64 = f.astype(np.float64)
    norm = f64 / np.linalg.norm(f64, axis=0)
    cos = norm.T @ norm
    expected = alpha * (cos[1, 4] - beta * cos.mean())
    assert oracle[1, 4] == pytest.approx(expected, abs=1e-5)


def test_relation_masking_exact_and_diagonal_finite():
    gen = Rng(8).generator()
    for trial in range(100):
        f = gen.standard_normal((6, 9)).astype(np.float32)
        beta = float(gen.uniform(0.0, 1.0))
        rel = dynamic_relation(f, alpha=3.0, beta=beta)
        assert_masks_oracle(rel, oracle_relation(f, 3.0, beta))
        assert np.isfinite(np.diag(rel)).all()


def test_relation_zero_column_error():
    f = np.ones((4, 3), np.float32)
    f[:, 1] = 0.0
    with pytest.raises(NumericError, match="column 1"):
        dynamic_relation(f, 3.0, 1.0)


# --------------------------------------------------------------------------
# biased attention


def biased_attention(o, weights, relation):
    """The encoder's biased attention map for one head whose q, k and v
    are all `o`: the weighted self-attention mix plus the relation bias."""
    calibration = Calibration(layers=1, weights=weights)
    bias = relation_bias(relation, o.shape[0])
    return _head_attention(calibration, LAYER_COUNT - 1, o, o, o, o.shape[1], bias, AttentionWork.of(o.shape))


def test_biased_attention_uniform_relation():
    # identical tokens: every self-attention map is uniform 1/5; the
    # uniform relation adds 1/4 on the grid block, nothing on CLS
    o = np.ones((5, 3), np.float32)
    out = biased_attention(o, (1 / 3, 1 / 3, 1 / 3), np.zeros((4, 4), np.float32))
    expected = np.full((5, 5), 0.2)
    expected[1:, 1:] += 0.25
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_biased_attention_identity_relation():
    o = Rng(8).generator().standard_normal((4, 2)).astype(np.float32)
    rel = np.full((3, 3), -np.inf, np.float32)
    np.fill_diagonal(rel, 0.0)
    out = biased_attention(o, (0.0, 0.0, 0.0), rel)
    expected = np.zeros((4, 4))
    expected[1:, 1:] = np.eye(3)
    np.testing.assert_allclose(out, expected, atol=1e-7)


def test_biased_attention_row_sums_additive():
    gen = Rng(9).generator()
    o = gen.standard_normal((5, 3)).astype(np.float32)
    rel = gen.standard_normal((4, 4)).astype(np.float32)
    rel = np.where(rel >= 0, rel, np.float32(-np.inf))
    # ensure no dead rows
    np.fill_diagonal(rel, 1.0)
    out = biased_attention(o, (0.2, 0.3, 0.5), rel)
    sums = out.sum(axis=1)
    assert sums[0] == pytest.approx(1.0, abs=1e-5)  # CLS row: no bias
    np.testing.assert_allclose(sums[1:], 2.0, atol=1e-5)


# --------------------------------------------------------------------------
# affinity batches and diversity loss


def test_affinity_batch_full_pairing_counts():
    labels = np.array([[1, 1], [0, 255]], np.uint8)
    batch = every_pair(labels)
    valid = 3
    assert batch.positive.sum() + batch.negative.sum() == valid * valid
    assert batch.positive.sum() == 5  # (0,0),(0,1),(1,0),(1,1) same-class plus (2,2)
    assert batch.negative.sum() == 4


def test_affinity_batch_all_ignored_raises():
    labels = np.full((2, 2), 255, np.uint8)
    with pytest.raises(NumericError, match="degenerate affinity supervision"):
        every_pair(labels)


def test_affinity_batch_sampling_deterministic():
    gen = Rng(10).generator()
    labels = gen.integers(0, 3, size=(6, 6)).astype(np.uint8)
    b1 = build_affinity_batch(labels, 100, Rng(11))
    b2 = build_affinity_batch(labels, 100, Rng(11))
    assert b1.positive.sum() + b1.negative.sum() == 100
    assert np.array_equal(b1.positive, b2.positive)
    assert np.array_equal(b1.negative, b2.negative)


def _reference_pairs(labels, sample_limit, rng):
    """(P, 2) and (N, 2) token-index pair lists: every ordered pair of
    non-ignored tokens in row-major order, a seeded subsample of the full
    pair count kept in sorted order, split by label agreement."""
    flat = labels.reshape(-1)
    valid = np.flatnonzero(flat != 255)
    pairs = np.stack([np.repeat(valid, valid.size), np.tile(valid, valid.size)], axis=1)
    if sample_limit is not None and len(pairs) > sample_limit:
        keep = np.sort(rng.generator().permutation(len(pairs))[:sample_limit])
        pairs = pairs[keep]
    same = flat[pairs[:, 0]] == flat[pairs[:, 1]]
    return pairs[same], pairs[~same]


@pytest.mark.parametrize("side", [3, 5, 8, 16])
@pytest.mark.parametrize("sample_limit", [None, 100_000, 40, 1])
def test_affinity_masks_equal_pair_list_reference(side, sample_limit):
    gen = Rng(side).generator()
    labels = gen.integers(0, 4, size=(side, side)).astype(np.uint8)
    labels[gen.random((side, side)) < 0.25] = 255
    labels[-1, -1] = 1
    batch = build_affinity_batch(labels, labels.size**2 if sample_limit is None else sample_limit, Rng(7))
    hw = side * side
    assert batch.positive.shape == batch.negative.shape == (hw, hw)
    assert batch.positive.dtype == batch.negative.dtype == bool
    pos, neg = _reference_pairs(labels, sample_limit, Rng(7))
    np.testing.assert_array_equal(np.argwhere(batch.positive), pos.reshape(-1, 2))
    np.testing.assert_array_equal(np.argwhere(batch.negative), neg.reshape(-1, 2))
    # the loss sums the pairs in the reference's order, so it is the same float
    u = _pair_affinity(gen.standard_normal((hw, 5)))[2]
    expected = 0.0
    if len(pos):
        expected += (1.0 - u[pos[:, 0], pos[:, 1]]).sum() / len(pos)
    if len(neg):
        expected += u[neg[:, 0], neg[:, 1]].sum() / len(neg)
    assert _pair_loss(u, batch) == expected


def test_diversity_loss_two_orthogonal_groups():
    # features: group A tokens = e1, group B tokens = e2
    f = np.zeros((2, 4), np.float32)
    f[0, :2] = 1.0
    f[1, 2:] = 1.0
    labels = np.array([[1, 1], [2, 2]], np.uint8)
    loss = _pair_loss(_pair_affinity(f.T.astype(np.float64))[2], every_pair(labels))
    sig1 = 1 / (1 + math.exp(-1))
    expected = (1 - sig1) + 0.5
    assert loss == pytest.approx(expected, abs=1e-3)


def test_diversity_loss_near_collinear_saturates_low():
    gen = Rng(12).generator()
    base = gen.standard_normal(6)
    f = (base[:, None] + 1e-4 * gen.standard_normal((6, 9))).astype(np.float32)
    labels = np.ones((3, 3), np.uint8)
    loss = _pair_loss(_pair_affinity(f.T.astype(np.float64))[2], every_pair(labels))
    sig1 = 1 / (1 + math.exp(-1))
    assert loss == pytest.approx(1 - sig1, abs=1e-3)
    assert loss < 0.3


def test_diversity_loss_single_class_reduces_to_positive_term():
    gen = Rng(13).generator()
    f = gen.standard_normal((4, 6)).astype(np.float32)
    labels = np.full((2, 3), 2, np.uint8)
    loss = _pair_loss(_pair_affinity(f.T.astype(np.float64))[2], every_pair(labels))
    from excel.numerics import cosine_matrix, sigmoid_unchecked

    u = sigmoid_unchecked(cosine_matrix(f, f))
    assert loss == pytest.approx(float((1 - u).mean()), abs=1e-5)


def test_diversity_loss_value_in_open_interval():
    gen = Rng(14).generator()
    for seed in range(20):
        f = gen.standard_normal((5, 9)).astype(np.float32)
        labels = gen.integers(0, 3, size=(3, 3)).astype(np.uint8)
        loss = _pair_loss(_pair_affinity(f.T.astype(np.float64))[2], every_pair(labels))
        assert 0.0 < loss < 2.0


# --------------------------------------------------------------------------
# gradients


def test_gradient_zero_on_plateau():
    # zero delta maps with a nonzero fusion bias: all dynamic features are
    # the same vector, cosines sit at their maximum, gradients vanish
    trace, adapter, _ = tiny_setup(seed=15)
    plateau = AdapterParams({k: np.zeros_like(a) for k, a in adapter.tensors.items()}, 3.0, 1.0)
    plateau.tensors["fusion.b"] = np.ones_like(adapter.tensors["fusion.b"])
    batch = every_pair(np.ones((3, 3), np.uint8))
    loss, grads = one_image_gradient(trace, plateau, batch)
    total = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    assert total < 1e-6


@pytest.mark.parametrize("fusion_kernel", [1, 3])
def test_gradient_matches_central_differences(fusion_kernel):
    # guarded elementwise relative error; the floor equals the probe step
    eps = 1e-3
    trace, adapter, labels = tiny_setup(seed=17, fusion_kernel=fusion_kernel)
    batch = every_pair(labels)
    loss, grads = one_image_gradient(trace, adapter, batch)
    worst = 0.0
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
    assert worst < 1e-4


@pytest.mark.parametrize("fusion_kernel", [1, 3])
def test_float64_copy_gives_the_float64_bytes(fusion_kernel):
    # the passes run in the dtype of the adapter's tensors: a float64 copy
    # of a float32 adapter gives, byte for byte, the float64 loss and
    # gradient of the per-layer loop that widens the float32 tensors as it
    # reads them, the math the float32 adapter itself once ran
    trace, adapter, labels = tiny_setup(seed=14, fusion_kernel=fusion_kernel, float64=False)
    batch = every_pair(labels)
    loss, grads = one_image_gradient(trace, float64_adapter(adapter), batch)
    want_loss, want = _loop_gradient(trace, adapter, batch)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert g.dtype == np.float64 and g.tobytes() == (0.0 + want[name]).tobytes(), name


# the largest deviation of a float32 adapter's loss from its float64
# copy's, relative to that loss, and of each gradient tensor, relative to
# the largest magnitude in the float64 tensor; the cases below reach
# 1.3e-7 and 9.1e-7 on a 2-vCPU x86-64 VM
FLOAT32_RELATIVE_BOUND = 1e-5


@pytest.mark.parametrize("fusion_kernel", [1, 3])
def test_float32_adapter_is_within_a_relative_bound_of_its_float64_copy(fixture_static, fusion_kernel):
    cfg = PipelineConfig()
    cases = [tiny_setup(seed=seed, fusion_kernel=fusion_kernel, float64=False) for seed in range(8)]
    fixture_adapter = init_adapter(
        Rng(21).child("adapter"), 64, cfg.d_proj, cfg.d_dyn, fusion_kernel, 0.05, cfg.alpha, cfg.beta
    )
    cases += [(sres.trace, fixture_adapter, sres.labels) for sres in fixture_static[:4]]
    for trace, adapter, labels in cases:
        batch = every_pair(labels)
        loss32, grads32 = one_image_gradient(trace, adapter, batch)
        loss64, grads64 = one_image_gradient(trace, float64_adapter(adapter), batch)
        assert abs(loss32 - loss64) <= FLOAT32_RELATIVE_BOUND * abs(loss64)
        for name, g in grads32.items():
            assert g.dtype == np.float32
            assert np.abs(g - grads64[name]).max() <= FLOAT32_RELATIVE_BOUND * np.abs(grads64[name]).max(), name


def test_gradient_loss_matches_forward():
    trace, adapter, labels = tiny_setup(seed=18)
    batch = every_pair(labels)
    loss_g, _ = one_image_gradient(trace, adapter, batch)
    loss_f = adapter_diversity_loss(trace, adapter, batch)
    assert loss_g == pytest.approx(loss_f, rel=1e-12)


def _loop_gradient(trace, params, batch):
    """The one-image loss and gradient as a loop over layers and kernel
    taps on (hw, .) matrices: the reference the stacked pass must match."""
    (gh, gw), k = trace.grid, params.kernel
    hw, pad, t = gh * gw, k // 2, params.tensors
    xs = [f[1:].astype(np.float64) for f in trace.features]
    zs = [x @ t["delta.w"][l].T + t["delta.b"][l] for l, x in enumerate(xs)]
    zpad = np.zeros((gh + 2 * pad, gw + 2 * pad, len(zs) * zs[0].shape[1]))
    zpad[pad : pad + gh, pad : pad + gw] = np.concatenate(zs, axis=1).reshape(gh, gw, -1)
    w = t["fusion.w"].astype(np.float64)
    taps = [(dy, dx, np.s_[dy : dy + gh, dx : dx + gw]) for dy in range(k) for dx in range(k)]
    feats = sum(zpad[win].reshape(hw, -1) @ w[:, :, dy, dx].T for dy, dx, win in taps) + t["fusion.b"]
    norms, fhat, u = _pair_affinity(feats)
    n_pos, n_neg = batch.counts()
    g_u = np.where(batch.positive, -1.0 / n_pos, np.where(batch.negative, 1.0 / n_neg, 0.0))
    g_cos = g_u * u * (1.0 - u)
    g_fhat = (g_cos + g_cos.T) @ fhat
    g_feats = (g_fhat - np.einsum("ij,ij->i", g_fhat, fhat)[:, None] * fhat) / norms[:, None]
    g_w, g_zpad = np.empty_like(w), np.zeros_like(zpad)
    for dy, dx, win in taps:
        g_w[:, :, dy, dx] = g_feats.T @ zpad[win].reshape(hw, -1)
        g_zpad[win] += (g_feats @ w[:, :, dy, dx]).reshape(gh, gw, -1)
    g_zcat = g_zpad[pad : pad + gh, pad : pad + gw].reshape(hw, -1)
    g_zs = np.split(g_zcat, LAYER_COUNT, axis=1)
    grads = {
        "delta.w": np.stack([g_z.T @ x for x, g_z in zip(xs, g_zs)]),
        "delta.b": np.stack([g_z.sum(axis=0) for g_z in g_zs]),
        "fusion.w": g_w,
        "fusion.b": g_feats.sum(axis=0),
    }
    return _pair_loss(u, batch), grads


@pytest.mark.parametrize("fusion_kernel", [1, 3])
@pytest.mark.parametrize(
    "picks, limit",
    [([0], 4096), ([2, 5, 7], 4096), ([1, 4, 1, 6], 4096), ([0, 3, 5], 1)],
    ids=["one", "three", "four-with-a-repeat", "limit1"],
)
def test_stacked_gradient_equals_the_per_image_sum(fixture_weights, fixture_static, fusion_kernel, picks, limit):
    # each stack of one gives the loop's bytes, and one stacked pass
    # over a batch adds into one flat vector exactly what the stacks of
    # one sum to, from zero and in batch order
    cfg = PipelineConfig()
    adapter = float64_adapter(init_adapter(
        Rng(21).child("adapter"), fixture_weights.dim, cfg.d_proj, cfg.d_dyn, fusion_kernel, 0.05, cfg.alpha, cfg.beta
    ))
    traces = [fixture_static[i].trace for i in picks]
    batches = [
        build_affinity_batch(fixture_static[i].labels, limit, Rng(22).child(f"pairs.{j}"))
        for j, i in enumerate(picks)
    ]
    if limit == 1:  # every batch holds one sampled pair, so one of its two loss terms is empty
        assert all(batch.positive.sum() + batch.negative.sum() == 1 for batch in batches)
    want = {name: np.zeros(shape) for name, shape in adapter.shapes.items()}
    want_losses = []
    for trace, batch in zip(traces, batches):
        loss, grads = one_image_gradient(trace, adapter, batch)
        loop_loss, loop_grads = _loop_gradient(trace, adapter, batch)
        assert np.float64(loss).tobytes() == np.float64(loop_loss).tobytes()
        want_losses.append(loss)
        for name, g in grads.items():
            assert g.tobytes() == (0.0 + loop_grads[name]).tobytes(), name
            want[name] += g
    flat = np.zeros(sum(math.prod(shape) for shape in adapter.shapes.values()))
    losses = diversity_loss_gradient_stack(traces, adapter, batches, flat_views(flat, adapter.shapes))
    assert [np.float64(x).tobytes() for x in losses] == [np.float64(x).tobytes() for x in want_losses]
    got = flat_views(flat, adapter.shapes)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("fusion_kernel", [1, 3])
def test_stacked_relations_equal_per_image_biased_calibration(fixture_weights, fixture_static, fusion_kernel):
    # the 32 fixture traces are one encoder chunk, so one adapter pass
    cfg = PipelineConfig()
    adapter = init_adapter(
        Rng(23).child("adapter"), fixture_weights.dim, cfg.d_proj, cfg.d_dyn, fusion_kernel, 0.05, cfg.alpha, cfg.beta
    )
    traces = [res.trace for res in fixture_static]
    features = adapter_forward_stack(traces, adapter)
    hw = fixture_weights.grid[0] * fixture_weights.grid[1]
    for trace, got_features, got in zip(traces, features, biased_relations(traces, adapter)):
        want = biased_relations([trace], adapter)[0]
        assert got_features.tobytes() == adapter_forward_stack([trace], adapter)[0].tobytes()
        assert got.dtype == np.float32 and got.shape == (hw, hw)
        assert got.tobytes() == want.tobytes()


def test_stacked_adapter_pass_needs_one_grid():
    trace, adapter, _ = tiny_setup(seed=6)
    other = trace_from_features([f[:5] for f in trace.features], (2, 2))
    with pytest.raises(UsageError, match="one grid"):
        adapter_forward_stack([trace, other], adapter)


# --------------------------------------------------------------------------
# dynamic CAMs


def test_zero_weight_adapter_keeps_static_argmax(fixture_weights, fixture_bank, fixture_dataset, fixture_static):
    cfg = PipelineConfig()
    rec, static = fixture_dataset.images[0], fixture_static[0]
    shapes = adapter_shapes(64, cfg.d_proj, cfg.d_dyn, cfg.fusion_kernel)
    zero = AdapterParams({name: np.zeros(shape, np.float32) for name, shape in shapes.items()}, cfg.alpha, cfg.beta)
    zero.tensors["fusion.b"] = np.ones(cfg.d_dyn, np.float32)
    dyn = dynamic_cams([rec], fixture_weights, zero, fixture_bank, cfg.tau_fg, cfg.tau_bg, [static.trace])[0]
    # identical features -> cosines all one -> relation uniformly zero
    features = adapter_forward_stack([static.trace], zero)[0]
    oracle = oracle_relation(features, zero.alpha, zero.beta)
    np.testing.assert_allclose(oracle, 0.0, atol=1e-6)
    assert_masks_oracle(dynamic_relation(features, zero.alpha, zero.beta), oracle)
    assert np.array_equal(
        dyn.cams.maps.argmax(axis=0), static.cams.maps.argmax(axis=0)
    )


def test_dynamic_cam_deterministic(fixture_weights, fixture_bank, fixture_dataset, fixture_static):
    cfg = PipelineConfig()
    rec = fixture_dataset.images[1]
    adapter = init_adapter(
        Rng(19), 64, cfg.d_proj, cfg.d_dyn, cfg.fusion_kernel, cfg.adapter_init_sigma, cfg.alpha, cfg.beta
    )
    args = ([rec], fixture_weights, adapter, fixture_bank, cfg.tau_fg, cfg.tau_bg, [fixture_static[1].trace])
    d1 = dynamic_cams(*args)[0]
    d2 = dynamic_cams(*args)[0]
    assert d1.cams.maps.tobytes() == d2.cams.maps.tobytes()
    assert np.array_equal(d1.labels, d2.labels)
