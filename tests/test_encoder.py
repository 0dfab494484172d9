import dataclasses
import itertools
import json
import math
import threading

import numpy as np
import pytest

from excel import encoder, fixtures, numerics
from excel.blobio import load_tensors, save_tensors
from excel.encoder import (
    LAYER_COUNT,
    VALUE_VALUE,
    VANILLA,
    AttentionWork,
    Calibration,
    EncoderWeights,
    LayerTrace,
    _attention,
    _head_attention,
    encode_stack,
    expected_row_sums,
    layer_attention,
    layer_norm,
    load_weights,
    patchify,
    relation_bias,
    save_weights,
)
from excel.errors import ChecksumError, DataError, NumericError, ShapeError, UsageError
from excel.fixtures import FixtureSpec, generate_fixtures
from excel.numerics import Rng
from conftest import SPECIAL_VALUES, oracle_sigmoid, oracle_softmax, serial_encode_chunks

def tiny_weights(
    dim=8,
    heads=2,
    patch=4,
    grid=(2, 2),
    mlp_dim=16,
    sigma=0.05,
    seed=0,
    zero_mlp=False,
    v_scale=None,
    zero_pos=False,
):
    """Small custom encoder weights for unit tests."""
    gen = Rng(seed).generator()

    def g(*shape):
        return (sigma * gen.standard_normal(shape)).astype(np.float32)

    tensors = {}
    for i in range(LAYER_COUNT):
        v_w = g(dim, dim) if v_scale is None else (v_scale * np.eye(dim)).astype(np.float32)
        layer = {
            "ln1.scale": np.ones(dim, np.float32),
            "ln1.shift": np.zeros(dim, np.float32),
            "attn.q.w": g(dim, dim),
            "attn.q.b": np.zeros(dim, np.float32),
            "attn.k.w": g(dim, dim),
            "attn.k.b": np.zeros(dim, np.float32),
            "attn.v.w": v_w,
            "attn.v.b": np.zeros(dim, np.float32),
            "attn.out.w": np.eye(dim, dtype=np.float32),
            "attn.out.b": np.zeros(dim, np.float32),
            "ln2.scale": np.ones(dim, np.float32),
            "ln2.shift": np.zeros(dim, np.float32),
            "mlp.fc.w": np.zeros((mlp_dim, dim), np.float32) if zero_mlp else g(mlp_dim, dim),
            "mlp.fc.b": np.zeros(mlp_dim, np.float32),
            "mlp.proj.w": np.zeros((dim, mlp_dim), np.float32) if zero_mlp else g(dim, mlp_dim),
            "mlp.proj.b": np.zeros(dim, np.float32),
        }
        tensors.update((f"layers.{i:02d}.{name}", arr) for name, arr in layer.items())
    tokens = grid[0] * grid[1] + 1
    tensors["patch_embed.w"] = g(dim, 3 * patch * patch)
    tensors["patch_embed.b"] = np.zeros(dim, np.float32)
    tensors["cls_token"] = g(dim)
    tensors["pos_embed"] = np.zeros((tokens, dim), np.float32) if zero_pos else g(tokens, dim)
    tensors["ln_final.scale"] = np.ones(dim, np.float32)
    tensors["ln_final.shift"] = np.zeros(dim, np.float32)
    # stored in file order, as loading and fixture drawing store them
    order = encoder.encoder_shapes(dim, mlp_dim, patch, grid)
    return EncoderWeights(
        dim=dim, heads=heads, patch_size=patch, grid=grid, mlp_dim=mlp_dim, tensors={k: tensors[k] for k in order}
    )


def random_image(seed, size=8):
    gen = Rng(seed).generator()
    return gen.random((3, size, size)).astype(np.float32)


# --------------------------------------------------------------------------
# loading


def test_load_fixture_weights_has_twelve_layers(fixture_paths, fixture_weights):
    assert len(fixture_weights.layers) == 12
    assert fixture_weights.dim == 64
    assert fixture_weights.heads == 4


def test_weight_round_trip(tmp_path):
    w = tiny_weights(seed=3)
    path = save_weights(tmp_path / "w.json", w)
    loaded = load_weights(path)
    assert list(loaded.tensors) == list(w.tensors)
    for (a, b) in zip(w.tensors.values(), loaded.tensors.values()):
        assert a.tobytes() == b.tobytes()


def test_encoder_shapes_is_the_weights_file_table(fixture_paths, tmp_path):
    # fixtures at the default size and at patch 8 (an 8x8 grid): the table
    # lists the manifest's tensors in file order, and saving the loaded
    # weights rewrites the manifest and blob byte for byte
    patch8 = generate_fixtures(42, FixtureSpec(patch_size=8, images=4), tmp_path / "fx8")["weights"]
    for i, path in enumerate((fixture_paths["weights"], patch8)):
        manifest = json.loads(path.read_text())
        w = load_weights(path)
        shapes = encoder.encoder_shapes(w.dim, w.mlp_dim, w.patch_size, w.grid)
        assert list(shapes) == [e["name"] for e in manifest["tensors"]]
        assert list(shapes.values()) == [tuple(e["shape"]) for e in manifest["tensors"]]
        (tmp_path / f"resaved{i}").mkdir()
        resaved = save_weights(tmp_path / f"resaved{i}" / path.name, w, provenance=manifest["provenance"])
        assert resaved.read_bytes() == path.read_bytes()
        assert resaved.with_suffix(".bin").read_bytes() == path.with_suffix(".bin").read_bytes()


def test_manifest_shape_disagreement_is_shape_error(tmp_path):
    w = tiny_weights(seed=4)
    path = save_weights(tmp_path / "w.json", w)
    manifest = json.loads(path.read_text())
    for entry in manifest["tensors"]:
        if entry["name"] == "layers.00.attn.q.w":
            entry["shape"] = [8, 4]
        if entry["name"] == "layers.00.attn.q.b":
            entry["shape"] = [40]  # keep the declared byte total consistent
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeError, match="attn.q"):
        load_weights(path)


def test_truncated_blob_is_checksum_error(tmp_path):
    w = tiny_weights(seed=5)
    path = save_weights(tmp_path / "w.json", w)
    blob = tmp_path / "w.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ChecksumError):
        load_weights(path)


def test_missing_tensor_is_distinct_error(tmp_path):
    from excel.errors import MissingTensorError

    w = tiny_weights(seed=6)
    tensors = dict(w.tensors)
    tensors.pop("cls_token")
    path = save_tensors(tmp_path / "w.json", tensors, meta=w.meta())
    with pytest.raises(MissingTensorError, match="cls_token"):
        load_weights(path)


def test_wrong_depth_rejected(tmp_path):
    w = tiny_weights(seed=7)
    path = save_weights(tmp_path / "w.json", w)
    manifest = json.loads(path.read_text())
    manifest["meta"]["layers"] = 6
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="depth"):
        load_weights(path)


@pytest.mark.parametrize("shape", [(17, 64), (3, 257, 64)])
def test_layer_norm_bytes_equal_the_np_var_form(shape):
    gen = Rng(13).generator()
    x = (3.0 + 10.0 * gen.standard_normal(shape)).astype(np.float32)
    scale, shift = (gen.standard_normal(shape[-1]).astype(np.float32) for _ in range(2))
    x64 = x.astype(np.float64)
    norm = (x64 - x64.mean(axis=-1, keepdims=True)) / np.sqrt(x64.var(axis=-1, keepdims=True) + encoder.LN_EPS)
    want = (norm * scale + shift).astype(np.float32)
    assert layer_norm(x, scale, shift).tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# patchify


def test_patchify_token_count():
    w = tiny_weights(patch=4, grid=(2, 2))
    tokens = patchify(random_image(1, 8), w)
    assert tokens.shape == (5, 8)


def test_patchify_fixture_scale(fixture_weights):
    # 64x64 image at patch 16 -> 4x4 grid + CLS
    image = random_image(2, 64)
    tokens = patchify(image, fixture_weights)
    assert tokens.shape == (17, 64)


def test_patchify_non_divisible_dims_error():
    w = tiny_weights(patch=4, grid=(2, 2))
    with pytest.raises(DataError, match="not divisible"):
        patchify(np.zeros((3, 9, 8), np.float32), w)


def test_patchify_grid_mismatch_error():
    w = tiny_weights(patch=4, grid=(2, 2))
    with pytest.raises(DataError, match="positional embedding grid"):
        patchify(np.zeros((3, 12, 12), np.float32), w)


def test_patchify_zero_image_tokens_equal_bias():
    w = tiny_weights(zero_pos=True)
    bias = Rng(11).generator().standard_normal(8).astype(np.float32)
    w.tensors["patch_embed.b"] = bias
    w.tensors["cls_token"] = bias.copy()  # CLS is its own parameter; pin it to the bias too
    tokens = patchify(np.zeros((3, 8, 8), np.float32), w)
    for row in tokens:
        np.testing.assert_allclose(row, bias, atol=1e-7)


def test_patchify_token_matches_unfold_oracle():
    w = tiny_weights(seed=12)
    image = random_image(12, 8)
    tokens = patchify(image, w)
    # token 3 is the third patch in row-major order: grid (2,2) -> patch (1,0)
    p = w.patch_size
    py, px = 1, 0
    vec = image[:, py * p : (py + 1) * p, px * p : (px + 1) * p].reshape(-1).astype(np.float64)
    t = w.tensors
    expected = t["patch_embed.w"].astype(np.float64) @ vec + t["patch_embed.b"] + t["pos_embed"][3]
    np.testing.assert_allclose(tokens[3], expected, atol=1e-5)


# --------------------------------------------------------------------------
# policies and row sums


def test_vanilla_rows_sum_to_one(fixture_weights):
    trace = encode_stack([random_image(20, 64)], fixture_weights, VANILLA)[0]
    for layer in range(LAYER_COUNT):
        attn = layer_attention(trace, fixture_weights, layer)
        np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-5)


def test_policy_modified_layers():
    # the modified layers are range(first_layer, LAYER_COUNT)
    assert VANILLA.first_layer == 12
    assert VALUE_VALUE.first_layer == 11
    assert Calibration(layers=5).first_layer == 7
    assert Calibration(layers=0).first_layer == 12


def test_intra_correlation_policy_validation():
    for bad in ({"layers": 13}, {"layers": -1}, {"weights": (0.5, 0.5)}, {"weights": (-0.1, 0.6, 0.5)},
                {"weights": (float("inf"), 0.0, 0.0)}, {"weights": (float("nan"), 0.0, 0.0)}):
        with pytest.raises(UsageError):
            Calibration(**bad)


def test_calibration_is_a_hashable_value():
    # a calibration is its layers and weights alone: equal fields compare
    # equal and hash alike, whatever sequence the weights came in
    assert [f.name for f in dataclasses.fields(Calibration)] == ["layers", "weights"]
    assert hash(Calibration()) == hash(Calibration(layers=5, weights=[1 / 3, 1 / 3, 1 / 3]))
    assert Calibration(layers=3, weights=(0.2, 0.3, 0.5)) == Calibration(layers=3, weights=[0.2, 0.3, 0.5])
    assert Calibration(layers=3) != Calibration(layers=4)
    assert len({Calibration(), Calibration(layers=5), VANILLA, Calibration(layers=0)}) == 2


def test_value_value_is_plain_value_self_attention():
    # zero-weight terms are skipped, so the one-term mix is SA(v, v) itself
    gen = Rng(32).generator()
    q, k, v = (gen.standard_normal((5, 4)).astype(np.float32) for _ in range(3))
    got = _head_attention(VALUE_VALUE, LAYER_COUNT - 1, q, k, v, 4, None, AttentionWork.of(q.shape))
    assert got.tobytes() == _attention(v, v, 4, AttentionWork.of(v.shape)).tobytes()
    zero = Calibration(layers=1, weights=(0, 0, 0))
    assert not _head_attention(zero, LAYER_COUNT - 1, q, k, v, 4, None, AttentionWork.of(q.shape)).any()


@pytest.mark.parametrize("tokens", [17, 257])
@pytest.mark.parametrize(
    "calibration, layer, biased",
    [
        (VANILLA, 0, False),
        (Calibration(layers=1, weights=(0.2, 0.3, 0.5)), LAYER_COUNT - 1, False),
        (VALUE_VALUE, LAYER_COUNT - 1, False),
        (Calibration(layers=1, weights=(0.2, 0.3, 0.5)), LAYER_COUNT - 1, True),
    ],
    ids=["qk", "calibrated", "value-value", "biased"],
)
def test_stacked_head_attention_equals_per_head_calls(tokens, calibration, layer, biased):
    # the encoder's (H, T, D_s) views of one (T, D) projection, against
    # each head's contiguous (T, D_s) matrix on its own
    heads, d_s = 4, 16
    gen = Rng(33).generator()
    q, k, v = (
        gen.standard_normal((tokens, heads * d_s)).astype(np.float32).reshape(tokens, heads, d_s).swapaxes(0, 1)
        for _ in range(3)
    )
    bias = None
    if biased:
        relation = gen.standard_normal((tokens - 1, tokens - 1)).astype(np.float32)
        bias = relation_bias(relation, tokens)
    stacked = _head_attention(calibration, layer, q, k, v, d_s, bias, AttentionWork.of(q.shape))
    per_head = np.stack(
        [
            _head_attention(
                calibration, layer, *(np.ascontiguousarray(o[h]) for o in (q, k, v)), d_s, bias, AttentionWork.of(q[h].shape)
            )
            for h in range(heads)
        ]
    )
    assert stacked.shape == (heads, tokens, tokens) and stacked.dtype == np.float32
    assert stacked.tobytes() == per_head.tobytes()


def test_calibration_names():
    # the two fixed baselines; every other setting is a config's calib keys
    assert VANILLA == Calibration(layers=0)
    assert VANILLA.first_layer == LAYER_COUNT
    assert VALUE_VALUE == Calibration(layers=1, weights=(0, 0, 1))
    assert VALUE_VALUE.first_layer == LAYER_COUNT - 1


def test_row_sums_per_policy_constants():
    w = tiny_weights(seed=30)
    image = random_image(30, 8)
    hw = 4
    gen = Rng(31).generator()
    raw = gen.standard_normal((hw, hw)).astype(np.float32)
    masked = np.where(raw >= 0, raw, np.float32(-np.inf))
    policies = [
        (VANILLA, None),
        (VALUE_VALUE, None),
        (Calibration(layers=5, weights=(1 / 3, 1 / 3, 1 / 3)), None),
        (Calibration(layers=5, weights=(1 / 3, 1 / 3, 1 / 3)), masked),
    ]
    for policy, relation in policies:
        trace = encode_stack([image], w, policy, None if relation is None else [relation])[0]
        for layer in range(LAYER_COUNT):
            expected = expected_row_sums(policy, relation, layer, 5)
            sums = layer_attention(trace, w, layer).sum(axis=2)
            np.testing.assert_allclose(sums, np.tile(expected, (sums.shape[0], 1)), atol=1e-5)


def test_icb_cls_row_carries_no_bias():
    sums = expected_row_sums(Calibration(layers=5), np.zeros((4, 4), np.float32), 11, 5)
    assert sums[0] == pytest.approx(1.0)
    assert sums[1] == pytest.approx(2.0)


def test_icb_token_sized_relation_raises():
    # only the grid-sized (hw, hw) relation is accepted; a (T, T) one,
    # which would also bias the CLS row, is a shape error everywhere
    w = tiny_weights(seed=31)
    policy, relation = Calibration(layers=2), np.zeros((5, 5), np.float32)
    with pytest.raises(ShapeError, match=r"not the grid size \(4, 4\)"):
        encode_stack([random_image(31, 8)], w, policy, [relation])
    with pytest.raises(ShapeError):
        expected_row_sums(policy, relation, 11, 5)
    with pytest.raises(ShapeError):
        relation_bias(relation, 5)


def test_intra_identity_attention_on_scaled_orthogonal_values():
    # single head, value projection scaled identity, MLP zeroed: token
    # values are scaled orthogonal vectors, so value-value attention is the
    # identity map and the block output adds v exactly (out proj identity).
    dim = 8
    w = tiny_weights(dim=dim, heads=1, zero_mlp=True, v_scale=8.0, zero_pos=True, seed=40)
    policy = Calibration(layers=LAYER_COUNT, weights=(0.0, 0.0, 1.0))
    # craft tokens: layer-norm maps Hadamard-like rows to themselves
    had = np.array(
        [
            [1, 1, 1, 1, -1, -1, -1, -1],
            [1, -1, 1, -1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1, 1, -1, -1],
            [1, -1, -1, 1, 1, -1, -1, 1],
            [1, 1, 1, 1, 1, 1, 1, 1],  # becomes zero-mean only after LN shift
        ],
        dtype=np.float32,
    )
    # use the first four orthogonal zero-mean rows as patch tokens, the
    # remaining row replaced to keep CLS distinct and orthogonal
    cls_row = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=np.float32)
    tokens = np.vstack([cls_row, had[:4]])

    # choose patch embedding so patchify reproduces `tokens` exactly
    w.tensors["cls_token"] = cls_row
    image = np.zeros((3, 8, 8), np.float32)
    for patch_idx in range(4):
        py, px = divmod(patch_idx, 2)
        image[0, py * 4 + 0, px * 4 + 0] = 1.0  # one indicator pixel per patch
    # patch vector = e_(channel0, pixel0) -> patch_embed.w column 0 within that patch
    w.tensors["patch_embed.w"] = np.zeros_like(w.tensors["patch_embed.w"])
    for patch_idx in range(4):
        w.tensors["patch_embed.w"][:, 0] = 0  # same indicator column for every patch; instead use bias
    # simpler: zero kernel, bias zero, then add tokens via pos embedding
    w.tensors["patch_embed.b"] = np.zeros(dim, np.float32)
    w.tensors["pos_embed"] = np.vstack([np.zeros(dim, np.float32), had[:4]])
    w.tensors["cls_token"] = cls_row

    trace = encode_stack([image], w, policy)[0]
    attn0 = layer_attention(trace, w, 0)[0]
    # scaled orthogonal values: logits 8^2*8 / sqrt(8) on the diagonal, 0 off
    np.testing.assert_allclose(attn0, np.eye(5), atol=1e-6)

    # independent direct-computation oracle for the first block
    x = trace.features[0]  # LN'd tokens
    v = x @ w.layers[0]["attn.v.w"].T
    logits = (v @ v.T) / np.sqrt(dim)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    oracle_attn = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(attn0, oracle_attn, atol=1e-5)
    # output preserves v through the identity out-projection: the residual
    # stream after block 0 equals tokens + v (MLP is zeroed)
    tokens0 = np.vstack([cls_row, had[:4]])
    expected_next = tokens0 + oracle_attn @ v
    np.testing.assert_allclose(
        trace.features[1], layer_norm(expected_next, np.ones(dim, np.float32), np.zeros(dim, np.float32)), atol=1e-4
    )


def test_icb_identity_relation_adds_identity():
    # one modified layer so both passes see identical inputs at that layer
    w = tiny_weights(seed=41)
    hw = 4
    relation = np.full((hw, hw), -np.inf, dtype=np.float32)
    np.fill_diagonal(relation, 0.0)
    base = Calibration(layers=1)
    image = random_image(41, 8)
    attn_b = layer_attention(encode_stack([image], w, base)[0], w, 11)
    attn_i = layer_attention(encode_stack([image], w, base, [relation])[0], w, 11)
    eye = np.zeros((5, 5), np.float32)
    eye[1:, 1:] = np.eye(hw)
    np.testing.assert_allclose(attn_i, attn_b + eye[None], atol=1e-6)


def test_relation_bias_shapes():
    hw = 4
    grid = relation_bias(np.zeros((hw, hw), np.float32), hw + 1)
    assert grid[0].sum() == 0.0 and grid[:, 0].sum() == 0.0
    np.testing.assert_allclose(grid[1:].sum(axis=1), 1.0, atol=1e-6)
    for shape in ((3, 3), (hw + 1, hw + 1), (hw, hw + 1)):
        with pytest.raises(ShapeError):
            relation_bias(np.zeros(shape, np.float32), hw + 1)


# --------------------------------------------------------------------------
# invariants


def test_encode_deterministic(fixture_weights):
    image = random_image(50, 64)
    policy = Calibration(layers=5)
    t1 = encode_stack([image], fixture_weights, policy)[0]
    t2 = encode_stack([image], fixture_weights, policy)[0]
    assert t1.patch_features.tobytes() == t2.patch_features.tobytes()
    for layer in range(LAYER_COUNT):
        a, b = (layer_attention(t, fixture_weights, layer) for t in (t1, t2))
        assert a.tobytes() == b.tobytes()


def test_zero_modified_layers_equals_vanilla(fixture_weights):
    image = random_image(51, 64)
    t_ic = encode_stack([image], fixture_weights, Calibration(layers=0))[0]
    t_qk = encode_stack([image], fixture_weights, VANILLA)[0]
    assert t_ic.patch_features.tobytes() == t_qk.patch_features.tobytes()
    assert t_ic.resume.tobytes() == t_qk.resume.tobytes()


def test_per_head_attention_shape(fixture_weights):
    image = random_image(52, 64)
    for policy in (VANILLA, VALUE_VALUE, Calibration(layers=5)):
        trace = encode_stack([image], fixture_weights, policy)[0]
        for layer in range(LAYER_COUNT):
            assert layer_attention(trace, fixture_weights, layer).shape == (4, 17, 17)


def test_trace_captures_qkv_and_features(fixture_weights):
    trace = encode_stack([random_image(53, 64)], fixture_weights, VANILLA)[0]
    assert len(trace.features) == 12
    assert trace.features[0].shape == (17, 64)
    assert trace.patch_features.shape == (64, 4, 4)
    assert np.isfinite(trace.patch_features).all()


# --------------------------------------------------------------------------
# resuming from a frozen prefix


def assert_traces_identical(got, want):
    for f in dataclasses.fields(LayerTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def masked_relation(seed, hw):
    raw = Rng(seed).generator().standard_normal((hw, hw)).astype(np.float32)
    return np.where(raw >= 0, raw, np.float32(-np.inf))


@pytest.mark.parametrize("calib_layers", [0, 5, 12])
def test_prefix_resume_matches_full_biased_encode(fixture_weights, calib_layers):
    image = random_image(60, 64)
    calibration = Calibration(layers=calib_layers)
    static = encode_stack([image], fixture_weights, calibration)[0]
    relations = [masked_relation(61, 16)]
    full = encode_stack([image], fixture_weights, calibration, relations)[0]
    resumed = encode_stack(None, fixture_weights, calibration, relations, [static])[0]
    assert full.resume.shape == (17, 64) and full.features.shape == (LAYER_COUNT, 17, 64)
    assert_traces_identical(resumed, full)
    # the frozen layers are the prefix's
    start = LAYER_COUNT - calib_layers
    assert resumed.resume.tobytes() == static.resume.tobytes()
    assert resumed.features[:start].tobytes() == static.features[:start].tobytes()


def encode_capturing_maps(monkeypatch, image, weights, calibration, relation=None, prefix=None):
    """`encode_stack`'s trace of one image and, by layer, the bytes of each attention map the
    pass computed."""
    maps, real = {}, encoder._head_attention

    def capture(calibration, layer, *args):
        # a T=257 pass computes a layer's maps a block of heads at a time,
        # in head order: one image's blocks are its maps' bytes in order
        attn = real(calibration, layer, *args)
        maps[layer] = maps.get(layer, b"") + attn.tobytes()
        return attn

    with monkeypatch.context() as patched:
        patched.setattr(encoder, "_head_attention", capture)
        images, prefixes = ([image], None) if prefix is None else (None, [prefix])
        trace = encode_stack(images, weights, calibration, None if relation is None else [relation], prefixes)[0]
    return trace, maps


@pytest.mark.parametrize("size", [64, 256], ids=["T17", "T257"])
def test_layer_attention_recomputes_the_encoded_maps(monkeypatch, fixture_weights, wide_weights, size):
    weights = fixture_weights if size == 64 else wide_weights
    image = random_image(66, size)
    relation = masked_relation(67, weights.grid[0] * weights.grid[1])
    calibrated = Calibration(layers=5)
    for calibration, bias in ((VANILLA, None), (VALUE_VALUE, None), (calibrated, None), (calibrated, relation)):
        trace, maps = encode_capturing_maps(monkeypatch, image, weights, calibration, bias)
        assert sorted(maps) == list(range(LAYER_COUNT))
        for layer in range(LAYER_COUNT):
            assert layer_attention(trace, weights, layer).tobytes() == maps[layer], (calibration, bias is None, layer)
    # a biased pass resumed from the calibrated one computes the calibrated
    # layers; below them its maps are the prefix's
    static, static_maps = encode_capturing_maps(monkeypatch, image, weights, calibrated)
    resumed, resumed_maps = encode_capturing_maps(monkeypatch, image, weights, calibrated, relation, prefix=static)
    assert sorted(resumed_maps) == list(range(LAYER_COUNT - 5, LAYER_COUNT))
    for layer, want in (static_maps | resumed_maps).items():
        assert layer_attention(resumed, weights, layer).tobytes() == want, layer


def test_mismatched_prefix_refused(fixture_weights):
    # a prefix resumes only a pass under its own calibration: one that
    # calibrated deeper holds calibrated layers the pass must run plain,
    # one that calibrated fewer layers holds no residual at the pass's
    # first calibrated layer
    calibrated, relations = Calibration(layers=5), [masked_relation(62, 16)]
    image = random_image(62, 64)
    for layers in (7, 3):
        prefix = encode_stack([image], fixture_weights, Calibration(layers=layers))[0]
        both = rf"under Calibration\(layers={layers}, .*under Calibration\(layers=5,"
        with pytest.raises(DataError, match=both) as refused:
            encode_stack(None, fixture_weights, calibrated, relations, [prefix])
        assert "\n" not in str(refused.value)


@pytest.fixture(scope="module")
def stacked_inputs(fixture_weights, wide_weights, fixture_dataset):
    """By grid size: the weights and N images of a stacked pass, with one
    relation per image. T=17 takes the 32 fixture images, T=257 three
    random 256 px ones."""
    return {
        64: (fixture_weights, [rec.image for rec in fixture_dataset.images]),
        256: (wide_weights, [random_image(70 + i, 256) for i in range(3)]),
    }


def relations_per_image(weights, count, seed):
    hw = weights.grid[0] * weights.grid[1]
    return [masked_relation(seed + i, hw) for i in range(count)]


@pytest.mark.parametrize("size", [64, 256], ids=["T17-N32", "T257-N3"])
def test_stacked_pass_equals_per_image_encodes(stacked_inputs, size):
    weights, images = stacked_inputs[size]
    calibrated = Calibration(layers=5)
    static = encoder.encode_stack(images, weights, calibrated)
    assert len(static) == len(images)
    for image, got in zip(images, static):
        assert got.calibration is calibrated and got.relation is None
        assert_traces_identical(got, encode_stack([image], weights, calibrated)[0])
    # biased and resumed, a different relation per image
    relations = relations_per_image(weights, len(images), seed=80)
    resumed = encoder.encode_stack(None, weights, calibrated, relations, prefixes=static)
    for image, relation, prefix, got in zip(images, relations, static, resumed):
        assert got.calibration is calibrated and got.relation is relation
        assert_traces_identical(got, encode_stack(None, weights, calibrated, [relation], [prefix])[0])
        assert_traces_identical(got, encode_stack([image], weights, calibrated, [relation])[0])


def chunk_sizes(count, weights):
    return [len(range(count)[part]) for part in encoder.chunks(count, weights)]


def test_chunks_follow_the_element_budget(monkeypatch, fixture_weights, wide_weights):
    # a T=17 fixture image counts its (17, 256) MLP activations, 4352
    # elements, over its (4, 17, 17) maps: 30 fit a chunk, so the 32
    # fixture images run as two chunks of 16
    assert encoder.chunks(32, fixture_weights) == [slice(0, 16), slice(16, 32)]
    assert chunk_sizes(30, fixture_weights) == [30]
    assert chunk_sizes(31, fixture_weights) == [16, 15]
    assert chunk_sizes(61, fixture_weights) == [21, 20, 20]
    assert encoder.chunks(0, fixture_weights) == []
    # with a narrower MLP the maps count: 1156 elements, 113 to a chunk
    assert chunk_sizes(226, dataclasses.replace(fixture_weights, mlp_dim=64)) == [113, 113]
    # at T=65 the maps (16900) outweigh the MLP (16640): 7 to a chunk
    assert chunk_sizes(9, dataclasses.replace(fixture_weights, grid=(8, 8))) == [5, 4]
    # a T=257 image fills a chunk alone, and so does a ViT-B one (12 heads at
    # T=197, whose 605k MLP elements outweigh its 466k map elements)
    assert encoder.chunks(3, wide_weights) == [slice(i, i + 1) for i in range(3)]
    vitb = dataclasses.replace(wide_weights, heads=12, grid=(14, 14), mlp_dim=3072)
    assert encoder.chunks(4, vitb) == [slice(i, i + 1) for i in range(4)]
    # sizes differ by at most one, the larger first
    monkeypatch.setattr(encoder, "CHUNK_ELEMENTS", 5 * 17 * 256 + 1)
    assert chunk_sizes(32, fixture_weights) == [5] * 4 + [4] * 3


def test_head_blocks_follow_the_element_budget(monkeypatch, fixture_weights, wide_weights):
    # all heads of a T=17 chunk form one block; a T=257 image goes a head at a time
    assert encoder.heads_per_block(32, fixture_weights) == 4
    assert encoder.heads_per_block(1, wide_weights) == 1
    assert encoder.heads_per_block(3, wide_weights) == 1
    # ViT-B's 12 heads at T=197 (a 14x14 grid): 3 heads' maps fit
    assert encoder.heads_per_block(1, dataclasses.replace(wide_weights, heads=12, grid=(14, 14))) == 3
    # blocks are equal: of 6 heads, 5 fit and 3 are taken
    monkeypatch.setattr(encoder, "CHUNK_ELEMENTS", 5 * 17 * 17)
    assert encoder.heads_per_block(1, dataclasses.replace(fixture_weights, heads=6)) == 3


def test_stacked_maps_are_each_images_layer_attention(monkeypatch, stacked_inputs):
    weights, images = stacked_inputs[64]
    images = images[:6]
    calibrated = Calibration(layers=5)
    static = encoder.encode_stack(images, weights, calibrated)
    relations = relations_per_image(weights, len(images), seed=90)
    maps, real = {}, encoder._head_attention

    def capture(calibration, layer, *args):
        attn = real(calibration, layer, *args)
        maps[layer] = attn.copy()  # the pass writes its next layer over `attn`
        return attn

    monkeypatch.setattr(encoder, "_head_attention", capture)
    resumed = encoder.encode_stack(None, weights, calibrated, relations, prefixes=static)
    monkeypatch.undo()
    assert sorted(maps) == list(range(LAYER_COUNT - 5, LAYER_COUNT))
    for layer, stacked in maps.items():
        assert stacked.shape == (len(images), weights.heads, 17, 17)
        for i, trace in enumerate(resumed):
            assert layer_attention(trace, weights, layer).tobytes() == stacked[i].tobytes(), (layer, i)


def test_stacked_pass_needs_one_relation_and_prefix_per_image(monkeypatch, fixture_weights):
    images = [random_image(97 + i, 64) for i in range(3)]
    calibrated = Calibration(layers=5)
    static = encoder.encode_stack(images, fixture_weights, calibrated)
    relations = relations_per_image(fixture_weights, 3, seed=97)
    # a count is checked before any image is encoded
    monkeypatch.setattr(encoder, "patchify", None)
    for bad_images, bad_relations, bad_prefixes in (
        (images, relations[:2], None),
        (images, relations + relations[:1], None),
        (images, [], None),
        (None, relations[:2], static),
        (None, relations, static[:2]),
        (images, relations, static),  # both images and prefixes
        (images, None, static),
        (None, relations, None),  # neither
        (None, None, None),
    ):
        with pytest.raises(UsageError, match="images or prefixes, not both, and one relation per pass") as refused:
            encoder.encode_stack(bad_images, fixture_weights, calibrated, bad_relations, bad_prefixes)
        assert "\n" not in str(refused.value)
    with pytest.raises(UsageError, match="got 0 images, no prefixes and no relations"):
        encoder.encode_stack([], fixture_weights, calibrated)
    with pytest.raises(UsageError, match="got no images, 0 prefixes and 0 relations"):
        encoder.encode_stack(None, fixture_weights, calibrated, [], [])


# --------------------------------------------------------------------------
# two chunks in flight


def check_runner_keeps_the_serial_bytes(monkeypatch, weights, images, seed):
    """The static and the resumed biased traces of `encode_chunks` over
    `images` are those of serial calls, consumed in chunk order on the
    calling thread; each pair's earlier pass runs on the helper thread."""
    calibrated = Calibration(layers=5)
    relations = relations_per_image(weights, len(images), seed=seed)
    caller, real = threading.get_ident(), encoder.encode_stack
    parts = encoder.chunks(len(images), weights)
    starts = [part.start for part in parts]
    pass_threads = {}

    def recording(chunk, weights, calibration, relations, prefixes):
        # a chunk's first image, or the prefix trace of it
        first = chunk[0] if prefixes is None else prefixes[0]
        start = next(start for start in starts if first is images[start] or first is static[start])
        pass_threads[starts.index(start)] = threading.get_ident()
        return real(chunk, weights, calibration, relations, prefixes)

    def run(runner, relations, prefixes):
        traces, consumed = [], []

        def job(part):
            chunk = images[part] if prefixes is None else None
            return chunk, *(None if x is None else x[part] for x in (relations, prefixes))

        def consume(part, chunk_traces):
            consumed.append((part, threading.get_ident()))
            traces.extend(chunk_traces)

        runner(len(images), weights, calibrated, job, consume)
        assert consumed == [(part, caller) for part in parts]
        return traces

    static = run(serial_encode_chunks, None, None)
    want = run(serial_encode_chunks, relations, static)
    monkeypatch.setattr(encoder, "encode_stack", recording)
    on_helper = [i % 2 == 0 and i + 1 < len(parts) for i in range(len(parts))]
    for bias, prefixes, oracle in ((None, None, static), (relations, static, want)):
        pass_threads.clear()
        for got, expected in zip(run(encoder.encode_chunks, bias, prefixes), oracle, strict=True):
            assert_traces_identical(got, expected)
        assert [pass_threads[i] != caller for i in range(len(parts))] == on_helper


def test_chunk_runner_keeps_the_serial_bytes(monkeypatch, stacked_inputs):
    # three T=257 images are three chunks: the helper thread runs the first
    # while the calling thread runs the second, then the third alone
    weights, images = stacked_inputs[256]
    assert len(encoder.chunks(len(images), weights)) == 3
    check_runner_keeps_the_serial_bytes(monkeypatch, weights, images, seed=120)


def test_chunk_runner_keeps_the_serial_bytes_of_two_t17_passes(monkeypatch, stacked_inputs):
    # the 32 T=17 fixture images are two chunks of 16: the helper thread
    # runs the first while the calling thread runs the second
    weights, images = stacked_inputs[64]
    assert encoder.chunks(len(images), weights) == [slice(0, 16), slice(16, 32)]
    check_runner_keeps_the_serial_bytes(monkeypatch, weights, images, seed=125)


def test_probe_means_keep_the_serial_bytes(monkeypatch):
    # 12 probes at T=65, 7 of which fit a pass: two chunks of 6, both in flight at once
    spec = FixtureSpec(patch_size=8)
    weights = fixtures.make_encoder_weights(Rng(5).child("encoder"), spec)
    assert chunk_sizes(4 * spec.classes, weights) == [6, 6]

    def probe_means():
        means, background = fixtures._probe_feature_means(weights, spec, Rng(5).child("probes").generator())
        return [means[c].tobytes() for c in sorted(means)], background.tobytes()

    got = probe_means()
    monkeypatch.setattr(fixtures, "encode_chunks", serial_encode_chunks)
    assert got == probe_means()


# per chunk of five, the step that fails in it and the chunk whose error is raised
RUNNER_FAILURES = {
    "none": ({}, None),
    "a pair's later pass, and the next pair's earlier one": ({1: "pass", 2: "pass"}, 1),
    "both passes of a pair": ({0: "pass", 1: "pass"}, 0),
    "the later job, then the earlier pass": ({1: "job", 0: "pass"}, 0),
    "the earlier consume, then the later pass": ({0: "consume", 1: "pass"}, 0),
    "the second pair's later job": ({3: "job"}, 3),
    "the last pass, run alone": ({4: "pass"}, 4),
}


@pytest.mark.parametrize("case", list(RUNNER_FAILURES))
def test_first_failing_chunk_raises_and_no_thread_outlives_the_runner(monkeypatch, wide_weights, case):
    # five T=257 chunks run as two pairs and a last chunk alone; each pair's
    # earlier pass runs on the helper thread
    failures, raised = RUNNER_FAILURES[case]
    caller, threads_before = threading.get_ident(), threading.active_count()
    pass_threads, consumed = {}, []

    def fail(chunk, step):
        if failures.get(chunk) == step:
            raise DataError(f"chunk {chunk} {step}")

    def fake_stack(chunk, weights, calibration, relations=None, prefixes=None):
        pass_threads[chunk[0]] = threading.get_ident()
        fail(chunk[0], "pass")
        return [f"trace {chunk[0]}"]

    def job(part):
        fail(part.start, "job")
        return list(range(5))[part], None, None

    def consume(part, traces):
        fail(part.start, "consume")
        consumed.extend(traces)

    monkeypatch.setattr(encoder, "encode_stack", fake_stack)
    if raised is None:
        encoder.encode_chunks(5, wide_weights, VANILLA, job, consume)
        assert consumed == [f"trace {i}" for i in range(5)]
        assert [pass_threads[i] == caller for i in range(5)] == [False, True, False, True, True]
    else:
        with pytest.raises(DataError, match=f"^chunk {raised} {failures[raised]}$"):
            encoder.encode_chunks(5, wide_weights, VANILLA, job, consume)
        assert consumed == [f"trace {i}" for i in range(raised)]
    assert threading.active_count() == threads_before


def test_one_chunk_starts_no_thread(monkeypatch, fixture_weights):
    # 30 T=17 images fit one chunk, which runs on the calling thread
    threads_before, seen = threading.active_count(), []

    def fake_stack(images, weights, calibration, relations=None, prefixes=None):
        seen.append((len(images), threading.get_ident(), threading.active_count()))
        return list(images)

    monkeypatch.setattr(encoder, "encode_stack", fake_stack)
    encoder.encode_chunks(
        30, fixture_weights, VANILLA, lambda part: (list(range(30))[part], None, None), lambda *_: None
    )
    assert seen == [(30, threading.get_ident(), threads_before)]


@pytest.mark.parametrize("count, fails", [(2, None), (2, "pass"), (2, "consume"), (1, None)])
def test_a_two_chunk_loop_holds_blas_to_one_thread(monkeypatch, wide_weights, count, fails):
    # two T=257 images are two chunks, in flight at once: OpenBLAS runs on
    # one thread in the job, the passes and the consume of each, and gets
    # its count back afterwards, also on a raise; one chunk leaves it alone
    calls = numerics.openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count functions")
    get, set_ = calls
    before, seen = get(), []

    def step(chunk, what):
        seen.append((what, get()))
        if (chunk, what) == (1, fails):
            raise DataError(f"chunk 1 {what}")

    def job(part):
        step(part.start, "job")
        return list(range(count))[part], None, None

    def fake_stack(images, weights, calibration, relations=None, prefixes=None):
        step(images[0], "pass")
        return list(images)

    monkeypatch.setattr(encoder, "encode_stack", fake_stack)
    set_(2)
    try:
        if fails is None:
            encoder.encode_chunks(count, wide_weights, VANILLA, job, lambda part, _: step(part.start, "consume"))
        else:
            with pytest.raises(DataError, match=f"^chunk 1 {fails}$"):
                encoder.encode_chunks(count, wide_weights, VANILLA, job, lambda part, _: step(part.start, "consume"))
        assert {what for what, _ in seen} == {"job", "pass", "consume"}
        assert [threads for _, threads in seen] == [1 if count > 1 else 2] * len(seen)
        assert get() == 2
    finally:
        set_(before)


# The attention kernels as they were before a pass owned its work arrays:
# every step allocates its result, and every scale and sum is a float64
# operation on float32 operands. The oracle of the buffered kernels.
def _oracle_attention(a, b, head_dim):
    logits = (a.astype(np.float64) @ b.swapaxes(-1, -2).astype(np.float64)).astype(np.float32)
    np.divide(logits, math.sqrt(head_dim), out=logits, dtype=np.float64)
    return oracle_softmax(logits)


def _oracle_head_attention(calibration, layer, q, k, v, head_dim, bias):
    if layer < LAYER_COUNT - calibration.layers:
        return _oracle_attention(q, k, head_dim)
    mix = np.zeros(q.shape[:-1] + (q.shape[-2],), dtype=np.float64)
    for w, o in zip(calibration.weights, (q, k, v)):
        if w:
            mix += np.multiply(_oracle_attention(o, o, head_dim), w, dtype=np.float64)
    attn = mix.astype(np.float32)
    if bias is not None:
        np.add(attn, bias, out=attn, dtype=np.float64)
    return attn


ORACLE_CALIBRATIONS = {
    "vanilla": VANILLA,
    "value_value": VALUE_VALUE,
    "intra_correlation": Calibration(layers=5),
    "biased": Calibration(layers=5),  # with a relation per image
    "q_and_v": Calibration(layers=5, weights=(0.5, 0.0, 0.5)),
    "zero_weights": Calibration(layers=5, weights=(0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("name", list(ORACLE_CALIBRATIONS))
@pytest.mark.parametrize("size", [64, 256], ids=["T17-N32", "T257-N3"])
def test_buffered_attention_equals_the_allocating_oracle(monkeypatch, stacked_inputs, size, name):
    # every layer of one pass writes its maps into the same work arrays,
    # q-k layers and calibrated ones alike, and gives the oracle's bytes;
    # at T=17 all heads are one block, at T=257 each head is one
    weights, images = stacked_inputs[size]
    blocks = 1 if size == 64 else weights.heads
    maps = assert_pass_equals_the_oracle(monkeypatch, weights, images, name, seed=110)
    assert len(maps) == LAYER_COUNT * blocks
    assert maps[0].shape == (len(images), weights.heads // blocks, *maps[0].shape[-2:])
    assert all(attn is maps[0] for attn in maps)
    if name == "zero_weights":
        # all zero, not the q-k map the layer below left in the work arrays
        assert not maps[-1].any()


@pytest.mark.parametrize("name", list(ORACLE_CALIBRATIONS))
@pytest.mark.parametrize("head_dim", [4, 8, 9, 64])
def test_buffered_attention_equals_the_oracle_at_other_head_dims(monkeypatch, head_dim, name):
    # sqrt(D_s) is exact in float32 at 4, 9 and 64, where the logits are
    # scaled in float32, and not at 8, where they keep the float64 divide;
    # two heads over an 8x8 grid (T=65), three images
    weights = tiny_weights(dim=2 * head_dim, grid=(8, 8), sigma=0.3, seed=head_dim)
    images = [random_image(130 + i, 32) for i in range(3)]
    maps = assert_pass_equals_the_oracle(monkeypatch, weights, images, name, seed=135)
    assert len(maps) == LAYER_COUNT and maps[0].shape == (3, 2, 65, 65)


def assert_pass_equals_the_oracle(monkeypatch, weights, images, name, seed):
    """The maps of one `encode_stack` pass under ORACLE_CALIBRATIONS[name],
    each checked to hold the oracle's bytes as it is made."""
    calibration = ORACLE_CALIBRATIONS[name]
    relations = relations_per_image(weights, len(images), seed=seed) if name == "biased" else None
    maps, real = [], encoder._head_attention

    def check(calibration, layer, q, k, v, head_dim, bias, work):
        attn = real(calibration, layer, q, k, v, head_dim, bias, work)
        want = _oracle_head_attention(calibration, layer, q, k, v, head_dim, bias)
        assert attn.tobytes() == want.tobytes(), (name, layer)
        maps.append(attn)
        return attn

    monkeypatch.setattr(encoder, "_head_attention", check)
    encoder.encode_stack(images, weights, calibration, relations)
    return maps


def test_gelu_bytes_equal_the_where_formula():
    # on the special values and on an MLP-sized draw of both signs
    gen = Rng(140).generator()
    x = np.concatenate([SPECIAL_VALUES, 3 * gen.standard_normal(257 * 256).astype(np.float32)])
    want = oracle_sigmoid(1.702 * x)
    np.multiply(x, want, out=want, dtype=np.float64)
    assert encoder.gelu(x).tobytes() == want.tobytes()


def test_traces_and_maps_hold_no_work_array(fixture_weights):
    calibration, relations = Calibration(layers=5), [masked_relation(111, 16)]
    first = encode_stack([random_image(111, 64)], fixture_weights, calibration, relations)[0]
    first_map = layer_attention(first, fixture_weights, LAYER_COUNT - 1)

    def kept(trace):
        return [trace.resume, trace.features, trace.patch_features]

    before = [a.tobytes() for a in (*kept(first), first_map)]
    second = encode_stack([random_image(112, 64)], fixture_weights, calibration, relations)[0]
    second_map = layer_attention(second, fixture_weights, 0)
    arrays = [*kept(first), first_map, *kept(second), second_map]
    for (i, a), (j, b) in itertools.combinations(enumerate(arrays), 2):
        assert not np.shares_memory(a, b), (i, j)
    assert [a.tobytes() for a in (*kept(first), first_map)] == before


@pytest.mark.parametrize("name", ["attn.q.w", "attn.k.w", "attn.v.w", "attn.out.w", "mlp.fc.w", "mlp.proj.w"])
def test_non_finite_weight_raises_numeric_error(name):
    w = tiny_weights(seed=64)
    poisoned = w.tensors[f"layers.03.{name}"].copy()
    poisoned[0, 0] = np.nan
    w.tensors[f"layers.03.{name}"] = poisoned
    with pytest.raises(NumericError, match="layer 3"):
        encode_stack([random_image(64, 8)], w, Calibration(layers=5))


def test_non_finite_image_raises_numeric_error():
    image = random_image(65, 8)
    image[1, 2, 3] = np.nan
    with pytest.raises(NumericError):
        encode_stack([image], tiny_weights(seed=65), VANILLA)
