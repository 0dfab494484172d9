import json
import math
import tracemalloc

import numpy as np
import pytest

from excel import dynamic_calibration, encoder, static_calibration, training_eval
from excel.dynamic_calibration import init_adapter
from excel.encoder import LAYER_COUNT, VANILLA, Calibration, encode_stack, layer_attention
from excel.errors import DataError, NumericError, UsageError
from excel.blobio import load_tensors, save_tensors
from excel.config import PipelineConfig
from excel.numerics import Rng
from excel.training_eval import (
    MAX_TRAINING_BYTES,
    adamw_step,
    attn_report,
    evaluate,
    init_adam_state,
    load_checkpoint,
    mean_row_entropy,
    report_text,
    save_checkpoint,
    train_loop,
    training_bytes,
    upsample_labels,
    write_loss_curve,
)
from conftest import float64_adapter, one_image_gradient, read_loss_curve


def small_config(**overrides):
    defaults = dict(iterations=3, batch_size=2, seed=5, clusters=8, topk=4)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# --------------------------------------------------------------------------
# AdamW


def _params(seed=4):
    gen = Rng(seed).generator()
    return {
        "layer.w": gen.standard_normal((3, 3)).astype(np.float32),
        "layer.b": gen.standard_normal(3).astype(np.float32),
    }


def _flat(tensors, dtype=np.float32):
    return np.concatenate([t.ravel() for t in tensors.values()], dtype=dtype)


def _state(params, lr, weight_decay):
    return init_adam_state({k: v.shape for k, v in params.items()}, lr, weight_decay)


def _tensors(flat, params):
    return dynamic_calibration.flat_views(flat, {k: v.shape for k, v in params.items()})


def test_adamw_zero_grad_zero_decay_is_identity():
    params = _params()
    flat, state = _flat(params), _state(params, lr=1e-2, weight_decay=0.0)
    adamw_step(flat, np.zeros(flat.size), state)
    assert np.array_equal(flat, _flat(params))
    assert state.step == 1


def test_adamw_first_step_closed_form():
    params = _params(5)
    gen = Rng(6).generator()
    grads = {k: gen.standard_normal(v.shape) for k, v in params.items()}
    lr, eps = 1e-3, 1e-8
    flat = _flat(params)
    adamw_step(flat, _flat(grads, np.float64), _state(params, lr=lr, weight_decay=0.0))
    for k, new in _tensors(flat, params).items():
        g = grads[k]
        expected = params[k].astype(np.float64) - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(new, expected, atol=1e-6)


def test_adamw_decay_only_shrinks_weights_not_biases():
    params = _params(7)
    lr, wd = 1e-2, 1e-1
    flat = _flat(params)
    adamw_step(flat, np.zeros(flat.size), _state(params, lr=lr, weight_decay=wd))
    new = _tensors(flat, params)
    np.testing.assert_allclose(new["layer.w"], params["layer.w"] * (1 - lr * wd), atol=1e-7)
    assert np.array_equal(new["layer.b"], params["layer.b"])


def test_adamw_lr_zero_is_identity():
    params = _params(8)
    gen = Rng(9).generator()
    flat = _flat(params)
    adamw_step(flat, gen.standard_normal(flat.size), _state(params, lr=0.0, weight_decay=1e-2))
    assert np.array_equal(flat, _flat(params))


def test_adamw_nonfinite_update_raises():
    params = _params(10)
    cfg = small_config()
    for bad in params:  # the message names the tensor
        grads = {k: np.full(v.shape, np.nan if k == bad else 0.0) for k, v in params.items()}
        with pytest.raises(NumericError, match=f"non-finite update for parameter '{bad}'"):
            adamw_step(_flat(params), _flat(grads, np.float64), _state(params, cfg.lr, cfg.weight_decay))


@pytest.mark.parametrize("lr, grad", [(1e300, 1.0), (1e-3, 1e30)], ids=["parameter", "second-moment"])
def test_adamw_refuses_values_past_the_float32_range(lr, grad):
    # finite in float64, infinite once stored as float32: a step of 1e300,
    # or a squared gradient of 1e60 in the second moment
    params = _params(11)
    for bad in params:
        grads = {k: np.full(v.shape, grad if k == bad else 0.0) for k, v in params.items()}
        with pytest.raises(NumericError, match=f"non-finite update for parameter '{bad}'"):
            adamw_step(_flat(params), _flat(grads, np.float64), _state(params, lr, 0.0))


def test_train_loop_past_the_float32_range_writes_no_final_checkpoint(tmp_path, fixture_weights, fixture_static):
    cfg = small_config(iterations=1, lr=1e300)
    with pytest.raises(NumericError, match="non-finite update for parameter 'delta.w'"):
        train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, {})
    assert not (tmp_path / "checkpoint_000001.json").exists()


def test_adamw_moment_accumulation_two_steps():
    params = {"p.w": np.zeros(1, np.float32)}
    flat, g1 = _flat(params), np.array([1.0])
    state = _state(params, lr=1e-3, weight_decay=0.0)
    adamw_step(flat, g1, state)
    p1 = flat.copy()
    adamw_step(flat, g1, state)
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = (b1 * 0.1 + 0.1) / (1 - b1**2)  # bias-corrected after two equal grads
    v = (b2 * 0.001 + 0.001) / (1 - b2**2)
    expected = p1.astype(np.float64) - 1e-3 * m / (np.sqrt(v) + eps)
    np.testing.assert_allclose(flat, expected, atol=1e-7)


def _adamw_reference(params, grads, state, lr, wd):
    """One AdamW step as whole-array expressions on one tensor at a time,
    for a byte comparison; `state` is (m, v, step) of per-tensor dicts."""
    ms, vs, step = state
    t = step + 1
    out, new_m, new_v = {}, {}, {}
    for name, p32 in params.items():
        p, g = p32.astype(np.float64), np.asarray(grads[name], dtype=np.float64)
        m = ms[name].astype(np.float64) * 0.9 + (1 - 0.9) * g
        v = vs[name].astype(np.float64) * 0.999 + (1 - 0.999) * g * g
        m_hat, v_hat = m / (1 - 0.9**t), v / (1 - 0.999**t)
        decay = 0.0 if name.endswith(".b") else wd
        out[name] = (p * (1 - lr * decay) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(np.float32)
        new_m[name], new_v[name] = m.astype(np.float32), v.astype(np.float32)
    return out, (new_m, new_v, t)


def test_adamw_bytes_equal_the_expression_form_and_grads_stay_put(monkeypatch):
    # the blocked in-place update on the flat vectors keeps each operation
    # and its order, and never writes into the caller's float64 gradients;
    # a 7-element block also splits every tensor across blocks
    for block in (training_eval.ADAM_BLOCK, 7):
        monkeypatch.setattr(training_eval, "ADAM_BLOCK", block)
        _check_adamw_against_reference()


def _check_adamw_against_reference():
    params = {k: np.repeat(v, 50, axis=0) for k, v in _params(12).items()}
    flat, state = _flat(params), _state(params, lr=1e-2, weight_decay=1e-2)
    want = params
    want_state = ({k: np.zeros_like(v) for k, v in params.items()},) * 2 + (0,)
    gen = Rng(13).generator()
    for _ in range(17):
        grads = {k: gen.standard_normal(v.shape) * 10.0 ** gen.integers(-6, 2) for k, v in params.items()}
        flat_grads = _flat(grads, np.float64)
        before = flat_grads.copy()
        adamw_step(flat, flat_grads, state)
        want, want_state = _adamw_reference(want, grads, want_state, 1e-2, 1e-2)
        assert flat_grads.tobytes() == before.tobytes()
        assert flat.tobytes() == _flat(want).tobytes()
        assert state.m.tobytes() == _flat(want_state[0]).tobytes()
        assert state.v.tobytes() == _flat(want_state[1]).tobytes()
    assert state.step == 17


# --------------------------------------------------------------------------
# evaluation


def test_evaluate_identical_maps_miou_one():
    gen = Rng(11).generator()
    maps = [gen.integers(0, 3, size=(6, 6)).astype(np.uint8) for _ in range(3)]
    report = evaluate(maps, maps, num_labels=3)
    assert report.miou == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in report.per_class_iou.values())


def test_evaluate_all_background_vs_class_one():
    pred = [np.zeros((4, 4), np.uint8)]
    gt = [np.ones((4, 4), np.uint8)]
    report = evaluate(pred, gt, num_labels=2)
    assert report.per_class_iou[1] == 0.0


def test_evaluate_half_overlap_exact_third():
    # pred covers columns 0..3, gt covers columns 2..5 of an 8-wide strip:
    # intersection 2 columns, union 6 -> IoU exactly 1/3
    pred = np.zeros((2, 8), np.uint8)
    gt = np.zeros((2, 8), np.uint8)
    pred[:, 0:4] = 1
    gt[:, 2:6] = 1
    report = evaluate([pred], [gt], num_labels=2)
    assert report.per_class_iou[1] == pytest.approx(1 / 3, abs=0)


def test_evaluate_combinatorial_oracle_random_maps():
    gen = Rng(12).generator()
    preds = [gen.integers(0, 4, size=(5, 5)).astype(np.uint8) for _ in range(4)]
    gts = [gen.integers(0, 4, size=(5, 5)).astype(np.uint8) for _ in range(4)]
    gts[0][0, :] = 255
    report = evaluate(preds, gts, num_labels=4)
    for c in range(4):
        inter = union = 0
        for p, g in zip(preds, gts):
            keep = g != 255
            inter += int(((p == c) & (g == c) & keep).sum())
            union += int((((p == c) | (g == c)) & keep).sum())
        if union:
            assert report.per_class_iou[c] == pytest.approx(inter / union)


def test_evaluate_ignores_gt_255_and_allows_pred_255():
    pred = np.array([[1, 255], [0, 1]], np.uint8)
    gt = np.array([[1, 255], [0, 0]], np.uint8)
    report = evaluate([pred], [gt], num_labels=2)
    # pred 255 never matches: the (1,1) pixel is a bg false negative
    assert report.per_class_iou[0] == pytest.approx(1 / 2)
    assert report.per_class_iou[1] == pytest.approx(1 / 2)


def test_evaluate_confusion_matches_a_per_pixel_loop():
    # each pixel the ground truth keeps adds one at (gt, pred), a predicted
    # 255 in the last column; an ignored ground-truth pixel adds nothing
    gen = Rng(14).generator()
    preds = [gen.integers(0, 5, size=(7, 9)).astype(np.uint8) for _ in range(3)]
    gts = [gen.integers(0, 5, size=(7, 9)).astype(np.uint8) for _ in range(3)]
    for pred, gt in zip(preds, gts):
        pred[pred == 4] = 255
        gt[gt == 4] = 255
    want = np.zeros((4, 5), np.int64)
    ignored = 0
    for pred, gt in zip(preds, gts):
        for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist()):
            if g == 255:
                ignored += 1
            else:
                want[g, 4 if p == 255 else p] += 1
    assert ignored and want[:, 4].sum()
    confusion = evaluate(preds, gts, num_labels=4).confusion
    assert confusion.dtype == np.int64 and np.array_equal(confusion, want)


def test_evaluate_symmetric_under_relabeling():
    gen = Rng(13).generator()
    pred = gen.integers(0, 3, size=(6, 6)).astype(np.uint8)
    gt = gen.integers(0, 3, size=(6, 6)).astype(np.uint8)
    base = evaluate([pred], [gt], num_labels=3)
    perm = np.array([2, 0, 1], np.uint8)
    swapped = evaluate([perm[pred]], [perm[gt]], num_labels=3)
    assert base.miou == pytest.approx(swapped.miou)
    for c in range(3):
        assert base.per_class_iou[c] == pytest.approx(swapped.per_class_iou[int(perm[c])])


def test_evaluate_shape_mismatch():
    with pytest.raises(DataError):
        evaluate([np.zeros((2, 2), np.uint8)], [np.zeros((3, 3), np.uint8)], num_labels=2)


def test_report_text_contains_miou(fixture_dataset):
    pred = [rec.mask for rec in fixture_dataset.images[:2]]
    report = evaluate(pred, pred, num_labels=4)
    text = report_text(report, fixture_dataset.class_names)
    assert "mIoU" in text and "1.0000" in text


def test_upsample_labels():
    labels = np.array([[1, 2], [0, 255]], np.uint8)
    up = upsample_labels(labels, 2)
    assert up.shape == (4, 4)
    assert (up[0:2, 0:2] == 1).all() and (up[2:4, 2:4] == 255).all()


# --------------------------------------------------------------------------
# attention report


def test_entropy_uniform_and_identity():
    t = 9
    uniform = np.full((1, t, t), 1.0 / t, np.float32)
    assert mean_row_entropy(uniform) == pytest.approx(math.log(t), abs=1e-9)
    identity = np.eye(t, dtype=np.float32)[None]
    assert mean_row_entropy(identity) == pytest.approx(0.0, abs=1e-12)


def test_attn_report_fixture_policies(fixture_weights, fixture_dataset):
    rec = fixture_dataset.images[0]
    policies = {"qk": VANILLA, "ic": Calibration(layers=5)}
    traces = {name: encode_stack([rec.image], fixture_weights, c)[0] for name, c in policies.items()}
    report = {name: attn_report(trace, fixture_weights) for name, trace in traces.items()}
    hw = 16
    for entry in report.values():
        assert 0.0 <= entry["mean_row_entropy"] <= math.log(17) + 1e-6
        assert entry["token_relation"].shape == (hw, hw)
    # independent entropy recomputation for one policy
    attn = layer_attention(traces["qk"], fixture_weights, LAYER_COUNT - 1).astype(np.float64)
    rows = attn / attn.sum(axis=2, keepdims=True)
    ent = float(np.where(rows > 0, -rows * np.log(rows), 0.0).sum(axis=2).mean())
    assert report["qk"]["mean_row_entropy"] == pytest.approx(ent, abs=1e-9)


# --------------------------------------------------------------------------
# training loop


def test_train_loop_zero_iterations_returns_init(tmp_path, fixture_weights, fixture_static):
    cfg = small_config(iterations=0)
    adapter = train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, {})
    fresh = init_adapter(
        Rng(cfg.seed).child("adapter"), fixture_weights.dim,
        cfg.d_proj, cfg.d_dyn, cfg.fusion_kernel, cfg.adapter_init_sigma, cfg.alpha, cfg.beta,
    )
    assert list(adapter.tensors) == list(fresh.tensors)
    for a, b in zip(adapter.tensors.values(), fresh.tensors.values()):
        assert np.array_equal(a, b)
    assert read_loss_curve(tmp_path / "loss_curve.csv") == []


def test_iteration_loss_is_the_per_image_mean_in_batch_order(fixture_weights, fixture_static):
    # a batch of 6 over 4 images wraps the dataset and holds two images
    # twice; the flat mean gradient is the gradients of stacks of one
    # summed from zero in batch order, then divided, as one tensor at a time
    static = fixture_static[:4]
    cfg = small_config(batch_size=6, pair_sample_limit=40)
    adapter = init_adapter(Rng(24), fixture_weights.dim, cfg.d_proj, cfg.d_dyn, 1, 0.05, cfg.alpha, cfg.beta)
    work = np.empty(sum(t.size for t in adapter.tensors.values()))
    loss, grad = training_eval._iteration_loss(static, 1, cfg, adapter, work)
    rng = Rng(cfg.seed).child("it.1")
    div_sum, want = 0.0, {name: np.zeros(shape) for name, shape in adapter.shapes.items()}
    for j in range(6):
        sres = static[(6 + j) % 4]
        batch = dynamic_calibration.build_affinity_batch(sres.labels, 40, rng.child(f"pairs.{j}"))
        div, grads = one_image_gradient(sres.trace, float64_adapter(adapter), batch)
        div_sum += div
        for name, g in grads.items():
            want[name] += g
    assert np.float64(loss).tobytes() == np.float64(div_sum / 6).tobytes()
    got = dynamic_calibration.flat_views(grad, adapter.shapes)
    for name, g in want.items():
        g /= 6
        assert got[name].tobytes() == g.tobytes(), name


def test_iteration_loss_memory_does_not_grow_by_a_gradient_per_image(fixture_weights, fixture_static):
    # the stacked pass keeps one fusion-weight-sized work buffer whatever
    # the batch: a batch of 4 peaks within one such buffer of a batch of 1
    cfg = PipelineConfig()
    adapter = init_adapter(
        Rng(25), fixture_weights.dim, cfg.d_proj, cfg.d_dyn, cfg.fusion_kernel, 0.05, cfg.alpha, cfg.beta
    )

    def peak(batch_size):
        tracemalloc.start()
        try:
            work = np.empty(sum(t.size for t in adapter.tensors.values()))
            training_eval._iteration_loss(fixture_static, 0, PipelineConfig(batch_size=batch_size), adapter, work)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= peak(1) + 8 * adapter.tensors["fusion.w"].size


@pytest.mark.parametrize(
    "overrides", [{}, {"batch_size": 8}, {"fusion_kernel": 3, "d_dyn": 64}], ids=["default", "batch-8", "kernel-3"]
)
def test_training_bytes_bound_what_training_allocates(tmp_path, fixture_weights, fixture_static, overrides):
    # the size bound's formula counts no less than a training run's traced
    # peak, and admits the default config at the paper's ViT-B/16 shape
    cfg = small_config(iterations=2, **overrides)
    tracemalloc.start()
    try:
        train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, provenance={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= training_bytes(cfg, fixture_weights.dim, fixture_weights.grid)
    assert training_bytes(PipelineConfig(), 768, (14, 14)) <= MAX_TRAINING_BYTES


def test_train_loop_checkpoints_byte_identical(tmp_path, fixture_weights, fixture_static):
    cfg = small_config(iterations=3)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    train_loop(fixture_static, fixture_weights.dim, cfg, out1, {})
    train_loop(fixture_static, fixture_weights.dim, cfg, out2, {})
    for name in ("checkpoint_000003.json", "checkpoint_000003.bin", "loss_curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_train_loop_divergence_aborts(monkeypatch, tmp_path, fixture_weights, fixture_static):
    # a non-finite mean loss aborts training at its iteration, before the
    # loss curve and the checkpoint are written
    real = training_eval.diversity_loss_gradient_stack

    def nan_loss_from(iteration):
        calls = []

        def loss(*args):
            calls.append(None)
            losses = real(*args)
            return [float("nan") for _ in losses] if len(calls) > iteration else losses

        return loss

    for it in (0, 1):
        monkeypatch.setattr(training_eval, "diversity_loss_gradient_stack", nan_loss_from(it))
        out_dir = tmp_path / str(it)
        with pytest.raises(NumericError, match=f"diverged at iteration {it}: diversity loss nan"):
            train_loop(fixture_static, fixture_weights.dim, small_config(iterations=2), out_dir, {})
        assert not out_dir.exists()


def test_checkpoint_roundtrip(tmp_path, fixture_weights, fixture_static):
    cfg = small_config(iterations=2)
    trained = train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, {})
    path = tmp_path / "checkpoint_000002.json"
    adapter = load_checkpoint(path, fixture_weights.dim, cfg.calibration())
    assert list(adapter.tensors) == list(trained.tensors)
    for a, b in zip(adapter.tensors.values(), trained.tensors.values()):
        assert np.array_equal(a, b)
    assert (adapter.alpha, adapter.beta) == (cfg.alpha, cfg.beta)
    meta = load_tensors(path).meta
    assert meta["train_config"]["iterations"] == 2
    assert meta["train_config"]["lr"] == cfg.lr


@pytest.mark.parametrize(
    "case", ["meta-dim", "weights-dim", "delta-width", "delta-bias", "fusion-rows", "fusion-bias", "kernel-3"]
)
def test_checkpoint_shapes_checked_against_meta(tmp_path, case):
    adapter = init_adapter(Rng(1), 8, 4, 6, 1, 0.02, 3.0, 1.0)
    cfg = PipelineConfig(d_proj=4, d_dyn=6)
    settings = cfg.settings()
    meta, dim = {"dim": 8, "train_config": settings}, 8
    if case == "meta-dim":
        meta["dim"] = 16
    elif case == "weights-dim":
        dim = 16
    elif case != "kernel-3":
        name, shape = {
            "delta-width": ("delta.w", (12, 4, 9)),
            "delta-bias": ("delta.b", (12, 5)),
            "fusion-rows": ("fusion.w", (7, 48, 1, 1)),
            "fusion-bias": ("fusion.b", (7,)),
        }[case]
        adapter.tensors[name] = np.zeros(shape, np.float32)
    path = save_checkpoint(tmp_path / "ck.json", adapter, meta)
    if case == "kernel-3":  # a 1x1 fusion.w declared as a 3x3 kernel
        meta["train_config"] = settings | {"fusion_kernel": 3}
        path = save_tensors(path, load_tensors(path).tensors, meta=meta)
    with pytest.raises(DataError, match="encoder features" if "dim" in case else "expected"):
        load_checkpoint(path, dim, cfg.calibration())


@pytest.mark.parametrize("kernel", [1, 3])
def test_checkpoint_layout_is_the_adapter_table(tmp_path, fixture_weights, fixture_static, kernel):
    # train_loop writes the four tensors in table order, each in the shape
    # its math reads: the twelve layers' projections stacked by layer, then
    # the fusion kernel, 4-D for either size, and its bias
    cfg = small_config(iterations=2, fusion_kernel=kernel, d_proj=4, d_dyn=8)
    train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, {})
    manifest = json.loads((tmp_path / "checkpoint_000002.json").read_text())
    layout = [(entry["name"], entry["shape"]) for entry in manifest["tensors"]]
    assert layout == [
        ("delta.w", [12, 4, fixture_weights.dim]),
        ("delta.b", [12, 4]),
        ("fusion.w", [8, 48, kernel, kernel]),
        ("fusion.b", [8]),
    ]
    assert set(manifest["meta"]) == {"dim", "train_config"}
    assert manifest["meta"]["train_config"]["fusion_kernel"] == kernel


def test_loss_curve_bytes(tmp_path):
    # a header, then each loss as its float repr, every line ended in CRLF
    curve = [(0, 0.25), (1, np.float64(0.1)), (2, 1e-05)]
    path = write_loss_curve(tmp_path / "c.csv", curve)
    assert path.read_bytes() == b"iteration,div\r\n0,0.25\r\n1,0.1\r\n2,1e-05\r\n"
    assert write_loss_curve(tmp_path / "empty.csv", []).read_bytes() == b"iteration,div\r\n"


def test_loss_replay_from_checkpoint(tmp_path, fixture_weights, fixture_static):
    # the checkpoint of a k-iteration run holds the adapter that iteration
    # k of a longer run starts from, so its loss replays that curve's row k
    cfg = small_config(iterations=4)
    train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path, {})
    curve = dict(read_loss_curve(tmp_path / "loss_curve.csv"))
    for k in (0, 2):
        out_dir = tmp_path / f"run{k}"
        train_loop(fixture_static, fixture_weights.dim, small_config(iterations=k), out_dir, {})
        adapter = load_checkpoint(out_dir / f"checkpoint_{k:06d}.json", fixture_weights.dim, cfg.calibration())
        work = np.empty(sum(t.size for t in adapter.tensors.values()))
        div = training_eval._iteration_loss(fixture_static, k, cfg, adapter, work)[0]
        assert div == pytest.approx(curve[k], abs=1e-5)


def test_train_loop_with_pair_subsampling(tmp_path, fixture_weights, fixture_static):
    cfg = small_config(iterations=2, pair_sample_limit=10)
    a1 = train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path / "1", {})
    a2 = train_loop(fixture_static, fixture_weights.dim, cfg, tmp_path / "2", {})
    assert read_loss_curve(tmp_path / "1" / "loss_curve.csv") == read_loss_curve(tmp_path / "2" / "loss_curve.csv")
    for a, b in zip(a1.tensors.values(), a2.tensors.values()):
        assert np.array_equal(a, b)


def test_train_loop_runs_one_static_pass_per_image(
    monkeypatch, tmp_path, fixture_weights, fixture_bank, fixture_dataset, fixture_static
):
    # the static results depend only on frozen inputs: run_static_passes
    # encodes each image once, in dataset order, through stacked passes;
    # 17 iterations over 32 images in batches of 4 (two full epochs and one
    # more iteration) then train on those results without a single encoder call
    calls = []
    real = encoder.encode_stack

    def counting(images, weights, calibration, relations=None, prefixes=None):
        calls.extend(image.tobytes() for image in images)
        return real(images, weights, calibration, relations, prefixes)

    monkeypatch.setattr(encoder, "encode_stack", counting)
    cfg = small_config(iterations=17, batch_size=4)
    static = static_calibration.run_static_passes(
        fixture_dataset.images, fixture_weights, fixture_bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
    )
    assert len(fixture_dataset.images) == 32
    assert calls == [rec.image.tobytes() for rec in fixture_dataset.images]
    for got, want in zip(static, fixture_static):
        assert np.array_equal(got.cams.maps, want.cams.maps) and np.array_equal(got.labels, want.labels)

    def refuse(*args, **kwargs):
        raise AssertionError("training encoded an image")

    for module in (encoder, static_calibration, dynamic_calibration, training_eval):
        for name in ("encode", "encode_stack"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    train_loop(static, fixture_weights.dim, cfg, tmp_path, {})
    assert len(read_loss_curve(tmp_path / "loss_curve.csv")) == 17


def test_config_validation_errors():
    with pytest.raises(UsageError):
        small_config(lr=0.0)
    with pytest.raises(UsageError):
        small_config(tau_fg=0.2, tau_bg=0.5)
    with pytest.raises(UsageError):
        small_config(fusion_kernel=2)
    with pytest.raises(UsageError):
        small_config(calib_weights=(1, 1))
    small_config()
