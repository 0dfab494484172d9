"""Adapter training on the diversity loss, AdamW, checkpoints, metrics
and reports.

Training touches only the relation adapter; encoder weights are never
written.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .blobio import is_finite_number, is_positive_int, load_tensors, save_tensors, write_file
from .config import PATH_KEYS, PipelineConfig
from .dynamic_calibration import (
    AdapterParams,
    adapter_shapes,
    build_affinity_batch,
    diversity_loss_gradient_stack,
    flat_views,
    init_adapter,
)
from .encoder import LAYER_COUNT, Calibration, EncoderWeights, encode_stack, layer_attention
from .errors import DataError, NumericError, ShapeError, UsageError
from .numerics import Rng
from .static_calibration import IGNORE_LABEL, CamResult


# --------------------------------------------------------------------------
# AdamW


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements an AdamW step updates at a time: its five float64 work
# buffers of this length stay in a 2 MB L2 cache.
ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """AdamW over one flat float32 parameter vector laid out as `shapes`,
    in order: the learning rate, the weights' decay factor, fixed for a
    run, and the float32 moments."""

    shapes: dict[str, tuple[int, ...]]
    lr: float
    shrink: float  # 1 - lr*weight_decay; biases are not decayed
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def bias_ranges(self) -> list[tuple[int, int]]:
        """The (start, stop) of each bias (a name ending '.b') in the flat vector."""
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        ends = np.cumsum(sizes).tolist()
        return [(end - size, end) for name, size, end in zip(self.shapes, sizes, ends) if name.endswith(".b")]


def init_adam_state(shapes: dict[str, tuple[int, ...]], lr: float, weight_decay: float) -> AdamState:
    """Zero moments for flat parameters laid out as `shapes`. Decay
    multiplies weights by (1 - lr*weight_decay) and skips biases (names
    ending '.b')."""
    lr, wd = float(lr), float(weight_decay)
    size = sum(math.prod(shape) for shape in shapes.values())
    return AdamState(shapes, lr, 1 - lr * wd, np.zeros(size, np.float32), np.zeros(size, np.float32))


def _name_at(shapes: dict[str, tuple[int, ...]], index: int) -> str:
    """The tensor holding element `index` of a flat vector laid out as `shapes`."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    return list(shapes)[int(np.searchsorted(ends, index, side="right"))]


def adamw_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One decoupled-weight-decay Adam update of the flat float32 `params`
    and `state`, in place, from the flat `grads`, which stay as they are.

    Moments are bias-corrected; math runs in float64 over ADAM_BLOCK
    elements at a time, storage stays float32. A parameter or moment not
    finite as float32 raises NumericError naming its parameter, with the
    blocks up to it updated.
    """
    if not grads.shape == params.shape == state.m.shape:
        raise DataError(
            f"AdamW needs gradients, parameters and moments of one shape, got {grads.shape}, {params.shape} "
            f"and {state.m.shape}"
        )
    t = state.step + 1
    f64 = np.float64
    biases = state.bias_ranges()
    buffers = np.empty((5, min(ADAM_BLOCK, params.size)))
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g = grads[block]
        p, m, v, work, denom = buffers[:, : g.size]
        # each line is one float64 operation of m*b1 + (1-b1)*g, v*b2 +
        # (1-b2)*g*g and p*(1 - lr*decay) - lr*m_hat / (sqrt(v_hat) + eps),
        # in order; the float32 operands are widened as they are read
        np.multiply(g, 1 - ADAM_BETA1, out=work, dtype=f64)
        np.multiply(state.m[block], ADAM_BETA1, out=m, dtype=f64)
        m += work
        np.multiply(g, 1 - ADAM_BETA2, out=work, dtype=f64)
        np.multiply(work, g, out=work, dtype=f64)
        np.multiply(state.v[block], ADAM_BETA2, out=v, dtype=f64)
        v += work
        np.divide(m, 1 - ADAM_BETA1**t, out=work)  # m_hat
        np.divide(v, 1 - ADAM_BETA2**t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        work *= state.lr
        work /= denom
        np.multiply(params[block], state.shrink, out=p, dtype=f64)
        # a bias is not decayed: its widened value, as a factor of 1.0 gives
        for lo, hi in biases:
            lo, hi = max(lo, start), min(hi, start + g.size)
            if lo < hi:
                p[lo - start : hi - start] = params[lo:hi]
        p -= work
        with np.errstate(over="ignore"):  # a value past the float32 range stores as inf, refused below
            params[block], state.m[block], state.v[block] = p, m, v
        finite = np.isfinite(params[block]) & np.isfinite(state.m[block]) & np.isfinite(state.v[block])
        if not finite.all():
            first = start + int(np.argmin(finite))
            raise NumericError(f"non-finite update for parameter '{_name_at(state.shapes, first)}'")
    state.step = t


# --------------------------------------------------------------------------
# checkpoints


def checkpoint_path(out_dir, iteration: int) -> Path:
    """Where training into `out_dir` writes the adapter after `iteration` steps."""
    return Path(out_dir) / f"checkpoint_{iteration:06d}.json"


def save_checkpoint(path, adapter: AdapterParams, meta: dict, provenance=None) -> Path:
    """One tensor file: the adapter tensors, in table order under the
    `adapter.` prefix, plus its relation settings."""
    tensors = {f"adapter.{k}": v for k, v in adapter.tensors.items()}
    full_meta = {**meta, "alpha": adapter.alpha, "beta": adapter.beta, "fusion_kernel": adapter.kernel}
    return save_tensors(path, tensors, meta=full_meta, provenance=provenance)


def load_checkpoint(path, dim: int):
    """Returns (adapter, meta) for an adapter that reads `dim`-wide
    encoder features. The meta `alpha` must be positive, as in the
    config, and the meta `dim` must equal `dim`. Every tensor must have
    its `adapter_shapes` shape for the meta `fusion_kernel` and the widths
    of `delta.00.w` and `fusion.w`. Tensors other than `adapter.*`, such
    as the segmentation-head pair older checkpoints carry, are ignored,
    and so is the optimizer sidecar file they were written with."""
    tf = load_tensors(path)
    alpha = float(tf.meta_value("alpha", lambda a: is_finite_number(a) and a > 0, "a finite number > 0"))
    beta = float(tf.meta_value("beta", is_finite_number, "a finite number"))
    kernel = tf.meta_value("fusion_kernel", lambda k: type(k) is int and k in (1, 3), "1 or 3")
    width = tf.meta_value("dim", is_positive_int, "a positive integer")
    if width != dim:
        raise DataError(f"checkpoint {tf.path} adapts {width}-dim encoder features, the weights have dim {dim}")

    def leading(name):
        shape = tf.require(f"adapter.{name}").shape
        if not shape:
            raise ShapeError(f"tensor 'adapter.{name}' in {tf.path} is a scalar")
        return shape[0]

    shapes = adapter_shapes(dim, leading("delta.00.w"), leading("fusion.w"), kernel)
    tensors = {name: tf.require(f"adapter.{name}", shape) for name, shape in shapes.items()}
    return AdapterParams(tensors, alpha, beta), tf.meta


def check_trained_calibration(path, meta: dict, asked: Calibration, asker: str):
    """Checks that the checkpoint at `path`, whose meta is `meta`, was
    trained under `asked`, the calibration `asker` sets: the
    `calib_layers` and `calib_weights` of its meta `train_config`. A
    DataError naming `path` when either is absent, of the wrong type or
    out of range; a UsageError naming `path` and both settings when they
    differ from `asked`."""
    settings = meta.get("train_config")
    settings = settings if isinstance(settings, dict) else {}
    layers, weights = settings.get("calib_layers"), settings.get("calib_weights")
    three_numbers = isinstance(weights, list) and len(weights) == 3 and all(map(is_finite_number, weights))
    if type(layers) is not int or not three_numbers:
        raise DataError(
            f"checkpoint {path} meta 'train_config' must hold an integer 'calib_layers' and a list of "
            f"3 finite 'calib_weights', got {layers!r} and {weights!r}"
        )
    try:
        trained = Calibration(layers=layers, weights=tuple(map(float, weights)))
    except UsageError as exc:
        raise DataError(f"checkpoint {path} meta 'train_config': {exc}") from None
    if trained != asked:
        raise UsageError(
            f"checkpoint {path} was trained with calib_layers {trained.layers} and calib_weights "
            f"{list(trained.weights)}, {asker} asks for {asked.layers} and {list(asked.weights)}"
        )


# --------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    adapter: AdapterParams
    curve: list[tuple[int, float]]  # (iteration, mean diversity loss)


def _iteration_loss(
    static: list[CamResult],
    iteration: int,
    config: PipelineConfig,
    adapter: AdapterParams,
    work: np.ndarray,
):
    """Mean diversity loss and mean gradient, one flat float64 vector in
    table order, over `iteration`'s batch: `batch_size` consecutive
    images, wrapping around the dataset, in one stacked pass. The
    per-image gradients are summed in batch order from zero.

    `work`, a (2, P) float64 array for an adapter of P elements, holds the
    float64 copy of the adapter (row 0) and the gradient (row 1), which is
    returned; both are written over."""
    rng = Rng(config.seed).child(f"it.{iteration}")
    n = config.batch_size
    picked = [static[(iteration * n + j) % len(static)] for j in range(n)]
    batches = [
        build_affinity_batch(sres.labels, sample_limit=config.pair_sample_limit, rng=rng.child(f"pairs.{j}"))
        for j, sres in enumerate(picked)
    ]
    flat, grad = work
    # converted once, read by the whole stack
    np.concatenate([t.ravel() for t in adapter.tensors.values()], out=flat)
    adapter = AdapterParams(flat_views(flat, adapter.shapes), adapter.alpha, adapter.beta)
    grad.fill(0.0)
    losses = diversity_loss_gradient_stack(
        [sres.trace for sres in picked], adapter, batches, flat_views(grad, adapter.shapes)
    )
    div_sum = 0.0
    for div in losses:
        div_sum += div
    grad /= n
    return div_sum / n, grad


def train_loop(
    static: list[CamResult],
    dim: int,
    config: PipelineConfig,
    out_dir,
    provenance: dict,
) -> TrainResult:
    """Seeded single-writer optimization of the adapter on the diversity loss.

    `static` holds each image's calibrated pass (`run_static_passes`
    under `config.calibration()`, traces kept), in dataset order; `dim` is
    the encoder width. Training makes no encoder call. Per iteration:
    affinity pairs from the static labels, the diversity loss and its
    gradient on the static traces, one AdamW step on the mean batch
    gradients. Writes the checkpoints, stamped with `provenance`, and the
    loss-curve CSV into `out_dir`; the final checkpoint, the stage's resume
    key, lands last.
    """
    adapter = init_adapter(
        Rng(config.seed).child("adapter"),
        dim,
        d_proj=config.d_proj,
        d_dyn=config.d_dyn,
        fusion_kernel=config.fusion_kernel,
        sigma=config.adapter_init_sigma,
        alpha=config.alpha,
        beta=config.beta,
    )
    # the parameters and both moments are flat float32 vectors; the adapter's tensors are views of `theta`
    theta, adapter = adapter.flattened()
    state = init_adam_state(adapter.shapes, config.lr, config.weight_decay)
    work = np.empty((2, theta.size))  # each iteration's float64 adapter and gradient
    out_dir = Path(out_dir)
    curve: list[tuple[int, float]] = []
    # the settings the adapter was trained with: not the run's paths, nor the exported static stage's policy
    settings = {k: v for k, v in config.to_dict().items() if k not in (*PATH_KEYS, "policy")}
    meta = {"train_config": settings, "dim": dim}
    for it in range(config.iterations):
        if config.checkpoint_every and it % config.checkpoint_every == 0:
            save_checkpoint(checkpoint_path(out_dir, it), adapter, {**meta, "iteration": it}, provenance=provenance)
        div_mean, grad = _iteration_loss(static, it, config, adapter, work)
        curve.append((it, div_mean))
        if not math.isfinite(div_mean) or div_mean > config.divergence_threshold:
            raise NumericError(f"training diverged at iteration {it}: diversity loss {div_mean:.3f}")
        adamw_step(theta, grad, state)
    write_loss_curve(out_dir / "loss_curve.csv", curve)
    final = config.iterations
    save_checkpoint(checkpoint_path(out_dir, final), adapter, {**meta, "iteration": final}, provenance=provenance)
    return TrainResult(adapter=adapter, curve=curve)


def write_loss_curve(path, curve) -> Path:
    """The header `iteration,div`, then one row per (iteration, loss) with
    the loss as `repr(float)`; every line ends in CRLF, as `csv.writer`
    ends it."""
    lines = ["iteration,div", *(f"{it},{float(div)!r}" for it, div in curve)]
    return write_file(path, "".join(line + "\r\n" for line in lines).encode("ascii"))


# --------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    per_class_iou: dict[int, float]
    miou: float
    macro_precision: float
    macro_recall: float
    confusion: np.ndarray  # (L, L+1); last column counts pred-ignore
    classes_evaluated: list[int]

    def to_dict(self) -> dict:
        return {
            "per_class_iou": {str(k): v for k, v in self.per_class_iou.items()},
            "miou": self.miou,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "classes_evaluated": self.classes_evaluated,
            "confusion": self.confusion.astype(int).tolist(),
        }


def evaluate(preds, gts, num_labels: int) -> EvalReport:
    """Confusion-matrix metrics over aligned prediction/ground-truth maps.

    Ignored ground-truth pixels (255) are excluded everywhere. A predicted
    255 matches no class: it can only produce false negatives. IoU, then
    macro precision/recall, are averaged over the classes present in
    ground truth or prediction.
    """
    if len(preds) != len(gts):
        raise DataError(f"{len(preds)} predictions vs {len(gts)} ground-truth maps")
    conf = np.zeros((num_labels, num_labels + 1), dtype=np.int64)
    for pred, gt in zip(preds, gts):
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise DataError(f"prediction shape {pred.shape} != ground truth {gt.shape}")
        keep = gt != IGNORE_LABEL
        p = pred[keep].astype(np.int64)
        g = gt[keep].astype(np.int64)
        if g.size and g.max() >= num_labels:
            raise DataError(f"ground-truth label {int(g.max())} outside 0..{num_labels - 1}")
        if p.size and p[p != IGNORE_LABEL].max(initial=0) >= num_labels:
            raise DataError(f"prediction label outside 0..{num_labels - 1}")
        p = np.where(p == IGNORE_LABEL, num_labels, p)
        np.add.at(conf, (g, p), 1)
    gt_present = conf.sum(axis=1) > 0
    pred_present = conf[:, :num_labels].sum(axis=0) > 0
    union = np.nonzero(gt_present | pred_present)[0]
    per_class = {}
    precisions, recalls = [], []
    for c in union:
        tp = conf[c, c]
        fp = conf[:, c].sum() - tp
        fn = conf[c, :].sum() - tp
        per_class[int(c)] = float(tp / (tp + fp + fn))
        if tp + fp > 0:
            precisions.append(tp / (tp + fp))
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    miou = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalReport(
        per_class_iou=per_class,
        miou=miou,
        macro_precision=float(np.mean(precisions)) if precisions else 0.0,
        macro_recall=float(np.mean(recalls)) if recalls else 0.0,
        confusion=conf,
        classes_evaluated=[int(c) for c in union],
    )


def report_text(report: EvalReport, class_names=None) -> str:
    lines = ["class                     iou"]
    for cid, iou in sorted(report.per_class_iou.items()):
        name = class_names[cid] if class_names and cid < len(class_names) else str(cid)
        lines.append(f"{name:<22}{iou:>9.4f}")
    lines.append(f"{'mIoU':<22}{report.miou:>9.4f}")
    lines.append(f"{'macro precision':<22}{report.macro_precision:>9.4f}")
    lines.append(f"{'macro recall':<22}{report.macro_recall:>9.4f}")
    return "\n".join(lines) + "\n"


def upsample_labels(labels: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsample of a token-grid label map."""
    return np.repeat(np.repeat(labels, factor, axis=0), factor, axis=1)


# --------------------------------------------------------------------------
# attention diagnostics


def mean_row_entropy(attention: np.ndarray) -> float:
    """Mean entropy of row-normalized attention over heads and rows."""
    a = attention.astype(np.float64)
    if a.ndim == 2:
        a = a[None]
    rows = a / a.sum(axis=2, keepdims=True)
    live = rows > 0
    terms = np.zeros_like(rows)
    terms[live] = -rows[live] * np.log(rows[live])
    return float(terms.sum(axis=2).mean())


def attn_report(image, weights: EncoderWeights, policies: dict) -> dict:
    """Per policy: mean row entropy of last-layer attention plus the
    token-relation (cosine) matrix of the final patch features."""
    if not policies:
        raise UsageError("attention report needs at least one policy")
    out = {}
    for name, policy in policies.items():
        trace = encode_stack([image], weights, [policy])[0]
        dim = trace.patch_features.shape[0]
        flat = trace.patch_features.reshape(dim, -1)
        out[name] = {
            "mean_row_entropy": mean_row_entropy(layer_attention(trace, weights, LAYER_COUNT - 1)),
            "token_relation": nm.cosine_matrix(flat, flat),
        }
    return out
