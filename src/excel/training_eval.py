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
from .blobio import is_positive_int, load_tensors, save_tensors, write_file
from .config import PipelineConfig, parse_config
from .dynamic_calibration import (
    AdapterParams,
    adapter_shapes,
    build_affinity_batch,
    diversity_loss_gradient_stack,
    flat_views,
    init_adapter,
)
from .encoder import LAYER_COUNT, Calibration, EncoderWeights, LayerTrace, layer_attention
from .errors import DataError, NumericError, ShapeError, UsageError
from .numerics import Rng
from .static_calibration import IGNORE_LABEL, CamResult


# --------------------------------------------------------------------------
# AdamW


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    def weight_ranges(self) -> list[slice]:
        """The range of each weight (a name not ending '.b') in the flat vector."""
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        ends = np.cumsum(sizes).tolist()
        return [slice(end - size, end) for name, size, end in zip(self.shapes, sizes, ends) if not name.endswith(".b")]


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

    Moments are bias-corrected. Each operation is one float32 pass over
    the whole vector, in the formula's order; the learning rate scales in
    float64, so a rate past the float32 range still leaves a parameter
    whose moment is zero as it was. A parameter or moment not finite as
    float32 raises NumericError naming its parameter, with every element
    updated.
    """
    if not grads.shape == params.shape == state.m.shape:
        raise DataError(
            f"AdamW needs gradients, parameters and moments of one shape, got {grads.shape}, {params.shape} "
            f"and {state.m.shape}"
        )
    t = state.step + 1
    m, v = state.m, state.v
    work, denom = np.empty_like(params), np.empty_like(params)
    # a value past the float32 range stores as inf, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        # m*b1 + (1-b1)*g, v*b2 + (1-b2)*g*g and p*(1 - lr*decay) - lr*m_hat / (sqrt(v_hat) + eps), in order
        np.multiply(grads, 1 - ADAM_BETA1, out=work)
        m *= ADAM_BETA1
        m += work
        np.multiply(grads, 1 - ADAM_BETA2, out=work)
        work *= grads
        v *= ADAM_BETA2
        v += work
        np.divide(m, 1 - ADAM_BETA1**t, out=work)  # m_hat
        np.divide(v, 1 - ADAM_BETA2**t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.multiply(work, np.float64(state.lr), out=work, casting="same_kind")
        work /= denom
        for weights in state.weight_ranges():  # a bias is not decayed
            params[weights] *= state.shrink
        params -= work
    del work, denom
    if not (np.isfinite(params).all() and np.isfinite(m).all() and np.isfinite(v).all()):
        finite = np.isfinite(params) & np.isfinite(m) & np.isfinite(v)
        raise NumericError(f"non-finite update for parameter '{_name_at(state.shapes, int(np.argmin(finite)))}'")
    state.step = t


# --------------------------------------------------------------------------
# checkpoints


def checkpoint_path(out_dir, iteration: int) -> Path:
    """Where training into `out_dir` writes the adapter after `iteration` steps."""
    return Path(out_dir) / f"checkpoint_{iteration:06d}.json"


def save_checkpoint(path, adapter: AdapterParams, meta: dict, provenance=None) -> Path:
    """One tensor file: the adapter tensors, in table order under their
    own names, and `meta`, which `train_loop` fills with the encoder width
    `dim` and the `train_config` that `load_checkpoint` reads the
    adapter's settings from."""
    return save_tensors(path, adapter.tensors, meta=meta, provenance=provenance)


def load_checkpoint(path, dim: int, calibration: Calibration) -> AdapterParams:
    """The adapter of the checkpoint at `path`, for `dim`-wide encoder
    features and trained under `calibration`. The meta `dim` must equal
    `dim`; the meta `train_config` must hold every config key but the
    paths and pass the config's own checks (a DataError naming the file
    otherwise), and its calibration must be `calibration` (a UsageError
    naming both). Every tensor must have its `adapter_shapes` shape for
    the `d_proj`, `d_dyn` and `fusion_kernel` there, so a checkpoint in
    the older per-layer layout is a MissingTensorError naming `delta.w`.
    Other meta keys and tensors are ignored. A `train_config` holding a
    retired key, as every checkpoint written before the key was retired
    does, is a DataError naming the file and the key."""
    tf = load_tensors(path)
    width = tf.meta_value("dim", is_positive_int, "a positive integer")
    if width != dim:
        raise DataError(f"checkpoint {tf.path} adapts {width}-dim encoder features, the weights have dim {dim}")
    settings = tf.meta_value("train_config", lambda s: isinstance(s, dict), "an object")
    for key in PipelineConfig().settings():
        if key not in settings:
            raise DataError(f"checkpoint {tf.path} meta 'train_config' lacks config key '{key}'")
    try:
        trained = parse_config(settings)
    except UsageError as exc:
        raise DataError(f"checkpoint {tf.path} meta 'train_config': {exc}") from None
    if trained.calibration() != calibration:
        raise UsageError(
            f"checkpoint {tf.path} was trained with calib_layers {trained.calib_layers} and calib_weights "
            f"{list(trained.calib_weights)}, the config asks for {calibration.layers} and {list(calibration.weights)}"
        )
    shapes = adapter_shapes(dim, trained.d_proj, trained.d_dyn, trained.fusion_kernel)
    try:
        tensors = {name: tf.require(name, shape) for name, shape in shapes.items()}
    except ShapeError as exc:
        raise ShapeError(f"{exc} from dim {dim} and the meta 'train_config'") from None
    return AdapterParams(tensors, trained.alpha, trained.beta)


# --------------------------------------------------------------------------
# training loop


MAX_TRAINING_BYTES = 1 << 32  # 4 GiB, as fixtures.MAX_FIXTURE_BYTES


def training_bytes(config: PipelineConfig, dim: int, grid: tuple[int, int]) -> int:
    """The bytes that the sizes of `config` give `train_loop` over the
    traces of a `dim`-wide encoder on a (gh, gw) grid of hw = gh*gw
    patches, with P adapter elements (`adapter_shapes`) and p =
    fusion_kernel // 2:

        29 P + 4 batch_size (12 hw (dim + d_proj) + 24 (gh+2p) (gw+2p) d_proj + 4 hw d_dyn + 6 hw^2)

    that is, the float32 adapter and its two AdamW moments (12 P), the
    float32 gradient (4 P), AdamW's two float32 work vectors and the
    one-byte finiteness mask of its check (9 P), the float32 work buffer of
    the fusion-weight gradient (at most 4 P), and per image of a batch the
    float32 stacks of the adapter's forward and backward passes: the layer
    inputs and their projections, the padded projection grids and their
    gradient, four (hw, d_dyn) feature arrays and six (hw, hw) maps. The
    float64 normal draws that initialize the adapter take at most 16 P."""
    (gh, gw), pad = grid, config.fusion_kernel // 2
    shapes = adapter_shapes(dim, config.d_proj, config.d_dyn, config.fusion_kernel)
    params = sum(math.prod(shape) for shape in shapes.values())
    hw = gh * gw
    padded = (gh + 2 * pad) * (gw + 2 * pad)
    image = LAYER_COUNT * (hw * (dim + config.d_proj) + 2 * padded * config.d_proj) + 4 * hw * config.d_dyn
    image += 6 * hw * hw
    return 29 * params + 4 * config.batch_size * image


def _iteration_loss(
    static: list[CamResult],
    iteration: int,
    config: PipelineConfig,
    adapter: AdapterParams,
    grad: np.ndarray,
):
    """Mean diversity loss and mean gradient over `iteration`'s batch:
    `batch_size` consecutive images, wrapping around the dataset, in one
    stacked pass. The per-image gradients are summed in batch order from
    zero into `grad`, a vector of the adapter's elements in table order in
    the adapter's dtype, which is written over and returned."""
    rng = Rng(config.seed).child(f"it.{iteration}")
    n = config.batch_size
    picked = [static[(iteration * n + j) % len(static)] for j in range(n)]
    batches = [
        build_affinity_batch(sres.labels, sample_limit=config.pair_sample_limit, rng=rng.child(f"pairs.{j}"))
        for j, sres in enumerate(picked)
    ]
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
) -> AdapterParams:
    """Seeded single-writer optimization of the adapter on the diversity loss.

    `static` holds each image's calibrated pass (`run_static_passes`
    under `config.calibration()`, traces kept), in dataset order; `dim` is
    the encoder width. Training makes no encoder call. Per iteration:
    affinity pairs from the static labels, the diversity loss and its
    gradient on the static traces, one AdamW step on the mean batch
    gradients; a non-finite mean loss raises NumericError. Writes the
    loss-curve CSV, then the one checkpoint, stamped with `provenance` and
    the stage's resume key, into `out_dir`. Returns the trained adapter.
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
    grad = np.empty_like(theta)  # each iteration's float32 gradient
    out_dir = Path(out_dir)
    curve: list[tuple[int, float]] = []
    for it in range(config.iterations):
        div_mean, _ = _iteration_loss(static, it, config, adapter, grad)
        curve.append((it, div_mean))
        if not math.isfinite(div_mean):
            raise NumericError(f"training diverged at iteration {it}: diversity loss {div_mean:.3f}")
        adamw_step(theta, grad, state)
    write_loss_curve(out_dir / "loss_curve.csv", curve)
    meta = {"train_config": config.settings(), "dim": dim}
    save_checkpoint(checkpoint_path(out_dir, config.iterations), adapter, meta, provenance=provenance)
    return adapter


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
        conf += np.bincount(g * (num_labels + 1) + p, minlength=conf.size).reshape(conf.shape)
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
    """Mean entropy of row-normalized (H, T, T) attention over heads and rows."""
    rows = attention.astype(np.float64)
    rows /= rows.sum(axis=2, keepdims=True)
    live = rows > 0
    terms = np.zeros_like(rows)
    terms[live] = -rows[live] * np.log(rows[live])
    return float(terms.sum(axis=2).mean())


def attn_report(trace: LayerTrace, weights: EncoderWeights) -> dict:
    """The diagnostics of the pass `trace` records, without an encoder
    call: the mean row entropy of its last layer's attention and the
    token-relation (cosine) matrix of its final patch features."""
    dim = trace.patch_features.shape[0]
    flat = trace.patch_features.reshape(dim, -1)
    return {
        "mean_row_entropy": mean_row_entropy(layer_attention(trace, weights, LAYER_COUNT - 1)),
        "token_relation": nm.cosine_matrix(flat, flat),
    }
