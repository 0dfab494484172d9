"""Learnable visual calibration: adapter, relation bias, diversity loss.

The adapter projects each frozen layer feature through its own affine map,
concatenates the twelve projections channel-wise, and fuses them with a
convolution over the token grid into dynamic features. Token relations
derived from those features are masked at zero and added (row-softmaxed)
as a bias to the calibrated attention maps. The diversity loss supervises
the dynamic features with pixel-pair affinities from the static pseudo
labels; its gradients are written out by hand and checked against central
finite differences in the test suite.

Gradients flow only into adapter parameters: the encoder trace is frozen
and the pseudo-label targets are fixed, never differentiated through.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .encoder import LAYER_COUNT, Calibration, EncoderWeights, LayerTrace, chunks, encode_stack
from .errors import DataError, NumericError, UsageError
from .numerics import Rng
from .static_calibration import IGNORE_LABEL, CamResult, PseudoLabelMap, cam_result


def delta_names(layer: int) -> tuple[str, str]:
    """The (weight, bias) tensor names of layer `layer`'s projection."""
    return f"delta.{layer:02d}.w", f"delta.{layer:02d}.b"


def adapter_shapes(dim: int, d_proj: int, d_dyn: int, kernel: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable adapter tensor, in file order: per
    layer a (d_proj, dim) weight and a (d_proj,) bias, then `fusion.w`
    (the 1x1 kernel kept flat) and the (d_dyn,) `fusion.b`."""
    shapes = {}
    for layer in range(LAYER_COUNT):
        w, b = delta_names(layer)
        shapes[w], shapes[b] = (d_proj, dim), (d_proj,)
    channels = LAYER_COUNT * d_proj
    shapes["fusion.w"] = (d_dyn, channels) if kernel == 1 else (d_dyn, channels, kernel, kernel)
    shapes["fusion.b"] = (d_dyn,)
    return shapes


@dataclass
class AdapterParams:
    tensors: dict[str, np.ndarray]  # adapter_shapes order
    alpha: float
    beta: float

    @property
    def kernel(self) -> int:
        """Fusion kernel size, read from the shape of `fusion.w`."""
        w = self.tensors["fusion.w"]
        return 1 if w.ndim == 2 else w.shape[-1]

    def fusion_kernel64(self) -> np.ndarray:
        """`fusion.w` as a float64 (D_d, 12*d_proj, k, k) kernel, whichever
        of its two stored shapes it has."""
        w, k = self.tensors["fusion.w"], self.kernel
        return w.astype(np.float64, copy=False).reshape(w.shape[0], w.shape[1], k, k)

    def as_float64(self) -> "AdapterParams":
        """The same adapter with float64 copies of its tensors, which the
        float64 forward and gradient then read without converting."""
        return AdapterParams({k: v.astype(np.float64) for k, v in self.tensors.items()}, self.alpha, self.beta)


def init_adapter(
    rng: Rng,
    dim: int,
    d_proj: int,
    d_dyn: int,
    fusion_kernel: int,
    sigma: float,
    alpha: float,
    beta: float,
) -> AdapterParams:
    """Delta biases start at zero; every other tensor is drawn N(0, sigma^2)
    in table order."""
    if fusion_kernel not in (1, 3):
        raise UsageError(f"fusion kernel must be 1 or 3, got {fusion_kernel}")
    if alpha <= 0:
        raise UsageError(f"scaling factor must be positive, got {alpha}")
    gen = rng.generator()
    # a nonzero fusion bias keeps the dynamic features away from the zero
    # column degeneracy while the weights are still tiny
    zero = {delta_names(layer)[1] for layer in range(LAYER_COUNT)}
    tensors = {}
    for name, shape in adapter_shapes(dim, d_proj, d_dyn, fusion_kernel).items():
        draw = np.zeros(shape) if name in zero else sigma * gen.standard_normal(shape)
        tensors[name] = draw.astype(np.float32)
    return AdapterParams(tensors, alpha, beta)


# --------------------------------------------------------------------------
# forward


def _pad_grid(zcat: np.ndarray, grid, pad: int) -> np.ndarray:
    """(hw, C) token rows -> the (gh + 2*pad, gw + 2*pad, C) zero-padded grid."""
    gh, gw = grid
    zpad = np.zeros((gh + 2 * pad, gw + 2 * pad, zcat.shape[1]), dtype=np.float64)
    zpad[pad : pad + gh, pad : pad + gw] = zcat.reshape(gh, gw, -1)
    return zpad


def _taps(grid, kernel: int):
    """(dy, dx, window) for each tap of a size-preserving kernel x kernel
    convolution: `window` selects the padded-grid tokens that tap reads."""
    gh, gw = grid
    return [(dy, dx, (slice(dy, dy + gh), slice(dx, dx + gw))) for dy in range(kernel) for dx in range(kernel)]


def _fusion_forward(zpad: np.ndarray, params: AdapterParams, grid) -> np.ndarray:
    """Padded (.., .., 12*d_proj) float64 grid -> (hw, D_d) float64: the
    fusion convolution, one float64 product per kernel tap."""
    w = params.fusion_kernel64()
    hw = grid[0] * grid[1]
    out = sum(zpad[win].reshape(hw, -1) @ w[:, :, dy, dx].T for dy, dx, win in _taps(grid, params.kernel))
    return out + params.tensors["fusion.b"].astype(np.float64, copy=False)


def _adapter_forward64(trace: LayerTrace, params: AdapterParams):
    """Float64 adapter forward; returns (features (hw, D_d), the padded
    projection grid the fusion reads, layer inputs)."""
    if len(trace.features) != LAYER_COUNT:
        raise DataError(f"trace has {len(trace.features)} layers, expected {LAYER_COUNT}")
    xs = [f[1:].astype(np.float64) for f in trace.features]  # CLS dropped
    zs = []
    for layer, x in enumerate(xs):
        w, b = (params.tensors[name].astype(np.float64, copy=False) for name in delta_names(layer))
        zs.append(x @ w.T + b)
    zpad = _pad_grid(np.concatenate(zs, axis=1), trace.grid, params.kernel // 2)
    return _fusion_forward(zpad, params, trace.grid), zpad, xs


def adapter_forward(trace: LayerTrace, params: AdapterParams) -> np.ndarray:
    """Dynamic features (D_d, hw) fused from the twelve frozen layer features."""
    feats, _, _ = _adapter_forward64(trace, params)
    if not np.isfinite(feats).all():
        raise NumericError("adapter produced non-finite features")
    return np.ascontiguousarray(feats.T.astype(np.float32))


# --------------------------------------------------------------------------
# relations


@dataclass
class RelationMatrix:
    raw: np.ndarray  # (hw, hw) float32
    masked: np.ndarray  # raw where raw >= 0, else -inf


def dynamic_relation(features: np.ndarray, alpha: float, beta: float) -> RelationMatrix:
    """Token relations r = alpha*(cos - beta*mean(cos)) with negatives masked
    to -inf. `features` is (D_d, hw); the mean runs over all hw^2 entries."""
    cos = nm.cosine_matrix(features, features)
    center = cos.astype(np.float64).mean()
    raw = (float(alpha) * (cos.astype(np.float64) - float(beta) * center)).astype(np.float32)
    masked = np.where(raw >= 0, raw, nm.NEG_INF).astype(np.float32)
    return RelationMatrix(raw=raw, masked=masked)


# --------------------------------------------------------------------------
# affinity supervision


@dataclass
class AffinityBatch:
    positive: np.ndarray  # (hw, hw) bool: ordered token pairs with one label
    negative: np.ndarray  # (hw, hw) bool: ordered token pairs with two labels

    def counts(self) -> tuple[int, int]:
        """(positive, negative) pair counts, 1 for an empty term, whose sum is 0."""
        return max(int(self.positive.sum()), 1), max(int(self.negative.sum()), 1)


def build_affinity_batch(
    labels: PseudoLabelMap, sample_limit: int | None = None, rng: Rng | None = None
) -> AffinityBatch:
    """All ordered pairs of non-ignored tokens, split by label agreement.

    The diagonal counts as positive. With `sample_limit` set and exceeded,
    a seeded uniform subsample of that many pairs is drawn over the
    row-major order of the valid pairs.
    """
    flat = np.asarray(labels).reshape(-1)
    valid = flat != IGNORE_LABEL
    if not valid.any():
        raise NumericError("degenerate affinity supervision: every token is ignored")
    pairs = valid[:, None] & valid[None, :]
    if sample_limit is not None and pairs.sum() > sample_limit:
        index = np.flatnonzero(pairs)
        keep = (rng or Rng(0)).generator().permutation(index.size)[:sample_limit]
        pairs = np.zeros_like(pairs)
        pairs.flat[index[keep]] = True
    same = flat[:, None] == flat[None, :]
    return AffinityBatch(positive=pairs & same, negative=pairs & ~same)


def _pair_affinity(feats: np.ndarray):
    """Sigmoid-cosine affinities of (hw, D_d) float64 features.

    Returns (norms, unit features, u) with u = sigmoid(cos), (hw, hw).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", feats, feats))
    if norms.min(initial=np.inf) < 1e-12:
        raise NumericError(f"zero-norm dynamic feature column {int(np.argmin(norms))}")
    fhat = feats / norms[:, None]
    cos = fhat @ fhat.T
    u = 1.0 / (1.0 + np.exp(-cos))
    return norms, fhat, u


def _pair_loss(u: np.ndarray, batch: AffinityBatch) -> float:
    n_pos, n_neg = batch.counts()
    return float((1.0 - u[batch.positive]).sum() / n_pos + u[batch.negative].sum() / n_neg)


def diversity_loss(features: np.ndarray, batch: AffinityBatch) -> float:
    """Affinity loss on sigmoid(cos) token similarities of (D_d, hw) features:
    mean(1 - u) over positive pairs plus mean(u) over negative pairs."""
    feats = nm.as_f32(features, "dynamic features").T.astype(np.float64)
    return _pair_loss(_pair_affinity(feats)[2], batch)


# --------------------------------------------------------------------------
# gradients


def adapter_diversity_loss(trace: LayerTrace, params: AdapterParams, batch: AffinityBatch) -> float:
    """Diversity loss evaluated end-to-end in float64 from the adapter
    parameters. This is the exact function the analytic gradient
    differentiates, which is what a finite-difference probe must call."""
    feats, _, _ = _adapter_forward64(trace, params)
    return _pair_loss(_pair_affinity(feats)[2], batch)


def diversity_loss_gradient(
    trace: LayerTrace, params: AdapterParams, batch: AffinityBatch
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value plus exact reverse-mode gradients for every adapter
    tensor, keyed like `params.tensors`."""
    feats, zpad, xs = _adapter_forward64(trace, params)
    hw = feats.shape[0]
    norms, fhat, u = _pair_affinity(feats)
    loss = _pair_loss(u, batch)

    n_pos, n_neg = batch.counts()
    g_u = np.where(batch.positive, -1.0 / n_pos, np.where(batch.negative, 1.0 / n_neg, 0.0))
    g_cos = g_u * u * (1.0 - u)
    g_fhat = (g_cos + g_cos.T) @ fhat
    # project through the normalization: d(f/|f|) kills the radial component
    radial = np.einsum("ij,ij->i", g_fhat, fhat)
    g_feats = (g_fhat - radial[:, None] * fhat) / norms[:, None]

    # the fusion convolution's transpose, tap by tap
    gh, gw = trace.grid
    pad = params.kernel // 2
    w = params.fusion_kernel64()
    g_w = np.empty_like(w)
    g_zpad = np.zeros_like(zpad)
    for dy, dx, win in _taps(trace.grid, params.kernel):
        g_w[:, :, dy, dx] = g_feats.T @ zpad[win].reshape(hw, -1)
        g_zpad[win] += (g_feats @ w[:, :, dy, dx]).reshape(gh, gw, -1)
    grads = {"fusion.w": g_w.reshape(params.tensors["fusion.w"].shape), "fusion.b": g_feats.sum(axis=0)}
    g_zcat = g_zpad[pad : pad + gh, pad : pad + gw].reshape(hw, -1)
    for layer, (x, g_z) in enumerate(zip(xs, np.split(g_zcat, LAYER_COUNT, axis=1))):
        w_name, b_name = delta_names(layer)
        grads[w_name] = g_z.T @ x
        grads[b_name] = g_z.sum(axis=0)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for adapter parameter '{name}'")
    return loss, grads


# --------------------------------------------------------------------------
# dynamic CAM generation


def biased_calibration(trace: LayerTrace, params: AdapterParams) -> Calibration:
    """The calibration `trace` records plus the masked relation of the
    adapter run over `trace`: the attention of a biased re-encode."""
    relation = dynamic_relation(adapter_forward(trace, params), params.alpha, params.beta)
    return replace(trace.calibration, relation=relation.masked)


def dynamic_cams(
    images: list[np.ndarray],
    weights: EncoderWeights,
    params: AdapterParams,
    bank,
    presents: list[list[int]],
    tau_fg: float,
    tau_bg: float,
    static_traces: list[LayerTrace],
) -> list[CamResult]:
    """Re-encode each image with its relation bias added and refine
    dynamic CAMs, in order, one stacked pass per `encoder.chunks` chunk.

    `static_traces[i]` is the calibrated pass of `images[i]`. Its biased
    re-encode runs under its `biased_calibration`, resuming from the trace
    below the first calibrated layer. The biased traces are not kept.
    """
    results = []
    for part in chunks(len(images), weights):
        prefixes = static_traces[part]
        calibrations = [biased_calibration(trace, params) for trace in prefixes]
        traces = encode_stack(images[part], weights, calibrations, prefixes=prefixes)
        for trace, present in zip(traces, presents[part]):
            results.append(replace(cam_result(trace, bank, present, tau_fg, tau_bg), trace=None))
    return results


def dynamic_cam(
    image: np.ndarray,
    weights: EncoderWeights,
    params: AdapterParams,
    bank,
    present: list[int],
    tau_fg: float,
    tau_bg: float,
    static_trace: LayerTrace,
) -> CamResult:
    """`dynamic_cams` of one image."""
    return dynamic_cams([image], weights, params, bank, [present], tau_fg, tau_bg, [static_trace])[0]
