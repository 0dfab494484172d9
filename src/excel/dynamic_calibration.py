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

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import LAYER_COUNT, Calibration, EncoderWeights, LayerTrace, encode
from .errors import DataError, NumericError, UsageError
from .numerics import Rng
from .static_calibration import (
    CamStack,
    IGNORE_LABEL,
    PseudoLabelMap,
    cam_to_pseudo_label,
    static_cam,
)


def fusion_shape(d_dyn: int, channels: int, kernel: int) -> tuple[int, ...]:
    """Stored shape of `fusion.w`: the 1x1 kernel is kept flat."""
    return (d_dyn, channels) if kernel == 1 else (d_dyn, channels, kernel, kernel)


@dataclass
class AdapterParams:
    deltas_w: list[np.ndarray]  # 12 x (d_proj, D)
    deltas_b: list[np.ndarray]  # 12 x (d_proj,)
    fusion_w: np.ndarray  # fusion_shape(D_d, 12*d_proj, fusion_kernel)
    fusion_b: np.ndarray  # (D_d,)
    alpha: float
    beta: float
    fusion_kernel: int = 1

    @property
    def d_proj(self) -> int:
        return self.deltas_w[0].shape[0]

    @property
    def d_dyn(self) -> int:
        return self.fusion_b.shape[0]

    def fusion_kernel64(self) -> np.ndarray:
        """`fusion.w` as a float64 (D_d, 12*d_proj, k, k) kernel, whichever
        of its two stored shapes it has."""
        k = self.fusion_kernel
        return self.fusion_w.astype(np.float64).reshape(self.d_dyn, -1, k, k)

    def to_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for i in range(LAYER_COUNT):
            out[f"delta.{i:02d}.w"] = self.deltas_w[i]
            out[f"delta.{i:02d}.b"] = self.deltas_b[i]
        out["fusion.w"] = self.fusion_w
        out["fusion.b"] = self.fusion_b
        return out

    def replace(self, params: dict[str, np.ndarray]) -> "AdapterParams":
        return AdapterParams(
            deltas_w=[params[f"delta.{i:02d}.w"] for i in range(LAYER_COUNT)],
            deltas_b=[params[f"delta.{i:02d}.b"] for i in range(LAYER_COUNT)],
            fusion_w=params["fusion.w"],
            fusion_b=params["fusion.b"],
            alpha=self.alpha,
            beta=self.beta,
            fusion_kernel=self.fusion_kernel,
        )

    def param_count(self) -> int:
        return int(sum(a.size for a in self.to_dict().values()))


def init_adapter(
    rng: Rng,
    dim: int,
    d_proj: int = 64,
    d_dyn: int = 256,
    fusion_kernel: int = 1,
    sigma: float = 0.02,
    alpha: float = 3.0,
    beta: float = 1.0,
) -> AdapterParams:
    if fusion_kernel not in (1, 3):
        raise UsageError(f"fusion kernel must be 1 or 3, got {fusion_kernel}")
    if alpha <= 0:
        raise UsageError(f"scaling factor must be positive, got {alpha}")
    gen = rng.generator()
    deltas_w = [
        (sigma * gen.standard_normal((d_proj, dim))).astype(np.float32)
        for _ in range(LAYER_COUNT)
    ]
    deltas_b = [np.zeros(d_proj, dtype=np.float32) for _ in range(LAYER_COUNT)]
    fusion_w = (
        sigma * gen.standard_normal(fusion_shape(d_dyn, LAYER_COUNT * d_proj, fusion_kernel))
    ).astype(np.float32)
    # a nonzero fusion bias keeps the dynamic features away from the zero
    # column degeneracy while the weights are still tiny
    fusion_b = (sigma * gen.standard_normal(d_dyn)).astype(np.float32)
    return AdapterParams(
        deltas_w=deltas_w,
        deltas_b=deltas_b,
        fusion_w=fusion_w,
        fusion_b=fusion_b,
        alpha=alpha,
        beta=beta,
        fusion_kernel=fusion_kernel,
    )


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
    out = sum(zpad[win].reshape(hw, -1) @ w[:, :, dy, dx].T for dy, dx, win in _taps(grid, params.fusion_kernel))
    return out + params.fusion_b.astype(np.float64)


def _adapter_forward64(trace: LayerTrace, params: AdapterParams):
    """Float64 adapter forward; returns (features (hw, D_d), the padded
    projection grid the fusion reads, layer inputs)."""
    if len(trace.features) != LAYER_COUNT:
        raise DataError(f"trace has {len(trace.features)} layers, expected {LAYER_COUNT}")
    xs = [f[1:].astype(np.float64) for f in trace.features]  # CLS dropped
    zs = [
        x @ params.deltas_w[i].astype(np.float64).T + params.deltas_b[i].astype(np.float64)
        for i, x in enumerate(xs)
    ]
    zpad = _pad_grid(np.concatenate(zs, axis=1), trace.grid, params.fusion_kernel // 2)
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
    positive: np.ndarray  # (P, 2) int32 ordered token-index pairs
    negative: np.ndarray  # (N, 2)


def build_affinity_batch(
    labels: PseudoLabelMap, sample_limit: int | None = None, rng: Rng | None = None
) -> AffinityBatch:
    """All ordered pairs of non-ignored tokens, split by label agreement.

    The diagonal counts as positive. With `sample_limit` set and exceeded,
    a seeded uniform subsample of that many pairs is taken.
    """
    flat = np.asarray(labels).reshape(-1)
    valid = np.nonzero(flat != IGNORE_LABEL)[0].astype(np.int32)
    if valid.size == 0:
        raise NumericError("degenerate affinity supervision: every token is ignored")
    ii = np.repeat(valid, valid.size)
    jj = np.tile(valid, valid.size)
    same = flat[ii] == flat[jj]
    pairs = np.stack([ii, jj], axis=1)
    if sample_limit is not None and pairs.shape[0] > sample_limit:
        gen = (rng or Rng(0)).generator()
        keep = gen.permutation(pairs.shape[0])[:sample_limit]
        keep.sort()
        pairs = pairs[keep]
        same = same[keep]
    return AffinityBatch(positive=pairs[same], negative=pairs[~same])


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
    pos, neg = batch.positive, batch.negative
    loss = 0.0
    if len(pos):
        loss += (1.0 - u[pos[:, 0], pos[:, 1]]).sum() / len(pos)
    if len(neg):
        loss += u[neg[:, 0], neg[:, 1]].sum() / len(neg)
    return float(loss)


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
    parameter, keyed like AdapterParams.to_dict()."""
    feats, zpad, xs = _adapter_forward64(trace, params)
    hw = feats.shape[0]
    norms, fhat, u = _pair_affinity(feats)
    loss = _pair_loss(u, batch)

    pos, neg = batch.positive, batch.negative
    g_u = np.zeros((hw, hw), dtype=np.float64)
    if len(pos):
        np.add.at(g_u, (pos[:, 0], pos[:, 1]), -1.0 / len(pos))
    if len(neg):
        np.add.at(g_u, (neg[:, 0], neg[:, 1]), 1.0 / len(neg))
    g_cos = g_u * u * (1.0 - u)
    g_fhat = (g_cos + g_cos.T) @ fhat
    # project through the normalization: d(f/|f|) kills the radial component
    radial = np.einsum("ij,ij->i", g_fhat, fhat)
    g_feats = (g_fhat - radial[:, None] * fhat) / norms[:, None]

    # the fusion convolution's transpose, tap by tap
    gh, gw = trace.grid
    pad = params.fusion_kernel // 2
    w = params.fusion_kernel64()
    g_w = np.empty_like(w)
    g_zpad = np.zeros_like(zpad)
    for dy, dx, win in _taps(trace.grid, params.fusion_kernel):
        g_w[:, :, dy, dx] = g_feats.T @ zpad[win].reshape(hw, -1)
        g_zpad[win] += (g_feats @ w[:, :, dy, dx]).reshape(gh, gw, -1)
    grads = {"fusion.w": g_w.reshape(params.fusion_w.shape), "fusion.b": g_feats.sum(axis=0)}
    g_zcat = g_zpad[pad : pad + gh, pad : pad + gw].reshape(hw, -1)
    d_proj = params.d_proj
    for i, x in enumerate(xs):
        g_z = g_zcat[:, i * d_proj : (i + 1) * d_proj]
        grads[f"delta.{i:02d}.w"] = g_z.T @ x
        grads[f"delta.{i:02d}.b"] = g_z.sum(axis=0)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for adapter parameter '{name}'")
    return loss, grads


# --------------------------------------------------------------------------
# dynamic CAM generation


@dataclass
class DynamicResult:
    cams: CamStack
    labels: PseudoLabelMap


def dynamic_cam(
    image: np.ndarray,
    weights: EncoderWeights,
    params: AdapterParams,
    bank,
    present: list[int],
    calibration: Calibration,
    tau_fg: float,
    tau_bg: float,
    static_trace: LayerTrace,
) -> DynamicResult:
    """Re-encode with the relation bias added and refine dynamic CAMs.

    `static_trace` is the trace of the same image under `calibration`.
    The relation comes from the adapter run over it; the biased re-encode
    adds that relation to the same calibrated attention, resuming from
    the trace below the first calibrated layer.
    """
    relation = dynamic_relation(adapter_forward(static_trace, params), params.alpha, params.beta)
    biased = dataclasses.replace(calibration, relation=relation.masked)
    trace = encode(image, weights, biased, prefix=static_trace)
    cams = static_cam(trace.patch_features, bank, present)
    return DynamicResult(cams=cams, labels=cam_to_pseudo_label(cams, tau_fg, tau_bg))
