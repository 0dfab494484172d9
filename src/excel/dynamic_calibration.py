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


@dataclass
class AdapterParams:
    deltas_w: list[np.ndarray]  # 12 x (d_proj, D)
    deltas_b: list[np.ndarray]  # 12 x (d_proj,)
    fusion_w: np.ndarray  # (D_d, 12*d_proj) or (D_d, 12*d_proj, 3, 3)
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
    if fusion_kernel == 1:
        fusion_w = (sigma * gen.standard_normal((d_dyn, LAYER_COUNT * d_proj))).astype(np.float32)
    else:
        fusion_w = (
            sigma * gen.standard_normal((d_dyn, LAYER_COUNT * d_proj, 3, 3))
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


def _fusion_forward(zcat: np.ndarray, params: AdapterParams, grid) -> np.ndarray:
    """(hw, 12*d_proj) float64 -> (hw, D_d) float64."""
    w = params.fusion_w.astype(np.float64)
    b = params.fusion_b.astype(np.float64)
    if params.fusion_kernel == 1:
        return zcat @ w.T + b
    gh, gw = grid
    cin = zcat.shape[1]
    zgrid = zcat.reshape(gh, gw, cin)
    zpad = np.zeros((gh + 2, gw + 2, cin), dtype=np.float64)
    zpad[1:-1, 1:-1] = zgrid
    out = np.empty((gh, gw, w.shape[0]), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            patch = zpad[dy : dy + gh, dx : dx + gw]  # (gh, gw, cin)
            if dy == 0 and dx == 0:
                out = np.einsum("yxi,oi->yxo", patch, w[:, :, dy, dx])
            else:
                out += np.einsum("yxi,oi->yxo", patch, w[:, :, dy, dx])
    return out.reshape(gh * gw, -1) + b


def _adapter_forward64(trace: LayerTrace, params: AdapterParams):
    """Float64 adapter forward; returns (features (hw, D_d), zcat, layer inputs)."""
    if len(trace.features) != LAYER_COUNT:
        raise DataError(f"trace has {len(trace.features)} layers, expected {LAYER_COUNT}")
    xs = [f[1:].astype(np.float64) for f in trace.features]  # CLS dropped
    zs = [
        x @ params.deltas_w[i].astype(np.float64).T + params.deltas_b[i].astype(np.float64)
        for i, x in enumerate(xs)
    ]
    zcat = np.concatenate(zs, axis=1)
    feats = _fusion_forward(zcat, params, trace.grid)
    return feats, zcat, xs


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
    feats, zcat, xs = _adapter_forward64(trace, params)
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

    grads: dict[str, np.ndarray] = {}
    w = params.fusion_w.astype(np.float64)
    if params.fusion_kernel == 1:
        grads["fusion.w"] = g_feats.T @ zcat
        grads["fusion.b"] = g_feats.sum(axis=0)
        g_zcat = g_feats @ w
    else:
        gh, gw = trace.grid
        cin = zcat.shape[1]
        zpad = np.zeros((gh + 2, gw + 2, cin), dtype=np.float64)
        zpad[1:-1, 1:-1] = zcat.reshape(gh, gw, cin)
        g_out = g_feats.reshape(gh, gw, -1)
        g_w = np.zeros_like(w)
        g_zpad = np.zeros_like(zpad)
        for dy in range(3):
            for dx in range(3):
                patch = zpad[dy : dy + gh, dx : dx + gw]
                g_w[:, :, dy, dx] = np.einsum("yxo,yxi->oi", g_out, patch)
                g_zpad[dy : dy + gh, dx : dx + gw] += np.einsum(
                    "yxo,oi->yxi", g_out, w[:, :, dy, dx]
                )
        grads["fusion.w"] = g_w
        grads["fusion.b"] = g_out.sum(axis=(0, 1))
        g_zcat = g_zpad[1:-1, 1:-1].reshape(gh * gw, cin)
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
    static_trace: LayerTrace | None = None,
) -> DynamicResult:
    """Re-encode with the relation bias added and refine dynamic CAMs.

    The relation comes from the adapter run over the trace of the same
    image under `calibration` (computed here when not supplied); the
    biased re-encode adds it to that same calibrated attention, resuming
    from that trace below the first calibrated layer.
    """
    if static_trace is None:
        static_trace = encode(image, weights, calibration)
    relation = dynamic_relation(adapter_forward(static_trace, params), params.alpha, params.beta)
    biased = dataclasses.replace(calibration, relation=relation.masked)
    trace = encode(image, weights, biased, prefix=static_trace)
    cams = static_cam(trace.patch_features, bank, present)
    return DynamicResult(cams=cams, labels=cam_to_pseudo_label(cams, tau_fg, tau_bg))
