"""Learnable visual calibration: adapter, relation bias, diversity loss.

The adapter projects each frozen layer feature through its own affine map,
concatenates the twelve projections channel-wise, and fuses them with a
convolution over the token grid into dynamic features. Token relations
derived from those features are masked at zero and added (row-softmaxed)
as a bias to the calibrated attention maps. The diversity loss supervises
the dynamic features with pixel-pair affinities from the static pseudo
labels; its gradients are written out by hand and checked against central
finite differences in the test suite. The forward and backward passes run
in the dtype of the adapter's tensors: float32 for the adapter the
pipeline trains and loads, float64 for the copy a finite-difference
check takes.

Gradients flow only into adapter parameters: the encoder trace is frozen
and the pseudo-label targets are fixed, never differentiated through.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import LAYER_COUNT, EncoderWeights, LayerTrace
from .errors import DataError, NumericError, UsageError
from .numerics import Rng
from .static_calibration import IGNORE_LABEL, CamResult, PseudoLabelMap, run_static_passes


def adapter_shapes(dim: int, d_proj: int, d_dyn: int, kernel: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable adapter tensor, in file order: the
    twelve layers' (d_proj, dim) projection weights and (d_proj,) biases,
    stacked by layer, then the (d_dyn, 12*d_proj, k, k) fusion kernel and
    its (d_dyn,) bias."""
    return {
        "delta.w": (LAYER_COUNT, d_proj, dim),
        "delta.b": (LAYER_COUNT, d_proj),
        "fusion.w": (d_dyn, LAYER_COUNT * d_proj, kernel, kernel),
        "fusion.b": (d_dyn,),
    }


def flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> view of the consecutive run of the 1-D `flat` that holds
    that tensor, shaped as `shapes` says, in its order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


@dataclass
class AdapterParams:
    tensors: dict[str, np.ndarray]  # adapter_shapes order
    alpha: float
    beta: float

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: t.shape for name, t in self.tensors.items()}

    @property
    def kernel(self) -> int:
        """Fusion kernel size, the last axis of `fusion.w`."""
        return self.tensors["fusion.w"].shape[-1]

    def flattened(self) -> tuple[np.ndarray, "AdapterParams"]:
        """One float32 vector holding the tensors in table order, and the
        same adapter with views of that vector as its tensors."""
        flat = np.concatenate([t.ravel() for t in self.tensors.values()], dtype=np.float32)
        return flat, AdapterParams(flat_views(flat, self.shapes), self.alpha, self.beta)


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
    tensors = {}
    for name, shape in adapter_shapes(dim, d_proj, d_dyn, fusion_kernel).items():
        draw = np.zeros(shape) if name == "delta.b" else sigma * gen.standard_normal(shape)
        tensors[name] = draw.astype(np.float32)
    return AdapterParams(tensors, alpha, beta)


# --------------------------------------------------------------------------
# forward


def _taps(grid, kernel: int):
    """(dy, dx, window) for each tap of a size-preserving kernel x kernel
    convolution: `window` selects, in a stack of zero-padded grids, the
    tokens that tap reads."""
    gh, gw = grid
    return [
        (dy, dx, (slice(None), slice(dy, dy + gh), slice(dx, dx + gw))) for dy in range(kernel) for dx in range(kernel)
    ]


def _adapter_forward(traces: list[LayerTrace], params: AdapterParams):
    """Adapter forward over a stack of traces of one grid, in the dtype of
    the adapter's tensors; returns (features (B, hw, D_d), the zero-padded
    (B, .., .., 12*d_proj) projection grids the fusion reads, the (B, 12,
    hw, D) layer inputs).

    The twelve projections of every image are one (B, 12, hw, D) @
    (12, D, d_proj) product and the fusion one product per kernel tap;
    each is the per-image product, looped over the stack inside numpy."""
    grid = traces[0].grid
    for trace in traces:
        if len(trace.features) != LAYER_COUNT:
            raise DataError(f"trace has {len(trace.features)} layers, expected {LAYER_COUNT}")
        if trace.grid != grid:
            raise UsageError(f"a stacked adapter pass needs one grid, got {trace.grid} and {grid}")
    (gh, gw), pad, count = grid, params.kernel // 2, len(traces)
    w, wk = params.tensors["delta.w"], params.tensors["fusion.w"]
    xs = np.empty((count, LAYER_COUNT, gh * gw, traces[0].features.shape[-1]), w.dtype)
    for x, trace in zip(xs, traces):
        x[...] = trace.features[:, 1:]  # CLS dropped
    z = xs @ w.swapaxes(-1, -2)
    z += params.tensors["delta.b"][:, None]
    # the layers' projections side by side, layer-major, in each padded grid
    zpad = np.zeros((count, gh + 2 * pad, gw + 2 * pad, LAYER_COUNT * w.shape[1]), w.dtype)
    interior = zpad.reshape(*zpad.shape[:3], LAYER_COUNT, -1)[:, pad : pad + gh, pad : pad + gw]
    interior[...] = z.transpose(0, 2, 1, 3).reshape(count, gh, gw, LAYER_COUNT, -1)
    del z
    out = sum(zpad[win].reshape(count, gh * gw, -1) @ wk[:, :, dy, dx].T for dy, dx, win in _taps(grid, params.kernel))
    return out + params.tensors["fusion.b"], zpad, xs


def adapter_forward_stack(traces: list[LayerTrace], params: AdapterParams) -> list[np.ndarray]:
    """Each trace's dynamic features (D_d, hw), fused from its twelve
    frozen layer features in one stacked pass."""
    feats = _adapter_forward(traces, params)[0]
    if not np.isfinite(feats).all():
        raise NumericError("adapter produced non-finite features")
    return [np.ascontiguousarray(f.T, dtype=np.float32) for f in feats]


# --------------------------------------------------------------------------
# relations


def dynamic_relation(features: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Token relations r = alpha*(cos - beta*mean(cos)) as a (hw, hw)
    float32 array, with negatives masked to -inf: the bias of a re-encode.
    `features` is (D_d, hw); the mean runs over all hw^2 entries."""
    cos = nm.cosine_matrix(features, features)
    center = cos.astype(np.float64).mean()
    raw = (float(alpha) * (cos.astype(np.float64) - float(beta) * center)).astype(np.float32)
    return np.where(raw >= 0, raw, nm.NEG_INF).astype(np.float32)


# --------------------------------------------------------------------------
# affinity supervision


@dataclass
class AffinityBatch:
    positive: np.ndarray  # (hw, hw) bool: ordered token pairs with one label
    negative: np.ndarray  # (hw, hw) bool: ordered token pairs with two labels

    def counts(self) -> tuple[int, int]:
        """(positive, negative) pair counts, 1 for an empty term, whose sum is 0."""
        return max(int(self.positive.sum()), 1), max(int(self.negative.sum()), 1)


def build_affinity_batch(labels: PseudoLabelMap, sample_limit: int, rng: Rng) -> AffinityBatch:
    """All ordered pairs of non-ignored tokens, split by label agreement.

    The diagonal counts as positive. When there are more than
    `sample_limit` pairs, a uniform subsample of that many, drawn from
    `rng`, is kept over the row-major order of the valid pairs.
    """
    flat = np.asarray(labels).reshape(-1)
    valid = flat != IGNORE_LABEL
    if not valid.any():
        raise NumericError("degenerate affinity supervision: every token is ignored")
    pairs = valid[:, None] & valid[None, :]
    if pairs.sum() > sample_limit:
        index = np.flatnonzero(pairs)
        keep = rng.generator().permutation(index.size)[:sample_limit]
        pairs = np.zeros_like(pairs)
        pairs.flat[index[keep]] = True
    same = flat[:, None] == flat[None, :]
    return AffinityBatch(positive=pairs & same, negative=pairs & ~same)


def _pair_affinity(feats: np.ndarray):
    """Sigmoid-cosine affinities of (.., hw, D_d) features, one grid or a
    stack of them, in the features' dtype.

    Returns (norms, unit features, u) with u = sigmoid(cos), (.., hw, hw).
    """
    norms = np.sqrt(np.einsum("...ij,...ij->...i", feats, feats))
    if norms.min(initial=np.inf) < 1e-12:
        low = next(row for row in norms.reshape(-1, norms.shape[-1]) if row.min() < 1e-12)
        raise NumericError(f"zero-norm dynamic feature column {int(np.argmin(low))}")
    fhat = feats / norms[..., None]
    cos = fhat @ fhat.swapaxes(-1, -2)
    u = 1.0 / (1.0 + np.exp(-cos))
    return norms, fhat, u


def _pair_loss(u: np.ndarray, batch: AffinityBatch) -> float:
    """The diversity loss of one grid's affinities u: mean(1 - u) over
    positive pairs plus mean(u) over negative pairs."""
    n_pos, n_neg = batch.counts()
    return float((1.0 - u[batch.positive]).sum() / n_pos + u[batch.negative].sum() / n_neg)


# --------------------------------------------------------------------------
# gradients


def adapter_diversity_loss(trace: LayerTrace, params: AdapterParams, batch: AffinityBatch) -> float:
    """Diversity loss evaluated end-to-end in the adapter's dtype from its
    parameters. This is the exact function the analytic gradient
    differentiates, which is what a finite-difference probe must call."""
    feats = _adapter_forward([trace], params)[0][0]
    return _pair_loss(_pair_affinity(feats)[2], batch)


def _pair_gradient(feats: np.ndarray, batches: list[AffinityBatch]) -> tuple[list[float], np.ndarray]:
    """Each image's loss under its batch and its gradient with respect to
    its features, for a (B, hw, D_d) stack, in its dtype."""
    norms, fhat, u = _pair_affinity(feats)
    losses = [_pair_loss(u_i, batch) for u_i, batch in zip(u, batches)]
    n_pos, n_neg = np.array([batch.counts() for batch in batches], dtype=feats.dtype).T[..., None, None]
    positive = np.stack([batch.positive for batch in batches])
    negative = np.stack([batch.negative for batch in batches])
    g_u = np.where(positive, -1.0 / n_pos, np.where(negative, 1.0 / n_neg, 0.0))
    g_cos = g_u * u * (1.0 - u)
    g_fhat = (g_cos + g_cos.swapaxes(-1, -2)) @ fhat
    # project through the normalization: d(f/|f|) kills the radial component
    radial = np.einsum("...ij,...ij->...i", g_fhat, fhat)
    return losses, (g_fhat - radial[..., None] * fhat) / norms[..., None]


def diversity_loss_gradient_stack(
    traces: list[LayerTrace],
    params: AdapterParams,
    batches: list[AffinityBatch],
    grads: dict[str, np.ndarray],
) -> list[float]:
    """Each trace's loss under its batch, in order, with the exact
    reverse-mode gradient of each added, image by image in order, into
    `grads`: accumulators keyed like `params.tensors`. Every product runs
    in the dtype of the adapter's tensors.

    One stacked forward and backward pass: every product is the per-image
    product, and the fusion-weight gradient of each image passes through
    one work buffer, so memory does not grow with the stack by a
    fusion-weight-sized array per image. A NumericError names the first
    accumulator, in table order, that ends non-finite.
    """
    feats, zpad, xs = _adapter_forward(traces, params)
    losses, g_feats = _pair_gradient(feats, batches)
    del feats
    count, hw, _ = g_feats.shape

    # the fusion convolution's transpose, tap by tap
    (gh, gw), pad = traces[0].grid, params.kernel // 2
    w, g_w = params.tensors["fusion.w"], grads["fusion.w"]
    work = np.empty(w.shape[:2], g_feats.dtype)
    g_zpad = np.zeros_like(zpad)
    for dy, dx, win in _taps(traces[0].grid, params.kernel):
        for g_f, z in zip(g_feats, zpad[win].reshape(count, hw, -1)):
            g_w[:, :, dy, dx] += np.matmul(g_f.T, z, out=work)
        g_zpad[win] += (g_feats @ w[:, :, dy, dx]).reshape(count, gh, gw, -1)
    del zpad, work
    g_b = g_feats.sum(axis=1)
    # per image and layer: (d_proj, hw) @ (hw, D) weight and (d_proj,) bias gradients
    g_z = g_zpad[:, pad : pad + gh, pad : pad + gw].reshape(count, hw, LAYER_COUNT, -1)
    g_zb = g_z.sum(axis=1)
    g_zw = np.empty((LAYER_COUNT, g_z.shape[-1], xs.shape[-1]), xs.dtype)
    for i in range(count):
        grads["fusion.b"] += g_b[i]
        grads["delta.w"] += np.matmul(g_z[i].transpose(1, 2, 0), xs[i], out=g_zw)
        grads["delta.b"] += g_zb[i]
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for adapter parameter '{name}'")
    return losses


# --------------------------------------------------------------------------
# dynamic CAM generation


def biased_relations(traces: list[LayerTrace], params: AdapterParams) -> list[np.ndarray]:
    """Per trace: the masked relation of the adapter run over it, from one
    stacked adapter pass: the bias of its re-encode."""
    features = adapter_forward_stack(traces, params)
    return [dynamic_relation(f, params.alpha, params.beta) for f in features]


def dynamic_cams(
    records,
    weights: EncoderWeights,
    params: AdapterParams,
    bank,
    tau_fg: float,
    tau_bg: float,
    static_traces: list[LayerTrace],
) -> list[CamResult]:
    """Dynamic CAMs for each dataset record's `.labels`, in order: its
    image re-encoded with its relation bias added, through the static
    stage's CAM loop (`run_static_passes`), one stacked adapter pass
    and one stacked encoder pass per chunk.

    `static_traces[i]` is the calibrated pass of record i's image, and all
    of them one calibration's. Its biased re-encode runs under that
    calibration and its biased relation from the trace's `resume`, so no
    image is read again. The biased traces are not kept.
    """

    def job(part):
        prefixes = static_traces[part]
        return None, biased_relations(prefixes, params), prefixes

    calibration = static_traces[0].calibration
    return run_static_passes(records, weights, bank, calibration, tau_fg, tau_bg, keep_traces=False, job=job)
