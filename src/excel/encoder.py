"""Minimal 12-layer pre-norm ViT with one calibrated attention formula.

The encoder is deliberately small and bit-reproducible: float32 weights,
float64 accumulation, no dropout. One pass, `encode_stack`, runs a chunk
of N images stacked along a leading axis, and each image's trace is
bit-identical to a pass over that image alone, because every product
is the per-image product looped over the chunk. `chunks` splits a loop
into chunks of equal size, as few as keep each image's largest
float64 arrays (its attention maps or its MLP hidden activations) within
one element budget, and `encode_chunks` runs a loop's chunks two passes
at a time: the earlier of each pair on one helper thread, the later on
the calling thread, which also runs everything around the passes in
chunk order. Every pass records, per image, what its consumers read: the
calibration it ran under and the relation that biased it, the residual
stream entering the first calibrated layer (a biased pass resumes from
it) and the twelve normalized layer inputs (the adapter's features).
Attention maps are not kept; `layer_attention` recomputes one layer's
maps from the trace, bit for bit, when a reader asks for them.

A pass computes each layer's attention a block of heads at a time
(`heads_per_block`): a block's maps, then their product with its values.
It owns one `AttentionWork`, allocated once and sized to a block's
(N, H_b, T, T) maps: the float64 logits/softmax array (the map is also
widened into it for attn @ v), the float32 rounded logits, the float64
calibrated mix and the float32 map. Every block of every layer writes
over them through `out=` products and casts in the allocating kernels'
operation order, so no layer allocates a map-sized array and the bytes
are those of fresh arrays. No trace and no map `layer_attention` returns
holds one of them; a map returned inside a pass lasts until the next
block overwrites it.

Shapes: an image's token matrix is (T, D) with the CLS token at row 0
and T = h*w + 1 grid tokens, and a chunk's is (N, T, D); per-head
tensors are computed as one (N, H, T, D_s) stack with D_s = D // H.
Final patch features are returned as (D, h, w) with CLS dropped.

Attention is one `Calibration(layers, weights)`: the q-k map
softmax(q k^T / sqrt(D_s)) below the last `layers` blocks, and in those
blocks w1*SA(q,q) + w2*SA(k,k) + w3*SA(v,v) in its place, where
SA(o,o) = softmax(o o^T / sqrt(D_s)). A run's calibration is its config's
`calib_layers` and `calib_weights` (default 5 blocks, equal thirds). The
paper's two baselines are configs too: `calib_layers: 0` is q-k attention
everywhere, and `calib_layers: 1` with `calib_weights: [0, 0, 1]` is v-v
attention in the last block only; the tests name them VANILLA and
VALUE_VALUE.
A pass may also take one relation per image, which adds softmax(R)
row-wise in that image's calibrated blocks, where R is the grid-sized
(hw x hw) token-relation matrix. R is embedded into the (T x T) map with
zero bias on the CLS row/column, so grid rows sum to sum(w) + 1 and the
CLS row to sum(w); unbiased calibrated rows sum to sum(w) and q-k rows
to 1.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .blobio import is_grid, is_positive_int, load_tensors, save_tensors
from .errors import DataError, NumericError, ShapeError, UsageError

LAYER_COUNT = 12
LN_EPS = 1e-5


# each layer's tensors in file order: the name under "layers.NN." and the
# shape in axes of d = dim and m = mlp_dim
LAYER_TENSORS = (
    ("ln1.scale", "d"), ("ln1.shift", "d"),
    ("attn.q.w", "dd"), ("attn.q.b", "d"),
    ("attn.k.w", "dd"), ("attn.k.b", "d"),
    ("attn.v.w", "dd"), ("attn.v.b", "d"),
    ("attn.out.w", "dd"), ("attn.out.b", "d"),
    ("ln2.scale", "d"), ("ln2.shift", "d"),
    ("mlp.fc.w", "md"), ("mlp.fc.b", "m"),
    ("mlp.proj.w", "dm"), ("mlp.proj.b", "d"),
)
# per layer, each tensor's name within the layer -> its file name
LAYER_KEYS = tuple({name: f"layers.{i:02d}.{name}" for name, _ in LAYER_TENSORS} for i in range(LAYER_COUNT))


def encoder_shapes(dim: int, mlp_dim: int, patch_size: int, grid: tuple[int, int]) -> dict[str, tuple[int, ...]]:
    """Every weights-file tensor name, in file order, with its shape."""
    sizes = {"d": dim, "m": mlp_dim}
    shapes = {
        "patch_embed.w": (dim, 3 * patch_size * patch_size),
        "patch_embed.b": (dim,),
        "cls_token": (dim,),
        "pos_embed": (grid[0] * grid[1] + 1, dim),
    }
    for keys in LAYER_KEYS:
        shapes.update((keys[name], tuple(sizes[a] for a in axes)) for name, axes in LAYER_TENSORS)
    shapes["ln_final.scale"] = shapes["ln_final.shift"] = (dim,)
    return shapes


@dataclass
class EncoderWeights:
    dim: int
    heads: int
    patch_size: int
    grid: tuple[int, int]
    mlp_dim: int
    tensors: dict[str, np.ndarray]  # keyed and ordered as in encoder_shapes

    @property
    def layers(self) -> list[dict[str, np.ndarray]]:
        """A view of `tensors`, built on each access: per layer, a dict of
        its tensors under their names after "layers.NN."."""
        t = self.tensors
        return [{name: t[key] for name, key in keys.items()} for keys in LAYER_KEYS]

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def image_size(self) -> tuple[int, int]:
        """(height, width) in pixels of the images the positional table fits."""
        return self.grid[0] * self.patch_size, self.grid[1] * self.patch_size

    def meta(self) -> dict:
        return {
            "dim": self.dim,
            "heads": self.heads,
            "layers": LAYER_COUNT,
            "patch_size": self.patch_size,
            "grid": list(self.grid),
            "mlp_dim": self.mlp_dim,
        }


def save_weights(path, weights: EncoderWeights, provenance=None) -> Path:
    return save_tensors(path, weights.tensors, meta=weights.meta(), provenance=provenance)


def load_weights(manifest_path) -> EncoderWeights:
    """Load and shape-check encoder weights from a manifest + blob pair."""
    tf = load_tensors(manifest_path)
    dim, heads, depth, patch, mlp_dim = (
        tf.meta_value(key, is_positive_int, "a positive integer")
        for key in ("dim", "heads", "layers", "patch_size", "mlp_dim")
    )
    grid = tuple(tf.meta_value("grid", is_grid, "a list of 2 positive integers"))
    if depth != LAYER_COUNT:
        raise DataError(f"encoder depth must be {LAYER_COUNT}, manifest declares {depth}")
    if dim % heads != 0:
        raise DataError(f"dim {dim} not divisible by heads {heads}")
    shapes = encoder_shapes(dim, mlp_dim, patch, grid)
    tensors = {name: tf.require(name, shape) for name, shape in shapes.items()}
    return EncoderWeights(dim=dim, heads=heads, patch_size=patch, grid=grid, mlp_dim=mlp_dim, tensors=tensors)


# --------------------------------------------------------------------------
# calibrated attention


@dataclass(frozen=True)
class Calibration:
    """The attention of one encoder pass; see the module docstring. Every
    value comes from a config key, so a bad one is a usage error."""

    layers: int = 5
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if not 0 <= self.layers <= LAYER_COUNT:
            raise UsageError(f"calib_layers must be in 0..{LAYER_COUNT}, got {self.layers}")
        weights = tuple(self.weights)
        if len(weights) != 3 or not all(math.isfinite(w) and w >= 0 for w in weights):
            raise UsageError(f"calib_weights must be 3 finite non-negative values, got {self.weights}")
        object.__setattr__(self, "weights", weights)

    @property
    def first_layer(self) -> int:
        """The lowest calibrated layer; LAYER_COUNT when none is."""
        return LAYER_COUNT - self.layers


# the two baselines' calibrations, under the names the tests read
VANILLA = Calibration(layers=0)
VALUE_VALUE = Calibration(layers=1, weights=(0.0, 0.0, 1.0))


def _check_relation_shape(relation: np.ndarray, tokens: int):
    shape = np.shape(relation)
    if shape != (tokens - 1, tokens - 1):
        raise ShapeError(f"relation matrix shape {shape} is not the grid size ({tokens - 1}, {tokens - 1})")


def expected_row_sums(calibration: Calibration, relation: np.ndarray | None, layer: int, tokens: int) -> np.ndarray:
    """Declared per-row attention sums at `layer` for an input of `tokens`
    rows, under `calibration` biased by `relation` or unbiased."""
    if layer < calibration.first_layer:
        return np.full(tokens, 1.0)
    sums = np.full(tokens, float(sum(calibration.weights)))
    if relation is not None:
        _check_relation_shape(relation, tokens)
        sums[1:] += 1.0  # the CLS row carries no relation bias
    return sums


# --------------------------------------------------------------------------
# forward pass


@dataclass
class LayerTrace:
    """Per-layer capture of one encoder forward pass."""

    grid: tuple[int, int]
    calibration: Calibration  # the attention the pass ran under
    relation: np.ndarray | None  # (hw, hw), -inf where masked: the bias of this image, or None
    resume: np.ndarray  # (T, D): residual stream entering calibration.first_layer (the final norm at 12)
    features: np.ndarray  # (12, T, D): each layer's normalized input, projected to q/k/v
    patch_features: np.ndarray  # (D, h, w), CLS dropped


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * scale + shift over the last axis, in
    float64 on one copy of `x`, rounded to float32 once. The variance is
    np.var's: the mean square of the centred copy."""
    x64 = x.astype(np.float64)
    x64 -= x64.mean(axis=-1, keepdims=True)
    var = (x64 * x64).sum(axis=-1, keepdims=True) / x64.shape[-1]
    x64 /= np.sqrt(var + LN_EPS)
    x64 *= scale
    x64 += shift
    return x64.astype(np.float32)


def gelu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit, the usual cheap GELU stand-in: the
    product of x and sigmoid(1.702 x), rounded to float32. A product of
    two float32 values is exact in float64, so the float32 multiply gives
    the bits of the float64 one rounded."""
    s = nm.sigmoid_unchecked(1.702 * x)
    return np.multiply(x, s, out=s)


def patchify(image: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Image (3, H, W) -> (h*w + 1, D) tokens: CLS, then row-major patches, plus
    positional embeddings.

    Patch vectors flatten as (channel, row, col) in C order. The positional
    table is sized for the manifest grid, so image dimensions must match it.
    """
    image = nm.as_f32(image, "image")
    if image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"image must be (3, H, W), got {image.shape}")
    p = weights.patch_size
    _, h_img, w_img = image.shape
    if h_img % p or w_img % p:
        raise DataError(f"image dims {h_img}x{w_img} not divisible by patch size {p}")
    gh, gw = h_img // p, w_img // p
    if (gh, gw) != weights.grid:
        raise DataError(
            f"image grid {gh}x{gw} does not match positional embedding grid "
            f"{weights.grid[0]}x{weights.grid[1]}"
        )
    patches = (
        image.reshape(3, gh, p, gw, p)
        .transpose(1, 3, 0, 2, 4)
        .reshape(gh * gw, 3 * p * p)
    )
    t = weights.tensors
    # `image` and the transposed weights are checked above and in
    # nm.transpose, so the product needs no check of its own
    embedded = nm.matmul_unchecked(patches, nm.transpose(t["patch_embed.w"])) + t["patch_embed.b"]
    tokens = np.concatenate([t["cls_token"][None, :], embedded], axis=0)
    return (tokens + t["pos_embed"]).astype(np.float32)


@dataclass(frozen=True)
class AttentionWork:
    """The (.., T, T) arrays the attention maps of one block of heads are
    computed in. One encoder pass allocates one set and every layer
    writes over it, so no layer allocates a map-sized array; nothing a
    pass returns holds one."""

    wide: np.ndarray  # float64: logits, softmax, a weighted term, the biased map, the map widened for attn @ v
    logits: np.ndarray  # float32: the rounded, scaled logits
    mix: np.ndarray  # float64: a calibrated layer's weighted sum
    attn: np.ndarray  # float32: the map of one layer or one SA term

    @classmethod
    def of(cls, tokens: tuple[int, ...]) -> "AttentionWork":
        """Fresh work arrays for the maps of a (.., T, D_s) token stack of
        shape `tokens`."""
        shape = tokens[:-1] + tokens[-2:-1]
        return cls(*(np.empty(shape, dtype) for dtype in (np.float64, np.float32, np.float64, np.float32)))


def _attention(a: np.ndarray, b: np.ndarray, head_dim: int, work: AttentionWork) -> np.ndarray:
    """softmax(a b^T / sqrt(head_dim)) of one head's (T, D_s) tokens or an
    (.., H, T, D_s) stack, written to `work.attn`; the logits are rounded
    to float32 before the scaling and after it. Unchecked: `encode_stack`
    checks q, k and v before attention."""
    np.matmul(a.astype(np.float64), b.swapaxes(-1, -2).astype(np.float64), out=work.wide)
    np.copyto(work.logits, work.wide)
    scale = math.sqrt(head_dim)
    if float(np.float32(scale)) == scale:  # compared in float64: D_s = 4, 9, 16, 64, not 8
        # the float64 quotient of float32 operands rounds to the float32
        # one, since 53 >= 2 * 24 + 2 bits (Figueroa 1995)
        np.divide(work.logits, np.float32(scale), out=work.logits)
    else:
        np.divide(work.logits, scale, out=work.logits, dtype=np.float64)
    return nm.softmax_rows_unchecked(work.logits, out=work.attn, work=work.wide)


def relation_bias(relation: np.ndarray, tokens: int) -> np.ndarray:
    """Row-softmaxed grid-sized (T-1, T-1) relation embedded into the
    (T, T) attention map: it lands on the patch block with zero bias on
    the CLS row and column. The softmax is rounded to float32 and held
    in float64, the precision it is added in."""
    relation = nm.as_f32(relation, "relation matrix", allow_neg_inf=True)
    _check_relation_shape(relation, tokens)
    bias = np.zeros((tokens, tokens))
    bias[1:, 1:] = nm.softmax_rows(relation)
    return bias


def _head_attention(
    calibration: Calibration,
    layer: int,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    head_dim: int,
    bias: np.ndarray | None,
    work: AttentionWork,
) -> np.ndarray:
    """Attention maps at `layer` of every head of the (.., H, T, D_s)
    stacks q, k and v, or of one head's (T, D_s) tokens, written to
    `work.attn`. `bias`, a relation_bias, is added to the rounded map in
    float64."""
    if layer < calibration.first_layer:
        return _attention(q, k, head_dim, work)
    # the first nonzero weight's term starts the sum: adding it to 0.0, or
    # adding a zero weight's exact 0.0 term, would change no bit
    terms = [(w, o) for w, o in zip(calibration.weights, (q, k, v)) if w]
    for i, (w, o) in enumerate(terms):
        term = work.wide if i else work.mix
        np.copyto(term, _attention(o, o, head_dim, work))
        term *= w
        if i:
            np.add(work.mix, term, out=work.mix)
    if not terms:
        work.mix.fill(0.0)
    attn = work.attn
    np.copyto(attn, work.mix)
    if bias is not None:
        np.copyto(work.wide, attn)
        np.add(work.wide, bias, out=work.wide)
        np.copyto(attn, work.wide)
    return attn


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"encoder {what} contain non-finite values")
    return x


def _heads_qkv(h: np.ndarray, lw: dict[str, np.ndarray], heads: int, layer: int):
    """The (.., H, T, D_s) query, key and value stacks of layer `layer`'s
    normalized (.., T, D) input `h`, each checked finite."""
    return tuple(
        _finite(nm.matmul_unchecked(h, lw[f"attn.{o}.w"].T) + lw[f"attn.{o}.b"], f"layer {layer} {what}")
        .reshape(*h.shape[:-1], heads, -1)
        .swapaxes(-3, -2)
        for o, what in (("q", "queries"), ("k", "keys"), ("v", "values"))
    )


# Element budget of one stacked pass's largest float64 arrays, per chunk
# and per block of heads. An image counts as the larger of its (H, T, T)
# attention maps and its (T, mlp_dim) MLP hidden activations. A 64 px
# fixture image (T=17) counts 4352 MLP elements, so 30 fit a chunk, and a
# 32-image loop runs as two passes of 16, in flight at once. At T=17 the
# pairing gains nothing on a 2-vCPU VM: `encode_chunks` over the 32 fixture
# images took 51.7 ms paired, 50.8 ms with the two chunks in series and
# 50.5 ms as one chunk (median of 15); it pays at T=257, where 8 images in
# chunks of one took 281 ms paired against 463 ms in series (median of 9).
# Past about 30 T=17 images a pass gets slower per image:
# 128 images took 440, 364, 370, 439 and 412 ms in serial passes of 8,
# 16, 32, 64 and 128 (median of 9). A T=257 image (or a ViT-B T=197 one) fills a chunk alone, since stacking
# is slower there (8 T=257 images: best of 7 0.82 s in chunks of one,
# 0.95, 1.03 and 1.21 s in chunks of 2, 4 and 8), and its maps go a head
# at a time, whose work arrays stay in L2: the calibrated kernel of one
# T=257 image takes 6.0 ms by heads against 7.1 ms for all 4 at once.
# Small maps stay one block, since there the calls cost more than the
# cache saves (a pass over one T=17 image: 8.1 ms against 11.1 ms a head
# at a time). One BLAS thread, 2-vCPU VM with 2 MB of L2 per core.
CHUNK_ELEMENTS = 1 << 17


def chunks(count: int, weights: EncoderWeights) -> list[slice]:
    """Consecutive slices over `count` images, one stacked pass each: as
    few as keep each within CHUNK_ELEMENTS (or one image), counting an
    image as the larger of its attention maps (H*T*T elements) and its MLP
    hidden activations (T*mlp_dim), and of equal size: sizes differ by at
    most one, the larger first."""
    tokens = weights.grid[0] * weights.grid[1] + 1
    fit = max(1, CHUNK_ELEMENTS // max(weights.heads * tokens * tokens, tokens * weights.mlp_dim))
    parts = -(-count // fit)
    size, extra = divmod(count, max(parts, 1))
    starts = [i * size + min(i, extra) for i in range(parts + 1)]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


def encode_chunks(
    count: int,
    weights: EncoderWeights,
    calibration: Calibration,
    job: Callable[[slice], tuple[list[np.ndarray] | None, list[np.ndarray] | None, list[LayerTrace] | None]],
    consume: Callable[[slice, list[LayerTrace]], None],
) -> None:
    """`encode_stack` under `calibration` over the `chunks` of `count`
    images, two passes at a time: for each chunk `part`, in order,
    job(part) gives the pass's (images, relations, prefixes), one of
    images and prefixes None, and consume(part, traces) takes the traces
    it returns.

    Consecutive chunks run in pairs, the earlier on one helper thread and
    the later on the calling thread; an odd last chunk runs on the calling
    thread alone, and a single chunk starts no thread. A loop of more
    than one chunk holds OpenBLAS to one thread (`nm.one_blas_thread`).
    Only `encode_stack` runs on the helper. `job` and `consume` run on
    the calling thread in chunk order, so each chunk's inputs and results
    are the serial loop's.
    A pass depends on its arguments alone, so its traces are the bytes of
    a serial call. The first chunk in order whose job, pass or consume
    fails raises, as in the serial loop, and no thread outlives the call.
    """
    parts = chunks(count, weights)

    def run(part: slice) -> list[LayerTrace]:
        images, relations, prefixes = job(part)
        return encode_stack(images, weights, calibration, relations, prefixes)

    def run_pair(helper, earlier: slice, later: slice):
        # a function, so that no chunk's traces outlive its pair
        images, relations, prefixes = job(earlier)
        pending = helper.submit(encode_stack, images, weights, calibration, relations, prefixes)
        try:
            traces = run(later)
        except Exception as error:  # raised once the earlier chunk is consumed
            traces = error
        consume(earlier, pending.result())
        if isinstance(traces, Exception):
            raise traces
        consume(later, traces)

    if len(parts) > 1:
        # imported here, as only a multi-chunk loop needs it: the import
        # (with `logging`) adds 0.7 MB to the peak RSS of a one-chunk run
        from concurrent.futures import ThreadPoolExecutor

        # an idle OpenBLAS thread would spin on the core the helper needs
        with nm.one_blas_thread(), ThreadPoolExecutor(max_workers=1) as helper:
            for earlier, later in zip(parts[0::2], parts[1::2]):
                run_pair(helper, earlier, later)
            if len(parts) % 2:
                consume(parts[-1], run(parts[-1]))
    elif parts:
        consume(parts[0], run(parts[0]))


def heads_per_block(count: int, weights: EncoderWeights) -> int:
    """The most heads, a divisor of the head count, whose maps over a chunk
    of `count` images fit CHUNK_ELEMENTS, and at least one."""
    tokens = weights.grid[0] * weights.grid[1] + 1
    fit = max(1, CHUNK_ELEMENTS // (count * tokens * tokens))
    return max(h for h in range(1, weights.heads + 1) if weights.heads % h == 0 and h <= fit)


def encode_stack(
    images: list[np.ndarray] | None,
    weights: EncoderWeights,
    calibration: Calibration,
    relations: list[np.ndarray] | None = None,
    prefixes: list[LayerTrace] | None = None,
) -> list[LayerTrace]:
    """Run the encoder under `calibration` over a chunk of images in one
    stacked pass and capture each image's trace; trace i is bit-identical
    to a pass over image i alone.

    With `relations`, relation i biases pass i. The chunk's tokens are
    one (N, T, D) stack and its heads (N, H, T, D_s); every product is
    the per-image product, looped over the chunk inside numpy.

    A pass takes `images` or `prefixes`, traces of the same weights and
    `calibration`. Over prefixes it runs only the calibrated layers, from
    each prefix's `resume`, and copies the features below from the
    prefix: bit for bit a full pass over the prefix's image.

    The images and relation matrices are checked where they enter; after
    that each product's output (q, k, v, the residual stream after
    attention and after the MLP, the final tokens) is checked for
    finiteness once, so a non-finite weight or input still raises
    NumericError.
    """
    passes = images if prefixes is None else prefixes
    if not passes or (images is None) == (prefixes is None) or relations is not None and len(relations) != len(passes):
        raise UsageError(
            "a stacked pass needs images or prefixes, not both, and one relation per pass, if any, got "
            f"{'no' if images is None else len(images)} images, {'no' if prefixes is None else len(prefixes)} "
            f"prefixes and {'no' if relations is None else len(relations)} relations"
        )
    for prefix in prefixes or ():
        if prefix.calibration != calibration:
            raise DataError(f"prefix trace was encoded under {prefix.calibration}, the pass runs under {calibration}")
    if prefixes is None:
        start, x = 0, np.stack([patchify(image, weights) for image in images])
    else:
        start, x = calibration.first_layer, np.stack([prefix.resume for prefix in prefixes])
    count, t_count, dim = x.shape
    heads, d_s = weights.heads, weights.head_dim
    bias = None if relations is None else np.stack([relation_bias(r, t_count) for r in relations])[:, None]
    features = np.empty((count, LAYER_COUNT, t_count, dim), np.float32)
    for feat, prefix in zip(features, prefixes or ()):
        feat[:start] = prefix.features[:start]
    resume = x
    layers = weights.layers
    block = heads_per_block(count, weights)
    work = AttentionWork.of((count, block, t_count, d_s))
    for layer in range(start, LAYER_COUNT):
        lw = layers[layer]
        h = layer_norm(x, lw["ln1.scale"], lw["ln1.shift"])
        features[:, layer] = h
        q_h, k_h, v_h = _heads_qkv(h, lw, heads, layer)
        weighted = np.empty(v_h.shape, np.float32)
        for first in range(0, heads, block):
            part = (slice(None), slice(first, first + block))
            attn = _head_attention(calibration, layer, q_h[part], k_h[part], v_h[part], d_s, bias, work)
            np.copyto(work.wide, attn)
            weighted[part] = work.wide @ v_h[part].astype(np.float64)  # rounded to float32 as it is stored
        merged = weighted.swapaxes(-3, -2).reshape(x.shape)
        attn_out = nm.matmul_unchecked(merged, lw["attn.out.w"].T) + lw["attn.out.b"]
        # float32 sums, written over the products' temporaries: the bits of
        # float64 sums rounded, since 53 >= 2 * 24 + 2 bits (Figueroa 1995)
        x = np.add(x, attn_out, out=attn_out)
        _finite(x, f"layer {layer} attention outputs")
        h2 = layer_norm(x, lw["ln2.scale"], lw["ln2.shift"])
        hidden = gelu(nm.matmul_unchecked(h2, lw["mlp.fc.w"].T) + lw["mlp.fc.b"])
        mlp_out = nm.matmul_unchecked(hidden, lw["mlp.proj.w"].T) + lw["mlp.proj.b"]
        x = np.add(x, mlp_out, out=mlp_out)
        _finite(x, f"layer {layer} MLP outputs")
        if layer + 1 == calibration.first_layer:
            resume = x  # no later step writes over it
    final = _finite(layer_norm(x, weights.tensors["ln_final.scale"], weights.tensors["ln_final.shift"]), "final tokens")
    gh, gw = weights.grid
    return [
        LayerTrace(
            grid=weights.grid,
            calibration=calibration,
            relation=relation,
            resume=resume_i,
            features=feat,
            patch_features=np.ascontiguousarray(final_i[1:].T).reshape(dim, gh, gw),
        )
        for relation, resume_i, feat, final_i in zip(relations or [None] * count, resume, features, final)
    ]


def layer_attention(trace: LayerTrace, weights: EncoderWeights, layer: int) -> np.ndarray:
    """The (H, T, T) attention maps of `layer` in the pass `trace` records,
    recomputed from that layer's normalized input under the trace's
    calibration and relation: the bytes the pass itself used."""
    h = trace.features[layer]
    q_h, k_h, v_h = _heads_qkv(h, weights.layers[layer], weights.heads, layer)
    bias = None if trace.relation is None else relation_bias(trace.relation, h.shape[0])
    return _head_attention(trace.calibration, layer, q_h, k_h, v_h, weights.head_dim, bias, AttentionWork.of(q_h.shape))
