"""Deterministic desk-scale fixtures: encoder weights, knowledge file, dataset.

Everything derives from one seed through named substreams, so a fixture
tree regenerates byte-for-byte. The toy dataset is colored rectangles and
disks on a textured gray background, placed on the patch grid in
quadrant-sized blocks. Class text embeddings are built by probing the
generated encoder itself: each class's template is the mean calibrated
patch feature over its shape tokens, so patch-text cosine scores separate
the classes by construction; description embeddings are noisy copies of
the template.
"""

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .blobio import write_json
from .dataset import save_dataset
from .encoder import (
    LAYER_COUNT,
    LAYER_KEYS,
    Calibration,
    EncoderWeights,
    encode_chunks,
    encoder_shapes,
    save_weights,
)
from .errors import UsageError
from .hashing import config_digest, provenance, provenance_comment
from .images import rgb_to_chw
from .numerics import Rng
from .text_enrichment import save_knowledge

PALETTE = [
    ("red", (220, 30, 30)),
    ("green", (40, 190, 60)),
    ("blue", (40, 80, 220)),
    ("yellow", (230, 200, 30)),
    ("purple", (170, 40, 200)),
    ("teal", (20, 190, 190)),
    ("orange", (240, 130, 30)),
    ("pink", (240, 90, 160)),
]

# fixture internals that no caller sets
WEIGHT_SIGMA = 0.02
CALIB_GAIN = 16.0  # layer-norm gain of the blocks PROBE calibrates
N_DESCRIPTIONS = 20  # noisy copies of each class template
DESCRIPTION_NOISE = 0.35
PROBE = Calibration()  # the pass that probes class templates: the pipeline's default
MAX_FIXTURE_BYTES = 1 << 32  # 4 GiB of float32 encoder tensors and images (RGB and mask, a byte each)


@dataclass
class FixtureSpec:
    classes: int = 3
    images: int = 32
    image_size: int = 64
    dim: int = 64
    heads: int = 4
    patch_size: int = 16
    mlp_dim: int = 256

    def validate(self):
        for name in ("classes", "images", "image_size", "dim", "heads", "patch_size", "mlp_dim"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name.replace('_', ' ')} must be positive, got {getattr(self, name)}")
        if not 1 <= self.classes <= len(PALETTE):
            raise UsageError(f"classes must be 1..{len(PALETTE)}, got {self.classes}")
        if self.image_size % (2 * self.patch_size) or self.image_size < 4 * self.patch_size:
            raise UsageError(
                f"image size {self.image_size} must be a multiple of two patches "
                f"({2 * self.patch_size}) and at least four (disks span 3x3 patches at offset 0 or 1)"
            )
        if self.dim < 2:
            # layer norm over one channel is constant: every probed feature is zero
            raise UsageError(f"dim must be at least 2, got {self.dim}")
        if self.dim % self.heads:
            raise UsageError(f"dim {self.dim} not divisible by heads {self.heads}")
        shapes = encoder_shapes(self.dim, self.mlp_dim, self.patch_size, (self.image_size // self.patch_size,) * 2)
        size = 4 * sum(math.prod(shape) for shape in shapes.values()) + 4 * self.images * self.image_size**2
        if size > MAX_FIXTURE_BYTES:
            raise UsageError(
                f"the fixture's encoder tensors and images take {size} bytes, over the bound of {MAX_FIXTURE_BYTES}"
            )

    def class_names(self) -> list[str]:
        return ["background"] + [f"{PALETTE[i][0]}-shape" for i in range(self.classes)]


# --------------------------------------------------------------------------
# encoder weights


def make_encoder_weights(rng: Rng, spec: FixtureSpec) -> EncoderWeights:
    """Gaussian weights (sigma `WEIGHT_SIGMA`) with identity
    out-projections, unit layer-norm scales and zero biases, stored in
    `encoder_shapes` order but drawn layer tensors first, then the rest.

    Layer-norm scales are 1 except `ln1.scale` in the blocks `PROBE`
    calibrates, which is `CALIB_GAIN`: boosted projection norms there make
    value-space self-similarity content-selective (and plain q-k attention
    sharply random), so attention policies actually separate on random
    weights. Early layers stay gentle so patch identity survives to that depth.
    """
    gen = rng.generator()
    d, p = spec.dim, spec.patch_size
    grid = (spec.image_size // p,) * 2

    def draw(name, shape):
        if name.endswith("attn.out.w"):
            return np.eye(d, dtype=np.float32)
        if name.endswith(".w") or name in ("cls_token", "pos_embed"):
            return (WEIGHT_SIGMA * gen.standard_normal(shape)).astype(np.float32)
        return np.full(shape, 1.0 if name.endswith(".scale") else 0.0, dtype=np.float32)

    shapes = encoder_shapes(d, spec.mlp_dim, p, grid)
    drawn = {name: draw(name, shapes[name]) for name in sorted(shapes, key=lambda n: not n.startswith("layers."))}
    tensors = {name: drawn[name] for name in shapes}
    for i in range(PROBE.first_layer, LAYER_COUNT):
        tensors[LAYER_KEYS[i]["ln1.scale"]] = np.full(d, CALIB_GAIN, dtype=np.float32)
    return EncoderWeights(dim=d, heads=spec.heads, patch_size=p, grid=grid, mlp_dim=spec.mlp_dim, tensors=tensors)


# --------------------------------------------------------------------------
# dataset rendering


def _background(gen, size) -> np.ndarray:
    # dark, noise-dominated: background patches decorrelate from the
    # saturated shape colors once layer norm rescales them
    base = 15 + int(gen.integers(0, 15))
    noise = gen.integers(-10, 11, size=(size, size, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def _paint_rect(rgb, mask, quadrant, color, class_id, size):
    """Fill one image quadrant (a 2x2 patch block) exactly."""
    half = size // 2
    y0 = (quadrant // 2) * half
    x0 = (quadrant % 2) * half
    rgb[y0 : y0 + half, x0 : x0 + half] = color
    mask[y0 : y0 + half, x0 : x0 + half] = class_id


def _paint_disk(rgb, mask, origin_patch, color, class_id, patch_size):
    """Disk inscribed in a 3x3 patch block: its rim tokens are only partly
    covered, which is what gives the trained calibration something to
    recover over the static labels."""
    span = 3 * patch_size
    y0, x0 = origin_patch[0] * patch_size, origin_patch[1] * patch_size
    yy, xx = np.mgrid[0:span, 0:span]
    c = (span - 1) / 2.0
    region = (yy - c) ** 2 + (xx - c) ** 2 <= (span / 2.0) ** 2
    ys, xs = np.nonzero(region)
    rgb[y0 + ys, x0 + xs] = color
    mask[y0 + ys, x0 + xs] = class_id


def render_image(gen, spec: FixtureSpec, class_id, kind, position):
    """One image with a single shape; returns (rgb, mask, labels).

    `position` is a quadrant index for rects and a patch-block origin in
    {0,1}x{0,1} for disks.
    """
    size = spec.image_size
    rgb = _background(gen, size)
    mask = np.zeros((size, size), dtype=np.uint8)
    color = PALETTE[class_id - 1][1]
    if kind == "rect":
        _paint_rect(rgb, mask, position, color, class_id, size)
    else:
        _paint_disk(rgb, mask, position, color, class_id, spec.patch_size)
    return rgb, mask, [class_id]


def render_dataset(rng: Rng, spec: FixtureSpec):
    """Deterministic list of (name, rgb, mask, labels) records.

    Classes rotate so every class appears equally often; even-indexed
    images hold a patch-aligned rectangle, odd-indexed ones a larger disk
    whose rim tokens are mixed.
    """
    gen = rng.generator()
    records = []
    for i in range(spec.images):
        class_id = (i % spec.classes) + 1
        if i % 2 == 0:
            rgb, mask, labels = render_image(gen, spec, class_id, "rect", int(gen.integers(0, 4)))
        else:
            origin = (int(gen.integers(0, 2)), int(gen.integers(0, 2)))
            rgb, mask, labels = render_image(gen, spec, class_id, "disk", origin)
        records.append((f"img_{i:04d}", rgb, mask, labels))
    return records


# --------------------------------------------------------------------------
# knowledge embeddings


def _probe_feature_means(weights, spec: FixtureSpec, probe_gen):
    """Per-class and background mean calibrated patch features, probed from
    rectangle renders across all four quadrant placements, in class then
    quadrant order, through `encode_chunks`. Each chunk's renders are drawn
    from `probe_gen` just before its pass, in chunk order, and only their
    masks are kept once the pass has its images; the float64 sums are
    taken in probe order."""
    p = spec.patch_size
    class_ids = range(1, spec.classes + 1)
    probes = [(class_id, quadrant) for class_id in class_ids for quadrant in range(4)]
    sums = {class_id: np.zeros(spec.dim, dtype=np.float64) for class_id in class_ids}
    counts = dict.fromkeys(class_ids, 0)
    bg_acc = np.zeros(spec.dim, dtype=np.float64)
    bg_count = 0
    masks = []  # the probes' masks, in probe order

    def job(part):
        renders = [render_image(probe_gen, spec, class_id, "rect", quadrant) for class_id, quadrant in probes[part]]
        masks.extend(mask for _, mask, _ in renders)
        return [rgb_to_chw(rgb) for rgb, _, _ in renders], None, None

    def consume(part, traces):
        nonlocal bg_acc, bg_count
        for (class_id, _), mask, trace in zip(probes[part], masks[part], traces):
            gh, gw = trace.grid
            token_class = mask.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(gh, gw, -1)
            inside = (token_class == class_id).all(axis=2).reshape(-1)
            outside = (token_class == 0).all(axis=2).reshape(-1)
            feats = trace.patch_features.reshape(spec.dim, -1).astype(np.float64)
            sums[class_id] += feats[:, inside].sum(axis=1)
            counts[class_id] += int(inside.sum())
            bg_acc += feats[:, outside].sum(axis=1)
            bg_count += int(outside.sum())

    encode_chunks(len(probes), weights, PROBE, job, consume)
    return {class_id: sums[class_id] / counts[class_id] for class_id in class_ids}, bg_acc / bg_count


def build_knowledge_embeddings(rng: Rng, spec: FixtureSpec, weights: EncoderWeights):
    """Per-class templates (dim,) and descriptions (n, dim). Templates are
    background-contrast prototypes (class mean minus background mean of
    the probed calibrated features), so background tokens anchor the low
    end of every class map. Descriptions are noisy unit-normalized copies
    of the template."""
    probe_gen = rng.child("probes").generator()
    noise_gen = rng.child("descriptions").generator()
    class_means, bg_mean = _probe_feature_means(weights, spec, probe_gen)
    templates, descriptions = [], []
    for c in range(1, spec.classes + 1):
        proto = class_means[c] - bg_mean
        template = proto / np.linalg.norm(proto)
        descs = template[None, :] + DESCRIPTION_NOISE * noise_gen.standard_normal((N_DESCRIPTIONS, spec.dim))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        templates.append(template.astype(np.float32))
        descriptions.append(descs.astype(np.float32))
    return templates, descriptions


# --------------------------------------------------------------------------
# top level


def generate_fixtures(seed: int, spec: FixtureSpec, out_dir) -> dict:
    """Write encoder weights, knowledge file and toy dataset under out_dir, made once all are built."""
    spec.validate()
    rng = Rng(seed)
    weights = make_encoder_weights(rng.child("encoder"), spec)
    templates, descriptions = build_knowledge_embeddings(rng.child("knowledge"), spec, weights)
    records = render_dataset(rng.child("dataset"), spec)
    out_dir = Path(out_dir)
    prov = provenance("fixtures", seed, config_digest(asdict(spec)))
    weights_path = save_weights(out_dir / "encoder.json", weights, provenance=prov)
    knowledge_path = save_knowledge(
        out_dir / "knowledge.json", spec.class_names()[1:], templates, descriptions, provenance=prov
    )
    dataset_dir = save_dataset(out_dir / "dataset", spec.class_names(), records, comment=provenance_comment(prov))
    spec_path = write_json(out_dir / "fixture_spec.json", {"spec": asdict(spec), "provenance": prov})
    return {
        "weights": weights_path,
        "knowledge": knowledge_path,
        "dataset": dataset_dir,
        "spec": spec_path,
    }
