import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from excel import encoder
from excel.blobio import save_tensors, write_json
from excel.config import PipelineConfig
from excel.dataset import load_dataset
from excel.dynamic_calibration import build_affinity_batch, diversity_loss_gradient_stack
from excel.encoder import load_weights
from excel.fixtures import FixtureSpec, generate_fixtures
from excel.numerics import Rng, cosine_matrix
from excel.static_calibration import run_static_passes
from excel.text_enrichment import build_text_bank, ingest_knowledge

FIXTURE_SEED = 42
# the edge cases of an elementwise kernel: NaN, signed zeros and
# infinities, float32 subnormals, and values that saturate a logistic
SPECIAL_VALUES = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-40, -1e-40, 100.0, -100.0], np.float32)


def oracle_softmax(m):
    """Row softmax in the widened steps: a float64 copy, its row max
    subtracted, exp, divided by the row sum, rounded to float32."""
    x = m.astype(np.float64)
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x.astype(np.float32)


def oracle_sigmoid(a):
    """The logistic as one `where`: with e = exp(-|x|), where(x >= 0, 1, e)
    / (1 + e) in float64, rounded to float32 and clamped inside (0, 1)."""
    x = a.astype(np.float64)
    e = np.exp(-np.abs(x))
    out = (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(np.float32)
    return np.clip(out, np.nextafter(np.float32(0), np.float32(1)), np.nextafter(np.float32(1), np.float32(0)))


def oracle_relation(features, alpha, beta):
    """The unmasked token relation alpha * (cos - beta * mean(cos)) over
    the float32 cosines of `features`' columns, in float64, rounded to
    float32."""
    cos = cosine_matrix(features, features).astype(np.float64)
    return (alpha * (cos - beta * cos.mean())).astype(np.float32)


def assert_masks_oracle(relation, oracle):
    """`relation` is a float32 array of the oracle's shape that holds the
    oracle's bits where the oracle is >= 0 and -inf everywhere else."""
    assert relation.dtype == np.float32 and relation.shape == oracle.shape
    live = oracle >= 0
    assert relation[live].tobytes() == oracle[live].tobytes()
    assert np.isneginf(relation[~live]).all()


def serial_encode_chunks(count, weights, calibration, job, consume):
    """`encode_chunks` as a serial loop, one `encode_stack` call per chunk
    on the calling thread: the oracle of the runner."""
    for part in encoder.chunks(count, weights):
        images, relations, prefixes = job(part)
        consume(part, encoder.encode_stack(images, weights, calibration, relations, prefixes))


def one_image_gradient(trace, params, batch):
    """(loss, gradients keyed like `params.tensors`) of one trace:
    `diversity_loss_gradient_stack` over a stack of one, from zero."""
    grads = {name: np.zeros(shape) for name, shape in params.shapes.items()}
    return diversity_loss_gradient_stack([trace], params, [batch], grads)[0], grads


def float64_adapter(adapter):
    """`adapter` with its tensors widened to float64, the copy the
    finite-difference oracles take."""
    return dataclasses.replace(adapter, tensors={name: t.astype(np.float64) for name, t in adapter.tensors.items()})


def save_non_finite(path, tensors, **kwargs):
    """The tensor file `save_tensors` would write for `tensors`, which may
    hold values it refuses: saved as zeros, then the blob rewritten with
    the values and its checksum renewed. Returns the manifest path."""
    path = save_tensors(path, {name: np.zeros(np.shape(a), np.float32) for name, a in tensors.items()}, **kwargs)
    blob = b"".join(np.ascontiguousarray(a, "<f4").tobytes() for a in tensors.values())
    path.with_suffix(".bin").write_bytes(blob)
    manifest = json.loads(path.read_text())
    manifest["checksum_sha256"] = hashlib.sha256(blob).hexdigest()
    return write_json(path, manifest)


def read_loss_curve(path):
    """The (iteration, loss) rows of a `loss_curve.csv`, whose `repr`
    floats parse back to the losses training computed, bit for bit."""
    _, *rows = Path(path).read_text(encoding="ascii").splitlines()
    return [(int(it), float(div)) for it, div in (row.split(",") for row in rows)]


def every_pair(labels):
    """`build_affinity_batch` of a label map with a limit no pair count
    exceeds, so no pair is sampled away and the stream is never drawn."""
    return build_affinity_batch(labels, np.size(labels) ** 2, Rng(0))


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    return generate_fixtures(FIXTURE_SEED, FixtureSpec(), root)


@pytest.fixture(scope="session")
def fixture_weights(fixture_paths):
    return load_weights(fixture_paths["weights"])


@pytest.fixture(scope="session")
def wide_weights(fixture_weights):
    """The fixture encoder for 256 px images: a 16x16 grid (T=257), with
    positional embeddings drawn for that grid."""
    grid = (16, 16)
    gen = Rng(FIXTURE_SEED).child("wide").generator()
    pos_embed = 0.02 * gen.standard_normal((grid[0] * grid[1] + 1, fixture_weights.dim))
    tensors = {**fixture_weights.tensors, "pos_embed": pos_embed.astype(np.float32)}
    return dataclasses.replace(fixture_weights, grid=grid, tensors=tensors)


@pytest.fixture(scope="session")
def fixture_dataset(fixture_paths, fixture_weights):
    return load_dataset(fixture_paths["dataset"], image_size=fixture_weights.image_size)


@pytest.fixture(scope="session")
def fixture_kb(fixture_paths):
    return ingest_knowledge(fixture_paths["knowledge"])


@pytest.fixture(scope="session")
def fixture_bank(fixture_kb):
    return build_text_bank(
        fixture_kb, clusters=16, topk=8, lam=0.5, rng=Rng(7).child("attributes")
    )


@pytest.fixture(scope="session")
def fixture_static(fixture_weights, fixture_bank, fixture_dataset):
    """Each fixture image's calibrated static result, traces kept, in
    dataset order: the pass that training and dynamic CAMs consume under
    the default `PipelineConfig` calibration and thresholds."""
    cfg = PipelineConfig()
    return run_static_passes(
        fixture_dataset.images, fixture_weights, fixture_bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
    )
