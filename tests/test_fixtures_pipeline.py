import dataclasses
import hashlib
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from excel import blobio, dynamic_calibration, encoder, pipeline, static_calibration, text_enrichment, training_eval
from excel.config import PipelineConfig, load_config, parse_config
from excel.dataset import load_dataset
from excel.errors import UsageError
from excel.fixtures import FixtureSpec, generate_fixtures
from excel.images import read_pgm
from excel.numerics import Rng
from excel.pipeline import run_pipeline
from excel.text_enrichment import ingest_knowledge
from conftest import serial_encode_chunks


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --------------------------------------------------------------------------
# fixture generation


def test_fixture_seed_reproducibility(tmp_path):
    spec = FixtureSpec(images=6)
    generate_fixtures(42, spec, tmp_path / "a")
    generate_fixtures(42, spec, tmp_path / "b")
    ta, tb = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert ta.keys() == tb.keys()
    for name in ta:
        assert ta[name] == tb[name], name


def test_fixture_different_seed_differs(tmp_path):
    spec = FixtureSpec(images=4)
    generate_fixtures(1, spec, tmp_path / "a")
    generate_fixtures(2, spec, tmp_path / "b")
    assert (tmp_path / "a" / "encoder.bin").read_bytes() != (
        tmp_path / "b" / "encoder.bin"
    ).read_bytes()


def test_fixture_knowledge_counts(fixture_paths):
    kb = ingest_knowledge(fixture_paths["knowledge"])
    assert kb.num_classes == 3
    assert kb.embeddings.shape[1] // kb.num_classes == 20
    assert kb.embeddings.shape == (64, 60)


def test_fixture_dataset_counts(fixture_paths, fixture_dataset):
    assert len(fixture_dataset.images) == 32
    for rec in fixture_dataset.images:
        present = set(np.unique(rec.mask).tolist()) - {0, 255}
        assert present == set(rec.labels)
        assert rec.image.shape == (3, 64, 64)
    covered = set()
    for rec in fixture_dataset.images:
        covered.update(rec.labels)
    assert covered == {1, 2, 3}


def test_fixture_validation():
    with pytest.raises(UsageError):
        FixtureSpec(classes=0).validate()
    with pytest.raises(UsageError):
        FixtureSpec(image_size=40).validate()
    with pytest.raises(UsageError, match="at least four"):
        FixtureSpec(image_size=32).validate()  # two patches: no room for a 3x3-patch disk
    with pytest.raises(UsageError):
        FixtureSpec(dim=30, heads=4).validate()
    # within the 4 GiB byte bound: the default and a ViT-B-shaped encoder at 224 px
    FixtureSpec().validate()
    FixtureSpec(image_size=224, dim=768, heads=12, mlp_dim=3072).validate()


@pytest.mark.parametrize("field, value", [("mlp_dim", 0)])
def test_fixture_spec_refused_before_anything_is_written(tmp_path, field, value):
    # a spec whose files loading would refuse is refused before out_dir exists
    spec = FixtureSpec(classes=2, images=2, image_size=32, dim=16, heads=2, patch_size=8, mlp_dim=32)
    setattr(spec, field, value)
    with pytest.raises(UsageError, match=field.replace("_", " ")):
        generate_fixtures(5, spec, tmp_path / "fx")
    assert not (tmp_path / "fx").exists()


# --------------------------------------------------------------------------
# config


def test_config_round_trip(tmp_path):
    cfg = parse_config(
        {
            "seed": 9,
            "weights": "/w.json",
            "knowledge": "/k.json",
            "dataset": "/ds",
            "out_dir": "/out",
            "iterations": 7,
            "lr": 5e-4,
            "calib_weights": [0.2, 0.3, 0.5],
        }
    )
    assert cfg.seed == 9
    assert cfg.iterations == 7
    assert cfg.calib_weights == (0.2, 0.3, 0.5)
    path = blobio.write_json(tmp_path / "c.json", cfg.to_dict())
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    assert loaded.digest() == cfg.digest()


def test_config_unknown_key_rejected():
    with pytest.raises(UsageError, match="unknown config keys: iterationz"):
        parse_config({"iterationz": 3})
    # removed training knobs are unknown keys too
    with pytest.raises(UsageError, match="unknown config keys: gamma"):
        parse_config({"gamma": 0.1})
    # so is the retired static-stage attention: calib_layers and
    # calib_weights set a run's one attention
    with pytest.raises(UsageError, match="unknown config keys: policy"):
        parse_config({"policy": "vanilla"})
    # and the retired training keys, which could not change a result
    with pytest.raises(UsageError, match="unknown config keys: checkpoint_every, divergence_threshold"):
        parse_config({"checkpoint_every": 0, "divergence_threshold": 1000.0})


def test_config_relative_paths_anchor_to_file(tmp_path):
    (tmp_path / "c.json").write_text(
        json.dumps(
            {
                "weights": "fx/encoder.json",
                "knowledge": "fx/knowledge.json",
                "dataset": "fx/dataset",
                "out_dir": "out",
            }
        )
    )
    cfg = load_config(tmp_path / "c.json")
    assert cfg.weights == str(tmp_path / "fx" / "encoder.json")
    assert cfg.out_dir == str(tmp_path / "out")


def test_config_is_one_flat_type():
    cfg = PipelineConfig(tau_fg=0.6)
    assert cfg.tau_fg == 0.6
    # one field per config key, and the flat mapping holds exactly those
    assert set(cfg.to_dict()) == {f.name for f in dataclasses.fields(PipelineConfig)}
    with pytest.raises(AttributeError):
        cfg.not_a_field


FLOAT_KEYS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type is float]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_made_in_code_refuses_non_finite_floats(key, value):
    # the same check and message as a parsed file's
    message = f"config key '{key}' must be a finite number, got {value!r}"
    with pytest.raises(UsageError, match=message):
        PipelineConfig(**{key: value})
    with pytest.raises(UsageError, match=message):
        parse_config({key: value})


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("iterations", 2.5, "an integer"),
        ("batch_size", True, "an integer"),
        ("lr", "0.1", "a finite number"),
        ("alpha", False, "a finite number"),
        ("weights", 1, "a string"),
        ("calib_weights", (1, 1), "a list of 3 finite numbers"),
    ],
)
def test_config_made_in_code_is_type_checked(key, value, kind):
    # the same check and message as a parsed file's, and a usage error (exit 1)
    message = re.escape(f"config key '{key}' must be {kind}, got {value!r}")
    with pytest.raises(UsageError, match=message):
        PipelineConfig(**{key: value})
    with pytest.raises(UsageError, match=message):
        parse_config({key: value})


def test_parsed_config_digest_is_pinned():
    # JSON integers given for float keys hash as the floats they become
    cfg = parse_config({"lr": 1, "alpha": 3, "beta": 0, "calib_weights": [1, 0, 0], "seed": 5})
    assert (cfg.lr, cfg.alpha, cfg.beta, cfg.calib_weights) == (1.0, 3.0, 0.0, (1.0, 0.0, 0.0))
    assert cfg.digest() == "618211cf18cc564d"
    assert PipelineConfig(lr=1, alpha=3, beta=0, calib_weights=[1, 0, 0], seed=5).digest() == cfg.digest()


def test_default_config_digest_is_pinned():
    # every artifact's provenance stamps this hash, and `run --resume`
    # refuses a tree stamped with another: moving it is a contract change,
    # recorded in CHANGES.md with the old and new value
    assert PipelineConfig().digest() == "9f02b7fb25c2c265"


def test_config_hash_changes_with_values():
    a = parse_config({"seed": 1})
    b = parse_config({"seed": 2})
    assert a.digest() != b.digest()


# one value per config key but the paths, off that of BASE_RUN
OFF_DEFAULT = {
    "lr": 1e-3,
    "weight_decay": 0.5,
    "iterations": 3,
    "batch_size": 2,
    "seed": 1,
    "tau_fg": 0.65,
    "tau_bg": 0.3,
    "alpha": 2.0,
    "beta": 0.5,
    "calib_layers": 4,
    "calib_weights": [0.5, 0.25, 0.25],
    "topk": 4,
    "lam": 0.25,
    "clusters": 8,
    "d_proj": 32,
    "d_dyn": 128,
    "fusion_kernel": 3,
    "adapter_init_sigma": 0.03,
    "pair_sample_limit": 8,
}
BASE_RUN = {"iterations": 2}


def result_payloads(root):
    """The results of the run tree at `root`, by relative path: each
    tensor blob and loss curve as its bytes, and each label map as its
    pixels, without the header that stamps the provenance."""
    results = {}
    for p in sorted(root.rglob("*")):
        if p.suffix in (".bin", ".csv"):
            results[str(p.relative_to(root))] = p.read_bytes()
        elif p.suffix == ".pgm":
            results[str(p.relative_to(root))] = read_pgm(p).tobytes()
    return results


def test_every_config_key_moves_a_result(tmp_path):
    # a key that no result depends on is a knob to delete: each key's
    # value off BASE_RUN's must change some result file that both full
    # runs write (a file only one of them writes does not count), and a
    # new key must join the table
    assert set(OFF_DEFAULT) == set(PipelineConfig().settings())
    paths = generate_fixtures(42, FixtureSpec(images=4), tmp_path / "fx")
    inputs = {key: str(paths[key]) for key in ("weights", "knowledge", "dataset")}
    base = parse_config({**inputs, **BASE_RUN, "out_dir": str(tmp_path / "base")})
    run_pipeline(base, mode="full")
    baseline, settings = result_payloads(tmp_path / "base"), base.to_dict()
    for key, value in OFF_DEFAULT.items():
        cfg = parse_config({**settings, key: value, "out_dir": str(tmp_path / key)})
        assert {k for k, v in cfg.to_dict().items() if v != settings[k]} == {key, "out_dir"}, key
        run_pipeline(cfg, mode="full")
        results = result_payloads(tmp_path / key)
        assert any(results[name] != baseline[name] for name in results.keys() & baseline.keys()), key


# --------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def short_run(tmp_path_factory, fixture_paths):
    """One short full pipeline run shared by the checks below."""
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(
        {
            "seed": 11,
            "weights": str(fixture_paths["weights"]),
            "knowledge": str(fixture_paths["knowledge"]),
            "dataset": str(fixture_paths["dataset"]),
            "out_dir": str(out),
            "iterations": 4,
            "batch_size": 4,
            "clusters": 8,
        }
    )
    report_path, report = run_pipeline(cfg, mode="full")
    return cfg, report_path, report, out


def test_pipeline_emits_all_artifacts(short_run):
    cfg, report_path, report, out = short_run
    assert (out / "attrs.json").exists()
    assert (out / "static").exists() and len(list((out / "static").glob("*.pseudo.pgm"))) == 32
    assert (out / "train" / "loss_curve.csv").exists()
    assert (out / "train" / "checkpoint_000004.json").exists()
    assert (out / "dynamic").exists() and len(list((out / "dynamic").glob("*.cams.json"))) == 32
    assert report_path == out / "report.json" and report_path.exists() and (out / "report.txt").exists()
    assert 0.0 <= report.miou <= 1.0


def test_checkpoint_is_one_tensor_file(short_run):
    # one checkpoint, after the last iteration: a manifest and a blob, and
    # no optimizer sidecar next to them
    _, _, _, out = short_run
    names = sorted(p.name for p in (out / "train").iterdir())
    assert names == ["checkpoint_000004.bin", "checkpoint_000004.json", "loss_curve.csv"]
    assert not list(out.rglob("*.opt.*"))


def test_pipeline_provenance_stamped(short_run):
    cfg, report_path, report, out = short_run
    payload = json.loads(report_path.read_text())
    assert payload["provenance"]["config_hash"] == cfg.digest()
    assert payload["provenance"]["seed"] == cfg.seed
    bank_manifest = json.loads((out / "attrs.json").read_text())
    assert bank_manifest["provenance"]["config_hash"] == cfg.digest()
    from excel.images import _parse_netpbm

    comment = _parse_netpbm(next((out / "static").glob("*.pseudo.pgm")), b"P5")[3][0]
    assert cfg.digest() in comment
    # every artifact records the SHA-256 of the inputs it was built from
    dataset = load_dataset(cfg.dataset)
    inputs = {
        "weights": hashlib.sha256(Path(cfg.weights).read_bytes()).hexdigest(),
        "knowledge": hashlib.sha256(Path(cfg.knowledge).read_bytes()).hexdigest(),
        "dataset": dataset.digest,
    }
    checkpoint = json.loads((out / "train" / "checkpoint_000004.json").read_text())
    for stamp in (payload["provenance"], bank_manifest["provenance"], checkpoint["provenance"]):
        assert stamp["inputs"] == inputs
    assert comment.endswith(" ".join(f"{k}={v}" for k, v in inputs.items()))


def test_pipeline_resume_hash_mismatch_refused(short_run, fixture_paths):
    cfg, _, report, out = short_run
    altered = parse_config({**cfg.to_dict(), "lr": 9e-4})
    with pytest.raises(UsageError, match="refusing to resume"):
        run_pipeline(altered, mode="full", resume=True)


def test_pipeline_resume_same_hash_reuses(short_run):
    cfg, _, report, out = short_run
    _, report2 = run_pipeline(cfg, mode="full", resume=True)
    assert report2.miou == report.miou


def test_pipeline_resume_loads_each_tensor_file_once(monkeypatch, short_run, fixture_paths):
    # the resume check reads only each manifest's provenance, so the bank
    # and the final checkpoint are loaded once, like the weights
    cfg, _, _, out = short_run
    loads = []
    real = blobio.load_tensors

    def counting(path):
        loads.append(Path(path))
        return real(path)

    # every module that may hold the name, whether or not it does today
    for module in (encoder, pipeline, static_calibration, text_enrichment, training_eval):
        monkeypatch.setattr(module, "load_tensors", counting, raising=False)
    run_pipeline(cfg, mode="full", resume=True)
    assert sorted(loads) == sorted([Path(fixture_paths["weights"]), out / "attrs.json", out / "train" / "checkpoint_000004.json"])


class UnreadableRecord:
    """A dataset record whose labels are known and whose image must not be read."""

    def __init__(self, record):
        self.name, self.labels = record.name, record.labels

    @property
    def image(self):
        raise AssertionError(f"image {self.name} was read")


def test_dynamic_stage_reads_and_patchifies_no_image(monkeypatch, short_run, fixture_weights, fixture_dataset):
    # the biased re-encodes resume from the static traces: over records
    # whose images cannot be read, and with patchify refused, dynamic_cams
    # gives the CAMs and labels of the run's dynamic/ directory
    cfg, _, _, out = short_run
    bank = text_enrichment.load_bank(out / "attrs.json")
    checkpoint = out / "train" / "checkpoint_000004.json"
    adapter = training_eval.load_checkpoint(checkpoint, fixture_weights.dim, cfg.calibration())
    records = fixture_dataset.images
    static = static_calibration.run_static_passes(
        records, fixture_weights, bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
    )

    def refused(*args):
        raise AssertionError("an image was patchified")

    monkeypatch.setattr(encoder, "patchify", refused)
    results = dynamic_calibration.dynamic_cams(
        [UnreadableRecord(rec) for rec in records], fixture_weights, adapter, bank, cfg.tau_fg, cfg.tau_bg,
        [res.trace for res in static],
    )
    for rec, res in zip(records, results, strict=True):
        stem = out / "dynamic" / rec.name
        saved = blobio.load_tensors(f"{stem}.cams.json")
        maps = np.stack([saved.require(f"cam.{cid:03d}", res.cams.grid) for cid in res.cams.class_ids])
        assert saved.meta["class_ids"] == res.cams.class_ids and maps.tobytes() == res.cams.maps.tobytes(), rec.name
        pixels = training_eval.upsample_labels(res.labels, fixture_weights.patch_size).astype(np.uint8)
        assert read_pgm(f"{stem}.pseudo.pgm").tobytes() == pixels.tobytes(), rec.name


def test_pipeline_static_only(tmp_path, fixture_paths):
    cfg = parse_config(
        {
            "seed": 11,
            "weights": str(fixture_paths["weights"]),
            "knowledge": str(fixture_paths["knowledge"]),
            "dataset": str(fixture_paths["dataset"]),
            "out_dir": str(tmp_path / "static_run"),
            "clusters": 8,
        }
    )
    report_path, report = run_pipeline(cfg, mode="static-only")
    out = tmp_path / "static_run"
    assert not (out / "train").exists() and not (out / "dynamic").exists()
    payload = json.loads(report_path.read_text())
    assert payload["evaluated_stage"] == "static"
    assert report.miou > 0.5  # training-free labels are already informative


def fixture_config(fixture_paths, out_dir, **settings):
    """A config over the seed-42 fixture under config seed 7, writing to
    `out_dir`, with `settings` off their defaults."""
    paths = {key: str(fixture_paths[key]) for key in ("weights", "knowledge", "dataset")}
    return parse_config({"seed": 7, **paths, "out_dir": str(out_dir), **settings})


def test_static_only_run_without_calibrated_layers_scores_vanilla(tmp_path, fixture_paths):
    # q-k attention everywhere is the vanilla baseline: its static labels
    # score the acceptance suite's vanilla mIoU
    _, report = run_pipeline(fixture_config(fixture_paths, tmp_path, calib_layers=0), mode="static-only")
    assert round(report.miou, 4) == 0.2131


def test_full_run_exports_the_static_only_runs_static_stage(tmp_path, fixture_paths):
    # one attention setting per run: a full run's static stage is the pass
    # its training and dynamic CAMs consume, and a static-only run of the
    # same config exports it byte for byte, off the default calibration too
    settings = {"calib_layers": 3, "iterations": 2}
    run_pipeline(fixture_config(fixture_paths, tmp_path / "full", **settings), mode="full")
    run_pipeline(fixture_config(fixture_paths, tmp_path / "static", **settings), mode="static-only")
    full, static = tree_bytes(tmp_path / "full" / "static"), tree_bytes(tmp_path / "static" / "static")
    assert len([name for name in full if name.endswith(".bin")]) == 32
    assert full == static


def test_full_pipeline_encodes_once_per_image_and_resumes_biased_encodes(monkeypatch, tmp_path, fixture_paths, fixture_dataset):
    # the static stage, training and dynamic CAMs share one calibrated pass
    # per image, under the run's calibration, the default or one off it;
    # training makes no biased encode, and each stacked biased
    # re-encode resumes from the calibrated traces and runs only the
    # calibrated layers. Images are counted one by one through the stacked
    # passes they go through, a biased one by the image of its prefix. The
    # two passes of a pair run at once, each on its own thread, so each
    # biased pass counts its head calls in its own counter, found through
    # its thread.
    calibrated, biased, biased_heads, traced = [], [], [], {}
    real_stack, real_head = encoder.encode_stack, encoder._head_attention
    current = threading.local()

    def counting_stack(images, weights, calibration, relations=None, prefixes=None):
        if relations is not None:
            assert images is None
            biased.extend(traced[id(prefix)] for prefix in prefixes)
            current.heads = [0]
            biased_heads.append(current.heads)
        else:
            calibrated.extend((calibration, image.tobytes()) for image in images)
        traces = real_stack(images, weights, calibration, relations, prefixes)
        if relations is None:
            traced.update((id(trace), image.tobytes()) for trace, image in zip(traces, images))
        return traces

    def counting_head(calibration, layer, q, k, v, head_dim, bias, work):
        if bias is not None:
            current.heads[0] += 1
        return real_head(calibration, layer, q, k, v, head_dim, bias, work)

    monkeypatch.setattr(encoder, "encode_stack", counting_stack)
    monkeypatch.setattr(encoder, "_head_attention", counting_head)
    images = sorted(rec.image.tobytes() for rec in fixture_dataset.images)
    for name, settings in (("default", {"iterations": 17}), ("calib3", {"calib_layers": 3, "iterations": 2})):
        for log in (calibrated, biased, biased_heads, traced):
            log.clear()
        cfg = fixture_config(fixture_paths, tmp_path / name, **settings)
        run_pipeline(cfg, mode="full")
        assert sorted(image for _, image in calibrated) == images, name  # 32 calibrated encodes, not 64
        assert {calibration for calibration, _ in calibrated} == {cfg.calibration()}, name
        assert sorted(biased) == images, name  # one per image, all in stage_dynamic
        # two stacked passes of 16 T=17 images, each with one all-heads call per calibrated layer
        assert biased_heads == [[cfg.calib_layers]] * 2


def test_static_and_dynamic_cams_share_one_loop(monkeypatch, tmp_path, fixture_paths):
    # both stages make their CAMs in run_static_passes: over a full run its
    # encode_chunks runs twice, once over images and once over the static
    # traces with their relation biases, and the dynamic stage has no loop
    loops, real_chunks = [], static_calibration.encode_chunks

    def counting_chunks(count, weights, calibration, job, consume):
        def recording_job(part):
            images, relations, prefixes = job(part)
            loops[-1].add((images is not None, relations is not None, prefixes is not None))
            return images, relations, prefixes

        loops.append(set())
        real_chunks(count, weights, calibration, recording_job, consume)

    monkeypatch.setattr(static_calibration, "encode_chunks", counting_chunks)
    run_pipeline(fixture_config(fixture_paths, tmp_path / "out", iterations=2), mode="full")
    assert loops == [{(True, False, False)}, {(False, True, True)}]
    assert not hasattr(dynamic_calibration, "encode_chunks")


def test_uneven_chunks_give_the_same_cams(monkeypatch, fixture_weights, fixture_bank, fixture_dataset):
    # a budget of 5 T=17 images a pass splits the 32 fixture images 4 x 5 +
    # 3 x 4, run two at a time and the last alone; static and dynamic
    # results keep every byte of the serial loop's default chunks
    cfg = PipelineConfig()
    records = fixture_dataset.images
    adapter = dynamic_calibration.init_adapter(
        Rng(3).child("adapter"), fixture_weights.dim, 8, 16, 1, 0.5, cfg.alpha, cfg.beta
    )

    def static_and_dynamic():
        static = static_calibration.run_static_passes(
            records, fixture_weights, fixture_bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
        )
        dynamic = dynamic_calibration.dynamic_cams(
            records, fixture_weights, adapter, fixture_bank, cfg.tau_fg, cfg.tau_bg, [res.trace for res in static]
        )
        return static, dynamic

    with monkeypatch.context() as serial:
        serial.setattr(static_calibration, "encode_chunks", serial_encode_chunks)
        serial_static, serial_dynamic = static_and_dynamic()
    sizes, real_stack = [], encoder.encode_stack

    def counting_stack(images, weights, calibration, relations=None, prefixes=None):
        sizes.append(len(images or prefixes))
        return real_stack(images, weights, calibration, relations, prefixes)

    monkeypatch.setattr(encoder, "CHUNK_ELEMENTS", 5 * 17 * fixture_weights.mlp_dim)
    monkeypatch.setattr(encoder, "encode_stack", counting_stack)
    static, dynamic = static_and_dynamic()
    assert sorted(sizes) == sorted(([5] * 4 + [4] * 3) * 2)
    for got, want in zip(static + dynamic, serial_static + serial_dynamic, strict=True):
        assert got.cams.maps.tobytes() == want.cams.maps.tobytes() and got.labels.tobytes() == want.labels.tobytes()
    for got, want in zip(static, serial_static, strict=True):
        got_arrays = [got.trace.resume, got.trace.features, got.trace.patch_features]
        want_arrays = [want.trace.resume, want.trace.features, want.trace.patch_features]
        assert [a.tobytes() for a in got_arrays] == [b.tobytes() for b in want_arrays]


def test_pipeline_unknown_mode(fixture_paths, tmp_path):
    cfg = parse_config(
        {
            "weights": str(fixture_paths["weights"]),
            "knowledge": str(fixture_paths["knowledge"]),
            "dataset": str(fixture_paths["dataset"]),
            "out_dir": str(tmp_path / "x"),
        }
    )
    with pytest.raises(UsageError, match="mode"):
        run_pipeline(cfg, mode="half")
