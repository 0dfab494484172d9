"""Stage orchestration: attributes -> static CAMs -> training -> dynamic
CAMs -> evaluation, each stage writing provenance-stamped artifacts.

Every artifact embeds {stage, seed, config_hash, inputs}, `inputs` being
the SHA-256 digests of the weights manifest, the knowledge manifest and the
dataset files; resuming into an output directory whose artifacts carry a
different config hash or input digest is refused, and so are a run without
resume into one that holds any file and a static-only resume over a full
run's tree.
"""

import hashlib
from pathlib import Path

import numpy as np

from .blobio import read_json_object, write_file, write_json, writes_behind
from .config import PipelineConfig
from .dataset import ToyDataset, load_dataset
from .dynamic_calibration import dynamic_cams
from .encoder import EncoderWeights, load_weights
from .errors import DataError, UsageError
from .hashing import provenance, provenance_comment
from .images import write_pgm
from .static_calibration import run_static_passes, save_cams
from .text_enrichment import TextRepresentation, attribute_bank, load_bank, save_bank
from .training_eval import (
    MAX_TRAINING_BYTES,
    checkpoint_path,
    evaluate,
    load_checkpoint,
    report_text,
    train_loop,
    training_bytes,
    upsample_labels,
)


def run_provenance(cfg: PipelineConfig, stage: str, inputs: dict[str, str] | None = None) -> dict:
    """The provenance stamp of an artifact produced under `cfg` from the
    inputs with digests `inputs` (see `load_inputs`)."""
    return provenance(stage, cfg.seed, cfg.digest(), inputs)


def _check_resume(path: Path, cfg: PipelineConfig, inputs: dict[str, str], resume: bool) -> bool:
    """True when `path`, a tensor-file manifest or `report.json`, holds a
    reusable artifact for this config and these input digests. Reads only
    the JSON file's `provenance` stamp, and refuses to resume over a stamp
    without this config's hash or without each input's digest."""
    if not (resume and path.exists()):
        return False
    stamp = read_json_object(path, "artifact", DataError).get("provenance", {})
    if not isinstance(stamp, dict):
        raise DataError(f"{path} has a 'provenance' that is not an object")
    if stamp.get("config_hash") != cfg.digest():
        raise UsageError(
            f"refusing to resume: {path} was produced with config hash "
            f"{stamp.get('config_hash')}, current config hashes to {cfg.digest()}"
        )
    recorded = stamp.get("inputs")
    recorded = recorded if isinstance(recorded, dict) else {}
    for key, digest in inputs.items():
        if recorded.get(key) != digest:
            raise UsageError(
                f"refusing to resume: {path} was produced from {key} {getattr(cfg, key)} with SHA-256 "
                f"{recorded.get(key)}, its contents now hash to {digest}"
            )
    return True


def _holds_full_run(out: Path) -> bool:
    """Whether the tree at `out` holds a full run's files: any under
    `train/` or `dynamic/`, or a `report.json` of the dynamic stage."""
    if any(path.is_file() for stage in ("train", "dynamic") for path in (out / stage).rglob("*")):
        return True
    report = out / "report.json"
    return report.exists() and read_json_object(report, "artifact", DataError).get("evaluated_stage") == "dynamic"


def file_digest(path, what: str) -> str:
    """SHA-256 hex digest of the bytes of `path`, the `what` of a run."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_bank_dim(bank: TextRepresentation, bank_source: str, weights: EncoderWeights, weights_path):
    """A DataError naming both files unless the bank's embeddings have the
    encoder's width, checked before any image is encoded."""
    if bank.dim != weights.dim:
        raise DataError(
            f"text bank {bank_source} has dim {bank.dim}, but encoder weights "
            f"{weights_path} have dim {weights.dim}"
        )


def check_bank_classes(bank: TextRepresentation, bank_source: str, dataset: ToyDataset):
    """A DataError naming the bank and `classes.json` unless the bank's
    classes are the dataset's foreground classes, in the same order."""
    if bank.class_names != dataset.class_names[1:]:
        raise DataError(
            f"text bank {bank_source} has classes {bank.class_names}, but "
            f"{dataset.root / 'classes.json'} lists foreground classes {dataset.class_names[1:]}"
        )


def stage_attributes(
    cfg: PipelineConfig, inputs: dict[str, str], weights: EncoderWeights, dataset: ToyDataset, resume: bool = False
):
    """The run's text bank, reused with `resume`, checked against the
    weights and the dataset before a new one is saved."""
    out = Path(cfg.out_dir) / "attrs.json"
    reused = _check_resume(out, cfg, inputs, resume)
    if reused:
        bank = load_bank(out)
    else:
        bank = attribute_bank(cfg.knowledge, cfg.clusters, cfg.topk, cfg.lam, cfg.seed)
    bank_source = f"{out} (from {cfg.knowledge})"
    check_bank_dim(bank, bank_source, weights, cfg.weights)
    check_bank_classes(bank, bank_source, dataset)
    if not reused:
        save_bank(out, bank, provenance=run_provenance(cfg, "attributes", inputs))
    return bank


def load_inputs(cfg: PipelineConfig, resume: bool = False, train: bool = False):
    """(inputs, weights, dataset, bank) of a run, each checked against the
    others before any image is encoded or output written: the config's
    paths, the dataset's image size against the weights, the resume stamp
    of `report.json`, then the attribute stage's bank against both.

    An output tree holds one run: without `resume`, an `out_dir` that
    holds any file is refused before anything is read, and so is a
    static-only resume (not `train`) over a full run's tree. A resume
    removes every `*.tmp` file in the tree before anything is written.

    A run that will `train` the adapter needs a calibrated layer, since
    only those take its relation bias, and `training_bytes` within
    MAX_TRAINING_BYTES for the weights' width and grid.

    `inputs` maps the config keys `weights`, `knowledge` and `dataset` to
    SHA-256 hex digests: of the two manifests' bytes (a manifest holds its
    blob's checksum) and the dataset's `digest`. Every artifact of the run is
    stamped with them, and a resume over other inputs is refused."""
    cfg.validate()
    out = Path(cfg.out_dir)
    if not resume and out.is_dir() and any(path.is_file() for path in out.rglob("*")):
        raise UsageError(
            f"output directory {out} already holds files; a run writes into a new or empty directory, "
            "or continues the run there with --resume"
        )
    if resume and not train and _holds_full_run(out):
        raise UsageError(
            f"refusing to resume: {out} holds a --mode full run, and --mode static-only would leave its "
            "train/ and dynamic/ beside a static report; resume it with --mode full"
        )
    if train and cfg.calib_layers == 0:
        raise UsageError(
            "calib_layers is 0, so no layer takes the relation bias and there is no adapter to train; "
            "run --mode static-only for the vanilla baseline"
        )
    weights = load_weights(cfg.weights)
    if train:
        size = training_bytes(cfg, weights.dim, weights.grid)
        if size > MAX_TRAINING_BYTES:
            raise UsageError(
                f"config keys d_proj {cfg.d_proj}, d_dyn {cfg.d_dyn}, fusion_kernel {cfg.fusion_kernel} and "
                f"batch_size {cfg.batch_size} give training {size} bytes for weights of dim {weights.dim} on a "
                f"{weights.grid[0]}x{weights.grid[1]} grid, over the bound of {MAX_TRAINING_BYTES}"
            )
    dataset = load_dataset(cfg.dataset, image_size=weights.image_size)
    inputs = {
        "weights": file_digest(cfg.weights, "weights manifest"),
        "knowledge": file_digest(cfg.knowledge, "knowledge manifest"),
        "dataset": dataset.digest,
    }
    _check_resume(Path(cfg.out_dir) / "report.json", cfg, inputs, resume)
    if resume:  # a process killed between a write and its rename left `<name>.tmp`
        for tmp in out.rglob("*.tmp"):
            tmp.unlink()
    return inputs, weights, dataset, stage_attributes(cfg, inputs, weights, dataset, resume=resume)


def write_cam_outputs(out_dir: Path, stem: str, result, patch_size: int, prov: dict) -> tuple[Path, Path]:
    """`<stem>.cams.json` and the pixel-resolution `<stem>.pseudo.pgm` of a
    static or dynamic result, both stamped with `prov`; returns their paths."""
    cams_path = save_cams(out_dir / f"{stem}.cams.json", result.cams, provenance=prov)
    pgm_path = out_dir / f"{stem}.pseudo.pgm"
    pixels = upsample_labels(result.labels, patch_size).astype(np.uint8)
    write_pgm(pgm_path, pixels, comment=provenance_comment(prov))
    return cams_path, pgm_path


def export_cams(cfg: PipelineConfig, inputs: dict[str, str], stage: str, dataset: ToyDataset, results, patch_size: int):
    """The `<stage>/` directory with each image's CAM outputs, in dataset
    order, stamped with the stage's provenance; made only once every
    result is computed."""
    out_dir = Path(cfg.out_dir) / stage
    prov = run_provenance(cfg, stage, inputs)
    for rec, res in zip(dataset.images, results):
        write_cam_outputs(out_dir, rec.name, res, patch_size, prov)


def stage_static(cfg: PipelineConfig, inputs: dict[str, str], weights, bank, dataset: ToyDataset, keep_traces: bool):
    """Static CAMs and pseudo labels for every image under
    `cfg.calibration()`, in dataset order; each result keeps its encoder
    trace only with `keep_traces`, for training and dynamic CAMs to reuse."""
    results = run_static_passes(dataset.images, weights, bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces)
    export_cams(cfg, inputs, "static", dataset, results, weights.patch_size)
    return results


def stage_train(cfg: PipelineConfig, inputs: dict[str, str], dim: int, calibrated, resume: bool = False):
    """The adapter trained on `calibrated`, each image's static result
    with its trace, in dataset order."""
    out_dir = Path(cfg.out_dir) / "train"
    final = checkpoint_path(out_dir, cfg.iterations)
    if _check_resume(final, cfg, inputs, resume):
        return load_checkpoint(final, dim, cfg.calibration())
    prov = run_provenance(cfg, "train", inputs)
    return train_loop(calibrated, dim, cfg, out_dir=out_dir, provenance=prov)


def stage_dynamic(cfg: PipelineConfig, inputs: dict[str, str], weights, bank, dataset: ToyDataset, adapter, calibrated):
    """Dynamic CAMs for every image, each biased re-encode resuming from
    the image's trace in `calibrated` (as for `stage_train`)."""
    traces = [static.trace for static in calibrated]
    results = dynamic_cams(dataset.images, weights, adapter, bank, cfg.tau_fg, cfg.tau_bg, traces)
    export_cams(cfg, inputs, "dynamic", dataset, results, weights.patch_size)
    return results


def stage_eval(
    cfg: PipelineConfig, inputs: dict[str, str], dataset: ToyDataset, label_maps: list, patch_size: int, stage_name: str
):
    """Scores `label_maps`, one per image in dataset order, into
    `report.json` and `report.txt`; returns (report path, report)."""
    preds = [upsample_labels(labels, patch_size) for labels in label_maps]
    gts = [rec.mask for rec in dataset.images]
    report = evaluate(preds, gts, num_labels=len(dataset.class_names))
    prov = run_provenance(cfg, "eval", inputs)
    payload = {"provenance": prov, "evaluated_stage": stage_name, **report.to_dict()}
    report_path = write_json(Path(cfg.out_dir) / "report.json", payload)
    text = report_text(report, dataset.class_names)
    write_file(Path(cfg.out_dir) / "report.txt", text.encode("utf-8"))
    return report_path, report


def run_pipeline(cfg: PipelineConfig, mode: str = "full", resume: bool = False):
    """Run every stage and return (report path, report); `mode='static-only'`
    skips training and dynamic CAMs and evaluates the training-free pseudo
    labels. The run's files land on one writer thread, in the order they
    are written, while the next stage computes; every one has landed, or
    the first failed landing is raised, by the time the call returns."""
    if mode not in ("full", "static-only"):
        raise UsageError(f"unknown pipeline mode '{mode}'")
    with writes_behind():
        inputs, weights, dataset, bank = load_inputs(cfg, resume=resume, train=mode == "full")
        write_json(Path(cfg.out_dir) / "run_config.json", cfg.settings())
        # training and dynamic CAMs consume the static stage's pass, so every
        # image is encoded under the run's calibration once per run
        results = stage_static(cfg, inputs, weights, bank, dataset, keep_traces=mode == "full")
        evaluated = "static"
        if mode == "full":
            adapter = stage_train(cfg, inputs, weights.dim, results, resume=resume)
            results, evaluated = stage_dynamic(cfg, inputs, weights, bank, dataset, adapter, results), "dynamic"
        return stage_eval(cfg, inputs, dataset, [res.labels for res in results], weights.patch_size, evaluated)
