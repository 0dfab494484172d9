import argparse
import dataclasses
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import excel
from excel import encoder, training_eval
from excel.blobio import load_tensors, save_tensors, write_json
from excel.cli import build_parser, main
from excel.config import PipelineConfig, load_config, parse_config
from excel.dynamic_calibration import biased_relations
from excel.encoder import LAYER_COUNT, Calibration, encode_stack, load_weights, save_weights
from excel.errors import DataError, UsageError
from excel.hashing import config_digest, fnv1a64
from excel.fixtures import FixtureSpec, generate_fixtures, make_encoder_weights
from excel.images import read_pgm, read_ppm, rgb_to_chw, write_pgm, write_ppm
from excel.numerics import Rng
from excel.pipeline import run_pipeline
from excel.text_enrichment import (
    MAX_CLASSES,
    TEMPLATE_TEXT,
    KnowledgeBase,
    TextRepresentation,
    build_text_bank,
    cluster_attributes,
    hunt_attributes,
    ingest_knowledge,
    load_bank,
    save_bank,
    save_knowledge,
)
from excel.training_eval import attn_report, load_checkpoint
from conftest import save_non_finite


@pytest.fixture(scope="module")
def cli_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("clifx")
    code = main(["gen-fixtures", "--seed", "42", "--out", str(root), "--images", "8"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def cli_trained(cli_fixtures, tmp_path_factory):
    """A one-iteration full `excel run`: (its out_dir, its config path)."""
    root = tmp_path_factory.mktemp("clitrain")
    out_dir = root / "dynrun"
    cfg_path = write_cli_config(root / "cfg.json", cli_fixtures, out_dir, iterations=1)
    assert main(["run", "--config", str(cfg_path)]) == 0
    return out_dir, cfg_path


def run_excel(*argv, preexec_fn=None, timeout=None, **env):
    """`python -m excel *argv` in a fresh interpreter, with `env` added to
    its environment and `preexec_fn` run in the child before it starts,
    stopped after `timeout` seconds, if given."""
    env = {**os.environ, "PYTHONPATH": str(Path(excel.__file__).parent.parent), **env}
    return subprocess.run(
        [sys.executable, "-m", "excel", *argv],
        capture_output=True, text=True, env=env, preexec_fn=preexec_fn, timeout=timeout,
    )


def one_error_line(returncode, stderr, expected_code) -> str:
    """The single `error:` line of a failed command, after checking its exit code."""
    assert returncode == expected_code, stderr
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    return lines[0]


def write_cli_config(path, fixture_root, out_dir, **overrides):
    mapping = {
        "seed": 3,
        "weights": str(fixture_root / "encoder.json"),
        "knowledge": str(fixture_root / "knowledge.json"),
        "dataset": str(fixture_root / "dataset"),
        "out_dir": str(out_dir),
        "iterations": 2,
        "batch_size": 4,
        "clusters": 8,
    }
    mapping.update(overrides)
    return write_json(path, parse_config(mapping).to_dict())


def build_attrs_argv(cfg_path, out):
    return ["build-attrs", "--config", str(cfg_path), "--out", str(out)]


@pytest.fixture(scope="module")
def attrs_config(cli_fixtures, tmp_path_factory):
    """A config of the fixtures with 8 clusters, outside every test's tmp_path."""
    root = tmp_path_factory.mktemp("attrscfg")
    return write_cli_config(root / "cfg.json", cli_fixtures, root / "run")


def test_gen_fixtures_writes_tree(cli_fixtures):
    assert (cli_fixtures / "encoder.json").exists()
    assert (cli_fixtures / "knowledge.json").exists()
    assert (cli_fixtures / "dataset" / "classes.json").exists()
    assert len(list((cli_fixtures / "dataset" / "images").glob("*.ppm"))) == 8


def test_build_attrs_cli(cli_fixtures, tmp_path):
    out = tmp_path / "bank.json"
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", topk=4, lam=0.5, seed=1)
    assert main(build_attrs_argv(cfg, out)) == 0
    assert out.exists() and out.with_suffix(".bin").exists()


def test_build_attrs_needs_a_knowledge_file(tmp_path, capsys):
    # a config without `knowledge` names nothing to build a bank from
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clusters": 8}))
    line = _main_error(capsys, build_attrs_argv(cfg, tmp_path / "bank.json"), 1)
    assert str(cfg) in line and "'knowledge'" in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_build_attrs_manifest_leaves_out_its_path(attrs_config, tmp_path):
    # --out is where the bank lands, not what it is: the same bank built
    # into two directories stamps the same provenance
    manifests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        out = tmp_path / sub / "bank.json"
        assert main(build_attrs_argv(attrs_config, out)) == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1]


def test_cli_defaults_are_the_types_they_fill():
    # each default is the one of the type the flag fills, written once
    parser = build_parser()
    gen = vars(parser.parse_args(["gen-fixtures", "--out", "fx"]))
    assert FixtureSpec(**{k: v for k, v in gen.items() if k not in ("command", "seed", "out")}) == FixtureSpec()
    # attn-report without --config calibrates as PipelineConfig() does
    report = parser.parse_args(["attn-report", "--weights", "w.json", "--image", "i.ppm", "--out", "a"])
    assert report.config is None
    assert PipelineConfig().calibration() == Calibration()


def test_build_attrs_writes_the_runs_bank(cli_fixtures, tmp_path):
    # given a run's config, build-attrs writes the run's bank blob byte for
    # byte, and its manifest but for the digests of the run's other input
    # files: it reads only the knowledge file
    settings = {"clusters": 6, "topk": 5, "lam": 0.25, "seed": 9}
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", **settings)
    assert main(["run", "--config", str(cfg), "--mode", "static-only"]) == 0
    out = tmp_path / "cli" / "attrs.json"
    assert main(build_attrs_argv(cfg, out)) == 0
    run = tmp_path / "run" / "attrs.json"
    assert out.with_suffix(".bin").read_bytes() == run.with_suffix(".bin").read_bytes()
    manifests = [json.loads(path.read_text()) for path in (out, run)]
    inputs = [manifest["provenance"].pop("inputs") for manifest in manifests]
    assert set(inputs[1]) == {"weights", "knowledge", "dataset"}
    assert inputs[0] == {"knowledge": inputs[1]["knowledge"]}
    assert manifests[0]["provenance"]["config_hash"] == load_config(cfg).digest()
    assert manifests[0] == manifests[1]


def test_checkpoint_train_config_holds_the_settings(cli_trained):
    # every config key but where the run reads and writes
    meta = load_tensors(cli_trained[0] / "train" / "checkpoint_000001.json").meta
    settings = set(PipelineConfig().settings())
    assert set(meta["train_config"]) == settings
    assert len(settings) == 19


def test_cam_static_cli(cli_fixtures, attrs_config, tmp_path):
    bank = tmp_path / "bank.json"
    assert main(build_attrs_argv(attrs_config, bank)) == 0
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    labels = json.loads((cli_fixtures / "dataset" / "labels.json").read_text())[image.stem]
    out = tmp_path / "cams"
    code = main(
        [
            "cam",
            "--mode",
            "static",
            "--weights",
            str(cli_fixtures / "encoder.json"),
            "--bank",
            str(bank),
            "--image",
            str(image),
            "--labels",
            ",".join(str(v) for v in labels),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    pgm = read_pgm(out / f"{image.stem}.pseudo.pgm")
    assert pgm.shape == (64, 64)
    assert (out / f"{image.stem}.cams.json").exists()


def test_run_and_eval_cli(cli_fixtures, tmp_path):
    out_dir = tmp_path / "run"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir)
    code = main(["run", "--config", str(cfg_path), "--mode", "full"])
    assert code == 0
    assert (out_dir / "report.json").exists()
    report_out = tmp_path / "eval.json"
    code = main(
        [
            "eval",
            "--pred-dir",
            str(out_dir / "dynamic"),
            "--gt-dir",
            str(cli_fixtures / "dataset" / "masks"),
            "--classes",
            str(cli_fixtures / "dataset" / "classes.json"),
            "--out",
            str(report_out),
        ]
    )
    assert code == 0
    payload = json.loads(report_out.read_text())
    run_payload = json.loads((out_dir / "report.json").read_text())
    assert payload["miou"] == pytest.approx(run_payload["miou"], abs=1e-9)


def test_train_cli(cli_fixtures, tmp_path):
    # `excel run` is the command that trains: a full run leaves the loss
    # curve and the final checkpoint under train/
    out_dir = tmp_path / "trainrun"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=2)
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    assert (out_dir / "train" / "loss_curve.csv").exists()
    assert (out_dir / "train" / "checkpoint_000002.json").exists()


def test_train_is_no_command(cli_fixtures, tmp_path, capsys):
    # training is a stage of `excel run`; `excel train` is an unknown
    # command, refused as the command line is parsed, before any file is
    # read or written
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", iterations=1)
    assert "invalid choice: 'train'" in _main_error(capsys, ["train", "--config", str(cfg_path)], 1)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _tree(root):
    """Every file under `root`, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_run_into_a_directory_that_holds_files_is_refused(cli_fixtures, tmp_path, capsys):
    # an output tree holds one run: a static-only run under another config
    # into a full run's out_dir exits 1 in one line naming the directory
    # and --resume, and leaves every file of the first run as it was
    out_dir = tmp_path / "out"
    full = write_cli_config(tmp_path / "full.json", cli_fixtures, out_dir, iterations=4)
    assert main(["run", "--config", str(full)]) == 0
    before = _tree(out_dir)
    assert Path("train/checkpoint_000004.json") in before and Path("dynamic") in {p.parent for p in before}
    static = write_cli_config(tmp_path / "static.json", cli_fixtures, out_dir, lam=0.0)
    line = _main_error(capsys, ["run", "--config", str(static), "--mode", "static-only"], 1)
    assert str(out_dir) in line and "--resume" in line
    assert _tree(out_dir) == before
    with pytest.raises(UsageError, match="already holds files"):
        run_pipeline(load_config(static), mode="static-only")
    assert _tree(out_dir) == before
    # any file counts, however deep; an existing directory without one is a new tree
    fresh = tmp_path / "fresh"
    (fresh / "static").mkdir(parents=True)
    (fresh / "static" / "note.txt").write_text("mine")
    again = write_cli_config(tmp_path / "again.json", cli_fixtures, fresh, lam=0.0)
    assert "--resume" in _main_error(capsys, ["run", "--config", str(again), "--mode", "static-only"], 1)
    (fresh / "static" / "note.txt").unlink()
    assert main(["run", "--config", str(again), "--mode", "static-only"]) == 0


def test_a_static_only_resume_over_a_full_run_is_refused(cli_fixtures, cli_trained, tmp_path, capsys):
    # a full run's tree under its own config: a static-only --resume exits 1
    # in one line naming the directory and both modes, and writes nothing
    out_dir = tmp_path / "out"
    shutil.copytree(cli_trained[0], out_dir)
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=1)
    before = _tree(out_dir)
    argv = ["run", "--config", str(cfg), "--mode", "static-only", "--resume"]
    line = _main_error(capsys, argv, 1)
    assert str(out_dir) in line and "--mode full" in line and "--mode static-only" in line
    assert _tree(out_dir) == before
    # each mark of the full run is refused alone: a dynamic report, a file under train/ or under dynamic/
    report = out_dir / "report.json"
    for stage in ("train", "dynamic"):
        shutil.rmtree(out_dir / stage)
    assert json.loads(report.read_text())["evaluated_stage"] == "dynamic"
    _main_error(capsys, argv, 1)
    report.unlink()
    for stage in ("train", "dynamic"):
        (out_dir / stage / "sub").mkdir(parents=True)
        (out_dir / stage / "sub" / "note.txt").write_text("mine")
        _main_error(capsys, argv, 1)
        shutil.rmtree(out_dir / stage)
    # a static-only resume over a static-only tree runs, and a full resume
    # over that gives the full run's tree again
    assert main(argv) == 0
    assert json.loads(report.read_text())["evaluated_stage"] == "static"
    assert main(["run", "--config", str(cfg), "--mode", "full", "--resume"]) == 0
    assert json.loads(report.read_text())["evaluated_stage"] == "dynamic"
    capsys.readouterr()
    assert _tree(out_dir) == _tree(cli_trained[0])


def _with_head_tensors(checkpoint, path):
    """A copy of `checkpoint` in the older layouts, which also stored an
    affine segmentation head and its label count, and the relation
    settings of its `train_config` once more at the top of the meta."""
    tf = load_tensors(checkpoint)
    tensors = dict(tf.tensors)
    tensors["seghead.w"] = np.full((4, 12 * 64), 0.5, np.float32)
    tensors["seghead.b"] = np.zeros(4, np.float32)
    relation = {key: tf.meta["train_config"][key] for key in ("alpha", "beta", "fusion_kernel")}
    return save_tensors(path, tensors, meta={**tf.meta, **relation, "num_labels": 4}, provenance=tf.provenance)


def test_cam_dynamic_cli(cli_fixtures, cli_trained, tmp_path):
    out_dir, cfg_path = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    labels = json.loads((cli_fixtures / "dataset" / "labels.json").read_text())[image.stem]

    def cam(adapter, out):
        return main(
            [
                "cam",
                "--mode",
                "dynamic",
                "--weights",
                str(cli_fixtures / "encoder.json"),
                "--bank",
                str(out_dir / "attrs.json"),
                "--image",
                str(image),
                "--labels",
                ",".join(str(v) for v in labels),
                "--adapter",
                str(adapter),
                "--config",
                str(cfg_path),
                "--out",
                str(out),
            ]
        )

    out = tmp_path / "dyncams"
    assert cam(checkpoint, out) == 0
    assert (out / f"{image.stem}.pseudo.pgm").exists()
    # a checkpoint that also carries the head tensors and the top-level
    # relation settings loads, with the same result
    legacy = _with_head_tensors(checkpoint, tmp_path / "legacy.json")
    assert cam(legacy, tmp_path / "legacycams") == 0
    for path in sorted(out.iterdir()):
        assert (tmp_path / "legacycams" / path.name).read_bytes() == path.read_bytes(), path.name


def test_cam_requests_in_one_process_are_first_calls(cli_fixtures, cli_trained, tmp_path, capsys, monkeypatch):
    # one process serves a dynamic request, a usage error, a static request
    # without --adapter and the dynamic request again: each exits and writes
    # as in a fresh interpreter, no flag carries over, and only the first
    # main() of a process builds the parser
    run_dir, cfg_path = cli_trained
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    labels = json.loads((cli_fixtures / "dataset" / "labels.json").read_text())[image.stem]
    inputs = [
        "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(run_dir / "attrs.json"),
        "--image", str(image), "--labels", ",".join(map(str, labels)), "--config", str(cfg_path),
    ]
    adapter = ["--adapter", str(run_dir / "train" / "checkpoint_000001.json")]
    requests = {
        "dynamic": ["cam", "--mode", "dynamic", *inputs, *adapter],
        "usage": ["cam", "--mode", "static", *inputs, *adapter],
        "static": ["cam", "--mode", "static", *inputs],
    }

    def argv(name, out):
        return [*requests[name], "--out", str(out)]

    fresh = {}
    for name in requests:
        proc = run_excel(*argv(name, tmp_path / f"fresh-{name}"))
        fresh[name] = (proc.returncode, proc.stderr, _tree(tmp_path / f"fresh-{name}") if proc.returncode == 0 else {})
    assert [code for code, _, _ in fresh.values()] == [0, 1, 0]
    assert "static mode reads no --adapter" in fresh["usage"][1]
    assert fresh["dynamic"][2] != fresh["static"][2] and len(fresh["static"][2]) == 3

    added = []
    real = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda *a, **k: added.append(1) or real(*a, **k))
    for i, name in enumerate(["dynamic", "usage", "static", "dynamic"]):
        before = len(added)
        out = tmp_path / f"call{i}-{name}"
        code = main(argv(name, out))
        if i > 0:
            assert len(added) == before, f"call {i} built the parser again"
        assert (code, capsys.readouterr().err) == fresh[name][:2]
        assert (_tree(out) if out.exists() else {}) == fresh[name][2], name


def _as_v1(manifest_path, out_path):
    """A copy of a tensor file in the excel-tensors-v1 format, which differs
    from v2 only in its tag and its FNV-1a checksum."""
    manifest = json.loads(Path(manifest_path).read_text())
    blob = Path(manifest_path).with_name(manifest["blob"]).read_bytes()
    del manifest["checksum_sha256"]
    blob_path = out_path.with_suffix(".bin")
    manifest.update(format="excel-tensors-v1", blob=blob_path.name, checksum_fnv1a64=f"0x{fnv1a64(blob):016x}")
    blob_path.write_bytes(blob)
    return write_json(out_path, manifest)


@pytest.mark.parametrize("kind", ["weights", "adapter", "knowledge"])
def test_v1_tensor_files_are_refused(cli_fixtures, cli_trained, tmp_path, capsys, kind):
    # the older format is refused by its tag, with one line naming the file,
    # before anything is written
    run_dir, cfg_path = cli_trained
    out = tmp_path / "out"
    files = {
        "weights": cli_fixtures / "encoder.json",
        "adapter": run_dir / "train" / "checkpoint_000001.json",
        "knowledge": cli_fixtures / "knowledge.json",
    }
    v1 = files[kind] = _as_v1(files[kind], tmp_path / f"{kind}-v1.json")
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    if kind == "knowledge":
        run_cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out, knowledge=str(v1))
        argv = ["run", "--config", str(run_cfg), "--mode", "static-only"]
    else:
        argv = [
            "cam", "--mode", "dynamic", "--weights", str(files["weights"]), "--bank", str(run_dir / "attrs.json"),
            "--image", str(image), "--labels", "1", "--adapter", str(files["adapter"]),
            "--config", str(cfg_path), "--out", str(out),
        ]
    line = _main_error(capsys, argv, 2)
    assert str(v1) in line and "'excel-tensors-v1'" in line
    assert not out.exists()


def _dynamic_cam_argv(fixture_root, run_dir, checkpoint, image, out):
    labels = json.loads((fixture_root / "dataset" / "labels.json").read_text())[image.stem]
    return [
        "cam", "--mode", "dynamic", "--weights", str(fixture_root / "encoder.json"),
        "--bank", str(run_dir / "attrs.json"), "--image", str(image), "--labels", ",".join(map(str, labels)),
        "--adapter", str(checkpoint), "--out", str(out),
    ]


def test_cam_dynamic_refuses_a_calibration_the_adapter_was_not_trained_under(cli_fixtures, tmp_path, capsys):
    # an adapter trained over 3 calibrated layers: without its config, the
    # request asks for the default 5 and is refused before --out exists;
    # with it, the request writes the run's dynamic CAMs and labels
    run_dir = tmp_path / "run"
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, run_dir, iterations=1, calib_layers=3)
    assert main(["run", "--config", str(cfg)]) == 0
    checkpoint = run_dir / "train" / "checkpoint_000001.json"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = _dynamic_cam_argv(cli_fixtures, run_dir, checkpoint, image, tmp_path / "out")
    line = _main_error(capsys, argv, 1)
    assert str(checkpoint) in line and "calib_layers 3" in line and "asks for 5" in line
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--config", str(cfg)]) == 0
    dynamic = run_dir / "dynamic" / image.stem
    cams = tmp_path / "out" / image.stem
    assert Path(f"{cams}.cams.bin").read_bytes() == Path(f"{dynamic}.cams.bin").read_bytes()
    assert np.array_equal(read_pgm(f"{cams}.pseudo.pgm"), read_pgm(f"{dynamic}.pseudo.pgm"))


@pytest.mark.parametrize(
    "edit",
    [
        lambda tc: None,
        lambda tc: {k: v for k, v in tc.items() if k != "calib_layers"},
        lambda tc: {k: v for k, v in tc.items() if k != "calib_weights"},
        lambda tc: {**tc, "calib_layers": 5.0},
        lambda tc: {**tc, "calib_layers": 13},
        lambda tc: {**tc, "calib_weights": [0.5, 0.5]},
        lambda tc: {**tc, "calib_weights": ["1", 0, 0]},
        lambda tc: {**tc, "calib_weights": [-1.0, 1.0, 1.0]},
    ],
    ids=["no-train-config", "no-layers", "no-weights", "layers-float", "layers-13", "two-weights",
         "weight-string", "weight-negative"],
)
def test_exit_code_checkpoint_without_its_calibration(cli_fixtures, cli_trained, tmp_path, capsys, edit):
    # the trained calibration is read from the checkpoint's train_config;
    # one it lacks or cannot hold is broken data, refused before --out exists
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    train_config = edit(load_tensors(checkpoint).meta["train_config"])
    bad = _with_meta(checkpoint, tmp_path / "bad.json", "train_config", train_config)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    line = _main_error(capsys, _dynamic_cam_argv(cli_fixtures, out_dir, bad, image, tmp_path / "out"), 2)
    assert str(bad) in line and "train_config" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("d_proj", 32), ("alpha", 0), ("lr", None), ("policy", "intra_correlation")],
    ids=["d-proj-32", "alpha-zero", "no-lr", "retired-policy"],
)
def test_exit_code_checkpoint_train_config_is_checked_as_a_config(
    cli_fixtures, cli_trained, tmp_path, capsys, key, value
):
    # the train_config is the checkpoint's one record of its settings: one
    # its tensors disagree with, that no config can hold, that lacks a key
    # (None deletes it) or that holds the retired policy key is broken data
    out_dir, _ = cli_trained
    bad = _with_setting(out_dir / "train" / "checkpoint_000001.json", tmp_path / "bad.json", key, value)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    line = _main_error(capsys, _dynamic_cam_argv(cli_fixtures, out_dir, bad, image, tmp_path / "out"), 2)
    assert str(bad) in line and "train_config" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("checkpoint_every", 0), ("divergence_threshold", 1000.0)])
def test_exit_code_checkpoint_holding_a_retired_key(cli_fixtures, cli_trained, tmp_path, capsys, key, value):
    # a train_config that holds a retired key, at its old default, as every
    # checkpoint written before its retirement does, is broken data: one
    # line naming the file and the key, before --out exists
    out_dir, _ = cli_trained
    old = _with_setting(out_dir / "train" / "checkpoint_000001.json", tmp_path / "old.json", key, value)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    line = _main_error(capsys, _dynamic_cam_argv(cli_fixtures, out_dir, old, image, tmp_path / "out"), 2)
    assert str(old) in line and f"unknown config keys: {key}" in line
    assert not (tmp_path / "out").exists()


def test_attn_report_cli(cli_fixtures, tmp_path):
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    out = tmp_path / "attn"
    code = main(["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "attn_report.json").read_text())
    assert set(summary) == {"mean_row_entropy"}
    assert sorted(p.name for p in out.iterdir()) == ["attn_report.json", "relations.bin", "relations.json"]


@pytest.mark.parametrize(
    "baseline, settings",
    [("vanilla", {"calib_layers": 0}), ("value-value", {"calib_layers": 1, "calib_weights": [0, 0, 1]})],
)
def test_attn_report_baselines_are_configs(cli_fixtures, tmp_path, baseline, settings):
    # the paper's two baselines are reported from their configs, as
    # tools/ablate.sh runs them: the report of a pass under VANILLA or VALUE_VALUE
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", **settings)
    argv = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
            "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    weights = load_weights(cli_fixtures / "encoder.json")
    calibration = {"vanilla": encoder.VANILLA, "value-value": encoder.VALUE_VALUE}[baseline]
    want = attn_report(encode_stack([rgb_to_chw(read_ppm(image))], weights, calibration)[0], weights)
    got = load_tensors(tmp_path / "out" / "relations.json").tensors["token_relation"]
    assert got.tobytes() == want["token_relation"].tobytes()
    assert json.loads((tmp_path / "out" / "attn_report.json").read_text()) == {
        "mean_row_entropy": want["mean_row_entropy"]
    }


def _declared_flags() -> set:
    """Every (command, flag) pair that `build_parser()` declares, but --help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, flag)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def _flag_request(tmp_path, command, flags, setup) -> tuple:
    """(exit code, output tree) of `command` with `flags` (flag -> value:
    True for a switch, None to leave the flag out) in a new directory
    under `tmp_path`, named by each "{out}" in a value, after each file of
    `setup` (relative path -> text) is written there."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in setup.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, str(value).replace("{out}", str(out))]
    return main(argv), _tree(out)


def test_every_cli_flag_moves_a_result(cli_fixtures, cli_trained, attrs_config, seed_43_inputs, tmp_path):
    # a flag that no output depends on is a knob to delete: for each
    # (command, flag) pair, one value off the base request's must change
    # some output byte or the exit code, and a new flag must join the table
    fx, trained = cli_fixtures, cli_trained[0]
    weights, checkpoint = fx / "encoder.json", trained / "train" / "checkpoint_000001.json"
    images = sorted((fx / "dataset" / "images").glob("*.ppm"))
    configs = tmp_path / "configs"
    configs.mkdir()

    def config(name, **settings):
        return write_cli_config(configs / f"{name}.json", fx, configs / name, **settings)

    bank4 = tmp_path / "bank4.json"
    assert main(build_attrs_argv(config("clusters4", clusters=4), bank4)) == 0
    alpha2 = _with_setting(checkpoint, tmp_path / "alpha2.json", "alpha", 2.0)
    gt = shutil.copytree(fx / "dataset" / "masks", tmp_path / "gt")
    write_pgm(gt / "img_0000.pgm", np.zeros_like(read_pgm(gt / "img_0000.pgm")))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"classes": [*json.loads((fx / "dataset" / "classes.json").read_text())["classes"],
                                               "extra"]}))
    inputs = {"weights": str(weights), "knowledge": str(fx / "knowledge.json"), "dataset": str(fx / "dataset")}
    runs = {name: json.dumps({**inputs, "out_dir": "run", "iterations": 1, "clusters": clusters})
            for name, clusters in (("a.json", 8), ("b.json", 4))}

    fixture = {"--seed": 42, "--classes": 2, "--images": 1, "--image-size": 32, "--dim": 16, "--heads": 2,
               "--patch-size": 8, "--out": "{out}/fx"}
    cam = {"--mode": "static", "--weights": weights, "--bank": trained / "attrs.json", "--image": images[0],
           "--labels": "1", "--out": "{out}/cams"}
    evaluate = {"--pred-dir": trained / "static", "--gt-dir": fx / "dataset" / "masks",
                "--classes": fx / "dataset" / "classes.json", "--out": "{out}/eval.json"}
    report = {"--weights": weights, "--image": images[0], "--out": "{out}/attn"}
    run = {"--config": "{out}/a.json", "--mode": "static-only"}
    # (command, flag) -> (the base request's flags, the flag's value off them, files written before either)
    table = {
        **{("gen-fixtures", flag): (fixture, value, {}) for flag, value in [
            ("--seed", 43), ("--classes", 3), ("--images", 2), ("--image-size", 48), ("--dim", 32), ("--heads", 4),
            ("--patch-size", 4), ("--out", "{out}/other")]},
        ("build-attrs", "--config"): ({"--config": attrs_config, "--out": "{out}/bank.json"}, configs / "clusters4.json", {}),
        ("build-attrs", "--out"): ({"--config": attrs_config, "--out": "{out}/bank.json"}, "{out}/bank.bin", {}),
        **{("cam", flag): (cam, value, {}) for flag, value in [
            ("--mode", "dynamic"), ("--weights", seed_43_inputs / "encoder.json"), ("--bank", bank4),
            ("--image", images[1]), ("--labels", "1,2"), ("--config", config("calib3", calib_layers=3)),
            ("--out", "{out}/other")]},
        ("cam", "--adapter"): (cam | {"--mode": "dynamic", "--adapter": checkpoint}, alpha2, {}),
        **{("eval", flag): (evaluate, value, {}) for flag, value in [
            ("--pred-dir", fx / "dataset" / "masks"), ("--gt-dir", gt), ("--classes", classes), ("--out", None)]},
        **{("attn-report", flag): (report, value, {}) for flag, value in [
            ("--weights", seed_43_inputs / "encoder.json"), ("--image", images[1]),
            ("--config", config("calib0", calib_layers=0)), ("--adapter", checkpoint), ("--out", "{out}/other")]},
        ("run", "--config"): (run, "{out}/b.json", runs),
        ("run", "--mode"): (run, "full", runs),
        # a run into a directory that holds a file is refused unless it resumes
        ("run", "--resume"): (run, True, runs | {"run/note.txt": ""}),
    }
    assert set(table) == _declared_flags()
    bases = {}
    for (command, flag), (base, off, setup) in table.items():
        assert base.get(flag) != off, (command, flag)
        key = repr((command, base, setup))
        if key not in bases:
            bases[key] = _flag_request(tmp_path, command, base, setup)
        assert _flag_request(tmp_path, command, base | {flag: off}, setup) != bases[key], (command, flag)


# --------------------------------------------------------------------------
# exit codes


def test_exit_code_usage_error():
    assert main(["run", "--config", "/nonexistent/config.json"]) == 1
    assert main(["definitely-not-a-command"]) == 1
    assert main(["cam", "--mode", "bogus"]) == 1


@pytest.mark.parametrize(
    "override",
    [
        {"iterations": "ten"},
        {"calib_weights": 5},
        {"tau_fg": None},
        {"lr": "0.1"},
        {"seed": "x"},
        {"batch_size": 2.5},
        # JSON's parser reads Infinity and NaN; a config number must be finite
        {"lr": math.inf},
        {"beta": math.nan},
        {"alpha": math.inf},
        {"lam": math.inf},
        {"weight_decay": math.inf},
        {"adapter_init_sigma": math.inf},
        {"calib_weights": [math.nan, 0.5, 0.5]},
    ],
    ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()),
)
def test_exit_code_config_value_of_wrong_type(cli_fixtures, tmp_path, override):
    # written raw: parse_config itself rejects these values
    mapping = {
        "weights": str(cli_fixtures / "encoder.json"),
        "knowledge": str(cli_fixtures / "knowledge.json"),
        "dataset": str(cli_fixtures / "dataset"),
        "out_dir": str(tmp_path / "out"),
        **override,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mapping))
    proc = run_excel("run", "--config", str(cfg_path), "--mode", "static-only")
    assert one_error_line(proc.returncode, proc.stderr, 1).startswith("error: config key")
    assert not (tmp_path / "out").exists()


def _first_entry(manifest, **changes):
    manifest["tensors"][0].update(changes)
    return manifest


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: {k: v for k, v in m.items() if k != "tensors"},
        lambda m: {k: v for k, v in m.items() if k != "blob"},
        lambda m: _first_entry(m, shape=[-64, 48]),
        lambda m: _first_entry(m, shape=["sixty-four", 48]),
        lambda m: [m],
        lambda m: _first_entry(m, offset="0"),
        lambda m: _first_entry(m, name=m["tensors"][1]["name"]),
        lambda m: {**m, "meta": {**m["meta"], "grid": 4}},
        lambda m: {**m, "meta": {**m["meta"], "dim": "64"}},
        lambda m: {**m, "meta": {**m["meta"], "heads": 0}},
    ],
    ids=[
        "no-tensors", "no-blob", "negative-shape", "string-shape", "json-list", "string-offset", "duplicate-name",
        "grid-int", "dim-string", "heads-zero",
    ],
)
def test_exit_code_malformed_weights_manifest(cli_fixtures, tmp_path, mutate):
    manifest = json.loads((cli_fixtures / "encoder.json").read_text())
    (tmp_path / "bad.bin").write_bytes((cli_fixtures / "encoder.bin").read_bytes())
    manifest["blob"] = "bad.bin"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(manifest)))
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "cam", "--weights", str(bad), "--bank", str(tmp_path / "bank.json"),
        "--image", str(image), "--labels", "1", "--out", str(tmp_path / "out"),
    )
    assert str(bad) in one_error_line(proc.returncode, proc.stderr, 2)


@pytest.mark.parametrize(
    "key, value",
    [
        ("alpha", None),
        ("beta", None),
        ("fusion_kernel", None),
        ("alpha", "3.0"),
        ("beta", True),
        ("fusion_kernel", 2),
        ("fusion_kernel", 1.0),
    ],
    ids=["no-alpha", "no-beta", "no-fusion-kernel", "alpha-string", "beta-bool", "fusion-kernel-2", "fusion-kernel-float"],
)
def test_exit_code_malformed_checkpoint_meta(cli_fixtures, cli_trained, tmp_path, key, value):
    # the relation settings are read from the meta train_config; None deletes the key
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    manifest = json.loads(checkpoint.read_text())
    (tmp_path / "bad.bin").write_bytes(checkpoint.with_suffix(".bin").read_bytes())
    manifest["blob"] = "bad.bin"
    if value is None:
        del manifest["meta"]["train_config"][key]
    else:
        manifest["meta"]["train_config"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "cam", "--mode", "dynamic", "--weights", str(cli_fixtures / "encoder.json"),
        "--bank", str(out_dir / "attrs.json"), "--image", str(image), "--labels", "1", "--adapter", str(bad),
        "--out", str(tmp_path / "out"),
    )
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(bad) in line and "train_config" in line


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"alpha": 1e300}, "relation matrix contains non-finite values"),
        ({"lr": 1e300}, "non-finite update for parameter 'delta.w'"),
    ],
    ids=["run-alpha", "train-lr"],
)
def test_numeric_failure_prints_only_its_error_line(cli_fixtures, tmp_path, setting, message):
    # values past the float32 range make numpy warn as they are cast; the
    # warnings print nothing before the one `error:` line, and a failed
    # training writes no final checkpoint
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=1, **setting)
    proc = run_excel("run", "--config", str(cfg_path))
    assert message in one_error_line(proc.returncode, proc.stderr, 3)
    if "lr" in setting:
        assert not (out_dir / "train" / "checkpoint_000001.json").exists()


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("command", ["gen-fixtures", "run"])
def test_out_of_memory_prints_only_its_error_line(cli_fixtures, tmp_path, command):
    # a size that a flag or a config key gives and no bound refuses yet
    # fails its allocation under a 3 GiB address space: exit 1 and one
    # `error:` line, not a MemoryError traceback. A one-pixel patch keeps
    # a 512 px fixture within its byte bound, but its (T, T) attention
    # maps at T=262145 take 512 GiB; a d_dyn of 180000 keeps training
    # within its bound (4.20 GB counted), but its float32 adapter,
    # moments, gradient and AdamW work vectors alone take 3.3 GB
    if command == "gen-fixtures":
        argv = ["gen-fixtures", "--image-size", "512", "--patch-size", "1", "--images", "1"]
        argv += ["--out", str(tmp_path / "fx")]
    else:
        cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", iterations=1, d_dyn=180_000)
        argv = ["run", "--config", str(cfg_path)]
    proc = run_excel(*argv, preexec_fn=_cap_address_space)
    assert one_error_line(proc.returncode, proc.stderr, 1).startswith("error: out of memory: ")


@pytest.mark.parametrize("key", ["d_dyn", "d_proj", "batch_size"])
def test_training_sizes_over_their_bound_are_refused_before_any_output(cli_fixtures, tmp_path, key):
    # 10**13 of any of them would not fit any machine; a child capped at
    # 3 GiB, with a timeout, as a size that escaped the bound would grow
    # until one of them stopped it
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=1, **{key: 10**13})
    proc = run_excel("run", "--config", str(cfg_path), preexec_fn=_cap_address_space, timeout=120)
    line = one_error_line(proc.returncode, proc.stderr, 1)
    assert f"{key} {10**13}" in line and "over the bound of 4294967296" in line
    assert not out_dir.exists()


def test_runs_that_train_need_a_calibrated_layer(cli_fixtures, cli_trained, tmp_path, capsys):
    # at calib_layers 0 no layer takes the relation bias: a full run, with
    # or without --resume, is refused before any output; the static-only
    # baseline runs, and so do requests that train nothing
    out_dir = tmp_path / "run"
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=1, calib_layers=0)
    for argv in (["run"], ["run", "--resume"]):
        line = _main_error(capsys, [*argv, "--config", str(cfg)], 1)
        assert "calib_layers is 0" in line and "no layer takes the relation bias" in line
        assert "--mode static-only" in line
        assert not out_dir.exists()
    assert main(["run", "--config", str(cfg), "--mode", "static-only"]) == 0
    # an adapter read under calib_layers 0 biases no layer: the dynamic CAMs are the static run's
    checkpoint = _with_setting(cli_trained[0] / "train" / "checkpoint_000001.json", tmp_path / "c0.json",
                               "calib_layers", 0)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    cam = _dynamic_cam_argv(cli_fixtures, out_dir, checkpoint, image, tmp_path / "cam")
    assert main([*cam, "--config", str(cfg)]) == 0
    cams = f"{image.stem}.cams.bin"
    assert (tmp_path / "cam" / cams).read_bytes() == (out_dir / "static" / cams).read_bytes()
    attn = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
            "--config", str(cfg), "--out", str(tmp_path / "attn")]
    assert main(attn) == 0
    assert main([*attn, "--adapter", str(checkpoint)]) == 0


def test_attn_report_encodes_each_calibration_once_and_resumes_icb(cli_fixtures, cli_trained, tmp_path, monkeypatch):
    # one pass over the image; with --adapter the report is of that pass
    # resumed at its first calibrated layer (5 layers run) with the
    # adapter's relation
    real = encoder.encode_stack
    passes = []

    def counting(images, weights, calibration, relations=None, prefixes=None):
        if prefixes is None:
            passes.append(("image", LAYER_COUNT))
        else:
            passes.append(("resumed", LAYER_COUNT - calibration.first_layer))
        return real(images, weights, calibration, relations, prefixes)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("excel") and vars(module).get("encode_stack") is real:
            monkeypatch.setattr(module, "encode_stack", counting)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    checkpoint = cli_trained[0] / "train" / "checkpoint_000001.json"
    argv = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image)]
    biased = [("image", LAYER_COUNT), ("resumed", 5)]
    for adapter, want in (([], biased[:1]), (["--adapter", str(checkpoint)], biased)):
        passes.clear()
        assert main([*argv, *adapter, "--out", str(tmp_path / str(len(adapter)))]) == 0
        assert passes == want


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0], ids=["negative", "zero", "zero-int"])
@pytest.mark.parametrize("command", ["cam-dynamic", "attn-report-icb"])
def test_exit_code_checkpoint_alpha_not_positive(cli_fixtures, cli_trained, tmp_path, capsys, command, alpha):
    # the relation scale is positive wherever an adapter is made, so a
    # checkpoint that says otherwise is refused where it is loaded
    out_dir, _ = cli_trained
    bad = _with_setting(out_dir / "train" / "checkpoint_000001.json", tmp_path / "bad.json", "alpha", alpha)
    image = str(next((cli_fixtures / "dataset" / "images").glob("*.ppm")))
    if command == "cam-dynamic":
        argv = ["cam", "--mode", "dynamic", "--bank", str(out_dir / "attrs.json"), "--labels", "1"]
    else:
        argv = ["attn-report"]
    argv += ["--weights", str(cli_fixtures / "encoder.json"), "--image", image, "--adapter", str(bad)]
    line = _main_error(capsys, [*argv, "--out", str(tmp_path / "out")], 2)
    assert str(bad) in line and "meta 'train_config': alpha must be positive" in line
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def narrow_weights(tmp_path_factory):
    """A 32-dim, 2-head encoder for the fixture's 64 px images."""
    spec = FixtureSpec(dim=32, heads=2, mlp_dim=64)
    return save_weights(tmp_path_factory.mktemp("narrow") / "encoder.json", make_encoder_weights(Rng(0), spec))


@pytest.mark.parametrize("case", ["cam-width", "attn-report-width", "kernel-3-flat-fusion"])
def test_exit_code_checkpoint_mismatch(cli_fixtures, cli_trained, narrow_weights, tmp_path, case):
    # the trained checkpoint adapts 64-dim features and has a 1x1 fusion.w
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    weights, expected = narrow_weights, "the weights have dim 32"
    if case == "kernel-3-flat-fusion":
        checkpoint = _with_setting(checkpoint, tmp_path / "k3.json", "fusion_kernel", 3)
        weights, expected = cli_fixtures / "encoder.json", "tensor 'fusion.w'"
    image = str(next((cli_fixtures / "dataset" / "images").glob("*.ppm")))
    if case == "attn-report-width":
        argv = ["attn-report", "--weights", str(weights), "--image", image]
    else:
        argv = ["cam", "--mode", "dynamic", "--weights", str(weights), "--bank", str(out_dir / "attrs.json"),
                "--image", image, "--labels", "1"]
    proc = run_excel(*argv, "--adapter", str(checkpoint), "--out", str(tmp_path / "out"))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(checkpoint) in line and expected in line


def test_exit_code_checkpoint_in_the_per_layer_layout(cli_fixtures, cli_trained, tmp_path):
    # checkpoints once held each layer's delta pair and a 2-D 1x1 fusion.w,
    # all under an `adapter.` prefix: such a file is refused with one line
    # naming it and the stacked tensor it lacks, before --out exists
    out_dir, cfg_path = cli_trained
    tf = load_tensors(out_dir / "train" / "checkpoint_000001.json")
    tensors = {}
    for layer in range(LAYER_COUNT):
        tensors[f"adapter.delta.{layer:02d}.w"] = tf.tensors["delta.w"][layer]
        tensors[f"adapter.delta.{layer:02d}.b"] = tf.tensors["delta.b"][layer]
    tensors["adapter.fusion.w"] = tf.tensors["fusion.w"][:, :, 0, 0]
    tensors["adapter.fusion.b"] = tf.tensors["fusion.b"]
    old = save_tensors(tmp_path / "old.json", tensors, meta=tf.meta, provenance=tf.provenance)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = _dynamic_cam_argv(cli_fixtures, out_dir, old, image, tmp_path / "out")
    proc = run_excel(*argv, "--config", str(cfg_path))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(old) in line and "'delta.w'" in line
    assert not (tmp_path / "out").exists()


def test_attn_report_refuses_a_calibration_the_adapter_was_not_trained_under(cli_fixtures, cli_trained, tmp_path):
    # the adapter was trained over the default 5 calibrated layers: a biased
    # report under a config of 3 is refused before --out exists, one under
    # the defaults is written
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
            "--adapter", str(checkpoint)]
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", calib_layers=3)
    proc = run_excel(*argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    line = one_error_line(proc.returncode, proc.stderr, 1)
    assert str(checkpoint) in line and "calib_layers 5" in line and "the config asks for 3" in line
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "relations.json").exists()


def test_attn_report_reads_the_calibration_an_adapter_was_trained_under_from_its_config(cli_fixtures, tmp_path):
    # an adapter trained under calib_weights off the equal thirds: refused
    # under the defaults, reported under its run's config: the unbiased
    # report is that of the calibrated pass, and the biased one, resumed
    # from it, that of a full-depth biased pass
    cfg_path = write_cli_config(
        tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", iterations=1, calib_weights=[0.5, 0.25, 0.25]
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    checkpoint = tmp_path / "run" / "train" / "checkpoint_000001.json"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image)]
    proc = run_excel(*argv, "--adapter", str(checkpoint), "--out", str(tmp_path / "icb"))
    line = one_error_line(proc.returncode, proc.stderr, 1)
    assert str(checkpoint) in line and "calib_weights [0.5, 0.25, 0.25]" in line and "the config asks for 5" in line
    assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "ic")]) == 0
    assert main([*argv, "--config", str(cfg_path), "--adapter", str(checkpoint), "--out", str(tmp_path / "icb")]) == 0
    calibration = load_config(cfg_path).calibration()
    weights = load_weights(cli_fixtures / "encoder.json")
    chw = rgb_to_chw(read_ppm(image))
    adapter = load_checkpoint(checkpoint, weights.dim, calibration)
    static = encode_stack([chw], weights, calibration)
    relation = biased_relations(static, adapter)[0]
    full_depth = encode_stack([chw], weights, calibration, [relation])
    want = {"ic": attn_report(static[0], weights), "icb": attn_report(full_depth[0], weights)}
    for name in ("ic", "icb"):
        summary = json.loads((tmp_path / name / "attn_report.json").read_text())
        got = load_tensors(tmp_path / name / "relations.json").tensors["token_relation"]
        assert got.tobytes() == want[name]["token_relation"].tobytes(), name
        assert summary["mean_row_entropy"] == want[name]["mean_row_entropy"], name


@pytest.mark.parametrize("value", ["13", "-1"])
def test_exit_code_attn_report_calib_layers_out_of_range(cli_fixtures, tmp_path, value):
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calib_layers": int(value)}))
    proc = run_excel(
        "attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert f"calib_layers must be in 0..12, got {value}" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "out").exists()


def _build_attrs_refuses(tmp_path, capsys, **settings) -> str:
    """The error line of `build-attrs` over a config of a knowledge file
    that does not exist, with `settings`: refused as the config is made,
    before the file is opened and before any output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"knowledge": str(tmp_path / "missing.json"), "clusters": 8, **settings}))
    line = _main_error(capsys, build_attrs_argv(cfg, tmp_path / "bank.json"), 1)
    assert not (tmp_path / "bank.json").exists()
    return line


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "x"])
def test_exit_code_build_attrs_lambda_not_finite_non_negative(tmp_path, capsys, value):
    lam = {"nan": math.nan, "-1": -1, "inf": math.inf, "x": "x"}[value]
    line = _build_attrs_refuses(tmp_path, capsys, lam=lam)
    assert "lam" in line and value in line


@pytest.mark.parametrize(
    ("value", "flag"), [("-3", "--clusters"), ("x", "--clusters"), ("0", "--topk"), ("-3", "--topk"), ("x", "--topk")]
)
def test_exit_code_build_attrs_count_not_a_positive_integer(tmp_path, capsys, flag, value):
    # the config's `clusters` below 0 or `topk` below 1, or either not an
    # integer; clusters 0 is the no-clustering baseline
    key, count = flag.removeprefix("--"), value if value == "x" else int(value)
    line = _build_attrs_refuses(tmp_path, capsys, **{key: count})
    assert key in line and repr(count) in line


def test_build_attrs_clusters_zero_writes_an_unclustered_bank(cli_fixtures, tmp_path):
    # the bank holds the no-clustering baseline's enriched embeddings, and
    # the class names and width they are read by
    knowledge = cli_fixtures / "knowledge.json"
    out = tmp_path / "bank.json"
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", clusters=0)
    assert main(build_attrs_argv(cfg, out)) == 0
    manifest = json.loads(out.read_text())
    assert [entry["name"] for entry in manifest["tensors"]] == ["enriched"]
    assert set(manifest["meta"]) == {"classes", "dim"}
    cfg = PipelineConfig()
    baseline = build_text_bank(ingest_knowledge(knowledge), clusters=0, topk=cfg.topk, lam=cfg.lam, rng=Rng(0))
    assert load_bank(out).enriched.tobytes() == baseline.enriched.tobytes()


def test_a_bank_in_the_older_format_loads(cli_fixtures, tmp_path):
    # banks of older versions also hold the templates, the centroids and the
    # neighbor table; a load ignores them, so a static CAM reads such a bank
    # as it reads the bank of `enriched` alone
    cfg = PipelineConfig()
    knowledge = cli_fixtures / "knowledge.json"
    slim = tmp_path / "slim.json"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", seed=cfg.seed)
    assert main(build_attrs_argv(cfg_path, slim)) == 0
    kb = ingest_knowledge(knowledge)
    space = cluster_attributes(kb, 8, Rng(cfg.seed).child("attributes").child("clustering"))
    hunts = [hunt_attributes(kb.templates[:, c], space.centroids, cfg.topk) for c in range(kb.num_classes)]
    tf = load_tensors(slim)
    tensors = {"templates": kb.templates.T, "enriched": tf.tensors["enriched"],
               "centroids": space.centroids.T, "raw_centroids": space.raw_centroids.T}
    meta = tf.meta | {
        "lambda": cfg.lam, "clustered": True, "topk": cfg.topk, "template_text": TEMPLATE_TEXT,
        "neighbors": [{"indices": idx.tolist(), "scores": scores.tolist()} for idx, scores in hunts],
    }
    old = save_tensors(tmp_path / "old.json", tensors, meta=meta, provenance=tf.provenance)
    assert load_bank(old).enriched.tobytes() == load_bank(slim).enriched.tobytes()
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    outputs = []
    for bank in (slim, old):
        out = tmp_path / bank.stem
        assert main(["cam", "--mode", "static", "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(bank),
                     "--image", str(image), "--labels", "1,2,3", "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_exit_code_data_error(cli_fixtures, tmp_path):
    # valid config pointing at a broken weights file -> data error (2)
    bad_weights = tmp_path / "bad.json"
    bad_weights.write_text("{not json")
    cfg_path = write_cli_config(
        tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", weights=str(bad_weights)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_exit_code_numeric_error(cli_fixtures, tmp_path, monkeypatch):
    # a non-finite diversity loss ends training with exit 3
    real = training_eval.diversity_loss_gradient_stack
    monkeypatch.setattr(training_eval, "diversity_loss_gradient_stack", lambda *a: [math.nan for _ in real(*a)])
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", iterations=2)
    assert main(["run", "--config", str(cfg_path)]) == 3


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--heads", "0"),
        ("--image-size", "0"),
        ("--patch-size", "0"),
        ("--dim", "-4"),
        ("--images", "0"),
        ("--classes", "0"),
    ],
)
def test_exit_code_non_positive_fixture_spec(tmp_path, flag, value):
    proc = run_excel("gen-fixtures", flag, value, "--out", str(tmp_path / "fx"))
    assert "must be positive" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize("flag", ["--images", "--image-size", "--dim"])
def test_fixture_over_its_byte_bound_is_refused_before_any_draw(tmp_path, capsys, flag):
    # 10^14 images of 64 px, or a 10^9 px image or width, is refused in one
    # line naming its bytes and the 4 GiB bound, before anything is drawn
    # or written
    value = "100000000000000" if flag == "--images" else "1000000000"
    start = time.monotonic()
    line = _main_error(capsys, ["gen-fixtures", flag, value, "--out", str(tmp_path / "fx")], 1)
    assert time.monotonic() - start < 5
    bound = r"error: the fixture's encoder tensors and images take \d+ bytes, over the bound of 4294967296"
    assert re.fullmatch(bound, line)
    assert not (tmp_path / "fx").exists()


def test_exit_code_fixture_dim_below_two(tmp_path):
    # layer norm over one channel is constant, so a width-1 encoder would
    # write an all-NaN knowledge file
    proc = run_excel("gen-fixtures", "--dim", "1", "--heads", "1", "--out", str(tmp_path / "fx"))
    assert "dim must be at least 2" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["build-attrs", "run"])
def test_exit_code_non_finite_knowledge(cli_fixtures, tmp_path, capsys, command, value):
    tf = load_tensors(cli_fixtures / "knowledge.json")
    poisoned = dict(tf.tensors)
    poisoned["descriptions.00"] = poisoned["descriptions.00"].copy()
    poisoned["descriptions.00"][1, 2] = value
    kb = save_non_finite(tmp_path / "kb_bad.json", poisoned, meta=tf.meta, provenance=tf.provenance)
    if command == "build-attrs":
        cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", knowledge=str(kb))
        argv = build_attrs_argv(cfg_path, tmp_path / "bank.json")
    else:
        cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", knowledge=str(kb))
        argv = ["run", "--config", str(cfg_path)]
    code = main(argv)
    line = one_error_line(code, capsys.readouterr().err, 3)
    assert "descriptions.00" in line and str(kb) in line and "non-finite" in line


@pytest.mark.parametrize("labels", ["a", "1,x", "1.5"])
def test_exit_code_cam_labels_not_class_ids(cli_fixtures, cli_trained, tmp_path, labels):
    out_dir, _ = cli_trained
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "cam", "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(out_dir / "attrs.json"),
        "--image", str(image), "--labels", labels, "--out", str(tmp_path / "out"),
    )
    assert "--labels" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "out").exists()


def test_exit_code_cam_dynamic_without_adapter(cli_fixtures, cli_trained, tmp_path):
    # a usage error, raised before the weights, bank or image are read
    # and before --out is created
    out_dir, _ = cli_trained
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "cam", "--mode", "dynamic", "--weights", str(cli_fixtures / "encoder.json"),
        "--bank", str(out_dir / "attrs.json"), "--image", str(image), "--labels", "1", "--out", str(tmp_path / "out"),
    )
    assert "--adapter" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("command", ["cam-static"])
def test_exit_code_adapter_that_nothing_reads(cli_fixtures, cli_trained, tmp_path, capsys, command):
    # an --adapter that the request would not open is a usage error, raised
    # before the weights, image or checkpoint are read and before --out is created
    out_dir, _ = cli_trained
    image = str(next((cli_fixtures / "dataset" / "images").glob("*.ppm")))
    argv = ["cam", "--mode", "static", "--bank", str(out_dir / "attrs.json"), "--labels", "1"]
    argv += ["--weights", str(cli_fixtures / "encoder.json"), "--image", image,
             "--adapter", "/nonexistent/ckpt.json", "--out", str(tmp_path / "out")]
    assert "--adapter" in _main_error(capsys, argv, 1)
    assert not (tmp_path / "out").exists()

def _with_meta(manifest_path, out_path, key, value):
    """A copy of a tensor file whose meta `key` is `value`; None deletes it."""
    tf = load_tensors(manifest_path)
    meta = {k: v for k, v in tf.meta.items() if k != key}
    if value is not None:
        meta[key] = value
    tensors = dict(tf.tensors)
    return save_tensors(out_path, tensors, meta=meta, provenance=tf.provenance)


def _with_setting(checkpoint, out_path, key, value):
    """A copy of a checkpoint whose meta `train_config` holds `value` at
    `key`; None deletes it."""
    settings = {k: v for k, v in load_tensors(checkpoint).meta["train_config"].items() if k != key}
    if value is not None:
        settings[key] = value
    return _with_meta(checkpoint, out_path, "train_config", settings)


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    """A 16-dim encoder manifest, quick to checksum, for cases that fail after the weights load."""
    spec = FixtureSpec(image_size=32, dim=16, heads=2, patch_size=8, mlp_dim=32)
    return save_weights(tmp_path_factory.mktemp("tiny") / "encoder.json", make_encoder_weights(Rng(0), spec))


def _main_error(capsys, argv, expected_code) -> str:
    code = main(argv)
    return one_error_line(code, capsys.readouterr().err, expected_code)


@pytest.mark.parametrize(
    "key, value",
    [
        ("classes", None),
        ("dim", "64"),
    ],
    ids=["no-classes", "dim-string"],
)
def test_exit_code_malformed_bank_meta(cli_fixtures, cli_trained, tiny_weights, tmp_path, capsys, key, value):
    out_dir, _ = cli_trained
    bad = _with_meta(out_dir / "attrs.json", tmp_path / "bank.json", key, value)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["cam", "--weights", str(tiny_weights), "--bank", str(bad),
            "--image", str(image), "--labels", "1", "--out", str(tmp_path / "out")]
    assert f"'{key}'" in _main_error(capsys, argv, 2)


@pytest.fixture(scope="module")
def too_many_classes(tmp_path_factory):
    """MAX_CLASSES + 1 classes of 16-dim embeddings, one description each:
    (their knowledge file, their unclustered bank, a 32 px image)."""
    root = tmp_path_factory.mktemp("manyclasses")
    count = MAX_CLASSES + 1
    gen = Rng(0).generator()
    templates = gen.standard_normal((count, 16)).astype(np.float32)
    descriptions = gen.standard_normal((count, 1, 16)).astype(np.float32)
    names = [f"class-{c}" for c in range(count)]
    # written with save_tensors: save_knowledge and save_bank refuse them
    tensors = {f"{kind}.{c:02d}": arrays[c] for c in range(count)
               for kind, arrays in (("template", templates), ("descriptions", descriptions))}
    meta = {"classes": names, "n": 1, "dim": 16, "template_text": TEMPLATE_TEXT}
    knowledge = save_tensors(root / "knowledge.json", tensors, meta=meta)
    kb = KnowledgeBase(descriptions[:, 0].T.copy(), np.arange(count, dtype=np.int32), templates.T.copy(), names)
    enriched = build_text_bank(kb, clusters=0, topk=1, lam=0.5, rng=Rng(0)).enriched
    bank = save_tensors(root / "bank.json", {"enriched": enriched.T.copy()}, meta={"classes": names, "dim": 16})
    image = root / "image.ppm"
    write_ppm(image, gen.integers(0, 256, (32, 32, 3), dtype=np.uint8))
    return knowledge, bank, image


@pytest.mark.parametrize("command", ["build-attrs", "cam"])
def test_exit_code_more_classes_than_a_label_map_holds(too_many_classes, tiny_weights, tmp_path, capsys, command):
    # class ids 1..C share a uint8 label map with background 0 and ignore
    # 255, so a bank of more classes would write some class as either one
    knowledge, bank, image = too_many_classes
    if command == "build-attrs":
        named = knowledge
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"knowledge": str(knowledge), "clusters": 0}))
        argv = build_attrs_argv(cfg, tmp_path / "bank.json")
    else:
        named = bank
        argv = ["cam", "--mode", "static", "--weights", str(tiny_weights), "--bank", str(bank),
                "--image", str(image), "--labels", str(MAX_CLASSES + 1), "--out", str(tmp_path / "out")]
    line = _main_error(capsys, argv, 2)
    assert str(named) in line and f"more than the {MAX_CLASSES} class ids" in line
    assert not (tmp_path / "bank.json").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["bank", "knowledge"])
def test_writers_refuse_more_classes_than_a_label_map_holds(too_many_classes, tmp_path, kind):
    # save_bank and save_knowledge refuse the class count that load_bank
    # and ingest_knowledge refuse, before either file of the pair is written
    knowledge, bank, _ = too_many_classes
    out = tmp_path / f"{kind}.json"
    with pytest.raises(DataError, match=f"manifest {re.escape(str(out))} meta 'classes' lists {MAX_CLASSES + 1}"):
        if kind == "bank":
            tf = load_tensors(bank)
            save_bank(out, TextRepresentation(tf.meta["classes"], tf.tensors["enriched"].T.copy()))
        else:
            tf = load_tensors(knowledge)
            names = tf.meta["classes"]
            templates = [tf.tensors[f"template.{c:02d}"] for c in range(len(names))]
            save_knowledge(out, names, templates, [tf.tensors[f"descriptions.{c:02d}"] for c in range(len(names))])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "key, value", [("n", "x"), ("dim", None), ("classes", "red-shape")], ids=["n-string", "no-dim", "classes-string"]
)
def test_exit_code_malformed_knowledge_meta(cli_fixtures, tmp_path, capsys, key, value):
    bad = _with_meta(cli_fixtures / "knowledge.json", tmp_path / "kb.json", key, value)
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", knowledge=str(bad))
    argv = build_attrs_argv(cfg, tmp_path / "bank.json")
    assert f"'{key}'" in _main_error(capsys, argv, 2)


@pytest.mark.parametrize(
    "classes", [None, '{"classes": 5}', "{not json", '["background"]', '{"classes": ["red-shape"]}'],
    ids=["missing", "int", "malformed", "list", "no-background"],
)
def test_exit_code_eval_bad_classes(cli_fixtures, tmp_path, capsys, classes):
    path = tmp_path / "classes.json"
    if classes is not None:
        path.write_text(classes)
    masks = str(cli_fixtures / "dataset" / "masks")
    argv = ["eval", "--pred-dir", masks, "--gt-dir", masks, "--classes", str(path)]
    assert str(path) in _main_error(capsys, argv, 2)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("classes.json", lambda doc: {"classes": 5}),
        ("classes.json", lambda doc: {"names": doc["classes"]}),
        ("labels.json", lambda doc: {**doc, "img_0000": 1}),
        ("labels.json", lambda doc: {**doc, "img_0000": [str(v) for v in doc["img_0000"]]}),
        ("labels.json", lambda doc: sorted(doc)),
    ],
    ids=["classes-int", "classes-renamed", "labels-int", "labels-string-ids", "labels-list"],
)
def test_exit_code_dataset_bad_json(cli_fixtures, tmp_path, capsys, name, edit):
    dataset = tmp_path / "dataset"
    shutil.copytree(cli_fixtures / "dataset", dataset)
    (dataset / name).write_text(json.dumps(edit(json.loads((dataset / name).read_text()))))
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", dataset=str(dataset))
    argv = ["run", "--config", str(cfg_path), "--mode", "static-only"]
    assert str(dataset / name) in _main_error(capsys, argv, 2)


@pytest.mark.parametrize("command", ["run"])  # the one command that loads a dataset
def test_exit_code_empty_label_list(cli_fixtures, tmp_path, capsys, command):
    # an image with no foreground class is refused with the other inputs,
    # before any output is written
    dataset = tmp_path / "dataset"
    shutil.copytree(cli_fixtures / "dataset", dataset)
    mask_path = dataset / "masks" / "img_0003.pgm"
    write_pgm(mask_path, np.zeros_like(read_pgm(mask_path)))
    labels = json.loads((dataset / "labels.json").read_text())
    (dataset / "labels.json").write_text(json.dumps({**labels, "img_0003": []}))
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", dataset=str(dataset))
    assert "img_0003" in _main_error(capsys, [command, "--config", str(cfg_path)], 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "what", ["image-missing", "image-directory", "weights-directory", "config-directory", "adapter-missing"]
)
def test_exit_code_missing_or_directory_input(cli_fixtures, cli_trained, tiny_weights, tmp_path, capsys, what):
    out_dir, cfg_path = cli_trained
    inputs = {
        "--weights": str(tiny_weights),
        "--image": str(next((cli_fixtures / "dataset" / "images").glob("*.ppm"))),
        "--config": str(cfg_path),
        "--adapter": str(out_dir / "train" / "checkpoint_000001.json"),
    }
    flag = f"--{what.split('-')[0]}"
    inputs[flag] = str(tmp_path / "missing.ppm") if what.endswith("-missing") else str(tmp_path)
    argv = ["cam", "--mode", "dynamic", "--bank", str(out_dir / "attrs.json"), "--labels", "1",
            "--out", str(tmp_path / "out")]
    argv += [part for item in inputs.items() for part in item]
    assert inputs[flag] in _main_error(capsys, argv, 1 if flag == "--config" else 2)
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def seed_43_inputs(tmp_path_factory):
    """Fixtures of 4 images under seed 43: other inputs of the same shapes."""
    root = tmp_path_factory.mktemp("fx43")
    assert main(["gen-fixtures", "--seed", "43", "--out", str(root), "--images", "4"]) == 0
    return root


# per run input, the files that hold it
INPUT_FILES = {"weights": ("encoder.json", "encoder.bin"), "knowledge": ("knowledge.json", "knowledge.bin"),
               "dataset": ("dataset",)}


@pytest.mark.parametrize("changed", list(INPUT_FILES))
@pytest.mark.parametrize("report", [True, False], ids=["report", "no-report"])
def test_resume_refuses_outputs_of_other_input_contents(tmp_path, seed_43_inputs, changed, report):
    # a run on seed-42 inputs, then one input replaced by its seed-43
    # contents under the same path: the config hash is the same, so only the
    # input digests in each artifact's provenance tell the runs apart. Without
    # `report.json` (a run that stopped before evaluation) `attrs.json` refuses.
    fx = tmp_path / "fx"
    assert main(["gen-fixtures", "--seed", "42", "--out", str(fx), "--images", "4"]) == 0
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", fx, out_dir)
    assert main(["run", "--config", str(cfg_path)]) == 0
    if not report:
        (out_dir / "report.json").unlink()
    before = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
    for name in INPUT_FILES[changed]:
        if (fx / name).is_dir():
            shutil.rmtree(fx / name)
            shutil.copytree(seed_43_inputs / name, fx / name)
        else:
            shutil.copyfile(seed_43_inputs / name, fx / name)
    proc = run_excel("run", "--config", str(cfg_path), "--resume")
    line = one_error_line(proc.returncode, proc.stderr, 1)
    artifact = out_dir / ("report.json" if report else "attrs.json")
    assert line.startswith(f"error: refusing to resume: {artifact} was produced from {changed} ")
    assert str(fx / INPUT_FILES[changed][0]) in line
    assert {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()} == before
    # unchanged inputs resume
    for name in INPUT_FILES[changed]:
        if (fx / name).is_dir():
            shutil.rmtree(fx / name)
    assert main(["gen-fixtures", "--seed", "42", "--out", str(fx), "--images", "4"]) == 0
    assert main(["run", "--config", str(cfg_path), "--resume"]) == 0


@pytest.mark.parametrize(
    "report", ["not json", "[1]", '{"provenance": 5}', "[" * 100_000], ids=["not-json", "list", "provenance-int", "deep"]
)
def test_exit_code_resume_over_corrupt_report(cli_fixtures, tmp_path, report):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "report.json").write_text(report)
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir)
    proc = run_excel("run", "--config", str(cfg_path), "--resume")
    assert str(out_dir / "report.json") in one_error_line(proc.returncode, proc.stderr, 2)


def test_unclustered_configs_that_differ_only_in_topk_resume_each_other(cli_fixtures, tmp_path):
    # clusters 0 reads no topk, so the config hash leaves it out: a resume
    # across such configs is accepted and recomputes nothing; a clustered
    # config hashes topk, as it always has
    out_dir = tmp_path / "run"
    a = write_cli_config(tmp_path / "a.json", cli_fixtures, out_dir, clusters=0, topk=8)
    b = write_cli_config(tmp_path / "b.json", cli_fixtures, out_dir, clusters=0, topk=3)
    assert load_config(a).digest() == load_config(b).digest()
    assert main(["run", "--config", str(a), "--mode", "static-only"]) == 0
    before = _tree(out_dir)
    assert main(["run", "--config", str(b), "--mode", "static-only", "--resume"]) == 0
    after = _tree(out_dir)
    assert {name for name in after if after[name] != before[name]} == {Path("run_config.json")}
    for clusters in (1, 8):
        cfg = PipelineConfig(clusters=clusters, topk=3)
        assert cfg.digest() != dataclasses.replace(cfg, topk=8).digest()
        assert cfg.digest() == config_digest(cfg.settings())


# where gen-fixtures writes each run input
INPUTS = {"weights": "encoder.json", "knowledge": "knowledge.json", "dataset": "dataset"}
TREE_DIFF = Path(__file__).resolve().parent.parent / "tools" / "tree_diff.py"


def _assert_trees_identical(old, new):
    proc = subprocess.run([sys.executable, str(TREE_DIFF), str(old), str(new)], capture_output=True, text=True)
    assert proc.returncode == 0 and " 0 differ; 0 in one tree only" in proc.stdout, proc.stdout


def test_a_run_is_named_by_its_settings_not_its_paths(tmp_path, monkeypatch, capsys):
    # one config run as `c.json` from its own directory, as its absolute
    # path from another directory, and as another config into another
    # out_dir: the config hash covers the settings alone, so the three
    # trees are byte-identical and a resume across the spellings is
    # accepted; fixtures regenerated at the same paths are still refused
    home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
    assert main(["gen-fixtures", "--seed", "42", "--out", str(home / "fx"), "--images", "4"]) == 0
    settings = {"seed": 3, "iterations": 2, "batch_size": 4, "clusters": 8}
    inputs = {key: f"fx/{name}" for key, name in INPUTS.items()}
    write_json(home / "c.json", {**settings, **inputs, "out_dir": "run"})
    moved = {key: str(home / path) for key, path in inputs.items()}
    write_json(elsewhere / "c.json", {**settings, **moved, "out_dir": "moved"})
    monkeypatch.chdir(home)
    assert main(["run", "--config", "c.json"]) == 0
    (home / "run").rename(tmp_path / "relative")
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", str(home / "c.json")]) == 0
    assert main(["run", "--config", "c.json"]) == 0
    _assert_trees_identical(tmp_path / "relative", home / "run")
    _assert_trees_identical(tmp_path / "relative", elsewhere / "moved")
    assert json.loads((home / "run" / "run_config.json").read_text()) == load_config(home / "c.json").settings()
    # the tree the absolute spelling wrote, resumed under the relative one
    monkeypatch.chdir(home)
    before = _tree(home / "run")
    assert main(["run", "--config", "c.json", "--resume"]) == 0
    assert _tree(home / "run") == before
    shutil.rmtree(home / "fx")
    assert main(["gen-fixtures", "--seed", "43", "--out", str(home / "fx"), "--images", "4"]) == 0
    line = _main_error(capsys, ["run", "--config", str(home / "c.json"), "--resume"], 1)
    assert line.startswith(f"error: refusing to resume: {home / 'run' / 'report.json'} was produced from weights ")
    assert _tree(home / "run") == before


def _argv_writing_to(cli_fixtures, attrs_config, command, out):
    """`build-attrs` or `eval` on the fixtures, with `--out out`."""
    if command == "build-attrs":
        return build_attrs_argv(attrs_config, out)
    masks = str(cli_fixtures / "dataset" / "masks")
    return ["eval", "--pred-dir", masks, "--gt-dir", masks, "--classes",
            str(cli_fixtures / "dataset" / "classes.json"), "--out", str(out)]


@pytest.mark.parametrize(
    "command, named, out",
    [("build-attrs", "afile", "afile/out.json"), ("build-attrs", "bank.bin", "bank.bin"), ("eval", "afile", "afile/out.json")],
    ids=["build-attrs-under-file", "build-attrs-bin-suffix", "eval-under-file"],
)
def test_exit_code_unwritable_output_path(cli_fixtures, attrs_config, tmp_path, command, named, out):
    # a directory under a file cannot be made; a `.bin` manifest would be
    # overwritten by its own blob: refused, nothing written
    (tmp_path / "afile").write_text("")
    proc = run_excel(*_argv_writing_to(cli_fixtures, attrs_config, command, tmp_path / out))
    assert str(tmp_path / named) in one_error_line(proc.returncode, proc.stderr, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("command", ["build-attrs", "eval"])
def test_out_directory_is_made_when_missing(cli_fixtures, attrs_config, tmp_path, command):
    # as `cam`, `attn-report` and `run` make theirs
    out = tmp_path / "a" / "b" / "out.json"
    assert main(_argv_writing_to(cli_fixtures, attrs_config, command, out)) == 0
    assert isinstance(json.loads(out.read_text(encoding="utf-8")), dict)
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*.json"))] == ["a/b/out.json"]


@pytest.fixture(scope="module")
def narrow_fixtures(tmp_path_factory):
    """32-dim fixtures for the 64 px images: (knowledge file, a bank built from it)."""
    root = tmp_path_factory.mktemp("narrowfx")
    paths = generate_fixtures(42, FixtureSpec(images=4, dim=32, heads=2, mlp_dim=64), root)
    bank = build_text_bank(ingest_knowledge(paths["knowledge"]), clusters=8, topk=4, lam=0.5, rng=Rng(0))
    return paths["knowledge"], save_bank(root / "bank.json", bank)


@pytest.mark.parametrize("case", ["cam-static", "cam-dynamic", "run"])
def test_exit_code_bank_dim_mismatch_before_encode(cli_fixtures, cli_trained, narrow_fixtures, tmp_path, case):
    # a 32-dim bank or knowledge file against the 64-dim weights fails where
    # the two meet, naming both files, before an image is encoded or --out made
    knowledge, bank = narrow_fixtures
    out = tmp_path / "out"
    weights = cli_fixtures / "encoder.json"
    if case == "run":
        cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out, knowledge=str(knowledge))
        proc = run_excel("run", "--config", str(cfg_path))
        named = knowledge
    else:
        image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
        checkpoint = cli_trained[0] / "train" / "checkpoint_000001.json"
        adapter = ["--adapter", str(checkpoint)] if case == "cam-dynamic" else []
        proc = run_excel("cam", "--mode", case.split("-")[1], "--weights", str(weights), "--bank", str(bank),
                         "--image", str(image), "--labels", "1", *adapter, "--out", str(out))
        named = bank
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(named) in line and str(weights) in line and "dim 32" in line
    assert not (out / "static").exists() if case == "run" else not out.exists()


@pytest.fixture(scope="module")
def two_class_knowledge(tmp_path_factory):
    """A knowledge file for two classes, one fewer than the dataset's."""
    root = tmp_path_factory.mktemp("twoclass")
    return generate_fixtures(42, FixtureSpec(classes=2, images=4), root)["knowledge"]


@pytest.mark.parametrize("case", ["run-two-classes", "run-reordered"])
def test_exit_code_bank_classes_differ_from_dataset(cli_fixtures, two_class_knowledge, tmp_path, case):
    # a knowledge file whose classes are not the dataset's foreground classes
    # in order fails where the two meet, naming both files, before any CAM
    if case == "run-two-classes":
        knowledge = two_class_knowledge
    else:
        source = cli_fixtures / "knowledge.json"
        reordered = load_tensors(source).meta["classes"][::-1]
        knowledge = _with_meta(source, tmp_path / "knowledge.json", "classes", reordered)
    out = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out, knowledge=str(knowledge))
    proc = run_excel("run", "--config", str(cfg_path))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(knowledge) in line and str(cli_fixtures / "dataset" / "classes.json") in line
    # the bank is checked before it is saved: no output directory is created
    assert not out.exists()


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """A dataset of 128 px images, twice the size the default weights take."""
    root = tmp_path_factory.mktemp("widefx")
    return generate_fixtures(42, FixtureSpec(images=2, image_size=128), root)["dataset"]


@pytest.mark.parametrize("command", ["run"])  # the one command that loads a dataset
def test_exit_code_dataset_image_size_differs_from_weights(cli_fixtures, wide_dataset, tmp_path, command):
    # 128 px images against weights for 64 px fail while the dataset is
    # loaded, naming the image and both sizes, before any output is written
    out = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out, dataset=str(wide_dataset))
    proc = run_excel(command, "--config", str(cfg_path))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(wide_dataset / "images" / "img_0000.ppm") in line and "128x128" in line and "64x64" in line
    assert not (out / "attrs.json").exists() and not (out / "static").exists() and not (out / "train").exists()


@pytest.mark.parametrize(
    "override",
    [{"fusion_kernel": 2}, {"alpha": -1}, {"lr": -1}, {"clusters": -1}, {"iterations": -5}],
    ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()),
)
def test_exit_code_cam_config_value_out_of_range(cli_fixtures, cli_trained, tmp_path, capsys, override):
    # `cam --config` refuses the config values that `run` and `train` refuse,
    # even those a static CAM does not read
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["cam", "--mode", "static", "--weights", str(cli_fixtures / "encoder.json"),
            "--bank", str(cli_trained[0] / "attrs.json"), "--image", str(image), "--labels", "1",
            "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert "must be" in _main_error(capsys, argv, 1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_exit_code_cam_labels_outside_bank(cli_fixtures, cli_trained, tmp_path, mode):
    # --labels ids are checked against the bank's classes before the encode
    out_dir, _ = cli_trained
    bank, out = out_dir / "attrs.json", tmp_path / "out"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    adapter = ["--adapter", str(out_dir / "train" / "checkpoint_000001.json")] if mode == "dynamic" else []
    proc = run_excel("cam", "--mode", mode, "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(bank),
                     "--image", str(image), "--labels", "1,9", *adapter, "--out", str(out))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert "--labels" in line and "class id 9" in line and str(bank) in line
    assert not out.exists()


# --------------------------------------------------------------------------
# one JSON layout


def test_every_json_file_has_the_one_layout(cli_fixtures, tmp_path):
    # gen-fixtures and a full run write each JSON file as write_json would
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=2)
    assert main(["run", "--config", str(cfg_path)]) == 0
    files = sorted([cfg_path, *cli_fixtures.rglob("*.json"), *out_dir.rglob("*.json")])
    assert len(files) > 20
    for path in files:
        written = path.read_bytes()
        canonical = write_json(tmp_path / "canonical.json", json.loads(written)).read_bytes()
        assert written == canonical, path


# --------------------------------------------------------------------------
# thread-count independence


def assert_run_bytes_do_not_depend_on_blas_threads(tmp_path, fixture_args, run_args, min_files, **overrides):
    """`excel run` under 1 and 2 BLAS/OpenMP threads on fixtures made by
    `gen-fixtures *fixture_args` must leave byte-identical output trees."""
    fixtures = tmp_path / "fx"
    assert main(["gen-fixtures", "--seed", "42", "--out", str(fixtures), *fixture_args]) == 0
    trees = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        cfg = write_cli_config(tmp_path / f"cfg{threads}.json", fixtures, out_dir, **overrides)
        proc = run_excel("run", "--config", str(cfg), *run_args, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()})
    assert trees[0].keys() == trees[1].keys() and len(trees[0]) > min_files
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_full_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a small full pipeline at T=17 tokens, adapter training included
    assert_run_bytes_do_not_depend_on_blas_threads(
        tmp_path, ["--images", "4"], [], 10, iterations=2
    )


def test_static_run_bytes_at_256px_do_not_depend_on_blas_threads(tmp_path):
    # at T=257 tokens the encoder's products are large enough for BLAS to
    # split them across threads
    assert_run_bytes_do_not_depend_on_blas_threads(
        tmp_path, ["--images", "2", "--image-size", "256"], ["--mode", "static-only"], 4
    )


def test_full_run_bytes_at_256px_do_not_depend_on_blas_threads(tmp_path):
    # three T=257 images are three chunks, the first two in flight at once:
    # in the static and dynamic stages the helper thread's products run
    # beside the calling thread's and beside BLAS's own threads
    assert_run_bytes_do_not_depend_on_blas_threads(
        tmp_path, ["--images", "3", "--image-size", "256"], [], 10, iterations=2
    )
