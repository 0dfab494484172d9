import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import excel
from excel.blobio import load_tensors, save_tensors, write_json
from excel.cli import build_parser, main
from excel.config import PATH_KEYS, PipelineConfig, parse_config, save_config
from excel.encoder import Calibration, save_weights
from excel.hashing import fnv1a64
from excel.fixtures import FixtureSpec, generate_fixtures, make_encoder_weights
from excel.images import read_pgm, write_pgm
from excel.numerics import Rng
from excel.text_enrichment import build_text_bank, ingest_knowledge, save_bank
from conftest import save_non_finite


@pytest.fixture(scope="module")
def cli_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("clifx")
    code = main(["gen-fixtures", "--seed", "42", "--out", str(root), "--images", "8"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def cli_trained(cli_fixtures, tmp_path_factory):
    """A one-iteration `excel train` run: (its out_dir, its config path)."""
    root = tmp_path_factory.mktemp("clitrain")
    out_dir = root / "dynrun"
    cfg_path = write_cli_config(root / "cfg.json", cli_fixtures, out_dir, iterations=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    return out_dir, cfg_path


def run_excel(*argv, **env):
    """`python -m excel *argv` in a fresh interpreter, with `env` added to
    its environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(excel.__file__).parent.parent), **env}
    return subprocess.run([sys.executable, "-m", "excel", *argv], capture_output=True, text=True, env=env)


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
    save_config(path, parse_config(mapping))
    return path


def test_gen_fixtures_writes_tree(cli_fixtures):
    assert (cli_fixtures / "encoder.json").exists()
    assert (cli_fixtures / "knowledge.json").exists()
    assert (cli_fixtures / "dataset" / "classes.json").exists()
    assert len(list((cli_fixtures / "dataset" / "images").glob("*.ppm"))) == 8


def test_build_attrs_cli(cli_fixtures, tmp_path):
    out = tmp_path / "bank.json"
    code = main(
        [
            "build-attrs",
            "--kb",
            str(cli_fixtures / "knowledge.json"),
            "--clusters",
            "8",
            "--topk",
            "4",
            "--lambda",
            "0.5",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists() and out.with_suffix(".bin").exists()


def test_build_attrs_manifest_leaves_out_its_path(cli_fixtures, tmp_path):
    # --out is where the bank lands, not what it is: the same bank built
    # into two directories stamps the same provenance
    manifests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        out = tmp_path / sub / "bank.json"
        argv = ["build-attrs", "--kb", str(cli_fixtures / "knowledge.json"), "--clusters", "8", "--out", str(out)]
        assert main(argv) == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1]


def test_cli_defaults_are_the_types_they_fill():
    # each default is the one of the type the flag fills, written once
    parser = build_parser()
    gen = vars(parser.parse_args(["gen-fixtures", "--out", "fx"]))
    assert FixtureSpec(**{k: v for k, v in gen.items() if k not in ("command", "seed", "out")}) == FixtureSpec()
    attrs = parser.parse_args(["build-attrs", "--kb", "k.json", "--clusters", "4", "--out", "b.json"])
    assert (attrs.topk, attrs.lam, attrs.seed) == (PipelineConfig().topk, PipelineConfig().lam, PipelineConfig().seed)
    report = parser.parse_args(["attn-report", "--weights", "w.json", "--image", "i.ppm", "--out", "a"])
    assert report.calib_layers == Calibration().layers
    assert PipelineConfig().calibration() == Calibration()


def test_build_attrs_writes_the_runs_bank(cli_fixtures, tmp_path):
    # given a run's clusters, topk, lambda and seed, build-attrs writes the
    # run's bank blob byte for byte and its manifest up to provenance
    settings = {"clusters": 6, "topk": 5, "lam": 0.25, "seed": 9}
    cfg = write_cli_config(tmp_path / "cfg.json", cli_fixtures, tmp_path / "run", **settings)
    assert main(["run", "--config", str(cfg), "--mode", "static-only"]) == 0
    out = tmp_path / "cli" / "attrs.json"
    out.parent.mkdir()
    argv = ["build-attrs", "--kb", str(cli_fixtures / "knowledge.json"), "--clusters", "6", "--topk", "5",
            "--lambda", "0.25", "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    run = tmp_path / "run" / "attrs.json"
    assert out.with_suffix(".bin").read_bytes() == run.with_suffix(".bin").read_bytes()
    manifests = [json.loads(path.read_text()) for path in (out, run)]
    assert manifests[0].pop("provenance") != manifests[1].pop("provenance")
    assert manifests[0] == manifests[1]


def test_checkpoint_train_config_holds_the_settings(cli_trained):
    # every config key but where the run reads and writes and the static
    # stage's policy
    meta = load_tensors(cli_trained[0] / "train" / "checkpoint_000001.json").meta
    settings = set(PipelineConfig().to_dict()) - {*PATH_KEYS, "policy"}
    assert set(meta["train_config"]) == settings
    assert len(settings) == 21


def test_cam_static_cli(cli_fixtures, tmp_path):
    bank = tmp_path / "bank.json"
    main(
        ["build-attrs", "--kb", str(cli_fixtures / "knowledge.json"), "--clusters", "8", "--out", str(bank)]
    )
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
    out_dir = tmp_path / "trainrun"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=2)
    code = main(["train", "--config", str(cfg_path)])
    assert code == 0
    assert (out_dir / "train" / "loss_curve.csv").exists()
    assert (out_dir / "train" / "checkpoint_000002.json").exists()


def test_train_and_run_write_the_same_training_output(cli_fixtures, tmp_path):
    # `excel train` runs run's stages up to training: for one config both
    # must leave byte-identical train/ trees and attribute banks, whether
    # run's static stage is the calibrated pass (the default policy) or
    # run makes that pass separately (value_value)
    for policy in ("intra_correlation", "value_value"):
        trees = []
        for command in ("train", "run"):
            out_dir = tmp_path / policy / command
            cfg_path = write_cli_config(
                tmp_path / f"{policy}-{command}.json", cli_fixtures, out_dir,
                iterations=3, checkpoint_every=2, policy=policy,
            )
            assert main([command, "--config", str(cfg_path)]) == 0
            files = [out_dir / "attrs.json", out_dir / "attrs.bin", *sorted((out_dir / "train").rglob("*"))]
            trees.append({p.relative_to(out_dir): p.read_bytes() for p in files if p.is_file()})
        assert Path("train/checkpoint_000002.json") in trees[0], policy
        assert trees[0].keys() == trees[1].keys(), policy
        assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == [], policy


def _with_head_tensors(checkpoint, path):
    """A copy of `checkpoint` in the older layout, which also stored an
    affine segmentation head and its label count."""
    tf = load_tensors(checkpoint)
    tensors = dict(tf.tensors)
    tensors["seghead.w"] = np.full((4, 12 * 64), 0.5, np.float32)
    tensors["seghead.b"] = np.zeros(4, np.float32)
    return save_tensors(path, tensors, meta={**tf.meta, "num_labels": 4}, provenance=tf.provenance)


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
    # a checkpoint that also carries the head tensors loads, with the same result
    legacy = _with_head_tensors(checkpoint, tmp_path / "legacy.json")
    assert cam(legacy, tmp_path / "legacycams") == 0
    for path in sorted(out.iterdir()):
        assert (tmp_path / "legacycams" / path.name).read_bytes() == path.read_bytes(), path.name


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


def test_attn_report_cli(cli_fixtures, tmp_path):
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    out = tmp_path / "attn"
    code = main(
        [
            "attn-report",
            "--weights",
            str(cli_fixtures / "encoder.json"),
            "--image",
            str(image),
            "--policies",
            "qk,vv,ic,icb",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "attn_report.json").read_text())
    assert set(summary) == {"qk", "vv", "ic", "icb"}
    for name in summary:
        assert (out / f"relations_{name}.json").exists()


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
    # None deletes the key
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    manifest = json.loads(checkpoint.read_text())
    (tmp_path / "bad.bin").write_bytes(checkpoint.with_suffix(".bin").read_bytes())
    manifest["blob"] = "bad.bin"
    if value is None:
        del manifest["meta"][key]
    else:
        manifest["meta"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "cam", "--mode", "dynamic", "--weights", str(cli_fixtures / "encoder.json"),
        "--bank", str(out_dir / "attrs.json"), "--image", str(image), "--labels", "1", "--adapter", str(bad),
        "--out", str(tmp_path / "out"),
    )
    assert str(bad) in one_error_line(proc.returncode, proc.stderr, 2)


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("run", {"alpha": 1e300}, "relation matrix contains non-finite values"),
        ("train", {"lr": 1e300}, "non-finite update for parameter 'delta.00.w'"),
    ],
    ids=["run-alpha", "train-lr"],
)
def test_numeric_failure_prints_only_its_error_line(cli_fixtures, tmp_path, command, setting, message):
    # values past the float32 range make numpy warn as they are cast; the
    # warnings print nothing before the one `error:` line, and a failed
    # training writes no final checkpoint
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=1, **setting)
    proc = run_excel(command, "--config", str(cfg_path))
    assert message in one_error_line(proc.returncode, proc.stderr, 3)
    if command == "train":
        assert not (out_dir / "train" / "checkpoint_000001.json").exists()


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0], ids=["negative", "zero", "zero-int"])
@pytest.mark.parametrize("command", ["cam-dynamic", "attn-report-icb"])
def test_exit_code_checkpoint_alpha_not_positive(cli_fixtures, cli_trained, tmp_path, capsys, command, alpha):
    # the relation scale is positive wherever an adapter is made, so a
    # checkpoint that says otherwise is refused where it is loaded
    out_dir, _ = cli_trained
    bad = _with_meta(out_dir / "train" / "checkpoint_000001.json", tmp_path / "bad.json", "alpha", alpha)
    image = str(next((cli_fixtures / "dataset" / "images").glob("*.ppm")))
    if command == "cam-dynamic":
        argv = ["cam", "--mode", "dynamic", "--bank", str(out_dir / "attrs.json"), "--labels", "1"]
    else:
        argv = ["attn-report", "--policies", "icb"]
    argv += ["--weights", str(cli_fixtures / "encoder.json"), "--image", image, "--adapter", str(bad)]
    line = _main_error(capsys, [*argv, "--out", str(tmp_path / "out")], 2)
    assert str(bad) in line and "meta 'alpha' must be a finite number > 0" in line
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def narrow_weights(tmp_path_factory):
    """A 32-dim, 2-head encoder for the fixture's 64 px images."""
    spec = FixtureSpec(dim=32, heads=2, mlp_dim=64)
    return save_weights(tmp_path_factory.mktemp("narrow") / "encoder.json", make_encoder_weights(Rng(0), spec))


@pytest.mark.parametrize("case", ["cam-width", "attn-report-width", "kernel-3-flat-fusion"])
def test_exit_code_checkpoint_mismatch(cli_fixtures, cli_trained, narrow_weights, tmp_path, case):
    # the trained checkpoint adapts 64-dim features and has a kernel-1 (2-D) fusion.w
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    weights, expected = narrow_weights, "the weights have dim 32"
    if case == "kernel-3-flat-fusion":
        checkpoint = _with_meta(checkpoint, tmp_path / "k3.json", "fusion_kernel", 3)
        weights, expected = cli_fixtures / "encoder.json", "tensor 'adapter.fusion.w'"
    image = str(next((cli_fixtures / "dataset" / "images").glob("*.ppm")))
    if case == "attn-report-width":
        argv = ["attn-report", "--weights", str(weights), "--image", image, "--policies", "icb"]
    else:
        argv = ["cam", "--mode", "dynamic", "--weights", str(weights), "--bank", str(out_dir / "attrs.json"),
                "--image", image, "--labels", "1"]
    proc = run_excel(*argv, "--adapter", str(checkpoint), "--out", str(tmp_path / "out"))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(checkpoint) in line and expected in line


def test_attn_report_refuses_a_calibration_the_adapter_was_not_trained_under(cli_fixtures, cli_trained, tmp_path):
    # the adapter was trained over the default 5 calibrated layers: an icb
    # report over 3 is refused before --out exists, one over 5 is written
    out_dir, _ = cli_trained
    checkpoint = out_dir / "train" / "checkpoint_000001.json"
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
            "--policies", "icb", "--adapter", str(checkpoint)]
    proc = run_excel(*argv, "--calib-layers", "3", "--out", str(tmp_path / "out"))
    line = one_error_line(proc.returncode, proc.stderr, 1)
    assert str(checkpoint) in line and "calib_layers 5" in line and "--calib-layers asks for 3" in line
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "relations_icb.json").exists()


@pytest.mark.parametrize("value", ["13", "-1"])
def test_exit_code_attn_report_calib_layers_out_of_range(cli_fixtures, tmp_path, value):
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel(
        "attn-report", "--weights", str(cli_fixtures / "encoder.json"), "--image", str(image),
        "--calib-layers", value, "--out", str(tmp_path / "out"),
    )
    assert f"calib_layers must be in 0..12, got {value}" in one_error_line(proc.returncode, proc.stderr, 1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "x"])
def test_exit_code_build_attrs_lambda_not_finite_non_negative(cli_fixtures, tmp_path, capsys, value):
    argv = ["build-attrs", "--kb", str(cli_fixtures / "knowledge.json"), "--clusters", "8",
            "--lambda", value, "--out", str(tmp_path / "bank.json")]
    line = _main_error(capsys, argv, 1)
    assert "--lambda" in line and repr(value) in line
    assert not (tmp_path / "bank.json").exists()


def test_exit_code_data_error(cli_fixtures, tmp_path):
    # valid config pointing at a broken weights file -> data error (2)
    bad_weights = tmp_path / "bad.json"
    bad_weights.write_text("{not json")
    cfg_path = write_cli_config(
        tmp_path / "cfg.json", cli_fixtures, tmp_path / "out", weights=str(bad_weights)
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_exit_code_numeric_error(cli_fixtures, tmp_path):
    cfg_path = write_cli_config(
        tmp_path / "cfg.json",
        cli_fixtures,
        tmp_path / "out",
        iterations=2,
        divergence_threshold=1e-9,
    )
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
        argv = ["build-attrs", "--kb", str(kb), "--clusters", "8", "--out", str(tmp_path / "bank.json")]
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


def _with_meta(manifest_path, out_path, key, value):
    """A copy of a tensor file whose meta `key` is `value`; None deletes it."""
    tf = load_tensors(manifest_path)
    meta = {k: v for k, v in tf.meta.items() if k != key}
    if value is not None:
        meta[key] = value
    tensors = dict(tf.tensors)
    return save_tensors(out_path, tensors, meta=meta, provenance=tf.provenance)


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
        ("lambda", None),
        ("classes", None),
        ("dim", "64"),
        ("topk", 0),
        ("clustered", 1),
        ("neighbors", [{"indices": [0], "scores": []}]),
    ],
    ids=["no-lambda", "no-classes", "dim-string", "topk-zero", "clustered-int", "neighbors-ragged"],
)
def test_exit_code_malformed_bank_meta(cli_fixtures, cli_trained, tiny_weights, tmp_path, capsys, key, value):
    out_dir, _ = cli_trained
    bad = _with_meta(out_dir / "attrs.json", tmp_path / "bank.json", key, value)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    argv = ["cam", "--weights", str(tiny_weights), "--bank", str(bad),
            "--image", str(image), "--labels", "1", "--out", str(tmp_path / "out")]
    assert f"'{key}'" in _main_error(capsys, argv, 2)


def test_exit_code_bank_centroids_wrong_shape(cli_fixtures, cli_trained, tmp_path):
    # centroids must be (B, dim) and raw_centroids the same shape; a static
    # CAM never reads them, so only the load can refuse them
    tf = load_tensors(cli_trained[0] / "attrs.json")
    tensors = {**tf.tensors, "centroids": np.ones((5, 3), np.float32), "raw_centroids": np.ones(7, np.float32)}
    bad = save_tensors(tmp_path / "bad.json", tensors, meta=tf.meta, provenance=tf.provenance)
    image = next((cli_fixtures / "dataset" / "images").glob("*.ppm"))
    proc = run_excel("cam", "--mode", "static", "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(bad),
                     "--image", str(image), "--labels", "1", "--out", str(tmp_path / "out"))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert "'centroids'" in line and "bad.json" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("n", "x"), ("dim", None), ("classes", "red-shape")], ids=["n-string", "no-dim", "classes-string"]
)
def test_exit_code_malformed_knowledge_meta(cli_fixtures, tmp_path, capsys, key, value):
    bad = _with_meta(cli_fixtures / "knowledge.json", tmp_path / "kb.json", key, value)
    argv = ["build-attrs", "--kb", str(bad), "--clusters", "8", "--out", str(tmp_path / "bank.json")]
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


@pytest.mark.parametrize("command", ["run", "train"])
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


def _argv_writing_to(cli_fixtures, command, out):
    """`build-attrs` or `eval` on the fixtures, with `--out out`."""
    if command == "build-attrs":
        return ["build-attrs", "--kb", str(cli_fixtures / "knowledge.json"), "--clusters", "8", "--out", str(out)]
    masks = str(cli_fixtures / "dataset" / "masks")
    return ["eval", "--pred-dir", masks, "--gt-dir", masks, "--classes",
            str(cli_fixtures / "dataset" / "classes.json"), "--out", str(out)]


@pytest.mark.parametrize(
    "command, named, out",
    [("build-attrs", "afile", "afile/out.json"), ("build-attrs", "bank.bin", "bank.bin"), ("eval", "afile", "afile/out.json")],
    ids=["build-attrs-under-file", "build-attrs-bin-suffix", "eval-under-file"],
)
def test_exit_code_unwritable_output_path(cli_fixtures, tmp_path, command, named, out):
    # a directory under a file cannot be made; a `.bin` manifest would be
    # overwritten by its own blob: refused, nothing written
    (tmp_path / "afile").write_text("")
    proc = run_excel(*_argv_writing_to(cli_fixtures, command, tmp_path / out))
    assert str(tmp_path / named) in one_error_line(proc.returncode, proc.stderr, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("command", ["build-attrs", "eval"])
def test_out_directory_is_made_when_missing(cli_fixtures, tmp_path, command):
    # as `cam`, `attn-report` and `run` make theirs
    out = tmp_path / "a" / "b" / "out.json"
    assert main(_argv_writing_to(cli_fixtures, command, out)) == 0
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
        proc = run_excel("cam", "--mode", case.split("-")[1], "--weights", str(weights), "--bank", str(bank),
                         "--image", str(image), "--labels", "1", "--adapter", str(checkpoint), "--out", str(out))
        named = bank
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(named) in line and str(weights) in line and "dim 32" in line
    assert not (out / "static").exists() if case == "run" else not out.exists()


@pytest.fixture(scope="module")
def two_class_knowledge(tmp_path_factory):
    """A knowledge file for two classes, one fewer than the dataset's."""
    root = tmp_path_factory.mktemp("twoclass")
    return generate_fixtures(42, FixtureSpec(classes=2, images=4), root)["knowledge"]


@pytest.mark.parametrize("case", ["run-two-classes", "run-reordered", "train-reordered"])
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
    proc = run_excel(case.split("-")[0], "--config", str(cfg_path))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert str(knowledge) in line and str(cli_fixtures / "dataset" / "classes.json") in line
    # the bank is checked before it is saved: no output directory is created
    assert not out.exists()


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """A dataset of 128 px images, twice the size the default weights take."""
    root = tmp_path_factory.mktemp("widefx")
    return generate_fixtures(42, FixtureSpec(images=2, image_size=128), root)["dataset"]


@pytest.mark.parametrize("command", ["run", "train"])
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
    [{"fusion_kernel": 2}, {"alpha": -1}, {"lr": -1}, {"clusters": 0}, {"iterations": -5}],
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
    proc = run_excel("cam", "--mode", mode, "--weights", str(cli_fixtures / "encoder.json"), "--bank", str(bank),
                     "--image", str(image), "--labels", "1,9",
                     "--adapter", str(out_dir / "train" / "checkpoint_000001.json"), "--out", str(out))
    line = one_error_line(proc.returncode, proc.stderr, 2)
    assert "--labels" in line and "class id 9" in line and str(bank) in line
    assert not out.exists()


# --------------------------------------------------------------------------
# one JSON layout


def test_every_json_file_has_the_one_layout(cli_fixtures, tmp_path):
    # gen-fixtures and a full run write each JSON file as write_json would
    out_dir = tmp_path / "out"
    cfg_path = write_cli_config(tmp_path / "cfg.json", cli_fixtures, out_dir, iterations=2, checkpoint_every=1)
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
        tmp_path, ["--images", "4"], [], 10, iterations=2, checkpoint_every=1
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
        tmp_path, ["--images", "3", "--image-size", "256"], [], 10, iterations=2, checkpoint_every=1
    )
