"""A run that fails or is interrupted at any write leaves no partial file,
and `run --resume` then finishes it into the tree a fresh run writes.

Every output goes through `blobio.write_file`, which lands a file with one
`os.replace`; making that rename fail at its n-th call stops a run right
after its n-1-th file landed, as a process killed there would."""

import json
import math
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from excel import blobio, encoder, training_eval
from excel.blobio import load_tensors
from excel.cli import main
from excel.config import load_config, parse_config
from excel.dataset import load_dataset
from excel.fixtures import FixtureSpec, generate_fixtures
from excel.pipeline import run_pipeline

# the JSON files of a run that are not tensor manifests
NOT_MANIFESTS = {"run_config.json", "report.json"}


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _config(path: Path, fixtures: Path, out_dir: Path, **overrides) -> str:
    mapping = {
        "seed": 3,
        "weights": str(fixtures / "encoder.json"),
        "knowledge": str(fixtures / "knowledge.json"),
        "dataset": str(fixtures / "dataset"),
        "out_dir": str(out_dir),
        "iterations": 2,
        "batch_size": 4,
        "clusters": 8,
        **overrides,
    }
    blobio.write_json(path, parse_config(mapping).to_dict())
    return str(path)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """(fixtures, the tree of a fresh full run on them with its files in
    the order they landed, its count of files landed): 4 images, 2
    iterations."""
    root = tmp_path_factory.mktemp("faults")
    generate_fixtures(42, FixtureSpec(images=4), root / "fx")
    cfg = _config(root / "cfg.json", root / "fx", root / "out")
    landed = []
    real = os.replace

    def recording(src, dst):
        landed.append(Path(dst).relative_to(root / "out").as_posix())
        real(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", recording)
        assert main(["run", "--config", cfg]) == 0
    on_disk = _tree(root / "out")
    return root / "fx", {name: on_disk[name] for name in landed}, len(landed)


def _fail_at(n: int, error: type[BaseException] = OSError):
    """An `os.replace` that raises `error` at its n-th call (from 1) and renames otherwise."""
    real, calls = os.replace, [0]

    def replace(src, dst):
        calls[0] += 1
        if calls[0] == n:
            raise error(f"injected failure at write {n}")
        real(src, dst)

    return replace


def _assert_no_partial_file(out_dir: Path):
    assert not list(out_dir.rglob("*.tmp"))
    for path in out_dir.rglob("*.json"):
        json.loads(path.read_text(encoding="utf-8"))
        if path.name not in NOT_MANIFESTS:
            load_tensors(path)


def test_fresh_run_lands_each_file_once(fresh):
    _, tree, landed = fresh
    assert landed == len(tree) == 32


def test_a_run_lands_its_files_in_order(fresh):
    # each stage's resume key lands after the files it vouches for, and
    # the report after every other file
    fixtures, tree, _ = fresh
    stems = [rec.name for rec in load_dataset(fixtures / "dataset").images]

    def cams(stage):
        return [f"{stage}/{stem}.{ext}" for stem in stems for ext in ("cams.bin", "cams.json", "pseudo.pgm")]

    assert list(tree) == [
        "attrs.bin", "attrs.json", "run_config.json", *cams("static"),
        "train/loss_curve.csv", "train/checkpoint_000002.bin", "train/checkpoint_000002.json",
        *cams("dynamic"), "report.json", "report.txt",
    ]


def test_a_run_leaves_no_thread_behind(fresh, tmp_path, monkeypatch):
    # the writer thread ends with the run, after a success and after a
    # failed first write
    fixtures, _, _ = fresh
    before = threading.enumerate()
    run_pipeline(load_config(_config(tmp_path / "ok.json", fixtures, tmp_path / "ok")))
    assert threading.enumerate() == before
    monkeypatch.setattr(os, "replace", _fail_at(1))
    with pytest.raises(OSError, match="injected failure at write 1"):
        run_pipeline(load_config(_config(tmp_path / "failed.json", fixtures, tmp_path / "failed")))
    assert threading.enumerate() == before


@pytest.mark.parametrize("n", [4, 15], ids=["first-static", "last-static"])
def test_a_failed_write_is_the_error_of_a_run_that_fails_later(fresh, tmp_path, monkeypatch, capsys, n):
    # training diverges at its first loss, a NaN, after every static file
    # is written and before any other: a failed static landing is still
    # the run's error, as when the write itself raised
    fixtures, _, _ = fresh
    real = training_eval.diversity_loss_gradient_stack
    monkeypatch.setattr(training_eval, "diversity_loss_gradient_stack", lambda *a: [math.nan for _ in real(*a)])
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", fixtures, out_dir)
    assert main(["run", "--config", cfg]) == 3
    assert "training diverged at iteration 0" in capsys.readouterr().err
    shutil.rmtree(out_dir)
    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", _fail_at(n))
        assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: injected failure at write {n}\n"
    _assert_no_partial_file(out_dir)
    assert len(_tree(out_dir)) == n - 1


def test_no_landing_sees_more_than_the_bound_queued(fresh, tmp_path, monkeypatch):
    # a slow disk: the run waits for the writer once QUEUE_FILES files are
    # queued, and still lands the fresh run's tree in its order
    fixtures, tree, _ = fresh
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", fixtures, out_dir)
    monkeypatch.setattr(blobio, "QUEUE_FILES", 2)
    writers, landings = [], []
    real_init, real_replace = blobio._Writer.__init__, os.replace

    def recording_init(self):
        real_init(self)
        writers.append(self)

    def slow_replace(src, dst):
        landings.append((threading.current_thread(), writers[-1].pending.qsize(), Path(dst)))
        time.sleep(0.01)
        real_replace(src, dst)

    monkeypatch.setattr(blobio._Writer, "__init__", recording_init)
    monkeypatch.setattr(os, "replace", slow_replace)
    assert main(["run", "--config", cfg]) == 0
    assert len(writers) == 1 and {thread for thread, _, _ in landings} == {writers[0].thread}
    assert max(depth for _, depth, _ in landings) == 2
    assert [path.relative_to(out_dir).as_posix() for _, _, path in landings] == list(tree)
    assert _tree(out_dir) == tree


def test_resume_after_a_failure_at_every_write_matches_a_fresh_run(fresh, tmp_path, monkeypatch, capsys):
    fixtures, tree, landed = fresh
    for n in range(1, landed + 1):
        out_dir = tmp_path / f"fail{n}"
        cfg = _config(tmp_path / f"cfg{n}.json", fixtures, out_dir)
        with monkeypatch.context() as mp:
            mp.setattr(os, "replace", _fail_at(n))
            assert main(["run", "--config", cfg]) == 2, n
        assert capsys.readouterr().err == f"error: injected failure at write {n}\n"
        _assert_no_partial_file(out_dir)
        assert len(_tree(out_dir)) == n - 1
        assert main(["run", "--config", cfg, "--resume"]) == 0, n
        assert _tree(out_dir) == tree, n


def test_resume_after_a_failed_loss_curve_writes_it(fresh, tmp_path, monkeypatch):
    # the loss curve lands before the final checkpoint, which is what a
    # resume reuses: a run that fails writing the curve retrains
    fixtures, tree, _ = fresh
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", fixtures, out_dir)

    def failing(path, curve):
        raise OSError("injected")

    with monkeypatch.context() as mp:
        mp.setattr(training_eval, "write_loss_curve", failing)
        assert main(["run", "--config", cfg]) == 2
    assert not (out_dir / "train" / "checkpoint_000002.json").exists()
    assert main(["run", "--config", cfg, "--resume"]) == 0
    assert _tree(out_dir) == tree


def _interrupted(argv) -> int:
    """`main(argv)`'s exit code; a test failure if the interrupt escapes it."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


def _assert_interrupt_line(err: str):
    assert err.count("\n") == 1 and err.startswith("error: interrupted") and "--resume" in err, err


@pytest.mark.parametrize("n", [1, 4, 17, 32], ids=["first", "static", "checkpoint", "last"])
def test_an_interrupted_run_prints_one_line_and_resumes_to_a_fresh_run(fresh, tmp_path, monkeypatch, capsys, n):
    # an interrupt at the n-th landing, on the writer thread, reaches the
    # run as a failed landing does: exit 130 and one line, no traceback
    fixtures, tree, _ = fresh
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", fixtures, out_dir)
    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", _fail_at(n, KeyboardInterrupt))
        assert _interrupted(["run", "--config", cfg]) == 130
    _assert_interrupt_line(capsys.readouterr().err)
    _assert_no_partial_file(out_dir)
    assert len(_tree(out_dir)) == n - 1
    assert main(["run", "--config", cfg, "--resume"]) == 0
    assert _tree(out_dir) == tree


def test_an_interrupt_on_the_encoder_helper_prints_one_line(tmp_path, monkeypatch, capsys):
    # 9 images at T=65 make two encoder chunks, the first on the helper
    # thread: an interrupt there is the run's, printed once
    generate_fixtures(42, FixtureSpec(images=9, patch_size=8), tmp_path / "fx")
    fresh_cfg = _config(tmp_path / "fresh.json", tmp_path / "fx", tmp_path / "fresh")
    assert main(["run", "--config", fresh_cfg, "--mode", "static-only"]) == 0
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", tmp_path / "fx", out_dir)
    real, helpers = encoder.encode_stack, []

    def encode_stack(*args):
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
            raise KeyboardInterrupt
        return real(*args)

    with monkeypatch.context() as mp:
        mp.setattr(encoder, "encode_stack", encode_stack)
        assert _interrupted(["run", "--config", cfg, "--mode", "static-only"]) == 130
    assert helpers
    _assert_interrupt_line(capsys.readouterr().err)
    assert main(["run", "--config", cfg, "--mode", "static-only", "--resume"]) == 0
    assert _tree(out_dir) == _tree(tmp_path / "fresh")


def test_a_resume_removes_the_temp_files_in_the_tree(fresh, tmp_path, monkeypatch):
    # a process killed between a write and its rename leaves `<name>.tmp`;
    # a resume removes each one, also beside the bank and the checkpoint
    # that it reuses and does not rewrite
    fixtures, tree, _ = fresh
    out_dir = tmp_path / "out"
    cfg = _config(tmp_path / "cfg.json", fixtures, out_dir)
    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", _fail_at(24))
        assert main(["run", "--config", cfg]) == 2
    planted = ["static/img_0000.cams.json.tmp", "attrs.json.tmp", "train/checkpoint_000002.json.tmp"]
    for name in planted:
        (out_dir / name).write_bytes(b"{")
    assert main(["run", "--config", cfg, "--resume"]) == 0
    assert not list(out_dir.rglob("*.tmp"))
    assert _tree(out_dir) == tree
