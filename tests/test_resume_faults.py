"""A run that fails at any write leaves no partial file, and `run --resume`
then finishes it into the tree a fresh run writes.

Every output goes through `blobio.write_file`, which lands a file with one
`os.replace`; making that rename fail at its n-th call stops a run right
after its n-1-th file landed, as a process killed there would."""

import json
import os
from pathlib import Path

import pytest

from excel import training_eval
from excel.blobio import load_tensors
from excel.cli import main
from excel.config import parse_config, save_config
from excel.fixtures import FixtureSpec, generate_fixtures

# the JSON files of a run that are not tensor manifests
NOT_MANIFESTS = {"run_config.json", "report.json"}


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _config(path: Path, fixtures: Path, out_dir: Path) -> str:
    mapping = {
        "seed": 3,
        "weights": str(fixtures / "encoder.json"),
        "knowledge": str(fixtures / "knowledge.json"),
        "dataset": str(fixtures / "dataset"),
        "out_dir": str(out_dir),
        "iterations": 2,
        "checkpoint_every": 1,
        "batch_size": 4,
        "clusters": 8,
    }
    save_config(path, parse_config(mapping))
    return str(path)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """(fixtures, the tree of a fresh full run on them, its count of
    files landed): 4 images, 2 iterations, a checkpoint at each."""
    root = tmp_path_factory.mktemp("faults")
    generate_fixtures(42, FixtureSpec(images=4), root / "fx")
    cfg = _config(root / "cfg.json", root / "fx", root / "out")
    landed = []
    real = os.replace

    def counting(src, dst):
        landed.append(dst)
        real(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", counting)
        assert main(["run", "--config", cfg]) == 0
    return root / "fx", _tree(root / "out"), len(landed)


def _fail_at(n: int):
    """An `os.replace` that raises at its n-th call (from 1) and renames otherwise."""
    real, calls = os.replace, [0]

    def replace(src, dst):
        calls[0] += 1
        if calls[0] == n:
            raise OSError(f"injected failure at write {n}")
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
    assert landed == len(tree) == 36


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
