"""The SHA-256 of every output file of two seed-42 runs, pinned in
`golden_seed42.json`: a change that moves any of those bytes must re-pin
the file, and so names the files it moves.

    PYTHONPATH=src python3 tests/test_golden_digest.py   # re-pin

The two runs, both under config seed 7, are a 64 px full run at
`iterations: 17` and a 256 px, 8-image static-only run. The file's
`excluded` patterns name what it does not pin and `about` says why.
"""

import fnmatch
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from excel.blobio import write_json
from excel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_seed42.json"
ABOUT = (
    "SHA-256 of every file of two runs on seed-42 fixtures under config seed 7: `full`, a 64 px full run at "
    "iterations 17, and `static256`, a 256 px 8-image static-only run. Left out: the trained adapter's outputs, "
    "train/* (checkpoint and loss curve) and dynamic/*.cams.{json,bin}. The loss curve depends on the BLAS "
    "kernel OpenBLAS picks for the CPU, and so do the checkpoint and the dynamic CAM tensors of an adapter "
    "trained in float32; every pseudo-label, report, bank and static output is pinned."
)
EXCLUDED = ["full/train/*", "full/dynamic/*.cams.json", "full/dynamic/*.cams.bin"]
# name -> (gen-fixtures flags, config keys, run flags)
RUNS = {
    "full": ([], {"iterations": 17}, []),
    "static256": (["--image-size", "256", "--images", "8"], {}, ["--mode", "static-only"]),
}


def digests(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file the two runs write under
    `root`, but those `EXCLUDED` names."""
    for name, (fixture_flags, keys, run_flags) in RUNS.items():
        fx = root / f"fx-{name}"
        assert main(["gen-fixtures", "--seed", "42", "--out", str(fx), *fixture_flags]) == 0
        config = {
            "seed": 7,
            "weights": str(fx / "encoder.json"),
            "knowledge": str(fx / "knowledge.json"),
            "dataset": str(fx / "dataset"),
            "out_dir": str(root / name),
            **keys,
        }
        write_json(root / f"{name}.json", config)
        assert main(["run", "--config", str(root / f"{name}.json"), *run_flags]) == 0
    files = sorted(p for name in RUNS for p in (root / name).rglob("*") if p.is_file())
    names = {str(p.relative_to(root)): p for p in files}
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in names.items()
        if not any(fnmatch.fnmatch(name, pattern) for pattern in EXCLUDED)
    }


def test_seed42_outputs_match_the_pinned_digest(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["excluded"] == EXCLUDED
    got = digests(tmp_path)
    capsys.readouterr()
    want = golden["sha256"]
    assert sorted(got.keys() ^ want.keys()) == []
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        pinned = digests(Path(work))
    write_json(GOLDEN, {"about": ABOUT, "excluded": EXCLUDED, "sha256": pinned})
    print(f"{GOLDEN}: {len(pinned)} files", file=sys.stderr)
