#!/usr/bin/env python3
"""Time two checkouts against each other in one process.

    tools/ab_time.py PARENT CHANGE [--workload wide-static|toy-train|cam-cli] [--pairs 12]

Imports each checkout's `src/excel` under its own package name and
alternates warm operations of the two on one fixture, under one BLAS
thread: runs in separate processes on a small shared VM can differ by 2x
within a minute. An operation is a `run_pipeline` call, or for cam-cli
one `excel cam --mode dynamic` request (`cli.main`) against the
checkpoint of a 2-iteration full run made once at set-up; the requests
cycle through the fixture images, both sides of a pair on the same one.
Prints each side's median and quartiles, the median pair ratio CHANGE /
PARENT, and whether the outputs are byte-identical: the two output trees,
or for cam-cli the three files of every request; exits 1 when they are
not. Its last line holds the two numbers a gain is judged on: the pairs
CHANGE won out of the pairs run (a tie counts for neither side), and the
difference of the medians against the parent's interquartile spread.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# (fixture spec, run_pipeline mode, extra config keys), as in perfbench/worker.py;
# for cam-cli the mode and keys are the set-up run's
WORKLOADS = {
    "wide-static": ({"image_size": 256, "images": 8}, "static-only", {}),
    "toy-train": ({}, "full", {"iterations": 17}),
    "cam-cli": ({}, "full", {"iterations": 2}),
}
CONFIG = {"seed": 7, "weights": "fx/encoder.json", "knowledge": "fx/knowledge.json", "dataset": "fx/dataset"}


def load(root: str, name: str):
    """The checkout's package imported as `name`: its (config, fixtures, pipeline, cli) modules."""
    pkg = Path(root).resolve() / "src" / "excel"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("config", "fixtures", "pipeline", "cli"))


def tree(root) -> dict:
    """Every file under `root`, by relative path, with its bytes."""
    return {str(f.relative_to(root)): f.read_bytes() for f in Path(root).rglob("*") if f.is_file()}


def timed_run(modules, side: str, mode: str, extra: dict) -> float:
    """Seconds of one run_pipeline call writing to ./SIDE."""
    config, _, pipeline, _ = modules
    Path(f"{side}.json").write_text(json.dumps({**CONFIG, "out_dir": side, **extra}))
    cfg = config.load_config(f"{side}.json")
    shutil.rmtree(side, ignore_errors=True)
    start = time.perf_counter()
    pipeline.run_pipeline(cfg, mode=mode)
    return time.perf_counter() - start


class Requests:
    """cam-cli's operations: warm dynamic `excel cam` requests against the
    set-up run in ./ref, the n-th on the n-th fixture image in turn."""

    def __init__(self):
        self.labels = json.loads(Path("fx/dataset/labels.json").read_text(encoding="utf-8"))
        self.stems = sorted(self.labels)
        self.checkpoint = max(Path("ref/train").glob("checkpoint_*.json"))

    def timed(self, modules, side: str, n: int) -> float:
        """Seconds of one request writing to ./SIDE; fails unless it exits 0."""
        stem = self.stems[n % len(self.stems)]
        argv = [
            "cam", "--mode", "dynamic", "--weights", "fx/encoder.json", "--bank", "ref/attrs.json",
            "--image", f"fx/dataset/images/{stem}.ppm", "--labels", ",".join(map(str, self.labels[stem])),
            "--adapter", str(self.checkpoint), "--config", "ref.json", "--out", side,
        ]
        shutil.rmtree(side, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = modules[3].main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{side}: excel cam exited {code} on {stem}")
        return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=WORKLOADS, default="wide-static")
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args()
    os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sides = {"parent": load(args.parent, "excel_parent"), "change": load(args.change, "excel_change")}
    spec, mode, extra = WORKLOADS[args.workload]
    times = {side: [] for side in sides}
    same = True
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        fixtures = sides["change"][1]
        fixtures.generate_fixtures(42, fixtures.FixtureSpec(**spec), "fx")
        if args.workload == "cam-cli":
            timed_run(sides["change"], "ref", mode, extra)
            requests = Requests()
            op = lambda side, n: requests.timed(sides[side], side, n)  # noqa: E731
        else:
            op = lambda side, n: timed_run(sides[side], side, mode, extra)  # noqa: E731
        for side in sides:  # warm-up
            op(side, 0)
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                times[side].append(op(side, i))
            if args.workload == "cam-cli":  # each request's files, before the next pair replaces them
                same = same and tree("parent") == tree("change")
        if args.workload != "cam-cli":
            same = tree("parent") == tree("change")
    quartiles = {side: [1e3 * q for q in statistics.quantiles(ts, n=4)] for side, ts in times.items()}
    for side, (q1, med, q3) in quartiles.items():
        print(f"{side:>6}: median {med:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    print(f"median ratio change/parent {statistics.median(ratios):.3f}")
    print(f"output trees byte-identical: {'yes' if same else 'NO'}")
    (p1, p_med, p3), c_med = quartiles["parent"], quartiles["change"][1]
    print(f"change won {sum(r < 1 for r in ratios)} of {len(ratios)} pairs; medians differ by "
          f"{p_med - c_med:.1f} ms, parent interquartile spread {p3 - p1:.1f} ms")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
