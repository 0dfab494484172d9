#!/usr/bin/env python3
"""Time two checkouts against each other in one process.

    tools/ab_time.py PARENT CHANGE [--workload wide-static|toy-train] [--pairs 12]

Imports each checkout's `src/excel` under its own package name and
alternates warm `run_pipeline` calls of the two on one fixture, under one
BLAS thread: runs in separate processes on a small shared VM can differ
by 2x within a minute. Prints each side's median and quartiles, the
median pair ratio CHANGE / PARENT, and whether the two output trees are
byte-identical; exits 1 when they are not. Its last line holds the two
numbers a gain is judged on: the pairs CHANGE won out of the pairs run
(a tie counts for neither side), and the difference of the medians
against the parent's interquartile spread.
"""

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# (fixture spec, run_pipeline mode, extra config keys), as in perfbench/worker.py
WORKLOADS = {
    "wide-static": ({"image_size": 256, "images": 8}, "static-only", {}),
    "toy-train": ({}, "full", {"iterations": 17}),
}
CONFIG = {"seed": 7, "weights": "fx/encoder.json", "knowledge": "fx/knowledge.json", "dataset": "fx/dataset"}


def load(root: str, name: str):
    """The checkout's package imported as `name`: its (config, fixtures, pipeline) modules."""
    pkg = Path(root).resolve() / "src" / "excel"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("config", "fixtures", "pipeline"))


def timed_run(modules, side: str, mode: str, extra: dict) -> float:
    """Seconds of one run_pipeline call writing to ./SIDE."""
    config, _, pipeline = modules
    Path(f"{side}.json").write_text(json.dumps({**CONFIG, "out_dir": side, **extra}))
    cfg = config.load_config(f"{side}.json")
    shutil.rmtree(side, ignore_errors=True)
    start = time.perf_counter()
    pipeline.run_pipeline(cfg, mode=mode)
    return time.perf_counter() - start


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
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        fixtures = sides["change"][1]
        fixtures.generate_fixtures(42, fixtures.FixtureSpec(**spec), "fx")
        for side in sides:  # warm-up
            timed_run(sides[side], side, mode, extra)
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                times[side].append(timed_run(sides[side], side, mode, extra))
        trees = [{str(f.relative_to(side)): f.read_bytes() for f in Path(side).rglob("*") if f.is_file()} for side in sides]
        same = trees[0] == trees[1]
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
