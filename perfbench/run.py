"""Benchmark entry point: runs one workload in a child process and prints
its metrics.

    python3 perfbench/run.py --workload toy-train --seed 42 --seconds 25 --trace 0

Run from the root of a checkout. The child (worker.py) imports the package
from `src/`, runs single-threaded (every BLAS/OpenMP thread count pinned to
1) and writes its result to a work directory under `.perfbench_work/`,
which is removed afterwards. This process prints a readable breakdown,
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the `end_to_end` metrics of BENCHMARK.json with --trace 0 and the
`per_layer` ones with --trace 1. It exits non-zero without that line when
the sources are missing or the child fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170  # the whole command must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_breakdown(result: dict):
    detail = result["detail"]
    print(f"workload {detail['workload']}  seed {detail['seed']}")
    print("stamp " + json.dumps(detail["stamp"], sort_keys=True))
    for name, m in sorted(result["metrics"].items()):
        kind = m.get("kind", "")
        label = " (computed)" if kind == "computed" else ""
        print(f"  {name:<44} {fmt(m['value']):>14} {m['unit']}{label}")
    for name in ("setup_wall_s", "run_s", "op_wall_s", "speed_scale", "cam_p50_ms", "cam_tail_ms", "cam_per_s", "miou_static", "fail_frac"):
        if name in detail:
            print(f"  {name:<44} {json.dumps(detail[name])}")
    if "spans" in detail:
        for span, sites in sorted(detail["wrapped_sites"].items()):
            print(f"  wrapped {span:<40} in {', '.join(sites) or '(not found)'}")
        print("  trace overhead " + json.dumps(detail["trace_overhead"]))
        print(f"  {'span':<40} {'parent':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for row in detail["spans"]:
            print(
                f"  {row['span']:<40} {row['parent']:<36} {row['calls']:>7} "
                f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )
        if detail["counts_differ_across_ops"]:
            print("  counts that differ across traced operations: " + ", ".join(detail["counts_differ_across_ops"]))
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="toy-train, wide-static or cam-cli; the worker checks it")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    contract = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "excel" / "__init__.py").is_file() or not contract.is_file():
        print(f"no package sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    wanted = json.loads(contract.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work / "run"),
        "--result", str(result_path),
    ]
    # SIGTERM raises SystemExit inside subprocess.run, which then kills and
    # reaps the child before the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        # child output goes to stderr: the last stdout line is the result
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=sys.stderr,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
        if proc.returncode != 0 or not result_path.is_file():
            print(f"worker exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        print(f"worker did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_parent = work.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            print(f"worker reported no {spec['name']} in {spec['unit']}", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print_breakdown(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
