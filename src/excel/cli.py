"""Command-line entry point.

Subcommands: gen-fixtures, build-attrs, cam, eval, attn-report, run.
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric error.
"""

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .blobio import save_tensors, write_json
from .config import PipelineConfig, load_config
from .dataset import ImageRecord, load_class_names
from .dynamic_calibration import biased_relations, dynamic_cams
from .encoder import VALUE_VALUE, VANILLA, encode_stack, load_weights
from .errors import EXIT_DATA, EXIT_OK, EXIT_USAGE, DataError, ExcelError, UsageError
from .fixtures import FixtureSpec, generate_fixtures
from .hashing import config_digest, provenance
from .images import read_pgm, read_ppm, rgb_to_chw
from .pipeline import check_bank_dim, run_pipeline, run_provenance, write_cam_outputs
from .static_calibration import run_static_passes
from .text_enrichment import attribute_bank, load_bank, save_bank
from .training_eval import attn_report, evaluate, load_checkpoint, report_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


# attn-report's policies: the two fixed baselines, and the config's
# calibration without (ic) and with (icb) the relation bias
_REPORT_BASELINES = {"qk": VANILLA, "vv": VALUE_VALUE}
_REPORT_POLICIES = (*_REPORT_BASELINES, "ic", "icb")

# the FixtureSpec fields gen-fixtures exposes, one flag each
_FIXTURE_FLAGS = ("classes", "images", "image_size", "dim", "heads", "patch_size")


@functools.cache
def build_parser() -> _Parser:
    """The `excel` parser, built once per process: argparse keeps no state
    between `parse_args` calls, each of which fills a fresh namespace."""
    parser = _Parser(prog="excel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixtures", help="write deterministic weights, knowledge and dataset")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    for name in _FIXTURE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(FixtureSpec, name))

    p = sub.add_parser("build-attrs", help="cluster a knowledge file into an attribute bank")
    p.add_argument("--kb", required=True)
    p.add_argument("--clusters", type=functools.partial(_int_at_least, 0), required=True, help="0: no clustering")
    p.add_argument("--topk", type=functools.partial(_int_at_least, 1), default=PipelineConfig.topk)
    p.add_argument("--lambda", dest="lam", type=_non_negative_float, default=PipelineConfig.lam)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cam", help="CAMs and pseudo labels for a single image")
    p.add_argument("--mode", choices=("static", "dynamic"), default="static")
    p.add_argument("--weights", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--labels", required=True, help="comma-separated present class ids")
    p.add_argument("--adapter", help="checkpoint manifest (dynamic mode)")
    p.add_argument("--config", help="pipeline config for thresholds and calibration")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate predicted label maps against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--classes", required=True, help="classes.json from the dataset root")
    p.add_argument("--out")

    p = sub.add_parser("attn-report", help="attention diagnostics per policy")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--policies", default="qk,vv,ic", help="subset of qk,vv,ic,icb")
    p.add_argument("--adapter", help="checkpoint for the icb policy")
    p.add_argument("--config", help="pipeline config for the calibration of ic and icb")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("full", "static-only"), default="full")
    p.add_argument("--resume", action="store_true")
    return parser


def _cmd_gen_fixtures(args) -> int:
    spec = FixtureSpec(**{name: getattr(args, name) for name in _FIXTURE_FLAGS})
    paths = generate_fixtures(args.seed, spec, args.out)
    for key, value in paths.items():
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_build_attrs(args) -> int:
    bank = attribute_bank(args.kb, args.clusters, args.topk, args.lam, args.seed)
    # the flags without --out, where the bank lands, as a run's hash leaves out out_dir
    flags = {k: v for k, v in vars(args).items() if k != "out"}
    prov = provenance("attributes", args.seed, config_digest(flags | {"command": "build-attrs"}))
    out = save_bank(args.out, bank, provenance=prov)
    print(f"bank: {out}")
    return EXIT_OK


def _cmd_cam(args) -> int:
    try:
        present = [int(v) for v in args.labels.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--labels must be comma-separated class ids, got {args.labels!r}") from None
    if not present:
        raise UsageError("--labels must list at least one class id")
    if args.mode == "dynamic" and not args.adapter:
        raise UsageError("dynamic mode requires --adapter")
    if args.mode == "static" and args.adapter is not None:
        raise UsageError("static mode reads no --adapter; drop it, or run --mode dynamic")
    cfg = load_config(args.config) if args.config else PipelineConfig()
    weights = load_weights(args.weights)
    bank = load_bank(args.bank)
    record = ImageRecord(Path(args.image).stem, read_ppm(args.image), mask=None, labels=sorted(set(present)))
    adapter = None
    if args.mode == "dynamic":
        # thresholds stay free at inference time; the calibration the adapter learned its bias under does not
        adapter = load_checkpoint(args.adapter, weights.dim, cfg.calibration())
    # every input is read and checked against the others before the encode
    check_bank_dim(bank, args.bank, weights, args.weights)
    outside = [c for c in present if not 1 <= c <= bank.num_classes]
    if outside:
        raise DataError(
            f"--labels lists class id {outside[0]}, but text bank {args.bank} "
            f"has classes 1..{bank.num_classes}"
        )
    dynamic = args.mode == "dynamic"
    res = run_static_passes([record], weights, bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=dynamic)[0]
    if dynamic:
        res = dynamic_cams([record], weights, adapter, bank, cfg.tau_fg, cfg.tau_bg, [res.trace])[0]
    prov = run_provenance(cfg, f"cam-{args.mode}")
    out_dir = Path(args.out)
    cams_path, pgm_path = write_cam_outputs(out_dir, record.name, res, weights.patch_size, prov)
    print(f"cams: {cams_path}")
    print(f"pseudo: {pgm_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    class_names = load_class_names(args.classes)
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    preds, gts = [], []
    for gt_path in sorted(gt_dir.glob("*.pgm")):
        pred_path = pred_dir / gt_path.name
        if not pred_path.exists():
            pred_path = pred_dir / f"{gt_path.stem}.pseudo.pgm"
        if not pred_path.exists():
            raise UsageError(f"no prediction found for {gt_path.name} in {pred_dir}")
        preds.append(read_pgm(pred_path))
        gts.append(read_pgm(gt_path))
    if not gts:
        raise UsageError(f"no ground-truth maps in {gt_dir}")
    report = evaluate(preds, gts, num_labels=len(class_names))
    text = report_text(report, class_names)
    print(text, end="")
    if args.out:
        write_json(args.out, report.to_dict())
    return EXIT_OK


def _cmd_attn_report(args) -> int:
    calibrated = (load_config(args.config) if args.config else PipelineConfig()).calibration()
    names = [name.strip() for name in args.policies.split(",")]
    for name in names:
        if name not in _REPORT_POLICIES:
            raise UsageError(f"unknown policy '{name}' (use {','.join(_REPORT_POLICIES)})")
    if args.adapter is not None and "icb" not in names:
        raise UsageError(f"only the icb policy reads --adapter, and --policies {args.policies!r} does not list it")
    weights = load_weights(args.weights)
    image = rgb_to_chw(read_ppm(args.image))
    adapter = load_checkpoint(args.adapter, weights.dim, calibrated) if args.adapter else None
    calibrations = {name: _REPORT_BASELINES.get(name, calibrated) for name in names}  # a repeated name once
    # one pass over the image per calibration; icb resumes the calibrated
    # one with the relation bias, as the dynamic stage resumes the static pass
    passes = {c: encode_stack([image], weights, c)[0] for c in dict.fromkeys(calibrations.values())}
    traces = {name: passes[calibration] for name, calibration in calibrations.items()}
    if "icb" in traces:
        if adapter is None:
            hw = weights.grid[0] * weights.grid[1]
            relation = np.zeros((hw, hw), dtype=np.float32)  # uniform bias
        else:
            relation = biased_relations([traces["icb"]], adapter)[0]
        traces["icb"] = encode_stack(None, weights, calibrated, [relation], [traces["icb"]])[0]
    report = {name: attn_report(trace, weights) for name, trace in traces.items()}
    out_dir = Path(args.out)
    summary = {}
    for name, entry in report.items():
        save_tensors(
            out_dir / f"relations_{name}.json", {"token_relation": entry["token_relation"]}
        )
        summary[name] = {"mean_row_entropy": entry["mean_row_entropy"]}
        print(f"{name}: mean row entropy {entry['mean_row_entropy']:.4f}")
    write_json(out_dir / "attn_report.json", summary)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    report_path, report = run_pipeline(cfg, mode=args.mode, resume=args.resume)
    print(f"report: {report_path}")
    print(f"mIoU: {report.miou:.4f}")
    return EXIT_OK


_COMMANDS = {
    "gen-fixtures": _cmd_gen_fixtures,
    "build-attrs": _cmd_build_attrs,
    "cam": _cmd_cam,
    "eval": _cmd_eval,
    "attn-report": _cmd_attn_report,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a failing command prints one `error:` line and no numpy warning;
        # unlike np.errstate, this filter covers the encoder's helper thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except ExcelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size that a flag or a config key gives and no bound refuses yet
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
