"""Command-line entry point.

Subcommands: gen-fixtures, build-attrs, cam, train, eval, attn-report, run.
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric error.
"""

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .blobio import save_tensors, write_json
from .config import PipelineConfig, load_config
from .dataset import ImageRecord, load_class_names
from .dynamic_calibration import biased_calibrations, dynamic_cams
from .encoder import Calibration, encode_stack, load_weights, named_calibration
from .errors import EXIT_DATA, EXIT_OK, DataError, ExcelError, UsageError
from .fixtures import FixtureSpec, generate_fixtures
from .hashing import config_digest, provenance
from .images import read_pgm, read_ppm, rgb_to_chw
from .pipeline import check_bank_dim, load_inputs, run_pipeline, run_provenance, write_cam_outputs
from .static_calibration import run_static_passes
from .text_enrichment import attribute_bank, load_bank, save_bank
from .training_eval import attn_report, check_trained_calibration, evaluate, load_checkpoint, report_text, train_loop


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


# attn-report's short names for the encoder's named calibrations; icb is
# ic plus the relation bias
_REPORT_POLICIES = {"qk": "vanilla", "vv": "value_value", "ic": "intra_correlation", "icb": "intra_correlation"}

# the FixtureSpec fields gen-fixtures exposes, one flag each
_FIXTURE_FLAGS = ("classes", "images", "image_size", "dim", "heads", "patch_size")


def build_parser() -> _Parser:
    parser = _Parser(prog="excel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixtures", help="write deterministic weights, knowledge and dataset")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    for name in _FIXTURE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(FixtureSpec, name))

    p = sub.add_parser("build-attrs", help="cluster a knowledge file into an attribute bank")
    p.add_argument("--kb", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--topk", type=int, default=PipelineConfig.topk)
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
    p.add_argument("--config", help="pipeline config for thresholds and policy")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the relation adapter on the diversity loss")
    p.add_argument("--config", required=True)

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
    p.add_argument("--calib-layers", type=int, default=Calibration.layers)
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
    cfg = load_config(args.config) if args.config else PipelineConfig()
    weights = load_weights(args.weights)
    bank = load_bank(args.bank)
    record = ImageRecord(Path(args.image).stem, read_ppm(args.image), mask=None, labels=sorted(set(present)))
    adapter = None
    if args.mode == "dynamic":
        adapter, meta = load_checkpoint(args.adapter, weights.dim)
        # thresholds stay free at inference time; the calibration the adapter learned its bias under does not
        check_trained_calibration(args.adapter, meta, cfg.calibration(), "the config")
    # every input is read and checked against the others before the encode
    check_bank_dim(bank, args.bank, weights, args.weights)
    outside = [c for c in present if not 1 <= c <= bank.num_classes]
    if outside:
        raise DataError(
            f"--labels lists class id {outside[0]}, but text bank {args.bank} "
            f"has classes 1..{bank.num_classes}"
        )
    tau_fg, tau_bg = cfg.tau_fg, cfg.tau_bg
    if args.mode == "static":
        res = run_static_passes([record], weights, bank, cfg.static_policy(), tau_fg, tau_bg, keep_traces=False)[0]
    else:
        static = run_static_passes([record], weights, bank, cfg.calibration(), tau_fg, tau_bg, keep_traces=True)[0]
        res = dynamic_cams([record], weights, adapter, bank, tau_fg, tau_bg, [static.trace])[0]
    prov = run_provenance(cfg, f"cam-{args.mode}")
    out_dir = Path(args.out)
    cams_path, pgm_path = write_cam_outputs(out_dir, record.name, res, weights.patch_size, prov)
    print(f"cams: {cams_path}")
    print(f"pseudo: {pgm_path}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    inputs, weights, dataset, bank = load_inputs(cfg)
    calibrated = run_static_passes(
        dataset.images, weights, bank, cfg.calibration(), cfg.tau_fg, cfg.tau_bg, keep_traces=True
    )
    out_dir = Path(cfg.out_dir) / "train"
    curve = train_loop(calibrated, weights.dim, cfg, out_dir, run_provenance(cfg, "train", inputs)).curve
    final = curve[-1][1] if curve else 0.0
    print(f"trained {cfg.iterations} iterations; final diversity loss {final:.4f}")
    print(f"checkpoints: {out_dir}")
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
    calibrated = Calibration(layers=args.calib_layers)
    names = [name.strip() for name in args.policies.split(",")]
    for name in names:
        if name not in _REPORT_POLICIES:
            raise UsageError(f"unknown policy '{name}' (use {','.join(_REPORT_POLICIES)})")
    weights = load_weights(args.weights)
    image = rgb_to_chw(read_ppm(args.image))
    policies = {name: named_calibration(_REPORT_POLICIES[name], calibrated) for name in names}
    if "icb" in policies and args.adapter:
        adapter, meta = load_checkpoint(args.adapter, weights.dim)
        check_trained_calibration(args.adapter, meta, calibrated, "--calib-layers")
        policies["icb"] = biased_calibrations(encode_stack([image], weights, [calibrated]), adapter)[0]
    elif "icb" in policies:
        hw = weights.grid[0] * weights.grid[1]
        uniform = np.zeros((hw, hw), dtype=np.float32)  # uniform bias
        policies["icb"] = dataclasses.replace(calibrated, relation=uniform)
    report = attn_report(image, weights, policies)
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
    "train": _cmd_train,
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


if __name__ == "__main__":
    sys.exit(main())
