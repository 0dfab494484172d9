"""Command-line entry point.

Subcommands: gen-fixtures, build-attrs, cam, eval, attn-report, run.
Pipeline settings come from a `--config` file only: build-attrs reads
its knowledge file and attribute settings there, and cam and attn-report
their calibration (and cam its thresholds).
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric error, 130 interrupted.
"""

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .blobio import save_tensors, write_json
from .config import PipelineConfig, load_config
from .dataset import ImageRecord, load_class_names
from .dynamic_calibration import biased_relations, dynamic_cams
from .encoder import encode_stack, load_weights
from .errors import EXIT_DATA, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, DataError, ExcelError, UsageError
from .fixtures import FixtureSpec, generate_fixtures
from .images import read_pgm, read_ppm, rgb_to_chw
from .pipeline import check_bank_dim, file_digest, run_pipeline, run_provenance, write_cam_outputs
from .static_calibration import run_static_passes
from .text_enrichment import attribute_bank, load_bank, save_bank
from .training_eval import attn_report, evaluate, load_checkpoint, report_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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

    p = sub.add_parser("build-attrs", help="a config's attribute bank, as a run's attribute stage builds it")
    p.add_argument("--config", required=True, help="pipeline config for knowledge, clusters, topk, lam and seed")
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

    p = sub.add_parser("attn-report", help="attention diagnostics of one pass over an image")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--config", help="pipeline config for the calibration")
    p.add_argument("--adapter", help="checkpoint whose relation biases the pass")
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
    cfg = load_config(args.config)
    if not cfg.knowledge:
        raise UsageError(f"config {args.config} names no 'knowledge' file to build a bank from")
    bank = attribute_bank(cfg.knowledge, cfg.clusters, cfg.topk, cfg.lam, cfg.seed)
    inputs = {"knowledge": file_digest(cfg.knowledge, "knowledge manifest")}
    out = save_bank(args.out, bank, provenance=run_provenance(cfg, "attributes", inputs))
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
    calibration = (load_config(args.config) if args.config else PipelineConfig()).calibration()
    weights = load_weights(args.weights)
    image = rgb_to_chw(read_ppm(args.image))
    adapter = load_checkpoint(args.adapter, weights.dim, calibration) if args.adapter else None
    trace = encode_stack([image], weights, calibration)[0]
    if adapter is not None:
        # the pass resumed at its first calibrated layer with the adapter's
        # relation bias, as the dynamic stage resumes the static pass
        trace = encode_stack(None, weights, calibration, biased_relations([trace], adapter), [trace])[0]
    report = attn_report(trace, weights)
    out_dir = Path(args.out)
    save_tensors(out_dir / "relations.json", {"token_relation": report["token_relation"]})
    write_json(out_dir / "attn_report.json", {"mean_row_entropy": report["mean_row_entropy"]})
    print(f"mean row entropy {report['mean_row_entropy']:.4f}")
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
    except KeyboardInterrupt:  # Ctrl-C; the writer and encoder threads hand theirs to this thread
        print("error: interrupted; every file written so far is whole, and --resume continues a run", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
