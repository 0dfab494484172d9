#!/usr/bin/env bash
# Runs a fixed set of CLI commands with the package in checkout SRC and
# leaves every output they write, and their stdout, under OUT. Two
# checkouts produce byte-identical outputs when
#     tools/equivalence.sh OLD /tmp/eq-old && tools/equivalence.sh NEW /tmp/eq-new
#     tools/tree_diff.py /tmp/eq-old /tmp/eq-new
# exits 0; otherwise it names every file and JSON key that differs.
# `tools/compare.sh [REV]` runs these three steps against a git revision.
# It cannot reach back past the change that moved `build-attrs` onto
# `--config` and made `attn-report` report one pass: older revisions
# refuse this script's argv for those two commands. Across that change,
# run each revision's own copy of this script and compare the two trees
# with tools/tree_diff.py; they then differ in the `build-attrs` and
# `attn-report` outputs only.
# Everything runs under one BLAS/OpenMP thread with paths relative to
# OUT, so revisions whose config hash covers the paths as spelled stamp
# the same hashes in both trees; one case, `full-abs`, names its config
# by an absolute path on purpose.
# About 30 s on a 2-vCPU VM.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
excel() { python3 -m excel "$@"; }

# [SEED=N] config NAME OUT_DIR FIXTURES [EXTRA_JSON_MEMBERS]; the seed defaults to 7
config() {
    printf '{"seed": %s, "weights": "%s/encoder.json", "knowledge": "%s/knowledge.json", "dataset": "%s/dataset", "out_dir": "%s"%s}\n' \
        "${SEED:-7}" "$3" "$3" "$3" "$2" "${4:+, $4}" > "$1"
}

excel gen-fixtures --out fx > gen-fixtures.log
excel gen-fixtures --out fx256 --image-size 256 --images 8 > gen-fixtures-256.log
# a second encoder width, so the weight draw and loader are checked off the default
excel gen-fixtures --out fx32 --dim 32 --heads 2 --images 4 > gen-fixtures-32.log
# 4 heads of 8, where sqrt(D_s) is not exact in float32 and the logits keep the
# float64 divide; every other fixture has D_s = 16
excel gen-fixtures --out fx32h4 --dim 32 --heads 4 --images 4 > gen-fixtures-32-h4.log
# an 8x8 grid (T=65), which no other run uses
excel gen-fixtures --out fx8 --patch-size 8 --images 4 > gen-fixtures-8.log
# 9 images at T=65, about 7 to a stacked encoder pass: every stage spans two chunks
excel gen-fixtures --out fx8chunks --patch-size 8 --images 9 > gen-fixtures-8-chunks.log
# every gen-fixtures flag off its default: five classes, and a 6x6 grid of 12 px patches under 3 heads of 16
excel gen-fixtures --out fxflags --seed 9 --classes 5 --images 10 --image-size 72 --dim 48 --heads 3 \
    --patch-size 12 > gen-fixtures-flags.log
# 5 images at T=257, one to a stacked pass: the static and dynamic loops end on an odd chunk
excel gen-fixtures --out fx256odd --image-size 256 --images 5 > gen-fixtures-256-odd.log
# 20 probes at T=65, about 7 to a pass: the probe loop ends on an odd chunk
excel gen-fixtures --out fx8odd --patch-size 8 --classes 5 --images 3 > gen-fixtures-8-odd.log
# 61 images at T=17, 30 to a pass: the static and dynamic loops run chunks of 21, 20 and 20, a pair then one alone
excel gen-fixtures --out fx61 --images 61 > gen-fixtures-61.log

config full.json full fx '"iterations": 17'
excel run --config full.json > run-full.log
config resumed.json resumed fx '"iterations": 17'
cp -r full resumed
excel run --config resumed.json --resume > run-resumed.log
# the same tree resumed under its config named by an absolute path; a revision
# whose hash covers the paths as spelled refuses it, leaving its exit code and
# error line instead. Of its stdout only the mIoU line is kept: the report line
# names the absolute path, which differs between any two output trees
config full-abs.json full-abs fx '"iterations": 17'
cp -r full full-abs
{ excel run --config "$PWD/full-abs.json" --resume > run-full-abs.out 2> run-full-abs.err; echo "$?" > run-full-abs.exit; } \
    || true
grep '^mIoU:' run-full-abs.out > run-full-abs.log || true
rm run-full-abs.out

config kernel3.json kernel3 fx '"iterations": 5, "fusion_kernel": 3, "d_dyn": 64'
excel run --config kernel3.json > run-kernel3.log
# the two baselines: q-k attention everywhere, and v-v attention in the last block only
config vanilla-static.json vanilla-static fx '"calib_layers": 0'
excel run --config vanilla-static.json --mode static-only > run-vanilla-static.log
config valuevalue-static.json valuevalue-static fx '"calib_layers": 1, "calib_weights": [0.0, 0.0, 1.0]'
excel run --config valuevalue-static.json --mode static-only > run-valuevalue-static.log
# one sampled pair per batch, so the limit binds on the 4x4 grid and one loss term is empty
config limit1.json limit1 fx '"iterations": 5, "pair_sample_limit": 1'
excel run --config limit1.json > run-limit1.log
# the no-clustering baseline: each class folds all of its own descriptions; a
# revision that refuses clusters 0 leaves its exit code and error line instead
config unclustered-static.json unclustered-static fx '"clusters": 0'
{ excel run --config unclustered-static.json --mode static-only > run-unclustered-static.log \
    2> run-unclustered-static.err; echo "$?" > run-unclustered-static.exit; } || true
config static256.json static256 fx256
excel run --config static256.json --mode static-only > run-static256.log
# T=257 calibrated layers off the equal thirds: v-v only, a skipped k term, every term skipped
config static256vv-calib.json static256vv-calib fx256 '"calib_layers": 1, "calib_weights": [0.0, 0.0, 1.0]'
excel run --config static256vv-calib.json --mode static-only > run-static256-vv-calib.log
config static256qv.json static256qv fx256 '"calib_weights": [0.5, 0.0, 0.5]'
excel run --config static256qv.json --mode static-only > run-static256-qv.log
config static256zero.json static256zero fx256 '"calib_weights": [0.0, 0.0, 0.0]'
excel run --config static256zero.json --mode static-only > run-static256-zero.log
# a full run at T=257: biased re-encodes resumed from 256 px traces
config full256.json full256 fx256 '"iterations": 2'
excel run --config full256.json > run-full256.log
config full256odd.json full256odd fx256odd '"iterations": 2'
excel run --config full256odd.json > run-full256-odd.log
config full32.json full32 fx32 '"iterations": 2'
excel run --config full32.json > run-full32.log
config full32h4.json full32h4 fx32h4 '"iterations": 2'
excel run --config full32h4.json > run-full32-h4.log
config full8.json full8 fx8 '"iterations": 2'
excel run --config full8.json > run-full8.log
config full8chunks.json full8chunks fx8chunks '"iterations": 2'
excel run --config full8chunks.json > run-full8-chunks.log
config full61.json full61 fx61 '"iterations": 2'
excel run --config full61.json > run-full61.log
config fullflags.json fullflags fxflags '"iterations": 2'
excel run --config fullflags.json > run-full-flags.log
# with no calibrated layer no layer takes the relation bias, so a full run is
# refused before any output: its exit code and error line are kept
config full-calib0.json full-calib0 fx '"iterations": 2, "calib_layers": 0'
{ excel run --config full-calib0.json > run-full-calib0.log 2> run-full-calib0.err; echo "$?" > run-full-calib0.exit; } \
    || true
# a resumed biased pass with all 12 layers calibrated starts from the patchified tokens
config full-calib12.json full-calib12 fx '"iterations": 2, "calib_layers": 12'
excel run --config full-calib12.json > run-full-calib12.log
# a batch of 6 over 4 images: each stacked gradient pass wraps the dataset and holds some images twice
config batch6.json batch6 fx8 '"iterations": 3, "batch_size": 6'
excel run --config batch6.json > run-batch6.log
# one image a batch: the stacked gradient pass of one trace
config batch1.json batch1 fx '"iterations": 3, "batch_size": 1'
excel run --config batch1.json > run-batch1.log

# no iterations: the empty loss curve, and dynamic CAMs under the initial adapter
config train0.json train0 fx '"iterations": 0'
excel run --config train0.json > train0.log
# every config key off its default, so the parse, run_config.json and each
# checkpoint's train_config are compared on values no other run sets
every_key='"lr": 2e-4, "weight_decay": 0.02, "iterations": 3, "batch_size": 3,
    "tau_fg": 0.6, "tau_bg": 0.2, "alpha": 2.5, "beta": 0.9, "calib_layers": 4, "calib_weights": [0.5, 0.25, 0.25],
    "topk": 6, "lam": 0.4, "clusters": 12, "d_proj": 32, "d_dyn": 128, "fusion_kernel": 3,
    "adapter_init_sigma": 0.03, "pair_sample_limit": 2048'
SEED=11 config every-key-run.json every-key-run fx32 "$every_key"
excel run --config every-key-run.json > run-every-key.log

# banks from configs alone; each config's out_dir is never made
config bank-0.5.config.json bank-0.5 fx '"lam": 0.5'
excel build-attrs --config bank-0.5.config.json --out bank-0.5.json > build-attrs-0.5.log
config bank-0.config.json bank-0 fx '"lam": 0'
excel build-attrs --config bank-0.config.json --out bank-0.json > build-attrs-0.log
# the unclustered-static run's bank, from that run's config
excel build-attrs --config unclustered-static.json --out bank-unclustered.json > build-attrs-unclustered.log

for stem in img_0000 img_0001 img_0002; do
    labels=$(python3 -c 'import json, sys; print(",".join(map(str, json.load(open(sys.argv[1]))[sys.argv[2]])))' \
        fx/dataset/labels.json "$stem")
    excel cam --mode static --weights fx/encoder.json --bank full/attrs.json \
        --image "fx/dataset/images/$stem.ppm" --labels "$labels" --config full.json \
        --out cam-static >> cam-static.log
    excel cam --mode dynamic --weights fx/encoder.json --bank full/attrs.json \
        --image "fx/dataset/images/$stem.ppm" --labels "$labels" \
        --adapter full/train/checkpoint_000017.json --config full.json \
        --out cam-dynamic >> cam-dynamic.log
done

# the kernel-3 adapter read back from its checkpoint, not kept in memory;
# `$labels` still holds the ids of img_0002, the last image above
excel cam --mode dynamic --weights fx/encoder.json --bank kernel3/attrs.json \
    --image fx/dataset/images/img_0002.ppm --labels "$labels" \
    --adapter kernel3/train/checkpoint_000005.json --config kernel3.json --out cam-kernel3 > cam-kernel3.log
# no --config: thresholds and calibration are PipelineConfig's defaults,
# under which the full run's adapter was trained
excel cam --mode static --weights fx/encoder.json --bank full/attrs.json \
    --image fx/dataset/images/img_0001.ppm --labels 1 --out cam-static-defaults > cam-static-defaults.log
excel cam --mode dynamic --weights fx/encoder.json --bank full/attrs.json \
    --image fx/dataset/images/img_0001.ppm --labels 1 \
    --adapter full/train/checkpoint_000017.json --out cam-dynamic-defaults > cam-dynamic-defaults.log
# --labels out of order and with a repeated id
excel cam --mode dynamic --weights fx/encoder.json --bank full/attrs.json \
    --image fx/dataset/images/img_0000.ppm --labels 2,1,1 \
    --adapter full/train/checkpoint_000017.json --config full.json --out cam-labels-unordered > cam-labels-unordered.log
# a static CAM under a config without calibrated layers, not the default calibration
excel cam --mode static --weights fx/encoder.json --bank vanilla-static/attrs.json \
    --image fx/dataset/images/img_0002.ppm --labels "$labels" --config vanilla-static.json --out cam-vanilla > cam-vanilla.log

# attn_report WEIGHTS IMAGE NAME [FLAG...]: one report into attn/NAME/, its stdout in attn/NAME.log.
# The calibration is the --config's: vanilla-static.json is q-k attention (qk), valuevalue-static.json
# v-v attention in the last block (vv), and no --config the default calibration (ic); an --adapter
# resumes the pass with the adapter's relation bias (icb)
attn_report() {
    excel attn-report --weights "$1" --image "$2" --out "attn/$3" "${@:4}" > "attn/$3.log"
}
mkdir attn
attn_report fx/encoder.json fx/dataset/images/img_0002.ppm kernel3-icb --adapter kernel3/train/checkpoint_000005.json
attn_report fx/encoder.json fx/dataset/images/img_0000.ppm qk --config vanilla-static.json
attn_report fx/encoder.json fx/dataset/images/img_0000.ppm vv --config valuevalue-static.json
attn_report fx/encoder.json fx/dataset/images/img_0000.ppm ic
attn_report fx/encoder.json fx/dataset/images/img_0000.ppm adapter-icb --adapter full/train/checkpoint_000017.json
attn_report fx/encoder.json fx/dataset/images/img_0001.ppm calib0-ic --config vanilla-static.json
# every layer calibrated, read from the config
config all-layers.json attn-all-layers fx '"calib_layers": 12'
attn_report fx/encoder.json fx/dataset/images/img_0001.ppm all-layers-ic --config all-layers.json
# T=257
attn_report fx256/encoder.json fx256/dataset/images/img_0003.ppm 256-qk --config vanilla-static.json
attn_report fx256/encoder.json fx256/dataset/images/img_0003.ppm 256-vv --config valuevalue-static.json
attn_report fx256/encoder.json fx256/dataset/images/img_0003.ppm 256-ic
attn_report fx256/encoder.json fx256/dataset/images/img_0003.ppm 256-icb \
    --adapter full256/train/checkpoint_000002.json
attn_report fx256/encoder.json fx256/dataset/images/img_0005.ppm 256-img5-ic
# an adapter trained under calib_layers 4 and calib_weights [0.5, 0.25, 0.25], read from its run's config
attn_report fx32/encoder.json fx32/dataset/images/img_0000.ppm every-key-ic --config every-key-run.json
attn_report fx32/encoder.json fx32/dataset/images/img_0000.ppm every-key-icb --config every-key-run.json \
    --adapter every-key-run/train/checkpoint_000003.json

excel eval --pred-dir full/dynamic --gt-dir fx/dataset/masks --classes fx/dataset/classes.json \
    --out eval.json > eval.log
