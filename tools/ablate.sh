#!/usr/bin/env bash
# Runs the paper's ablations from configs alone, on the default fixture of
# each fixture seed given:
#     tools/ablate.sh SEED...
# Per seed, five static-only runs: the default config (clustered attributes,
# lam 0.5, calibrated attention), `clusters: 0` (no attribute clustering),
# `lam: 0` (no text enrichment), `calib_layers: 0` (vanilla attention) and
# `calib_layers: 1` with `calib_weights: [0, 0, 1]` (the value-value
# baseline: v-v attention in the last block only); then three full runs:
# the default config (500 iterations), `iterations: 0` (the untrained
# adapter) and `iterations: 50`. Every run has config seed 7.
# Prints one line per run:
#     seed config stage miou
# with the stage and the mIoU that the run's report.json records, the mIoU
# as a full-precision float. Runs under one BLAS/OpenMP thread in a
# temporary directory, removed on exit. About 12 s per seed on a 2-vCPU VM
# (12.2 s for seed 42, 23.2 s for seeds 1 and 3).
set -euo pipefail
if [ $# -lt 1 ]; then
    echo "usage: $0 SEED..." >&2
    exit 1
fi
src=$(cd "$(dirname "$0")/.." && pwd)/src
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
export PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# run SEED NAME MODE [EXTRA_JSON_MEMBERS]: one run on fixture fxSEED into SEED-NAME
run() {
    printf '{"seed": 7, "weights": "fx%s/encoder.json", "knowledge": "fx%s/knowledge.json", "dataset": "fx%s/dataset", "out_dir": "%s-%s"%s}\n' \
        "$1" "$1" "$1" "$1" "$2" "${4:+, $4}" > "$1-$2.json"
    python3 -m excel run --config "$1-$2.json" --mode "$3" > /dev/null
    python3 -c 'import json, sys; r = json.load(open(sys.argv[3])); print(*sys.argv[1:3], r["evaluated_stage"], repr(r["miou"]))' \
        "$1" "$2" "$1-$2/report.json"
}

for seed in "$@"; do
    python3 -m excel gen-fixtures --seed "$seed" --out "fx$seed" > /dev/null
    run "$seed" default static-only
    run "$seed" clusters0 static-only '"clusters": 0'
    run "$seed" lam0 static-only '"lam": 0'
    run "$seed" calib0 static-only '"calib_layers": 0'
    run "$seed" valuevalue static-only '"calib_layers": 1, "calib_weights": [0, 0, 1]'
    run "$seed" full full
    run "$seed" iterations0 full '"iterations": 0'
    run "$seed" iterations50 full '"iterations": 50'
done
