#!/usr/bin/env bash
# Checks that the working tree writes the same bytes as revision REV
# (HEAD by default):
#     tools/compare.sh [REV]
# REV is extracted with `git archive` into a temporary directory, and this
# checkout's tools/equivalence.sh runs on REV and on the working tree, so
# both sides run the same commands even when the change edits the script.
# Then tools/tree_diff.py compares the two output trees; its exit code is
# this script's (0 when every file is identical). The temporary directory
# is removed on exit. About 60 s on a 2-vCPU VM.
set -euo pipefail
if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 1
fi
rev=${1:-HEAD}
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/rev"
"$repo/tools/equivalence.sh" "$tmp/rev" "$tmp/old"
"$repo/tools/equivalence.sh" "$repo" "$tmp/new"
python3 "$repo/tools/tree_diff.py" "$tmp/old" "$tmp/new"
