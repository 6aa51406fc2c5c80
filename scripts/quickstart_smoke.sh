#!/usr/bin/env bash
# Quickstart example smoke: run the end-to-end example with an explicit
# scratch path for the saved model — nothing may land in the repo root —
# then verify the DSAR1 artifact it claims to save really exists and opens
# as a servable model.
#
# Usage: scripts/quickstart_smoke.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

MODEL="$SCRATCH/quickstart_model.bin"
"$BUILD_DIR/examples/quickstart" "$MODEL"
test -s "$MODEL"
"$BUILD_DIR/tools/deepsd_store" verify "$MODEL" > /dev/null
echo "quickstart smoke OK: model regenerated at $MODEL"
