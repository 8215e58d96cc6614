#!/usr/bin/env sh
# Regenerate ENVELOPE_baseline.json, the committed empirical skew-envelope
# fit that CI gates with `gcs_diff --strict` (see docs/envelope.md).
#
#   ./scripts/regen_envelope.sh [BUILD_DIR]
#
# Runs campaigns/ablation_frontier.json under --check (so a baseline can
# never be regenerated from a tree that violates the analytic bounds),
# fits the envelope, and rewrites ENVELOPE_baseline.json in place.  The
# fit is byte-deterministic across --jobs / --shards layouts (every cell
# runs the calendar queue with batched delivery), so any clean build
# reproduces the same bytes; commit the result only when the skew
# physics changed on purpose.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

for tool in gcs_run gcs_report; do
  if [ ! -x "$BUILD_DIR/$tool" ]; then
    echo "regen_envelope: $BUILD_DIR/$tool not built (cmake --build $BUILD_DIR --target $tool)" >&2
    exit 2
  fi
done

TREE="$(mktemp -d)"
trap 'rm -rf "$TREE"' EXIT

"$BUILD_DIR/gcs_run" --campaign campaigns/ablation_frontier.json --check \
  --quiet --out "$TREE/frontier"
"$BUILD_DIR/gcs_report" "$TREE/frontier" \
  --envelope-json ENVELOPE_baseline.json -o /dev/null

echo "regen_envelope: wrote ENVELOPE_baseline.json"
if command -v git >/dev/null 2>&1; then
  git --no-pager diff --stat -- ENVELOPE_baseline.json || true
fi
