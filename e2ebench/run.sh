#!/usr/bin/env bash
# Build the end-to-end benchmark from the sources in this checkout and
# run it. Usage (from the repository root):
#   bash e2ebench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/armdse-e2ebench" "$@"
