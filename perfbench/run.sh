#!/usr/bin/env bash
# Builds the `smith85` release binary and the benchmark from source, then
# runs one workload. From the root of a smith85 checkout:
#
#   bash perfbench/run.sh --workload <grid-sweep|hot-simulate> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: target); logs, stores
# and span dumps go to its perfbench-runs/ directory. The last line of
# standard output is the JSON result; see perfbench/README.md.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "perfbench: run from the root of a smith85 checkout (no workspace here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p smith85-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/smith85-perfbench" "$@" \
    --smith85 "$CARGO_TARGET_DIR/release/smith85" \
    --workdir "$CARGO_TARGET_DIR/perfbench-runs"
