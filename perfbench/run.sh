#!/usr/bin/env bash
# Builds the release `graphserve` binary and the benchmark binary from
# source, then runs one benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore_1k --seed 1 --seconds 10 --trace 0
#
# Build output and the benchmark's scratch state live under
# $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p graphserve --bin graphserve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/graphserve" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
