#!/usr/bin/env bash
# Builds the release pmc-serve/pmc-router binaries and the benchmark,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload paced_ingest --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark finds the server binaries beside its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pmc-serve -p pmc-router >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
