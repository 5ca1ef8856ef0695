#!/usr/bin/env bash
# The repo benchmark: builds offline, then runs it. Usage in README.md
# (or `benchmark/run.sh --help`).
#
#   benchmark/run.sh [--seed N] [--quick] [--repeat-check]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds, so the benchmark finds the
# sweep_server binary next to its own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet -p gcache-bench --bin sweep_server
exec "$CARGO_TARGET_DIR/release/gcache-perf" "$@"
