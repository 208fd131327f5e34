#!/usr/bin/env bash
# Build the benchmark from source (offline; path dependencies only) and
# run it with the given arguments, e.g.
#   bash perfbench/run.sh --workload pig-sim-25 --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the result line stays the last line
# of standard output. Honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
