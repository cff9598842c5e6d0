#!/usr/bin/env bash
# Builds the benchmark and the daemon it spawns from source, then runs it
# with the given arguments. Run from the repository root:
#   bash spiderbench/run.sh --workload open_steady --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/spiderbench" "$@"
