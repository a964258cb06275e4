#!/usr/bin/env bash
# Builds the benchmark package in release mode and runs it.
#
#   bash kbbench/run.sh --workload <session-udg|session-adverse|serve-live> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Builds into $CARGO_TARGET_DIR when set (relative paths are taken from
# the current directory, as cargo does), else into kbbench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/kbbench" "$@"
