#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash yardstick/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build goes to $CARGO_TARGET_DIR when set, else to yardstick/target.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/yardstick" "$@"
