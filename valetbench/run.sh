#!/usr/bin/env bash
# Builds the benchmark and the repository's valetd from source, then
# runs one measurement:
#   bash valetbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR (default: valetbench/target);
# run files go to valetbench/out.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p valetbench -p live --bin valetbench --bin valetd >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"
exec "$bin/valetbench" --valetd "$bin/valetd" --out-dir "$here/out" "$@"
