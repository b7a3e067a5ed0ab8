#!/usr/bin/env bash
# Build the benchmark and the joss_serve daemon it drives, then run it.
#
#   bash perfbench/run.sh --workload <serve_reuse|fleet_cold> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default .bench_build), so the daemon lands next to the benchmark;
# compiler chatter goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" \
    -p joss-serve --bin joss_serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
