#!/usr/bin/env bash
# The k-machine benchmark, one command. Builds the benchmark (never the
# repo's own workspace), then runs it. See README.md.
#
#   benchmark/run.sh [--seed S] [--workload W] [--out FILE] [--seconds T]
#                    [--smoke] [--twice]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

bin="$target/release/km-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" --out-dir "$here/out" "$@"
