#!/usr/bin/env bash
# Build the benchmark crate (release, offline) and run it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--out FILE]
#       every workload, untraced then traced, one pinned child process each
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object (BENCHMARK.json's command)
#   benchmark/run.sh compare A.json B.json
#       hold two result files against the end-to-end bounds
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target
# Span and result files land in benchmark/out/, relative to the repo root.
cd "$here/.."
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/ps2-benchmark" "$@"
