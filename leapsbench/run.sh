#!/usr/bin/env bash
# Builds the `leaps` daemon and the load generator from source, then runs
# one benchmark workload from the root of the checkout:
#
#   bash leapsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p leaps-cli >&2
cargo build --release --offline --quiet --manifest-path leapsbench/Cargo.toml >&2
exec "$target/release/leapsbench" --daemon "$target/release/leaps" "$@"
