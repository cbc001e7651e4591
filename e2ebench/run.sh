#!/usr/bin/env bash
# Builds the `flowmotif` binary under test and the harness from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload batch --seed 1 --seconds 20 --trace 0 \
#       --read-rate 50 --ingest-add-rate 150 --ingest-read-rate 50
#
# BENCHMARK.json's command holds the offered rates.
#
# Build output goes to $CARGO_TARGET_DIR (default: target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --bin flowmotif >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/e2ebench" --flowmotif "$target/release/flowmotif" "$@"
