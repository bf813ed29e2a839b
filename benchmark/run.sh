#!/usr/bin/env bash
# Build h2perf and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload twice — measured, then traced — each in its own
#       process, outputs checked; prints every metric by name with its unit,
#       writes benchmark/out/<workload>.trace.json and all records to
#       benchmark/out/results.tsv.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run (what the driver in BENCHMARK.json calls); the last line of
#       standard output is the result object.
#   benchmark/run.sh compare A.tsv B.tsv | selfcheck | fingerprint | manifest
#       see README.md.
#
# Paths are taken from where this script lies, so it runs from anywhere.
# CARGO_TARGET_DIR is honoured the way cargo honours it.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"

case "${1:-}" in
compare | fingerprint | manifest)
    exec "$target/release/h2perf" "$@"
    ;;
selfcheck)
    shift
    exec "$target/release/h2perf" selfcheck --out "$here/out" "$@"
    ;;
*)
    exec "$target/release/h2perf" run --out "$here/out" "$@"
    ;;
esac
