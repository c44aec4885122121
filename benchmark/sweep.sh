#!/usr/bin/env bash
# Run every workload on a range of seeds and append the stamped records to
# one file, for `pof-benchmark --compare <a> <b>`.
#
#   benchmark/sweep.sh <out.jsonl> [first_seed] [last_seed] [trace] [seconds]
#
# Run from the repo root or from benchmark/. Two sweeps of the same code
# compared with each other show the benchmark's own run-to-run spread.
set -euo pipefail
out=${1:?usage: sweep.sh <out.jsonl> [first_seed] [last_seed] [trace] [seconds]}
first=${2:-1}
last=${3:-10}
trace=${4:-0}
seconds=${5:-10}
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/pof-benchmark
for workload in $("$bin" --list); do
    for seed in $(seq "$first" "$last"); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" | tail -n 1 | cut -c1-60
    done
done
