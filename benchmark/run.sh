#!/usr/bin/env bash
# The one command of the benchmark ladder.
#
#   benchmark/run.sh [--seed N] [--out DIR] [--smoke]
#       builds bassctl and ladder, runs every workload, checks outputs,
#       prints every metric by name with its unit, writes results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one JSON object as the last line of stdout
#       (the form BENCHMARK.json's command is called in)
#   benchmark/run.sh aa|gen|... [args]
#       any other ladder subcommand, after the same build
#
# Both programs are built from source at their defaults into one target
# directory (CARGO_TARGET_DIR, else <repo>/target) so `ladder` finds
# `bassctl` beside itself. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path "$root/Cargo.toml" -p bass-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
ladder="$target/release/ladder"

if [[ $# -gt 0 && "$1" != --* ]]; then
    exec "$ladder" "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$ladder" bench --out "$here/out" "$@"
    fi
done
exec "$ladder" all --out "$here/out" "$@"
