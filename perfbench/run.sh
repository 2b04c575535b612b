#!/usr/bin/env bash
# Builds pps-serve and pps-bench in release mode, then runs the benchmark.
#
#   perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload. The last line on stdout is its JSON result.
#
#   perfbench/run.sh [--seed N] [--label L]
#       Three interleaved untraced rounds of every workload (seeds N, N+1,
#       N+2), then one traced run of each, every run in its own process.
#       Prints every metric as `name workload value unit` (medians over the
#       rounds), writes the results to perfbench/results/<label>/ (default
#       label: seed<N>), and exits non-zero when any check failed.
#
# Build output goes to $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [[ ! -f Cargo.toml || ! -f crates/serve/Cargo.toml ]]; then
    echo "run.sh: $root does not hold the pps sources to build" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
bin="$CARGO_TARGET_DIR/release"
# Cargo's progress and warnings go to stderr, away from the result line.
cargo build --release --offline --quiet -p pps-serve --bin pps-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

common=(--serve-bin "$bin/pps-serve" --work-dir "$CARGO_TARGET_DIR/pps-bench-work")
for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin/pps-bench" run "$@" "${common[@]}"
    fi
done

seed=1
label=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        *) echo "usage: run.sh [--seed N] [--label L] | --workload W --seed N --seconds S --trace 0|1" >&2
           exit 2 ;;
    esac
done
out="$here/results/${label:-seed$seed}"
mkdir -p "$out"
{
    echo "nproc $(nproc)"
    echo "cpu $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //')"
    rustc --version
    echo "commit $(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
    echo "seed $seed"
} > "$out/host.txt"
exec "$bin/pps-bench" suite --seed "$seed" --out "$out" "${common[@]}"
