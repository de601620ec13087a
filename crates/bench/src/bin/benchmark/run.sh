#!/usr/bin/env bash
# Builds what the benchmark needs, then runs it once. From the repository
# root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload contended-burst --seed 0 --seconds 10 --trace 0
#
# Into $CARGO_TARGET_DIR (default: target) it builds
#   - the experiment binaries, which the `regen` workload runs as children;
#   - the benchmark for the plain lane (`--trace 0`: end-to-end metrics);
#   - under self-profile/, the benchmark built with `--features self-profile`
#     for the traced lane (`--trace 1`: per-layer metrics).
# Every build is a no-op once done. Build output goes to stderr.
set -euo pipefail

package=crates/bench/src/bin/benchmark/Cargo.toml
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}

cargo build --release --offline --quiet -p realm-bench --bins >&2
cargo build --release --offline --quiet --manifest-path "$package" >&2
cargo build --release --offline --quiet --manifest-path "$package" \
    --features self-profile --target-dir "$CARGO_TARGET_DIR/self-profile" >&2

trace=0
previous=
for arg in "$@"; do
    if [[ $previous == --trace ]]; then
        trace=$arg
    fi
    previous=$arg
done
if [[ $trace == 1 ]]; then
    benchmark=$CARGO_TARGET_DIR/self-profile/release/benchmark
else
    benchmark=$CARGO_TARGET_DIR/release/benchmark
fi
# Not `exec`: the benchmark reads its children's peak memory, and an exec'd
# process would inherit the builds' usage.
"$benchmark" "$@"
