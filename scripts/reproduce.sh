#!/usr/bin/env bash
# Regenerates every table, figure, ablation, and extension experiment of the
# AXI-REALM reproduction. Tables print to stdout; JSON lands in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building =="
cargo build --workspace --release

echo "== paper artifacts =="
for bin in fig6a fig6b table1 table2 ablations; do
    echo
    cargo run --release -q -p realm-bench --bin "$bin"
done

echo
echo "== comparisons and extensions =="
for bin in related_work design_space extension_dram extension_cache timeline; do
    echo
    cargo run --release -q -p realm-bench --bin "$bin"
done

echo
echo "All outputs regenerated; JSON in results/."
