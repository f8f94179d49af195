#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/, then
# checks the modeled lines against the committed results/.
#
# Every line a host clock or the source tree can change ends in a tag,
# `[host]` or `[source]`; every other line is deterministic. The run
# fails if any untagged line differs from the committed file.
#
# Usage: scripts/reproduce_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p results

cargo build --release -p atmo-bench

for target in table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 ablation smp-scaling ipc-fastpath vm-batch net-zerocopy blk-zerocopy audit-scaling nr-scaling httpd-mconn multitenant; do
    bin="./target/release/repro-$target"
    if [ ! -x "$bin" ]; then
        echo "error: $bin is missing (did the atmo-bench build produce it?)" >&2
        exit 1
    fi
    echo "== repro-$target =="
    "$bin" | tee "results/repro-$target.txt"
    echo
done

echo "All experiment outputs written to results/."

if ! git diff --exit-code -I '\[(host|source)\]$' -- results/; then
    echo "error: a modeled line of results/ changed (see the diff above)" >&2
    exit 1
fi
echo "Every modeled line matches the committed results/."
