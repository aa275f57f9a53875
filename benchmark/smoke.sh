#!/usr/bin/env bash
# Smoke test for CI: every workload for half a second, untraced and traced,
# with all correctness checks on and no bounds. Exits non-zero as soon as a
# run fails an operation or a check.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
cd "$here/.."
for workload in bulk_std_push_1m bulk_zc_push_1m bulk_zc_pull_1m \
                bulk_zc_push_tcp_64k rpc_small rpc_small_telemetry; do
    for trace in 0 1; do
        "$target/release/zcorba-benchmark" \
            --workload "$workload" --seed 1 --seconds 0.5 --trace "$trace" >/dev/null
        echo "ok  $workload  trace=$trace"
    done
done
