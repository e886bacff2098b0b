#!/usr/bin/env bash
# CI entry point: formatting, lints, then the tier-1 verify
# (release build + full test suite). Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== scalar fallback: kernel + parity suites under UAE_FORCE_SCALAR =="
UAE_FORCE_SCALAR=1 cargo test -q -p uae-tensor
UAE_FORCE_SCALAR=1 cargo test -q -p uae-core --test quant_parity

echo "== query sharding: equivalence + zero-alloc at pool widths 1 and 4 =="
# Width 1 keeps every batch one unsharded walk; width 4 splits a batch of
# 32+ queries into up to 8 shards, even on a 2-core machine.
for threads in 1 4; do
    UAE_POOL_THREADS=$threads cargo test -q -p uae-core \
        --test batch_equivalence --test zero_alloc --test fault_injection
done

echo "== benches compile =="
cargo bench --no-run

echo "== smoke: train -> checkpoint -> resume (bit-exact) =="
cargo run --release --example train_checkpoint_resume -- \
    --metrics-out target/train_metrics.jsonl
test -s target/train_metrics.jsonl

echo "== fault drill: degraded serving under injected faults =="
cargo run --release --example serve_fault_drill -- \
    --metrics-out target/serve_faults.jsonl
test -s target/serve_faults.jsonl

echo "== serving smoke: concurrent front-end burst drill =="
cargo run --release --example serve_concurrent -- \
    --metrics-out target/serving.jsonl
test -s target/serving.jsonl

echo "== online smoke: drift drill with shadow-gated recovery =="
cargo run --release --example online_drift_drill -- \
    --metrics-out target/online_promotions.jsonl
test -s target/online_promotions.jsonl
test -s target/BENCH_online.json

echo "== chaos drill: crash-safety matrix (default + scalar) =="
cargo run --release --example chaos_drill
test -s target/chaos_drill.jsonl
test -s target/chaos_recovery.jsonl
test -s target/BENCH_recovery.json
UAE_FORCE_SCALAR=1 cargo run --release --example chaos_drill
test -s target/BENCH_recovery.json

echo "== router smoke: model-fleet routing drill (default + scalar) =="
cargo run --release --example route_drill -- \
    --metrics-out target/routing_telemetry.jsonl
test -s target/routing_telemetry.jsonl
UAE_FORCE_SCALAR=1 cargo run --release --example route_drill -- \
    --metrics-out target/routing_telemetry_scalar.jsonl
test -s target/routing_telemetry_scalar.jsonl

echo "CI OK"
