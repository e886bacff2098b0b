#!/usr/bin/env bash
# CI entry point: formatting, lints, then the tier-1 verify
# (release build + full test suite). Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== rustdoc (deny warnings: broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude parking_lot

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== kernel suites under UAE_FORCE_SCALAR =="
UAE_FORCE_SCALAR=1 cargo test -q -p uae-tensor

echo "== engine equivalence + zero-alloc under UAE_FORCE_SCALAR =="
# The scalar backend is what hosts without AVX2+FMA run; the head-prefix
# forward must keep the batched engine bit-identical to the oracle and
# allocation-free there too.
UAE_FORCE_SCALAR=1 cargo test -q -p uae-core --test batch_equivalence --test zero_alloc

echo "== query sharding: equivalence + zero-alloc + serving at pool widths 1 and 4 =="
# Width 1 keeps every batch one unsharded walk; width 4 splits a batch of
# 32+ queries into up to 8 shards, even on a 2-core machine. Every estimate
# goes through the sharding dispatch, single queries included. The server
# suites run too: executors share one queue lock with submitters and call
# into the shard pool.
for threads in 1 4; do
    UAE_POOL_THREADS=$threads cargo test -q -p uae-core \
        --test batch_equivalence --test zero_alloc --test fault_injection \
        --test adversarial --test workspace_equivalence
    UAE_POOL_THREADS=$threads cargo test -q -p uae-server \
        --test server_pipeline --test fleet_routing
done

echo "== serving benchmark builds (its own workspace, outside tier-1) =="
cargo build --release --offline --manifest-path servebench/Cargo.toml

echo "== serving benchmark smoke: census reply checks =="
# A 2 s census run (~4 s with setup). Its last line is the JSON result:
# `correct` holds only if every answer lies in [0, N], none was degraded
# below the full sample budget and the median q-error is finite and sane;
# `failed` counts requests that got no answer.
last=$(cargo run --release --quiet --offline --manifest-path servebench/Cargo.toml -- \
    --workload census --seed 1 --seconds 2 | tail -n 1)
echo "$last"
grep -q '"correct": true' <<<"$last"
grep -q '"failed": 0[,}]' <<<"$last"

echo "== smoke: train -> checkpoint -> resume (bit-exact), pool widths 1 and 3 =="
# Training must not depend on the core count: the reference run's weight
# digest must be the same at both widths.
rm -f target/train_metrics.jsonl
narrow=$(UAE_POOL_THREADS=1 cargo run --release --example train_checkpoint_resume -- \
    --metrics-out target/train_metrics.jsonl)
echo "$narrow"
test -s target/train_metrics.jsonl
grep -q '"event":"epoch"' target/train_metrics.jsonl
wide=$(UAE_POOL_THREADS=3 cargo run --release --example train_checkpoint_resume)
echo "$wide"
digest=$(grep '^weights fnv64 ' <<<"$narrow")
test "$digest" = "$(grep '^weights fnv64 ' <<<"$wide")"

echo "== fault drill: degraded serving under injected faults =="
cargo run --release --example serve_fault_drill -- \
    --metrics-out target/serve_faults.jsonl
test -s target/serve_faults.jsonl
grep -q '"event":"fallback"' target/serve_faults.jsonl

echo "== serving smoke: concurrent front-end burst drill (default + scalar) =="
cargo run --release --example serve_concurrent -- \
    --metrics-out target/serving.jsonl
test -s target/serving.jsonl
grep -q '"event":"request_served"' target/serving.jsonl
UAE_FORCE_SCALAR=1 cargo run --release --example serve_concurrent -- \
    --metrics-out target/serving_scalar.jsonl
test -s target/serving_scalar.jsonl
grep -q '"event":"request_served"' target/serving_scalar.jsonl

echo "== online smoke: drift drill with shadow-gated recovery (default + scalar) =="
cargo run --release --example online_drift_drill -- \
    --metrics-out target/online_promotions.jsonl
test -s target/online_promotions.jsonl
grep -q '"event":"online_promoted"' target/online_promotions.jsonl
test -s target/BENCH_online.json
UAE_FORCE_SCALAR=1 cargo run --release --example online_drift_drill -- \
    --metrics-out target/online_promotions_scalar.jsonl
test -s target/online_promotions_scalar.jsonl
grep -q '"event":"online_promoted"' target/online_promotions_scalar.jsonl

echo "== chaos drill: crash-safety matrix (default + scalar) =="
cargo run --release --example chaos_drill
test -s target/chaos_drill.jsonl
test -s target/chaos_recovery.jsonl
grep -q '"event":"recovery_finished"' target/chaos_recovery.jsonl
test -s target/BENCH_recovery.json
UAE_FORCE_SCALAR=1 cargo run --release --example chaos_drill
test -s target/BENCH_recovery.json

echo "== router smoke: model-fleet routing drill (default + scalar) =="
# The drill serves its fleet through the server front end, so the file
# holds `request_served` lines next to the `routed` ones.
cargo run --release --example route_drill -- \
    --metrics-out target/routing_telemetry.jsonl
test -s target/routing_telemetry.jsonl
grep -q '"event":"routed"' target/routing_telemetry.jsonl
grep -q '"event":"request_served"' target/routing_telemetry.jsonl
UAE_FORCE_SCALAR=1 cargo run --release --example route_drill -- \
    --metrics-out target/routing_telemetry_scalar.jsonl
test -s target/routing_telemetry_scalar.jsonl
grep -q '"event":"routed"' target/routing_telemetry_scalar.jsonl
grep -q '"event":"request_served"' target/routing_telemetry_scalar.jsonl

echo "CI OK"
