//! Allocation regression guard for the plan/workspace refactor: once the
//! scratch buffers are warm, steady-state estimate calls must perform
//! **zero** heap allocations in the tensor layer (`tensor_alloc_count`
//! stays flat), and the per-query global allocation count — everything,
//! including `Vec<u32>` code buffers and hash-map churn — is reported.
//!
//! The batched sampler's prefix/stacked buffers are sized by the *deduped*
//! prefix count, which varies with the RNG seeds: under an advancing seed
//! stream the high-water mark can still creep by a few rows per call, so
//! the exact-zero assertions run on deterministic workloads (fixed shapes
//! for the sequential path, fixed seeds for the batched path) and the
//! advancing-seed path gets a tight growth bound instead.
//!
//! Single `#[test]` on purpose: both counters are process-global, so a
//! concurrently running test that touches tensors would break the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use uae_core::infer_batch::{
    progressive_sample_batch, progressive_sample_batch_sharded, progressive_sample_batch_with,
    BatchScratch,
};
use uae_core::vquery::VirtualQuery;
use uae_core::{ResMade, ResMadeConfig, TrainConfig, Uae, UaeConfig, VirtualSchema};
use uae_data::census_like;
use uae_query::{generate_workload, Query, WorkloadSpec};
use uae_tensor::{tensor_alloc_count, ParamStore};

/// Counts every allocation and reallocation made through the global
/// allocator (deallocations are free of charge).
struct CountingAlloc;

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_estimates_allocate_no_tensors() {
    let t = census_like(600, 7);
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 32, blocks: 1, seed: 3 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 200,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&t, cfg);
    uae.train_data(1);
    let workload = generate_workload(&t, &WorkloadSpec::random(16, 31), &HashSet::new());
    let queries: Vec<Query> = workload.into_iter().map(|lq| lq.query).collect();
    let rounds = 3u64;

    // --- sequential path: exact zero -----------------------------------
    // `InferScratch` shapes depend only on `estimate_samples` and the
    // schema, so after one warm call nothing in the tensor layer moves.
    for q in &queries {
        uae.estimate_selectivity(q);
    }
    let tensors_before = tensor_alloc_count();
    let global_before = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        for q in &queries {
            uae.estimate_selectivity(q);
        }
    }
    let tensor_delta = tensor_alloc_count() - tensors_before;
    let global_delta = GLOBAL_ALLOCS.load(Ordering::Relaxed) - global_before;
    eprintln!(
        "sequential steady state: {tensor_delta} tensor allocs, {} global allocs/query",
        global_delta / (rounds * queries.len() as u64)
    );
    assert_eq!(tensor_delta, 0, "warm estimate_selectivity must not allocate tensors");

    // --- batched path, fixed seeds: exact zero -------------------------
    // Identical seeds make every call identical, so the second call onward
    // reuses every buffer at its exact prior size.
    let schema = VirtualSchema::build(&t, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 32, blocks: 1, seed: 3 });
    let raw = model.snapshot(&store);
    let vqs: Vec<VirtualQuery> =
        queries.iter().map(|q| VirtualQuery::build(&t, &schema, q)).collect();
    let seeds: Vec<u64> = (0..vqs.len() as u64).map(|i| 0xfeed + 31 * i).collect();
    let mut scratch = BatchScratch::new();
    // Warm until the buffers reach their fixed point: the rebuild-and-swap
    // cycle rotates tensors through the prefix pool, so one capacity
    // upgrade per call can recur for ~pool-size calls before every
    // circulating buffer has grown to its orbit's maximum. Bounded, so a
    // genuinely structural per-call allocation still fails below.
    let mut stable = 0;
    for _ in 0..64 {
        let before = tensor_alloc_count();
        progressive_sample_batch_with(&raw, &schema, &vqs, 200, &seeds, &mut scratch);
        stable = if tensor_alloc_count() == before { stable + 1 } else { 0 };
        if stable >= 2 {
            break;
        }
    }
    let tensors_before = tensor_alloc_count();
    let global_before = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        progressive_sample_batch_with(&raw, &schema, &vqs, 200, &seeds, &mut scratch);
    }
    let tensor_delta = tensor_alloc_count() - tensors_before;
    let global_delta = GLOBAL_ALLOCS.load(Ordering::Relaxed) - global_before;
    eprintln!(
        "batched steady state (fixed seeds): {tensor_delta} tensor allocs, \
         {} global allocs/query",
        global_delta / (rounds * vqs.len() as u64)
    );
    assert_eq!(tensor_delta, 0, "warm fixed-seed batch must not allocate tensors");

    // --- sharded batch, fixed seeds: exact zero ------------------------
    // A batch of 32 split into 4 query shards, pinned so the path is
    // sharded whatever the host's core count. Each shard owns a persistent
    // scratch inside the parent, warmed to its own fixed point.
    let big: Vec<Query> = generate_workload(&t, &WorkloadSpec::random(32, 37), &HashSet::new())
        .into_iter()
        .map(|lq| lq.query)
        .collect();
    let big_vqs: Vec<VirtualQuery> =
        big.iter().map(|q| VirtualQuery::build(&t, &schema, q)).collect();
    let big_seeds: Vec<u64> = (0..big_vqs.len() as u64).map(|i| 0xbeef + 17 * i).collect();
    let shards = 4;
    let mut stable = 0;
    for _ in 0..64 {
        let before = tensor_alloc_count();
        progressive_sample_batch_sharded(
            &raw,
            &schema,
            &big_vqs,
            200,
            &big_seeds,
            shards,
            &mut scratch,
        );
        stable = if tensor_alloc_count() == before { stable + 1 } else { 0 };
        if stable >= 2 {
            break;
        }
    }
    let tensors_before = tensor_alloc_count();
    let global_before = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        progressive_sample_batch_sharded(
            &raw,
            &schema,
            &big_vqs,
            200,
            &big_seeds,
            shards,
            &mut scratch,
        );
    }
    let tensor_delta = tensor_alloc_count() - tensors_before;
    let global_delta = GLOBAL_ALLOCS.load(Ordering::Relaxed) - global_before;
    let per_query = tensor_delta / (rounds * big_vqs.len() as u64);
    eprintln!(
        "sharded batch steady state ({shards} shards, fixed seeds): {per_query} tensor \
         allocs/query, {} global allocs/query",
        global_delta / (rounds * big_vqs.len() as u64)
    );
    assert_eq!(tensor_delta, 0, "warm sharded batch must not allocate tensors");

    // Contrast: the allocating entry point (fresh scratch per call) on the
    // same workload — the floor a cold call pays even post-refactor. The
    // pre-refactor engine additionally allocated fresh hidden/logit/input
    // tensors every column round.
    let tensors_before = tensor_alloc_count();
    progressive_sample_batch(&raw, &schema, &vqs, 200, &seeds);
    let oracle_delta = tensor_alloc_count() - tensors_before;
    eprintln!("fresh-scratch entry point: {} tensor allocs/query", oracle_delta / vqs.len() as u64);

    // --- batched path, advancing seeds: bounded high-water growth ------
    for _ in 0..4 {
        uae.estimate_batch(&queries);
    }
    let tensors_before = tensor_alloc_count();
    let global_before = GLOBAL_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        uae.estimate_batch(&queries);
    }
    let tensor_delta = tensor_alloc_count() - tensors_before;
    let global_delta = GLOBAL_ALLOCS.load(Ordering::Relaxed) - global_before;
    eprintln!(
        "batched steady state (advancing seeds): {tensor_delta} tensor allocs, \
         {} global allocs/query",
        global_delta / (rounds * queries.len() as u64)
    );
    // Only the stacked/prefix buffers may grow, and only when a round's
    // deduped prefix count exceeds everything seen before.
    assert!(
        tensor_delta <= 2 * rounds,
        "estimate_batch tensor traffic beyond high-water growth: {tensor_delta}"
    );
}
