//! Steady-state overheads of the online-learning loop on a drifted
//! census-like table: the shadow gate's holdout scoring pass (paid per
//! candidate, off the serving path) and the query pool's deduplicating
//! intake (paid per executed query, on the serving path's completion
//! hook). The drift-recovery study itself (median q-error against
//! wall-clock per trainer round, written to `target/BENCH_online.json`) is
//! `examples/online_drift_drill.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;

use uae_core::{shadow_score, QueryPool, ResMadeConfig, TrainConfig, Uae, UaeConfig};
use uae_data::{census_like, Table};
use uae_query::{generate_workload, label_queries, WorkloadSpec};

const ROWS: usize = 1_000;
const TABLE_SEED: u64 = 0xd01f;

/// Base table plus a drift batch carved from the same generation so the
/// two partitions share dictionaries (§4.5: incremental rows arrive in
/// the same domain). The drift is biased to the upper half of column
/// 0's domain — a covariate shift, not just more of the same rows.
fn drift_tables() -> (Table, Table) {
    let big = census_like(4 * ROWS, TABLE_SEED);
    let base = big.take_rows(&(0..ROWS).collect::<Vec<_>>());
    let dom0 = big.column(0).domain_size() as u32;
    let shifted: Vec<usize> =
        (ROWS..4 * ROWS).filter(|&r| big.column(0).code(r) >= dom0 / 2).collect();
    (base, big.take_rows(&shifted))
}

fn pretrained(base: &Table) -> Uae {
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 32, blocks: 1, seed: 7 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 64,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(base, cfg);
    eprintln!("[online] pretraining on {} rows…", base.num_rows());
    uae.train_data(2);
    uae
}

fn bench_online(c: &mut Criterion) {
    let (base, drift) = drift_tables();
    let live = pretrained(&base);

    let mut full = base.clone();
    full.append(&drift);
    let labeled = label_queries(
        &full,
        generate_workload(&full, &WorkloadSpec::random(48, 0xbe9c), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect(),
    );

    let mut g = c.benchmark_group("online");
    g.sample_size(10);
    // The gate's cost per candidate: one cloned-model estimation pass
    // over the holdout window. Runs off the serving path.
    g.bench_function("shadow_score_48q", |b| {
        b.iter(|| black_box(shadow_score(&live, &labeled).summary.median))
    });
    // The pool's cost per executed query: fingerprint dedup + FIFO
    // bookkeeping. Runs on the serving path's completion hook.
    g.bench_function("pool_intake_48q_dedup", |b| {
        let pool = QueryPool::new(256);
        b.iter(|| {
            pool.extend(labeled.iter().cloned());
            black_box(pool.stats().deduped)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
