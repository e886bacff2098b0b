//! Estimation-cost scaling: progressive sampling latency vs the sample
//! count S and vs the number of constrained columns (the two levers behind
//! the paper's §5.5 efficiency claims).
//!
//! Times the engine that serves a single estimate: the batched sampler on
//! a batch of one, with a persistent scratch and a fresh seed per call —
//! the path `Uae::try_estimate_card` takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::slice;
use uae_core::infer_batch::{progressive_sample_batch_with, BatchScratch};
use uae_core::{ResMade, ResMadeConfig, VirtualQuery, VirtualSchema};
use uae_query::{Predicate, Query};
use uae_tensor::ParamStore;

fn bench_samples_scaling(c: &mut Criterion) {
    let table = uae_data::dmv_like(4000, 0xBE);
    let schema = VirtualSchema::build(&table, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 128, blocks: 1, seed: 1 });
    let raw = model.snapshot(&store);
    let q = Query::new(vec![
        Predicate::ge(0, 100i64),
        Predicate::le(0, 400i64),
        Predicate::eq(2, 1i64),
        Predicate::le(4, 20i64),
    ]);
    let vq = VirtualQuery::build(&table, &schema, &q);

    let mut g = c.benchmark_group("progressive_samples");
    g.sample_size(20);
    for &s in &[50usize, 100, 200, 400] {
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            let mut scratch = BatchScratch::new();
            let mut seed = 7u64;
            b.iter(|| {
                seed += 1;
                let vqs = slice::from_ref(&vq);
                black_box(progressive_sample_batch_with(
                    &raw,
                    &schema,
                    vqs,
                    s,
                    &[seed],
                    &mut scratch,
                ))
            });
        });
    }
    g.finish();
}

fn bench_constrained_columns(c: &mut Criterion) {
    let table = uae_data::kddcup_like(2000, 100, 0xBF);
    let schema = VirtualSchema::build(&table, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 128, blocks: 1, seed: 2 });
    let raw = model.snapshot(&store);

    let mut g = c.benchmark_group("constrained_columns");
    g.sample_size(15);
    for &ncols in &[2usize, 8, 32] {
        // Constrain the first `ncols` columns with >= anchor values.
        let preds: Vec<Predicate> =
            (0..ncols).map(|c| Predicate::ge(c, table.column(c).value(0).clone())).collect();
        let vq = VirtualQuery::build(&table, &schema, &Query::new(preds));
        g.bench_with_input(BenchmarkId::from_parameter(ncols), &(), |b, ()| {
            let mut scratch = BatchScratch::new();
            let mut seed = 9u64;
            b.iter(|| {
                seed += 1;
                let vqs = slice::from_ref(&vq);
                black_box(progressive_sample_batch_with(
                    &raw,
                    &schema,
                    vqs,
                    100,
                    &[seed],
                    &mut scratch,
                ))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_samples_scaling, bench_constrained_columns);
criterion_main!(benches);
