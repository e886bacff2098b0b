//! Figure 5(2) as a Criterion bench: per-query estimation latency of every
//! estimator on a DMV-like table — plus the batched-inference study:
//! sequential vs cross-query batched progressive sampling on the table5
//! join workload, with a printed queries/sec sweep over S ∈ {200, 1000} and
//! batch ∈ {1, 32, 256}. End-to-end serving numbers come from `servebench`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use uae_core::Uae;
use uae_estimators::{
    BayesNetEstimator, HistogramEstimator, KdeEstimator, LinearRegressionEstimator, MscnConfig,
    MscnEstimator, SamplingEstimator, SpnConfig, SpnEstimator,
};
use uae_join::{
    generate_join_workload, imdb_like, sample_outer_join, JoinQuery, JoinUae, JoinWorkloadSpec,
};
use uae_query::{
    default_bounded_column, generate_workload, CardEstimator, LabeledQuery, WorkloadSpec,
};

struct Setup {
    queries: Vec<LabeledQuery>,
    estimators: Vec<Box<dyn CardEstimator>>,
}

fn setup() -> Setup {
    let table = uae_data::dmv_like(6000, 0xBE4C);
    let col = default_bounded_column(&table);
    let train = generate_workload(&table, &WorkloadSpec::in_workload(col, 60, 1), &HashSet::new());
    let queries =
        generate_workload(&table, &WorkloadSpec::in_workload(col, 20, 2), &HashSet::new());

    let mut uae_cfg = uae_core::UaeConfig::default();
    uae_cfg.model.hidden = 128;
    uae_cfg.estimate_samples = 100;
    let mut naru = Uae::new(&table, uae_cfg).with_name("Naru");
    naru.train_data(1);

    let estimators: Vec<Box<dyn CardEstimator>> = vec![
        Box::new(LinearRegressionEstimator::new(&table, &train, 1e-3)),
        Box::new(HistogramEstimator::new(&table, 64)),
        Box::new(MscnEstimator::new(
            &table,
            &train,
            &MscnConfig { epochs: 3, ..MscnConfig::default() },
        )),
        Box::new(SamplingEstimator::new(&table, 0.05, 3)),
        Box::new(BayesNetEstimator::new(&table, 128)),
        Box::new(KdeEstimator::new(&table, 0.05, 4)),
        Box::new(SpnEstimator::new(&table, &SpnConfig::default())),
        Box::new(naru),
    ];
    Setup { queries, estimators }
}

/// The table5 serving setup: a data-trained UAE over the IMDB-like join
/// sample plus a JOB-light-ranges-focused workload.
fn setup_join(num_queries: usize) -> (JoinUae, Vec<JoinQuery>) {
    let schema = imdb_like(1200, 0x7AB5);
    let sample = sample_outer_join(&schema, 3000, 32, 21);
    let mut cfg = uae_core::UaeConfig::default();
    cfg.model.hidden = 128;
    cfg.factor_threshold = usize::MAX; // fanout columns must stay unfactorized
    let mut uae = JoinUae::new(sample, cfg);
    uae.train_data(1);
    let queries: Vec<JoinQuery> = generate_join_workload(
        &schema,
        &JoinWorkloadSpec::focused(0, num_queries, 31),
        &HashSet::new(),
    )
    .into_iter()
    .map(|lq| lq.query)
    .collect();
    (uae, queries)
}

/// Estimate the workload in chunks of `batch` queries and return the
/// elapsed seconds. `batch == 1` is the sequential per-query path.
fn run_batched(uae: &JoinUae, queries: &[JoinQuery], batch: usize) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    if batch <= 1 {
        for q in queries {
            acc += uae.estimate(q);
        }
    } else {
        for chunk in queries.chunks(batch) {
            acc += uae.estimate_batch(chunk).iter().sum::<f64>();
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Sweep S ∈ {200, 1000} × batch ∈ {1, 32, 256} over the table5 workload
/// and print queries/sec for each point.
fn print_sweep(uae: &mut JoinUae, queries: &[JoinQuery]) {
    for &samples in &[200usize, 1000] {
        uae.uae_mut().set_estimate_samples(samples);
        for &batch in &[1usize, 32, 256] {
            let secs = run_batched(uae, queries, batch);
            let qps = queries.len() as f64 / secs.max(1e-12);
            eprintln!("[inference] S={samples} batch={batch}: {qps:.1} queries/sec ({secs:.2}s)");
        }
    }
}

fn bench_batched_inference(c: &mut Criterion) {
    let (mut uae, queries) = setup_join(256);
    print_sweep(&mut uae, &queries);

    // Criterion group on a smaller slice so iteration counts stay sane.
    let slice = &queries[..queries.len().min(32)];
    uae.uae_mut().set_estimate_samples(200);
    let mut g = c.benchmark_group("batched_inference");
    g.sample_size(10);
    g.bench_function("sequential/S=200", |b| b.iter(|| black_box(run_batched(&uae, slice, 1))));
    g.bench_function("batched-32/S=200", |b| b.iter(|| black_box(run_batched(&uae, slice, 32))));
    g.finish();
}

fn bench_estimation(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("estimation_latency");
    g.sample_size(10);
    for est in &s.estimators {
        g.bench_function(est.name(), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for lq in &s.queries {
                    acc += est.estimate_card(&lq.query);
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batched_inference, bench_estimation);
criterion_main!(benches);
