//! Data-drift recovery study for the online-learning loop: a tenant's
//! table grows by a covariate-shifted batch, the stale model's q-error
//! jumps, and the shadow-gated trainer recovers it. Charts median
//! q-error against wall-clock (one point per trainer round) and writes
//! `BENCH_online.json` at the repo root.
//!
//! Two numbers frame the chart:
//!
//! * **stale_median_q / pre_drift_median_q** — how badly the drift
//!   hurts a model that keeps reasoning over the old table, and
//! * **recovered_median_q / pre_drift_median_q** — where the loop lands
//!   after promotions (target: ≤ 1.5×, the drill's CI gate).
//!
//! The Criterion group then isolates the loop's steady-state overheads:
//! the shadow gate's holdout scoring pass (paid per candidate, off the
//! serving path) and the query pool's deduplicating intake (paid per
//! executed query, on the serving path's completion hook).

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use uae_core::{
    shadow_score, OnlineConfig, OnlineTrainer, QueryPool, ResMadeConfig, RoundOutcome, TrainConfig,
    Uae, UaeConfig,
};
use uae_data::{census_like, Table};
use uae_query::{generate_workload, label_queries, LabeledQuery, WorkloadSpec};

const ROWS: usize = 1_000;
const TABLE_SEED: u64 = 0xd01f;
const RECOVERY_TARGET: f64 = 1.5;
const MAX_ROUNDS: usize = 16;

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

fn median_q(model: &Uae, eval: &[LabeledQuery]) -> f64 {
    shadow_score(model, eval).summary.median
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_owned()
    }
}

fn emit_online_json(base: &Table, drift: &Table, live: &Uae) {
    // The same 48 queries measure the model before and after the drift;
    // only their ground truth moves.
    let eval_queries: Vec<_> =
        generate_workload(base, &WorkloadSpec::random(48, 0xe7a1), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect();
    let pre_drift = median_q(live, &label_queries(base, eval_queries.clone()));

    let mut full = base.clone();
    full.append(drift);
    let eval_post = label_queries(&full, eval_queries);
    let stale = median_q(live, &eval_post);
    eprintln!(
        "[online] drift {} rows: median q-error {pre_drift:.3} -> {stale:.3} \
         ({:.2}x pre-drift)",
        drift.num_rows(),
        stale / pre_drift
    );

    let pool = QueryPool::new(512);
    pool.stage_rows(drift);
    let label_stream = label_queries(
        &full,
        generate_workload(&full, &WorkloadSpec::random(MAX_ROUNDS * 20, 0x77aa), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect(),
    );

    let mut current = live.clone();
    let mut trainer = OnlineTrainer::new(
        &current,
        OnlineConfig {
            trigger_fresh: 16,
            holdout: 12,
            query_epochs: 3,
            data_epochs: 1,
            ..OnlineConfig::default()
        },
    );

    let drift_at = Instant::now();
    let mut curve: Vec<(f64, u64, f64)> = Vec::new();
    let mut promotions = 0u64;
    let mut rollbacks = 0u64;
    for wave in label_stream.chunks(20).take(MAX_ROUNDS) {
        pool.extend(wave.iter().cloned());
        let now_ns = drift_at.elapsed().as_nanos() as u64;
        let report = trainer.round(&pool, &current, now_ns);
        match report.outcome {
            RoundOutcome::Promoted { model, .. } => {
                promotions += 1;
                current = model;
            }
            RoundOutcome::RolledBack { model, .. } => {
                rollbacks += 1;
                current = model;
            }
            RoundOutcome::Rejected(_) | RoundOutcome::Idle | RoundOutcome::PersistFailed { .. } => {
            }
        }
        let t_ms = drift_at.elapsed().as_secs_f64() * 1e3;
        let median = median_q(&current, &eval_post);
        eprintln!(
            "[online] round at {t_ms:.1} ms: v{} median q-error {median:.3}",
            trainer.version()
        );
        curve.push((t_ms, trainer.version(), median));
        if median <= RECOVERY_TARGET * pre_drift && promotions > 0 {
            break;
        }
    }

    let recovered = median_q(&current, &eval_post);
    let ok = promotions > 0 && recovered <= RECOVERY_TARGET * pre_drift;
    let points: Vec<String> = curve
        .iter()
        .map(|(t, v, m)| {
            format!("    {{\"t_ms\": {:.1}, \"version\": {v}, \"median_q\": {}}}", t, json_f64(*m))
        })
        .collect();
    let json = format!(
        "{{\n  \"drill\": \"online_drift_recovery\",\n  \
         \"workload\": \"census_like {ROWS} base rows + {} drifted rows \
         (upper half of column 0), 48-query eval, 20-label waves\",\n  \
         \"pre_drift_median_q\": {},\n  \
         \"stale_median_q\": {},\n  \
         \"recovered_median_q\": {},\n  \
         \"stale_over_pre\": {},\n  \
         \"recovered_over_pre\": {},\n  \
         \"recovery_target\": {RECOVERY_TARGET},\n  \
         \"recovered\": {ok},\n  \
         \"promotions\": {promotions},\n  \
         \"rollbacks\": {rollbacks},\n  \
         \"curve\": [\n{}\n  ]\n}}\n",
        drift.num_rows(),
        json_f64(pre_drift),
        json_f64(stale),
        json_f64(recovered),
        json_f64(stale / pre_drift),
        json_f64(recovered / pre_drift),
        points.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_online.json");
    std::fs::write(path, json).expect("write BENCH_online.json");
    eprintln!(
        "[online] recovered median q-error {recovered:.3} ({:.2}x pre-drift, target \
         {RECOVERY_TARGET}x) after {promotions} promotion(s), {rollbacks} rollback(s)",
        recovered / pre_drift
    );
    assert!(ok, "the online loop must recover within {RECOVERY_TARGET}x of pre-drift");
}

fn bench_online(c: &mut Criterion) {
    let (base, drift) = drift_tables();
    let live = pretrained(&base);
    emit_online_json(&base, &drift, &live);

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
