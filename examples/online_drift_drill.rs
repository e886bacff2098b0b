//! The data-drift drill for the online-learning loop (ROADMAP item 2):
//! a tenant's table grows by a batch of fresh rows, the stale live
//! model's q-error jumps, and the background trainer — fed executed
//! queries with post-drift ground truth plus the staged rows — recovers
//! it through shadow-gated promotions, charting median q-error against
//! wall-clock as it goes.
//!
//! ```sh
//! cargo run --release --example online_drift_drill -- \
//!     --metrics-out target/online_promotions.jsonl
//! ```
//!
//! Promotion/gate/rollback telemetry (one JSONL line per event) goes to
//! `--metrics-out`; the recovery chart lands in
//! `target/BENCH_online.json`. CI runs this seeded, scaled-down drill
//! in both the default and `UAE_FORCE_SCALAR=1` modes and fails the
//! build if the post-drift median q-error does not recover to within
//! 1.5× of its pre-drift level.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use uae::core::{
    shadow_score, JsonlSink, OnlineConfig, OnlineTrainer, QueryPool, ResMadeConfig, RoundOutcome,
    TrainConfig, Uae, UaeConfig,
};
use uae::data::census_like;
use uae::query::{generate_workload, label_queries, LabeledQuery, WorkloadSpec};
use uae::server::Registry;

const ROWS: usize = 1_000;
const TABLE_SEED: u64 = 0xd01f;
const RECOVERY_TARGET: f64 = 1.5;
const MAX_ROUNDS: usize = 16;

fn metrics_out() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            if let Some(p) = args.next() {
                return PathBuf::from(p);
            }
        } else if let Some(p) = a.strip_prefix("--metrics-out=") {
            return PathBuf::from(p);
        }
    }
    PathBuf::from("target/online_promotions.jsonl")
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

fn main() {
    let metrics = metrics_out();
    if let Some(dir) = metrics.parent() {
        std::fs::create_dir_all(dir).ok();
    }

    // One generation, two partitions sharing dictionaries (§4.5:
    // incremental rows arrive in the same domain): the base table, and a
    // drift batch biased to the upper half of column 0's domain — a
    // covariate shift, not just more of the same rows.
    let big = census_like(4 * ROWS, TABLE_SEED);
    let base = big.take_rows(&(0..ROWS).collect::<Vec<_>>());
    let dom0 = big.column(0).domain_size() as u32;
    let shifted: Vec<usize> =
        (ROWS..4 * ROWS).filter(|&r| big.column(0).code(r) >= dom0 / 2).collect();
    let drift = big.take_rows(&shifted);
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 32, blocks: 1, seed: 7 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 64,
        ..UaeConfig::default()
    };
    let mut live = Uae::new(&base, cfg);
    println!("[drill] pretraining on {} rows…", base.num_rows());
    live.train_data(2);

    let registry = Arc::new(Registry::new());
    let tenant = registry.register("census", live.clone());

    // A fixed evaluation workload; its ground truth is re-labeled after
    // the drift, so the same queries measure the model before and after.
    let eval_queries: Vec<_> =
        generate_workload(&base, &WorkloadSpec::random(48, 0xe7a1), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect();
    let eval_pre = label_queries(&base, eval_queries.clone());
    let pre_drift = median_q(&tenant.model(), &eval_pre);
    println!("[drill] pre-drift median q-error: {pre_drift:.3}");

    // Drift: the fresh batch lands in the tenant's table. Truth moves;
    // the live model still reasons over the old table.
    let mut full = base.clone();
    full.append(&drift);
    let eval_post = label_queries(&full, eval_queries);
    let stale = median_q(&tenant.model(), &eval_post);
    println!(
        "[drill] appended {} rows; stale median q-error: {stale:.3} ({:.2}x pre-drift)",
        drift.num_rows(),
        stale / pre_drift
    );

    // The online loop's two intake signals: staged drift rows and
    // executed queries with post-drift ground truth.
    let pool = QueryPool::new(512);
    pool.stage_rows(&drift);
    let label_stream = label_queries(
        &full,
        generate_workload(&full, &WorkloadSpec::random(MAX_ROUNDS * 20, 0x77aa), &HashSet::new())
            .into_iter()
            .map(|lq| lq.query)
            .collect(),
    );

    let mut trainer = OnlineTrainer::new(
        &tenant.model(),
        OnlineConfig {
            trigger_fresh: 16,
            holdout: 12,
            query_epochs: 3,
            data_epochs: 1,
            ..OnlineConfig::default()
        },
    );
    match JsonlSink::create(&metrics, "online-drill") {
        Ok(sink) => trainer.set_sink(Box::new(sink)),
        Err(e) => eprintln!("warning: cannot open {}: {e}", metrics.display()),
    }

    let drift_at = Instant::now();
    let mut curve: Vec<(f64, u64, f64)> = Vec::new(); // (t_ms, version, median)
    let mut promotions = 0u64;
    let mut rollbacks = 0u64;
    println!("\n{:>6} {:>10} {:>12} {:>10}", "round", "t_ms", "outcome", "median-q");
    for (round, wave) in label_stream.chunks(20).take(MAX_ROUNDS).enumerate() {
        pool.extend(wave.iter().cloned());
        let now_ns = drift_at.elapsed().as_nanos() as u64;
        let report = trainer.round(&pool, &tenant.model(), now_ns);
        let outcome = match report.outcome {
            RoundOutcome::Idle => "idle".to_owned(),
            RoundOutcome::Rejected(d) => format!("rejected:{d}"),
            RoundOutcome::Promoted { model, version, .. } => {
                promotions += 1;
                registry.swap_model("census", model).expect("tenant registered");
                format!("promoted:v{version}")
            }
            RoundOutcome::RolledBack { model, version, .. } => {
                rollbacks += 1;
                registry.swap_model("census", model).expect("tenant registered");
                format!("rolledback:v{version}")
            }
            RoundOutcome::PersistFailed { version, .. } => format!("persistfail:v{version}"),
        };
        let t_ms = drift_at.elapsed().as_secs_f64() * 1e3;
        let median = median_q(&tenant.model(), &eval_post);
        curve.push((t_ms, trainer.version(), median));
        println!("{round:>6} {t_ms:>10.1} {outcome:>12} {median:>10.3}");
        if median <= RECOVERY_TARGET * pre_drift && promotions > 0 {
            break;
        }
    }

    let recovered = median_q(&tenant.model(), &eval_post);
    let ok = promotions > 0 && recovered <= RECOVERY_TARGET * pre_drift;
    println!(
        "\n[drill] recovered median q-error: {recovered:.3} ({:.2}x pre-drift, target {RECOVERY_TARGET}x) \
         after {promotions} promotion(s), {rollbacks} rollback(s)",
        recovered / pre_drift
    );

    let chart = PathBuf::from("target/BENCH_online.json");
    let points: Vec<String> = curve
        .iter()
        .map(|(t, v, m)| {
            format!("{{\"t_ms\": {:.1}, \"version\": {v}, \"median_q\": {}}}", t, json_f64(*m))
        })
        .collect();
    let json = format!
        ("{{\n  \"drill\": \"online_drift\",\n  \"rows_base\": {ROWS},\n  \"rows_drift\": {},\n  \"pre_drift_median_q\": {},\n  \"stale_median_q\": {},\n  \"recovered_median_q\": {},\n  \"recovery_target\": {RECOVERY_TARGET},\n  \"recovered\": {ok},\n  \"promotions\": {promotions},\n  \"rollbacks\": {rollbacks},\n  \"curve\": [\n    {}\n  ]\n}}\n",
        drift.num_rows(),
        json_f64(pre_drift),
        json_f64(stale),
        json_f64(recovered),
        points.join(",\n    "),
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write(&chart, json).expect("write recovery chart");
    println!("[drill] recovery chart: {}", chart.display());
    println!("[drill] telemetry: {}", metrics.display());

    drop(trainer); // flush the JSONL sink before the verdict
    if !ok {
        eprintln!(
            "[drill] FAILED: median q-error {recovered:.3} did not recover to \
             {RECOVERY_TARGET}x of pre-drift {pre_drift:.3}"
        );
        std::process::exit(1);
    }
}
