//! Reproduces **Figure 5** of the paper:
//!
//! * (1) training convergence — max q-error on Census in-workload queries
//!   as hybrid training progresses, epoch by epoch;
//! * (2) estimation latency of every estimator on DMV. (End-to-end serving
//!   latency, with repeated runs, is `servebench`'s job; see
//!   `BENCHMARK.json`.)

use std::time::Instant;

use uae_bench::{histogram_for, prepare_single_table, BenchScale};
use uae_core::Uae;
use uae_estimators::{
    BayesNetEstimator, KdeEstimator, LinearRegressionEstimator, MscnConfig, MscnEstimator,
    SamplingEstimator, SpnConfig, SpnEstimator,
};
use uae_query::{evaluate, CardEstimator};

fn main() {
    let scale = BenchScale::from_env();
    let t0 = Instant::now();

    // --- (1) epochs vs max error on Census -------------------------------
    eprintln!("[figure5] part 1: training convergence on census…");
    let census = prepare_single_table("census", &scale, 0xF15);
    let mut uae = Uae::new(&census.table, scale.uae_config(0x515));
    let epochs = (scale.hybrid_epochs * 2).clamp(4, 16);
    println!("\n=== Figure 5(1): training epoch vs max q-error (Census, in-workload) ===");
    println!("{:<8} {:>12} {:>12}", "epoch", "max q-err", "mean q-err");
    for epoch in 1..=epochs {
        uae.train_hybrid(&census.train, 1);
        let ev = evaluate(&uae, &census.test_in);
        println!("{epoch:<8} {:>12.3} {:>12.3}", ev.errors.max, ev.errors.mean);
    }

    // --- (2) estimation latency on DMV ------------------------------------
    eprintln!("[figure5] part 2: estimation latencies on dmv…");
    let mut small = scale.clone();
    small.test_queries = small.test_queries.min(100);
    let dmv = prepare_single_table("dmv", &small, 0xF25);
    let sample_ratio = 0.02;

    println!("\n=== Figure 5(2): estimation latency (ms/query, DMV) ===");
    println!("{:<15} {:>12}", "Model", "ms/query");
    let report = |est: &dyn CardEstimator| {
        let ev = evaluate(est, &dmv.test_in);
        println!("{:<15} {:>12.3}", ev.name, ev.mean_latency_ms);
    };

    report(&LinearRegressionEstimator::new(&dmv.table, &dmv.train, 1e-3));
    report(&histogram_for(&dmv.table));
    report(&MscnEstimator::new(
        &dmv.table,
        &dmv.train,
        &MscnConfig { epochs: 5, ..MscnConfig::default() },
    ));
    report(&SamplingEstimator::new(&dmv.table, sample_ratio, 1));
    report(&BayesNetEstimator::new(&dmv.table, 128));
    report(&KdeEstimator::new(&dmv.table, sample_ratio, 2));
    report(&SpnEstimator::new(&dmv.table, &SpnConfig::default()));
    let mut naru = Uae::new(&dmv.table, small.uae_config(0x525)).with_name("Naru");
    naru.train_data(1); // latency does not depend on training quality
    report(&naru);
    let mscn_s = MscnEstimator::new(
        &dmv.table,
        &dmv.train,
        &MscnConfig { epochs: 5, sample_rows: 1000, ..MscnConfig::default() },
    );
    report(&mscn_s);
    let uae_est = naru.clone().with_name("UAE");
    report(&uae_est);

    println!("\n(total {:.0}s)", t0.elapsed().as_secs_f64());
}
