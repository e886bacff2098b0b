//! Serving-layer fault drill: inject every deterministic fault the
//! `FaultPlan` knows — transient NaN logits, persistent NaN logits, a
//! panicking query, a corrupted checkpoint byte — and show the hardened
//! cascade absorbing each one: validation shortcuts, derived-seed retries,
//! histogram fallback, panic isolation, and a typed checksum rejection.
//! Serve telemetry (one JSONL line per recovery event) goes to
//! `--metrics-out` (default `target/serve_faults.jsonl`).
//!
//! ```sh
//! cargo run --release --example serve_fault_drill -- \
//!     --metrics-out target/serve_faults.jsonl
//! ```
//!
//! CI runs this as the end-to-end guard on the degraded-serving path and
//! uploads the telemetry file as a build artifact. Every estimate printed
//! below is asserted finite and inside `[0, N]` — the drill exits nonzero
//! if any fault escapes the cascade.

use std::path::PathBuf;

use uae::core::{EstimateSource, JsonlSink, LoadError, Uae, UaeConfig};
use uae::data::{census_like, Table};
use uae::query::{Predicate, Query};

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
    PathBuf::from("target/serve_faults.jsonl")
}

fn drill_workload(table: &Table) -> Vec<(&'static str, Query)> {
    let bounded = uae::query::default_bounded_column(table);
    vec![
        ("healthy range", Query::new(vec![Predicate::ge(bounded, 3i64)])),
        ("transient NaN (retried)", Query::new(vec![Predicate::le(bounded, 9i64)])),
        ("persistent NaN (baseline)", Query::new(vec![Predicate::ge(bounded, 5i64)])),
        ("full wildcard (validated)", Query::new(vec![])),
        ("panicking worker (isolated)", Query::new(vec![Predicate::le(bounded, 6i64)])),
        ("inverted range (validated)", {
            Query::new(vec![Predicate::ge(bounded, 8i64), Predicate::le(bounded, 2i64)])
        }),
        ("healthy point", Query::new(vec![Predicate::eq(bounded, 4i64)])),
    ]
}

fn main() {
    let metrics = metrics_out();
    if let Some(dir) = metrics.parent() {
        std::fs::create_dir_all(dir).ok();
    }

    let table = census_like(2_000, 21);
    let n = table.num_rows() as f64;
    let mut uae = Uae::new(&table, UaeConfig::default());
    println!("[drill] training 1 epoch on {} rows…", table.num_rows());
    uae.train_data(1);

    // The fault plan targets serving indices: query 1 gets one NaN attempt,
    // query 2 NaNs on every attempt, query 4 panics mid-batch, and every
    // checkpoint write flips one byte.
    {
        let serve = uae.serve_config_mut();
        serve.fault.nan_once = vec![1];
        serve.fault.nan_always = vec![2];
        serve.fault.panic_queries = vec![4];
        serve.fault.corrupt_checkpoint = Some((96, 0x40));
    }
    match JsonlSink::create(&metrics, "fault-drill") {
        Ok(sink) => uae.set_sink(Box::new(sink)),
        Err(e) => eprintln!("warning: cannot open {}: {e}", metrics.display()),
    }

    let labeled = drill_workload(&table);
    let queries: Vec<Query> = labeled.iter().map(|(_, q)| q.clone()).collect();
    println!("[drill] serving {} queries through the faulted batch path…", queries.len());
    // The injected panic is caught and isolated by the estimator; silence
    // the default hook while serving so its backtrace doesn't drown the
    // drill output (the hook is restored immediately after).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = uae.try_estimate_cards(&queries);
    std::panic::set_hook(hook);

    println!("\n{:<30} {:>12} {:>12} {:>8} {:>8}", "query", "card", "source", "retried", "clamped");
    for ((label, _), res) in labeled.iter().zip(&results) {
        let est = res.as_ref().expect("drill queries are structurally valid");
        assert!(
            est.card.is_finite() && (0.0..=n).contains(&est.card),
            "{label}: card {} escaped [0, {n}]",
            est.card
        );
        println!(
            "{:<30} {:>12.1} {:>12} {:>8} {:>8}",
            label,
            est.card,
            format!("{:?}", est.source),
            est.retried,
            est.clamped
        );
    }
    assert_eq!(results[2].as_ref().expect("valid").source, EstimateSource::Baseline);
    assert_eq!(results[4].as_ref().expect("valid").source, EstimateSource::Baseline);

    let stats = uae.serve_stats();
    println!("\n[drill] serve counters: {stats:?}");
    assert!(stats.retries >= 1, "the transient NaN must have been retried");
    assert!(stats.fallbacks >= 2, "both persistent faults must reach the baseline");
    assert!(stats.panics_isolated >= 1, "the panic must be isolated, not fatal");

    // Checkpoint corruption: the injected byte flip is caught by the
    // trailing checksum, and the estimator that tried to load stays whole.
    println!("\n[drill] writing a corrupted checkpoint and trying to restore it…");
    let corrupted = uae.save_checkpoint();
    let mut restored = Uae::new(&table, UaeConfig::default());
    match restored.load_checkpoint(&corrupted) {
        Err(LoadError::ChecksumMismatch) => {
            println!("[drill] rejected as expected: {}", LoadError::ChecksumMismatch)
        }
        other => panic!("corrupted checkpoint must fail the checksum, got {other:?}"),
    }
    uae.serve_config_mut().fault.corrupt_checkpoint = None;
    restored.load_checkpoint(&uae.save_checkpoint()).expect("clean checkpoint restores");
    println!("[drill] clean checkpoint restores fine; drill complete.");
    println!("[drill] serve telemetry: {}", metrics.display());
}
