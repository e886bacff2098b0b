//! Concurrent-serving smoke drill: stand up the micro-batching front-end
//! over two tenants, fire an unpaced burst at a deliberately small queue,
//! and show every moving part working — idle/size/deadline flushes, typed
//! `Overloaded` load shedding, the queue-depth degradation ladder, a mid-run
//! model hot-swap, and a clean drain where every accepted request is
//! answered. Front-end telemetry (one JSONL line per batch flush and
//! served request) goes to `--metrics-out` (default
//! `target/serving.jsonl`).
//!
//! ```sh
//! cargo run --release --example serve_concurrent -- \
//!     --metrics-out target/serving.jsonl
//! ```
//!
//! CI runs this under both the default and `UAE_FORCE_SCALAR=1` kernels
//! and uploads the telemetry as an artifact. The drill exits nonzero if
//! any counter fails to reconcile.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use uae::core::{JsonlSink, Uae, UaeConfig};
use uae::query::{generate_workload, Query, WorkloadSpec};
use uae::server::{DegradeConfig, Registry, Server, ServerConfig, SubmitError};

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
    PathBuf::from("target/serving.jsonl")
}

fn train_tenant(rows: usize, seed: u64) -> Uae {
    let table = uae::data::census_like(rows, seed);
    let mut cfg = UaeConfig::default();
    cfg.model.hidden = 64;
    cfg.estimate_samples = 400;
    let mut uae = Uae::new(&table, cfg);
    uae.train_data(1);
    uae
}

fn main() {
    let metrics = metrics_out();
    if let Some(dir) = metrics.parent() {
        std::fs::create_dir_all(dir).ok();
    }

    println!("[smoke] training two tenants…");
    let registry = Arc::new(Registry::new());
    registry.register("alpha", train_tenant(3_000, 11));
    registry.register("beta", train_tenant(2_000, 13));

    let queries: Vec<Query> = generate_workload(
        &uae::data::census_like(3_000, 11),
        &WorkloadSpec::random(128, 0xB00C),
        &std::collections::HashSet::new(),
    )
    .into_iter()
    .map(|lq| lq.query)
    .collect();

    // Small queue + low degradation threshold so an unpaced burst on one
    // core visibly sheds load and shrinks budgets.
    let server = Server::start(
        registry.clone(),
        ServerConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_capacity: 96,
            executors: 1,
            degrade: DegradeConfig { queue_depth_threshold: 16 },
            latency_window: 1024,
            ..ServerConfig::default()
        },
    );
    match JsonlSink::create(&metrics, "serve-front") {
        Ok(sink) => server.set_sink(Box::new(sink)),
        Err(e) => eprintln!("warning: cannot open {}: {e}", metrics.display()),
    }

    // Phase 1: unpaced burst across both tenants.
    println!("[smoke] burst: 400 submissions across 2 tenants, queue capacity 96…");
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..400usize {
        let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
        match server.submit(tenant, queries[i % queries.len()].clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    // Unknown tenants bounce without consuming queue space.
    assert!(matches!(
        server.submit("gamma", queries[0].clone()),
        Err(SubmitError::UnknownTenant(_))
    ));

    // Phase 2: hot-swap beta's model while alpha keeps serving.
    println!("[smoke] hot-swapping tenant `beta`…");
    registry.swap_model("beta", train_tenant(2_000, 17)).expect("beta is registered");
    for q in queries.iter().take(32) {
        if let Ok(t) = server.submit("beta", q.clone()) {
            tickets.push(t);
        }
    }

    // The queue holds at most `queue_capacity` requests and each executor
    // at most one batch, so that bounds the in-flight high-water mark.
    let cfg = server.config();
    let depth_bound = cfg.queue_capacity + cfg.executors * cfg.max_batch;
    let stats = server.shutdown();
    let mut answered = 0u64;
    for t in tickets {
        t.wait().expect("structurally valid queries estimate cleanly");
        answered += 1;
    }

    println!(
        "[smoke] accepted {} | rejected(overloaded) {} | completed {} | degraded {} \
         | batches {} (size {} / deadline {} / idle {} / drain {}) | mean batch {:.1} \
         | max depth {} | p50 {:.1} ms | p99 {:.1} ms",
        stats.accepted,
        stats.rejected_overloaded,
        stats.completed,
        stats.degraded_requests,
        stats.batches,
        stats.flush_size,
        stats.flush_deadline,
        stats.flush_idle,
        stats.flush_drain,
        stats.mean_batch_size(),
        stats.max_queue_depth,
        stats.p50_ms,
        stats.p99_ms,
    );

    // Every submission is accounted for, every accepted request answered.
    assert_eq!(stats.rejected_overloaded, rejected);
    assert_eq!(
        stats.submitted,
        stats.accepted + stats.rejected_overloaded + stats.rejected_unknown_tenant
    );
    assert_eq!(stats.completed + stats.query_errors + stats.failed, stats.accepted);
    assert_eq!(stats.completed, answered);
    assert_eq!(stats.queue_depth, 0, "nothing left in flight after shutdown");
    assert_eq!(stats.failed, 0, "no executor panics in a clean run");
    assert!(
        stats.max_queue_depth <= depth_bound,
        "max depth {} exceeds queue capacity + one batch per executor ({depth_bound})",
        stats.max_queue_depth
    );
    assert!(stats.batches > 0 && stats.rejected_unknown_tenant == 1);
    assert!(
        stats.degraded_requests > 0,
        "a 400-request burst over a 16-deep threshold must engage the ladder"
    );

    println!("[smoke] serving telemetry: {}", metrics.display());
    println!("[smoke] drill complete.");
}
