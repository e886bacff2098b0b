//! End-to-end tests for the model fleet in the serving front-end:
//! routed batches are tagged (never counted as fallbacks), an
//! all-primary router is bit-identical to serving without one, and the
//! truth-feedback hook closes the online-learning loop through the
//! same `QueryPool` an `OnlineLearner` trains from.

use std::collections::HashSet;
use std::sync::Arc;

use uae_core::{
    EstimateSource, Event, MemorySink, QueryPool, ResMadeConfig, RouteConfig, Router, TrainConfig,
    Uae, UaeConfig,
};
use uae_data::census_like;
use uae_estimators::HistogramEstimator;
use uae_query::{generate_workload, CardEstimator, LabeledQuery, Predicate, Query, WorkloadSpec};
use uae_server::{DegradeConfig, Registry, Server, ServerConfig};

fn quick_uae(rows: usize, seed: u64) -> Uae {
    let t = census_like(rows, seed);
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 5 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 64,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&t, cfg);
    uae.train_data(1);
    uae
}

fn quick_workload(rows: usize, seed: u64, n: usize, qseed: u64) -> Vec<LabeledQuery> {
    let t = census_like(rows, seed);
    generate_workload(&t, &WorkloadSpec::random(n, qseed), &HashSet::new())
}

/// A router whose threshold policy fires for *every* sampled query on
/// this table (the table counts as "wide" from one column up and any
/// correlation below 2.0 counts as independent).
fn route_everything(rows: usize, seed: u64) -> Router {
    let t = census_like(rows, seed);
    let backend: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
    Router::threshold(&t, vec![backend], RouteConfig { wide_table: 1, high_corr: 2.0 })
}

/// A router whose threshold never fires: every decision is `Primary`.
fn route_nothing(rows: usize, seed: u64) -> Router {
    let t = census_like(rows, seed);
    let backend: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
    Router::threshold(
        &t,
        vec![backend],
        RouteConfig { wide_table: usize::MAX, ..RouteConfig::default() },
    )
}

/// Routed replies carry [`EstimateSource::Routed`], count in
/// `routed_requests`, emit tagged `Routed` telemetry keyed by their
/// request id — and the primary model is never consulted, so its
/// fallback counters stay at zero (routing is a choice, not a
/// degradation). A trivial query and an empty region are routed too,
/// but validation answers them exactly: neither counts as routed nor
/// emits a `Routed` event.
#[test]
fn routed_batch_tags_backend_and_skips_primary() {
    let rows = 600;
    let uae = quick_uae(rows, 19);
    let mut queries: Vec<Query> =
        quick_workload(rows, 19, 20, 77).into_iter().map(|lq| lq.query).collect();
    queries.push(Query::new(vec![]));
    queries.push(Query::new(vec![Predicate::eq(0, 99999i64)]));

    let registry = Arc::new(Registry::new());
    let tenant = registry.register("census", uae);
    registry.set_router("census", Some(Arc::new(route_everything(rows, 19)))).expect("tenant");

    let server = Server::start(registry, ServerConfig::deterministic(64));
    let (sink, events) = MemorySink::new();
    server.set_sink(Box::new(sink));

    let tickets: Vec<_> =
        queries.iter().map(|q| server.submit("census", q.clone()).expect("capacity")).collect();
    let stats = server.shutdown();

    let mut routed_ids = HashSet::new();
    let mut validated = 0;
    for t in tickets {
        let id = t.id();
        let est = t.wait().expect("fleet serves every valid query");
        match est.source {
            EstimateSource::Routed(_) => {
                routed_ids.insert(id);
                assert!(est.selectivity.is_finite() && est.selectivity >= 0.0);
            }
            // Empty/trivial regions are answered exactly by validation,
            // before any backend runs.
            EstimateSource::Validation => validated += 1,
            other => panic!("unexpected source {other:?} with an all-route policy"),
        }
    }
    let routed = routed_ids.len() as u64;
    assert!(routed > 0, "the workload must exercise the routed path");
    assert!(validated >= 2, "the trivial and the empty query answer by validation");
    assert_eq!(stats.routed_requests, routed, "only backend answers count as routed");
    assert_eq!(stats.completed, queries.len() as u64);

    // The primary model never served: no fallbacks, no degradations —
    // routed answers are not failures of the cascade.
    let model_stats = tenant.model().serve_stats();
    assert_eq!(model_stats.served, 0, "primary must be bypassed entirely");
    assert_eq!(model_stats.fallbacks, 0, "routing must not count as fallback");

    let events = events.lock().expect("event log");
    let tagged: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Routed { index, backend, family, .. } => {
                Some((*index, backend.clone(), *family))
            }
            _ => None,
        })
        .collect();
    assert_eq!(tagged.len() as u64, routed, "one Routed event per routed reply");
    let event_ids: HashSet<u64> = tagged.iter().map(|(index, _, _)| *index).collect();
    assert_eq!(event_ids, routed_ids, "each Routed event carries a routed reply's ticket id");
    for (_, backend, family) in tagged {
        assert_eq!(backend, "Histogram");
        assert_eq!(family, "histogram");
    }
}

/// A fleet whose every decision is `Primary` is invisible: replies are
/// bit-identical to the same server without a router (same RNG stream,
/// same cascade), and no routed counters move.
#[test]
fn all_primary_fleet_is_bit_identical_to_no_fleet() {
    let rows = 500;
    let uae = quick_uae(rows, 23);
    let workload = quick_workload(rows, 23, 16, 81);
    let queries: Vec<_> = workload.iter().map(|lq| lq.query.clone()).collect();

    let serve = |router: Option<Router>| {
        let registry = Arc::new(Registry::new());
        registry.register("census", uae.clone());
        if let Some(r) = router {
            registry.set_router("census", Some(Arc::new(r))).expect("tenant");
        }
        let server = Server::start(registry, ServerConfig::deterministic(64));
        let tickets: Vec<_> =
            queries.iter().map(|q| server.submit("census", q.clone()).expect("capacity")).collect();
        let stats = server.shutdown();
        (tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>(), stats)
    };

    let (plain, plain_stats) = serve(None);
    let (fleeted, fleet_stats) = serve(Some(route_nothing(rows, 23)));

    for (a, b) in plain.iter().zip(&fleeted) {
        assert_eq!(a, b, "an all-primary fleet must not perturb replies");
    }
    assert_eq!(plain_stats.routed_requests, 0);
    assert_eq!(fleet_stats.routed_requests, 0, "no decision routed, no routed count");
}

/// Satellite 3 — the truth-feedback hook. Served queries are recorded
/// against their ticket id; when the true cardinality arrives,
/// [`Server::resolve_truth`] joins the label into the tenant's attached
/// [`QueryPool`] — the exact pool an `OnlineLearner` would train from.
#[test]
fn resolve_truth_feeds_attached_pool() {
    let rows = 500;
    let uae = quick_uae(rows, 29);
    let workload = quick_workload(rows, 29, 10, 91);

    let registry = Arc::new(Registry::new());
    registry.register("census", uae);
    let pool = Arc::new(QueryPool::new(64));
    registry.attach_pool("census", Some(pool.clone())).expect("tenant");
    let tenant = registry.get("census").expect("tenant");

    let server = Server::start(
        registry,
        ServerConfig { degrade: DegradeConfig::disabled(), ..ServerConfig::default() },
    );
    let tickets: Vec<_> = workload
        .iter()
        .map(|lq| server.submit("census", lq.query.clone()).expect("capacity"))
        .collect();
    let ids: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
    // Labels are recorded before replies fill, so once every ticket has
    // answered, every served query is resolvable.
    for t in tickets {
        t.wait().expect("workload queries serve");
    }

    assert_eq!(server.pending_labels(), workload.len(), "every served query awaits its truth");

    // Truths arrive later — resolve half of them.
    let resolved: Vec<_> = ids.iter().zip(&workload).take(5).collect();
    for (&id, lq) in &resolved {
        assert!(server.resolve_truth(id, lq.cardinality), "recorded id must resolve");
    }
    assert!(!server.resolve_truth(ids[0], workload[0].cardinality), "double-resolve is refused");
    assert!(!server.resolve_truth(u64::MAX, 1), "unknown id is refused");

    assert_eq!(pool.len(), 5, "resolved labels land in the shared pool");
    assert_eq!(server.pending_labels(), workload.len() - 5);

    let stats = server.shutdown();
    assert_eq!(stats.labels_recorded, workload.len() as u64);
    assert_eq!(stats.labels_resolved, 5);
    assert_eq!(stats.labels_dropped, 0);
    // The pool's owner (the tenant) sees the same object the hook fed.
    assert!(Arc::ptr_eq(&tenant.pool().expect("attached"), &pool));
}

/// The pending-label buffer is bounded: past capacity the oldest entry
/// is evicted (`labels_dropped`) and can no longer be resolved.
#[test]
fn pending_labels_evict_oldest_past_capacity() {
    let rows = 400;
    let uae = quick_uae(rows, 31);
    let workload = quick_workload(rows, 31, 6, 97);

    let registry = Arc::new(Registry::new());
    registry.register("census", uae);
    registry.attach_pool("census", Some(Arc::new(QueryPool::new(64)))).expect("tenant");

    let server = Server::start(
        registry,
        ServerConfig {
            label_buffer: 2,
            // One executor: batches (and so label recording) happen in
            // submission order, making "oldest" deterministic.
            executors: 1,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = workload
        .iter()
        .map(|lq| server.submit("census", lq.query.clone()).expect("capacity"))
        .collect();
    let ids: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
    for t in tickets {
        t.wait().expect("workload queries serve");
    }

    assert_eq!(server.pending_labels(), 2, "buffer holds at most its capacity");
    // The oldest ids were evicted and no longer resolve; the newest two
    // still do (truth delivery also works for late-arriving labels).
    assert!(!server.resolve_truth(ids[0], workload[0].cardinality));
    let last = ids.len() - 1;
    assert!(server.resolve_truth(ids[last], workload[last].cardinality));

    let stats = server.shutdown();
    assert_eq!(stats.labels_recorded, workload.len() as u64);
    assert_eq!(stats.labels_dropped, stats.labels_recorded - 2);
    assert_eq!(stats.labels_resolved, 1);
}
