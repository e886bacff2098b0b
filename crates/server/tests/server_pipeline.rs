//! End-to-end tests for the concurrent serving front-end: deterministic
//! replay against the engine's own batch path, typed backpressure,
//! batch-level panic isolation, the degradation ladder, and counter
//! reconciliation under concurrent submitters.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use uae_core::{EstimateSource, Event, MemorySink, ResMadeConfig, TrainConfig, Uae, UaeConfig};
use uae_data::census_like;
use uae_query::{generate_workload, Query, WorkloadSpec};
use uae_server::{
    DegradeConfig, Registry, Server, ServerConfig, ServerError, ServerFaultPlan, SubmitError,
    Ticket,
};

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

fn quick_queries(rows: usize, seed: u64, n: usize, qseed: u64) -> Vec<Query> {
    let t = census_like(rows, seed);
    generate_workload(&t, &WorkloadSpec::random(n, qseed), &HashSet::new())
        .into_iter()
        .map(|lq| lq.query)
        .collect()
}

/// Satellite 1 — the determinism escape hatch. One executor, unbounded
/// batch, paused queue: a submitted request sequence drains as a
/// single batch whose replies are bit-identical to
/// [`Uae::try_estimate_cards`] on the same queries in the same order.
#[test]
fn deterministic_replay_matches_estimate_batch() {
    let uae = quick_uae(700, 31);
    let queries = quick_queries(700, 31, 24, 91);

    // Clones reseed the estimation RNG identically, so the reference
    // clone and the served clone consume matching seed streams.
    let reference = uae.clone();
    let expected = reference.try_estimate_cards(&queries);

    let registry = Arc::new(Registry::new());
    registry.register("census", uae.clone());
    let server = Server::start(registry, ServerConfig::deterministic(queries.len()));
    let (sink, events) = MemorySink::new();
    server.set_sink(Box::new(sink));

    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit("census", q.clone()).expect("paused queue holds the workload"))
        .collect();
    let stats = server.shutdown();

    for (ticket, want) in tickets.into_iter().zip(&expected) {
        match (ticket.wait(), want) {
            (Ok(got), Ok(want)) => assert_eq!(&got, want, "reply differs from batch path"),
            (Err(ServerError::Estimate(got)), Err(want)) => assert_eq!(&got, want),
            (got, want) => panic!("outcome class mismatch: {got:?} vs {want:?}"),
        }
    }

    assert_eq!(stats.accepted, queries.len() as u64);
    assert_eq!(stats.batches, 1, "replay must execute as one batch");
    assert_eq!(stats.flush_drain, 1);
    assert_eq!(stats.flush_size + stats.flush_deadline, 0);
    assert_eq!(stats.flush_idle, 0, "an unbounded batch never flushes idle");
    assert_eq!(stats.completed + stats.query_errors, queries.len() as u64);
    assert_eq!(stats.queue_depth, 0, "every accepted request was answered");

    let events = events.lock().expect("event log");
    let flushed = events.iter().filter(|e| matches!(e, Event::BatchFlushed { .. })).count();
    let served = events.iter().filter(|e| matches!(e, Event::RequestServed { .. })).count();
    assert_eq!(flushed as u64, stats.batches);
    assert_eq!(served as u64, stats.accepted);
}

/// Satellite 3a — backpressure. A full bounded queue rejects the
/// submitter immediately with a typed error; nothing blocks, the counts
/// reconcile, and the queued requests all complete once the queue
/// resumes.
#[test]
fn overload_rejects_typed_without_blocking() {
    let uae = quick_uae(400, 17);
    let queries = quick_queries(400, 17, 12, 55);
    let registry = Arc::new(Registry::new());
    registry.register("census", uae);
    let cap = 8usize;
    let server = Server::start(
        registry,
        ServerConfig {
            queue_capacity: cap,
            start_paused: true,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::default()
        },
    );

    let mut tickets = Vec::new();
    for q in queries.iter().take(cap) {
        tickets.push(server.submit("census", q.clone()).expect("under capacity"));
    }
    // The queue is full and paused: the next submits
    // must bounce right here rather than block the caller.
    for q in queries.iter().skip(cap) {
        assert_eq!(server.submit("census", q.clone()).unwrap_err(), SubmitError::Overloaded);
    }
    assert_eq!(
        server.submit("nobody", queries[0].clone()).unwrap_err(),
        SubmitError::UnknownTenant("nobody".to_owned())
    );

    let mid = server.stats();
    assert_eq!(mid.accepted, cap as u64);
    assert_eq!(mid.rejected_overloaded, (queries.len() - cap) as u64);
    assert_eq!(mid.rejected_unknown_tenant, 1);
    assert_eq!(mid.submitted, queries.len() as u64 + 1);
    assert_eq!(mid.queue_depth, cap);

    // Resuming drains the backlog; every accepted request completes.
    server.resume();
    for t in tickets {
        t.wait().expect("accepted requests complete after resume");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, cap as u64);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.max_queue_depth, cap);
}

/// Satellite 3b — panic isolation drill. An executor-level panic (fault
/// plan keyed by batch sequence) fails only that batch's requests; the
/// executor thread survives and the other tenant's batch is served
/// normally.
#[test]
fn executor_panic_fails_only_its_batch() {
    let alpha = quick_uae(500, 23);
    let beta = quick_uae(500, 29);
    let qa = quick_queries(500, 23, 6, 71);
    let qb = quick_queries(500, 29, 5, 73);

    let registry = Arc::new(Registry::new());
    registry.register("alpha", alpha);
    registry.register("beta", beta);
    let server = Server::start(
        registry,
        ServerConfig {
            // Drain order is lane order: batch 0 = alpha, batch 1 = beta.
            fault: ServerFaultPlan { panic_batches: vec![0] },
            executors: 1,
            start_paused: true,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::deterministic(64)
        },
    );

    let ta: Vec<_> =
        qa.iter().map(|q| server.submit("alpha", q.clone()).expect("capacity")).collect();
    let tb: Vec<_> =
        qb.iter().map(|q| server.submit("beta", q.clone()).expect("capacity")).collect();
    let stats = server.shutdown();

    for t in ta {
        assert_eq!(t.wait().unwrap_err(), ServerError::ExecutorPanic);
    }
    for t in tb {
        t.wait().expect("the panic must not leak into beta's batch");
    }
    assert_eq!(stats.executor_panics, 1);
    assert_eq!(stats.failed, qa.len() as u64);
    assert_eq!(stats.completed + stats.query_errors, qb.len() as u64);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.queue_depth, 0, "panicked batch still replied to everyone");
}

/// The degradation ladder engages on queue depth: a deep backlog at
/// flush time shrinks the batch's sample budget, replies are tagged
/// [`EstimateSource::ModelDegraded`], and both the front-end and the
/// model-level counters record it.
#[test]
fn degradation_engages_under_queue_depth() {
    let uae = quick_uae(600, 37);
    let queries = quick_queries(600, 37, 16, 83);
    let registry = Arc::new(Registry::new());
    let tenant = registry.register("census", uae);
    let server = Server::start(
        registry,
        ServerConfig {
            degrade: DegradeConfig { queue_depth_threshold: 4 },
            ..ServerConfig::deterministic(64)
        },
    );

    let tickets: Vec<_> =
        queries.iter().map(|q| server.submit("census", q.clone()).expect("capacity")).collect();
    // 16 in flight > threshold 4 at drain-flush time: rung 1 engages.
    let stats = server.shutdown();

    let mut degraded = 0u64;
    for t in tickets {
        if let Ok(est) = t.wait() {
            if est.source == EstimateSource::ModelDegraded {
                degraded += 1;
            }
        }
    }
    assert!(degraded > 0, "no reply was tagged ModelDegraded");
    assert_eq!(stats.degraded_requests, degraded);
    let model_stats = tenant.model().serve_stats();
    assert_eq!(model_stats.degraded, degraded, "model-level counter must agree");
}

/// Hot swap: re-publishing a tenant's model takes effect for the next
/// batch while the old snapshot stays alive for whoever holds it.
#[test]
fn swap_model_publishes_new_snapshot() {
    let registry = Arc::new(Registry::new());
    let tenant = registry.register("census", quick_uae(300, 41));
    let before = tenant.model();
    let old = registry.swap_model("census", quick_uae(300, 43)).expect("registered");
    assert!(Arc::ptr_eq(&before, &old), "swap returns the previous snapshot");
    assert!(!Arc::ptr_eq(&before, &tenant.model()), "lookups now see the new model");
    assert!(registry.swap_model("nobody", quick_uae(300, 47)).is_err());

    // The swapped-in model serves.
    let server = Server::start(registry, ServerConfig::deterministic(8));
    let t = server.submit("census", quick_queries(300, 43, 1, 7).remove(0)).expect("capacity");
    server.shutdown();
    t.wait().expect("estimate from the swapped model");
}

/// Swap-time hygiene: the rolling latency window drops its pre-swap
/// samples at the first post-swap flush, so the reported p50/p99 never
/// judge the new model by the old model's latencies.
#[test]
fn latency_window_resets_on_hot_swap() {
    let registry = Arc::new(Registry::new());
    registry.register("census", quick_uae(400, 53));
    let server = Server::start(
        registry.clone(),
        ServerConfig { degrade: DegradeConfig::disabled(), ..ServerConfig::default() },
    );

    let warmup = quick_queries(400, 53, 6, 59);
    let tickets: Vec<_> =
        warmup.iter().map(|q| server.submit("census", q.clone()).expect("capacity")).collect();
    for t in tickets {
        t.wait().expect("warmup completes");
    }
    let before = server.latency_samples();
    assert_eq!(before, warmup.len(), "warmup latencies recorded");

    registry.swap_model("census", quick_uae(400, 61)).expect("registered");

    // The next flush observes the bumped swap epoch, resets the window,
    // and only then records this batch's end-to-end latency.
    let t = server.submit("census", quick_queries(400, 61, 1, 67).remove(0)).expect("capacity");
    t.wait().expect("post-swap request completes");
    assert_eq!(
        server.latency_samples(),
        1,
        "pre-swap samples must be gone; only the post-swap batch remains"
    );
    server.shutdown();
}

/// Satellite 4 — the hot-swap race drill: one thread swaps the tenant
/// between two models while submitter threads keep batches in flight.
/// Every request must be answered by exactly one model version — the
/// two models sit over tables of 300 vs 301 rows, and an unconstrained
/// query's estimate is *exactly* the serving table's row count, so a
/// torn read would be visible as any other value. Counters reconcile.
#[test]
fn hot_swap_race_answers_every_request_from_exactly_one_version() {
    let rows_a = 300usize;
    let rows_b = 301usize;
    let registry = Arc::new(Registry::new());
    registry.register("census", quick_uae(rows_a, 71));
    let server = Arc::new(Server::start(
        registry.clone(),
        ServerConfig {
            max_batch: 4,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::default()
        },
    ));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let swaps_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let swapper = {
        let registry = registry.clone();
        let (stop, swaps_done) = (stop.clone(), swaps_done.clone());
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let rows = if swaps.is_multiple_of(2) { rows_b } else { rows_a };
                registry.swap_model("census", quick_uae(rows, 71 + swaps)).expect("registered");
                swaps += 1;
                swaps_done.store(swaps, std::sync::atomic::Ordering::SeqCst);
            }
            swaps
        })
    };

    let submitters: Vec<_> = (0..3)
        .map(|_| {
            let (server, swaps_done) = (server.clone(), swaps_done.clone());
            std::thread::spawn(move || {
                let mut cards = Vec::new();
                // At least 60 requests each, and keep submitting until two
                // swaps have landed, so swaps race requests in flight
                // however fast the server answers.
                let mut sent = 0;
                while sent < 60 || swaps_done.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                    sent += 1;
                    // Trivial (unconstrained) queries shortcut to the
                    // exact row count of whichever snapshot served them.
                    if let Ok(ticket) = server.submit("census", Query::default()) {
                        cards.push(ticket.wait().expect("trivial query serves").card);
                    }
                }
                cards
            })
        })
        .collect();

    let mut answered = 0u64;
    for handle in submitters {
        for card in handle.join().expect("submitter thread") {
            assert!(
                card == rows_a as f64 || card == rows_b as f64,
                "reply must come from exactly one model version, got card {card}"
            );
            answered += 1;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let swaps = swapper.join().expect("swapper thread");
    assert!(swaps > 0, "the drill must actually swap");

    let server = Arc::into_inner(server).expect("submitters released their handles");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, answered, "every accepted request got exactly one reply");
    assert_eq!(
        stats.completed + stats.query_errors + stats.failed,
        stats.accepted,
        "terminal counters must reconcile with accepted"
    );
}

/// `queue_capacity` bounds the queued requests of a *running* server,
/// not only of a paused one: with no batch ever due (unbounded batch,
/// hour-long delay) the fifth submit bounces, and shutdown answers the
/// four it accepted.
#[test]
fn running_server_bounds_queued_requests_by_capacity() {
    let queries = quick_queries(400, 19, 12, 57);
    let registry = Arc::new(Registry::new());
    registry.register("census", quick_uae(400, 19));
    let server = Server::start(
        registry,
        ServerConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_secs(3600),
            queue_capacity: 4,
            executors: 1,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::default()
        },
    );

    let (mut tickets, mut overloaded) = (Vec::new(), 0);
    for q in &queries {
        // Spaced out so whatever runs behind the queue gets scheduled
        // between submits: the bound must not depend on how fast a
        // request leaves the submit path.
        std::thread::sleep(Duration::from_millis(2));
        match server.submit("census", q.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => overloaded += usize::from(e == SubmitError::Overloaded),
        }
    }
    assert_eq!(tickets.len(), 4, "a running server must not accept past queue_capacity");
    assert_eq!(overloaded, 8);

    let stats = server.shutdown();
    for t in tickets {
        t.wait().expect("shutdown answers every accepted request");
    }
    let counts = (stats.accepted, stats.completed, stats.max_queue_depth, stats.flush_drain);
    assert_eq!(counts, (4, 4, 4, stats.batches));
}

/// Four submitters (each keeping a few tickets outstanding) race plain
/// and deadline-bounded requests for two tenants into a small queue with
/// two executors: every accepted ticket resolves, and every counter, the
/// in-flight bound and the logged batch sizes reconcile.
#[test]
fn concurrent_submitters_reconcile_every_counter() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 60;
    let (max_batch, queue_capacity, executors) = (8usize, 16usize, 2usize);
    let registry = Arc::new(Registry::new());
    registry.register("alpha", quick_uae(400, 83));
    registry.register("beta", quick_uae(400, 89));
    let workloads = [quick_queries(400, 83, 16, 5), quick_queries(400, 89, 16, 7)];
    let server = Server::start(
        registry,
        ServerConfig {
            max_batch,
            max_delay: Duration::from_millis(1),
            queue_capacity,
            executors,
            degrade: DegradeConfig::disabled(),
            ..ServerConfig::default()
        },
    );
    let (sink, events) = MemorySink::new();
    server.set_sink(Box::new(sink));

    let (mut replies, mut outstanding) = (Vec::new(), Vec::new());
    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|scope| {
        let (server, workloads, start) = (&server, &workloads, &start);
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                scope.spawn(move || {
                    start.wait();
                    let (mut replies, mut tickets) = (Vec::new(), VecDeque::new());
                    for i in 0..PER_SUBMITTER {
                        let lane = (s + i) % 2;
                        let (tenant, query) =
                            (["alpha", "beta"][lane], workloads[lane][i % 16].clone());
                        // Every third request carries a deadline; the
                        // tightest ones expire while queued.
                        let outcome = match i % 3 {
                            0 => server.submit_with_deadline(
                                tenant,
                                query,
                                Duration::from_micros(50 * i as u64),
                            ),
                            _ => server.submit(tenant, query),
                        };
                        match outcome {
                            Ok(ticket) => tickets.push_back(ticket),
                            Err(e) => assert_eq!(e, SubmitError::Overloaded),
                        }
                        if tickets.len() > 4 {
                            replies.extend(tickets.pop_front().map(Ticket::wait));
                        }
                    }
                    (replies, tickets)
                })
            })
            .collect();
        for handle in submitters {
            let (done, open) = handle.join().expect("submitter thread");
            replies.extend(done);
            outstanding.extend(open);
        }
    });

    let stats = server.shutdown();
    replies.extend(outstanding.into_iter().map(Ticket::wait));
    assert!(!replies.iter().any(|r| r == &Err(ServerError::ExecutorPanic)));
    let count = |want: fn(&Result<_, ServerError>) -> bool| {
        replies.iter().filter(|r| want(r)).count() as u64
    };
    assert_eq!(replies.len() as u64, stats.accepted, "every accepted ticket resolved");
    assert_eq!(count(Result::is_ok), stats.completed);
    assert_eq!(count(|r| r == &Err(ServerError::DeadlineExceeded)), stats.deadline_exceeded);

    assert_eq!(stats.submitted, (SUBMITTERS * PER_SUBMITTER) as u64);
    assert_eq!(
        stats.submitted,
        stats.accepted + stats.rejected_overloaded + stats.rejected_unknown_tenant
    );
    assert_eq!(
        stats.completed + stats.query_errors + stats.failed + stats.deadline_exceeded,
        stats.accepted
    );
    assert_eq!(
        stats.flush_size + stats.flush_deadline + stats.flush_idle + stats.flush_drain,
        stats.batches
    );
    assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.batches);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.max_queue_depth <= queue_capacity + executors * max_batch);

    let events = events.lock().expect("event log");
    let sizes: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::BatchFlushed { size, .. } => Some(*size),
            _ => None,
        })
        .collect();
    assert_eq!(sizes.len() as u64, stats.batches);
    assert!(sizes.iter().all(|&n| (1..=max_batch).contains(&n)), "batch sizes {sizes:?}");
}

/// A server that would never flush on size or deadline (`max_batch` 64,
/// hour-long `max_delay`), so only the work-conserving rule can release a
/// lone request.
fn idle_only_server(fault: ServerFaultPlan, start_paused: bool) -> Server {
    let registry = Arc::new(Registry::new());
    registry.register("census", quick_uae(400, 97));
    Server::start(
        registry,
        ServerConfig {
            max_batch: 64,
            max_delay: Duration::from_secs(3600),
            executors: 1,
            degrade: DegradeConfig::disabled(),
            fault,
            start_paused,
            ..ServerConfig::default()
        },
    )
}

/// Poll `ticket` for at most 30 s: a held request fails the test instead
/// of hanging it.
fn reply_within_bound(ticket: &Ticket) -> Result<uae_core::Estimate, ServerError> {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(30) {
        if let Some(reply) = ticket.try_take() {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("a lone request on an idle executor was held for 30 s");
}

/// Work-conserving batching: a lone request on an idle executor flushes
/// on arrival instead of waiting out `max_delay`.
#[test]
fn lone_request_on_idle_executor_flushes_on_arrival() {
    let queries = quick_queries(400, 97, 2, 3);
    let server = idle_only_server(ServerFaultPlan::default(), false);
    for q in &queries {
        let ticket = server.submit("census", q.clone()).expect("capacity");
        reply_within_bound(&ticket).expect("lone request estimates");
    }
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.flush_idle), (2, 2));
    assert_eq!(stats.flush_size + stats.flush_deadline + stats.flush_drain, 0);
}

/// A batch whose execution panicked still releases its lane: the next
/// lone request is answered promptly, not after `max_delay`.
#[test]
fn panicked_batch_releases_its_lane() {
    let queries = quick_queries(400, 97, 2, 5);
    let server = idle_only_server(ServerFaultPlan { panic_batches: vec![0] }, false);
    let first = server.submit("census", queries[0].clone()).expect("capacity");
    assert_eq!(reply_within_bound(&first).unwrap_err(), ServerError::ExecutorPanic);
    let second = server.submit("census", queries[1].clone()).expect("capacity");
    reply_within_bound(&second).expect("the lane is free again after the panic");
    let stats = server.shutdown();
    assert_eq!((stats.executor_panics, stats.flush_idle), (1, 2));
}

/// A batch whose every request expired in the queue returns before
/// execution and still releases its lane.
#[test]
fn all_expired_batch_releases_its_lane() {
    let queries = quick_queries(400, 97, 2, 7);
    let server = idle_only_server(ServerFaultPlan::default(), true);
    let expired = server
        .submit_with_deadline("census", queries[0].clone(), Duration::from_millis(1))
        .expect("capacity");
    std::thread::sleep(Duration::from_millis(5));
    server.resume();
    assert_eq!(reply_within_bound(&expired).unwrap_err(), ServerError::DeadlineExceeded);
    let next = server.submit("census", queries[1].clone()).expect("capacity");
    reply_within_bound(&next).expect("the lane is free again after the expired batch");
    let stats = server.shutdown();
    assert_eq!((stats.deadline_exceeded, stats.batches, stats.flush_idle), (1, 1, 1));
}
