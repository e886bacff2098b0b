//! Deterministic fault injection through `FaultPlan`: NaN-poisoned
//! logits, panicking queries and checkpoint corruption are injected at
//! exact serving indices, and the cascade must (a) degrade only the
//! targeted query, (b) keep every other query bit-identical to a
//! fault-free run, and (c) record each recovery step in the serve
//! telemetry.

use uae_core::infer_batch::{progressive_sample_batch_sharded, BatchScratch};
use uae_core::vquery::VirtualQuery;
use uae_core::{
    EstimateSource, Event, LoadError, MemorySink, ResMade, ResMadeConfig, TrainConfig, Uae,
    UaeConfig, VirtualSchema,
};
use uae_data::{Table, Value};
use uae_query::{Predicate, Query};
use uae_tensor::ParamStore;

fn table() -> Table {
    Table::from_columns(
        "faulty",
        vec![
            ("age".into(), (0..300i64).map(|i| Value::Int(i % 60)).collect()),
            ("tier".into(), (0..300i64).map(|i| Value::Int(i % 7)).collect()),
        ],
    )
}

fn quick_uae(seed: u64) -> Uae {
    let t = table();
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed },
        train: TrainConfig { batch_size: 64, ..TrainConfig::default() },
        estimate_samples: 60,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&t, cfg);
    uae.train_data(1);
    uae
}

fn workload() -> Vec<Query> {
    vec![
        Query::new(vec![Predicate::eq(0, 7i64)]),
        Query::new(vec![Predicate::ge(0, 10i64), Predicate::le(0, 30i64)]),
        Query::new(vec![Predicate::eq(1, 3i64), Predicate::ge(0, 20i64)]),
        Query::new(vec![Predicate::le(1, 4i64)]),
        Query::new(vec![Predicate::ge(0, 45i64)]),
    ]
}

/// Twenty-four queries: enough for the batched sampler to split the batch
/// into query shards on a multi-threaded kernel pool.
fn large_workload() -> Vec<Query> {
    (0..24i64)
        .map(|k| match k % 4 {
            0 => Query::new(vec![Predicate::eq(0, k * 2)]),
            1 => Query::new(vec![Predicate::ge(0, k), Predicate::le(0, k + 20)]),
            2 => Query::new(vec![Predicate::eq(1, k % 7), Predicate::ge(0, k)]),
            _ => Query::new(vec![Predicate::le(1, k % 7)]),
        })
        .collect()
}

fn cards(uae: &Uae, queries: &[Query]) -> Vec<uae_core::Estimate> {
    uae.try_estimate_cards(queries)
        .into_iter()
        .map(|r| r.expect("workload queries are valid"))
        .collect()
}

/// NaN logits on every attempt: the target query falls through the retry
/// to the histogram baseline; everything else is bit-identical to the
/// fault-free clone.
#[test]
fn persistent_nan_degrades_one_query_to_baseline() {
    let n = table().num_rows() as f64;
    let queries = workload();
    let base = quick_uae(11);
    let clean = base.clone();
    let mut faulted = base.clone();
    faulted.serve_config_mut().fault.nan_always = vec![2];
    let (sink, log) = MemorySink::new();
    faulted.set_sink(Box::new(sink));

    let want = cards(&clean, &queries);
    let got = cards(&faulted, &queries);

    assert_eq!(got[2].source, EstimateSource::Baseline);
    assert!(got[2].retried);
    assert!(got[2].card.is_finite() && (0.0..=n).contains(&got[2].card));
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if i == 2 {
            continue;
        }
        assert_eq!(
            w.card.to_bits(),
            g.card.to_bits(),
            "query {i} must be untouched by the fault on query 2"
        );
        assert_eq!(g.source, EstimateSource::Model);
    }

    let stats = faulted.serve_stats();
    assert_eq!(stats.served, queries.len() as u64);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.fallbacks, 1);
    let events = log.lock().expect("event log");
    assert!(events.iter().any(|e| matches!(e, Event::Retry { index: 2, .. })));
    assert!(events.iter().any(|e| matches!(e, Event::Fallback { index: 2, .. })));
}

/// NaN logits on the first attempt only: the derived-seed retry recovers a
/// model-sourced estimate and the baseline is never consulted.
#[test]
fn transient_nan_recovers_via_retry() {
    let n = table().num_rows() as f64;
    let queries = workload();
    let base = quick_uae(12);
    let clean = base.clone();
    let mut faulted = base.clone();
    faulted.serve_config_mut().fault.nan_once = vec![0];

    let want = cards(&clean, &queries);
    let got = cards(&faulted, &queries);

    assert_eq!(got[0].source, EstimateSource::Model);
    assert!(got[0].retried);
    assert!(got[0].card.is_finite() && (0.0..=n).contains(&got[0].card));
    for (i, (w, g)) in want.iter().zip(&got).enumerate().skip(1) {
        assert_eq!(w.card.to_bits(), g.card.to_bits(), "query {i} perturbed by retry of query 0");
    }
    let stats = faulted.serve_stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.fallbacks, 0);
    assert_eq!(stats.panics_isolated, 0);
}

/// A query that panics mid-batch: the batch attempt is isolated, healthy
/// queries are re-run on their original seeds (bit-identical results), the
/// poisoned query degrades to the baseline, and the process — including
/// the tensor worker pool — keeps serving afterwards. The large batch is
/// split into query shards on a multi-threaded kernel pool.
#[test]
fn panicking_query_is_isolated_from_the_batch() {
    for (queries, target) in [(workload(), 1), (large_workload(), 13)] {
        assert_panic_isolated(&queries, target);
    }
}

fn assert_panic_isolated(queries: &[Query], target: usize) {
    let n = table().num_rows() as f64;
    let base = quick_uae(13);
    let clean = base.clone();
    let mut faulted = base.clone();
    faulted.serve_config_mut().fault.panic_queries = vec![target as u64];
    let (sink, log) = MemorySink::new();
    faulted.set_sink(Box::new(sink));

    let want = cards(&clean, queries);
    let got = cards(&faulted, queries);

    assert_eq!(got[target].source, EstimateSource::Baseline);
    assert!(got[target].card.is_finite() && (0.0..=n).contains(&got[target].card));
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if i == target {
            continue;
        }
        assert_eq!(
            w.card.to_bits(),
            g.card.to_bits(),
            "query {i} must survive the batch panic bit-exactly"
        );
    }

    let stats = faulted.serve_stats();
    assert!(stats.panics_isolated >= 2, "batch-level and query-level isolation both recorded");
    assert_eq!(stats.fallbacks, 1);
    {
        let events = log.lock().expect("event log");
        assert!(events.iter().any(|e| matches!(e, Event::PanicIsolated { index: None })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::PanicIsolated { index: Some(i) } if *i == target as u64)));
    }

    // The serving loop survives: the same estimator keeps answering, and
    // the shared tensor pool still runs parallel work.
    let after = faulted.try_estimate_card(&queries[0]).expect("still serving");
    assert!(after.card.is_finite());
    let doubled = uae_tensor::pool::parallel_map(64, |i| i * 2);
    assert!(doubled.iter().enumerate().all(|(i, &v)| v == i * 2));
}

/// A query translated against a four-column schema: walking it on the
/// two-column model indexes past the model's columns and panics.
fn wider_schema_vquery() -> VirtualQuery {
    let wider = Table::from_columns(
        "wider",
        (0..4)
            .map(|c| (format!("c{c}"), (0..50i64).map(|i| Value::Int(i % 5)).collect()))
            .collect(),
    );
    let wider_schema = VirtualSchema::build(&wider, usize::MAX);
    VirtualQuery::build(&wider, &wider_schema, &Query::new(vec![Predicate::eq(3, 1i64)]))
}

/// A panic raised *inside* one shard's walk — here a query translated
/// against a wider schema than the model's — re-raises on the caller after
/// the other shards finish, and leaves the shard scratches and the kernel
/// pool serving bit-identical answers afterwards.
#[test]
fn shard_panic_reraises_on_the_caller() {
    let uae = quick_uae(18);
    let schema = uae.schema().clone();
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 24, blocks: 1, seed: 18 });
    let raw = model.snapshot(&store);
    let healthy: Vec<VirtualQuery> = large_workload().iter().map(|q| uae.translate(q)).collect();
    let seeds: Vec<u64> = (0..healthy.len() as u64).map(|i| 0xbad + 7 * i).collect();
    let want = progressive_sample_batch_sharded(
        &raw,
        &schema,
        &healthy,
        60,
        &seeds,
        1,
        &mut BatchScratch::new(),
    );

    let mut poisoned = healthy.clone();
    poisoned[10] = wider_schema_vquery();

    let mut scratch = BatchScratch::new();
    for k in [2, 3, 5] {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            progressive_sample_batch_sharded(&raw, &schema, &poisoned, 60, &seeds, k, &mut scratch)
        }));
        assert!(outcome.is_err(), "{k} shards: the malformed query must panic");
        let got =
            progressive_sample_batch_sharded(&raw, &schema, &healthy, 60, &seeds, k, &mut scratch);
        assert!(
            want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{k} shards: answers changed after a shard panicked"
        );
    }
    let doubled = uae_tensor::pool::parallel_map(64, |i| i * 2);
    assert!(doubled.iter().enumerate().all(|(i, &v)| v == i * 2));
}

/// The same panic fault on a single query: isolated, retried (the retry
/// panics too), then the baseline answers. A batch of one is its own
/// isolation, so no batch-level rerun is recorded.
#[test]
fn panicking_query_is_isolated_sequentially() {
    let n = table().num_rows() as f64;
    let base = quick_uae(14);
    let mut faulted = base.clone();
    faulted.serve_config_mut().fault.panic_queries = vec![0];
    let (sink, log) = MemorySink::new();
    faulted.set_sink(Box::new(sink));

    let est = faulted.try_estimate_card(&workload()[0]).expect("degraded, not dead");
    assert_eq!(est.source, EstimateSource::Baseline);
    assert!(est.card.is_finite() && (0.0..=n).contains(&est.card));
    let stats = faulted.serve_stats();
    assert_eq!(stats.panics_isolated, 2); // first attempt + retry
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.fallbacks, 1);
    let events = log.lock().expect("event log");
    let isolated =
        events.iter().filter(|e| matches!(e, Event::PanicIsolated { index: Some(0) })).count();
    assert_eq!(isolated, 2, "first attempt and retry each isolate query 0");
    assert!(!events.iter().any(|e| matches!(e, Event::PanicIsolated { index: None })));
}

/// A join-style vquery batch with one query that panics inside the walk
/// (translated against a wider schema than the model's): the call
/// returns, the healthy queries answer exactly as in a clean batch, and
/// the poisoned one — its retry panicking too — degrades to `0`.
#[test]
fn vquery_batch_panic_is_isolated() {
    let base = quick_uae(19);
    let clean = base.clone();
    let faulted = base.clone();
    let vqs: Vec<VirtualQuery> = workload().iter().map(|q| base.translate(q)).collect();
    let mut poisoned = vqs.clone();
    poisoned[2] = wider_schema_vquery();

    let want = clean.estimate_vquery_batch(&vqs);
    let got = faulted.estimate_vquery_batch(&poisoned);

    assert_eq!(got.len(), vqs.len());
    assert_eq!(got[2], 0.0, "the poisoned query degrades to 0");
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if i != 2 {
            assert_eq!(w.to_bits(), g.to_bits(), "query {i} must survive the panic bit-exactly");
        }
    }
    let stats = faulted.serve_stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.fallbacks, 1);
    assert_eq!(stats.panics_isolated, 3); // batch attempt, the query alone, its retry
                                          // A single poisoned vquery is isolated too.
    assert_eq!(faulted.estimate_vquery(&poisoned[2]), 0.0);
}

/// Checkpoint-corruption fault: the saved blob fails to load with a typed
/// checksum error, and the estimator that attempted the load is untouched
/// — same weights, same estimates.
#[test]
fn corrupted_checkpoint_is_rejected_and_model_survives() {
    let queries = workload();
    let mut writer = quick_uae(15);
    writer.serve_config_mut().fault.corrupt_checkpoint = Some((100, 0x20));
    let corrupted = writer.save_checkpoint();

    let mut reader = quick_uae(16);
    let weights_before = reader.save_weights();
    let probe_before = cards(&reader.clone(), &queries);

    assert_eq!(reader.load_checkpoint(&corrupted), Err(LoadError::ChecksumMismatch));

    // Validation happens before commit: nothing in the reader moved.
    assert_eq!(reader.save_weights(), weights_before);
    let probe_after = cards(&reader.clone(), &queries);
    for (b, a) in probe_before.iter().zip(&probe_after) {
        assert_eq!(b.card.to_bits(), a.card.to_bits());
    }

    // With the fault disabled the very same trainer state round-trips.
    writer.serve_config_mut().fault.corrupt_checkpoint = None;
    let clean = writer.save_checkpoint();
    reader.load_checkpoint(&clean).expect("clean checkpoint loads");
}
