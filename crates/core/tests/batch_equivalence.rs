//! The batched inference engine must be a pure optimization: under matched
//! RNG state it returns bit-identical estimates to the sequential
//! progressive sampler, across wildcards, factorized (split) columns, and
//! weighted (fanout) steps — and its first-step memo must refresh whenever
//! the weights change. Splitting a batch into query shards must be
//! invisible too: every shard count returns the same bits.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uae_core::infer::{progressive_sample, progressive_sample_batch};
use uae_core::infer_batch::{progressive_sample_batch_sharded, BatchScratch};
use uae_core::model::RawModel;
use uae_core::serialize::load_params;
use uae_core::vquery::VirtualQuery;
use uae_core::{ResMade, ResMadeConfig, TrainConfig, Uae, UaeConfig, VirtualSchema};
use uae_data::{census_like, Table, Value};
use uae_query::{generate_workload, Predicate, Query, WorkloadSpec};
use uae_tensor::ParamStore;

fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-300))
        .fold(0.0, f64::max)
}

fn quick_cfg() -> UaeConfig {
    UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 5 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 120,
        ..UaeConfig::default()
    }
}

/// Mixed single-table workload (point, range, partial-wildcard queries):
/// sequential `estimate_selectivity` calls and one `estimate_batch` call
/// consume the estimator RNG stream identically, so the estimates agree to
/// machine precision.
#[test]
fn estimate_batch_matches_sequential_on_mixed_workload() {
    let t = census_like(900, 17);
    let mut uae = Uae::new(&t, quick_cfg());
    uae.train_data(1);
    let workload = generate_workload(&t, &WorkloadSpec::random(24, 41), &HashSet::new());
    let queries: Vec<Query> = workload.into_iter().map(|lq| lq.query).collect();

    // Clones share weights and reseed the estimation RNG identically.
    let seq = uae.clone();
    let bat = uae.clone();
    let sequential: Vec<f64> = queries.iter().map(|q| seq.estimate_selectivity(q)).collect();
    let batched = bat.estimate_batch(&queries);

    let err = max_rel_err(&sequential, &batched);
    assert!(err <= 1e-9, "batched diverges from sequential: rel err {err}");
    assert!(sequential.iter().any(|&s| s > 0.0), "degenerate workload");
}

/// Factorized wide columns introduce `LoOfSplit` steps whose region depends
/// on the per-row sampled hi code; the batch path must track those per
/// query exactly.
#[test]
fn estimate_batch_matches_sequential_with_split_columns() {
    let rows = 300;
    let cols = vec![
        ("wide".to_owned(), (0..rows).map(|r| Value::Int((r * 13 % 120) as i64)).collect()),
        ("mid".to_owned(), (0..rows).map(|r| Value::Int((r % 9) as i64)).collect()),
        ("small".to_owned(), (0..rows).map(|r| Value::Int((r % 4) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let cfg = UaeConfig { factor_threshold: 16, ..quick_cfg() };
    let mut uae = Uae::new(&t, cfg);
    uae.train_data(1);
    let queries = vec![
        Query::new(vec![Predicate::ge(0, 5i64), Predicate::le(0, 87i64)]),
        Query::new(vec![Predicate::le(0, 40i64), Predicate::eq(2, 1i64)]),
        Query::new(vec![Predicate::eq(1, 3i64)]),
        Query::new(vec![Predicate::ge(0, 100i64), Predicate::le(1, 5i64), Predicate::ge(2, 2i64)]),
        Query::default(), // no predicates: selectivity 1 in both paths
    ];

    let seq = uae.clone();
    let bat = uae.clone();
    let sequential: Vec<f64> = queries.iter().map(|q| seq.estimate_selectivity(q)).collect();
    let batched = bat.estimate_batch(&queries);
    let err = max_rel_err(&sequential, &batched);
    assert!(err <= 1e-9, "split-column batch diverges: rel err {err}");
    assert_eq!(batched[4], 1.0);
}

/// Weighted (fanout-scaled) steps — the join path — draw via importance
/// sampling; the batched walk must consume each query's RNG identically.
#[test]
fn batched_sampler_matches_sequential_with_weighted_steps() {
    let rows = 200;
    let cols = vec![
        ("a".to_owned(), (0..rows).map(|r| Value::Int((r % 6) as i64)).collect()),
        ("b".to_owned(), (0..rows).map(|r| Value::Int((r % 5) as i64)).collect()),
        ("c".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let schema = VirtualSchema::build(&t, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 3 });
    let raw = model.snapshot(&store);

    let mut vqs: Vec<VirtualQuery> = Vec::new();
    // Fanout weights on the leading column plus a range on another.
    for (lo, hi) in [(0i64, 3i64), (1, 4), (2, 2)] {
        let q = Query::new(vec![Predicate::ge(1, lo), Predicate::le(1, hi)]);
        let mut vq = VirtualQuery::build(&t, &schema, &q);
        vq.set_weighted(0, vec![1.0, 2.0, 0.5, 3.0, 0.0, 1.5]);
        vqs.push(vq);
    }
    // One query with a weighted *last* column (no sampling after it).
    let q = Query::new(vec![Predicate::eq(0, 2i64)]);
    let mut vq = VirtualQuery::build(&t, &schema, &q);
    vq.set_weighted(2, vec![0.7, 1.3, 2.0]);
    vqs.push(vq);

    let s = 150;
    let seeds: Vec<u64> = (0..vqs.len() as u64).map(|i| 0xfeed + 77 * i).collect();
    let sequential: Vec<f64> = vqs
        .iter()
        .zip(&seeds)
        .map(|(vq, &seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            progressive_sample(&raw, &schema, vq, s, &mut rng)
        })
        .collect();
    let batched = progressive_sample_batch(&raw, &schema, &vqs, s, &seeds);
    let err = max_rel_err(&sequential, &batched);
    assert!(err <= 1e-9, "weighted batch diverges: rel err {err}");
}

/// The snapshot's first-step rows are, bit for bit, the softmaxed logits
/// of an all-wildcard forward through the same snapshot.
#[test]
fn first_step_probs_match_the_all_wildcard_forward() {
    let t = census_like(300, 23);
    let uae = Uae::new(&t, quick_cfg());
    let schema = uae.schema().clone();
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 9 });
    let raw = model.snapshot(&store);
    let h = raw.hidden(raw.zero_row());
    for v in 0..schema.num_virtual() {
        let mut logits = raw.logits_col(&h, v);
        logits.softmax_rows_in_place();
        let bits = |row: &[f32]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(raw.first_step_probs(v)), bits(logits.row(0)), "column {v}");
    }
}

/// Training between batched estimates must refresh the first-step memo:
/// the weights change, so the cached all-wildcard distribution changes too.
#[test]
fn first_step_cache_refreshes_after_training() {
    let t = census_like(600, 29);
    let mut uae = Uae::new(&t, quick_cfg());
    // A query with non-trivial true selectivity, so estimates are neither
    // pinned at 0 nor at 1 and weight changes are observable.
    let w = generate_workload(&t, &WorkloadSpec::random(20, 13), &HashSet::new());
    let q = w
        .into_iter()
        .find(|lq| lq.selectivity > 0.05 && lq.selectivity < 0.95)
        .expect("workload has a mid-selectivity query")
        .query;
    let before = uae.estimate_batch(std::slice::from_ref(&q));
    uae.train_data(2);
    let after = uae.estimate_batch(std::slice::from_ref(&q));
    assert_ne!(before[0], after[0], "estimate unchanged after training — stale first-step cache?");
    // Incremental ingestion also changes weights and must also invalidate.
    let extra = t.take_rows(&(0..50).collect::<Vec<_>>());
    uae.ingest_data(&extra, 1);
    let after_ingest = uae.estimate_batch(std::slice::from_ref(&q));
    assert_ne!(after[0], after_ingest[0], "stale cache after ingest_data");
}

/// Shard counts the sharded-equivalence tests sweep; 1 is the unsharded
/// walk.
const SHARD_COUNTS: std::ops::RangeInclusive<usize> = 1..=5;

/// A snapshot of `uae`'s trained weights (the estimator's own snapshot is
/// private).
fn snapshot_of(uae: &Uae, cfg: &UaeConfig) -> RawModel {
    let mut store = ParamStore::new();
    let model = ResMade::new(&mut store, uae.schema(), &cfg.model);
    load_params(&mut store, &uae.save_weights()).expect("same architecture");
    model.snapshot(&store)
}

fn seeds_for(n: usize, base: u64) -> Vec<u64> {
    (0..n as u64).map(|i| base ^ (0x9e37_79b9 * (i + 1))).collect()
}

/// The sequential oracle (one `progressive_sample` per query) against
/// the batched sampler at every shard count, bit for bit. One scratch
/// serves every call and the sweep runs twice, so warm shard scratches are
/// reused across shard counts.
fn assert_shard_invariant(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
) -> Vec<f64> {
    let sequential: Vec<f64> = vqs
        .iter()
        .zip(seeds)
        .map(|(vq, &seed)| progressive_sample(raw, schema, vq, s, &mut StdRng::seed_from_u64(seed)))
        .collect();
    let mut scratch = BatchScratch::new();
    for pass in 0..2 {
        for k in SHARD_COUNTS {
            let got = progressive_sample_batch_sharded(raw, schema, vqs, s, seeds, k, &mut scratch);
            assert_eq!(got.len(), vqs.len());
            for (i, (w, g)) in sequential.iter().zip(&got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "query {i}, {k} shards, pass {pass}: sequential {w} vs sharded {g}"
                );
            }
        }
    }
    sequential
}

/// A mixed census batch with empty and no-predicate queries interleaved,
/// so every shard count puts shortcuts and sampled queries in different
/// shards.
#[test]
fn sharded_batches_match_sequential_on_mixed_workload() {
    let t = census_like(900, 17);
    let cfg = quick_cfg();
    let mut uae = Uae::new(&t, cfg.clone());
    uae.train_data(1);
    let workload = generate_workload(&t, &WorkloadSpec::random(36, 43), &HashSet::new());
    let mut queries: Vec<Query> = workload.into_iter().map(|lq| lq.query).collect();
    // Age lives in 17..90: a bound beyond it makes the region empty.
    let empty = Query::new(vec![Predicate::ge(0, 500i64)]);
    for at in [3, 11, 20] {
        queries.insert(at, empty.clone());
    }
    for at in [0, 7, 30] {
        queries.insert(at, Query::default());
    }
    let raw = snapshot_of(&uae, &cfg);
    let vqs: Vec<VirtualQuery> = queries.iter().map(|q| uae.translate(q)).collect();
    assert!(vqs[4].is_empty(), "the out-of-domain query must translate to an empty region");
    let seeds = seeds_for(vqs.len(), 0x5eed);
    let sels = assert_shard_invariant(&raw, uae.schema(), &vqs, 120, &seeds);
    assert_eq!(sels[4], 0.0);
    assert_eq!(sels[0], 1.0);
    assert!(sels.iter().any(|&s| s > 0.0 && s < 1.0), "degenerate workload");
}

/// Factorized wide columns: `LoOfSplit` regions depend on each row's
/// sampled hi code, tracked per query whatever shard the query lands in.
#[test]
fn sharded_batches_match_sequential_with_split_columns() {
    let rows = 300;
    let cols = vec![
        ("wide".to_owned(), (0..rows).map(|r| Value::Int((r * 13 % 120) as i64)).collect()),
        ("mid".to_owned(), (0..rows).map(|r| Value::Int((r % 9) as i64)).collect()),
        ("small".to_owned(), (0..rows).map(|r| Value::Int((r % 4) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let cfg = UaeConfig { factor_threshold: 16, ..quick_cfg() };
    let mut uae = Uae::new(&t, cfg.clone());
    uae.train_data(1);
    let mut queries = Vec::new();
    for k in 0..6i64 {
        queries.push(Query::new(vec![Predicate::ge(0, 5 + k), Predicate::le(0, 87 - 3 * k)]));
        queries.push(Query::new(vec![Predicate::le(0, 40 + k), Predicate::eq(2, k % 4)]));
        queries.push(Query::new(vec![Predicate::eq(1, k % 9)]));
        queries.push(Query::new(vec![
            Predicate::ge(0, 90 + k),
            Predicate::le(1, 5),
            Predicate::ge(2, 2),
        ]));
    }
    queries.insert(9, Query::default());
    let raw = snapshot_of(&uae, &cfg);
    let vqs: Vec<VirtualQuery> = queries.iter().map(|q| uae.translate(q)).collect();
    assert!(uae.schema().num_virtual() > t.num_cols(), "the wide column must be factorized");
    let seeds = seeds_for(vqs.len(), 0x5b1);
    assert_shard_invariant(&raw, uae.schema(), &vqs, 120, &seeds);
}

/// Weighted (fanout-scaled) steps, as `JoinUae` translates unjoined
/// dimensions: importance sampling from the reweighted conditional,
/// including a weighted last column and an all-zero (empty) weight vector.
#[test]
fn sharded_batches_match_sequential_with_weighted_steps() {
    let rows = 200;
    let cols = vec![
        ("a".to_owned(), (0..rows).map(|r| Value::Int((r % 6) as i64)).collect()),
        ("b".to_owned(), (0..rows).map(|r| Value::Int((r % 5) as i64)).collect()),
        ("c".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let schema = VirtualSchema::build(&t, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 3 });
    let raw = model.snapshot(&store);

    let mut vqs: Vec<VirtualQuery> = Vec::new();
    for k in 0..20u32 {
        let lo = (k % 5) as i64;
        let q = Query::new(vec![Predicate::ge(1, lo), Predicate::le(1, 4)]);
        let mut vq = VirtualQuery::build(&t, &schema, &q);
        let w: Vec<f64> = (0..6).map(|c| ((c + k) % 4) as f64 * 0.75).collect();
        vq.set_weighted(0, w);
        if k % 3 == 0 {
            vq.set_weighted(2, vec![0.7, 1.3, 2.0]);
        }
        vqs.push(vq);
    }
    let mut dead = VirtualQuery::build(&t, &schema, &Query::new(vec![Predicate::eq(1, 2i64)]));
    dead.set_weighted(0, vec![0.0; 6]);
    vqs.insert(6, dead);

    let seeds = seeds_for(vqs.len(), 0xfeed);
    let sels = assert_shard_invariant(&raw, &schema, &vqs, 150, &seeds);
    assert_eq!(sels[6], 0.0);
}

/// Queries whose samples all die mid-walk (all-zero fanout weights on a
/// middle or first column, with constrained columns after it) next to live
/// ones, and a batch in which every query dies: the walk stops once no
/// query is live, and every estimate still matches the oracle bit for bit.
#[test]
fn all_killed_queries_match_sequential_next_to_live_ones() {
    let rows = 240;
    let cols = vec![
        ("a".to_owned(), (0..rows).map(|r| Value::Int((r % 6) as i64)).collect()),
        ("b".to_owned(), (0..rows).map(|r| Value::Int((r % 5) as i64)).collect()),
        ("c".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
        ("d".to_owned(), (0..rows).map(|r| Value::Int((r % 4) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let schema = VirtualSchema::build(&t, usize::MAX);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 11 });
    let raw = model.snapshot(&store);

    // Samples survive round 0, then all die on the zero weights at `b`.
    let q = Query::new(vec![Predicate::le(0, 3i64), Predicate::eq(3, 1i64)]);
    let mut dies_late = VirtualQuery::build(&t, &schema, &q);
    dies_late.set_weighted(1, vec![0.0; 5]);
    // Samples all die at the first column.
    let q = Query::new(vec![Predicate::ge(2, 1i64), Predicate::le(3, 2i64)]);
    let mut dies_first = VirtualQuery::build(&t, &schema, &q);
    dies_first.set_weighted(0, vec![0.0; 6]);

    let mut vqs: Vec<VirtualQuery> = Vec::new();
    for k in 0..18i64 {
        let q = Query::new(vec![
            Predicate::ge(0, k % 4),
            Predicate::le(2, 1 + k % 2),
            Predicate::ge(3, k % 3),
        ]);
        vqs.push(VirtualQuery::build(&t, &schema, &q));
    }
    vqs.insert(4, dies_late.clone());
    vqs.insert(13, dies_first.clone());

    let seeds = seeds_for(vqs.len(), 0xdead);
    let sels = assert_shard_invariant(&raw, &schema, &vqs, 150, &seeds);
    assert_eq!(sels[4], 0.0);
    assert_eq!(sels[13], 0.0);
    assert!(sels.iter().filter(|&&s| s > 0.0).count() >= 18, "live queries must stay live");

    let dead = vec![dies_late, dies_first, vqs[4].clone()];
    let seeds = seeds_for(dead.len(), 0xd1e);
    let sels = assert_shard_invariant(&raw, &schema, &dead, 150, &seeds);
    assert!(sels.iter().all(|&s| s == 0.0));
}
