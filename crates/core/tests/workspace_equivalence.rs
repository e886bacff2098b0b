//! The plan/workspace refactor must be a pure optimization: the batched
//! sampler (`progressive_sample_batch_with`) reuses its scratch across
//! queries and calls, yet returns f64-bit-identical estimates to the
//! allocating oracles — across wildcards, factorized (split) columns,
//! weighted (fanout) steps, and shape-changing query streams that force
//! every buffer to grow and shrink.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uae_core::infer::progressive_sample;
use uae_core::infer_batch::{
    progressive_sample_batch, progressive_sample_batch_with, BatchScratch,
};
use uae_core::vquery::VirtualQuery;
use uae_core::{ResMade, ResMadeConfig, VirtualSchema};
use uae_data::{Table, Value};
use uae_query::{Predicate, Query};
use uae_tensor::ParamStore;

/// A table with a wide (factorized) column, two mid columns, and a small
/// one, so query streams mix `Fixed`, `LoOfSplit`, `Weighted`, and
/// wildcard steps.
fn setup(factor_threshold: usize) -> (Table, VirtualSchema, ParamStore, ResMade) {
    let rows = 400;
    let cols = vec![
        ("wide".to_owned(), (0..rows).map(|r| Value::Int((r * 7 % 150) as i64)).collect()),
        ("a".to_owned(), (0..rows).map(|r| Value::Int((r % 11) as i64)).collect()),
        ("b".to_owned(), (0..rows).map(|r| Value::Int((r % 6) as i64)).collect()),
        ("c".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
    ];
    let t = Table::from_columns("t", cols);
    let schema = VirtualSchema::build(&t, factor_threshold);
    let mut store = ParamStore::new();
    let model =
        ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 24, blocks: 1, seed: 13 });
    (t, schema, store, model)
}

/// A mixed query stream: ranges on the split column, points, partial
/// wildcards, a fanout-weighted step, and the empty query.
fn mixed_stream(t: &Table, schema: &VirtualSchema) -> Vec<VirtualQuery> {
    let mut vqs: Vec<VirtualQuery> = [
        Query::new(vec![Predicate::ge(0, 10i64), Predicate::le(0, 120i64)]),
        Query::new(vec![Predicate::eq(1, 4i64), Predicate::ge(2, 2i64)]),
        Query::new(vec![Predicate::le(0, 30i64), Predicate::eq(3, 1i64)]),
        Query::new(vec![Predicate::eq(2, 5i64)]),
        Query::default(),
        Query::new(vec![Predicate::ge(0, 140i64)]),
    ]
    .iter()
    .map(|q| VirtualQuery::build(t, schema, q))
    .collect();
    // Fanout weights on a leading column (the join path).
    let mut wq = VirtualQuery::build(t, schema, &Query::new(vec![Predicate::le(2, 3i64)]));
    wq.set_weighted(
        schema.num_virtual() - 1,
        (0..schema.codec(schema.num_virtual() - 1).domain()).map(|i| 0.5 + i as f64).collect(),
    );
    vqs.push(wq);
    vqs
}

/// One `BatchScratch` carried across repeated batch calls — with the query
/// set, batch size, and sample budget all changing call to call — returns
/// exactly what a fresh-scratch batch call returns.
#[test]
fn batch_scratch_reuse_is_bit_exact() {
    for threshold in [usize::MAX, 16] {
        let (t, schema, store, model) = setup(threshold);
        let raw = model.snapshot(&store);
        let vqs = mixed_stream(&t, &schema);
        let mut scratch = BatchScratch::new();
        // Shrinking then growing batches exercise the prefix-pool
        // return/take cycle and the stacked-tensor high-water mark.
        let slices: [&[VirtualQuery]; 4] = [&vqs, &vqs[..2], &vqs[3..], &vqs];
        for (call, qs) in slices.iter().enumerate() {
            for s in [150, 40] {
                let seeds: Vec<u64> = (0..qs.len() as u64)
                    .map(|i| 0xbeef ^ ((call as u64) << 16) ^ (31 * i) ^ s as u64)
                    .collect();
                let oracle = progressive_sample_batch(&raw, &schema, qs, s, &seeds);
                let got = progressive_sample_batch_with(&raw, &schema, qs, s, &seeds, &mut scratch);
                for (i, (o, g)) in oracle.iter().zip(&got).enumerate() {
                    assert_eq!(
                        o.to_bits(),
                        g.to_bits(),
                        "call {call}, query {i}, s={s}, threshold={threshold}: {o} vs {g}"
                    );
                }
            }
        }
    }
}

/// The batched scratch path agrees with the *sequential* oracle too (the
/// transitive check: batch-with == batch == per-query sequential).
#[test]
fn batch_scratch_matches_sequential_oracle() {
    let (t, schema, store, model) = setup(16);
    let raw = model.snapshot(&store);
    let vqs = mixed_stream(&t, &schema);
    let s = 120;
    let seeds: Vec<u64> = (0..vqs.len() as u64).map(|i| 0x5eed + 101 * i).collect();
    let mut scratch = BatchScratch::new();
    // Warm the scratch on a first pass, then measure the second.
    progressive_sample_batch_with(&raw, &schema, &vqs, s, &seeds, &mut scratch);
    let batched = progressive_sample_batch_with(&raw, &schema, &vqs, s, &seeds, &mut scratch);
    for (i, (vq, &seed)) in vqs.iter().zip(&seeds).enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = progressive_sample(&raw, &schema, vq, s, &mut rng);
        assert_eq!(
            oracle.to_bits(),
            batched[i].to_bits(),
            "query {i}: sequential oracle {oracle} vs warm batched {}",
            batched[i]
        );
    }
}
