//! Property tests of the estimator-side invariants: progressive sampling,
//! uniform sampling and exhaustive enumeration must agree on small
//! domains, for arbitrary models (trained or not), queries and seeds —
//! because all three compute the same expectation under the same model.

use proptest::prelude::*;
use uae_core::infer::{
    exhaustive_selectivity, progressive_sample, progressive_sample_batch, uniform_sample_estimate,
};
use uae_core::{ResMade, ResMadeConfig, VirtualQuery, VirtualSchema};
use uae_data::{Table, Value};
use uae_query::{PredOp, Predicate, Query};
use uae_tensor::rng::seeded_rng;
use uae_tensor::ParamStore;

fn small_setup(domains: &[usize], seed: u64) -> (Table, VirtualSchema, ParamStore, ResMade) {
    small_setup_factorized(domains, usize::MAX, seed)
}

/// [`small_setup`] with columns wider than `factor_threshold` factorized
/// into hi/lo virtual columns.
fn small_setup_factorized(
    domains: &[usize],
    factor_threshold: usize,
    seed: u64,
) -> (Table, VirtualSchema, ParamStore, ResMade) {
    let rows = 16;
    let cols = domains
        .iter()
        .enumerate()
        .map(|(j, &d)| {
            let vals: Vec<Value> = (0..rows).map(|r| Value::Int(((r + j) % d) as i64)).collect();
            (format!("c{j}"), vals)
        })
        .collect();
    let t = Table::from_columns("t", cols);
    let schema = VirtualSchema::build(&t, factor_threshold);
    let mut store = ParamStore::new();
    let model = ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 8, blocks: 1, seed });
    (t, schema, store, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Progressive and uniform sampling both converge to the exhaustive
    /// value (within Monte-Carlo tolerance) on arbitrary untrained models.
    #[test]
    fn samplers_agree_with_enumeration(
        seed in 0u64..1000,
        d0 in 2usize..6,
        d1 in 2usize..5,
        lo in 0i64..3,
        hi in 2i64..6,
    ) {
        let (t, schema, store, model) = small_setup(&[d0, d1, 3], seed);
        let raw = model.snapshot(&store);
        let q = Query::new(vec![
            Predicate::ge(0, lo.min(d0 as i64 - 1)),
            Predicate::new(0, PredOp::Le, Value::Int(hi)),
            Predicate::eq(1, (seed % d1 as u64) as i64),
        ]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&raw, &schema, &vq);
        let mut rng = seeded_rng(seed ^ 0xf00);
        let prog = progressive_sample(&raw, &schema, &vq, 3000, &mut rng);
        let unif = uniform_sample_estimate(&raw, &schema, &vq, 3000, &mut rng);
        let tol = 0.12 * exact.max(0.03);
        prop_assert!((prog - exact).abs() < tol, "progressive {} vs exact {}", prog, exact);
        prop_assert!((unif - exact).abs() < tol * 2.0, "uniform {} vs exact {}", unif, exact);
    }

    /// The served engine on factorized columns: with a factor threshold of
    /// 4, every column wider than 4 codes becomes a hi/lo pair, so range,
    /// `!=` and `IN` predicates on it sample `LoOfSplit` steps through the
    /// batched engine's per-prefix path. Each estimate converges to the
    /// exhaustive value within the tolerance of the case above. As there,
    /// no wildcard precedes a constrained column: enumeration sums a
    /// wildcard out, which an untrained model's wildcard input need not
    /// match.
    #[test]
    fn served_engine_agrees_with_enumeration_on_split_columns(
        seed in 0u64..1000,
        d0 in 6usize..=12,
        d1 in 2usize..6,
        lo in 0i64..4,
        width in 1i64..8,
    ) {
        let (t, schema, store, model) = small_setup_factorized(&[d0, d1, 3], 4, seed);
        prop_assert!(schema.num_virtual() > t.num_cols(), "column 0 must be factorized");
        let raw = model.snapshot(&store);
        let hi = (lo + width).min(d0 as i64 - 1);
        let queries = [
            Query::new(vec![Predicate::ge(0, lo), Predicate::le(0, hi)]),
            Query::new(vec![
                Predicate::new(0, PredOp::Ne, Value::Int(lo)),
                Predicate::eq(1, (seed % d1 as u64) as i64),
            ]),
            Query::new(vec![
                Predicate::is_in(0, vec![Value::Int(lo), Value::Int(hi), Value::Int(5)]),
                Predicate::ge(1, 1i64),
            ]),
        ];
        let vqs: Vec<VirtualQuery> =
            queries.iter().map(|q| VirtualQuery::build(&t, &schema, q)).collect();
        let seeds: Vec<u64> = (0..vqs.len() as u64).map(|i| seed ^ (0xba7c4 + i)).collect();
        let served = progressive_sample_batch(&raw, &schema, &vqs, 3000, &seeds);
        for (vq, &est) in vqs.iter().zip(&served) {
            let exact = exhaustive_selectivity(&raw, &schema, vq);
            let tol = 0.12 * exact.max(0.03);
            prop_assert!((est - exact).abs() < tol, "served {} vs exact {}", est, exact);
        }
    }

    /// Estimates are monotone in the region: widening a range cannot
    /// decrease exhaustive selectivity.
    #[test]
    fn exhaustive_is_monotone_in_region(seed in 0u64..500, cut in 1i64..4) {
        let (t, schema, store, model) = small_setup(&[6, 4], seed);
        let raw = model.snapshot(&store);
        let narrow = VirtualQuery::build(&t, &schema, &Query::new(vec![Predicate::le(0, cut)]));
        let wide =
            VirtualQuery::build(&t, &schema, &Query::new(vec![Predicate::le(0, cut + 1)]));
        let sn = exhaustive_selectivity(&raw, &schema, &narrow);
        let sw = exhaustive_selectivity(&raw, &schema, &wide);
        prop_assert!(sw >= sn - 1e-9, "widening decreased mass: {} -> {}", sn, sw);
    }

    /// Inclusion–exclusion (the paper's §3 disjunction mechanism):
    /// P(A ∪ B) = P(A) + P(B) − P(A ∩ B) holds exactly under exhaustive
    /// enumeration for same-column range unions.
    #[test]
    fn inclusion_exclusion_for_disjunctions(seed in 0u64..500) {
        let (t, schema, store, model) = small_setup(&[8, 3], seed);
        let raw = model.snapshot(&store);
        let sel = |q: &Query| {
            let vq = VirtualQuery::build(&t, &schema, q);
            exhaustive_selectivity(&raw, &schema, &vq)
        };
        // A: c0 <= 4, B: c0 >= 3 → A∪B = everything, A∩B = [3, 4].
        let a = sel(&Query::new(vec![Predicate::le(0, 4i64)]));
        let b = sel(&Query::new(vec![Predicate::ge(0, 3i64)]));
        let ab = sel(&Query::new(vec![Predicate::ge(0, 3i64), Predicate::le(0, 4i64)]));
        let union = sel(&Query::default());
        prop_assert!((a + b - ab - union).abs() < 1e-4,
            "inclusion-exclusion violated: {} + {} - {} != {}", a, b, ab, union);
    }
}
