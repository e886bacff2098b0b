//! Join cardinality estimation over a full-outer-join sample (§4.6):
//! a UAE (or data-only NeuroCard) autoregressive model trained on the
//! sampled join, with indicator predicates for joined tables and
//! `1/fanout` importance weights for unjoined ones.

use uae_core::{TrainQuery, Uae, UaeConfig, VirtualQuery};
use uae_data::Table;
use uae_query::{Predicate, Query};

use crate::sampler::JoinSample;
use crate::schema::{JoinQuery, LabeledJoinQuery};

/// Estimators over a star schema.
pub trait JoinCardEstimator {
    /// Display name.
    fn name(&self) -> &str;
    /// Estimated cardinality of a join query.
    fn estimate_join_card(&self, query: &JoinQuery) -> f64;
    /// Estimated cardinalities of a batch of join queries. The default
    /// loops over [`JoinCardEstimator::estimate_join_card`];
    /// [`JoinUae`] overrides it with the cross-query batched sampler.
    fn estimate_join_cards(&self, queries: &[JoinQuery]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate_join_card(q)).collect()
    }
    /// Model size in bytes.
    fn size_bytes(&self) -> usize;
}

/// UAE over a join sample. Trained with data only this is the NeuroCard
/// baseline; trained hybrid it is the paper's UAE for joins (Table 5).
pub struct JoinUae {
    name: String,
    uae: Uae,
    sample: JoinSample,
}

impl JoinUae {
    /// Build an untrained model over the materialized join sample.
    pub fn new(sample: JoinSample, cfg: UaeConfig) -> Self {
        let uae = Uae::new(&sample.table, cfg);
        JoinUae { name: "UAE-join".to_owned(), uae, sample }
    }

    /// Rename (e.g. `"NeuroCard"` for the data-only variant).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The underlying single-table estimator.
    pub fn uae(&self) -> &Uae {
        &self.uae
    }

    /// Mutable access to the underlying estimator (e.g. to attach a
    /// metrics sink before training).
    pub fn uae_mut(&mut self) -> &mut Uae {
        &mut self.uae
    }

    /// Unsupervised training on the join sample (NeuroCard).
    pub fn train_data(&mut self, epochs: usize) -> Vec<f32> {
        self.uae.train_data(epochs)
    }

    /// Hybrid training with a labeled join workload (UAE, Alg. 3 with
    /// fanout-scaled query translation).
    pub fn train_hybrid(&mut self, workload: &[LabeledJoinQuery], epochs: usize) -> Vec<f32> {
        let tqs = self.prepare(workload);
        self.uae.train_hybrid_prepared(&tqs, epochs)
    }

    /// Query-only training (UAE-Q over joins).
    pub fn train_queries(&mut self, workload: &[LabeledJoinQuery], epochs: usize) -> Vec<f32> {
        let tqs = self.prepare(workload);
        self.uae.train_queries_prepared(&tqs, epochs)
    }

    fn prepare(&self, workload: &[LabeledJoinQuery]) -> Vec<TrainQuery> {
        workload
            .iter()
            .map(|lq| TrainQuery {
                vquery: self.translate(&lq.query),
                selectivity: lq.cardinality as f64 / self.sample.outer_size.max(1) as f64,
            })
            .collect()
    }

    /// Translate a join query onto the sample's flat columns (see
    /// [`flat_query`] / [`fanout_weights`]).
    pub fn translate(&self, q: &JoinQuery) -> VirtualQuery {
        let mut vq = self.uae.translate(&flat_query(&self.sample.layout, q));
        for (col, weights) in fanout_weights(&self.sample, q) {
            let vcol = single_vcol(&self.uae, col);
            vq.set_weighted(vcol, weights);
        }
        vq
    }

    /// Estimated join cardinality: a batch of one through the batched
    /// sampler ([`uae_core::Uae::estimate_vquery`]), bit-identical to the
    /// same query's slot in [`JoinUae::estimate_batch`] under the same RNG
    /// state. Steady-state calls reuse the
    /// underlying estimator's batched-sampler scratch, whose per-query
    /// buffers are reserved at the full sample budget, so repeated
    /// estimates allocate nothing in the tensor layer.
    pub fn estimate(&self, q: &JoinQuery) -> f64 {
        let vq = self.translate(q);
        self.uae.estimate_vquery(&vq) * self.sample.outer_size as f64
    }

    /// Estimated cardinalities for a batch of join queries through the
    /// cross-query batched sampler (one stacked forward per column round
    /// instead of one per query). The stacked input, per-query prefix
    /// tables, and probability buffers persist across calls.
    pub fn estimate_batch(&self, qs: &[JoinQuery]) -> Vec<f64> {
        let vqs: Vec<VirtualQuery> = qs.iter().map(|q| self.translate(q)).collect();
        let outer = self.sample.outer_size as f64;
        self.uae.estimate_vquery_batch(&vqs).into_iter().map(|sel| sel * outer).collect()
    }

    /// The materialized sample (diagnostics / tests).
    pub fn sample(&self) -> &JoinSample {
        &self.sample
    }
}

/// Translate a join query to a flat single-table [`Query`] over the join
/// sample: content predicates keep their (offset) columns and every joined
/// dimension adds `ind = 1`.
pub fn flat_query(layout: &crate::sampler::JoinLayout, q: &JoinQuery) -> Query {
    let mut preds: Vec<Predicate> = Vec::new();
    for p in &q.fact_preds {
        // Fact content columns come first, at the same positions.
        preds.push(Predicate { column: p.column, op: p.op.clone(), value: p.value.clone() });
    }
    for (d, dl) in layout.dims.iter().enumerate() {
        if q.dims.contains(&d) {
            preds.push(Predicate::eq(dl.indicator, 1i64));
        }
    }
    for (d, p) in &q.dim_preds {
        let dl = layout.dims[*d];
        preds.push(Predicate {
            column: dl.content_start + p.column,
            op: p.op.clone(),
            value: p.value.clone(),
        });
    }
    Query::new(preds)
}

/// Fanout-scaling weights for every dimension the query does *not* join:
/// `(flat fanout column, per-code weight 1 / max(fanout, 1))`.
pub fn fanout_weights(sample: &JoinSample, q: &JoinQuery) -> Vec<(usize, Vec<f64>)> {
    sample
        .layout
        .dims
        .iter()
        .enumerate()
        .filter(|(d, _)| !q.dims.contains(d))
        .map(|(_, dl)| {
            let col = sample.table.column(dl.fanout);
            let weights: Vec<f64> = col
                .dict()
                .iter()
                .map(|v| {
                    let f = v.as_int().expect("fanout values are ints").max(1);
                    1.0 / f as f64
                })
                .collect();
            (dl.fanout, weights)
        })
        .collect()
}

/// Virtual column of an (unfactorized) table column.
fn single_vcol(uae: &Uae, table_col: usize) -> usize {
    match uae.schema().entries()[table_col] {
        uae_core::encoding::ColEntry::Single { vcol } => vcol,
        uae_core::encoding::ColEntry::Split { .. } => {
            panic!("fanout columns must not be factorized (cap the fanout)")
        }
    }
}

impl JoinCardEstimator for JoinUae {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate_join_card(&self, query: &JoinQuery) -> f64 {
        self.estimate(query)
    }

    fn estimate_join_cards(&self, queries: &[JoinQuery]) -> Vec<f64> {
        self.estimate_batch(queries)
    }

    fn size_bytes(&self) -> usize {
        use uae_query::CardEstimator as _;
        self.uae.size_bytes()
    }
}

/// Helper exposing the sample table for baselines that want to train on
/// the same materialized join (e.g. DeepDB over joins).
pub fn sample_table(sample: &JoinSample) -> &Table {
    &sample.table
}

impl crate::optimizer::SubplanEstimator for JoinUae {
    fn name(&self) -> &str {
        &self.name
    }
    fn subplan_card(&self, query: &JoinQuery) -> f64 {
        self.estimate(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::JoinExecutor;
    use crate::sampler::sample_outer_join;
    use crate::synth::imdb_like;
    use uae_core::{DpsConfig, ResMadeConfig, TrainConfig};

    fn quick_cfg() -> UaeConfig {
        UaeConfig {
            model: ResMadeConfig { hidden: 32, blocks: 1, seed: 11 },
            factor_threshold: usize::MAX,
            order: uae_core::ColumnOrder::Natural,
            encoding: uae_core::encoding::EncodingMode::Binary,
            train: TrainConfig {
                batch_size: 128,
                query_batch: 8,
                dps: DpsConfig { tau: 1.0, samples: 8 },
                lambda: 1.0,
                ..TrainConfig::default()
            },
            estimate_samples: 200,
            serve: uae_core::ServeConfig::default(),
        }
    }

    #[test]
    fn translate_sets_indicators_and_weights() {
        let s = imdb_like(300, 7);
        let sample = sample_outer_join(&s, 1500, 16, 1);
        let ju = JoinUae::new(sample, quick_cfg());
        let q = JoinQuery {
            dims: vec![0],
            fact_preds: vec![Predicate::ge(0, 50i64)],
            dim_preds: vec![(0, Predicate::eq(0, 1i64))],
        };
        let vq = ju.translate(&q);
        // Unjoined dims 1 and 2 must carry weighted fanout steps.
        let weighted = vq
            .steps()
            .iter()
            .filter(|s| matches!(s, uae_core::vquery::StepRegion::Weighted(_)))
            .count();
        assert_eq!(weighted, 2);
    }

    #[test]
    fn batched_join_estimates_match_sequential() {
        use crate::workload::{generate_join_workload, JoinWorkloadSpec};
        let s = imdb_like(300, 7);
        // Two identical estimators: `Uae::clone`/fresh construction reseed
        // the estimation RNG, so sequential and batched runs start from the
        // same stream.
        let mk = || {
            let sample = sample_outer_join(&s, 1500, 16, 1);
            let mut ju = JoinUae::new(sample, quick_cfg());
            ju.train_data(1);
            ju
        };
        // Random subsets exercise fanout (weighted) steps and indicators.
        // The 40-query batch is split into query shards on a multi-threaded
        // kernel pool; the 12-query one is a single walk.
        for (n, seed) in [(12, 9), (40, 21)] {
            let w = generate_join_workload(
                &s,
                &JoinWorkloadSpec::random(n, seed),
                &std::collections::HashSet::new(),
            );
            let queries: Vec<JoinQuery> = w.iter().map(|lq| lq.query.clone()).collect();
            let a = mk();
            let seq: Vec<f64> = queries.iter().map(|q| a.estimate(q)).collect();
            let bat = mk().estimate_batch(&queries);
            for (i, (s_est, b_est)) in seq.iter().zip(&bat).enumerate() {
                assert_eq!(
                    s_est.to_bits(),
                    b_est.to_bits(),
                    "{n} queries, query {i}: sequential {s_est} vs batched {b_est}"
                );
            }
        }
    }

    #[test]
    fn trained_neurocard_tracks_pure_join_sizes() {
        let s = imdb_like(400, 8);
        let exec = JoinExecutor::new(&s);
        let sample = sample_outer_join(&s, 4000, 16, 2);
        let mut nc = JoinUae::new(sample, quick_cfg()).with_name("NeuroCard");
        nc.train_data(4);
        // Inner join of all three tables.
        let q = JoinQuery { dims: vec![0, 1, 2], ..Default::default() };
        let truth = exec.cardinality(&q) as f64;
        let est = nc.estimate(&q);
        let qerr = (est.max(1.0) / truth).max(truth / est.max(1.0));
        assert!(qerr < 3.0, "pure join est {est} vs truth {truth} (q-error {qerr})");
        // Subset join exercises fanout scaling.
        let q01 = JoinQuery { dims: vec![0], ..Default::default() };
        let truth01 = exec.cardinality(&q01) as f64;
        let est01 = nc.estimate(&q01);
        let qerr01 = (est01.max(1.0) / truth01).max(truth01 / est01.max(1.0));
        assert!(qerr01 < 3.5, "subset join est {est01} vs truth {truth01} (q-error {qerr01})");
    }
}
