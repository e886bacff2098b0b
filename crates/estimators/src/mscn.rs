//! MSCN (Kipf et al., CIDR 2019) adapted to single tables — the paper's
//! query-driven deep baseline — in two flavours:
//!
//! * **MSCN-base**: set-pooled predicate features → MLP;
//! * **MSCN+sampling**: the same network with a bitmap of materialized
//!   sample hits appended to the features (the hybrid baseline that the
//!   paper shows gains a lot from data information).
//!
//! The network regresses the *normalized log-selectivity* (the original's
//! target transform) with an MSE loss.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query};
use uae_tensor::rng::he_uniform;
use uae_tensor::{Adam, GradStore, Optimizer, ParamId, ParamStore, Tape, Tensor};

use crate::features::QueryFeaturizer;

/// MSCN hyper-parameters (paper defaults: 2 layers of 256 units).
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Number of materialized sample rows (0 = MSCN-base).
    pub sample_rows: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig { hidden: 256, epochs: 40, batch: 64, lr: 1e-3, sample_rows: 0, seed: 77 }
    }
}

/// The MSCN estimator.
pub struct MscnEstimator {
    name: String,
    featurizer: QueryFeaturizer,
    sample: Option<Table>,
    store: ParamStore,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    w3: ParamId,
    b3: ParamId,
    /// log(1/|T|): output 0.0 ↔ minimum selectivity, 1.0 ↔ selectivity 1.
    ln_min: f64,
    total_rows: usize,
}

impl MscnEstimator {
    /// Train MSCN on a labeled workload.
    pub fn new(table: &Table, workload: &[LabeledQuery], cfg: &MscnConfig) -> Self {
        let featurizer = QueryFeaturizer::new(table);
        let sample = (cfg.sample_rows > 0).then(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbead);
            let n = table.num_rows();
            let take = cfg.sample_rows.min(n);
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..take {
                let j = rng.random_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(take);
            table.take_rows(&idx)
        });
        let in_dim = featurizer.mscn_width() + sample.as_ref().map_or(0, Table::num_rows);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let h = cfg.hidden;
        let w1 = store.add("w1", he_uniform(&mut rng, in_dim, h));
        let b1 = store.add("b1", Tensor::zeros(1, h));
        let w2 = store.add("w2", he_uniform(&mut rng, h, h));
        let b2 = store.add("b2", Tensor::zeros(1, h));
        let w3 = store.add("w3", he_uniform(&mut rng, h, 1));
        let b3 = store.add("b3", Tensor::zeros(1, 1));

        let mut est = MscnEstimator {
            name: if sample.is_some() { "MSCN+sampling" } else { "MSCN-base" }.to_owned(),
            featurizer,
            sample,
            store,
            w1,
            b1,
            w2,
            b2,
            w3,
            b3,
            ln_min: (1.0 / table.num_rows().max(2) as f64).ln(),
            total_rows: table.num_rows(),
        };
        est.fit(workload, cfg, &mut rng);
        est
    }

    fn features(&self, query: &Query) -> Vec<f32> {
        let mut f = self.featurizer.mscn_features(query);
        if let Some(sample) = &self.sample {
            f.extend(self.featurizer.sample_bitmap(sample, query));
        }
        f
    }

    fn target(&self, selectivity: f64) -> f32 {
        // Map ln(sel) ∈ [ln_min, 0] to [0, 1].
        let s = selectivity.max((self.ln_min).exp());
        (1.0 - s.ln() / self.ln_min) as f32
    }

    fn inverse_target(&self, y: f64) -> f64 {
        ((1.0 - y.clamp(0.0, 1.0)) * self.ln_min).exp()
    }

    fn fit(&mut self, workload: &[LabeledQuery], cfg: &MscnConfig, rng: &mut StdRng) {
        if workload.is_empty() {
            return;
        }
        let feats: Vec<Vec<f32>> = workload.iter().map(|lq| self.features(&lq.query)).collect();
        let targets: Vec<f32> = workload.iter().map(|lq| self.target(lq.selectivity)).collect();
        let mut opt = Adam::new(cfg.lr);
        let n = workload.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.epochs {
            // Shuffle.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.batch) {
                let b = chunk.len();
                let dim = feats[0].len();
                let mut x = Tensor::zeros(b, dim);
                let mut y = Tensor::zeros(b, 1);
                for (r, &i) in chunk.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(&feats[i]);
                    y.set(r, 0, targets[i]);
                }
                let mut grads = GradStore::zeros_like(&self.store);
                {
                    let mut tape = Tape::new(&self.store);
                    let xn = tape.input(x);
                    let pred = self.forward(&mut tape, xn);
                    let yn = tape.input(y);
                    let diff = tape.sub(pred, yn);
                    let sq = tape.mul(diff, diff);
                    let loss = tape.mean_all(sq);
                    tape.backward(loss, &mut grads);
                }
                opt.step(&mut self.store, &grads);
            }
        }
    }

    fn forward(&self, tape: &mut Tape<'_>, x: uae_tensor::NodeId) -> uae_tensor::NodeId {
        let w1 = tape.param(self.w1);
        let b1 = tape.param(self.b1);
        let h = tape.matmul(x, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.relu(h);
        let w2 = tape.param(self.w2);
        let b2 = tape.param(self.b2);
        let h = tape.matmul(h, w2);
        let h = tape.add_bias(h, b2);
        let h = tape.relu(h);
        let w3 = tape.param(self.w3);
        let b3 = tape.param(self.b3);
        let o = tape.matmul(h, w3);
        let o = tape.add_bias(o, b3);
        tape.sigmoid(o)
    }
}

impl CardEstimator for MscnEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let f = self.features(query);
        let mut tape = Tape::new(&self.store);
        let x = tape.input(Tensor::from_vec(1, f.len(), f));
        let y = self.forward(&mut tape, x);
        self.inverse_target(tape.value(y).scalar_value() as f64)
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
            + self.sample.as_ref().map_or(0, |s| s.num_rows() * s.num_cols() * 4)
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Regression
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uae_data::census_like;
    use uae_query::{evaluate, generate_workload, WorkloadSpec};

    fn quick_cfg(sample_rows: usize) -> MscnConfig {
        MscnConfig { hidden: 64, epochs: 25, batch: 32, sample_rows, ..MscnConfig::default() }
    }

    #[test]
    fn mscn_learns_training_distribution() {
        let t = census_like(2000, 1);
        let col = uae_query::default_bounded_column(&t);
        let train = generate_workload(&t, &WorkloadSpec::in_workload(col, 150, 1), &HashSet::new());
        let excl = uae_query::fingerprints(&train);
        let test = generate_workload(&t, &WorkloadSpec::in_workload(col, 40, 2), &excl);
        let mscn = MscnEstimator::new(&t, &train, &quick_cfg(0));
        let ev = evaluate(&mscn, &test);
        assert_eq!(ev.name, "MSCN-base");
        assert!(ev.errors.median < 30.0, "median q-error {}", ev.errors.median);
    }

    #[test]
    fn sampling_features_help_on_shifted_workload() {
        let t = census_like(2000, 2);
        let col = uae_query::default_bounded_column(&t);
        let train = generate_workload(&t, &WorkloadSpec::in_workload(col, 150, 3), &HashSet::new());
        let random = generate_workload(&t, &WorkloadSpec::random(40, 4), &HashSet::new());
        let base = MscnEstimator::new(&t, &train, &quick_cfg(0));
        let plus = MscnEstimator::new(&t, &train, &quick_cfg(256));
        let eb = evaluate(&base, &random);
        let ep = evaluate(&plus, &random);
        assert_eq!(ep.name, "MSCN+sampling");
        // The paper's finding (7): data information boosts supervised
        // methods, most visibly on out-of-workload queries.
        assert!(
            ep.errors.median <= eb.errors.median * 1.5,
            "sampling features should not hurt much: {} vs {}",
            ep.errors.median,
            eb.errors.median
        );
    }

    #[test]
    fn target_transform_round_trips() {
        let t = census_like(500, 3);
        let mscn = MscnEstimator::new(&t, &[], &quick_cfg(0));
        for sel in [1.0, 0.1, 0.01, 1.0 / 500.0] {
            let y = mscn.target(sel) as f64;
            let back = mscn.inverse_target(y);
            assert!((back - sel).abs() / sel < 1e-3, "{sel} → {y} → {back}");
        }
    }
}
