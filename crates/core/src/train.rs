//! Training losses and the hybrid training loop (paper §4.2 Eq. 2,
//! §4.3 Eq. 5–6, §4.4 Alg. 3).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt;
use uae_tensor::{NodeId, Tape, Tensor};

use crate::dps::{dps_selectivities, DpsConfig};
use crate::encoding::{ColEntry, VirtualSchema};
use crate::model::ResMade;
use crate::vquery::VirtualQuery;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Data mini-batch size.
    pub batch_size: usize,
    /// Query mini-batch size (Alg. 3 line 4).
    pub query_batch: usize,
    /// Trade-off λ between data and query losses (Eq. 11; paper: 1e-4 on
    /// single tables, 10 on IMDB).
    pub lambda: f32,
    /// Differentiable-progressive-sampling settings (τ and S).
    pub dps: DpsConfig,
    /// Probability of wildcarding a column during data training (§4.6).
    pub wildcard_prob: f64,
    /// RNG seed for batching, wildcard dropout and Gumbel noise.
    pub seed: u64,
    /// Consecutive non-finite steps tolerated before the trainer rolls the
    /// model back to its last known-good snapshot and backs the learning
    /// rate off (0 disables rollback; bad steps are still skipped so
    /// non-finite gradients can never reach the weights).
    pub max_bad_steps: u32,
    /// Fault injection for tests and chaos drills: global step cursors
    /// (see [`crate::telemetry::TrainStats::steps`]) whose loss is forced
    /// non-finite, exercising the skip/rollback path deterministically.
    pub inject_nan_steps: Vec<u64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 2e-3,
            batch_size: 256,
            query_batch: 16,
            lambda: 1e-4,
            dps: DpsConfig { tau: 1.0, samples: 16 },
            wildcard_prob: 0.25,
            seed: 0x0ae5eed,
            max_bad_steps: 3,
            inject_nan_steps: Vec::new(),
        }
    }
}

/// A training query: a translated region plus its true selectivity.
#[derive(Debug, Clone)]
pub struct TrainQuery {
    /// The query translated to virtual columns.
    pub vquery: VirtualQuery,
    /// True selectivity at labeling time.
    pub selectivity: f64,
}

/// Build the unsupervised data loss (Eq. 2): mean per-tuple negative
/// log-likelihood under the autoregressive factorization, with wildcard
/// dropout applied to the inputs (targets are always the true codes).
pub fn data_loss(
    tape: &mut Tape<'_>,
    model: &ResMade,
    schema: &VirtualSchema,
    rows: &[Vec<u32>],
    wildcard_prob: f64,
    rng: &mut StdRng,
) -> NodeId {
    assert!(!rows.is_empty(), "data loss over an empty batch");
    // Wildcard dropout is decided per *original* column so that both parts
    // of a factorized column appear or vanish together, matching how
    // queries constrain them.
    let nv = schema.num_virtual();
    let wildcards: Vec<Vec<bool>> = rows
        .iter()
        .map(|_| {
            let mut w = vec![false; nv];
            if wildcard_prob > 0.0 {
                for entry in schema.entries() {
                    if rng.random::<f64>() < wildcard_prob {
                        match *entry {
                            ColEntry::Single { vcol } => w[vcol] = true,
                            ColEntry::Split { hi, lo, .. } => {
                                w[hi] = true;
                                w[lo] = true;
                            }
                        }
                    }
                }
            }
            w
        })
        .collect();
    let x = model.input_node(tape, schema, rows, Some(&wildcards));
    let logits = model.forward_tape(tape, x);

    let mut acc: Option<NodeId> = None;
    for v in 0..nv {
        let (s, e) = schema.logit_slice(v);
        let slice = tape.slice_cols(logits, s, e);
        let ls = tape.log_softmax(slice);
        let targets: Arc<Vec<u32>> = Arc::new(rows.iter().map(|r| r[v]).collect());
        let picked = tape.gather_cols(ls, targets);
        acc = Some(match acc {
            Some(a) => tape.add(a, picked),
            None => picked,
        });
    }
    let total = acc.expect("at least one column");
    let mean = tape.mean_all(total);
    tape.mul_scalar(mean, -1.0)
}

/// Cap applied to per-query Q-error inside the query losses, bounding the
/// gradient spikes of barely-trained models.
pub(crate) const QERROR_CAP: f32 = 1e4;

/// Build the supervised query loss (Eq. 5 with Q-error as Discrepancy)
/// through differentiable progressive sampling, capping individual
/// Q-errors at `QERROR_CAP`.
pub fn query_loss(
    tape: &mut Tape<'_>,
    model: &ResMade,
    schema: &VirtualSchema,
    batch: &[TrainQuery],
    dps: &DpsConfig,
    rng: &mut impl RngExt,
) -> NodeId {
    assert!(!batch.is_empty(), "query loss over an empty batch");
    let vqs: Vec<VirtualQuery> = batch.iter().map(|tq| tq.vquery.clone()).collect();
    let sel = dps_selectivities(tape, model, schema, &vqs, dps, rng);
    let truth = Tensor::from_vec(
        batch.len(),
        1,
        batch.iter().map(|tq| tq.selectivity.max(1e-12) as f32).collect(),
    );
    let t1 = tape.input_ref(&truth);
    let t2 = tape.input_ref(&truth);
    let r1 = tape.div(sel, t1);
    let r2 = tape.div(t2, sel);
    let q = tape.maximum(r1, r2);
    let q = clamp_max(tape, q, QERROR_CAP);
    tape.mean_all(q)
}

/// `min(x, cap)` with pass-through gradient below the cap.
fn clamp_max(tape: &mut Tape<'_>, x: NodeId, cap: f32) -> NodeId {
    let neg = tape.mul_scalar(x, -1.0);
    let clamped = tape.clamp_min(neg, -cap);
    tape.mul_scalar(clamped, -1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResMadeConfig;
    use uae_data::{Table, Value};
    use uae_query::{Predicate, Query};
    use uae_tensor::rng::seeded_rng;
    use uae_tensor::{Adam, GradStore, Optimizer, ParamStore};

    fn tiny_table() -> Table {
        // Strongly structured: b == a % 2.
        let rows = 64i64;
        Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..rows).map(|r| Value::Int(r % 4)).collect()),
                ("b".into(), (0..rows).map(|r| Value::Int(r % 2)).collect()),
            ],
        )
    }

    #[test]
    fn data_loss_decreases_with_training() {
        let t = tiny_table();
        let schema = VirtualSchema::build(&t, usize::MAX);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 1 });
        let rows: Vec<Vec<u32>> =
            (0..t.num_rows()).map(|r| schema.to_virtual_codes(&t.row_codes(r))).collect();
        let mut rng = seeded_rng(1);
        let mut opt = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut grads = GradStore::zeros_like(&store);
            let mut tape = Tape::new(&store);
            let loss = data_loss(&mut tape, &model, &schema, &rows, 0.0, &mut rng);
            last = tape.value(loss).scalar_value();
            first.get_or_insert(last);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(last < first * 0.7, "data loss {first} → {last} did not improve");
        // The true distribution has entropy log(4) ≈ 1.386 nats per tuple
        // (b is determined by a); a fitted model should get close.
        assert!(last < 2.2, "final NLL {last} too high");
    }

    #[test]
    fn query_loss_trains_model_toward_true_selectivity() {
        let t = tiny_table();
        let schema = VirtualSchema::build(&t, usize::MAX);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 2 });
        // One query, true selectivity 0.25: a == 1.
        let q = Query::new(vec![Predicate::eq(0, 1i64)]);
        let tq = TrainQuery { vquery: VirtualQuery::build(&t, &schema, &q), selectivity: 0.25 };
        let dps = DpsConfig { tau: 1.0, samples: 8 };
        let mut rng = seeded_rng(3);
        let mut opt = Adam::new(5e-3);
        let mut losses = Vec::new();
        for _ in 0..80 {
            let mut grads = GradStore::zeros_like(&store);
            let mut tape = Tape::new(&store);
            let loss =
                query_loss(&mut tape, &model, &schema, std::slice::from_ref(&tq), &dps, &mut rng);
            losses.push(tape.value(loss).scalar_value());
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            late < early && late < 1.6,
            "query loss must drive Q-error toward 1: early {early}, late {late}"
        );
    }

    #[test]
    fn clamp_max_caps_values() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::from_vec(1, 3, vec![0.5, 2.0, 10.0]));
        let y = clamp_max(&mut tape, x, 3.0);
        assert_eq!(tape.value(y).data(), &[0.5, 2.0, 3.0]);
    }
}
