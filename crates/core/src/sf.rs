//! Score-function (REINFORCE) gradient estimation for the query loss —
//! the alternative to the Gumbel-Softmax trick that the paper analyzes and
//! rejects in §4.3 (Eq. 7) because of its high, dimension-dependent
//! variance. Implemented here so the claim is testable: the ablation bench
//! compares gradient variance and training quality against DPS.
//!
//! The estimator: with a *discrete* progressive-sampling path
//! `z = (z_1, …, z_n)` drawn from the region-masked conditionals,
//!
//! ```text
//! ∇θ E[L] = E[ L(θ, z) · ∇θ log P_θ(z) + ∇θ L(θ, z) ]
//! ```
//!
//! Both terms are computed on one tape: the path is fixed (constant
//! inputs), `log P_θ(z)` is the sum of gathered, masked-renormalized
//! conditional log-probabilities, and `L(θ, z)` is the Q-error of the
//! density estimate `p̂(θ, z) = Π_i P_θ(z_i ∈ R_i | z_<i)` along the path.
//! A running-mean baseline reduces (but, as the paper predicts, does not
//! eliminate) the variance.

use std::sync::Arc;

use rand::RngExt;
use uae_tensor::tensor::softmax_in_place;
use uae_tensor::{NodeId, Tape, Tensor};

use crate::encoding::VirtualSchema;
use crate::model::ResMade;
use crate::train::{TrainQuery, QERROR_CAP};
use crate::vquery::{StepRegion, VirtualQuery};

/// One sampled progressive path for one query.
struct SampledPath {
    /// Sampled code per virtual column (`None` for skipped wildcards).
    codes: Vec<Option<u32>>,
    /// Region mask per constrained column (renormalization masks).
    masks: Vec<Option<Vec<f32>>>,
}

/// Draw a discrete progressive path for a query using the current model.
fn sample_path(
    raw: &crate::model::RawModel,
    schema: &VirtualSchema,
    vq: &VirtualQuery,
    rng: &mut impl RngExt,
) -> SampledPath {
    let nv = schema.num_virtual();
    let mut codes = vec![None; nv];
    let mut masks = vec![None; nv];
    let Some(last) = vq.last_constrained() else {
        return SampledPath { codes, masks };
    };
    let mut inputs = Tensor::zeros(1, schema.input_width());
    for v in 0..=last {
        let step = vq.step(v);
        if !step.is_constrained() {
            continue;
        }
        let codec = schema.codec(v);
        let domain = codec.domain();
        let hidden = raw.hidden(&inputs);
        let mut probs = raw.logits_col(&hidden, v);
        softmax_in_place(probs.row_mut(0));
        let mask: Vec<f32> = match step {
            StepRegion::Fixed(r) => r.to_mask(),
            StepRegion::LoOfSplit { hi_vcol, .. } => {
                let h = codes[*hi_vcol].expect("hi sampled before lo");
                vq.lo_region(v, h, domain as u32).to_mask()
            }
            StepRegion::Weighted(w) => w.iter().map(|&x| x as f32).collect(),
            StepRegion::Wildcard => unreachable!(),
        };
        // Sample from the mask-reweighted conditional.
        let row = probs.row(0);
        let total: f64 = row.iter().zip(&mask).map(|(&p, &m)| p as f64 * m as f64).sum();
        let code = if total <= 0.0 {
            // Dead path: fall back to the first admitted code (or 0).
            mask.iter().position(|&m| m > 0.0).unwrap_or(0) as u32
        } else {
            let target = rng.random::<f64>() * total;
            let mut acc = 0.0f64;
            let mut picked = domain as u32 - 1;
            for (c, (&p, &m)) in row.iter().zip(&mask).enumerate() {
                acc += p as f64 * m as f64;
                if acc >= target {
                    picked = c as u32;
                    break;
                }
            }
            picked
        };
        codes[v] = Some(code);
        masks[v] = Some(mask);
        let (bs, be) = schema.input_slice(v);
        raw.encode_into(v, code, &mut inputs.row_mut(0)[bs..be]);
    }
    SampledPath { codes, masks }
}

/// Running-mean baseline for variance reduction.
#[derive(Debug, Clone, Default)]
pub struct SfBaseline {
    mean: f64,
    count: u64,
}

impl SfBaseline {
    /// Current baseline value.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Update with an observed loss.
    pub fn update(&mut self, loss: f64) {
        self.count += 1;
        self.mean += (loss - self.mean) / self.count as f64;
    }
}

/// Build the REINFORCE surrogate loss for a batch of queries. Minimizing it
/// with the usual backward pass yields the Eq. 7 gradient estimate.
///
/// Returns `(surrogate loss node, mean observed q-error)`.
pub fn score_function_loss(
    tape: &mut Tape<'_>,
    model: &ResMade,
    store: &uae_tensor::ParamStore,
    schema: &VirtualSchema,
    batch: &[TrainQuery],
    baseline: &mut SfBaseline,
    rng: &mut impl RngExt,
) -> (NodeId, f64) {
    assert!(!batch.is_empty());
    let raw = model.snapshot(store);
    let mut per_query: Vec<NodeId> = Vec::with_capacity(batch.len());
    let mut observed = 0.0f64;

    for tq in batch {
        let path = sample_path(&raw, schema, &tq.vquery, rng);
        let nv = schema.num_virtual();

        // Fixed-path inputs for each step (teacher-forced with the
        // sampled codes).
        let mut inputs = Tensor::zeros(1, schema.input_width());
        let mut p_hat: Option<NodeId> = None;
        let mut log_p: Option<NodeId> = None;
        for v in 0..nv {
            let Some(mask) = &path.masks[v] else { continue };
            let x = tape.input(inputs.clone());
            let hidden = model.hidden_tape(tape, x);
            let logits = model.logits_col_tape(tape, hidden, v);
            let log_probs = tape.log_softmax(logits);
            let probs = tape.exp(log_probs);

            // p_in = Σ_v m(v) P(v | z_<v).
            let mask_node = tape.input(Tensor::from_vec(1, mask.len(), mask.clone()));
            let masked = tape.mul(probs, mask_node);
            let p_in = tape.row_sum(masked);
            let p_in = tape.clamp_min(p_in, 1e-12);
            p_hat = Some(match p_hat {
                Some(p) => tape.mul(p, p_in),
                None => p_in,
            });

            // log P(z_v | z_<v, masked) = log_probs[z_v] - log p_in.
            if let Some(code) = path.codes[v] {
                let picked = tape.gather_cols(log_probs, Arc::new(vec![code]));
                let ln_p_in = tape.ln(p_in);
                let cond = tape.sub(picked, ln_p_in);
                log_p = Some(match log_p {
                    Some(l) => tape.add(l, cond),
                    None => cond,
                });
                // Teacher-force the sampled code into the next step's input.
                let (bs, be) = schema.input_slice(v);
                raw.encode_into(v, code, &mut inputs.row_mut(0)[bs..be]);
            }
        }

        let Some(p_hat) = p_hat else {
            // No constrained column: selectivity 1, loss contribution of
            // q-error(1, truth).
            continue;
        };
        // L(θ, z): capped Q-error of the path's density estimate.
        let truth = tape.input(Tensor::scalar(tq.selectivity.max(1e-12) as f32));
        let truth2 = tape.input(Tensor::scalar(tq.selectivity.max(1e-12) as f32));
        let r1 = tape.div(p_hat, truth);
        let r2 = tape.div(truth2, p_hat);
        let q = tape.maximum(r1, r2);
        let neg = tape.mul_scalar(q, -1.0);
        let capped_neg = tape.clamp_min(neg, -QERROR_CAP);
        let loss_term = tape.mul_scalar(capped_neg, -1.0);

        let loss_value = tape.value(loss_term).scalar_value() as f64;
        observed += loss_value;
        let advantage = (loss_value - baseline.value()) as f32;
        baseline.update(loss_value);

        // Surrogate: advantage · log P(z) + L(θ, z).
        let surrogate = match log_p {
            Some(lp) => {
                let weighted = tape.mul_scalar(lp, advantage);
                tape.add(weighted, loss_term)
            }
            None => loss_term,
        };
        per_query.push(surrogate);
    }

    let total = per_query
        .into_iter()
        .reduce(|a, b| tape.add(a, b))
        .expect("at least one constrained query in the batch");
    let mean = tape.mul_scalar(total, 1.0 / batch.len() as f32);
    (mean, observed / batch.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResMadeConfig;
    use uae_data::{Table, Value};
    use uae_query::{Predicate, Query};
    use uae_tensor::rng::seeded_rng;
    use uae_tensor::{Adam, GradStore, Optimizer, ParamStore};

    fn setup() -> (Table, VirtualSchema, ParamStore, ResMade) {
        let rows = 64i64;
        let t = Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..rows).map(|r| Value::Int(r % 4)).collect()),
                ("b".into(), (0..rows).map(|r| Value::Int(r % 2)).collect()),
            ],
        );
        let schema = VirtualSchema::build(&t, usize::MAX);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 4 });
        (t, schema, store, model)
    }

    #[test]
    fn score_function_training_converges_on_one_query() {
        let (t, schema, mut store, model) = setup();
        let q = Query::new(vec![Predicate::eq(0, 1i64)]);
        let tq = TrainQuery { vquery: VirtualQuery::build(&t, &schema, &q), selectivity: 0.25 };
        let mut rng = seeded_rng(5);
        let mut opt = Adam::new(5e-3);
        let mut baseline = SfBaseline::default();
        let mut losses = Vec::new();
        for _ in 0..120 {
            let mut grads = GradStore::zeros_like(&store);
            let observed;
            {
                let mut tape = Tape::new(&store);
                let (loss, obs) = score_function_loss(
                    &mut tape,
                    &model,
                    &store,
                    &schema,
                    std::slice::from_ref(&tq),
                    &mut baseline,
                    &mut rng,
                );
                observed = obs;
                tape.backward(loss, &mut grads);
            }
            losses.push(observed);
            opt.step(&mut store, &grads);
        }
        let early: f64 = losses[..15].iter().sum::<f64>() / 15.0;
        let late: f64 = losses[losses.len() - 15..].iter().sum::<f64>() / 15.0;
        assert!(
            late < early && late < 2.5,
            "REINFORCE should still converge on a trivial problem: early {early}, late {late}"
        );
    }

    #[test]
    fn baseline_tracks_mean() {
        let mut b = SfBaseline::default();
        assert_eq!(b.value(), 0.0);
        for v in [2.0, 4.0, 6.0] {
            b.update(v);
        }
        assert!((b.value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_are_nonzero_for_all_parameters() {
        let (t, schema, store, model) = setup();
        let q = Query::new(vec![Predicate::le(0, 2i64), Predicate::eq(1, 0i64)]);
        let tq = TrainQuery { vquery: VirtualQuery::build(&t, &schema, &q), selectivity: 0.4 };
        let mut rng = seeded_rng(6);
        let mut baseline = SfBaseline::default();
        let mut grads = GradStore::zeros_like(&store);
        let mut tape = Tape::new(&store);
        let (loss, _) =
            score_function_loss(&mut tape, &model, &store, &schema, &[tq], &mut baseline, &mut rng);
        tape.backward(loss, &mut grads);
        let nonzero =
            store.ids().filter(|&id| grads.get(id).data().iter().any(|&g| g != 0.0)).count();
        assert!(nonzero >= store.len() - 2, "only {nonzero}/{} params got gradient", store.len());
    }
}
