//! Differentiable progressive sampling — the paper's core contribution
//! (§4.3, Algorithms 1 and 2).
//!
//! Ordinary progressive sampling draws *discrete* values at every step, so
//! gradients cannot flow from the query loss back to the model weights
//! (Figure 2(2) in the paper). DPS replaces each discrete draw with a
//! **Gumbel-Softmax** sample: a deterministic, differentiable function
//! `y = softmax((log P_θ(Z_v | z_<v, z_v ∈ R_v) + g) / τ)` of the model's
//! (region-masked, renormalized) conditional distribution and *external*
//! Gumbel(0,1) noise `g`. The soft one-hot `y` is embedded back into model
//! input space through the constant encoding matrix `E_v`, so the entire
//! `n`-step sampling chain is a differentiable graph (Figure 2(3)) and the
//! query loss trains θ end-to-end.
//!
//! The density estimate itself follows Alg. 2 exactly: at each constrained
//! column the running estimate is multiplied by the in-region mass
//! `P(z_v ∈ R_v | z_<v)` *before* masking, and the `S` per-sample estimates
//! of each query are averaged. Wildcard columns are skipped (§4.6). For
//! factorized columns the low part's region depends on the sampled high
//! code; the mask is chosen by the hard argmax of the soft sample
//! (straight-through: gradients flow through the probabilities, not the
//! mask choice).

use rand::RngExt;
use uae_tensor::rng::gumbel_fill;
use uae_tensor::{NodeId, Tape, Tensor};

use crate::encoding::VirtualSchema;
use crate::model::ResMade;
use crate::vquery::{StepRegion, VirtualQuery};

/// DPS hyper-parameters (paper: τ = 1.0, S = 200).
#[derive(Debug, Clone, Copy)]
pub struct DpsConfig {
    /// Gumbel-Softmax temperature τ — the trade-off between gradient
    /// variance (low τ) and one-hot fidelity (high τ).
    pub tau: f32,
    /// Number of progressive samples S per query.
    pub samples: usize,
}

impl Default for DpsConfig {
    fn default() -> Self {
        DpsConfig { tau: 1.0, samples: 200 }
    }
}

const NEG_INF_MASK: f32 = -1.0e9;
const SEL_FLOOR: f32 = 1.0e-12;

/// Build the DPS graph for a batch of queries and return the node holding
/// the `Q x 1` estimated selectivities.
///
/// `rng` supplies the Gumbel noise; seed it deterministically to make the
/// graph a pure function of the parameters (required for gradient checks).
pub fn dps_selectivities(
    tape: &mut Tape<'_>,
    model: &ResMade,
    schema: &VirtualSchema,
    queries: &[VirtualQuery],
    cfg: &DpsConfig,
    rng: &mut impl RngExt,
) -> NodeId {
    let q = queries.len();
    assert!(q > 0, "dps over an empty query batch");
    let s = cfg.samples.max(1);
    let b = q * s;
    let nv = schema.num_virtual();

    let global_last = queries.iter().filter_map(VirtualQuery::last_constrained).max();
    let Some(global_last) = global_last else {
        // No query constrains anything: selectivity 1 for all.
        return tape.input_full(q, 1, 1.0);
    };

    // Per-column input blocks; wildcard (zero) until sampled.
    let mut blocks: Vec<NodeId> =
        (0..nv).map(|v| tape.input_zeros(b, schema.vcol_input_width(v))).collect();
    let mut p_run = tape.input_full(b, 1, 1.0);
    // Hard argmax codes of sampled columns (for conditional lo-masks).
    let mut hard_codes: Vec<Option<Vec<u32>>> = vec![None; nv];

    for v in 0..=global_last {
        let any_constrained = queries.iter().any(|vq| vq.step(v).is_constrained());
        if !any_constrained {
            continue; // wildcard for every query: skip the forward entirely
        }
        let codec = schema.codec(v);
        let domain = codec.domain();

        // Row-level masks and keep flags.
        let mut mask = Tensor::full(b, domain, 1.0);
        let mut keep = Tensor::zeros(b, 1);
        for (qi, vq) in queries.iter().enumerate() {
            match vq.step(v) {
                StepRegion::Wildcard => {}
                StepRegion::Fixed(region) => {
                    let m = region.to_mask();
                    for si in 0..s {
                        let r = qi * s + si;
                        mask.row_mut(r).copy_from_slice(&m);
                        keep.set(r, 0, 1.0);
                    }
                }
                StepRegion::LoOfSplit { hi_vcol, .. } => {
                    let his = hard_codes[*hi_vcol]
                        .as_ref()
                        .expect("hi column sampled before its lo part");
                    for si in 0..s {
                        let r = qi * s + si;
                        let region = vq.lo_region(v, his[r], domain as u32);
                        mask.row_mut(r).copy_from_slice(&region.to_mask());
                        keep.set(r, 0, 1.0);
                    }
                }
                StepRegion::Weighted(w) => {
                    // Fanout scaling during training: the "mask" carries the
                    // importance weights; masses and Gumbel logits follow.
                    let wf: Vec<f32> = w.iter().map(|&x| x as f32).collect();
                    for si in 0..s {
                        let r = qi * s + si;
                        mask.row_mut(r).copy_from_slice(&wf);
                        keep.set(r, 0, 1.0);
                    }
                }
            }
        }
        let wild = keep.map(|k| 1.0 - k);

        // Forward pass for this column.
        let x = tape.concat_cols(&blocks);
        let hidden = model.hidden_tape(tape, x);
        let logits = model.logits_col_tape(tape, hidden, v);
        let log_probs = tape.log_softmax(logits);
        let probs = tape.exp(log_probs);

        // Alg. 2 line 6: p̂ *= P(z_v ∈ R_v | z_<v)  (wildcard rows: *1).
        let mask_node = tape.input_ref(&mask);
        let masked_probs = tape.mul(probs, mask_node);
        let p_in = tape.row_sum(masked_probs);
        let keep_node = tape.input_ref(&keep);
        let wild_node = tape.input(wild);
        let p_kept = tape.mul(p_in, keep_node);
        let p_eff = tape.add(p_kept, wild_node);
        let p_eff = tape.clamp_min(p_eff, SEL_FLOOR);
        p_run = tape.mul(p_run, p_eff);

        if v < global_last {
            // Alg. 2 lines 7–9: mask out-of-region mass, renormalize, and
            // draw a differentiable sample via Gumbel-Softmax (Alg. 1).
            // ln(w): 0 inside a 0/1 region, -inf outside, and the log
            // importance weight for fanout-scaled columns.
            let log_mask_node = tape.input_with(b, domain, |t| {
                for (o, &m) in t.data_mut().iter_mut().zip(mask.data()) {
                    *o = if m > 0.0 { m.ln() } else { NEG_INF_MASK };
                }
            });
            let masked_logits = tape.add(log_probs, log_mask_node);
            let g = tape.input_with(b, domain, |t| gumbel_fill(rng, t));
            let noisy = tape.add(masked_logits, g);
            let scaled = tape.mul_scalar(noisy, 1.0 / cfg.tau);
            let y = tape.softmax(scaled);

            // Straight-through hard codes for conditional lo-masks.
            hard_codes[v] = Some(tape.value(y).row_argmax().iter().map(|&i| i as u32).collect());

            // Embed the soft sample into input space; zero for wildcards.
            let block = model.soft_block(tape, v, y);
            let keep_node2 = tape.input_ref(&keep);
            blocks[v] = tape.mul_col_broadcast(block, keep_node2);
        }
    }

    // Alg. 2 line 13: average the S per-sample estimates of each query.
    let sel = tape.mean_row_groups(p_run, s);
    tape.clamp_min(sel, SEL_FLOOR)
}

/// The paper's query loss (Eq. 5 with Q-error, Eq. 6, as Discrepancy):
/// `mean_q max(Sel(q)/Ŝel(q), Ŝel(q)/Sel(q))`.
pub fn qerror_loss(tape: &mut Tape<'_>, sel_hat: NodeId, truth: &[f64]) -> NodeId {
    let q = truth.len();
    assert_eq!(tape.value(sel_hat).shape(), (q, 1), "selectivity shape mismatch");
    let t = Tensor::from_vec(q, 1, truth.iter().map(|&v| (v.max(1e-12)) as f32).collect());
    let t1 = tape.input_ref(&t);
    let t2 = tape.input_ref(&t);
    let r1 = tape.div(sel_hat, t1);
    let r2 = tape.div(t2, sel_hat);
    let qerr = tape.maximum(r1, r2);
    tape.mean_all(qerr)
}

/// Convenience wrapper: run DPS once (no gradients used) and return the
/// estimated selectivities. Used by tests to compare against exhaustive
/// enumeration and by ablation benches.
pub fn dps_forward_only(
    model: &ResMade,
    store: &uae_tensor::ParamStore,
    schema: &VirtualSchema,
    queries: &[VirtualQuery],
    cfg: &DpsConfig,
    rng: &mut impl RngExt,
) -> Vec<f64> {
    let mut tape = Tape::new(store);
    let sel = dps_selectivities(&mut tape, model, schema, queries, cfg, rng);
    tape.value(sel).data().iter().map(|&v| v as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::exhaustive_selectivity;
    use crate::model::ResMadeConfig;
    use uae_data::{Table, Value};
    use uae_query::{Predicate, Query};
    use uae_tensor::check::gradient_check;
    use uae_tensor::rng::seeded_rng;
    use uae_tensor::{GradStore, ParamStore};

    fn setup(domains: &[usize]) -> (Table, VirtualSchema, ParamStore, ResMade) {
        let rows = 24;
        let cols = domains
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let vals: Vec<Value> =
                    (0..rows).map(|r| Value::Int(((r + j) % d) as i64)).collect();
                (format!("c{j}"), vals)
            })
            .collect();
        let t = Table::from_columns("t", cols);
        let schema = VirtualSchema::build(&t, usize::MAX);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 21 });
        (t, schema, store, model)
    }

    #[test]
    fn dps_estimate_tracks_exhaustive_at_low_temperature() {
        let (t, schema, store, model) = setup(&[5, 4, 3]);
        // Constrain a *prefix* of the column order. Progressive sampling is
        // exactly unbiased only then: an interior wildcard is skipped with a
        // zero input (paper §4.6), which equals true marginalization only
        // for models trained with wildcard dropout — not for this random
        // untrained one, where the gap induces a deterministic bias far
        // above Monte-Carlo noise.
        let q = Query::new(vec![Predicate::le(0, 2i64), Predicate::ge(1, 1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&model.snapshot(&store), &schema, &vq);
        let cfg = DpsConfig { tau: 0.2, samples: 2000 };
        let mut rng = seeded_rng(6);
        let est = dps_forward_only(&model, &store, &schema, &[vq], &cfg, &mut rng)[0];
        assert!((est - exact).abs() < 0.08 * exact.max(0.05), "dps {est} vs exhaustive {exact}");
    }

    #[test]
    fn gradients_flow_from_query_loss_to_all_parameters() {
        let (t, schema, store, model) = setup(&[4, 3, 3]);
        let q1 = Query::new(vec![Predicate::le(0, 1i64), Predicate::eq(2, 1i64)]);
        let q2 = Query::new(vec![Predicate::ge(1, 1i64)]);
        let vqs =
            vec![VirtualQuery::build(&t, &schema, &q1), VirtualQuery::build(&t, &schema, &q2)];
        let cfg = DpsConfig { tau: 1.0, samples: 8 };
        let mut grads = GradStore::zeros_like(&store);
        let mut tape = Tape::new(&store);
        let mut rng = seeded_rng(8);
        let sel = dps_selectivities(&mut tape, &model, &schema, &vqs, &cfg, &mut rng);
        let loss = qerror_loss(&mut tape, sel, &[0.3, 0.5]);
        tape.backward(loss, &mut grads);
        // This is the paper's whole point (Fig. 2(3)): every weight,
        // including w_in (used only *after* sampled variables), gets signal.
        let mut any_zero = false;
        for id in store.ids() {
            let norm: f32 = grads.get(id).data().iter().map(|g| g.abs()).sum();
            if norm == 0.0 {
                any_zero = true;
                eprintln!("parameter {} has zero gradient", store.name(id));
            }
        }
        assert!(!any_zero, "all parameters must receive query-loss gradients");
    }

    #[test]
    fn dps_gradients_match_finite_differences() {
        // Tiny model so the finite-difference sweep stays fast.
        let rows = 12;
        let cols = vec![
            ("a".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
            ("b".to_owned(), (0..rows).map(|r| Value::Int((r % 2) as i64)).collect()),
        ];
        let t = Table::from_columns("t", cols);
        let schema = VirtualSchema::build(&t, usize::MAX);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 4, blocks: 1, seed: 2 });
        let q = Query::new(vec![Predicate::le(0, 1i64), Predicate::eq(1, 1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let cfg = DpsConfig { tau: 1.0, samples: 3 };
        let res = gradient_check(&mut store, 2e-3, |tape| {
            // Identical Gumbel noise on every rebuild → pure function of θ.
            // The noise seed is chosen so no straight-through argmax or
            // q-error `max` branch sits close enough to a decision boundary
            // to flip under the finite-difference perturbation (a flip makes
            // the numeric gradient meaningless there).
            let mut rng = seeded_rng(10);
            let model = model.clone();
            let sel =
                dps_selectivities(tape, &model, &schema, std::slice::from_ref(&vq), &cfg, &mut rng);
            qerror_loss(tape, sel, &[0.25])
        });
        assert!(
            res.max_rel_err < 5e-2,
            "DPS analytic vs numeric gradients: rel err {}",
            res.max_rel_err
        );
    }

    #[test]
    fn unconstrained_batch_returns_ones() {
        let (t, schema, store, model) = setup(&[3, 3]);
        let vq = VirtualQuery::build(&t, &schema, &Query::default());
        let cfg = DpsConfig { tau: 1.0, samples: 4 };
        let mut rng = seeded_rng(1);
        let est = dps_forward_only(&model, &store, &schema, &[vq], &cfg, &mut rng);
        assert_eq!(est, vec![1.0]);
    }

    #[test]
    fn factorized_dps_runs_and_stays_in_unit_interval() {
        let rows = 60;
        let cols = vec![
            ("w".to_owned(), (0..rows).map(|r| Value::Int((r as i64 * 3) % 60)).collect()),
            ("s".to_owned(), (0..rows).map(|r| Value::Int((r % 4) as i64)).collect()),
        ];
        let t = Table::from_columns("t", cols);
        let schema = VirtualSchema::build(&t, 16);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 8, blocks: 1, seed: 3 });
        let q = Query::new(vec![Predicate::ge(0, 9i64), Predicate::le(0, 33i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let cfg = DpsConfig { tau: 0.5, samples: 64 };
        let mut rng = seeded_rng(2);
        let est =
            dps_forward_only(&model, &store, &schema, std::slice::from_ref(&vq), &cfg, &mut rng)[0];
        assert!((0.0..=1.0).contains(&est), "estimate {est} out of range");
        // Compare against exhaustive within loose Monte-Carlo tolerance.
        let exact = exhaustive_selectivity(&model.snapshot(&store), &schema, &vq);
        assert!((est - exact).abs() < 0.15, "dps {est} vs exhaustive {exact}");
    }
}
