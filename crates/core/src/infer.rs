//! Progressive sampling inference (paper §4.2, after Yang et al.'s Naru).
//!
//! To estimate `Sel(q)` the sampler walks the virtual columns left to
//! right. At each constrained column it (1) multiplies the running density
//! estimate by the in-region probability mass `P(z_i ∈ R_i | z_<i)` and
//! (2) samples a concrete value from the *renormalized in-region*
//! distribution to condition the next steps. Unconstrained columns feed the
//! wildcard token and are skipped entirely (wildcard skipping, §4.6).
//! Estimates are unbiased; `S` samples are processed as one batch.
//!
//! Every served estimate runs through the batched engine,
//! [`crate::infer_batch::progressive_sample_batch_with`].
//! [`progressive_sample`] here is the plain scalar walk of the same
//! algorithm: one fresh `S`-row forward per constrained column, no
//! memoization, no prefix sharing. It is kept as the reference oracle the
//! equivalence suites, the property tests and the sampling ablations
//! compare against; the batched engine matches it bit for bit under the
//! same seed.

use rand::RngExt;
use uae_tensor::tensor::softmax_in_place;
use uae_tensor::Tensor;

use crate::encoding::VirtualSchema;
use crate::model::RawModel;
use crate::vquery::{StepRegion, VirtualQuery};

pub use crate::infer_batch::progressive_sample_batch;

/// Estimate the selectivity of one translated query with `s` progressive
/// samples. Returns a value in `[0, 1]`. The reference oracle; serving
/// uses [`crate::infer_batch::progressive_sample_batch_with`].
pub fn progressive_sample(
    raw: &RawModel,
    schema: &VirtualSchema,
    vq: &VirtualQuery,
    s: usize,
    rng: &mut impl RngExt,
) -> f64 {
    if vq.is_empty() {
        return 0.0;
    }
    let Some(last) = vq.last_constrained() else {
        return 1.0; // no predicates
    };
    let s = s.max(1);
    let mut inputs = Tensor::zeros(s, schema.input_width());
    let mut p_hat = vec![1.0f64; s];
    let mut alive = vec![true; s];
    // Sampled hard codes per virtual column (needed by split lo-steps).
    let mut sampled: Vec<Option<Vec<u32>>> = vec![None; schema.num_virtual()];

    for v in 0..=last {
        let step = vq.step(v);
        if !step.is_constrained() {
            continue; // wildcard: leave the zero block, skip the forward
        }
        let codec = schema.codec(v);
        let domain = codec.domain() as u32;
        let hidden = raw.hidden(&inputs);
        let mut probs = raw.logits_col(&hidden, v);
        probs.softmax_rows_in_place();
        let need_sample = v < last;
        let mut codes = vec![0u32; s];
        if let StepRegion::Weighted(w) = step {
            // Fanout scaling: multiply by E[w(v) | z_<v] and
            // importance-sample from the reweighted conditional.
            for r in 0..s {
                if !alive[r] {
                    continue;
                }
                let row = probs.row(r);
                let p_w: f64 = row.iter().zip(w.iter()).map(|(&p, &wv)| p as f64 * wv).sum();
                if p_w <= 0.0 {
                    p_hat[r] = 0.0;
                    alive[r] = false;
                    continue;
                }
                p_hat[r] *= p_w;
                if need_sample {
                    let target: f64 = rng.random::<f64>() * p_w;
                    let mut acc = 0.0f64;
                    let mut code = domain - 1;
                    for (c, (&p, &wv)) in row.iter().zip(w.iter()).enumerate() {
                        acc += p as f64 * wv;
                        if acc >= target {
                            code = c as u32;
                            break;
                        }
                    }
                    codes[r] = code;
                    let (bs, be) = schema.input_slice(v);
                    raw.encode_into(v, code, &mut inputs.row_mut(r)[bs..be]);
                }
            }
            if need_sample {
                sampled[v] = Some(codes);
            }
            continue;
        }
        for r in 0..s {
            if !alive[r] {
                continue;
            }
            let region = match step {
                StepRegion::Fixed(region) => region.clone(),
                StepRegion::LoOfSplit { hi_vcol, .. } => {
                    let hi_code = sampled[*hi_vcol].as_ref().expect("hi sampled before lo")[r];
                    vq.lo_region(v, hi_code, domain)
                }
                StepRegion::Wildcard | StepRegion::Weighted(_) => unreachable!(),
            };
            let row = probs.row(r);
            let p_in: f64 = region.iter_codes().map(|c| row[c as usize] as f64).sum();
            if p_in <= 0.0 || region.is_empty() {
                p_hat[r] = 0.0;
                alive[r] = false;
                continue;
            }
            p_hat[r] *= p_in.min(1.0);
            if need_sample {
                let code = sample_in_region(row, &region, p_in, rng);
                codes[r] = code;
                let (bs, be) = schema.input_slice(v);
                raw.encode_into(v, code, &mut inputs.row_mut(r)[bs..be]);
            }
        }
        if need_sample {
            sampled[v] = Some(codes);
        }
    }
    p_hat.iter().sum::<f64>() / s as f64
}

/// Inverse-CDF draw from `probs` restricted to `region` (total in-region
/// mass `p_in`): the first code whose running in-region sum reaches
/// `u · p_in`, else the region's last code. Oracle-only: the batched engine
/// builds each prefix's cumulative distribution once and bisects it for
/// every row of the prefix, returning the same code for the same `u`
/// (checked against this function in `infer_batch`'s tests).
pub(crate) fn sample_in_region(
    probs: &[f32],
    region: &uae_query::Region,
    p_in: f64,
    rng: &mut impl RngExt,
) -> u32 {
    let target: f64 = rng.random::<f64>() * p_in;
    let mut acc = 0.0f64;
    let mut last = 0u32;
    for c in region.iter_codes() {
        acc += probs[c as usize] as f64;
        last = c;
        if acc >= target {
            return c;
        }
    }
    last
}

/// Uniform-sampling range estimation (paper Eq. 4):
/// `Sel(q) ≈ |R^q| / S · Σ_s P̂_θ(x^s)` with `x^s` drawn uniformly from the
/// query region. Kept as the baseline the paper argues against —
/// progressive sampling concentrates on high-probability regions and is
/// far more robust on skewed data (see the `sampling_strategies` ablation
/// bench and `uniform_vs_progressive_variance` test).
pub fn uniform_sample_estimate(
    raw: &RawModel,
    schema: &VirtualSchema,
    vq: &VirtualQuery,
    s: usize,
    rng: &mut impl RngExt,
) -> f64 {
    if vq.is_empty() {
        return 0.0;
    }
    let Some(last) = vq.last_constrained() else {
        return 1.0;
    };
    let s = s.max(1);
    let nv = schema.num_virtual();

    // Enumerate per-column choices: for each constrained column the list of
    // admitted codes; split lo-columns pair up with their hi column, so the
    // uniform draw is over (hi, lo) pairs with exact counts.
    #[derive(Clone)]
    enum Choice {
        Free(Vec<u32>),
        /// (hi vcol, cumulative pair counts aligned with hi codes).
        LoPairs {
            hi_vcol: usize,
            hi_codes: Vec<u32>,
            cum: Vec<u64>,
        },
    }
    let mut total: f64 = 1.0;
    let mut choices: Vec<Option<Choice>> = vec![None; nv];
    for (v, slot) in choices.iter_mut().enumerate().take(last + 1) {
        match vq.step(v) {
            StepRegion::Wildcard => {}
            StepRegion::Weighted(_) => {
                // Importance weights have no uniform-region analogue; treat
                // as unconstrained (the progressive path handles them).
            }
            StepRegion::Fixed(r) => {
                let codes: Vec<u32> = r.iter_codes().collect();
                if codes.is_empty() {
                    return 0.0;
                }
                // For the hi part of a split, the count is folded into the
                // paired lo step below.
                let is_split_hi = (v + 1 < nv)
                    && matches!(vq.step(v + 1), StepRegion::LoOfSplit { hi_vcol, .. } if *hi_vcol == v);
                if !is_split_hi {
                    total *= codes.len() as f64;
                }
                *slot = Some(Choice::Free(codes));
            }
            StepRegion::LoOfSplit { hi_vcol, .. } => {
                let lo_domain = schema.codec(v).domain() as u32;
                let hi_codes: Vec<u32> = match vq.step(*hi_vcol) {
                    StepRegion::Fixed(r) => r.iter_codes().collect(),
                    _ => (0..schema.codec(*hi_vcol).domain() as u32).collect(),
                };
                let mut cum = Vec::with_capacity(hi_codes.len());
                let mut acc = 0u64;
                for &h in &hi_codes {
                    acc += u64::from(vq.lo_region(v, h, lo_domain).count());
                    cum.push(acc);
                }
                if acc == 0 {
                    return 0.0;
                }
                total *= acc as f64;
                *slot = Some(Choice::LoPairs { hi_vcol: *hi_vcol, hi_codes, cum });
            }
        }
    }

    // Draw S uniform tuples and evaluate their (marginalized) probability:
    // wildcards keep the absent token, so the product of constrained
    // conditionals is the marginal P(constrained attrs = x).
    let mut inputs = Tensor::zeros(s, schema.input_width());
    let mut sampled_codes: Vec<Vec<u32>> = vec![vec![0; nv]; s];
    for v in 0..=last {
        let Some(choice) = &choices[v] else { continue };
        match choice {
            Choice::Free(codes) => {
                for row in &mut sampled_codes {
                    row[v] = codes[rng.random_range(0..codes.len())];
                }
            }
            Choice::LoPairs { hi_vcol, hi_codes, cum } => {
                let lo_domain = schema.codec(v).domain() as u32;
                for row in &mut sampled_codes {
                    let target = rng.random_range(0..*cum.last().expect("nonempty"));
                    let idx = cum.partition_point(|&c| c <= target);
                    let h = hi_codes[idx.min(hi_codes.len() - 1)];
                    let prev = if idx == 0 { 0 } else { cum[idx - 1] };
                    let offset = (target - prev) as usize;
                    let lo_codes: Vec<u32> = vq.lo_region(v, h, lo_domain).iter_codes().collect();
                    row[*hi_vcol] = h;
                    row[v] = lo_codes[offset.min(lo_codes.len() - 1)];
                }
            }
        }
    }
    // Encode the constrained columns (wildcards stay zero).
    let mut p_hat = vec![1.0f64; s];
    for v in 0..=last {
        if choices[v].is_none() {
            continue;
        }
        let hidden = raw.hidden(&inputs);
        let mut probs = raw.logits_col(&hidden, v);
        for r in 0..s {
            softmax_in_place(probs.row_mut(r));
            let c = sampled_codes[r][v];
            p_hat[r] *= probs.at(r, c as usize) as f64;
            let (bs, be) = schema.input_slice(v);
            raw.encode_into(v, c, &mut inputs.row_mut(r)[bs..be]);
        }
    }
    (total * p_hat.iter().sum::<f64>() / s as f64).clamp(0.0, 1.0)
}

/// The model's joint probability of one virtual-code row (product of the
/// autoregressive conditionals, Eq. 1).
pub fn joint_probability(raw: &RawModel, schema: &VirtualSchema, vcodes: &[u32]) -> f64 {
    let mut p = 1.0f64;
    let mut inputs = Tensor::zeros(1, schema.input_width());
    for (v, &code) in vcodes.iter().enumerate().take(schema.num_virtual()) {
        let hidden = raw.hidden(&inputs);
        let mut probs = raw.logits_col(&hidden, v);
        softmax_in_place(probs.row_mut(0));
        p *= probs.at(0, code as usize) as f64;
        let (bs, be) = schema.input_slice(v);
        raw.encode_into(v, code, &mut inputs.row_mut(0)[bs..be]);
    }
    p
}

/// Exhaustive enumeration of `Sel(q)` under the model (paper Eq. 3) —
/// exponential in the number of columns; use only on tiny schemas (tests
/// and the exhaustive-vs-sampling validation).
pub fn exhaustive_selectivity(raw: &RawModel, schema: &VirtualSchema, vq: &VirtualQuery) -> f64 {
    // Wildcards sum over the full domain by definition of a distribution,
    // so only constrained columns need enumeration — but for simplicity and
    // because this is a test oracle, enumerate everything.
    let mut total = 0.0f64;
    let mut vcodes = vec![0u32; schema.num_virtual()];
    enumerate(raw, schema, vq, 0, &mut vcodes, 1.0, &mut total);
    total
}

fn enumerate(
    raw: &RawModel,
    schema: &VirtualSchema,
    vq: &VirtualQuery,
    v: usize,
    vcodes: &mut Vec<u32>,
    weight: f64,
    total: &mut f64,
) {
    if v == schema.num_virtual() {
        *total += weight * joint_probability(raw, schema, vcodes);
        return;
    }
    let domain = schema.codec(v).domain() as u32;
    for c in 0..domain {
        let w = match vq.step(v) {
            StepRegion::Wildcard => 1.0,
            StepRegion::Fixed(r) => f64::from(r.contains(c)),
            StepRegion::LoOfSplit { hi_vcol, .. } => {
                f64::from(vq.lo_region(v, vcodes[*hi_vcol], domain).contains(c))
            }
            StepRegion::Weighted(ws) => ws[c as usize],
        };
        if w > 0.0 {
            vcodes[v] = c;
            enumerate(raw, schema, vq, v + 1, vcodes, weight * w, total);
        }
    }
    vcodes[v] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ResMade, ResMadeConfig};
    use uae_data::{Table, Value};
    use uae_query::{Predicate, Query};
    use uae_tensor::rng::seeded_rng;
    use uae_tensor::ParamStore;

    fn setup(domains: &[usize]) -> (Table, VirtualSchema, ParamStore, ResMade) {
        let rows = 32;
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
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 7 });
        (t, schema, store, model)
    }

    #[test]
    fn joint_probabilities_sum_to_one() {
        let (_, schema, store, model) = setup(&[3, 4]);
        let raw = model.snapshot(&store);
        let mut total = 0.0;
        for a in 0..3u32 {
            for b in 0..4u32 {
                total += joint_probability(&raw, &schema, &[a, b]);
            }
        }
        assert!((total - 1.0).abs() < 1e-4, "joint sums to {total}");
    }

    #[test]
    fn exhaustive_no_predicates_is_one() {
        let (t, schema, store, model) = setup(&[3, 4]);
        let raw = model.snapshot(&store);
        let vq = VirtualQuery::build(&t, &schema, &Query::default());
        let sel = exhaustive_selectivity(&raw, &schema, &vq);
        assert!((sel - 1.0).abs() < 1e-4);
    }

    #[test]
    fn progressive_sampling_approaches_exhaustive() {
        let (t, schema, store, model) = setup(&[5, 4, 3]);
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::le(0, 2i64), Predicate::ge(2, 1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&raw, &schema, &vq);
        let mut rng = seeded_rng(11);
        let est = progressive_sample(&raw, &schema, &vq, 4000, &mut rng);
        assert!(
            (est - exact).abs() < 0.05 * exact.max(0.02),
            "progressive {est} vs exhaustive {exact}"
        );
    }

    #[test]
    fn point_query_equals_joint_probability() {
        // A fully specified equality query needs no sampling variance at all.
        let (t, schema, store, model) = setup(&[4, 3]);
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::eq(0, 2i64), Predicate::eq(1, 1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let mut rng = seeded_rng(3);
        let est = progressive_sample(&raw, &schema, &vq, 3, &mut rng);
        let code0 = t.column(0).code_of(&Value::Int(2)).unwrap();
        let code1 = t.column(1).code_of(&Value::Int(1)).unwrap();
        let joint = joint_probability(&raw, &schema, &[code0, code1]);
        assert!((est - joint).abs() < 1e-6, "est {est} vs joint {joint}");
    }

    #[test]
    fn factorized_progressive_matches_exhaustive() {
        let rows = 40;
        let cols = vec![
            ("w".to_owned(), (0..rows).map(|r| Value::Int((r * 7 % 40) as i64)).collect()),
            ("s".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
        ];
        let t = Table::from_columns("t", cols);
        let schema = VirtualSchema::build(&t, 16); // factorize the 40-wide column
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 16, blocks: 1, seed: 9 });
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::ge(0, 5i64), Predicate::le(0, 23i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&raw, &schema, &vq);
        let mut rng = seeded_rng(4);
        let est = progressive_sample(&raw, &schema, &vq, 4000, &mut rng);
        assert!(
            (est - exact).abs() < 0.08 * exact.max(0.02),
            "factorized progressive {est} vs exhaustive {exact}"
        );
    }

    #[test]
    fn uniform_sampling_matches_exhaustive_in_expectation() {
        let (t, schema, store, model) = setup(&[5, 4, 3]);
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::le(0, 2i64), Predicate::ge(2, 1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&raw, &schema, &vq);
        let mut rng = seeded_rng(31);
        let est = uniform_sample_estimate(&raw, &schema, &vq, 6000, &mut rng);
        assert!((est - exact).abs() < 0.1 * exact.max(0.05), "uniform {est} vs exhaustive {exact}");
    }

    #[test]
    fn uniform_sampling_handles_factorized_columns() {
        let rows = 40;
        let cols = vec![
            ("w".to_owned(), (0..rows).map(|r| Value::Int((r * 7 % 40) as i64)).collect()),
            ("s".to_owned(), (0..rows).map(|r| Value::Int((r % 3) as i64)).collect()),
        ];
        let t = Table::from_columns("t", cols);
        let schema = VirtualSchema::build(&t, 16);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &schema, &ResMadeConfig { hidden: 12, blocks: 1, seed: 8 });
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::ge(0, 5i64), Predicate::le(0, 23i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let exact = exhaustive_selectivity(&raw, &schema, &vq);
        let mut rng = seeded_rng(32);
        let est = uniform_sample_estimate(&raw, &schema, &vq, 6000, &mut rng);
        assert!(
            (est - exact).abs() < 0.12 * exact.max(0.05),
            "uniform (factorized) {est} vs exhaustive {exact}"
        );
    }

    #[test]
    fn empty_region_estimates_zero() {
        let (t, schema, store, model) = setup(&[4, 3]);
        let raw = model.snapshot(&store);
        let q = Query::new(vec![Predicate::le(0, -1i64)]);
        let vq = VirtualQuery::build(&t, &schema, &q);
        let mut rng = seeded_rng(5);
        assert_eq!(progressive_sample(&raw, &schema, &vq, 10, &mut rng), 0.0);
    }
}
