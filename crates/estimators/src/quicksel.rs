//! QuickSel-style uniform mixture model (Park et al., SIGMOD 2020) — the
//! query-driven mixture baseline from the paper's related work (Table 1,
//! "Mixture models"). The data distribution is modeled as a weighted
//! mixture of uniform distributions over boxes derived from the training
//! queries; weights are fit by (projected) least squares so that each
//! training query's probability matches its observed selectivity.

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query, QueryRegion};

/// QuickSel-style estimator.
#[derive(Debug)]
pub struct QuickSelEstimator {
    name: String,
    /// Mixture component boxes: per column, admitted-code interval
    /// `[lo, hi)` (full domain when unconstrained).
    boxes: Vec<Vec<(u32, u32)>>,
    weights: Vec<f64>,
    table: Table,
    total_rows: usize,
}

impl QuickSelEstimator {
    /// Fit the mixture to a labeled workload. At most `max_components`
    /// training-query boxes are used (subsampled deterministically), plus
    /// one full-domain base component so the mixture always covers the
    /// whole space.
    pub fn new(table: &Table, workload: &[LabeledQuery], max_components: usize) -> Self {
        let step = workload.len().div_ceil(max_components.max(1)).max(1);
        let chosen: Vec<&LabeledQuery> =
            workload.iter().step_by(step).take(max_components.max(1)).collect();
        let full: Vec<(u32, u32)> =
            (0..table.num_cols()).map(|c| (0, table.column(c).domain_size() as u32)).collect();
        let mut boxes: Vec<Vec<(u32, u32)>> = vec![full];
        boxes.extend(chosen.iter().map(|lq| query_box(table, &lq.query)));
        let k = boxes.len();
        let m = chosen.len();

        // A[i][j] = P_j(query_i): mass component j puts inside query i's box.
        let mut a = vec![0.0f64; m * k];
        for (i, lq) in chosen.iter().enumerate() {
            let qb = query_box(table, &lq.query);
            for (j, cb) in boxes.iter().enumerate() {
                a[i * k + j] = box_overlap_mass(cb, &qb);
            }
        }
        let b: Vec<f64> = chosen.iter().map(|lq| lq.selectivity).collect();

        // Ridge least squares (AᵀA + αI) w = Aᵀ b, then project onto the
        // simplex-ish constraint set (w ≥ 0, Σ w = 1).
        let mut xtx = vec![0.0f64; k * k];
        let mut xty = vec![0.0f64; k];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            for p in 0..k {
                xty[p] += row[p] * b[i];
                for q in 0..k {
                    xtx[p * k + q] += row[p] * row[q];
                }
            }
        }
        for p in 0..k {
            xtx[p * k + p] += 1e-6;
        }
        let mut w =
            crate::lr::cholesky_solve(&mut xtx, &xty, k).unwrap_or_else(|| vec![1.0 / k as f64; k]);
        for wj in &mut w {
            *wj = wj.max(0.0);
        }
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            for wj in &mut w {
                *wj /= total;
            }
        } else {
            w[0] = 1.0; // fall back to the uniform base component
        }

        QuickSelEstimator {
            name: "QuickSel".to_owned(),
            boxes,
            weights: w,
            table: table.clone(),
            total_rows: table.num_rows(),
        }
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.boxes.len()
    }
}

/// Bounding box of a query's per-column regions.
fn query_box(table: &Table, query: &Query) -> Vec<(u32, u32)> {
    let qr = QueryRegion::build(table, query);
    (0..table.num_cols())
        .map(|c| {
            let d = table.column(c).domain_size() as u32;
            match qr.column(c) {
                None => (0, d),
                Some(region) => {
                    let ranges = region.ranges();
                    if ranges.is_empty() {
                        (0, 0)
                    } else {
                        (ranges[0].0, ranges[ranges.len() - 1].1)
                    }
                }
            }
        })
        .collect()
}

/// Mass a uniform distribution over `component` puts inside `query`:
/// the per-dimension overlap fraction product.
fn box_overlap_mass(component: &[(u32, u32)], query: &[(u32, u32)]) -> f64 {
    let mut mass = 1.0f64;
    for (&(clo, chi), &(qlo, qhi)) in component.iter().zip(query) {
        let width = (chi - clo) as f64;
        if width <= 0.0 {
            return 0.0;
        }
        let overlap = qhi.min(chi).saturating_sub(qlo.max(clo)) as f64;
        mass *= overlap / width;
        if mass == 0.0 {
            return 0.0;
        }
    }
    mass
}

impl CardEstimator for QuickSelEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    /// Estimated selectivity: `Σ_j w_j · P_j(q)`.
    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let qb = query_box(&self.table, query);
        let mut sel = 0.0f64;
        for (cb, &w) in self.boxes.iter().zip(&self.weights) {
            if w > 0.0 {
                sel += w * box_overlap_mass(cb, &qb);
            }
        }
        sel.clamp(0.0, 1.0)
    }

    fn size_bytes(&self) -> usize {
        self.boxes.iter().map(|b| b.len() * 8).sum::<usize>() + self.weights.len() * 8
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Mixture
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::{label_queries, Predicate};

    fn table() -> Table {
        Table::from_columns("t", vec![("x".into(), (0..1000i64).map(Value::Int).collect())])
    }

    #[test]
    fn fits_disjoint_training_ranges() {
        let t = table();
        // Training queries tile the domain in 10 disjoint ranges.
        let queries: Vec<Query> = (0..10)
            .map(|i| {
                Query::new(vec![
                    Predicate::ge(0, (i * 100) as i64),
                    Predicate::le(0, (i * 100 + 99) as i64),
                ])
            })
            .collect();
        let workload = label_queries(&t, queries);
        let qs = QuickSelEstimator::new(&t, &workload, 32);
        // Each training range has true selectivity 0.1; the fit should be
        // close on the training points.
        let mut worst: f64 = 0.0;
        for lq in &workload {
            let e = qs.estimate_selectivity(&lq.query);
            worst = worst.max((e - lq.selectivity).abs());
        }
        assert!(worst < 0.05, "worst training residual {worst}");
    }

    #[test]
    fn weights_remain_nonnegative_and_subnormalized() {
        let t = table();
        let queries: Vec<Query> =
            (0..20).map(|i| Query::new(vec![Predicate::le(0, (i * 50) as i64)])).collect();
        let workload = label_queries(&t, queries);
        let qs = QuickSelEstimator::new(&t, &workload, 16);
        assert!(qs.weights.iter().all(|&w| w >= 0.0));
        assert!((qs.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6, "weights must sum to 1");
        assert!(qs.num_components() <= 17); // 16 + base component
    }

    #[test]
    fn interpolates_between_training_queries() {
        let t = table();
        let queries: Vec<Query> =
            (1..=10).map(|i| Query::new(vec![Predicate::le(0, (i * 100 - 1) as i64)])).collect();
        let workload = label_queries(&t, queries);
        let qs = QuickSelEstimator::new(&t, &workload, 16);
        // An unseen half-way query should land between its neighbours.
        let q = Query::new(vec![Predicate::le(0, 249i64)]);
        let e = qs.estimate_selectivity(&q);
        assert!((0.1..=0.45).contains(&e), "interpolated selectivity {e}");
    }
}
