//! The LR baseline (paper §5.1.4, method 2): ridge regression from
//! range-encoded query features to log-selectivity, solved in closed form
//! via the normal equations and a Cholesky factorization.

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query};

use crate::features::QueryFeaturizer;

/// Linear-regression estimator.
#[derive(Debug)]
pub struct LinearRegressionEstimator {
    name: String,
    featurizer: QueryFeaturizer,
    /// Weights, last entry is the intercept.
    weights: Vec<f64>,
    total_rows: usize,
}

impl LinearRegressionEstimator {
    /// Fit ridge regression (`alpha` = L2 penalty) on a labeled workload.
    pub fn new(table: &Table, workload: &[LabeledQuery], alpha: f64) -> Self {
        let featurizer = QueryFeaturizer::new(table);
        let dim = featurizer.range_width() + 1; // + intercept
        let mut xtx = vec![0.0f64; dim * dim];
        let mut xty = vec![0.0f64; dim];
        let min_sel = 1.0 / table.num_rows().max(2) as f64;
        for lq in workload {
            let mut x = featurizer.range_features(&lq.query);
            x.push(1.0);
            let y = lq.selectivity.max(min_sel).ln();
            for i in 0..dim {
                xty[i] += x[i] * y;
                for j in 0..dim {
                    xtx[i * dim + j] += x[i] * x[j];
                }
            }
        }
        for i in 0..dim {
            xtx[i * dim + i] += alpha;
        }
        let weights = cholesky_solve(&mut xtx, &xty, dim).unwrap_or_else(|| vec![0.0; dim]);
        LinearRegressionEstimator {
            name: "LR".to_owned(),
            featurizer,
            weights,
            total_rows: table.num_rows(),
        }
    }

    fn predict_log_sel(&self, query: &Query) -> f64 {
        let mut x = self.featurizer.range_features(query);
        x.push(1.0);
        x.iter().zip(&self.weights).map(|(a, b)| a * b).sum()
    }
}

/// Solve `A w = b` for symmetric positive-definite `A` (destroyed).
/// Returns `None` if the factorization breaks down.
pub fn cholesky_solve(a: &mut [f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    // A = L L^T, stored in the lower triangle of `a`.
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if d <= 1e-12 {
            return None;
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
    }
    // Forward solve L z = b.
    let mut z = vec![0.0f64; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= a[i * n + k] * z[k];
        }
        z[i] = s / a[i * n + i];
    }
    // Back solve L^T w = z.
    let mut w = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in i + 1..n {
            s -= a[k * n + i] * w[k];
        }
        w[i] = s / a[i * n + i];
    }
    Some(w)
}

impl CardEstimator for LinearRegressionEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.predict_log_sel(query).exp().clamp(0.0, 1.0)
    }

    fn size_bytes(&self) -> usize {
        self.weights.len() * 8
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Regression
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uae_data::{census_like, Value};
    use uae_query::{evaluate, generate_workload, label_queries, Predicate, WorkloadSpec};

    #[test]
    fn cholesky_solves_small_system() {
        // A = [[4,2],[2,3]], b = [10, 8] → w = [1.75, 1.5].
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        let w = cholesky_solve(&mut a, &[10.0, 8.0], 2).unwrap();
        assert!((w[0] - 1.75).abs() < 1e-9);
        assert!((w[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cholesky_detects_singularity() {
        let mut a = vec![1.0, 1.0, 1.0, 1.0];
        assert!(cholesky_solve(&mut a, &[1.0, 1.0], 2).is_none());
    }

    #[test]
    fn lr_fits_uniform_ranges_reasonably() {
        // On uniform data, log-sel of a range is roughly linear in (hi - lo)
        // for moderate widths — LR should at least capture the trend.
        let t =
            Table::from_columns("t", vec![("x".into(), (0..1000i64).map(Value::Int).collect())]);
        let queries: Vec<Query> =
            (1..40).map(|i| Query::new(vec![Predicate::le(0, (i * 25) as i64)])).collect();
        let workload = label_queries(&t, queries);
        let lr = LinearRegressionEstimator::new(&t, &workload, 1e-3);
        // Wider range must estimate higher than a narrow one.
        let narrow = lr.estimate_card(&Query::new(vec![Predicate::le(0, 50i64)]));
        let wide = lr.estimate_card(&Query::new(vec![Predicate::le(0, 900i64)]));
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn lr_is_tiny() {
        let t = census_like(800, 5);
        let col = uae_query::default_bounded_column(&t);
        let w = generate_workload(&t, &WorkloadSpec::in_workload(col, 60, 1), &HashSet::new());
        let lr = LinearRegressionEstimator::new(&t, &w, 1e-3);
        // The paper reports 14–17KB; ours is even smaller (pure weights).
        assert!(lr.size_bytes() < 16 * 1024);
        let ev = evaluate(&lr, &w);
        assert!(ev.errors.median.is_finite());
    }

    use uae_data::Table;
}
