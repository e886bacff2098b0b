//! Gaussian kernel density estimation over the code space (paper §5.1.4
//! "KDE", Gunopulos et al.), with Scott's rule bandwidths, plus the
//! query-driven **Feedback-KDE** variant (Heimel et al.) that numerically
//! optimizes the bandwidths against a labeled workload.

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query, QueryRegion, Region};

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
#[inline]
pub fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal PDF.
#[inline]
fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Gaussian-product KDE estimator over a uniform row sample.
#[derive(Debug)]
pub struct KdeEstimator {
    name: String,
    /// Sample points, column-major codes as f64.
    points: Vec<Vec<f64>>,
    /// Per-column bandwidths.
    bandwidths: Vec<f64>,
    table: Table,
    total_rows: usize,
}

impl KdeEstimator {
    /// Build a KDE from a uniform sample of `ratio` of the rows. Bandwidths
    /// follow Scott's rule `h_i = σ_i · m^(-1/(d+4))`.
    pub fn new(table: &Table, ratio: f64, seed: u64) -> Self {
        let d = table.num_cols();
        let sample = sample_table(table, ratio, seed);
        let m = sample.num_rows();
        let points: Vec<Vec<f64>> =
            (0..d).map(|c| sample.column(c).codes().iter().map(|&v| v as f64).collect()).collect();
        let bandwidths = points
            .iter()
            .map(|xs| {
                let mean = xs.iter().sum::<f64>() / m as f64;
                let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / m.max(1) as f64;
                let sigma = var.sqrt().max(0.5);
                sigma * (m as f64).powf(-1.0 / (d as f64 + 4.0))
            })
            .collect();
        KdeEstimator {
            name: "KDE".to_owned(),
            points,
            bandwidths,
            table: table.clone(),
            total_rows: table.num_rows(),
        }
    }

    /// Number of kernel centers.
    pub fn sample_size(&self) -> usize {
        self.points.first().map_or(0, Vec::len)
    }

    fn kernel_selectivity(&self, query: &Query) -> f64 {
        let qr = QueryRegion::build(&self.table, query);
        if qr.is_empty() {
            return 0.0;
        }
        let m = self.sample_size();
        if m == 0 {
            return 0.0;
        }
        let constrained: Vec<(usize, &Region)> = qr
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(c, r)| r.as_ref().map(|r| (c, r)))
            .collect();
        let mut total = 0.0f64;
        for s in 0..m {
            let mut p = 1.0f64;
            for &(c, region) in &constrained {
                p *= self.kernel_mass(c, self.points[c][s], region);
                if p == 0.0 {
                    break;
                }
            }
            total += p;
        }
        (total / m as f64).clamp(0.0, 1.0)
    }

    /// Mass a kernel centered at `x` puts inside `region` on column `c`.
    fn kernel_mass(&self, c: usize, x: f64, region: &Region) -> f64 {
        let h = self.bandwidths[c];
        region
            .ranges()
            .iter()
            .map(|&(lo, hi)| {
                let a = (lo as f64 - 0.5 - x) / h;
                let b = (hi as f64 - 0.5 - x) / h;
                phi(b) - phi(a)
            })
            .sum()
    }

    /// Read access to the bandwidths (Feedback-KDE mutates them).
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }
}

fn sample_table(table: &Table, ratio: f64, seed: u64) -> Table {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let n = table.num_rows();
    let target = ((n as f64 * ratio).round() as usize).clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..target {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(target);
    table.take_rows(&idx)
}

impl CardEstimator for KdeEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.kernel_selectivity(query)
    }

    fn size_bytes(&self) -> usize {
        self.sample_size() * self.table.num_cols() * 4 + self.bandwidths.len() * 8
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Kde
    }
}

/// Feedback-KDE: starts from [`KdeEstimator`] and refines the per-column
/// log-bandwidths by gradient descent on the squared selectivity error of a
/// labeled workload (the *SquaredQ/Batch* setting of Heimel et al.).
#[derive(Debug)]
pub struct FeedbackKdeEstimator {
    inner: KdeEstimator,
}

impl FeedbackKdeEstimator {
    /// Optimize the bandwidths of `kde` against the workload.
    pub fn new(mut kde: KdeEstimator, workload: &[LabeledQuery], epochs: usize, lr: f64) -> Self {
        kde.name = "Feedback-KDE".to_owned();
        let regions: Vec<QueryRegion> =
            workload.iter().map(|lq| QueryRegion::build(&kde.table, &lq.query)).collect();
        let mut log_h: Vec<f64> = kde.bandwidths.iter().map(|h| h.ln()).collect();
        for _ in 0..epochs {
            let mut grad = vec![0.0f64; log_h.len()];
            for (lq, qr) in workload.iter().zip(&regions) {
                let (est, dsel_dlogh) = kde.selectivity_and_grad(qr);
                let err = est - lq.selectivity;
                for (g, d) in grad.iter_mut().zip(&dsel_dlogh) {
                    *g += 2.0 * err * d;
                }
            }
            let scale = 1.0 / workload.len().max(1) as f64;
            for (lh, g) in log_h.iter_mut().zip(&grad) {
                *lh -= lr * g * scale;
                *lh = lh.clamp(-3.0, 8.0);
            }
            for (h, lh) in kde.bandwidths.iter_mut().zip(&log_h) {
                *h = lh.exp();
            }
        }
        FeedbackKdeEstimator { inner: kde }
    }
}

impl KdeEstimator {
    /// Selectivity and its gradient w.r.t. per-column log-bandwidths.
    fn selectivity_and_grad(&self, qr: &QueryRegion) -> (f64, Vec<f64>) {
        let m = self.sample_size();
        let d = self.table.num_cols();
        let mut grad = vec![0.0f64; d];
        if qr.is_empty() || m == 0 {
            return (0.0, grad);
        }
        let constrained: Vec<(usize, &Region)> = qr
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(c, r)| r.as_ref().map(|r| (c, r)))
            .collect();
        let mut total = 0.0f64;
        for s in 0..m {
            // per-column masses and d(mass)/d(log h)
            let mut masses = Vec::with_capacity(constrained.len());
            let mut dmass = Vec::with_capacity(constrained.len());
            for &(c, region) in &constrained {
                let h = self.bandwidths[c];
                let x = self.points[c][s];
                let mut mass = 0.0f64;
                let mut dm = 0.0f64;
                for &(lo, hi) in region.ranges() {
                    let a = (lo as f64 - 0.5 - x) / h;
                    let b = (hi as f64 - 0.5 - x) / h;
                    mass += phi(b) - phi(a);
                    // dΦ(u)/d(log h) = φ(u) · (-u)
                    dm += normal_pdf(b) * (-b) - normal_pdf(a) * (-a);
                }
                masses.push(mass);
                dmass.push(dm);
            }
            let p: f64 = masses.iter().product();
            total += p;
            for (k, &(c, _)) in constrained.iter().enumerate() {
                if masses[k] > 1e-300 {
                    grad[c] += p / masses[k] * dmass[k];
                }
            }
        }
        let inv = 1.0 / m as f64;
        for g in &mut grad {
            *g *= inv;
        }
        (total * inv, grad)
    }
}

impl CardEstimator for FeedbackKdeEstimator {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn num_rows(&self) -> f64 {
        self.inner.num_rows()
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.inner.estimate_selectivity(query)
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Kde
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::{label_queries, Predicate};

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![
                ("x".into(), (0..2000i64).map(|v| Value::Int(v % 100)).collect()),
                ("y".into(), (0..2000i64).map(|v| Value::Int((v / 100) % 20)).collect()),
            ],
        )
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn phi_is_a_cdf() {
        assert!((phi(0.0) - 0.5).abs() < 1e-9);
        assert!(phi(5.0) > 0.999_999);
        assert!(phi(-5.0) < 1e-6);
    }

    #[test]
    fn kde_estimates_uniform_range() {
        let t = table();
        let kde = KdeEstimator::new(&t, 0.5, 1);
        let q = Query::new(vec![Predicate::le(0, 49i64)]);
        let e = kde.estimate_card(&q);
        assert!((e - 1000.0).abs() < 200.0, "estimate {e}");
    }

    #[test]
    fn feedback_kde_does_not_hurt_on_training_workload() {
        let t = table();
        let kde = KdeEstimator::new(&t, 0.3, 2);
        let queries: Vec<Query> =
            (0..20).map(|i| Query::new(vec![Predicate::le(0, (i * 5) as i64)])).collect();
        let workload = label_queries(&t, queries);
        let base_err: f64 = workload
            .iter()
            .map(|lq| (kde.estimate_selectivity(&lq.query) - lq.selectivity).powi(2))
            .sum();
        let fb = FeedbackKdeEstimator::new(KdeEstimator::new(&t, 0.3, 2), &workload, 20, 0.3);
        let fb_err: f64 = workload
            .iter()
            .map(|lq| {
                let sel = fb.estimate_card(&lq.query) / t.num_rows() as f64;
                (sel - lq.selectivity).powi(2)
            })
            .sum();
        assert!(fb_err <= base_err * 1.05, "feedback {fb_err} vs base {base_err}");
    }

    #[test]
    fn kernel_mass_of_full_domain_is_near_one() {
        let t = table();
        let kde = KdeEstimator::new(&t, 0.2, 3);
        let full = Region::all(t.column(0).domain_size() as u32);
        let mass = kde.kernel_mass(0, 50.0, &full);
        assert!(mass > 0.95, "mass {mass}");
    }
}
