//! The Sampling baseline: keep a uniform fraction `p` of the tuples and
//! answer queries by scanning the sample (paper §5.1.4, method 3).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, Query, QueryRegion};

/// Uniform-sample estimator.
#[derive(Debug)]
pub struct SamplingEstimator {
    name: String,
    sample: Table,
    total_rows: usize,
}

impl SamplingEstimator {
    /// Materialize a uniform sample of `ratio` (0, 1] of `table`, seeded.
    pub fn new(table: &Table, ratio: f64, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "sample ratio must be in (0, 1]");
        let n = table.num_rows();
        let target = ((n as f64 * ratio).round() as usize).clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        // Floyd-ish sampling: shuffle indices, take prefix.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..target {
            let j = rng.random_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(target);
        SamplingEstimator {
            name: "Sampling".to_owned(),
            sample: table.take_rows(&idx),
            total_rows: n,
        }
    }

    /// Number of sampled tuples.
    pub fn sample_size(&self) -> usize {
        self.sample.num_rows()
    }
}

impl CardEstimator for SamplingEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let region = QueryRegion::build(&self.sample, query);
        if region.is_empty() {
            return 0.0;
        }
        let mut hits = 0usize;
        let m = self.sample.num_rows();
        'rows: for r in 0..m {
            for (c, reg) in region.columns().iter().enumerate() {
                if let Some(reg) = reg {
                    if !reg.contains(self.sample.column(c).code(r)) {
                        continue 'rows;
                    }
                }
            }
            hits += 1;
        }
        hits as f64 / m as f64
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Sampling
    }

    fn size_bytes(&self) -> usize {
        // One u32 code per cell plus dictionaries are shared with the base
        // table; count the codes (what a real system would materialize).
        self.sample.num_rows() * self.sample.num_cols() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::Predicate;

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![("x".into(), (0..1000i64).map(|v| Value::Int(v % 10)).collect())],
        )
    }

    #[test]
    fn full_sample_is_exact() {
        let t = table();
        let est = SamplingEstimator::new(&t, 1.0, 1);
        let q = Query::new(vec![Predicate::eq(0, 3i64)]);
        assert_eq!(est.estimate_card(&q), 100.0);
    }

    #[test]
    fn partial_sample_is_unbiased_ish() {
        let t = table();
        let est = SamplingEstimator::new(&t, 0.2, 2);
        assert_eq!(est.sample_size(), 200);
        let q = Query::new(vec![Predicate::le(0, 4i64)]);
        let e = est.estimate_card(&q);
        assert!((e - 500.0).abs() < 100.0, "estimate {e} too far from 500");
    }

    #[test]
    fn size_reflects_ratio() {
        let t = table();
        let small = SamplingEstimator::new(&t, 0.1, 3);
        let big = SamplingEstimator::new(&t, 0.5, 3);
        assert!(small.size_bytes() < big.size_bytes());
    }
}
