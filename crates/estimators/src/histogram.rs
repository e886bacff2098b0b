//! Per-column equi-depth histograms combined under the attribute-value-
//! independence (AVI) assumption — the classic DBMS estimator (and the
//! "PostgreSQL-like" baseline of the optimizer study, Figure 6).

use uae_data::{Column, Table};
use uae_query::{CardEstimator, EstimatorFamily, Query, QueryRegion, Region};

/// One column's equi-depth histogram over dictionary codes.
#[derive(Debug, Clone)]
pub struct ColumnHistogram {
    /// Bucket upper bounds (exclusive, ascending); the last equals the
    /// domain size.
    bounds: Vec<u32>,
    /// Fraction of rows per bucket.
    freqs: Vec<f64>,
    domain: u32,
}

impl ColumnHistogram {
    /// Build an equi-depth histogram with at most `buckets` buckets.
    pub fn build(col: &Column, buckets: usize) -> Self {
        let hist = col.histogram();
        let total: u64 = hist.iter().sum();
        let domain = hist.len() as u32;
        let buckets = buckets.max(1).min(hist.len());
        let per_bucket = (total as f64 / buckets as f64).max(1.0);
        let mut bounds = Vec::with_capacity(buckets);
        let mut freqs = Vec::with_capacity(buckets);
        let mut acc = 0u64;
        let mut filled = 0u64;
        for (c, &h) in hist.iter().enumerate() {
            acc += h;
            if acc as f64 >= per_bucket * (bounds.len() + 1) as f64 || c + 1 == hist.len() {
                bounds.push(c as u32 + 1);
                freqs.push((acc - filled) as f64 / total.max(1) as f64);
                filled = acc;
            }
        }
        ColumnHistogram { bounds, freqs, domain }
    }

    /// Estimated `P(col ∈ region)` assuming uniformity inside buckets.
    pub fn region_fraction(&self, region: &Region) -> f64 {
        let mut p = 0.0f64;
        let mut lo = 0u32;
        for (i, &hi) in self.bounds.iter().enumerate() {
            // overlap of [lo, hi) with the region, in codes
            let bucket_width = (hi - lo) as f64;
            if bucket_width > 0.0 {
                let overlap: u32 = region
                    .ranges()
                    .iter()
                    .map(|&(rlo, rhi)| rhi.min(hi).saturating_sub(rlo.max(lo)))
                    .sum();
                p += self.freqs[i] * overlap as f64 / bucket_width;
            }
            lo = hi;
        }
        p.clamp(0.0, 1.0)
    }

    /// Number of stored scalars.
    pub fn num_scalars(&self) -> usize {
        self.bounds.len() + self.freqs.len()
    }

    /// Domain size the histogram was built over.
    pub fn domain(&self) -> u32 {
        self.domain
    }
}

/// AVI estimator: product of per-column marginal fractions.
#[derive(Debug)]
pub struct HistogramEstimator {
    name: String,
    columns: Vec<ColumnHistogram>,
    total_rows: usize,
    table: Table,
}

impl HistogramEstimator {
    /// Build per-column equi-depth histograms with `buckets` buckets each.
    pub fn new(table: &Table, buckets: usize) -> Self {
        HistogramEstimator {
            name: "Histogram".to_owned(),
            columns: table.columns().iter().map(|c| ColumnHistogram::build(c, buckets)).collect(),
            total_rows: table.num_rows(),
            table: table.clone(),
        }
    }
}

impl CardEstimator for HistogramEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let region = QueryRegion::build(&self.table, query);
        if region.is_empty() {
            return 0.0;
        }
        let mut p = 1.0f64;
        for (c, reg) in region.columns().iter().enumerate() {
            if let Some(reg) = reg {
                p *= self.columns[c].region_fraction(reg);
            }
        }
        p
    }

    fn size_bytes(&self) -> usize {
        self.columns.iter().map(|h| h.num_scalars() * 8).sum()
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::Predicate;

    fn uniform_table() -> Table {
        Table::from_columns(
            "t",
            vec![
                ("x".into(), (0..1000i64).map(Value::Int).collect()),
                ("y".into(), (0..1000i64).map(|v| Value::Int(v % 4)).collect()),
            ],
        )
    }

    #[test]
    fn marginal_fractions_are_exact_on_uniform_data() {
        let t = uniform_table();
        let est = HistogramEstimator::new(&t, 50);
        let q = Query::new(vec![Predicate::le(0, 249i64)]);
        let e = est.estimate_card(&q);
        assert!((e - 250.0).abs() < 30.0, "estimate {e}");
    }

    #[test]
    fn independence_assumption_multiplies() {
        let t = uniform_table();
        let est = HistogramEstimator::new(&t, 50);
        let q = Query::new(vec![Predicate::le(0, 499i64), Predicate::eq(1, 1i64)]);
        // AVI: 0.5 * 0.25 = 0.125 → 125 rows (true value is 125 here too).
        let e = est.estimate_card(&q);
        assert!((e - 125.0).abs() < 25.0, "estimate {e}");
    }

    #[test]
    fn histogram_fraction_sums_to_one() {
        let t = uniform_table();
        let h = ColumnHistogram::build(t.column(0), 16);
        let full = Region::all(h.domain());
        assert!((h.region_fraction(&full) - 1.0).abs() < 1e-9);
        let empty = Region::empty(h.domain());
        assert_eq!(h.region_fraction(&empty), 0.0);
    }

    #[test]
    fn skewed_column_buckets_adapt() {
        // 90% of rows have value 0; equi-depth must isolate it.
        let vals: Vec<Value> =
            (0..1000i64).map(|v| Value::Int(if v < 900 { 0 } else { v % 50 })).collect();
        let t = Table::from_columns("t", vec![("x".into(), vals)]);
        let est = HistogramEstimator::new(&t, 10);
        let q = Query::new(vec![Predicate::eq(0, 0i64)]);
        let e = est.estimate_card(&q);
        assert!(e > 500.0, "head value underestimated: {e}");
    }
}
