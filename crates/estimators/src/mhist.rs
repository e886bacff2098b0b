//! MHIST — multi-dimensional MaxDiff histogram (Poosala & Ioannidis),
//! one of the "also compared, performed worse" baselines of the paper's
//! §5.1.4. Buckets are axis-aligned boxes over code space; construction
//! greedily splits the most "critical" bucket at its largest marginal
//! frequency gap; estimation assumes uniformity inside buckets.

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, Query, QueryRegion};

/// One axis-aligned bucket.
#[derive(Debug, Clone)]
struct Bucket {
    /// Per-dimension half-open code range `[lo, hi)`.
    bounds: Vec<(u32, u32)>,
    /// Rows contained (build-time only).
    rows: Vec<u32>,
}

impl Bucket {
    fn volume(&self) -> f64 {
        self.bounds.iter().map(|&(lo, hi)| (hi - lo) as f64).product()
    }
}

/// The finished estimator: buckets with counts only.
#[derive(Debug)]
pub struct MhistEstimator {
    name: String,
    bounds: Vec<Vec<(u32, u32)>>,
    counts: Vec<u64>,
    total_rows: usize,
    table: Table,
}

impl MhistEstimator {
    /// Build an MHIST with at most `max_buckets` buckets.
    pub fn new(table: &Table, max_buckets: usize) -> Self {
        let ncols = table.num_cols();
        let root = Bucket {
            bounds: (0..ncols).map(|c| (0u32, table.column(c).domain_size() as u32)).collect(),
            rows: (0..table.num_rows() as u32).collect(),
        };
        let mut buckets = vec![root];
        while buckets.len() < max_buckets {
            // Critical bucket: most rows with a splittable extent.
            let Some(idx) = buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.rows.len() > 1 && b.volume() > 1.0)
                .max_by_key(|(_, b)| b.rows.len())
                .map(|(i, _)| i)
            else {
                break;
            };
            let bucket = buckets.swap_remove(idx);
            match split_maxdiff(table, &bucket) {
                Some((a, b)) => {
                    buckets.push(a);
                    buckets.push(b);
                }
                None => {
                    buckets.push(bucket);
                    break;
                }
            }
        }
        let counts = buckets.iter().map(|b| b.rows.len() as u64).collect();
        let bounds = buckets.into_iter().map(|b| b.bounds).collect();
        MhistEstimator {
            name: "MHIST".to_owned(),
            bounds,
            counts,
            total_rows: table.num_rows(),
            table: table.clone(),
        }
    }

    /// Number of buckets actually built.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    fn selectivity_from_buckets(&self, query: &Query) -> f64 {
        let qr = QueryRegion::build(&self.table, query);
        if qr.is_empty() {
            return 0.0;
        }
        let mut mass = 0.0f64;
        for (bounds, &count) in self.bounds.iter().zip(&self.counts) {
            if count == 0 {
                continue;
            }
            let mut frac = 1.0f64;
            for (c, &(blo, bhi)) in bounds.iter().enumerate() {
                if let Some(region) = qr.column(c) {
                    let width = (bhi - blo) as f64;
                    if width <= 0.0 {
                        frac = 0.0;
                        break;
                    }
                    let overlap: u32 = region
                        .ranges()
                        .iter()
                        .map(|&(rlo, rhi)| rhi.min(bhi).saturating_sub(rlo.max(blo)))
                        .sum();
                    frac *= overlap as f64 / width;
                    if frac == 0.0 {
                        break;
                    }
                }
            }
            mass += count as f64 * frac;
        }
        (mass / self.total_rows.max(1) as f64).clamp(0.0, 1.0)
    }
}

/// Split a bucket along the dimension with the largest adjacent-frequency
/// difference (MaxDiff), at that gap.
fn split_maxdiff(table: &Table, bucket: &Bucket) -> Option<(Bucket, Bucket)> {
    let mut best: Option<(usize, u32, f64)> = None; // (dim, split code, diff)
    for (c, &(lo, hi)) in bucket.bounds.iter().enumerate() {
        if hi - lo < 2 {
            continue;
        }
        // Marginal frequencies of this bucket's rows over [lo, hi).
        let mut freq = vec![0u32; (hi - lo) as usize];
        let codes = table.column(c).codes();
        for &r in &bucket.rows {
            freq[(codes[r as usize] - lo) as usize] += 1;
        }
        for i in 0..freq.len() - 1 {
            let diff = (freq[i] as f64 - freq[i + 1] as f64).abs();
            if best.as_ref().is_none_or(|&(_, _, d)| diff > d) {
                best = Some((c, lo + i as u32 + 1, diff));
            }
        }
    }
    let (dim, at, _) = best?;
    let codes = table.column(dim).codes();
    let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
    for &r in &bucket.rows {
        if codes[r as usize] < at {
            left_rows.push(r);
        } else {
            right_rows.push(r);
        }
    }
    let mut left = Bucket { bounds: bucket.bounds.clone(), rows: left_rows };
    left.bounds[dim].1 = at;
    let mut right = Bucket { bounds: bucket.bounds.clone(), rows: right_rows };
    right.bounds[dim].0 = at;
    Some((left, right))
}

impl CardEstimator for MhistEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.selectivity_from_buckets(query)
    }

    fn size_bytes(&self) -> usize {
        // bounds (2 u32 per dim) + count per bucket
        self.bounds.iter().map(|b| b.len() * 8 + 8).sum()
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::MultiDimHistogram
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
            vec![
                ("x".into(), (0..1000i64).map(|v| Value::Int(v % 50)).collect()),
                ("y".into(), (0..1000i64).map(|v| Value::Int((v / 50) % 4)).collect()),
            ],
        )
    }

    #[test]
    fn buckets_partition_all_rows() {
        let t = table();
        let m = MhistEstimator::new(&t, 32);
        assert!(m.num_buckets() <= 32);
        let total: u64 = m.counts.iter().sum();
        assert_eq!(total, 1000);
        // Full-domain query returns everything.
        assert!((m.estimate_selectivity(&Query::default()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn range_estimates_are_reasonable_on_uniform_data() {
        let t = table();
        let m = MhistEstimator::new(&t, 64);
        let q = Query::new(vec![Predicate::le(0, 24i64)]);
        let e = m.estimate_card(&q);
        assert!((e - 500.0).abs() < 100.0, "estimate {e}");
    }

    #[test]
    fn spike_isolated_by_maxdiff() {
        // 80% of mass at x = 0; MaxDiff should cut right after the spike.
        let vals: Vec<Value> =
            (0..1000i64).map(|v| Value::Int(if v < 800 { 0 } else { 1 + v % 30 })).collect();
        let t = Table::from_columns("t", vec![("x".into(), vals)]);
        let m = MhistEstimator::new(&t, 16);
        let q = Query::new(vec![Predicate::eq(0, 0i64)]);
        let e = m.estimate_card(&q);
        assert!(e > 600.0, "spike underestimated: {e}");
    }
}
