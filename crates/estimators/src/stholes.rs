//! STHoles (Bruno, Chaudhuri & Gravano, SIGMOD 2001) — the classic
//! workload-aware multidimensional histogram, one of the baselines the
//! paper ran ("we also compared with STHoles \[12\]…").
//!
//! The histogram is a tree of nested axis-aligned buckets: each query's
//! feedback (the true row count inside every intersected bucket) "drills a
//! hole" — a child bucket carrying the observed count — so density
//! concentrates where the workload looks. A bucket budget is enforced by
//! merging the parent–child pair with the smallest density difference.
//!
//! Feedback here is computed exactly with the executor, mirroring the
//! original system's scan instrumentation.

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query, QueryRegion};

/// Axis-aligned box over dictionary codes, `[lo, hi)` per column.
type BBox = Vec<(u32, u32)>;

fn box_volume(b: &BBox) -> f64 {
    b.iter().map(|&(lo, hi)| (hi.saturating_sub(lo)) as f64).product()
}

fn box_intersect(a: &BBox, b: &BBox) -> Option<BBox> {
    let mut out = Vec::with_capacity(a.len());
    for (&(alo, ahi), &(blo, bhi)) in a.iter().zip(b) {
        let lo = alo.max(blo);
        let hi = ahi.min(bhi);
        if lo >= hi {
            return None;
        }
        out.push((lo, hi));
    }
    Some(out)
}

fn box_contains(outer: &BBox, inner: &BBox) -> bool {
    outer.iter().zip(inner).all(|(&(olo, ohi), &(ilo, ihi))| olo <= ilo && ihi <= ohi)
}

#[derive(Debug, Clone)]
struct Bucket {
    bbox: BBox,
    /// Rows attributed to this bucket, excluding its holes.
    frequency: f64,
    children: Vec<Bucket>,
}

impl Bucket {
    /// Volume owned by this bucket = box volume − children volumes.
    fn own_volume(&self) -> f64 {
        let v =
            box_volume(&self.bbox) - self.children.iter().map(|c| box_volume(&c.bbox)).sum::<f64>();
        v.max(1.0)
    }

    fn count_buckets(&self) -> usize {
        1 + self.children.iter().map(Bucket::count_buckets).sum::<usize>()
    }

    /// Estimated rows inside `q` (uniformity within the owned region,
    /// holes handled recursively).
    fn estimate(&self, q: &BBox) -> f64 {
        let Some(inter) = box_intersect(&self.bbox, q) else { return 0.0 };
        let mut est = 0.0;
        // Overlap with the owned region ≈ overlap with the whole box minus
        // the children's boxes (children are disjoint from each other).
        let mut overlap = box_volume(&inter);
        for ch in &self.children {
            if let Some(ci) = box_intersect(&ch.bbox, &inter) {
                overlap -= box_volume(&ci);
            }
            est += ch.estimate(q);
        }
        est + self.frequency * (overlap.max(0.0) / self.own_volume())
    }

    /// Drill a hole for an observed (box, count) pair.
    fn drill(&mut self, hole: &BBox, count: f64) {
        // Recurse into a child that fully contains the hole.
        for ch in &mut self.children {
            if box_contains(&ch.bbox, hole) {
                ch.drill(hole, count);
                return;
            }
        }
        if self.bbox == *hole {
            // The hole covers this bucket exactly: update the frequency.
            let child_total: f64 = self.children.iter().map(|c| c.frequency).sum();
            self.frequency = (count - child_total).max(0.0);
            return;
        }
        // Absorb children that the hole swallows.
        let mut swallowed = Vec::new();
        self.children.retain(|ch| {
            if box_contains(hole, &ch.bbox) {
                swallowed.push(ch.clone());
                false
            } else {
                true
            }
        });
        // Children partially overlapping the hole: shrink the hole to stay
        // disjoint (the classic STHoles "shrink" step, done per axis).
        let mut shrunk = hole.clone();
        for ch in &self.children {
            if let Some(inter) = box_intersect(&ch.bbox, &shrunk) {
                // Shrink along the axis that loses the least volume.
                let mut best: Option<(usize, bool, f64)> = None;
                for (axis, (&(ilo, ihi), &(slo, shi))) in inter.iter().zip(&shrunk).enumerate() {
                    // Cut below or above the intersection on this axis.
                    let cut_low = (ihi - slo) as f64 / (shi - slo).max(1) as f64;
                    let cut_high = (shi - ilo) as f64 / (shi - slo).max(1) as f64;
                    for (frac, from_low) in [(cut_low, true), (cut_high, false)] {
                        if best.as_ref().is_none_or(|&(_, _, f)| frac < f) {
                            best = Some((axis, from_low, frac));
                        }
                    }
                }
                if let Some((axis, from_low, _)) = best {
                    let (ilo, ihi) = inter[axis];
                    if from_low {
                        shrunk[axis].0 = ihi;
                    } else {
                        shrunk[axis].1 = ilo;
                    }
                    if shrunk[axis].0 >= shrunk[axis].1 {
                        return; // hole vanished
                    }
                }
            }
        }
        let swallowed_count: f64 = swallowed.iter().map(|c| c.frequency).sum();
        // Frequency moves from this bucket into the hole.
        let moved = (count - swallowed_count).clamp(0.0, self.frequency);
        self.frequency -= moved;
        self.children.push(Bucket { bbox: shrunk, frequency: moved, children: swallowed });
    }

    /// Merge the parent–child pair with the most similar density; returns
    /// whether a merge happened.
    fn merge_cheapest(&mut self) -> bool {
        // Find (path) of the cheapest parent-child merge in this subtree.
        fn cheapest(b: &Bucket) -> Option<(usize, f64)> {
            let mut best: Option<(usize, f64)> = None;
            for (i, ch) in b.children.iter().enumerate() {
                let d_parent = b.frequency / b.own_volume();
                let d_child = ch.frequency / ch.own_volume();
                let penalty = (d_parent - d_child).abs() * box_volume(&ch.bbox);
                if best.as_ref().is_none_or(|&(_, p)| penalty < p) {
                    best = Some((i, penalty));
                }
            }
            best
        }
        // Greedy: merge at the deepest level first to keep the tree tidy.
        for ch in &mut self.children {
            if !ch.children.is_empty() && ch.merge_cheapest() {
                return true;
            }
        }
        if let Some((i, _)) = cheapest(self) {
            let ch = self.children.remove(i);
            self.frequency += ch.frequency;
            self.children.extend(ch.children);
            return true;
        }
        false
    }
}

/// STHoles estimator.
#[derive(Debug)]
pub struct StHolesEstimator {
    name: String,
    root: Bucket,
    table: Table,
    max_buckets: usize,
}

impl StHolesEstimator {
    /// An empty histogram (one root bucket with uniformity assumptions).
    pub fn new(table: &Table, max_buckets: usize) -> Self {
        let bbox: BBox = table.columns().iter().map(|c| (0u32, c.domain_size() as u32)).collect();
        StHolesEstimator {
            name: "STHoles".to_owned(),
            root: Bucket { bbox, frequency: table.num_rows() as f64, children: Vec::new() },
            table: table.clone(),
            max_buckets: max_buckets.max(1),
        }
    }

    /// Refine with a labeled workload (each query drills holes using exact
    /// per-bucket feedback from the executor).
    pub fn refine(&mut self, workload: &[LabeledQuery]) {
        for lq in workload {
            self.refine_one(&lq.query);
        }
    }

    fn refine_one(&mut self, query: &Query) {
        let Some(qbox) = self.query_box(query) else { return };
        // Feedback: exact count inside (query ∩ bucket) for every bucket
        // the query intersects — collect the intersection boxes first.
        let mut holes: Vec<BBox> = Vec::new();
        collect_holes(&self.root, &qbox, &mut holes);
        // Count rows per hole (one scan per hole; holes are few).
        for hole in holes {
            let count = self.count_box(&hole) as f64;
            self.root.drill(&hole, count);
        }
        while self.root.count_buckets() > self.max_buckets {
            if !self.root.merge_cheapest() {
                break;
            }
        }
    }

    /// Number of buckets currently held.
    pub fn num_buckets(&self) -> usize {
        self.root.count_buckets()
    }

    fn query_box(&self, query: &Query) -> Option<BBox> {
        let qr = QueryRegion::build(&self.table, query);
        if qr.is_empty() {
            return None;
        }
        Some(
            (0..self.table.num_cols())
                .map(|c| {
                    let d = self.table.column(c).domain_size() as u32;
                    match qr.column(c) {
                        None => (0, d),
                        Some(region) => {
                            let ranges = region.ranges();
                            (ranges[0].0, ranges[ranges.len() - 1].1)
                        }
                    }
                })
                .collect(),
        )
    }

    fn count_box(&self, b: &BBox) -> u64 {
        let mut count = 0u64;
        'rows: for r in 0..self.table.num_rows() {
            for (c, &(lo, hi)) in b.iter().enumerate() {
                let code = self.table.column(c).code(r);
                if code < lo || code >= hi {
                    continue 'rows;
                }
            }
            count += 1;
        }
        count
    }
}

fn collect_holes(bucket: &Bucket, qbox: &BBox, out: &mut Vec<BBox>) {
    if let Some(inter) = box_intersect(&bucket.bbox, qbox) {
        out.push(inter);
        for ch in &bucket.children {
            collect_holes(ch, qbox, out);
        }
    }
}

impl CardEstimator for StHolesEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.table.num_rows() as f64
    }

    /// Estimated selectivity (bounding-box semantics, like the original).
    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let Some(qbox) = self.query_box(query) else { return 0.0 };
        (self.root.estimate(&qbox) / self.table.num_rows().max(1) as f64).clamp(0.0, 1.0)
    }

    fn size_bytes(&self) -> usize {
        // Per bucket: bbox (2 u32 per dim) + frequency.
        self.num_buckets() * (self.table.num_cols() * 8 + 8)
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::WorkloadHistogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::{label_queries, Predicate};

    fn skewed_table() -> Table {
        // 90% of rows in the [0, 10) x [0, 10) corner.
        let n = 2000usize;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            if i % 10 != 0 {
                xs.push(Value::Int((i % 10) as i64));
                ys.push(Value::Int(((i / 10) % 10) as i64));
            } else {
                xs.push(Value::Int(10 + (i % 90) as i64));
                ys.push(Value::Int(10 + ((i / 7) % 90) as i64));
            }
        }
        Table::from_columns("t", vec![("x".into(), xs), ("y".into(), ys)])
    }

    #[test]
    fn unrefined_histogram_assumes_uniformity() {
        let t = skewed_table();
        let st = StHolesEstimator::new(&t, 32);
        // The hot corner is 1% of the volume but 90% of the rows; the
        // uniform root must underestimate it badly.
        let q = Query::new(vec![Predicate::le(0, 9i64), Predicate::le(1, 9i64)]);
        let est = st.estimate_card(&q);
        assert!(est < 300.0, "uniform estimate {est} should be far below 1800");
    }

    #[test]
    fn refinement_fixes_the_workload_region() {
        let t = skewed_table();
        let mut st = StHolesEstimator::new(&t, 32);
        let q = Query::new(vec![Predicate::le(0, 9i64), Predicate::le(1, 9i64)]);
        let workload = label_queries(&t, vec![q.clone()]);
        let before = (st.estimate_card(&q) - workload[0].cardinality as f64).abs();
        st.refine(&workload);
        let after = (st.estimate_card(&q) - workload[0].cardinality as f64).abs();
        assert!(
            after < before / 4.0,
            "refinement should fix the drilled region: {before} → {after}"
        );
        assert!(st.num_buckets() > 1);
    }

    #[test]
    fn bucket_budget_is_enforced() {
        let t = skewed_table();
        let mut st = StHolesEstimator::new(&t, 8);
        let queries: Vec<Query> = (0..30)
            .map(|i| {
                Query::new(vec![
                    Predicate::ge(0, (i % 15) as i64),
                    Predicate::le(0, (i % 15 + 20) as i64),
                ])
            })
            .collect();
        st.refine(&label_queries(&t, queries));
        assert!(st.num_buckets() <= 8, "budget exceeded: {}", st.num_buckets());
    }

    #[test]
    fn total_mass_is_conserved() {
        let t = skewed_table();
        let mut st = StHolesEstimator::new(&t, 16);
        let queries: Vec<Query> =
            (0..10).map(|i| Query::new(vec![Predicate::le(0, (i * 9) as i64)])).collect();
        st.refine(&label_queries(&t, queries));
        let full = Query::default();
        let est = st.estimate_card(&full);
        let truth = t.num_rows() as f64;
        assert!(
            (est - truth).abs() / truth < 0.25,
            "full-table estimate {est} drifted from {truth}"
        );
    }
}
