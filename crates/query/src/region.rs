//! Query regions: the per-column sets of dictionary codes a query admits.
//!
//! The paper formulates a query `q` as a region `R^q = R_1^q x … x R_n^q`
//! (§4.2). Because dictionary codes are value-ordered, every predicate
//! translates into a union of half-open code ranges; conjunctions intersect
//! them. Regions drive the exact executor, the progressive-sampling masks,
//! and the dense `0/1` masks of differentiable progressive sampling.

use uae_data::{Column, Table};

use crate::predicate::{PredOp, Predicate, Query};

/// A set of dictionary codes, stored as sorted, disjoint, non-adjacent
/// half-open ranges `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    domain: u32,
    ranges: Vec<(u32, u32)>,
}

impl Region {
    /// The full domain `[0, domain)`.
    pub fn all(domain: u32) -> Self {
        Region { domain, ranges: if domain > 0 { vec![(0, domain)] } else { vec![] } }
    }

    /// The empty region.
    pub fn empty(domain: u32) -> Self {
        Region { domain, ranges: vec![] }
    }

    /// A single half-open range, clamped to the domain.
    pub fn range(domain: u32, lo: u32, hi: u32) -> Self {
        let hi = hi.min(domain);
        if lo >= hi {
            Region::empty(domain)
        } else {
            Region { domain, ranges: vec![(lo, hi)] }
        }
    }

    /// A region from arbitrary codes (deduplicated, merged).
    pub fn from_codes(domain: u32, mut codes: Vec<u32>) -> Self {
        codes.sort_unstable();
        codes.dedup();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for c in codes.into_iter().filter(|&c| c < domain) {
            match ranges.last_mut() {
                Some((_, hi)) if *hi == c => *hi = c + 1,
                _ => ranges.push((c, c + 1)),
            }
        }
        Region { domain, ranges }
    }

    /// Domain size this region is defined over.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// The underlying ranges.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Whether no code is admitted.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether every code is admitted.
    pub fn is_all(&self) -> bool {
        self.ranges.len() == 1 && self.ranges[0] == (0, self.domain)
    }

    /// Number of admitted codes.
    pub fn count(&self) -> u32 {
        self.ranges.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// Membership test.
    pub fn contains(&self, code: u32) -> bool {
        // Binary search over range starts.
        match self.ranges.binary_search_by(|&(lo, _)| lo.cmp(&code)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => code < self.ranges[i - 1].1,
        }
    }

    /// Intersection with another region over the same domain.
    pub fn intersect(&self, other: &Region) -> Region {
        assert_eq!(self.domain, other.domain, "region domain mismatch");
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (alo, ahi) = self.ranges[i];
            let (blo, bhi) = other.ranges[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo < hi {
                // merge adjacency is impossible across intersections, but be safe
                match out.last_mut() {
                    Some(&mut (_, ref mut phi)) if *phi == lo => *phi = hi,
                    _ => out.push((lo, hi)),
                }
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        Region { domain: self.domain, ranges: out }
    }

    /// Complement within the domain.
    pub fn complement(&self) -> Region {
        let mut out = Vec::new();
        let mut cursor = 0u32;
        for &(lo, hi) in &self.ranges {
            if cursor < lo {
                out.push((cursor, lo));
            }
            cursor = hi;
        }
        if cursor < self.domain {
            out.push((cursor, self.domain));
        }
        Region { domain: self.domain, ranges: out }
    }

    /// Iterate over admitted codes.
    pub fn iter_codes(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi)| lo..hi)
    }

    /// Dense `0.0 / 1.0` mask of length `domain` (DPS region mask).
    pub fn to_mask(&self) -> Vec<f32> {
        let mut m = vec![0.0f32; self.domain as usize];
        for &(lo, hi) in &self.ranges {
            for c in lo..hi {
                m[c as usize] = 1.0;
            }
        }
        m
    }
}

/// Translate one predicate into a code region on its column.
pub fn predicate_region(col: &Column, pred: &Predicate) -> Region {
    let domain = col.domain_size() as u32;
    match &pred.op {
        PredOp::Eq => match col.code_of(&pred.value) {
            Some(c) => Region::range(domain, c, c + 1),
            None => Region::empty(domain),
        },
        PredOp::Ne => match col.code_of(&pred.value) {
            Some(c) => Region::range(domain, c, c + 1).complement(),
            None => Region::all(domain),
        },
        PredOp::Lt => Region::range(domain, 0, col.lower_bound(&pred.value)),
        PredOp::Le => Region::range(domain, 0, col.upper_bound(&pred.value)),
        PredOp::Gt => Region::range(domain, col.upper_bound(&pred.value), domain),
        PredOp::Ge => Region::range(domain, col.lower_bound(&pred.value), domain),
        PredOp::In(values) => {
            let codes = values.iter().filter_map(|v| col.code_of(v)).collect();
            Region::from_codes(domain, codes)
        }
    }
}

/// The full per-column region of a query: `regions[i]` is `None` when
/// column `i` is unconstrained (a wildcard in the paper's terms).
#[derive(Debug, Clone)]
pub struct QueryRegion {
    regions: Vec<Option<Region>>,
}

impl QueryRegion {
    /// Compute the per-column regions of `query` against `table`.
    ///
    /// Predicates naming a column the table does not have are ignored
    /// here (treated as unconstrained): region building runs in paths
    /// that may precede query validation — e.g. route featurization —
    /// and must never panic. Validation is where an unknown column
    /// becomes a typed error.
    pub fn build(table: &Table, query: &Query) -> Self {
        let mut regions: Vec<Option<Region>> = vec![None; table.num_cols()];
        for pred in &query.predicates {
            if pred.column >= table.num_cols() {
                continue;
            }
            let col = table.column(pred.column);
            let r = predicate_region(col, pred);
            let slot = &mut regions[pred.column];
            *slot = Some(match slot.take() {
                Some(prev) => prev.intersect(&r),
                None => r,
            });
        }
        QueryRegion { regions }
    }

    /// Per-column regions (None = wildcard).
    pub fn columns(&self) -> &[Option<Region>] {
        &self.regions
    }

    /// Region of column `i`, or `None` for a wildcard.
    pub fn column(&self, i: usize) -> Option<&Region> {
        self.regions[i].as_ref()
    }

    /// Whether any column's region is empty (the query is unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.regions.iter().flatten().any(Region::is_empty)
    }

    /// Whether a full row of codes satisfies the query.
    pub fn matches_row(&self, codes: &[u32]) -> bool {
        self.regions.iter().zip(codes).all(|(r, &c)| r.as_ref().is_none_or(|r| r.contains(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{Table, Value};

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![("x".into(), vec![10i64, 20, 30, 40, 50].into_iter().map(Value::Int).collect())],
        )
    }

    #[test]
    fn predicate_regions_match_semantics() {
        let t = table();
        let col = t.column(0);
        let r = |p: Predicate| predicate_region(col, &p);
        assert_eq!(r(Predicate::eq(0, 30i64)).iter_codes().collect::<Vec<_>>(), vec![2]);
        assert_eq!(r(Predicate::le(0, 30i64)).count(), 3);
        assert_eq!(r(Predicate::ge(0, 30i64)).count(), 3);
        assert_eq!(r(Predicate::new(0, PredOp::Lt, Value::Int(30))).count(), 2);
        assert_eq!(r(Predicate::new(0, PredOp::Gt, Value::Int(30))).count(), 2);
        assert_eq!(r(Predicate::new(0, PredOp::Ne, Value::Int(30))).count(), 4);
        // Literals not in the dictionary use value order.
        assert_eq!(r(Predicate::le(0, 35i64)).count(), 3);
        assert_eq!(r(Predicate::ge(0, 35i64)).count(), 2);
        assert_eq!(r(Predicate::eq(0, 35i64)).count(), 0);
        let inr = r(Predicate::is_in(0, vec![Value::Int(10), Value::Int(50), Value::Int(99)]));
        assert_eq!(inr.iter_codes().collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn intersect_and_complement() {
        let a = Region::range(10, 2, 7);
        let b = Region::range(10, 5, 9);
        let i = a.intersect(&b);
        assert_eq!(i.ranges(), &[(5, 7)]);
        let c = i.complement();
        assert_eq!(c.ranges(), &[(0, 5), (7, 10)]);
        assert_eq!(c.count() + i.count(), 10);
    }

    #[test]
    fn contains_matches_iteration() {
        let r = Region::from_codes(20, vec![1, 2, 3, 7, 9, 10, 19]);
        let member: Vec<u32> = r.iter_codes().collect();
        for c in 0..20 {
            assert_eq!(r.contains(c), member.contains(&c), "code {c}");
        }
    }

    #[test]
    fn mask_matches_contains() {
        let r = Region::from_codes(8, vec![0, 3, 4, 5]);
        let m = r.to_mask();
        for c in 0..8u32 {
            assert_eq!(m[c as usize] == 1.0, r.contains(c));
        }
    }

    #[test]
    fn query_region_intersects_same_column() {
        let t = table();
        let q = Query::new(vec![Predicate::ge(0, 20i64), Predicate::le(0, 40i64)]);
        let qr = QueryRegion::build(&t, &q);
        let r = qr.column(0).unwrap();
        assert_eq!(r.iter_codes().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(qr.matches_row(&[2]));
        assert!(!qr.matches_row(&[0]));
    }

    #[test]
    fn unsatisfiable_query_detected() {
        let t = table();
        let q = Query::new(vec![Predicate::le(0, 10i64), Predicate::ge(0, 50i64)]);
        let qr = QueryRegion::build(&t, &q);
        assert!(qr.is_empty());
    }
}
