//! Chow–Liu tree Bayesian network (paper §5.1.4 "BayesNet", after Chow &
//! Liu 1968): the maximum-mutual-information spanning tree over the
//! attributes, with conditional probability tables on the edges and exact
//! tree message passing for region queries.
//!
//! Wide columns are binned to at most `max_bins` equal-width code ranges to
//! bound CPT size; within-bin mass is spread uniformly over the bin's codes
//! when intersecting regions (the usual histogram assumption).

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, Query, QueryRegion, Region};

/// Chow–Liu tree estimator.
#[derive(Debug)]
pub struct BayesNetEstimator {
    name: String,
    table: Table,
    total_rows: usize,
    bins: Vec<Binning>,
    /// Parent of each column in the tree (root: usize::MAX).
    parent: Vec<usize>,
    /// Children lists.
    children: Vec<Vec<usize>>,
    /// Root column.
    root: usize,
    /// `cpt[c][pb * nbins_c + cb] = P(col c in bin cb | parent in bin pb)`;
    /// the root stores its marginal with `pb = 0`.
    cpt: Vec<Vec<f64>>,
}

/// Equal-width binning of a column's code space.
#[derive(Debug, Clone)]
struct Binning {
    domain: u32,
    nbins: u32,
}

impl Binning {
    fn new(domain: u32, max_bins: u32) -> Self {
        Binning { domain, nbins: domain.min(max_bins).max(1) }
    }

    #[inline]
    fn bin_of(&self, code: u32) -> u32 {
        ((code as u64 * self.nbins as u64) / self.domain as u64) as u32
    }

    /// Code range `[lo, hi)` of a bin.
    fn bin_range(&self, b: u32) -> (u32, u32) {
        let lo = ((b as u64 * self.domain as u64).div_ceil(self.nbins as u64)) as u32;
        let hi = (((b + 1) as u64 * self.domain as u64).div_ceil(self.nbins as u64)) as u32;
        (lo, hi.min(self.domain))
    }

    /// Fraction of bin `b`'s codes inside `region` (uniform-within-bin).
    fn region_weight(&self, b: u32, region: &Region) -> f64 {
        let (lo, hi) = self.bin_range(b);
        if lo >= hi {
            return 0.0;
        }
        let overlap: u32 =
            region.ranges().iter().map(|&(rlo, rhi)| rhi.min(hi).saturating_sub(rlo.max(lo))).sum();
        overlap as f64 / (hi - lo) as f64
    }
}

impl BayesNetEstimator {
    /// Learn the Chow–Liu tree from `table`, binning columns to at most
    /// `max_bins` values.
    pub fn new(table: &Table, max_bins: u32) -> Self {
        let n = table.num_cols();
        assert!(n >= 1);
        let bins: Vec<Binning> = table
            .columns()
            .iter()
            .map(|c| Binning::new(c.domain_size() as u32, max_bins))
            .collect();
        let rows = table.num_rows();
        // Binned codes, column-major.
        let binned: Vec<Vec<u32>> = (0..n)
            .map(|c| table.column(c).codes().iter().map(|&v| bins[c].bin_of(v)).collect())
            .collect();

        // Pairwise mutual information.
        let mut mi = vec![0.0f64; n * n];
        for a in 0..n {
            for b in a + 1..n {
                let m = pairwise_mi(&binned[a], &binned[b], bins[a].nbins, bins[b].nbins, rows);
                mi[a * n + b] = m;
                mi[b * n + a] = m;
            }
        }

        // Prim's maximum spanning tree from column 0.
        let root = 0usize;
        let mut parent = vec![usize::MAX; n];
        let mut in_tree = vec![false; n];
        let mut best = vec![f64::NEG_INFINITY; n];
        let mut best_from = vec![usize::MAX; n];
        in_tree[root] = true;
        for c in 1..n {
            best[c] = mi[root * n + c];
            best_from[c] = root;
        }
        for _ in 1..n {
            let mut pick = usize::MAX;
            let mut pick_v = f64::NEG_INFINITY;
            for c in 0..n {
                if !in_tree[c] && best[c] > pick_v {
                    pick = c;
                    pick_v = best[c];
                }
            }
            in_tree[pick] = true;
            parent[pick] = best_from[pick];
            for c in 0..n {
                if !in_tree[c] && mi[pick * n + c] > best[c] {
                    best[c] = mi[pick * n + c];
                    best_from[c] = pick;
                }
            }
        }
        let mut children = vec![Vec::new(); n];
        for c in 0..n {
            if parent[c] != usize::MAX {
                children[parent[c]].push(c);
            }
        }

        // CPTs with Laplace smoothing.
        let mut cpt = vec![Vec::new(); n];
        for c in 0..n {
            let nb = bins[c].nbins as usize;
            if parent[c] == usize::MAX {
                let mut counts = vec![1.0f64; nb];
                for &b in &binned[c] {
                    counts[b as usize] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                cpt[c] = counts.into_iter().map(|v| v / total).collect();
            } else {
                let p = parent[c];
                let np = bins[p].nbins as usize;
                let mut counts = vec![1.0f64; np * nb];
                for r in 0..rows {
                    counts[binned[p][r] as usize * nb + binned[c][r] as usize] += 1.0;
                }
                for pb in 0..np {
                    let row = &mut counts[pb * nb..(pb + 1) * nb];
                    let total: f64 = row.iter().sum();
                    for v in row {
                        *v /= total;
                    }
                }
                cpt[c] = counts;
            }
        }

        BayesNetEstimator {
            name: "BayesNet".to_owned(),
            table: table.clone(),
            total_rows: rows,
            bins,
            parent,
            children,
            root,
            cpt,
        }
    }

    /// Exact tree message passing over the query's per-column regions.
    fn message_passing_selectivity(&self, query: &Query) -> f64 {
        let qr = QueryRegion::build(&self.table, query);
        if qr.is_empty() {
            return 0.0;
        }
        // Bottom-up messages: msg_c(pb) = Σ_cb w_c(cb) P(cb | pb) Π msgs.
        let root_msg = self.message(self.root, &qr);
        let marginal = &self.cpt[self.root];
        let weights = self.node_weights(self.root, &qr);
        let mut p = 0.0f64;
        for b in 0..self.bins[self.root].nbins as usize {
            p += marginal[b] * weights[b] * root_msg[b];
        }
        p.clamp(0.0, 1.0)
    }

    /// Product of children messages at each bin of `node`.
    fn message(&self, node: usize, qr: &QueryRegion) -> Vec<f64> {
        let nb = self.bins[node].nbins as usize;
        let mut out = vec![1.0f64; nb];
        for &ch in &self.children[node] {
            let ch_msg = self.message(ch, qr);
            let ch_w = self.node_weights(ch, qr);
            let nc = self.bins[ch].nbins as usize;
            let table = &self.cpt[ch];
            for (pb, o) in out.iter_mut().enumerate() {
                let mut s = 0.0f64;
                let row = &table[pb * nc..(pb + 1) * nc];
                for cb in 0..nc {
                    s += row[cb] * ch_w[cb] * ch_msg[cb];
                }
                *o *= s;
            }
        }
        out
    }

    /// Per-bin region weights of a node (1.0 everywhere when unconstrained).
    fn node_weights(&self, node: usize, qr: &QueryRegion) -> Vec<f64> {
        let nb = self.bins[node].nbins as usize;
        match qr.column(node) {
            None => vec![1.0; nb],
            Some(region) => {
                (0..nb as u32).map(|b| self.bins[node].region_weight(b, region)).collect()
            }
        }
    }
}

fn pairwise_mi(xs: &[u32], ys: &[u32], nx: u32, ny: u32, rows: usize) -> f64 {
    let (nx, ny) = (nx as usize, ny as usize);
    let mut joint = vec![0u32; nx * ny];
    for r in 0..rows {
        joint[xs[r] as usize * ny + ys[r] as usize] += 1;
    }
    let mut px = vec![0.0f64; nx];
    let mut py = vec![0.0f64; ny];
    for x in 0..nx {
        for y in 0..ny {
            let p = joint[x * ny + y] as f64 / rows as f64;
            px[x] += p;
            py[y] += p;
        }
    }
    let mut mi = 0.0f64;
    for x in 0..nx {
        for y in 0..ny {
            let p = joint[x * ny + y] as f64 / rows as f64;
            if p > 0.0 {
                mi += p * (p / (px[x] * py[y])).ln();
            }
        }
    }
    mi
}

impl CardEstimator for BayesNetEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.message_passing_selectivity(query)
    }

    fn size_bytes(&self) -> usize {
        self.cpt.iter().map(|t| t.len() * 8).sum::<usize>() + self.parent.len() * 8
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::BayesNet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::Predicate;

    /// b = a exactly; c independent of both.
    fn dependent_table() -> Table {
        let n = 4000i64;
        Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..n).map(|v| Value::Int(v % 8)).collect()),
                ("b".into(), (0..n).map(|v| Value::Int(v % 8)).collect()),
                ("c".into(), (0..n).map(|v| Value::Int((v * 7 + 3) % 5)).collect()),
            ],
        )
    }

    #[test]
    fn tree_links_the_dependent_pair() {
        let t = dependent_table();
        let bn = BayesNetEstimator::new(&t, 64);
        // a and b must be adjacent in the tree.
        let adjacent = bn.parent[1] == 0 || bn.parent[0] == 1;
        assert!(adjacent, "chow-liu should link the perfectly dependent columns");
    }

    #[test]
    fn captures_pairwise_dependence_unlike_avi() {
        let t = dependent_table();
        let bn = BayesNetEstimator::new(&t, 64);
        // P(a=1, b=1) = 1/8 under the true joint; AVI would give 1/64.
        let q = Query::new(vec![Predicate::eq(0, 1i64), Predicate::eq(1, 1i64)]);
        let sel = bn.estimate_selectivity(&q);
        assert!((sel - 0.125).abs() < 0.02, "tree estimate {sel} should be near 1/8");
    }

    #[test]
    fn contradictory_dependent_predicates_get_low_mass() {
        let t = dependent_table();
        let bn = BayesNetEstimator::new(&t, 64);
        // a=1 AND b=2 never co-occurs.
        let q = Query::new(vec![Predicate::eq(0, 1i64), Predicate::eq(1, 2i64)]);
        assert!(bn.estimate_selectivity(&q) < 0.01);
    }

    #[test]
    fn unconstrained_query_is_one() {
        let t = dependent_table();
        let bn = BayesNetEstimator::new(&t, 64);
        let sel = bn.estimate_selectivity(&Query::default());
        assert!((sel - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binning_covers_domain() {
        let b = Binning::new(2101, 128);
        let mut covered = 0u32;
        for bin in 0..b.nbins {
            let (lo, hi) = b.bin_range(bin);
            covered += hi - lo;
            for c in lo..hi {
                assert_eq!(b.bin_of(c), bin, "code {c}");
            }
        }
        assert_eq!(covered, 2101);
    }

    #[test]
    fn range_queries_use_partial_bins() {
        let n = 2000i64;
        let t = Table::from_columns(
            "t",
            vec![("x".into(), (0..n).map(|v| Value::Int(v % 500)).collect())],
        );
        let bn = BayesNetEstimator::new(&t, 32);
        let q = Query::new(vec![Predicate::le(0, 124i64)]);
        let sel = bn.estimate_selectivity(&q);
        assert!((sel - 0.25).abs() < 0.05, "sel {sel}");
    }
}
