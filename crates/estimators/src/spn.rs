//! A sum-product-network estimator in the spirit of DeepDB's RSPNs
//! (paper §5.1.4, method 6).
//!
//! Structure learning recursively alternates:
//! * **column splits** — partition the attributes into groups that look
//!   pairwise independent (normalized mutual information below a
//!   threshold), producing a *product* node;
//! * **row splits** — 2-means clustering of the rows, producing a weighted
//!   *sum* node;
//! * **leaves** — per-code histograms over a single attribute.
//!
//! Estimation evaluates `P(X ∈ R)` bottom-up: leaves return in-region
//! histogram mass, product nodes multiply, sum nodes mix. This reproduces
//! DeepDB's characteristic behaviour in the paper: excellent when the
//! independence structure is real (Census, Kddcup98), degraded when
//! attributes are strongly correlated (DMV).

use uae_data::Table;
use uae_query::{CardEstimator, EstimatorFamily, Query, QueryRegion, Region};

/// SPN hyper-parameters.
#[derive(Debug, Clone)]
pub struct SpnConfig {
    /// Stop row-splitting below this many rows.
    pub min_rows: usize,
    /// Normalized-MI threshold below which two columns count as independent.
    pub independence_threshold: f64,
    /// Bin count for the pairwise-dependence test.
    pub test_bins: usize,
    /// Maximum tree depth (safety bound).
    pub max_depth: usize,
}

impl Default for SpnConfig {
    fn default() -> Self {
        SpnConfig { min_rows: 256, independence_threshold: 0.03, test_bins: 10, max_depth: 16 }
    }
}

#[derive(Debug)]
enum Node {
    /// Weighted mixture over row clusters.
    Sum { weights: Vec<f64>, children: Vec<Node> },
    /// Product over independent column groups.
    Product { children: Vec<Node> },
    /// Histogram over one column's codes.
    Leaf { column: usize, freqs: Vec<f64> },
}

/// DeepDB-style SPN estimator.
#[derive(Debug)]
pub struct SpnEstimator {
    name: String,
    root: Node,
    table: Table,
    total_rows: usize,
    num_scalars: usize,
}

impl SpnEstimator {
    /// Learn an SPN over the table.
    pub fn new(table: &Table, cfg: &SpnConfig) -> Self {
        let rows: Vec<u32> = (0..table.num_rows() as u32).collect();
        let cols: Vec<usize> = (0..table.num_cols()).collect();
        let root = learn(table, &rows, &cols, cfg, 0);
        let num_scalars = count_scalars(&root);
        SpnEstimator {
            name: "DeepDB".to_owned(),
            root,
            table: table.clone(),
            total_rows: table.num_rows(),
            num_scalars,
        }
    }

    /// Estimated expectation `E[ Π_c w_c(X_c) · 1[X ∈ R] ]` — selectivity
    /// with optional per-column importance weights (`weights[c][code]`).
    /// Used by join estimation for NeuroCard-style fanout scaling.
    pub fn estimate_constrained(&self, query: &Query, weights: &[Option<Vec<f64>>]) -> f64 {
        assert_eq!(weights.len(), self.table.num_cols());
        let qr = QueryRegion::build(&self.table, query);
        if qr.is_empty() {
            return 0.0;
        }
        let regions: Vec<Option<&Region>> =
            (0..self.table.num_cols()).map(|c| qr.column(c)).collect();
        eval(&self.root, &regions, weights).max(0.0)
    }

    /// Nodes in the learned structure (diagnostics).
    pub fn num_scalars(&self) -> usize {
        self.num_scalars
    }
}

fn learn(table: &Table, rows: &[u32], cols: &[usize], cfg: &SpnConfig, depth: usize) -> Node {
    if cols.len() == 1 {
        return leaf(table, rows, cols[0]);
    }
    // Attempt a column split via pairwise dependence components.
    if depth < cfg.max_depth {
        let comps = independent_components(table, rows, cols, cfg);
        if comps.len() > 1 {
            let children = comps.iter().map(|g| learn(table, rows, g, cfg, depth + 1)).collect();
            return Node::Product { children };
        }
    }
    // Row split via 2-means, unless too small or too deep. Row splits may
    // repeat down the tree (clusters keep shrinking, so min_rows plus
    // max_depth guarantee termination).
    if rows.len() >= cfg.min_rows && depth < cfg.max_depth {
        if let Some((a, b)) = two_means(table, rows, cols) {
            let wa = a.len() as f64 / rows.len() as f64;
            let children = vec![
                learn(table, &a, cols, cfg, depth + 1),
                learn(table, &b, cols, cfg, depth + 1),
            ];
            return Node::Sum { weights: vec![wa, 1.0 - wa], children };
        }
    }
    // Fallback: force independence (naive factorization terminates).
    let children = cols.iter().map(|&c| leaf(table, rows, c)).collect();
    Node::Product { children }
}

fn leaf(table: &Table, rows: &[u32], column: usize) -> Node {
    let col = table.column(column);
    let mut freqs = vec![0.0f64; col.domain_size()];
    for &r in rows {
        freqs[col.code(r as usize) as usize] += 1.0;
    }
    let total = rows.len().max(1) as f64;
    for f in &mut freqs {
        *f /= total;
    }
    Node::Leaf { column, freqs }
}

/// Connected components of the "dependent" graph over `cols`.
fn independent_components(
    table: &Table,
    rows: &[u32],
    cols: &[usize],
    cfg: &SpnConfig,
) -> Vec<Vec<usize>> {
    let k = cols.len();
    let binned: Vec<Vec<u32>> = cols
        .iter()
        .map(|&c| {
            let col = table.column(c);
            let d = col.domain_size() as u64;
            let nb = cfg.test_bins.min(col.domain_size()) as u64;
            rows.iter().map(|&r| ((col.code(r as usize) as u64 * nb) / d) as u32).collect()
        })
        .collect();
    let mut dsu: Vec<usize> = (0..k).collect();
    fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
        if dsu[x] != x {
            let r = find(dsu, dsu[x]);
            dsu[x] = r;
        }
        dsu[x]
    }
    for i in 0..k {
        for j in i + 1..k {
            if normalized_mi(&binned[i], &binned[j], cfg.test_bins) > cfg.independence_threshold {
                let (a, b) = (find(&mut dsu, i), find(&mut dsu, j));
                dsu[a] = b;
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &col) in cols.iter().enumerate().take(k) {
        let r = find(&mut dsu, i);
        groups[r].push(col);
    }
    groups.into_iter().filter(|g| !g.is_empty()).collect()
}

fn normalized_mi(xs: &[u32], ys: &[u32], bins: usize) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mut joint = vec![0u32; bins * bins];
    for i in 0..n {
        joint[xs[i] as usize * bins + ys[i] as usize] += 1;
    }
    let mut px = vec![0.0f64; bins];
    let mut py = vec![0.0f64; bins];
    for x in 0..bins {
        for y in 0..bins {
            let p = joint[x * bins + y] as f64 / n as f64;
            px[x] += p;
            py[y] += p;
        }
    }
    let ent = |ps: &[f64]| ps.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum::<f64>();
    let (hx, hy) = (ent(&px), ent(&py));
    if hx.min(hy) < 1e-9 {
        return 0.0;
    }
    let mut mi = 0.0f64;
    for x in 0..bins {
        for y in 0..bins {
            let p = joint[x * bins + y] as f64 / n as f64;
            if p > 0.0 && px[x] > 0.0 && py[y] > 0.0 {
                mi += p * (p / (px[x] * py[y])).ln();
            }
        }
    }
    mi / hx.min(hy)
}

/// 2-means over rows (features: normalized codes of `cols`); a handful of
/// Lloyd iterations is plenty for a split decision.
fn two_means(table: &Table, rows: &[u32], cols: &[usize]) -> Option<(Vec<u32>, Vec<u32>)> {
    let n = rows.len();
    if n < 4 {
        return None;
    }
    let feats: Vec<Vec<f64>> = cols
        .iter()
        .map(|&c| {
            let col = table.column(c);
            let d = (col.domain_size().max(2) - 1) as f64;
            rows.iter().map(|&r| col.code(r as usize) as f64 / d).collect()
        })
        .collect();
    let k = cols.len();
    // Deterministic init: first and most-distant-from-first points.
    let mut c0: Vec<f64> = (0..k).map(|f| feats[f][0]).collect();
    let far = (0..n)
        .max_by(|&a, &b| {
            let da: f64 = (0..k).map(|f| (feats[f][a] - c0[f]).powi(2)).sum();
            let db: f64 = (0..k).map(|f| (feats[f][b] - c0[f]).powi(2)).sum();
            da.total_cmp(&db)
        })
        .unwrap_or(n - 1);
    let mut c1: Vec<f64> = (0..k).map(|f| feats[f][far]).collect();
    let mut assign = vec![false; n];
    for _ in 0..6 {
        for i in 0..n {
            let d0: f64 = (0..k).map(|f| (feats[f][i] - c0[f]).powi(2)).sum();
            let d1: f64 = (0..k).map(|f| (feats[f][i] - c1[f]).powi(2)).sum();
            assign[i] = d1 < d0;
        }
        let mut n0 = 0usize;
        let mut n1 = 0usize;
        let mut s0 = vec![0.0f64; k];
        let mut s1 = vec![0.0f64; k];
        for i in 0..n {
            if assign[i] {
                n1 += 1;
                for f in 0..k {
                    s1[f] += feats[f][i];
                }
            } else {
                n0 += 1;
                for f in 0..k {
                    s0[f] += feats[f][i];
                }
            }
        }
        if n0 == 0 || n1 == 0 {
            return None;
        }
        for f in 0..k {
            c0[f] = s0[f] / n0 as f64;
            c1[f] = s1[f] / n1 as f64;
        }
    }
    let a: Vec<u32> = rows.iter().zip(&assign).filter(|(_, &x)| !x).map(|(&r, _)| r).collect();
    let b: Vec<u32> = rows.iter().zip(&assign).filter(|(_, &x)| x).map(|(&r, _)| r).collect();
    if a.is_empty() || b.is_empty() {
        None
    } else {
        Some((a, b))
    }
}

fn eval(node: &Node, regions: &[Option<&Region>], col_weights: &[Option<Vec<f64>>]) -> f64 {
    match node {
        Node::Leaf { column, freqs } => {
            let w = col_weights[*column].as_deref();
            match (regions[*column], w) {
                (None, None) => 1.0,
                (Some(region), None) => region.iter_codes().map(|c| freqs[c as usize]).sum(),
                (None, Some(w)) => freqs.iter().zip(w).map(|(f, wv)| f * wv).sum(),
                (Some(region), Some(w)) => {
                    region.iter_codes().map(|c| freqs[c as usize] * w[c as usize]).sum()
                }
            }
        }
        Node::Product { children } => {
            children.iter().map(|ch| eval(ch, regions, col_weights)).product()
        }
        Node::Sum { weights, children } => {
            weights.iter().zip(children).map(|(w, ch)| w * eval(ch, regions, col_weights)).sum()
        }
    }
}

fn count_scalars(node: &Node) -> usize {
    match node {
        Node::Leaf { freqs, .. } => freqs.len(),
        Node::Product { children } => children.iter().map(count_scalars).sum::<usize>() + 1,
        Node::Sum { weights, children } => {
            weights.len() + children.iter().map(count_scalars).sum::<usize>()
        }
    }
}

impl CardEstimator for SpnEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.total_rows as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        let none = vec![None; self.table.num_cols()];
        self.estimate_constrained(query, &none)
    }

    fn size_bytes(&self) -> usize {
        self.num_scalars * 8
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Spn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::Predicate;

    #[test]
    fn independent_columns_split_into_product() {
        // Two genuinely independent columns.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 3000;
        let t = Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..n).map(|_| Value::Int(rng.random_range(0..10))).collect()),
                ("b".into(), (0..n).map(|_| Value::Int(rng.random_range(0..8))).collect()),
            ],
        );
        let spn = SpnEstimator::new(&t, &SpnConfig::default());
        assert!(matches!(spn.root, Node::Product { .. }), "independent cols → product root");
        // P(a<5, b=3) ≈ 0.5 * 0.125.
        let q = Query::new(vec![Predicate::le(0, 4i64), Predicate::eq(1, 3i64)]);
        let sel = spn.estimate_selectivity(&q);
        assert!((sel - 0.0625).abs() < 0.02, "sel {sel}");
    }

    #[test]
    fn correlated_columns_fall_back_to_sum_nodes() {
        // b = a exactly: a product root would be wrong.
        let n = 3000i64;
        let t = Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..n).map(|v| Value::Int(v % 10)).collect()),
                ("b".into(), (0..n).map(|v| Value::Int(v % 10)).collect()),
            ],
        );
        let spn = SpnEstimator::new(&t, &SpnConfig::default());
        let q = Query::new(vec![Predicate::eq(0, 3i64), Predicate::eq(1, 3i64)]);
        let sel = spn.estimate_selectivity(&q);
        // True P = 0.1; AVI would say 0.01. SPN should land well above AVI.
        assert!(sel > 0.03, "correlated sel {sel} collapsed to independence");
    }

    #[test]
    fn unconstrained_evaluates_to_one() {
        let n = 1000i64;
        let t = Table::from_columns(
            "t",
            vec![("a".into(), (0..n).map(|v| Value::Int(v % 7)).collect())],
        );
        let spn = SpnEstimator::new(&t, &SpnConfig::default());
        assert!((spn.estimate_selectivity(&Query::default()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_mass_matches_marginal() {
        let n = 1000i64;
        let t = Table::from_columns(
            "t",
            vec![("a".into(), (0..n).map(|v| Value::Int(v % 4)).collect())],
        );
        let spn = SpnEstimator::new(&t, &SpnConfig::default());
        let q = Query::new(vec![Predicate::eq(0, 2i64)]);
        assert!((spn.estimate_selectivity(&q) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn size_grows_with_structure() {
        let n = 2000i64;
        let t = Table::from_columns(
            "t",
            vec![
                ("a".into(), (0..n).map(|v| Value::Int(v % 16)).collect()),
                ("b".into(), (0..n).map(|v| Value::Int((v % 16) / 2)).collect()),
                ("c".into(), (0..n).map(|v| Value::Int((v * 31 + 7) % 9)).collect()),
            ],
        );
        let spn = SpnEstimator::new(&t, &SpnConfig::default());
        assert!(spn.size_bytes() > 0);
        assert!(spn.num_scalars() >= 16 + 8 + 9);
    }
}
