//! Workload-aware estimator routing — the "model fleet".
//!
//! The paper's finding (6) — the autoregressive model degrades at the tail
//! on high-dimensional, mutually-independent data while SPN-style models
//! thrive — means no single estimator dominates every workload regime.
//! This module turns the nine baselines from a one-rung fallback into a
//! first-class **fleet**: a [`Router`] featurizes each query's shape
//! (dimensionality, filter count, selectivity class, touched-column
//! correlation from [`uae_data::stats::ncc`]) and a [`RoutePolicy`] —
//! hand-tuned thresholds or a policy calibrated on a held-out workload —
//! picks which backend answers.
//!
//! Routing decisions are **pure functions** of the featurizer, the policy
//! and the query: no RNG, no clocks, no shared counters. Replaying the
//! same workload through the same router yields bit-identical decisions,
//! which the router determinism tests and the CI routing drill rely on.
//!
//! Routed answers are *deliberate choices*, not degradations: they carry
//! [`EstimateSource::Routed`] with the backend's family tag, and the
//! serving front-end counts them in its `routed_requests`, never in
//! `fallbacks`. [`serve_batch`] is the one routed serving path.

use std::collections::BTreeMap;
use std::sync::Arc;

use uae_data::stats::ncc;
use uae_data::Table;
use uae_estimators::HistogramEstimator;
use uae_query::{
    q_error, CardEstimator, EstimatorFamily, LabeledQuery, PredOp, Query, QueryRegion,
};

use crate::estimator::Uae;
use crate::serve::{check_columns, classify, Estimate, EstimateError, EstimateSource, Validation};

/// Rank-grid bins for the pairwise [`ncc`] correlation matrix.
const CORR_BINS: usize = 16;
/// AVI selectivity hint below which a query is classed `Narrow`.
const NARROW_SEL: f64 = 1e-3;
/// AVI selectivity hint at or above which a query is classed `Wide`.
const WIDE_SEL: f64 = 0.2;
/// Minimum held-out queries a shape class needs before calibration
/// trusts a per-class winner over the global one.
const MIN_CLASS_SUPPORT: usize = 8;
/// A per-class override must shrink the class median q-error to at most
/// this fraction of the global winner's class median (guards against
/// noise flipping classes on thin evidence).
const MIN_GAIN: f64 = 0.95;

/// Thresholds of the query-shape featurizer and the threshold policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Touched-column correlation at or above which a query is considered
    /// to hit a correlated subspace (AVI-style independence products
    /// become unsafe).
    pub high_corr: f64,
    /// Column count at or above which the table counts as
    /// high-dimensional (the kddcup-like regime).
    pub wide_table: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig { high_corr: 0.3, wide_table: 30 }
    }
}

/// Coarse selectivity class of a query, from the featurizer's AVI hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SelClass {
    /// Provably empty region (selectivity exactly 0).
    Empty,
    /// AVI hint below 1e-3 — the tail regime.
    Narrow,
    /// Between the narrow and wide bounds.
    Medium,
    /// AVI hint at or above 0.2 — broad scans.
    Wide,
}

/// The featurized shape of one query — everything a policy may key on.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryShape {
    /// Number of distinct constrained columns.
    pub filter_count: usize,
    /// Of those, how many are equality (point) constraints.
    pub eq_filters: usize,
    /// Table dimensionality (column count).
    pub dims: usize,
    /// Cheap AVI selectivity hint (product of per-column histogram
    /// fractions) — an upper-bound-ish prior, not an estimate.
    pub sel_hint: f64,
    /// Discretized selectivity class of the hint.
    pub sel_class: SelClass,
    /// Maximum pairwise normalized cross-column correlation among the
    /// touched columns (0 when fewer than two are constrained).
    pub max_corr: f64,
}

impl QueryShape {
    /// Discretized shape-class id the calibrated policy keys on:
    /// `filter band (3) × sel class (4) × correlated (2) × wide table (2)`
    /// → 48 classes.
    pub fn class(&self, cfg: &RouteConfig) -> u16 {
        let filters = match self.filter_count {
            0..=1 => 0u16,
            2..=3 => 1,
            _ => 2,
        };
        let sel = match self.sel_class {
            SelClass::Empty => 0u16,
            SelClass::Narrow => 1,
            SelClass::Medium => 2,
            SelClass::Wide => 3,
        };
        let corr = u16::from(self.max_corr >= cfg.high_corr);
        let wide = u16::from(self.dims >= cfg.wide_table);
        ((filters * 4 + sel) * 2 + corr) * 2 + wide
    }
}

/// Precomputed per-table shape features: the pairwise [`ncc`] correlation
/// matrix and a small AVI histogram for the selectivity hint.
#[derive(Debug)]
pub struct RouteFeaturizer {
    table: Table,
    hint: HistogramEstimator,
    /// Upper-triangular `d × d` pairwise correlation, row-major.
    corr: Vec<f64>,
    cfg: RouteConfig,
}

impl RouteFeaturizer {
    /// Build the featurizer over `table`: `O(d²·n)` for the correlation
    /// matrix, done once per fleet.
    pub fn new(table: &Table, cfg: RouteConfig) -> Self {
        let d = table.num_cols();
        let mut corr = vec![0.0f64; d * d];
        for a in 0..d {
            for b in (a + 1)..d {
                let c = ncc(table.column(a), table.column(b), CORR_BINS);
                corr[a * d + b] = c;
                corr[b * d + a] = c;
            }
        }
        RouteFeaturizer {
            table: table.clone(),
            hint: HistogramEstimator::new(table, 32),
            corr,
            cfg,
        }
    }

    /// The table the featurizer (and every fleet backend) was built over.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The featurizer's thresholds.
    pub fn config(&self) -> &RouteConfig {
        &self.cfg
    }

    /// Pairwise correlation between two columns (symmetric, `[0, 1]`).
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        self.corr[a * self.table.num_cols() + b]
    }

    /// Featurize one query. Pure: same query ⇒ same shape, always.
    pub fn shape(&self, query: &Query) -> QueryShape {
        let dims = self.table.num_cols();
        let region = QueryRegion::build(&self.table, query);
        let touched: Vec<usize> =
            (0..dims).filter(|&c| region.column(c).is_some_and(|r| !r.is_all())).collect();
        let eq_filters = query
            .predicates
            .iter()
            .filter(|p| p.column < dims && matches!(p.op, PredOp::Eq))
            .map(|p| p.column)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let mut max_corr = 0.0f64;
        for (i, &a) in touched.iter().enumerate() {
            for &b in &touched[i + 1..] {
                max_corr = max_corr.max(self.correlation(a, b));
            }
        }
        let (sel_hint, sel_class) = if region.is_empty() {
            (0.0, SelClass::Empty)
        } else {
            let hint = self.hint.estimate_selectivity(query);
            let class = if hint < NARROW_SEL {
                SelClass::Narrow
            } else if hint >= WIDE_SEL {
                SelClass::Wide
            } else {
                SelClass::Medium
            };
            (hint, class)
        };
        QueryShape { filter_count: touched.len(), eq_filters, dims, sel_hint, sel_class, max_corr }
    }
}

/// Which estimator answers: the primary deep model or fleet backend `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// The primary [`Uae`] (through its full serving cascade).
    Primary,
    /// Fleet backend at this index in the router's backend list.
    Backend(usize),
}

/// The routing policy: either hand-tuned shape thresholds or a per-class
/// table calibrated on a held-out workload. Both are pure functions of
/// the query shape.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutePolicy {
    /// Hand rules from the paper's regime findings: high-dimensional
    /// low-correlation shapes go to the named backend (SPNs/AVI thrive
    /// where the autoregressive tail degrades); everything else goes to
    /// the primary.
    Threshold {
        /// Backend for independent high-dimensional shapes.
        independent_backend: usize,
    },
    /// Per-shape-class winners measured on a held-out workload.
    Calibrated {
        /// Choice for classes with no (or thin) calibration evidence.
        default: BackendChoice,
        /// Class id → measured winner. `BTreeMap` for deterministic
        /// iteration and replayable serialization.
        by_class: BTreeMap<u16, BackendChoice>,
    },
}

impl RoutePolicy {
    /// Decide for a featurized query. Pure.
    pub fn choose(&self, shape: &QueryShape, cfg: &RouteConfig) -> BackendChoice {
        match self {
            RoutePolicy::Threshold { independent_backend } => {
                if shape.dims >= cfg.wide_table && shape.max_corr < cfg.high_corr {
                    BackendChoice::Backend(*independent_backend)
                } else {
                    BackendChoice::Primary
                }
            }
            RoutePolicy::Calibrated { default, by_class } => {
                by_class.get(&shape.class(cfg)).copied().unwrap_or(*default)
            }
        }
    }
}

/// One routing decision, with full provenance for replay and telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// Who answers.
    pub choice: BackendChoice,
    /// The discretized shape class the policy keyed on.
    pub class: u16,
    /// The featurized shape itself.
    pub shape: QueryShape,
}

/// A shape-aware router over a fleet of baseline backends.
///
/// The router does **not** own the primary [`Uae`]: entry points take the
/// primary per call, so a server registry can hot-swap the deep model
/// (online learning promotions) without rebuilding the fleet.
pub struct Router {
    featurizer: RouteFeaturizer,
    backends: Vec<Arc<dyn CardEstimator>>,
    policy: RoutePolicy,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field(
                "backends",
                &self.backends.iter().map(|b| b.name().to_owned()).collect::<Vec<_>>(),
            )
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// A router with an explicit (pre-built) policy.
    pub fn new(
        featurizer: RouteFeaturizer,
        backends: Vec<Arc<dyn CardEstimator>>,
        policy: RoutePolicy,
    ) -> Self {
        if let RoutePolicy::Threshold { independent_backend } = policy {
            assert!(independent_backend < backends.len(), "threshold backend out of range");
        }
        Router { featurizer, backends, policy }
    }

    /// The hand-rule policy over `backends`, preferring the first
    /// histogram/SPN-family backend for independent high-dimensional
    /// shapes (the regime where the autoregressive tail degrades).
    pub fn threshold(
        table: &Table,
        backends: Vec<Arc<dyn CardEstimator>>,
        cfg: RouteConfig,
    ) -> Self {
        assert!(!backends.is_empty(), "a fleet needs at least one backend");
        let independent_backend = backends
            .iter()
            .position(|b| matches!(b.family(), EstimatorFamily::Histogram | EstimatorFamily::Spn))
            .unwrap_or(0);
        Router::new(
            RouteFeaturizer::new(table, cfg),
            backends,
            RoutePolicy::Threshold { independent_backend },
        )
    }

    /// Calibrate a per-class policy on a held-out workload: every
    /// candidate (the primary plus each backend) estimates the whole
    /// holdout, the global winner (blended median q-error, ties to the
    /// earliest candidate) becomes the default, and a class with at least
    /// 8 queries overrides it only when its own winner's class median is
    /// at most 0.95 of the default's.
    ///
    /// Deterministic: candidates are scanned in fixed order and classes
    /// in ascending id. (The primary's RNG advances while estimating the
    /// holdout, as any serving of those queries would.)
    pub fn calibrate(
        table: &Table,
        primary: &dyn CardEstimator,
        backends: Vec<Arc<dyn CardEstimator>>,
        holdout: &[LabeledQuery],
        cfg: RouteConfig,
    ) -> Self {
        assert!(!backends.is_empty(), "a fleet needs at least one backend");
        assert!(!holdout.is_empty(), "calibration needs a held-out workload");
        let featurizer = RouteFeaturizer::new(table, cfg);
        let queries: Vec<Query> = holdout.iter().map(|lq| lq.query.clone()).collect();
        let truths: Vec<f64> = holdout.iter().map(|lq| lq.cardinality as f64).collect();

        // errs[candidate][query]; candidate 0 is the primary.
        let mut errs: Vec<Vec<f64>> = Vec::with_capacity(backends.len() + 1);
        for cand in std::iter::once(primary as &dyn CardEstimator)
            .chain(backends.iter().map(|b| b.as_ref()))
        {
            let ests = cand.estimate_cards(&queries);
            errs.push(truths.iter().zip(&ests).map(|(&t, &e)| q_error(t, e)).collect());
        }

        let classes: Vec<u16> =
            queries.iter().map(|q| featurizer.shape(q).class(featurizer.config())).collect();
        let all: Vec<usize> = (0..queries.len()).collect();
        let default_idx = argmin_median(&errs, &all);
        let default = candidate_choice(default_idx);

        let mut by_class: BTreeMap<u16, BackendChoice> = BTreeMap::new();
        let mut members: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
        for (i, &c) in classes.iter().enumerate() {
            members.entry(c).or_default().push(i);
        }
        for (&class, idxs) in &members {
            if idxs.len() < MIN_CLASS_SUPPORT {
                continue;
            }
            let winner = argmin_median(&errs, idxs);
            if winner == default_idx {
                continue;
            }
            let winner_med = median(idxs.iter().map(|&i| errs[winner][i]));
            let default_med = median(idxs.iter().map(|&i| errs[default_idx][i]));
            if winner_med <= default_med * MIN_GAIN {
                by_class.insert(class, candidate_choice(winner));
            }
        }
        Router::new(featurizer, backends, RoutePolicy::Calibrated { default, by_class })
    }

    /// The featurizer (shape inspection, table access).
    pub fn featurizer(&self) -> &RouteFeaturizer {
        &self.featurizer
    }

    /// The fleet backends, in decision-index order.
    pub fn backends(&self) -> &[Arc<dyn CardEstimator>] {
        &self.backends
    }

    /// The active policy.
    pub fn policy(&self) -> &RoutePolicy {
        &self.policy
    }

    /// Route one query. Pure and replayable: no RNG, no state.
    pub fn decide(&self, query: &Query) -> RouteDecision {
        let shape = self.featurizer.shape(query);
        let class = shape.class(self.featurizer.config());
        let choice = self.policy.choose(&shape, self.featurizer.config());
        RouteDecision { choice, class, shape }
    }

    /// Route a batch (convenience for partitioned execution).
    pub fn decide_batch(&self, queries: &[Query]) -> Vec<RouteDecision> {
        queries.iter().map(|q| self.decide(q)).collect()
    }

    /// Answer `query` with fleet backend `i`, producing a full serving
    /// [`Estimate`] tagged [`EstimateSource::Routed`]. The same
    /// validation contract as the primary cascade applies: unknown
    /// columns are a typed error, empty/trivial regions answer exactly.
    pub fn estimate_routed(&self, i: usize, query: &Query) -> Result<Estimate, EstimateError> {
        let table = self.featurizer.table();
        check_columns(table, query)?;
        let n = table.num_rows() as f64;
        match classify(table, query) {
            Validation::Empty => Ok(Estimate {
                selectivity: 0.0,
                card: 0.0,
                source: EstimateSource::Validation,
                retried: false,
                clamped: false,
            }),
            Validation::Trivial => Ok(Estimate {
                selectivity: 1.0,
                card: n,
                source: EstimateSource::Validation,
                retried: false,
                clamped: false,
            }),
            Validation::Sample => {
                let backend = &self.backends[i];
                let raw = backend.estimate_selectivity(query);
                let sel = if raw.is_finite() { raw.clamp(0.0, 1.0) } else { 0.0 };
                Ok(Estimate {
                    selectivity: sel,
                    card: sel * n,
                    source: EstimateSource::Routed(backend.family()),
                    retried: false,
                    clamped: sel != raw,
                })
            }
        }
    }
}

/// Candidate index (0 = primary) → a [`BackendChoice`].
fn candidate_choice(idx: usize) -> BackendChoice {
    if idx == 0 {
        BackendChoice::Primary
    } else {
        BackendChoice::Backend(idx - 1)
    }
}

/// Median of the values (empty ⇒ `INFINITY`, so empty candidates lose).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::INFINITY;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Candidate with the smallest median q-error over `idxs` (ties break to
/// the earliest candidate — the primary first, then backends in order).
fn argmin_median(errs: &[Vec<f64>], idxs: &[usize]) -> usize {
    let mut best = 0usize;
    let mut best_med = f64::INFINITY;
    for (cand, per_query) in errs.iter().enumerate() {
        let med = median(idxs.iter().map(|&i| per_query[i]));
        if med < best_med {
            best_med = med;
            best = cand;
        }
    }
    best
}

/// One reply of [`serve_batch`]: the estimate (or typed error) plus,
/// when a fleet backend answered it, the `(backend index, shape class)`
/// it was routed to.
pub type RoutedReply = (Result<Estimate, EstimateError>, Option<(usize, u16)>);

/// Serve a batch through `primary`, routed by `router` when one is set —
/// the one routed serving path.
///
/// Without a router this is exactly one [`Uae::try_estimate_cards_with`]
/// call. With one, [`Router::decide`] partitions the batch: the primary
/// subset goes, in batch order, through one `try_estimate_cards_with`
/// call (so the primary's RNG stream advances exactly as it would for
/// that subset alone), and every other query is answered by
/// [`Router::estimate_routed`]. The routing tag is `Some` only when the
/// reply's source is [`EstimateSource::Routed`]: a validation shortcut
/// or a rejected query on a routed decision was not answered by the
/// backend.
pub fn serve_batch(
    primary: &Uae,
    router: Option<&Router>,
    queries: &[Query],
    samples: Option<usize>,
) -> Vec<RoutedReply> {
    let Some(router) = router else {
        return primary
            .try_estimate_cards_with(queries, samples)
            .into_iter()
            .map(|r| (r, None))
            .collect();
    };
    let decisions = router.decide_batch(queries);
    let primary_queries: Vec<Query> = decisions
        .iter()
        .zip(queries)
        .filter(|(d, _)| d.choice == BackendChoice::Primary)
        .map(|(_, q)| q.clone())
        .collect();
    let mut primary_replies =
        primary.try_estimate_cards_with(&primary_queries, samples).into_iter();
    decisions
        .iter()
        .zip(queries)
        .map(|(d, q)| match d.choice {
            BackendChoice::Primary => {
                (primary_replies.next().expect("one reply per primary query"), None)
            }
            BackendChoice::Backend(b) => {
                let reply = router.estimate_routed(b, q);
                let tag = matches!(&reply, Ok(e) if e.source.is_routed()).then_some((b, d.class));
                (reply, tag)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;
    use uae_query::Predicate;

    fn corr_table() -> Table {
        // y == x (perfectly correlated); z independent.
        Table::from_columns(
            "t",
            vec![
                ("x".into(), (0..400i64).map(|v| Value::Int(v % 20)).collect()),
                ("y".into(), (0..400i64).map(|v| Value::Int(v % 20)).collect()),
                ("z".into(), (0..400i64).map(|v| Value::Int((v * 7919) % 13)).collect()),
            ],
        )
    }

    #[test]
    fn featurizer_sees_correlation_and_filters() {
        let t = corr_table();
        let f = RouteFeaturizer::new(&t, RouteConfig::default());
        assert!(f.correlation(0, 1) > 0.9, "x↔y correlation {}", f.correlation(0, 1));
        assert!(f.correlation(0, 2) < 0.3, "x↔z correlation {}", f.correlation(0, 2));

        let q = Query::new(vec![Predicate::eq(0, 3i64), Predicate::le(1, 9i64)]);
        let s = f.shape(&q);
        assert_eq!(s.filter_count, 2);
        assert_eq!(s.eq_filters, 1);
        assert_eq!(s.dims, 3);
        assert!(s.max_corr > 0.9);

        // Untouched-pair correlation must not leak into the shape.
        let q1 = Query::new(vec![Predicate::eq(2, 3i64)]);
        assert_eq!(f.shape(&q1).max_corr, 0.0);
    }

    #[test]
    fn shape_class_is_stable_and_bounded() {
        let t = corr_table();
        let f = RouteFeaturizer::new(&t, RouteConfig::default());
        let q = Query::new(vec![Predicate::le(0, 9i64)]);
        let s = f.shape(&q);
        let c = s.class(f.config());
        assert_eq!(c, f.shape(&q).class(f.config()), "class must be pure");
        assert!(c < 48);
    }

    #[test]
    fn threshold_policy_prefers_primary_on_narrow_tables() {
        let t = corr_table();
        let hist: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
        let router = Router::threshold(&t, vec![hist], RouteConfig::default());
        // 3 columns < wide_table=30 ⇒ primary, regardless of correlation.
        let d = router.decide(&Query::new(vec![Predicate::eq(2, 1i64)]));
        assert_eq!(d.choice, BackendChoice::Primary);
    }

    #[test]
    fn routed_estimates_carry_source_and_validate() {
        let t = corr_table();
        let hist: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
        let router = Router::threshold(&t, vec![hist], RouteConfig::default());
        let e = router.estimate_routed(0, &Query::new(vec![Predicate::eq(0, 3i64)])).unwrap();
        assert_eq!(e.source, EstimateSource::Routed(EstimatorFamily::Histogram));
        assert!(e.card > 0.0);

        let err = router.estimate_routed(0, &Query::new(vec![Predicate::eq(9, 1i64)]));
        assert!(matches!(err, Err(EstimateError::UnknownColumn { column: 9, .. })));

        let empty = router.estimate_routed(0, &Query::new(vec![Predicate::eq(0, 999i64)])).unwrap();
        assert_eq!(empty.source, EstimateSource::Validation);
        assert_eq!(empty.card, 0.0);
    }
}
