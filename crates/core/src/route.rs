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
//! [`EstimateSource::Routed`] with the backend's family tag and count in
//! [`ServeStats::routed`], never in `fallbacks`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use uae_data::stats::ncc;
use uae_data::Table;
use uae_estimators::HistogramEstimator;
use uae_query::{
    q_error, CardEstimator, EstimatorFamily, LabeledQuery, PredOp, Query, QueryRegion,
};

use crate::estimator::Uae;
use crate::serve::{check_columns, classify, Estimate, EstimateError, EstimateSource, Validation};
use crate::telemetry::{Event, ServeStats, Sink};

/// Thresholds of the query-shape featurizer and the calibration procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Rank-grid bins for the pairwise [`ncc`] correlation matrix.
    pub corr_bins: usize,
    /// Touched-column correlation at or above which a query is considered
    /// to hit a correlated subspace (AVI-style independence products
    /// become unsafe).
    pub high_corr: f64,
    /// Column count at or above which the table counts as
    /// high-dimensional (the kddcup-like regime).
    pub wide_table: usize,
    /// AVI selectivity hint below which a query is classed `Narrow`.
    pub narrow_sel: f64,
    /// AVI selectivity hint at or above which a query is classed `Wide`.
    pub wide_sel: f64,
    /// Minimum held-out queries a shape class needs before calibration
    /// trusts a per-class winner over the global one.
    pub min_class_support: usize,
    /// A per-class override must shrink the class median q-error to at
    /// most this fraction of the global winner's class median (guards
    /// against noise flipping classes on thin evidence).
    pub min_gain: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            corr_bins: 16,
            high_corr: 0.3,
            wide_table: 30,
            narrow_sel: 1e-3,
            wide_sel: 0.2,
            min_class_support: 8,
            min_gain: 0.95,
        }
    }
}

/// Coarse selectivity class of a query, from the featurizer's AVI hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SelClass {
    /// Provably empty region (selectivity exactly 0).
    Empty,
    /// AVI hint below `narrow_sel` — the tail regime.
    Narrow,
    /// Between `narrow_sel` and `wide_sel`.
    Medium,
    /// At or above `wide_sel` — broad scans.
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
                let c = ncc(table.column(a), table.column(b), cfg.corr_bins);
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
            let class = if hint < self.cfg.narrow_sel {
                SelClass::Narrow
            } else if hint >= self.cfg.wide_sel {
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
    /// `min_class_support` queries overrides it only when its own winner
    /// beats the default's class median by the configured gain.
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
        let cfg_ref = featurizer.config();
        for (&class, idxs) in &members {
            if idxs.len() < cfg_ref.min_class_support {
                continue;
            }
            let winner = argmin_median(&errs, idxs);
            if winner == default_idx {
                continue;
            }
            let winner_med = median(idxs.iter().map(|&i| errs[winner][i]));
            let default_med = median(idxs.iter().map(|&i| errs[default_idx][i]));
            if winner_med <= default_med * cfg_ref.min_gain {
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

/// A primary [`Uae`] plus a [`Router`] bundled behind [`CardEstimator`] —
/// the whole fleet as one estimator, for benchmarks, evaluation and
/// standalone serving. Keeps fleet-level [`ServeStats`] (`routed` counts
/// here, never in `fallbacks`) and emits [`Event::Routed`] to an
/// attached sink.
pub struct RoutedFleet {
    name: String,
    primary: Arc<Uae>,
    router: Arc<Router>,
    serve: Mutex<FleetServe>,
}

#[derive(Default)]
struct FleetServe {
    stats: ServeStats,
    sink: Option<Box<dyn Sink>>,
}

impl RoutedFleet {
    /// Bundle a primary model and a router into one estimator.
    pub fn new(primary: Arc<Uae>, router: Arc<Router>) -> Self {
        RoutedFleet {
            name: "UAE-fleet".to_owned(),
            primary,
            router,
            serve: Mutex::new(FleetServe::default()),
        }
    }

    /// The router (decision replay, backend inspection).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The primary deep model.
    pub fn primary(&self) -> &Arc<Uae> {
        &self.primary
    }

    /// Fleet-level serving counters. `served`/`rejected`/`routed` count
    /// every query through the fleet; cascade-internal counters (retries,
    /// fallbacks) live on the primary's own [`Uae::serve_stats`].
    pub fn serve_stats(&self) -> ServeStats {
        self.serve.lock().stats.clone()
    }

    /// Attach a sink receiving [`Event::Routed`] for every query sent to
    /// a fleet backend.
    pub fn set_sink(&self, sink: Box<dyn Sink>) {
        self.serve.lock().sink = Some(sink);
    }

    /// Detach the sink (dropping a JSONL sink flushes it).
    pub fn take_sink(&self) -> Option<Box<dyn Sink>> {
        self.serve.lock().sink.take()
    }

    /// Serve a batch through the fleet: every query is routed, the
    /// primary's subset goes through its batched cascade (preserving its
    /// one-draw-per-query RNG contract for that subset), and backend
    /// queries answer directly with [`EstimateSource::Routed`] tags.
    pub fn try_estimate_cards(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        let decisions = self.router.decide_batch(queries);
        let mut primary_idx: Vec<usize> = Vec::new();
        let mut primary_queries: Vec<Query> = Vec::new();
        for (i, d) in decisions.iter().enumerate() {
            if d.choice == BackendChoice::Primary {
                primary_idx.push(i);
                primary_queries.push(queries[i].clone());
            }
        }
        let primary_results = self.primary.try_estimate_cards(&primary_queries);
        let mut out: Vec<Option<Result<Estimate, EstimateError>>> = vec![None; queries.len()];
        for (slot, res) in primary_idx.into_iter().zip(primary_results) {
            out[slot] = Some(res);
        }
        let mut serve = self.serve.lock();
        for (i, d) in decisions.iter().enumerate() {
            let index = serve.stats.served;
            serve.stats.served += 1;
            if let BackendChoice::Backend(b) = d.choice {
                let res = self.router.estimate_routed(b, &queries[i]);
                match &res {
                    Ok(e) if e.source.is_routed() => {
                        serve.stats.routed += 1;
                        if e.clamped {
                            serve.stats.clamped += 1;
                        }
                        let event = Event::Routed {
                            index,
                            backend: self.router.backends()[b].name().to_owned(),
                            family: self.router.backends()[b].family().label(),
                            class: d.class,
                        };
                        if let Some(sink) = serve.sink.as_mut() {
                            sink.emit(&event);
                        }
                    }
                    Ok(_) => {
                        // Validation shortcut: counted as served only.
                    }
                    Err(_) => serve.stats.rejected += 1,
                }
                out[i] = Some(res);
            }
        }
        out.into_iter().map(|r| r.expect("every query answered")).collect()
    }

    /// Serve one query (routing still applies).
    pub fn try_estimate_card(&self, query: &Query) -> Result<Estimate, EstimateError> {
        self.try_estimate_cards(std::slice::from_ref(query)).pop().expect("one result")
    }
}

impl CardEstimator for RoutedFleet {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.router.featurizer().table().num_rows() as f64
    }

    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.try_estimate_card(query).map_or(0.0, |e| e.selectivity)
    }

    fn estimate_card(&self, query: &Query) -> f64 {
        self.try_estimate_card(query).map_or(0.0, |e| e.card)
    }

    fn estimate_cards(&self, queries: &[Query]) -> Vec<f64> {
        self.try_estimate_cards(queries).into_iter().map(|r| r.map_or(0.0, |e| e.card)).collect()
    }

    fn size_bytes(&self) -> usize {
        self.primary.size_bytes()
            + self.router.backends().iter().map(|b| b.size_bytes()).sum::<usize>()
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Fleet
    }
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
    #[test]
    fn routed_events_carry_the_fleet_serving_index() {
        let t = corr_table();
        let hist: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
        // Every shape is "wide" and "uncorrelated": all queries route.
        let cfg = RouteConfig { wide_table: 1, high_corr: 2.0, ..RouteConfig::default() };
        let router = Router::threshold(&t, vec![hist], cfg);
        let uae = Uae::new(&t, crate::UaeConfig::default());
        let fleet = RoutedFleet::new(Arc::new(uae), Arc::new(router));
        let (sink, log) = crate::telemetry::MemorySink::new();
        fleet.set_sink(Box::new(sink));
        let batch = [Predicate::eq(0, 3i64), Predicate::le(1, 9i64), Predicate::eq(2, 1i64)]
            .map(|p| Query::new(vec![p]));
        for _ in 0..2 {
            assert!(fleet.try_estimate_cards(&batch).iter().all(|r| r.is_ok()));
        }
        let indices: Vec<u64> = log
            .lock()
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                Event::Routed { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, (0..6).collect::<Vec<u64>>(), "one index per served query");
    }
}
