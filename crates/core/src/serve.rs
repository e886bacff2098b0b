//! Serving-robustness layer: typed estimate errors, per-query validation,
//! and the configuration of the fallback cascade.
//!
//! The optimizer must be able to ask UAE for a cardinality at any time and
//! always get a usable number back (Wu & Cong, SIGMOD 2021 position the
//! model as a drop-in estimator), yet learned estimators are exactly the
//! components that fail ungracefully on out-of-distribution inputs. This
//! module supplies the serving contract around [`crate::Uae`]:
//!
//! * **validation** ([`validate_query`]) classifies a query before any
//!   model work: unknown column indices are the only hard error
//!   ([`EstimateError`]); out-of-domain literals, inverted or empty ranges
//!   short-circuit to an exact `0`, and full-wildcard queries to an exact
//!   `1`, without touching the sampler;
//! * **the cascade** (driven by `Uae::try_estimate_card(s)`) retries an
//!   unhealthy sample — non-finite selectivity, a panicked attempt, or zero
//!   live samples — once on a derived RNG substream with a boosted sample
//!   budget (`RETRY_BOOST`), then degrades to the always-available
//!   histogram baseline, and clamps the final cardinality into `[0, N]`;
//! * **deterministic fault injection** ([`FaultPlan`]) poisons specific
//!   serving indices (NaN "logits", worker panics, checkpoint byte
//!   corruption) so every degradation path is exercised by tests and the
//!   CI fault drill, never discovered in production first.

use uae_data::Table;
use uae_query::{EstimatorFamily, Query, QueryRegion};

/// A query the serving layer refuses to estimate. Unknown columns are the
/// only hard rejection: every other malformed shape (empty ranges,
/// out-of-domain literals) has a well-defined cardinality and is answered
/// exactly by validation instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// A predicate references a column index outside the table.
    UnknownColumn {
        /// The offending column index.
        column: usize,
        /// Number of columns the estimator was built over.
        num_cols: usize,
    },
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnknownColumn { column, num_cols } => {
                write!(f, "unknown column {column} (table has {num_cols} columns)")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// Validation verdict for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// The query constrains the table non-trivially: run the sampler.
    Sample,
    /// Some column's region is empty (inverted range, out-of-domain
    /// equality literal, contradictory conjunction): selectivity is
    /// exactly `0`.
    Empty,
    /// Every column is unconstrained or constrained to its full domain:
    /// selectivity is exactly `1`.
    Trivial,
}

/// Bounds-check every predicate's column index against `table`.
pub fn check_columns(table: &Table, query: &Query) -> Result<(), EstimateError> {
    let num_cols = table.num_cols();
    for pred in &query.predicates {
        if pred.column >= num_cols {
            return Err(EstimateError::UnknownColumn { column: pred.column, num_cols });
        }
    }
    Ok(())
}

/// Classify a (bounds-checked) query by its region structure. Exact by
/// construction: an empty region admits no row, and a full region admits
/// every row, independent of the model.
pub fn classify(table: &Table, query: &Query) -> Validation {
    if query.predicates.is_empty() {
        return Validation::Trivial;
    }
    let region = QueryRegion::build(table, query);
    if region.is_empty() {
        return Validation::Empty;
    }
    if region.columns().iter().flatten().all(|r| r.is_all()) {
        return Validation::Trivial;
    }
    Validation::Sample
}

/// Validate one query: bounds-check the column indices, then classify the
/// region structure. The standalone entry point for callers that want the
/// verdict without running an estimate.
pub fn validate_query(table: &Table, query: &Query) -> Result<Validation, EstimateError> {
    check_columns(table, query)?;
    Ok(classify(table, query))
}

/// Where the final number of an [`Estimate`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// The deep model's progressive-sampling estimate (possibly after a
    /// retry).
    Model,
    /// The deep model answered, but under a shrunken progressive-sample
    /// budget: the serving front-end engaged its latency-SLO degradation
    /// ladder (queue depth or observed tail latency over threshold) and
    /// traded accuracy for drain rate. Still a model estimate — consumers
    /// that only split model/baseline should treat it as [`Self::Model`].
    ModelDegraded,
    /// A validation shortcut: exactly `0` (empty region) or exactly `1`
    /// (trivial region), no sampling performed.
    Validation,
    /// The model stayed unhealthy through the retry; the histogram (AVI)
    /// baseline answered instead.
    Baseline,
    /// A routing policy sent the query to a fleet backend *instead of* the
    /// deep model — a deliberate, shape-based choice made before any
    /// sampling, not a degradation. The tag records which model family
    /// answered. Distinct from [`Self::Baseline`], which is the cascade's
    /// last-resort tier after the model failed.
    Routed(EstimatorFamily),
}

impl EstimateSource {
    /// Stable lowercase label for telemetry lines and reports.
    pub fn label(&self) -> &'static str {
        match self {
            EstimateSource::Model => "model",
            EstimateSource::ModelDegraded => "model_degraded",
            EstimateSource::Validation => "validation",
            EstimateSource::Baseline => "baseline",
            EstimateSource::Routed(family) => family.label(),
        }
    }

    /// Whether this estimate came from a routed fleet backend.
    pub fn is_routed(&self) -> bool {
        matches!(self, EstimateSource::Routed(_))
    }
}

/// One served estimate, with its degradation provenance. The cardinality
/// is always finite and inside `[0, N]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Cardinality in `[0, N]` (`selectivity · num_rows`).
    pub card: f64,
    /// Which tier of the cascade produced the number.
    pub source: EstimateSource,
    /// Whether the first sampling attempt was unhealthy and a retry ran.
    pub retried: bool,
    /// Whether the raw value had to be clamped (or replaced, when even the
    /// baseline produced a non-finite value) to reach `[0, 1]`.
    pub clamped: bool,
}

/// Deterministic fault plan for the serving path. Queries are addressed by
/// their **serving index** — the value of the estimator's served-query
/// counter when the query arrives — so a plan written against a fixed call
/// sequence reproduces exactly. An empty plan (the default) is inert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Serving indices whose *first* sampling attempt reports a NaN
    /// selectivity (as if the logits went non-finite mid-walk); the retry
    /// is clean, so these exercise the retry tier.
    pub nan_once: Vec<u64>,
    /// Serving indices whose every attempt reports NaN (as if the weights
    /// themselves are poisoned); these fall through to the baseline.
    pub nan_always: Vec<u64>,
    /// Serving indices whose sampling attempt panics, as a poisoned query
    /// crashing a pool worker would; exercises batch panic isolation.
    pub panic_queries: Vec<u64>,
    /// Corrupt one byte of every serialized checkpoint: `(offset, mask)`
    /// XORs `mask` into byte `offset % len`. Exercises the typed
    /// checkpoint-corruption errors end to end.
    pub corrupt_checkpoint: Option<(usize, u8)>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.nan_once.is_empty()
            && self.nan_always.is_empty()
            && self.panic_queries.is_empty()
            && self.corrupt_checkpoint.is_none()
    }

    /// Whether the attempt (`0` = first, `1` = retry) at serving index
    /// `index` must report NaN.
    pub fn nan_hits(&self, index: u64, attempt: u32) -> bool {
        self.nan_always.contains(&index) || (attempt == 0 && self.nan_once.contains(&index))
    }

    /// Whether sampling at serving index `index` must panic.
    pub fn panics(&self, index: u64) -> bool {
        self.panic_queries.contains(&index)
    }
}

/// Sample-budget multiplier for the cascade's one retry of an unhealthy
/// sample (on a derived RNG substream) before it degrades to the baseline.
pub(crate) const RETRY_BOOST: usize = 4;

/// Equi-depth buckets of the lazily built histogram baseline.
pub(crate) const FALLBACK_BUCKETS: usize = 64;

/// Configuration of the serving cascade.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeConfig {
    /// Deterministic fault injection (inert by default).
    pub fault: FaultPlan,
}

/// Whether a sampled selectivity is trustworthy: finite and backed by at
/// least one live sample. `0.0` from the sampler means every progressive
/// sample died (`p_hat = 0` across the batch) — on a validated non-empty
/// region that is a failure mode, not an answer.
pub fn healthy(sel: f64) -> bool {
    sel.is_finite() && sel > 0.0
}

/// The derived substream for the retry attempt. Never drawn from the
/// estimator's RNG: an extra draw would desynchronize the sequential and
/// batched seed streams, which must stay bit-identical.
pub fn retry_seed(qseed: u64) -> u64 {
    qseed ^ 0x9e37_79b9_7f4a_7c15
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
                ("x".into(), (0..50i64).map(Value::Int).collect()),
                ("y".into(), (0..50i64).map(|v| Value::Int(v % 5)).collect()),
            ],
        )
    }

    #[test]
    fn unknown_columns_are_the_only_hard_error() {
        let t = table();
        let bad = Query::new(vec![Predicate::eq(7, 1i64)]);
        assert_eq!(
            validate_query(&t, &bad),
            Err(EstimateError::UnknownColumn { column: 7, num_cols: 2 })
        );
        // Out-of-domain literals and inverted ranges are answers, not errors.
        let out_of_domain = Query::new(vec![Predicate::eq(0, 999i64)]);
        assert_eq!(validate_query(&t, &out_of_domain), Ok(Validation::Empty));
        let inverted = Query::new(vec![Predicate::ge(0, 40i64), Predicate::le(0, 10i64)]);
        assert_eq!(validate_query(&t, &inverted), Ok(Validation::Empty));
    }

    #[test]
    fn trivial_and_sample_classification() {
        let t = table();
        assert_eq!(validate_query(&t, &Query::default()), Ok(Validation::Trivial));
        // A range covering the whole domain constrains nothing.
        let full = Query::new(vec![Predicate::le(0, 49i64)]);
        assert_eq!(validate_query(&t, &full), Ok(Validation::Trivial));
        let real = Query::new(vec![Predicate::le(0, 24i64)]);
        assert_eq!(validate_query(&t, &real), Ok(Validation::Sample));
    }

    #[test]
    fn fault_plan_addressing() {
        let plan = FaultPlan {
            nan_once: vec![3],
            nan_always: vec![5],
            panic_queries: vec![7],
            ..FaultPlan::default()
        };
        assert!(plan.nan_hits(3, 0) && !plan.nan_hits(3, 1));
        assert!(plan.nan_hits(5, 0) && plan.nan_hits(5, 1));
        assert!(plan.panics(7) && !plan.panics(3));
        assert!(!plan.is_inert());
        assert!(FaultPlan::default().is_inert());
    }

    #[test]
    fn health_and_retry_seed() {
        assert!(healthy(0.25));
        assert!(!healthy(0.0), "zero live samples is a failure mode");
        assert!(!healthy(f64::NAN));
        assert!(!healthy(f64::INFINITY));
        // The retry substream differs from the primary one but is a pure
        // function of it.
        assert_ne!(retry_seed(42), 42);
        assert_eq!(retry_seed(42), retry_seed(42));
    }
}
