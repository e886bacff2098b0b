//! # uae-query — predicates, regions, ground truth, workloads, metrics
//!
//! The query substrate of the UAE reproduction:
//!
//! * [`predicate`] — conjunctive queries with `=, !=, <, <=, >, >=, IN`
//!   (paper §3);
//! * [`region`] — per-column code regions `R^q = R_1 x … x R_n` (§4.2),
//!   with masks for (differentiable) progressive sampling;
//! * [`executor`] — exact parallel-scan ground truth and query labeling;
//! * [`workload`] — the §5.1.2 generators: bounded-attribute in-workload
//!   queries, random queries, and the shifted windows of §5.4;
//! * [`metrics`] — q-error (Eq. 6) and mean/median/95th/max summaries;
//! * [`report`] — selectivity-distribution histograms (Figure 3).

pub mod estimator;
pub mod executor;
pub mod metrics;
pub mod parse;
pub mod predicate;
pub mod region;
pub mod report;
pub mod workload;

pub use estimator::{evaluate, CardEstimator, EstimatorFamily, Evaluation};
pub use executor::{label_queries, Executor, LabeledQuery};
pub use metrics::{q_error, ErrorSummary};
pub use parse::{parse_disjunction, parse_query};
pub use predicate::{PredOp, Predicate, Query};
pub use region::{predicate_region, QueryRegion, Region};
pub use workload::{
    default_bounded_column, fingerprints, generate_correlated_workload, generate_workload,
    BoundedSpec, CorrelatedSpec, WorkloadSpec,
};
