//! The interface every cardinality estimator in this repository implements
//! (UAE and all nine baselines), plus evaluation helpers shared by the
//! benchmark harness.
//!
//! [`CardEstimator`] is object-safe and `Send + Sync`: a fleet of
//! heterogeneous estimators can live behind `Arc<dyn CardEstimator>` in a
//! server registry and be shared across executor threads. The unified
//! surface is selectivity-first — `estimate_selectivity` is the one
//! required estimation method, and cardinalities derive from it via
//! [`CardEstimator::num_rows`] — which retires the ad-hoc per-type
//! `estimate_selectivity` inherent methods the baselines used to expose.

use std::time::Instant;

use crate::executor::LabeledQuery;
use crate::metrics::ErrorSummary;
use crate::predicate::Query;

/// Model-family tag, used by routing policies and telemetry to identify
/// which kind of backend produced an estimate without downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EstimatorFamily {
    /// Deep autoregressive model (UAE / Naru-style).
    Autoregressive,
    /// Per-column 1-D histograms under the independence assumption.
    Histogram,
    /// Multi-dimensional equi-depth histogram.
    MultiDimHistogram,
    /// Sum-product network.
    Spn,
    /// Bayesian network over discretized columns.
    BayesNet,
    /// Kernel density estimator.
    Kde,
    /// Uniform row sampling.
    Sampling,
    /// Query-driven regression (linear or MLP, e.g. LR / MSCN).
    Regression,
    /// Query-driven mixture model (QuickSel-style).
    Mixture,
    /// Workload-aware histogram (STHoles-style).
    WorkloadHistogram,
    /// Anything else (test doubles, wrappers).
    Other,
}

impl EstimatorFamily {
    /// Stable lowercase label for telemetry lines and reports.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorFamily::Autoregressive => "autoregressive",
            EstimatorFamily::Histogram => "histogram",
            EstimatorFamily::MultiDimHistogram => "mhist",
            EstimatorFamily::Spn => "spn",
            EstimatorFamily::BayesNet => "bayesnet",
            EstimatorFamily::Kde => "kde",
            EstimatorFamily::Sampling => "sampling",
            EstimatorFamily::Regression => "regression",
            EstimatorFamily::Mixture => "mixture",
            EstimatorFamily::WorkloadHistogram => "stholes",
            EstimatorFamily::Other => "other",
        }
    }
}

/// Coarse per-query inference cost class — the routing policy's cost
/// hook. Classes compare by `Ord`: `Trivial < Cheap < Moderate <
/// Expensive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryCost {
    /// O(filters) arithmetic — per-column histogram lookups.
    Trivial,
    /// Small model traversal — SPN, BayesNet, mixture evaluation.
    Cheap,
    /// Sample scans or shallow network forward passes.
    Moderate,
    /// Progressive sampling through a deep autoregressive model.
    Expensive,
}

/// A trained cardinality estimator.
///
/// Object-safe and `Send + Sync` so heterogeneous fleets can be shared
/// across serving threads behind `Arc<dyn CardEstimator>`.
pub trait CardEstimator: Send + Sync {
    /// Display name (matches the paper's tables).
    fn name(&self) -> &str;

    /// Number of rows in the table this estimator was built over —
    /// the scale factor between selectivity and cardinality.
    fn num_rows(&self) -> f64;

    /// Estimated selectivity of a query, in `[0, 1]`. This is the one
    /// required estimation method; cardinalities derive from it.
    fn estimate_selectivity(&self, query: &Query) -> f64;

    /// Estimated cardinality (row count) of a query. The default scales
    /// [`CardEstimator::estimate_selectivity`] by
    /// [`CardEstimator::num_rows`].
    fn estimate_card(&self, query: &Query) -> f64 {
        self.estimate_selectivity(query) * self.num_rows()
    }

    /// Estimated cardinalities of a batch of queries. The default loops
    /// over [`CardEstimator::estimate_card`]; estimators with a
    /// cheaper amortized path (UAE's cross-query batched sampler) override
    /// this.
    fn estimate_cards(&self, queries: &[Query]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate_card(q)).collect()
    }

    /// Approximate in-memory size of the estimator's state, in bytes
    /// (the paper's "Size" column).
    fn size_bytes(&self) -> usize;

    /// Which model family this estimator belongs to (metadata hook for
    /// routing and telemetry).
    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Other
    }

    /// Coarse per-query inference cost (cost hook for routing).
    fn cost_class(&self) -> QueryCost {
        QueryCost::Moderate
    }
}

/// A `dyn`-compatible borrow: `&dyn CardEstimator` works anywhere a
/// concrete estimator does.
impl CardEstimator for &dyn CardEstimator {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_rows(&self) -> f64 {
        (**self).num_rows()
    }
    fn estimate_selectivity(&self, query: &Query) -> f64 {
        (**self).estimate_selectivity(query)
    }
    fn estimate_card(&self, query: &Query) -> f64 {
        (**self).estimate_card(query)
    }
    fn estimate_cards(&self, queries: &[Query]) -> Vec<f64> {
        (**self).estimate_cards(queries)
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn family(&self) -> EstimatorFamily {
        (**self).family()
    }
    fn cost_class(&self) -> QueryCost {
        (**self).cost_class()
    }
}

/// Result of evaluating one estimator on one workload.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Estimator name.
    pub name: String,
    /// Q-error summary over the workload.
    pub errors: ErrorSummary,
    /// Mean estimation latency per query, in milliseconds.
    pub mean_latency_ms: f64,
    /// Estimator size in bytes.
    pub size_bytes: usize,
}

/// Evaluate an estimator against a labeled workload.
pub fn evaluate(estimator: &dyn CardEstimator, workload: &[LabeledQuery]) -> Evaluation {
    let start = Instant::now();
    let queries: Vec<Query> = workload.iter().map(|lq| lq.query.clone()).collect();
    let estimates: Vec<f64> = estimator.estimate_cards(&queries);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let truth: Vec<f64> = workload.iter().map(|lq| lq.cardinality as f64).collect();
    Evaluation {
        name: estimator.name().to_owned(),
        errors: ErrorSummary::from_estimates(&truth, &estimates),
        mean_latency_ms: elapsed / workload.len().max(1) as f64,
        size_bytes: estimator.size_bytes(),
    }
}

/// Pretty size like the paper's tables (`17KB`, `2.0MB`).
pub fn format_size(bytes: usize) -> String {
    if bytes < 1024 {
        format!("{bytes}B")
    } else if bytes < 1024 * 1024 {
        format!("{:.0}KB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1}MB", bytes as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Oracle(f64);
    impl CardEstimator for Oracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn num_rows(&self) -> f64 {
            1000.0
        }
        fn estimate_selectivity(&self, _q: &Query) -> f64 {
            self.0 / 1000.0
        }
        fn size_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn evaluate_summarizes_errors() {
        let w = vec![
            LabeledQuery { query: Query::default(), cardinality: 100, selectivity: 0.1 },
            LabeledQuery { query: Query::default(), cardinality: 50, selectivity: 0.05 },
        ];
        let ev = evaluate(&Oracle(100.0), &w);
        assert_eq!(ev.errors.max, 2.0);
        assert_eq!(ev.size_bytes, 8);
        assert!(ev.mean_latency_ms >= 0.0);
    }

    #[test]
    fn default_card_scales_selectivity_by_rows() {
        let est = Oracle(250.0);
        assert_eq!(est.estimate_card(&Query::default()), 250.0);
        assert_eq!(est.estimate_cards(&[Query::default(), Query::default()]), vec![250.0, 250.0]);
    }

    #[test]
    fn trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn CardEstimator>();
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(EstimatorFamily::Autoregressive.label(), "autoregressive");
        assert!(QueryCost::Trivial < QueryCost::Expensive);
    }

    #[test]
    fn sizes_format() {
        assert_eq!(format_size(500), "500B");
        assert_eq!(format_size(17 * 1024), "17KB");
        assert_eq!(format_size(2 * 1024 * 1024), "2.0MB");
    }
}
