//! Satellite 4 — routing determinism. Decisions are pure functions of
//! (featurizer, policy, query): rebuilding a router from the same seeds
//! and replaying the same workload must reproduce every decision bit
//! for bit, and a whole fleet replay must reproduce every estimate —
//! the property the CI routing drill and calibration rely on.

use std::collections::HashSet;
use std::sync::Arc;

use uae_core::{
    serve_batch, BackendChoice, EstimateSource, ResMadeConfig, RouteConfig, Router, TrainConfig,
    Uae, UaeConfig,
};
use uae_data::{kddcup_like, Table, Value};
use uae_estimators::{HistogramEstimator, SpnConfig, SpnEstimator};
use uae_query::{generate_workload, CardEstimator, LabeledQuery, Predicate, Query, WorkloadSpec};

fn wide_table() -> Table {
    // 32 columns ≥ the default wide_table threshold (30): the regime
    // where the threshold policy actually routes.
    kddcup_like(1500, 32, 4242)
}

fn workload(t: &Table, n: usize, qseed: u64) -> Vec<LabeledQuery> {
    generate_workload(t, &WorkloadSpec::random(n, qseed), &HashSet::new())
}

/// The default config with a correlation threshold low enough that
/// queries touching a same-latent-group column pair (e.g. f000/f001)
/// count as correlated → primary, while the typical random query's
/// touched pairs stay independent → routed. Both paths get exercised.
fn test_cfg() -> RouteConfig {
    RouteConfig { high_corr: 0.05, ..RouteConfig::default() }
}

/// Queries pinned to the correlated pair (columns 0 and 1 share a
/// group latent), guaranteeing some `Primary` decisions.
fn correlated_queries() -> Vec<Query> {
    (0..4).map(|k| Query::new(vec![Predicate::le(0, k), Predicate::le(1, k + 1)])).collect()
}

fn quick_uae(t: &Table) -> Uae {
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 7 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 32,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(t, cfg);
    uae.train_data(1);
    uae
}

fn backends(t: &Table) -> Vec<Arc<dyn CardEstimator>> {
    vec![
        Arc::new(HistogramEstimator::new(t, 16)),
        Arc::new(SpnEstimator::new(t, &SpnConfig::default())),
    ]
}

/// Two independently constructed threshold routers over the same table
/// and config agree on every decision, and replaying the same workload
/// through one router is bit-identical.
#[test]
fn threshold_decisions_replay_identically() {
    let t = wide_table();
    let mut queries: Vec<Query> = workload(&t, 60, 11).into_iter().map(|lq| lq.query).collect();
    queries.extend(correlated_queries());

    let a = Router::threshold(&t, backends(&t), test_cfg());
    let b = Router::threshold(&t, backends(&t), test_cfg());

    let da = a.decide_batch(&queries);
    let db = b.decide_batch(&queries);
    assert_eq!(da, db, "independently built routers must agree");
    assert_eq!(da, a.decide_batch(&queries), "replay on one router must be identical");

    // The drill is only meaningful if both paths are actually taken.
    assert!(da.iter().any(|d| d.choice == BackendChoice::Primary), "no primary decision");
    assert!(
        da.iter().any(|d| matches!(d.choice, BackendChoice::Backend(_))),
        "no routed decision — the threshold never fired on the wide table"
    );
}

/// Calibration is deterministic: two routers calibrated from cloned
/// primaries (clones reseed the estimation RNG identically) on the same
/// holdout produce identical policies, witnessed over a probe workload.
#[test]
fn calibrated_policies_are_reproducible() {
    let t = wide_table();
    let uae = quick_uae(&t);
    let holdout = workload(&t, 48, 17);
    let probe: Vec<Query> = workload(&t, 40, 23).into_iter().map(|lq| lq.query).collect();

    let a = Router::calibrate(&t, &uae.clone(), backends(&t), &holdout, RouteConfig::default());
    let b = Router::calibrate(&t, &uae.clone(), backends(&t), &holdout, RouteConfig::default());

    assert_eq!(a.policy(), b.policy(), "same seeds + holdout ⇒ same calibrated policy");
    assert_eq!(a.decide_batch(&probe), b.decide_batch(&probe));
}

/// End-to-end fleet replay: [`serve_batch`] over two cloned primaries
/// and the same router serves the whole workload bit-identically — the
/// primary's RNG stream advances only for the queries routed to it, so
/// identical decisions imply identical streams.
#[test]
fn fleet_serves_bit_identically_on_replay() {
    let t = wide_table();
    let uae = quick_uae(&t);
    let mut queries: Vec<Query> = workload(&t, 30, 29).into_iter().map(|lq| lq.query).collect();
    queries.extend(correlated_queries());
    let router = Router::threshold(&t, backends(&t), test_cfg());

    let (primary_a, primary_b) = (uae.clone(), uae.clone());
    let ra = serve_batch(&primary_a, Some(&router), &queries, None);
    let rb = serve_batch(&primary_b, Some(&router), &queries, None);
    assert_eq!(ra, rb, "fleet replies must replay bit-identically");
    assert_eq!(primary_a.serve_stats(), primary_b.serve_stats());
    let routed = ra.iter().filter(|(_, tag)| tag.is_some()).count();
    assert!(routed > 0, "the replay must exercise the routed path");
    for (reply, tag) in &ra {
        let routed_source =
            reply.as_ref().is_ok_and(|e| matches!(e.source, EstimateSource::Routed(_)));
        assert_eq!(tag.is_some(), routed_source, "tagged exactly when a backend answered");
    }
    assert!(primary_a.serve_stats().served > 0, "correlated shapes must still reach the primary");
}

/// A predicate on a column the table does not have must not panic the
/// router. On a narrow table the threshold policy keeps such a query on
/// the primary, whose cascade rejects the unknown column with a typed
/// error; the decision replays like any other.
#[test]
fn decide_on_unknown_column_routes_to_primary() {
    let t = Table::from_columns(
        "t",
        vec![
            ("x".into(), (0..100i64).map(|v| Value::Int(v % 10)).collect()),
            ("y".into(), (0..100i64).map(|v| Value::Int(v % 5)).collect()),
        ],
    );
    let hist: Arc<dyn CardEstimator> = Arc::new(HistogramEstimator::new(&t, 16));
    let router = Router::threshold(&t, vec![hist], RouteConfig::default());
    let q = Query::new(vec![Predicate::eq(9, 1i64)]);
    let d = router.decide(&q);
    assert_eq!(d.choice, BackendChoice::Primary);
    assert_eq!(d, router.decide(&q), "the decision must replay identically");
}
