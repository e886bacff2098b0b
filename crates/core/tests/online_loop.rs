//! End-to-end tests of the online learning loop: deterministic replay
//! (same seed + same label stream ⇒ identical promotion decisions and
//! bit-identical promoted checkpoint bytes), the shadow gate rejecting a
//! NaN-poisoned candidate without touching the live model, and the
//! post-promotion probation watch rolling a regressed promotion back.

use std::collections::HashSet;

use uae_core::{
    GateDecision, MemorySink, OnlineConfig, OnlineFaultPlan, OnlineTrainer, QueryPool,
    ResMadeConfig, RoundOutcome, TrainConfig, Uae, UaeConfig,
};
use uae_data::census_like;
use uae_query::{generate_workload, label_queries, LabeledQuery, WorkloadSpec};

const ROWS: usize = 400;
const SEED: u64 = 0x0411e;

fn quick_uae(data_epochs: usize) -> Uae {
    let t = census_like(ROWS, SEED);
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 5 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 64,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&t, cfg);
    uae.train_data(data_epochs);
    uae
}

/// A deterministic stream of labeled queries against the base table.
fn label_stream(n: usize, qseed: u64) -> Vec<LabeledQuery> {
    let t = census_like(ROWS, SEED);
    let queries = generate_workload(&t, &WorkloadSpec::random(n, qseed), &HashSet::new())
        .into_iter()
        .map(|lq| lq.query)
        .collect();
    label_queries(&t, queries)
}

fn small_online_config() -> OnlineConfig {
    OnlineConfig {
        trigger_fresh: 12,
        holdout: 8,
        query_epochs: 2,
        data_epochs: 1,
        ..OnlineConfig::default()
    }
}

/// Acceptance check: two trainers built from the same live model and
/// fed the identical label stream make identical promotion decisions,
/// and a promoted round's `UAEC` checkpoint bytes are bit-identical.
#[test]
fn replay_is_deterministic_and_checkpoints_bit_identical() {
    let live = quick_uae(1);
    let stream = label_stream(60, 0x5eed);

    let run = || {
        let pool = QueryPool::new(256);
        let mut trainer = OnlineTrainer::new(&live, small_online_config());
        let mut decisions = Vec::new();
        let mut checkpoints = Vec::new();
        for (i, chunk) in stream.chunks(20).enumerate() {
            pool.extend(chunk.iter().cloned());
            let report = trainer.round(&pool, &live, i as u64 * 1_000_000);
            match report.outcome {
                RoundOutcome::Idle => decisions.push("idle".to_owned()),
                RoundOutcome::Rejected(d) => decisions.push(format!("rejected:{d}")),
                RoundOutcome::Promoted { version, checkpoint, .. } => {
                    decisions.push(format!("promoted:v{version}"));
                    checkpoints.push(checkpoint);
                }
                RoundOutcome::RolledBack { version, restored_version, .. } => {
                    decisions.push(format!("rolledback:v{version}<-v{restored_version}"))
                }
                RoundOutcome::PersistFailed { version, .. } => {
                    panic!("no disk faults configured, yet v{version} failed to persist")
                }
            }
        }
        (decisions, checkpoints)
    };

    let (decisions_a, ckpts_a) = run();
    let (decisions_b, ckpts_b) = run();
    assert_eq!(decisions_a, decisions_b, "promotion decisions must replay identically");
    assert_eq!(ckpts_a.len(), ckpts_b.len());
    for (a, b) in ckpts_a.iter().zip(&ckpts_b) {
        assert_eq!(a, b, "promoted checkpoint bytes must be bit-identical across replays");
    }
    assert!(
        decisions_a.iter().any(|d| d.starts_with("promoted")),
        "the stream must drive at least one promotion, got {decisions_a:?}"
    );
}

/// Acceptance check: a fault-injected NaN candidate is rejected as
/// unhealthy by the shadow gate, the live model's weights are untouched,
/// and the trainer's branch recovers (the next clean round can promote).
#[test]
fn nan_candidate_is_rejected_and_live_model_untouched() {
    let live = quick_uae(1);
    let live_weights_before = live.save_weights();
    let stream = label_stream(48, 0xbad);

    let cfg =
        OnlineConfig { fault: OnlineFaultPlan { nan_rounds: vec![0] }, ..small_online_config() };
    let pool = QueryPool::new(256);
    let mut trainer = OnlineTrainer::new(&live, cfg);
    let (sink, events) = MemorySink::new();
    trainer.set_sink(Box::new(sink));

    pool.extend(stream.iter().take(24).cloned());
    let report = trainer.round(&pool, &live, 0);
    match report.outcome {
        RoundOutcome::Rejected(GateDecision::Unhealthy) => {}
        other => panic!("poisoned candidate must be rejected as unhealthy, got {other:?}"),
    }
    let cand = report.candidate.expect("candidate was scored");
    assert!(!cand.weights_finite, "the shadow score must flag the poisoned weights");
    assert_eq!(live.save_weights(), live_weights_before, "live model must be untouched");
    assert_eq!(trainer.version(), 0, "nothing was published");

    // The branch was restored from its last-good checkpoint: the next
    // (unpoisoned) round trains the same labels again and can promote.
    pool.extend(stream.iter().skip(24).cloned());
    let report = trainer.round(&pool, &live, 1_000_000);
    match report.outcome {
        RoundOutcome::Promoted { version, .. } => assert_eq!(version, 1),
        other => panic!("clean retry must promote, got {other:?}"),
    }

    let events = events.lock().expect("event log");
    assert!(events.iter().any(
        |e| matches!(e, uae_core::Event::OnlineRejected { decision, .. } if decision == "unhealthy")
    ));
    assert!(events.iter().any(|e| matches!(e, uae_core::Event::OnlinePromoted { version: 1, .. })));
}

/// The probation watch: a promotion that regresses in the wild (here the
/// promoted live model is NaN-poisoned after the swap) is rolled back to
/// the prior version, whose weights match the pre-promotion live model.
#[test]
fn post_promotion_regression_rolls_back_to_prior() {
    let live = quick_uae(1);
    let prior_weights = live.save_weights();
    let stream = label_stream(64, 0x0111);

    let pool = QueryPool::new(256);
    let mut trainer = OnlineTrainer::new(&live, small_online_config());

    pool.extend(stream.iter().take(32).cloned());
    let report = trainer.round(&pool, &live, 0);
    let mut promoted = match report.outcome {
        RoundOutcome::Promoted { model, version, .. } => {
            assert_eq!(version, 1);
            model
        }
        other => panic!("first round must promote, got {other:?}"),
    };
    assert!(trainer.on_watch(), "a promotion opens a probation watch");

    // The promoted model diverges in production; fresh labels arrive.
    promoted.inject_weight_nan();
    pool.extend(stream.iter().skip(32).cloned());
    let report = trainer.round(&pool, &promoted, 2_000_000);
    match report.outcome {
        RoundOutcome::RolledBack { model, version, restored_version, .. } => {
            assert_eq!(version, 2, "a rollback publishes a new version");
            assert_eq!(restored_version, 0);
            assert_eq!(
                model.save_weights(),
                prior_weights,
                "the rollback must restore the pre-promotion weights"
            );
        }
        other => panic!("regressed promotion must roll back, got {other:?}"),
    }
    assert!(!trainer.on_watch(), "the watch is consumed by the rollback");
}

/// A promotion that holds up on post-promotion labels clears probation
/// without a rollback, and versioned checkpoints land in the configured
/// directory.
#[test]
fn healthy_promotion_clears_probation_and_writes_versioned_checkpoint() {
    let dir = std::env::temp_dir().join(format!("uae_online_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let live = quick_uae(1);
    let stream = label_stream(64, 0x600d);

    let cfg = OnlineConfig { checkpoint_dir: Some(dir.clone()), ..small_online_config() };
    let pool = QueryPool::new(256);
    let mut trainer = OnlineTrainer::new(&live, cfg);

    pool.extend(stream.iter().take(32).cloned());
    let report = trainer.round(&pool, &live, 0);
    let promoted = match report.outcome {
        RoundOutcome::Promoted { model, checkpoint, .. } => {
            let on_disk = std::fs::read(dir.join("uae_v1.uaec")).expect("versioned checkpoint");
            assert_eq!(on_disk, checkpoint, "disk checkpoint must match the in-memory bytes");
            model
        }
        other => panic!("first round must promote, got {other:?}"),
    };

    // The healthy promoted model serves well; probation must clear.
    // Feed just enough post-promotion labels to judge probation but not
    // enough fresh ones to trigger another training round, so the watch
    // state is observable in isolation.
    pool.extend(stream.iter().skip(32).take(8).cloned());
    let report = trainer.round(&pool, &promoted, 1_000_000);
    assert!(!trainer.on_watch(), "a healthy promotion must clear the watch");
    assert!(
        matches!(report.outcome, RoundOutcome::Idle),
        "after probation clears, too few fresh labels means an idle round, got {:?}",
        report.outcome
    );
    std::fs::remove_dir_all(&dir).ok();
}
