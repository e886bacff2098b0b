//! Crash-safety integration tests: the write-ahead promotion journal,
//! the durable tenant manifest, cold-start recovery, clean-shutdown
//! round-trips, and request deadlines.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uae_core::{
    Journal, JournalRecord, OnlineConfig, OnlineTrainer, QueryPool, ResMadeConfig, RoundOutcome,
    TrainConfig, Uae, UaeConfig, JOURNAL_FILE,
};
use uae_data::{census_like, Table};
use uae_query::{generate_workload, label_queries, CardEstimator, LabeledQuery, WorkloadSpec};
use uae_server::{
    recover_registry, Manifest, OnlineLearner, RecoverySource, Registry, Server, ServerConfig,
    ServerError,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uae_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn small_table() -> Table {
    census_like(400, 0x10ea5)
}

fn seed_model(table: &Table) -> Uae {
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 5 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 64,
        ..UaeConfig::default()
    };
    let mut model = Uae::new(table, cfg);
    model.train_data(1);
    model
}

fn labels(table: &Table, n: usize, seed: u64) -> Vec<LabeledQuery> {
    let queries = generate_workload(table, &WorkloadSpec::random(n, seed), &HashSet::new())
        .into_iter()
        .map(|lq| lq.query)
        .collect();
    label_queries(table, queries)
}

/// Drive trainer rounds until `promotions` versions have been committed
/// through the WAL, returning the promoted models in order.
fn drive_promotions(
    trainer: &mut OnlineTrainer,
    live: &Uae,
    stream: &[LabeledQuery],
    promotions: usize,
) -> Vec<(u64, Uae)> {
    let pool = QueryPool::new(1024);
    let mut out = Vec::new();
    let mut current = live.clone();
    for (i, chunk) in stream.chunks(24).enumerate() {
        pool.extend(chunk.iter().cloned());
        match trainer.round(&pool, &current, i as u64 * 1_000_000).outcome {
            RoundOutcome::Promoted { model, version, .. }
            | RoundOutcome::RolledBack { model, version, .. } => {
                current = model.clone();
                out.push((version, model));
                if out.len() >= promotions {
                    break;
                }
            }
            RoundOutcome::PersistFailed { version, .. } => {
                panic!("no disk faults configured, yet v{version} failed to persist")
            }
            RoundOutcome::Idle | RoundOutcome::Rejected(_) => {}
        }
    }
    assert!(out.len() >= promotions, "stream too short: only {} publications", out.len());
    out
}

/// A fixed probe workload answered on a deterministic clone — the
/// bit-identity witness used across crash/recover boundaries.
fn probe(model: &Uae, table: &Table) -> Vec<f64> {
    let queries = generate_workload(table, &WorkloadSpec::random(16, 0x9e0be), &HashSet::new());
    let clone = model.clone();
    queries.iter().map(|lq| clone.estimate_card(&lq.query)).collect()
}

/// v1 and v2 are journal-committed; v2's checkpoint is then bit-flipped
/// on disk. Recovery must quarantine v2 (never delete it) and republish
/// v1, bit-identical to the surviving pre-crash version.
#[test]
fn recovery_falls_back_to_last_good_version_and_quarantines_corrupt() {
    let dir = tmp_dir("fallback");
    let table = small_table();
    let live = seed_model(&table);

    let mut trainer = OnlineTrainer::new(
        &live,
        OnlineConfig {
            trigger_fresh: 12,
            holdout: 8,
            query_epochs: 2,
            checkpoint_dir: Some(dir.clone()),
            label: "census".to_owned(),
            ..OnlineConfig::default()
        },
    );
    let stream = labels(&table, 160, 0xfeed);
    let published = drive_promotions(&mut trainer, &live, &stream, 2);
    let (v_last, _) = *published.last().map(|(v, _)| (*v, ())).as_ref().unwrap();
    let (v_prev, model_prev) = &published[published.len() - 2];

    // Corrupt the newest checkpoint in place (silent bit rot).
    let bad = dir.join(format!("census_v{v_last}.uaec"));
    let mut bytes = std::fs::read(&bad).expect("checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&bad, &bytes).expect("rewrite corrupt checkpoint");

    let mut builder = |name: &str| (name == "census").then(|| seed_model(&table));
    let (registry, report) =
        recover_registry(&dir, &mut builder, None, None).expect("recovery succeeds");

    assert_eq!(report.tenants.len(), 1);
    let rec = &report.tenants[0];
    assert_eq!(rec.tenant, "census");
    assert_eq!(rec.version, *v_prev, "recovery falls back to the last good version");
    assert_eq!(rec.source, RecoverySource::Journal);
    assert!(
        !bad.exists() && dir.join(format!("census_v{v_last}.uaec.quarantine")).exists(),
        "the corrupt checkpoint is quarantined by rename, never deleted"
    );

    let tenant = registry.get("census").expect("tenant recovered");
    assert_eq!(tenant.version(), *v_prev);
    assert_eq!(
        tenant.model().save_weights(),
        model_prev.save_weights(),
        "recovered weights are bit-identical to the surviving version"
    );
    assert_eq!(probe(&tenant.model(), &table), probe(model_prev, &table));

    // Recovery re-establishes the baseline: manifest rewritten, journal
    // compacted, so a second cold start replays to the same state.
    let manifest = Manifest::load(&dir).expect("manifest readable").expect("manifest present");
    assert_eq!(manifest.entries["census"].version, *v_prev);
    let replay = Journal::replay(dir.join(JOURNAL_FILE)).expect("journal readable");
    assert!(replay.records.is_empty() && !replay.torn, "journal compacted to a clean header");

    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest written while serving still had an int8 mode carries numeric
/// tag `1`. It must still decode, and its tenant recovers from the named
/// checkpoint and serves the same f32 answers as the saved model.
#[test]
fn manifest_with_int8_tag_recovers_in_f32() {
    let dir = tmp_dir("int8_tag");
    let table = small_table();
    let saved = seed_model(&table);
    saved.write_checkpoint_file(dir.join("census_v3.uaec")).expect("write checkpoint");

    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes()); // seq
    payload.extend_from_slice(&1u32.to_le_bytes()); // entry count
    payload.extend_from_slice(&6u32.to_le_bytes());
    payload.extend_from_slice(b"census");
    payload.extend_from_slice(&3u64.to_le_bytes()); // version
    payload.push(1); // checkpoint present
    payload.extend_from_slice(&14u32.to_le_bytes());
    payload.extend_from_slice(b"census_v3.uaec");
    payload.push(1); // numeric-mode tag: int8
    payload.push(0); // no router
    let blob = uae_core::serialize::seal_blob(b"UAEM", 1, &payload);
    std::fs::write(Manifest::path_in(&dir), blob).expect("write manifest");

    let mut builder = |name: &str| (name == "census").then(|| seed_model(&table));
    let (registry, report) =
        recover_registry(&dir, &mut builder, None, None).expect("recovery succeeds");
    assert!(report.manifest_ok && report.quarantined.is_empty());
    assert_eq!(report.tenants[0].source, RecoverySource::Manifest);
    let tenant = registry.get("census").expect("tenant recovered");
    assert_eq!(tenant.version(), 3);
    assert_eq!(tenant.model().save_weights(), saved.save_weights());
    assert_eq!(probe(&tenant.model(), &table), probe(&saved, &table));

    std::fs::remove_dir_all(&dir).ok();
}

/// A torn journal tail (crash mid-append) is detected, quarantined as
/// evidence, and the valid prefix still proves the committed versions.
#[test]
fn torn_journal_tail_is_quarantined_and_prefix_replayed() {
    let dir = tmp_dir("torn_tail");
    let table = small_table();
    let live = seed_model(&table);

    let mut trainer = OnlineTrainer::new(
        &live,
        OnlineConfig {
            trigger_fresh: 12,
            holdout: 8,
            query_epochs: 2,
            checkpoint_dir: Some(dir.clone()),
            label: "census".to_owned(),
            ..OnlineConfig::default()
        },
    );
    let stream = labels(&table, 120, 0xfeed);
    let published = drive_promotions(&mut trainer, &live, &stream, 1);
    let (version, model) = &published[0];

    // Crash mid-append: garbage bytes after the last valid record.
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal_path).expect("journal exists");
    bytes.extend_from_slice(&[0x13, 0x37, 0xde, 0xad]);
    std::fs::write(&journal_path, &bytes).expect("append torn tail");

    let mut builder = |name: &str| (name == "census").then(|| seed_model(&table));
    let (registry, report) =
        recover_registry(&dir, &mut builder, None, None).expect("recovery succeeds");

    assert!(report.journal_torn, "the torn tail must be detected");
    assert!(
        report.quarantined.iter().any(|p| p.to_string_lossy().contains("journal")),
        "the torn journal is preserved as evidence: {:?}",
        report.quarantined
    );
    let tenant = registry.get("census").expect("tenant recovered");
    assert_eq!(tenant.version(), *version);
    assert_eq!(tenant.model().save_weights(), model.save_weights());

    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (issue fix): `OnlineLearner::stop` flushes a final journal
/// commit and manifest sync, so a clean shutdown and a `recover`
/// round-trip are bit-identical.
#[test]
fn learner_clean_shutdown_recover_round_trip_is_bit_identical() {
    let dir = tmp_dir("clean_shutdown");
    let table = small_table();
    let live = seed_model(&table);

    let registry = Arc::new(Registry::new());
    registry.persist_to(&dir, None).expect("attach state dir");
    let tenant = registry.register("census", live.clone());

    let trainer = OnlineTrainer::new(
        &live,
        OnlineConfig {
            trigger_fresh: 12,
            holdout: 8,
            query_epochs: 2,
            checkpoint_dir: Some(dir.clone()),
            label: "census".to_owned(),
            ..OnlineConfig::default()
        },
    );
    let pool = Arc::new(QueryPool::new(1024));
    let learner = OnlineLearner::start(
        registry.clone(),
        "census",
        trainer,
        pool.clone(),
        Duration::from_millis(2),
    );

    let labeled = labels(&table, 120, 0xfeed);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut fed = 0usize;
    while learner.stats().promotions == 0 && Instant::now() < deadline {
        if fed < labeled.len() {
            let wave = (fed + 20).min(labeled.len());
            pool.extend(labeled[fed..wave].iter().cloned());
            fed = wave;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(learner.stats().promotions >= 1, "the learner never promoted");
    let trainer = learner.stop();

    // The stop path flushed: the journal's last record is a commit for
    // the current version, and the manifest agrees with the live tenant.
    let version = trainer.version();
    let replay = Journal::replay(dir.join(JOURNAL_FILE)).expect("journal readable");
    assert!(!replay.torn, "clean shutdown leaves no torn tail");
    match replay.records.last() {
        Some(JournalRecord::Commit { tenant: t, version: v }) => {
            assert_eq!((t.as_str(), *v), ("census", version), "final record commits the version");
        }
        other => panic!("last journal record must be a commit, got {other:?}"),
    }
    let manifest = Manifest::load(&dir).expect("manifest readable").expect("manifest present");
    assert_eq!(manifest.entries["census"].version, tenant.version());
    assert_eq!(manifest.entries["census"].checkpoint, tenant.checkpoint());

    // The recover round-trip republishes the same version with
    // bit-identical weights and answers.
    let pre_crash = tenant.model();
    let mut builder = |name: &str| (name == "census").then(|| seed_model(&table));
    let (recovered, report) =
        recover_registry(&dir, &mut builder, None, None).expect("recovery succeeds");
    assert!(report.quarantined.is_empty(), "a clean shutdown quarantines nothing");
    let rec_tenant = recovered.get("census").expect("tenant recovered");
    assert_eq!(rec_tenant.version(), tenant.version());
    assert_eq!(rec_tenant.model().save_weights(), pre_crash.save_weights());
    assert_eq!(probe(&rec_tenant.model(), &table), probe(&pre_crash, &table));

    std::fs::remove_dir_all(&dir).ok();
}

/// A learner started on a recovered registry continues the recovered
/// lineage: after v1 and v2 were committed and recovery republished v2,
/// the next promotion is v3. It must not re-issue v1, which would
/// overwrite a committed checkpoint and move the tenant back a version.
#[test]
fn learner_on_recovered_registry_continues_the_lineage() {
    let dir = tmp_dir("lineage");
    let table = small_table();
    let live = seed_model(&table);
    let config = || OnlineConfig {
        trigger_fresh: 12,
        holdout: 8,
        query_epochs: 2,
        checkpoint_dir: Some(dir.clone()),
        label: "census".to_owned(),
        ..OnlineConfig::default()
    };

    let mut trainer = OnlineTrainer::new(&live, config());
    let published = drive_promotions(&mut trainer, &live, &labels(&table, 160, 0xfeed), 2);
    assert_eq!(published.iter().map(|(v, _)| *v).collect::<Vec<_>>(), [1, 2]);
    let committed: Vec<Vec<u8>> = (1..=2)
        .map(|v| std::fs::read(dir.join(format!("census_v{v}.uaec"))).expect("committed"))
        .collect();

    let mut builder = |name: &str| (name == "census").then(|| seed_model(&table));
    let (registry, _) = recover_registry(&dir, &mut builder, None, None).expect("recovers");
    let tenant = registry.get("census").expect("tenant recovered");
    assert_eq!(tenant.version(), 2);

    // One wave of labels, queued before the learner starts: its first
    // round trains on it and promotes, and every later round is idle (no
    // fresh labels, none for a probation verdict), so exactly one
    // publication happens.
    let pool = Arc::new(QueryPool::new(1024));
    pool.extend(labels(&table, 40, 0xbeef));
    let learner = OnlineLearner::start(
        registry.clone(),
        "census",
        OnlineTrainer::new(&tenant.model(), config()),
        pool.clone(),
        Duration::from_millis(2),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while learner.stats().rounds < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(learner.stats().promotions, 1, "the learner never promoted");
    let trainer = learner.stop();

    assert_eq!(trainer.version(), 3);
    assert_eq!(tenant.version(), 3, "the promotion extends the recovered lineage");
    let manifest = Manifest::load(&dir).expect("manifest readable").expect("manifest present");
    assert_eq!(manifest.entries["census"].version, 3);
    assert_eq!(manifest.entries["census"].checkpoint.as_deref(), Some("census_v3.uaec"));
    for (v, bytes) in (1..=2).zip(&committed) {
        let now = std::fs::read(dir.join(format!("census_v{v}.uaec"))).expect("still present");
        assert!(&now == bytes, "committed census_v{v}.uaec was rewritten");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Requests whose `submit_with_deadline` budget expires while queued are
/// dropped at flush with a typed reply and their own counter — distinct
/// from the `Overloaded` shed.
#[test]
fn expired_deadlines_are_dropped_and_counted_separately() {
    let table = small_table();
    let model = seed_model(&table);
    let registry = Arc::new(Registry::new());
    registry.register("census", model);

    // Paused queue: requests sit in it until shutdown drains
    // them, by which point the short deadlines have long expired.
    let server = Server::start(registry, ServerConfig::deterministic(64));
    let workload = generate_workload(&table, &WorkloadSpec::random(8, 0xabc), &HashSet::new());

    let expired: Vec<_> = workload[..4]
        .iter()
        .map(|lq| {
            server
                .submit_with_deadline("census", lq.query.clone(), Duration::from_millis(1))
                .expect("accepted")
        })
        .collect();
    let live: Vec<_> = workload[4..]
        .iter()
        .map(|lq| server.submit("census", lq.query.clone()).expect("accepted"))
        .collect();

    std::thread::sleep(Duration::from_millis(20));
    let stats = server.shutdown();

    for ticket in expired {
        assert_eq!(ticket.wait(), Err(ServerError::DeadlineExceeded));
    }
    for ticket in live {
        assert!(ticket.wait().is_ok(), "undeadlined requests still execute");
    }
    assert_eq!(stats.deadline_exceeded, 4);
    assert_eq!(stats.rejected_overloaded, 0, "deadline drops are not an overload shed");
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.queue_depth, 0, "every accepted request exited the gauge");
}
