//! Full-stack crash-safety chaos drill: serve → drift → promote, killed
//! at **every** injected disk-fault point, restarted via cold-start
//! recovery, and checked bit-for-bit against a never-crashed reference.
//!
//! The drill enumerates the pipeline's durable writes with a counting
//! [`DiskFaults`] reference run (manifest rewrites, journal header,
//! intent/commit appends, checkpoint writes), then replays the whole
//! pipeline once per `(write index, fault kind)` pair:
//!
//! * **io-error** — the write fails cleanly before touching disk;
//! * **torn-write** — a truncated prefix lands at the destination;
//! * **bit-flip** — the write "succeeds" with one silently corrupted
//!   byte (caught only by checksums at read time).
//!
//! A failed promotion persist is treated as a crash (the pipeline stops
//! on the spot). `recover_registry` then replays the write-ahead journal
//! against the tenant manifest and must republish the last provably-good
//! version: answers bit-identical to the reference run at that version,
//! corrupt artifacts quarantined (never deleted), recovery time bounded.
//!
//! ```sh
//! cargo run --release --example chaos_drill
//! ```
//!
//! Per-case telemetry goes to `target/chaos_drill.jsonl`, recovery events
//! to `target/chaos_recovery.jsonl`, and the summary to
//! `target/BENCH_recovery.json`. Exits nonzero on any violated invariant.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use uae::core::{
    DiskFaultKind, DiskFaultPlan, DiskFaults, JsonlSink, OnlineConfig, OnlineTrainer, QueryPool,
    ResMadeConfig, RoundOutcome, TrainConfig, Uae, UaeConfig,
};
use uae::data::{census_like, Table};
use uae::query::{generate_workload, label_queries, CardEstimator, LabeledQuery, WorkloadSpec};
use uae::server::{recover_registry, Registry};

const TENANT: &str = "census";
const TARGET_PROMOTIONS: usize = 2;
/// Generous cold-start bound: recovery loads at most a handful of small
/// checkpoints — anything past this is a hang, not a slow disk.
const MAX_RECOVER_MS: f64 = 60_000.0;

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

/// Fixed probe workload answered on a deterministic clone — the
/// bit-identity witness compared across crash/recover boundaries.
fn probe(model: &Uae, table: &Table) -> Vec<f64> {
    let queries = generate_workload(table, &WorkloadSpec::random(16, 0x9e0be), &HashSet::new());
    let clone = model.clone();
    queries.iter().map(|lq| clone.estimate_card(&lq.query)).collect()
}

/// One publication the pipeline made: its version, the model, and
/// whether the write-ahead sequence proved it durable.
struct Publication {
    version: u64,
    model: Uae,
    durable: bool,
}

/// What one serve→drift→promote run did before finishing or "crashing".
#[derive(Default)]
struct RunResult {
    published: Vec<Publication>,
    /// A promotion persist failed — the run stopped there (crash point).
    crashed: bool,
    /// The very first durable attach failed — nothing ever registered.
    setup_failed: bool,
}

impl RunResult {
    /// The last version the journal can prove (0 = the seed).
    fn survivor(&self) -> u64 {
        self.published.iter().rev().find(|p| p.durable).map_or(0, |p| p.version)
    }
}

/// The deterministic pipeline under test: attach a registry to `dir`,
/// register the tenant, drive trainer rounds over the label stream and
/// publish every verdict, then (absent a crash) do the clean-shutdown
/// flush. Identical inputs ⇒ identical write sequence, which is what
/// makes "fault at write index w" a reproducible crash point.
fn run_pipeline(
    dir: &Path,
    faults: Option<Arc<DiskFaults>>,
    seed: &Uae,
    stream: &[LabeledQuery],
) -> RunResult {
    let mut out = RunResult::default();
    let registry = Arc::new(Registry::new());
    if registry.persist_to(dir, faults.clone()).is_err() {
        out.setup_failed = true;
        return out;
    }
    registry.register(TENANT, seed.clone());
    let mut trainer = OnlineTrainer::new(
        seed,
        OnlineConfig {
            trigger_fresh: 12,
            holdout: 8,
            query_epochs: 2,
            checkpoint_dir: Some(dir.to_path_buf()),
            label: TENANT.to_owned(),
            disk: faults.clone(),
            ..OnlineConfig::default()
        },
    );
    let pool = QueryPool::new(1024);
    let mut current = seed.clone();
    let mut promotions = 0usize;
    for (i, chunk) in stream.chunks(24).enumerate() {
        pool.extend(chunk.iter().cloned());
        match trainer.round(&pool, &current, i as u64 * 1_000_000).outcome {
            RoundOutcome::Promoted { model, version, checkpoint_path, .. } => {
                let ck = checkpoint_path
                    .as_deref()
                    .and_then(|p| p.file_name())
                    .map(|n| n.to_string_lossy().into_owned());
                let durable = ck.is_some();
                let _ = registry.publish(TENANT, model.clone(), Some(version), ck);
                out.published.push(Publication { version, model: model.clone(), durable });
                current = model;
                promotions += 1;
                if promotions >= TARGET_PROMOTIONS {
                    break;
                }
            }
            RoundOutcome::RolledBack { model, version, checkpoint_path, .. } => {
                let ck = checkpoint_path
                    .as_deref()
                    .and_then(|p| p.file_name())
                    .map(|n| n.to_string_lossy().into_owned());
                let durable = ck.is_some();
                let _ = registry.publish(TENANT, model.clone(), Some(version), ck);
                out.published.push(Publication { version, model: model.clone(), durable });
                current = model;
            }
            RoundOutcome::PersistFailed { .. } => {
                out.crashed = true;
                break;
            }
            RoundOutcome::Idle | RoundOutcome::Rejected(_) => {}
        }
    }
    if !out.crashed {
        let _ = trainer.finalize();
        let _ = registry.sync_manifest();
    }
    out
}

/// Every file under `dir` (names only — the drill keeps state flat).
fn file_set(dir: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            out.insert(e.file_name().to_string_lossy().into_owned());
        }
    }
    out
}

fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create drill dir");
    dir
}

struct CaseOutcome {
    ok: bool,
    recovered_version: u64,
    recover_ms: f64,
    quarantined: usize,
    detail: String,
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    root: &Path,
    tag: &str,
    plan: DiskFaultPlan,
    kind: Option<DiskFaultKind>,
    seed: &Uae,
    table: &Table,
    stream: &[LabeledQuery],
    answers: &BTreeMap<u64, Vec<f64>>,
    final_version: u64,
    recovery_log: &mut JsonlSink,
) -> CaseOutcome {
    let dir = fresh_dir(root, tag);
    let faults = (!plan.is_inert()).then(|| Arc::new(DiskFaults::new(plan)));
    let run = run_pipeline(&dir, faults, seed, stream);

    let before = file_set(&dir);
    let mut builder = |name: &str| (name == TENANT).then(|| seed.clone());
    let (registry, report) = match recover_registry(&dir, &mut builder, None, Some(recovery_log)) {
        Ok(r) => r,
        Err(e) => {
            return CaseOutcome {
                ok: false,
                recovered_version: 0,
                recover_ms: 0.0,
                quarantined: 0,
                detail: format!("recover_registry failed: {e}"),
            }
        }
    };
    let after = file_set(&dir);

    let mut failures: Vec<String> = Vec::new();

    // Invariant: quarantine renames, never deletes — every pre-recovery
    // file survives, at its own name or under a `.quarantine` suffix.
    for f in &before {
        if !after.iter().any(|g| g == f || g.starts_with(&format!("{f}.quarantine"))) {
            failures.push(format!("file {f} vanished during recovery"));
        }
    }

    // Invariant: bounded unavailability.
    if report.recover_ms > MAX_RECOVER_MS {
        failures
            .push(format!("recovery took {:.1} ms (bound {MAX_RECOVER_MS})", report.recover_ms));
    }

    let survivor = run.survivor();
    let recovered_version = if run.setup_failed {
        // The very first manifest write failed before the tenant was ever
        // registered: there is legitimately no tenant to recover (at most
        // a torn zero-tenant manifest to quarantine).
        if !report.tenants.is_empty() {
            failures.push(format!(
                "expected an empty fleet from an empty directory, got {} tenant(s)",
                report.tenants.len()
            ));
        }
        0
    } else {
        match report.tenants.iter().find(|t| t.tenant == TENANT) {
            None => {
                failures.push("tenant was not recovered".to_owned());
                0
            }
            Some(rec) => {
                match kind {
                    // Clean failures stop the pipeline at the fault: the
                    // journal proves exactly the survivor version.
                    None | Some(DiskFaultKind::IoError) | Some(DiskFaultKind::TornWrite) => {
                        if rec.version != survivor {
                            failures.push(format!(
                                "recovered v{} but the last committed version is v{survivor}",
                                rec.version
                            ));
                        }
                    }
                    // A silent flip corrupts exactly one artifact of a
                    // completed run: recovery lands on the final version,
                    // or one before it when the flip hit that version's
                    // own checkpoint (which must then be quarantined).
                    Some(DiskFaultKind::BitFlip) => {
                        let hit_final_ckpt = report.quarantined.iter().any(|p| {
                            p.to_string_lossy().contains(&format!("{TENANT}_v{final_version}.uaec"))
                        });
                        let expect = if hit_final_ckpt { final_version - 1 } else { final_version };
                        if rec.version != expect {
                            failures.push(format!(
                                "bit-flip case recovered v{} (expected v{expect}, \
                                 final v{final_version}, flipped-final-ckpt {hit_final_ckpt})",
                                rec.version
                            ));
                        }
                    }
                }
                // Invariant: the recovered fleet answers bit-identically
                // to the never-crashed reference at the surviving version.
                let tenant = registry.get(TENANT).expect("tenant registered by recovery");
                match answers.get(&rec.version) {
                    None => failures.push(format!(
                        "recovered v{} is not a version the reference ever published",
                        rec.version
                    )),
                    Some(expected) => {
                        let got = probe(&tenant.model(), table);
                        if &got != expected {
                            failures.push(format!(
                                "recovered v{} answers diverge from the reference",
                                rec.version
                            ));
                        }
                    }
                }
                rec.version
            }
        }
    };

    std::fs::remove_dir_all(&dir).ok();
    CaseOutcome {
        ok: failures.is_empty(),
        recovered_version,
        recover_ms: report.recover_ms,
        quarantined: report.quarantined.len(),
        detail: failures.join("; "),
    }
}

fn main() {
    let target = Path::new("target");
    std::fs::create_dir_all(target).expect("create target/");
    let root = target.join("chaos_drill_state");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create drill root");

    let table = census_like(400, 0x10ea5);
    let seed = seed_model(&table);
    let queries = generate_workload(&table, &WorkloadSpec::random(200, 0xfeed), &HashSet::new())
        .into_iter()
        .map(|lq| lq.query)
        .collect();
    let stream = label_queries(&table, queries);

    // ---- Reference run: enumerate the write points, record the truth.
    let ref_dir = fresh_dir(&root, "reference");
    let counter = Arc::new(DiskFaults::counting());
    let reference = run_pipeline(&ref_dir, Some(counter.clone()), &seed, &stream);
    assert!(!reference.crashed && !reference.setup_failed, "reference run must not crash");
    let write_points = counter.writes();
    let final_version = reference.survivor();
    assert!(
        reference.published.iter().filter(|p| p.durable).count() >= TARGET_PROMOTIONS,
        "the drift recipe must drive at least {TARGET_PROMOTIONS} durable promotions"
    );
    let mut answers: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    answers.insert(0, probe(&seed, &table));
    for p in &reference.published {
        answers.insert(p.version, probe(&p.model, &table));
    }
    println!(
        "[chaos] reference: {} durable write points, final version v{final_version}, \
         {} published version(s)",
        write_points,
        reference.published.len()
    );

    let mut recovery_log = JsonlSink::create(target.join("chaos_recovery.jsonl"), "chaos")
        .expect("open recovery telemetry");
    let mut case_log = std::io::BufWriter::new(
        std::fs::File::create(target.join("chaos_drill.jsonl")).expect("open case telemetry"),
    );

    let mut cases = 0usize;
    let mut failed = 0usize;
    let mut recover_ms_sum = 0.0f64;
    let mut recover_ms_max = 0.0f64;

    let record = |case_log: &mut std::io::BufWriter<std::fs::File>,
                  fault: &str,
                  write_index: i64,
                  outcome: &CaseOutcome| {
        writeln!(
            case_log,
            "{{\"event\":\"chaos_case\",\"fault\":\"{fault}\",\"write_index\":{write_index},\
             \"recovered_version\":{},\"recover_ms\":{:.3},\"quarantined\":{},\"ok\":{}{}}}",
            outcome.recovered_version,
            outcome.recover_ms,
            outcome.quarantined,
            outcome.ok,
            if outcome.detail.is_empty() {
                String::new()
            } else {
                format!(",\"detail\":{:?}", outcome.detail)
            }
        )
        .expect("write case line");
    };

    // ---- Case 0: clean shutdown, no faults — recover must be a no-op
    // republish of the final version.
    {
        let outcome = run_case(
            &root,
            "clean",
            DiskFaultPlan::default(),
            None,
            &seed,
            &table,
            &stream,
            &answers,
            final_version,
            &mut recovery_log,
        );
        cases += 1;
        recover_ms_sum += outcome.recover_ms;
        recover_ms_max = recover_ms_max.max(outcome.recover_ms);
        let clean_ok = outcome.ok && outcome.quarantined == 0;
        if !clean_ok {
            failed += 1;
            eprintln!(
                "[chaos] FAIL clean shutdown: {} (quarantined {})",
                outcome.detail, outcome.quarantined
            );
        }
        println!(
            "[chaos] clean shutdown → v{} in {:.1} ms {}",
            outcome.recovered_version,
            outcome.recover_ms,
            if clean_ok { "ok" } else { "FAIL" }
        );
        record(&mut case_log, "none", -1, &outcome);
    }

    // ---- The matrix: every write index × every fault kind.
    for w in 0..write_points {
        for kind in [DiskFaultKind::IoError, DiskFaultKind::TornWrite, DiskFaultKind::BitFlip] {
            let plan = match kind {
                DiskFaultKind::IoError => {
                    DiskFaultPlan { io_error: vec![w], ..DiskFaultPlan::default() }
                }
                DiskFaultKind::TornWrite => {
                    DiskFaultPlan { torn_write: vec![w], ..DiskFaultPlan::default() }
                }
                DiskFaultKind::BitFlip => {
                    DiskFaultPlan { bit_flip: vec![(w, 13, 0x20)], ..DiskFaultPlan::default() }
                }
            };
            let outcome = run_case(
                &root,
                &format!("{kind}_{w}"),
                plan,
                Some(kind),
                &seed,
                &table,
                &stream,
                &answers,
                final_version,
                &mut recovery_log,
            );
            cases += 1;
            recover_ms_sum += outcome.recover_ms;
            recover_ms_max = recover_ms_max.max(outcome.recover_ms);
            if !outcome.ok {
                failed += 1;
                eprintln!("[chaos] FAIL {kind} @ write {w}: {}", outcome.detail);
            }
            record(&mut case_log, &kind.to_string(), w as i64, &outcome);
        }
    }
    case_log.flush().expect("flush case telemetry");

    let mean_ms = recover_ms_sum / cases as f64;
    let summary = format!(
        "{{\"bench\":\"chaos_drill\",\"cases\":{cases},\"failures\":{failed},\
         \"write_points\":{write_points},\"final_version\":{final_version},\
         \"recover_ms_mean\":{mean_ms:.3},\"recover_ms_max\":{recover_ms_max:.3}}}\n"
    );
    std::fs::write(target.join("BENCH_recovery.json"), &summary).expect("write summary");
    println!(
        "[chaos] {cases} cases ({} fault points × 3 kinds + clean), {failed} failure(s); \
         recovery mean {mean_ms:.1} ms, max {recover_ms_max:.1} ms",
        write_points
    );

    let _ = std::fs::remove_dir_all(&root);
    if failed > 0 {
        std::process::exit(1);
    }
}
