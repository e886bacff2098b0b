//! Cold-start recovery: replay the write-ahead promotion journal against
//! the durable tenant manifest and republish the last provably-good model
//! version per tenant.
//!
//! The invariants recovery enforces:
//!
//! * **Only journal-committed versions are trusted.** An `Intent` without
//!   a matching `Commit` marks a promotion that may have torn mid-write —
//!   its checkpoint (if any bytes landed) is quarantined, never served.
//! * **Corrupt artifacts are quarantined, never deleted.** A checkpoint,
//!   manifest, or journal that fails its checksum is renamed to
//!   `<name>.quarantine` so the evidence survives for post-mortems.
//! * **Recovery always converges.** If nothing on disk is trustworthy the
//!   tenant restarts from a fresh seed model at version 0 — degraded
//!   accuracy, never unavailability and never a panic.
//! * **Recovery re-establishes the durability baseline.** After
//!   republishing, the manifest is rewritten from the recovered state and
//!   the journal is compacted to an empty header, so a second crash
//!   immediately after recovery replays to the same fleet.
//!
//! [`recover_registry`] rebuilds a [`Registry`]; pass it to
//! [`crate::Server::start`] to serve on the recovered fleet.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use uae_core::{
    quarantine, DiskFaults, Event, Journal, JournalRecord, PersistError, RoutePolicy, Sink, Uae,
    JOURNAL_FILE,
};

use crate::manifest::Manifest;
use crate::registry::Registry;

/// Where a recovered tenant's version was proven good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// A journal `Commit` record vouched for the version.
    Journal,
    /// The manifest carried the version (no journal evidence needed).
    Manifest,
    /// Nothing on disk was trustworthy — fresh seed model at version 0.
    Seed,
}

impl RecoverySource {
    fn as_str(self) -> &'static str {
        match self {
            RecoverySource::Journal => "journal",
            RecoverySource::Manifest => "manifest",
            RecoverySource::Seed => "seed",
        }
    }
}

/// One tenant's recovery verdict.
#[derive(Debug, Clone)]
pub struct TenantRecovery {
    /// The tenant name.
    pub tenant: String,
    /// The version republished.
    pub version: u64,
    /// Checkpoint file (relative to the state directory) the version was
    /// loaded from, `None` for a seed model.
    pub checkpoint: Option<String>,
    /// How the version was proven.
    pub source: RecoverySource,
    /// Artifacts quarantined while walking this tenant's candidates.
    pub quarantined: Vec<PathBuf>,
    /// Routing policy recorded in the manifest. Backends are not
    /// serializable, so the policy is *returned* for the host to rebuild
    /// (via [`Registry::set_router`]) rather than installed blind; until
    /// it does, the tenant serves on its primary model only.
    pub router: Option<RoutePolicy>,
}

/// Everything [`recover_registry`] did, for assertions and telemetry.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-tenant verdicts, in deterministic (sorted) tenant order.
    pub tenants: Vec<TenantRecovery>,
    /// Tenants found on disk but skipped because the builder declined
    /// to produce a base model for them.
    pub skipped: Vec<String>,
    /// Whether the journal had a torn or corrupt tail.
    pub journal_torn: bool,
    /// Whether the manifest was present and intact (`true` also when it
    /// simply did not exist yet).
    pub manifest_ok: bool,
    /// Every artifact quarantined, by its *new* path.
    pub quarantined: Vec<PathBuf>,
    /// Wall-clock recovery time in milliseconds — the cold-start
    /// unavailability window.
    pub recover_ms: f64,
}

fn emit(sink: &mut Option<&mut dyn Sink>, event: Event) {
    if let Some(sink) = sink.as_deref_mut() {
        sink.emit(&event);
    }
}

fn quarantine_into(
    path: &Path,
    reason: &str,
    moved: &mut Vec<PathBuf>,
    sink: &mut Option<&mut dyn Sink>,
) -> Result<(), PersistError> {
    if !path.exists() {
        return Ok(());
    }
    let new_path = quarantine(path)?;
    emit(
        sink,
        Event::RecoveryQuarantined {
            path: new_path.display().to_string(),
            reason: reason.to_owned(),
        },
    );
    moved.push(new_path);
    Ok(())
}

/// Rebuild a [`Registry`] from the state directory `dir`.
///
/// `builder` produces the *base* (seed) model for a tenant name —
/// typically `Uae::new` over the tenant's table, exactly as at first
/// registration. Checkpoints are loaded into clones of that base, so the
/// builder runs at most once per tenant. Returning `None` skips the
/// tenant (it is reported in [`RecoveryReport::skipped`]).
///
/// `faults` is threaded into the *post-recovery* durable writes (manifest
/// rewrite, journal compaction) — pass `None` unless a chaos drill is
/// deliberately crashing recovery itself.
///
/// Only I/O errors (not corruption — that is quarantined and survived)
/// abort recovery.
pub fn recover_registry(
    dir: &Path,
    builder: &mut dyn FnMut(&str) -> Option<Uae>,
    faults: Option<Arc<DiskFaults>>,
    mut sink: Option<&mut dyn Sink>,
) -> Result<(Arc<Registry>, RecoveryReport), PersistError> {
    let started = Instant::now();
    emit(&mut sink, Event::RecoveryStarted { dir: dir.display().to_string() });

    let mut report = RecoveryReport { manifest_ok: true, ..RecoveryReport::default() };

    // 1. The manifest: the "what was live?" snapshot. Corruption is not
    // fatal — quarantine it and lean on the journal alone.
    let manifest = match Manifest::load(dir) {
        Ok(Some(m)) => m,
        Ok(None) => Manifest::default(),
        Err(PersistError::Load(_)) => {
            report.manifest_ok = false;
            quarantine_into(
                &Manifest::path_in(dir),
                "manifest checksum or structure invalid",
                &mut report.quarantined,
                &mut sink,
            )?;
            Manifest::default()
        }
        Err(e) => return Err(e),
    };

    // 2. The journal: the "what was in flight?" record. A torn tail is
    // expected after a crash — the valid prefix replays, the tail is
    // ignored (and the whole file quarantined below, after compaction
    // evidence is extracted).
    let journal_path = dir.join(JOURNAL_FILE);
    let replay = Journal::replay(&journal_path)?;
    report.journal_torn = replay.torn;

    // Intent records: (tenant, version) -> checkpoint file, last wins.
    // Commit records: tenant -> set of provably-durable versions.
    let mut intents: BTreeMap<(String, u64), String> = BTreeMap::new();
    let mut commits: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::Intent { tenant, version, checkpoint } => {
                intents.insert((tenant.clone(), *version), checkpoint.clone());
            }
            JournalRecord::Commit { tenant, version } => {
                commits.entry(tenant.clone()).or_default().insert(*version);
            }
        }
    }

    // 3. The tenant universe: everything either source has heard of.
    let mut tenant_names: BTreeSet<String> = manifest.entries.keys().cloned().collect();
    tenant_names.extend(commits.keys().cloned());
    tenant_names.extend(intents.keys().map(|(t, _)| t.clone()));

    let registry = Arc::new(Registry::new());

    for tenant in &tenant_names {
        let committed = commits.get(tenant).cloned().unwrap_or_default();
        let mut quarantined_here: Vec<PathBuf> = Vec::new();

        // Uncommitted intents mark promotions that may have torn
        // mid-checkpoint: whatever bytes landed are evidence, not state.
        for ((t, v), ck) in intents.range((tenant.clone(), 0)..=(tenant.clone(), u64::MAX)) {
            debug_assert_eq!(t, tenant);
            if !committed.contains(v) {
                quarantine_into(
                    &dir.join(ck),
                    "promotion intent without commit (torn promotion)",
                    &mut quarantined_here,
                    &mut sink,
                )?;
            }
        }

        // Candidate versions, best first: journal-committed versions
        // descending, then the manifest entry if it names a version the
        // journal did not vouch for (e.g. the journal was compacted).
        let manifest_entry = manifest.entries.get(tenant);
        let mut candidates: Vec<(u64, Option<String>, RecoverySource)> = committed
            .iter()
            .rev()
            .map(|&v| {
                let ck = intents
                    .get(&(tenant.clone(), v))
                    .cloned()
                    .or_else(|| {
                        manifest_entry.filter(|e| e.version == v).and_then(|e| e.checkpoint.clone())
                    })
                    .or_else(|| Some(format!("{tenant}_v{v}.uaec")));
                (v, ck, RecoverySource::Journal)
            })
            .collect();
        if let Some(e) = manifest_entry {
            if !committed.contains(&e.version) {
                let at = candidates
                    .iter()
                    .position(|(v, _, _)| *v < e.version)
                    .unwrap_or(candidates.len());
                candidates.insert(at, (e.version, e.checkpoint.clone(), RecoverySource::Manifest));
            }
        }

        let Some(base) = builder(tenant) else {
            report.quarantined.append(&mut quarantined_here);
            report.skipped.push(tenant.clone());
            continue;
        };

        let mut recovered: Option<(Uae, u64, Option<String>, RecoverySource)> = None;
        for (version, checkpoint, source) in candidates {
            match &checkpoint {
                Some(ck) => {
                    let path = dir.join(ck);
                    if !path.exists() {
                        continue;
                    }
                    let mut model = base.clone();
                    match model.load_checkpoint_file(&path) {
                        Ok(()) => {
                            recovered = Some((model, version, checkpoint, source));
                            break;
                        }
                        Err(e) => quarantine_into(
                            &path,
                            &format!("checkpoint rejected: {e}"),
                            &mut quarantined_here,
                            &mut sink,
                        )?,
                    }
                }
                None => {
                    // A version that was never checkpointed (a seed entry
                    // in the manifest): the base model *is* the state.
                    recovered = Some((base.clone(), version, None, source));
                    break;
                }
            }
        }
        let (model, version, checkpoint, source) =
            recovered.unwrap_or((base, 0, None, RecoverySource::Seed));

        let router = manifest_entry.and_then(|e| e.router.clone());
        registry.register_full(tenant.clone(), model, version, checkpoint.clone());

        emit(
            &mut sink,
            Event::RecoveryTenant {
                tenant: tenant.clone(),
                version,
                source: source.as_str().to_owned(),
                quarantined: quarantined_here.len(),
            },
        );
        report.quarantined.extend(quarantined_here.iter().cloned());
        report.tenants.push(TenantRecovery {
            tenant: tenant.clone(),
            version,
            checkpoint,
            source,
            quarantined: quarantined_here,
            router,
        });
    }

    // 4. A torn journal is evidence — preserve it before compaction.
    if report.journal_torn {
        quarantine_into(
            &journal_path,
            "journal tail torn or corrupt",
            &mut report.quarantined,
            &mut sink,
        )?;
    }

    // 5. Re-establish the durability baseline: manifest rewritten from
    // the recovered fleet, journal compacted to an empty header. A crash
    // from here on replays to exactly this state.
    registry.persist_to(dir, faults.clone())?;
    Journal::reset(&journal_path, faults.as_deref())?;

    report.recover_ms = started.elapsed().as_secs_f64() * 1e3;
    emit(
        &mut sink,
        Event::RecoveryFinished {
            tenants: report.tenants.len(),
            quarantined: report.quarantined.len(),
            journal_torn: report.journal_torn,
            ms: report.recover_ms,
        },
    );
    Ok((registry, report))
}
