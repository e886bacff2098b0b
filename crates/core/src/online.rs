//! The online learning loop (ROADMAP item 2): close the query-driven
//! feedback cycle the paper's §4.5 leaves open at serving time.
//!
//! UAE's central claim is that a cardinality estimator should keep
//! learning from the queries it answers. This module supplies the three
//! pieces between "a query executed with a true cardinality" and "a
//! better model is live":
//!
//! * [`QueryPool`] — a bounded, deduplicating FIFO of
//!   [`LabeledQuery`]s (plus staged drift rows), fed by whoever runs
//!   queries to completion (`uae_query::executor`, a real engine, a
//!   drill);
//! * [`OnlineTrainer`] — drains the pool into incremental epochs on a
//!   **private branch** of the live model (the live snapshot itself is
//!   never trained — serving traffic keeps reading it), producing a
//!   candidate per round;
//! * the **shadow gate** ([`shadow_score`] and a [`GateDecision`]) —
//!   scores candidate and live model on the newest labeled queries (held
//!   out from this round's training, at least 8 of them) and only
//!   promotes a candidate whose median q-error stays within 1.1× and
//!   whose p95 stays within 1.25× the live model's. A candidate with
//!   non-finite weights ([`Uae::weights_finite`]) or any baseline
//!   fallback is rejected outright — the serving cascade's
//!   uniform-softmax sanitization keeps a diverged model *answering*, so
//!   q-error margins alone cannot be trusted to catch divergence.
//!
//! Promotions publish a versioned `UAEC` checkpoint (the bit-exact
//! trainer snapshot), and the round after a promotion is a **probation
//! watch**: once enough post-promotion labels arrive, the freshly
//! promoted model is re-scored against the version it replaced and
//! rolled back if it regressed in the wild.
//!
//! Everything here is a pure state machine over an opaque nanosecond
//! clock — [`OnlineTrainer::round`] takes `now_ns` from its caller, in
//! the same style as the serving crate's micro-batcher — so the whole
//! promote/reject/rollback path replays deterministically under a mock
//! clock. The thread that drives it against a live registry lives in
//! `uae-server`; it numbers new versions on from the tenant's published
//! one ([`OnlineTrainer::continue_from`]), so a learner started on a
//! recovered registry extends the recovered lineage.

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use uae_data::Table;
use uae_query::{q_error, ErrorSummary, LabeledQuery, Query};

use crate::estimator::Uae;
use crate::persist::{
    persist_bytes, DiskFaults, Journal, JournalRecord, PersistError, JOURNAL_FILE,
};
use crate::telemetry::{Event, Sink};

/// Lifetime counters of one [`QueryPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Labels offered to the pool (including duplicates).
    pub pushed: u64,
    /// Pushes that refreshed an existing fingerprint instead of adding.
    pub deduped: u64,
    /// Entries FIFO-evicted because the pool was at capacity.
    pub evicted: u64,
    /// Entries drained into training rounds.
    pub drained: u64,
}

struct PoolState {
    /// Arrival-ordered labels; front = oldest.
    queue: VecDeque<LabeledQuery>,
    /// Fingerprints currently in `queue`.
    seen: HashSet<u64>,
    /// Labels pushed since the last training drain (the trainer's
    /// trigger signal).
    fresh: usize,
    /// Drift rows staged for the next round's unsupervised epochs.
    staged: Option<Table>,
    stats: PoolStats,
}

/// Bounded, deduplicating FIFO of executed queries with ground truth —
/// the buffer between serving/execution and the online trainer.
///
/// Duplicates (by [`Query::fingerprint`]) refresh the existing entry's
/// label and move it to the back: a re-executed query carries the
/// *newest* truth, which matters once drift rows land. At capacity the
/// oldest entry is evicted. Drift data flows through the same pool via
/// [`QueryPool::stage_rows`], so the trainer has a single intake for
/// both of the paper's incremental signals (data and queries, §4.5).
pub struct QueryPool {
    capacity: usize,
    inner: Mutex<PoolState>,
}

impl QueryPool {
    /// A pool holding at most `capacity` labeled queries.
    pub fn new(capacity: usize) -> Self {
        QueryPool {
            capacity: capacity.max(1),
            inner: Mutex::new(PoolState {
                queue: VecDeque::new(),
                seen: HashSet::new(),
                fresh: 0,
                staged: None,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Maximum labeled queries held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one executed query with its true cardinality. Returns
    /// `true` when the query was new, `false` when it refreshed an
    /// existing entry.
    pub fn push(&self, label: LabeledQuery) -> bool {
        let fp = label.query.fingerprint();
        let mut st = self.inner.lock();
        st.fresh += 1;
        st.stats.pushed += 1;
        if st.seen.contains(&fp) {
            st.stats.deduped += 1;
            if let Some(pos) = st.queue.iter().position(|e| e.query.fingerprint() == fp) {
                st.queue.remove(pos);
            }
            st.queue.push_back(label);
            return false;
        }
        if st.queue.len() >= self.capacity {
            if let Some(old) = st.queue.pop_front() {
                st.seen.remove(&old.query.fingerprint());
                st.stats.evicted += 1;
            }
        }
        st.seen.insert(fp);
        st.queue.push_back(label);
        true
    }

    /// Offer a batch of labels.
    pub fn extend(&self, labels: impl IntoIterator<Item = LabeledQuery>) {
        for l in labels {
            self.push(l);
        }
    }

    /// Stage drift rows for the trainer's next round (appended to any
    /// rows already staged). Rows are in *original* column order, as
    /// [`Uae::ingest_data`] expects.
    pub fn stage_rows(&self, rows: &Table) {
        let mut st = self.inner.lock();
        match st.staged.as_mut() {
            Some(t) => t.append(rows),
            None => st.staged = Some(rows.clone()),
        }
    }

    /// Take every staged drift row (the trainer calls this once per
    /// round).
    pub fn take_staged_rows(&self) -> Option<Table> {
        self.inner.lock().staged.take()
    }

    /// Labeled queries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether no labeled query is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Labels pushed since the last training drain.
    pub fn fresh(&self) -> usize {
        self.inner.lock().fresh
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Clone of the newest `k` labels, oldest first — the shadow gate's
    /// holdout window. The entries stay pooled (they become training
    /// data in a later round).
    pub fn holdout(&self, k: usize) -> Vec<LabeledQuery> {
        let st = self.inner.lock();
        let skip = st.queue.len().saturating_sub(k);
        st.queue.iter().skip(skip).cloned().collect()
    }

    /// Drain everything except the newest `keep_newest` labels for a
    /// training round, oldest first, and reset the fresh counter. The
    /// kept tail is this round's holdout: the candidate must not have
    /// trained on what the gate scores it with.
    pub fn take_training(&self, keep_newest: usize) -> Vec<LabeledQuery> {
        let mut st = self.inner.lock();
        let take = st.queue.len().saturating_sub(keep_newest);
        let drained: Vec<LabeledQuery> = st.queue.drain(..take).collect();
        for lq in &drained {
            st.seen.remove(&lq.query.fingerprint());
        }
        st.fresh = 0;
        st.stats.drained += drained.len() as u64;
        drained
    }
}

/// One model's shadow-eval result on a holdout window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowScore {
    /// Q-error distribution against the holdout's true cardinalities
    /// (failed estimates score `+∞`).
    pub summary: ErrorSummary,
    /// Baseline fallbacks the shadow clone needed.
    pub fallbacks: u64,
    /// Whether every model weight was finite at scoring time
    /// ([`Uae::weights_finite`]). `false` fails the gate outright.
    pub weights_finite: bool,
}

/// Score `model` on `holdout` without touching its serving state: the
/// evaluation runs on a [`Uae::clone`], whose estimation RNG is reseeded
/// deterministically — so gate verdicts are replayable regardless of how
/// much serving traffic the live snapshot has absorbed.
pub fn shadow_score(model: &Uae, holdout: &[LabeledQuery]) -> ShadowScore {
    let shadow = model.clone();
    let queries: Vec<Query> = holdout.iter().map(|lq| lq.query.clone()).collect();
    let results = shadow.try_estimate_cards(&queries);
    let errors: Vec<f64> = holdout
        .iter()
        .zip(&results)
        .map(|(lq, r)| match r {
            Ok(est) => q_error(lq.cardinality as f64, est.card),
            Err(_) => f64::INFINITY,
        })
        .collect();
    ShadowScore {
        summary: ErrorSummary::from_errors(&errors),
        fallbacks: shadow.serve_stats().fallbacks,
        weights_finite: model.weights_finite(),
    }
}

/// The gate's verdict on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// The candidate may go live.
    Promote,
    /// Too few holdout labels to judge the round.
    Insufficient,
    /// The candidate has non-finite weights, or its shadow clone needed
    /// baseline fallbacks.
    Unhealthy,
    /// Median q-error regressed beyond 1.1× the reference model's.
    MedianRegressed,
    /// P95 q-error regressed beyond 1.25× the reference model's.
    P95Regressed,
}

impl GateDecision {
    /// Stable lowercase label (used in JSONL telemetry).
    pub fn label(self) -> &'static str {
        match self {
            GateDecision::Promote => "promote",
            GateDecision::Insufficient => "insufficient",
            GateDecision::Unhealthy => "unhealthy",
            GateDecision::MedianRegressed => "median_regressed",
            GateDecision::P95Regressed => "p95_regressed",
        }
    }
}

impl std::fmt::Display for GateDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Minimum holdout size for any gate verdict; fewer labels means the
/// round cannot be judged ([`GateDecision::Insufficient`]).
const MIN_EVAL: usize = 8;
/// Promote only if `candidate_median <= live_median * MEDIAN_MARGIN`.
const MEDIAN_MARGIN: f64 = 1.1;
/// Promote only if `candidate_p95 <= live_p95 * P95_MARGIN`.
const P95_MARGIN: f64 = 1.25;

/// Judge a candidate's shadow score against the live model's on the
/// same `evaluated`-label holdout. A candidate with non-finite weights or
/// any baseline fallback is unhealthy. A broken *live* model (infinite
/// quantiles) lets any healthy candidate through: `∞ > ∞ × margin` is
/// false, which is exactly the recovery path.
fn decide(candidate: &ShadowScore, live: &ShadowScore, evaluated: usize) -> GateDecision {
    if evaluated < MIN_EVAL {
        return GateDecision::Insufficient;
    }
    if !candidate.weights_finite || candidate.fallbacks > 0 {
        return GateDecision::Unhealthy;
    }
    if candidate.summary.median > live.summary.median * MEDIAN_MARGIN {
        return GateDecision::MedianRegressed;
    }
    if candidate.summary.p95 > live.summary.p95 * P95_MARGIN {
        return GateDecision::P95Regressed;
    }
    GateDecision::Promote
}

/// Deterministic fault plan for the trainer: rounds whose *candidate*
/// gets NaN-poisoned weights after training (via
/// [`Uae::inject_weight_nan`]) — the private branch stays healthy, so a
/// correctly rejecting gate leaves the loop able to continue. Inert by
/// default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnlineFaultPlan {
    /// Round counters whose candidate is poisoned.
    pub nan_rounds: Vec<u64>,
}

impl OnlineFaultPlan {
    /// Whether round `round`'s candidate should be poisoned.
    pub fn poisons(&self, round: u64) -> bool {
        self.nan_rounds.contains(&round)
    }
}

/// Tuning knobs for [`OnlineTrainer`].
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Fresh labels required before a training round runs (staged drift
    /// rows bypass the trigger — drift must not wait for queries).
    pub trigger_fresh: usize,
    /// Newest labels held out from training for the shadow gate.
    pub holdout: usize,
    /// Supervised epochs per round over the drained labels.
    pub query_epochs: usize,
    /// Unsupervised epochs per round when drift rows were staged.
    pub data_epochs: usize,
    /// Directory receiving one `{label}_v{N}.uaec` checkpoint per
    /// published version plus the write-ahead promotion journal
    /// (`None` keeps checkpoints in memory only and disables the WAL).
    pub checkpoint_dir: Option<PathBuf>,
    /// Tenant label: names the checkpoint files and is carried by every
    /// journal record, tying promotions to a manifest tenant.
    pub label: String,
    /// Deterministic fault injection (inert by default).
    pub fault: OnlineFaultPlan,
    /// Deterministic disk faults, shared (same write counter) with every
    /// other writer of the pipeline. `None` disables injection.
    pub disk: Option<Arc<DiskFaults>>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            trigger_fresh: 16,
            holdout: 16,
            query_epochs: 4,
            data_epochs: 1,
            checkpoint_dir: None,
            label: "uae".to_owned(),
            fault: OnlineFaultPlan::default(),
            disk: None,
        }
    }
}

/// What one trainer round concluded.
pub enum RoundOutcome {
    /// Not enough fresh labels and nothing staged: no work done.
    Idle,
    /// A candidate was trained but the gate refused it; the branch was
    /// restored to its last promoted state.
    Rejected(GateDecision),
    /// The gate passed: swap `model` in as `version`. `checkpoint` is
    /// the candidate's full `UAEC` trainer snapshot — bit-identical
    /// across replays of the same seed and label stream.
    Promoted {
        /// The model to publish.
        model: Uae,
        /// Its version number.
        version: u64,
        /// Its serialized trainer state.
        checkpoint: Vec<u8>,
        /// Where the checkpoint was durably written (`None` when the
        /// trainer has no `checkpoint_dir`). The journal committed this
        /// path before the outcome was returned.
        checkpoint_path: Option<PathBuf>,
    },
    /// Post-promotion regression: republish `model` (the prior version)
    /// as `version`.
    RolledBack {
        /// The restored prior model.
        model: Uae,
        /// The version number of the rollback publication.
        version: u64,
        /// The version whose model this is.
        restored_version: u64,
        /// Where the rollback checkpoint was durably written (`None`
        /// without a `checkpoint_dir`, or if persistence failed — the
        /// rollback still publishes: serving correctness beats
        /// durability when the live model is regressing).
        checkpoint_path: Option<PathBuf>,
    },
    /// The gate passed but the write-ahead persistence sequence failed;
    /// the promotion was withheld and the branch rewound. The caller
    /// should treat this as a crash point (the chaos drill does).
    PersistFailed {
        /// The version that failed to persist (never published).
        version: u64,
        /// What the persistence layer reported.
        error: PersistError,
    },
}

impl std::fmt::Debug for RoundOutcome {
    /// `Uae` carries no `Debug`; summarize the verdict without the model.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundOutcome::Idle => write!(f, "Idle"),
            RoundOutcome::Rejected(d) => write!(f, "Rejected({d})"),
            RoundOutcome::Promoted { version, checkpoint, .. } => {
                write!(
                    f,
                    "Promoted {{ version: {version}, checkpoint: {} bytes }}",
                    checkpoint.len()
                )
            }
            RoundOutcome::RolledBack { version, restored_version, .. } => write!(
                f,
                "RolledBack {{ version: {version}, restored_version: {restored_version} }}"
            ),
            RoundOutcome::PersistFailed { version, error } => {
                write!(f, "PersistFailed {{ version: {version}, error: {error} }}")
            }
        }
    }
}

/// Everything one call to [`OnlineTrainer::round`] reports.
#[derive(Debug)]
pub struct RoundReport {
    /// The round counter this call consumed.
    pub round: u64,
    /// The verdict.
    pub outcome: RoundOutcome,
    /// Shadow score of the judged model (the candidate, or the
    /// on-probation live model during a watch round).
    pub candidate: Option<ShadowScore>,
    /// Shadow score of the reference model (the live model, or the
    /// prior version during a watch round).
    pub live: Option<ShadowScore>,
}

/// Post-promotion probation: who to compare against and how to restore.
struct Watch {
    /// The model the promotion replaced.
    prior: Uae,
    /// The branch checkpoint from before the promoted round's training.
    prior_checkpoint: Vec<u8>,
    /// The replaced model's version number.
    prior_version: u64,
    /// Pool `pushed` counter at promotion — probation is judged only on
    /// labels that arrived afterwards.
    pushed_mark: u64,
}

/// The incremental trainer: owns a private branch of the live model,
/// turns pooled labels (and staged drift rows) into gated candidates,
/// and tracks versions across promote/reject/rollback.
///
/// Pure with respect to time: [`OnlineTrainer::round`] takes the clock
/// as `now_ns` and never sleeps. The serving crate wraps it in a thread;
/// tests call it directly with a mock clock.
pub struct OnlineTrainer {
    branch: Uae,
    cfg: OnlineConfig,
    version: u64,
    round: u64,
    /// Branch checkpoint at the last promotion (or construction) — the
    /// restore point after a rejected round.
    last_good: Vec<u8>,
    watch: Option<Watch>,
    sink: Option<Box<dyn Sink>>,
    /// Write-ahead promotion journal, opened lazily on the first durable
    /// publication (the checkpoint dir may not exist before that).
    journal: Option<Journal>,
}

impl OnlineTrainer {
    /// A trainer branched off `live` at version 0. The branch's RNG
    /// streams are reseeded deterministically by [`Uae::clone`], so two
    /// trainers built from the same live model replay identically.
    pub fn new(live: &Uae, cfg: OnlineConfig) -> Self {
        let branch = live.clone();
        let last_good = branch.save_checkpoint();
        OnlineTrainer {
            branch,
            cfg,
            version: 0,
            round: 0,
            last_good,
            watch: None,
            sink: None,
            journal: None,
        }
    }

    /// Version of the most recently published model (0 = the initial
    /// live model; every promotion *and* rollback increments it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Continue a published lineage: the live model is `version`, so the
    /// next promotion or rollback publishes `version + 1` and never
    /// re-issues (or overwrites the checkpoint of) an earlier version.
    /// The `uae-server` learner thread seeds this from the tenant's
    /// registry version, which recovery restores.
    pub fn continue_from(&mut self, version: u64) {
        self.version = version;
    }

    /// Rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Whether the last promotion is still on probation.
    pub fn on_watch(&self) -> bool {
        self.watch.is_some()
    }

    /// Attach (or replace) the sink receiving the loop's `online_*`
    /// [`Event`]s.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = Some(sink);
    }

    fn emit(&mut self, event: Event) {
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(&event);
        }
    }

    /// One trainer round against the current `live` snapshot at loop
    /// time `now_ns`:
    ///
    /// 1. **probation** — if the last promotion is on watch and enough
    ///    post-promotion labels arrived, re-score live vs the prior
    ///    version; a regression returns
    ///    [`RoundOutcome::RolledBack`] (the caller publishes the prior);
    /// 2. **ingest** — staged drift rows run unsupervised epochs on the
    ///    branch;
    /// 3. **train** — once `trigger_fresh` labels accumulated, all but
    ///    the newest `holdout` are drained into supervised epochs;
    /// 4. **gate** — the candidate (a clone of the branch) and the live
    ///    model are shadow-scored on the holdout;
    ///    [`RoundOutcome::Promoted`] hands the caller the candidate and
    ///    its versioned checkpoint, a rejection restores the branch from
    ///    its last promoted state (an untrusted round must not compound
    ///    into the next).
    pub fn round(&mut self, pool: &QueryPool, live: &Uae, now_ns: u64) -> RoundReport {
        let round = self.round;
        self.round += 1;

        if let Some(report) = self.probation_round(pool, live, round, now_ns) {
            return report;
        }

        let staged = pool.take_staged_rows();
        let rows = staged.as_ref().map_or(0, Table::num_rows);
        if staged.is_none() && pool.fresh() < self.cfg.trigger_fresh {
            return RoundReport { round, outcome: RoundOutcome::Idle, candidate: None, live: None };
        }
        if let Some(rows) = &staged {
            self.branch.ingest_data(rows, self.cfg.data_epochs);
        }
        let train_set = pool.take_training(self.cfg.holdout);
        if !train_set.is_empty() {
            let tqs = self.branch.prepare_queries(&train_set);
            self.branch.train_queries_prepared(&tqs, self.cfg.query_epochs);
        }
        self.emit(Event::OnlineTrained { round, t_ns: now_ns, queries: train_set.len(), rows });

        let mut candidate = self.branch.clone();
        if self.cfg.fault.poisons(round) {
            candidate.inject_weight_nan();
        }

        let holdout = pool.holdout(self.cfg.holdout);
        let cand_score = shadow_score(&candidate, &holdout);
        let live_score = shadow_score(live, &holdout);
        let decision = decide(&cand_score, &live_score, holdout.len());
        self.emit(Event::OnlineGated {
            round,
            t_ns: now_ns,
            evaluated: holdout.len(),
            candidate_median: cand_score.summary.median,
            candidate_p95: cand_score.summary.p95,
            candidate_fallbacks: cand_score.fallbacks,
            live_median: live_score.summary.median,
            live_p95: live_score.summary.p95,
            decision: decision.label().to_owned(),
        });

        if decision != GateDecision::Promote {
            // The round is untrusted (diverged, regressed, or unjudged):
            // rewind the branch so a bad round cannot compound.
            self.branch.load_checkpoint(&self.last_good).expect("last-good checkpoint restores");
            self.emit(Event::OnlineRejected {
                round,
                t_ns: now_ns,
                decision: decision.label().to_owned(),
            });
            return RoundReport {
                round,
                outcome: RoundOutcome::Rejected(decision),
                candidate: Some(cand_score),
                live: Some(live_score),
            };
        }

        self.version += 1;
        let checkpoint = candidate.save_checkpoint();
        // Write-ahead discipline: journal the intent (fsync), write the
        // checkpoint atomically, journal the commit (fsync). Only a
        // version whose commit record is on disk is considered published
        // by recovery — so a persistence failure here must withhold the
        // promotion entirely, or a crash would silently revert it.
        let checkpoint_path = match self.persist_version(self.version, &checkpoint) {
            Ok(path) => path,
            Err(error) => {
                let version = self.version;
                self.version -= 1;
                self.branch
                    .load_checkpoint(&self.last_good)
                    .expect("last-good checkpoint restores");
                self.emit(Event::OnlinePersistFailed {
                    round,
                    t_ns: now_ns,
                    version,
                    error: error.to_string(),
                });
                return RoundReport {
                    round,
                    outcome: RoundOutcome::PersistFailed { version, error },
                    candidate: Some(cand_score),
                    live: Some(live_score),
                };
            }
        };
        let prior_checkpoint =
            std::mem::replace(&mut self.last_good, self.branch.save_checkpoint());
        self.watch = Some(Watch {
            prior: live.clone(),
            prior_checkpoint,
            prior_version: self.version - 1,
            pushed_mark: pool.stats().pushed,
        });
        self.emit(Event::OnlinePromoted {
            round,
            t_ns: now_ns,
            version: self.version,
            checkpoint_bytes: checkpoint.len(),
        });
        RoundReport {
            round,
            outcome: RoundOutcome::Promoted {
                model: candidate,
                version: self.version,
                checkpoint,
                checkpoint_path,
            },
            candidate: Some(cand_score),
            live: Some(live_score),
        }
    }

    /// File name of version `version`'s checkpoint, relative to the
    /// checkpoint directory.
    pub fn checkpoint_name(&self, version: u64) -> String {
        format!("{}_v{}.uaec", self.cfg.label, version)
    }

    /// Run the write-ahead persistence sequence for one published
    /// version: intent record (fsynced) → atomic checkpoint write →
    /// commit record (fsynced). Returns the checkpoint path, or `None`
    /// when the trainer has no `checkpoint_dir`.
    fn persist_version(
        &mut self,
        version: u64,
        checkpoint: &[u8],
    ) -> Result<Option<PathBuf>, PersistError> {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::Io {
            op: "create-dir",
            path: dir.clone(),
            source: e,
        })?;
        if self.journal.is_none() {
            self.journal = Some(Journal::open(dir.join(JOURNAL_FILE), self.cfg.disk.clone())?);
        }
        let file = self.checkpoint_name(version);
        let path = dir.join(&file);
        let journal = self.journal.as_ref().expect("journal opened above");
        journal.append(&JournalRecord::Intent {
            tenant: self.cfg.label.clone(),
            version,
            checkpoint: file,
        })?;
        persist_bytes(&path, checkpoint, self.cfg.disk.as_deref())?;
        journal.append(&JournalRecord::Commit { tenant: self.cfg.label.clone(), version })?;
        Ok(Some(path))
    }

    /// Flush the durability tail on clean shutdown: re-append a `Commit`
    /// record for the current version so the journal's final record
    /// provably names the published lineage head (idempotent — recovery
    /// treats a repeated commit as a no-op). The `uae-server` learner
    /// thread calls this from its stop path, followed by a manifest
    /// sync, so a clean shutdown and a `recover` round-trip are
    /// bit-identical.
    pub fn finalize(&mut self) -> Result<Option<u64>, PersistError> {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            return Ok(None);
        };
        if self.version == 0 {
            return Ok(None);
        }
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::Io {
            op: "create-dir",
            path: dir.clone(),
            source: e,
        })?;
        if self.journal.is_none() {
            self.journal = Some(Journal::open(dir.join(JOURNAL_FILE), self.cfg.disk.clone())?);
        }
        let journal = self.journal.as_ref().expect("journal opened above");
        journal.append(&JournalRecord::Commit {
            tenant: self.cfg.label.clone(),
            version: self.version,
        })?;
        Ok(Some(self.version))
    }

    /// The probation check at the top of a round. `Some` means the
    /// promoted model regressed and the caller must publish the prior.
    fn probation_round(
        &mut self,
        pool: &QueryPool,
        live: &Uae,
        round: u64,
        now_ns: u64,
    ) -> Option<RoundReport> {
        let watch = self.watch.as_ref()?;
        // Judge probation only on labels that arrived after the
        // promotion, and only once there are enough of them.
        let arrived = pool.stats().pushed.saturating_sub(watch.pushed_mark);
        if arrived < MIN_EVAL as u64 {
            return None;
        }
        let holdout = pool.holdout((arrived as usize).min(self.cfg.holdout.max(1)));
        if holdout.len() < MIN_EVAL {
            return None;
        }
        let live_score = shadow_score(live, &holdout);
        let prior_score = shadow_score(&watch.prior, &holdout);
        let verdict = decide(&live_score, &prior_score, holdout.len());
        let watch = self.watch.take().expect("watch present");
        if verdict == GateDecision::Promote {
            // The promotion held up in the wild; probation ends.
            return None;
        }
        self.branch
            .load_checkpoint(&watch.prior_checkpoint)
            .expect("prior checkpoint restores the branch");
        self.last_good = watch.prior_checkpoint;
        self.version += 1;
        // Persist the rollback publication too — otherwise a crash after
        // a rollback would recover the *rolled-back* (regressing) version
        // as the newest committed one. Unlike a promotion, a rollback is
        // published even if persistence fails: serving correctness beats
        // durability when the live model is regressing in the wild.
        let checkpoint_path = match self.persist_version(self.version, &self.last_good.clone()) {
            Ok(path) => path,
            Err(error) => {
                self.emit(Event::OnlinePersistFailed {
                    round,
                    t_ns: now_ns,
                    version: self.version,
                    error: error.to_string(),
                });
                None
            }
        };
        self.emit(Event::OnlineRolledBack {
            round,
            t_ns: now_ns,
            version: self.version,
            restored_version: watch.prior_version,
        });
        Some(RoundReport {
            round,
            outcome: RoundOutcome::RolledBack {
                model: watch.prior,
                version: self.version,
                restored_version: watch.prior_version,
                checkpoint_path,
            },
            candidate: Some(live_score),
            live: Some(prior_score),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_query::{PredOp, Predicate};

    fn q(col: usize, val: i64) -> Query {
        Query::new(vec![Predicate::new(col, PredOp::Le, val.into())])
    }

    fn label(col: usize, val: i64, card: u64) -> LabeledQuery {
        LabeledQuery { query: q(col, val), cardinality: card, selectivity: card as f64 / 100.0 }
    }

    #[test]
    fn pool_dedups_by_fingerprint_and_refreshes_label() {
        let pool = QueryPool::new(8);
        assert!(pool.push(label(0, 5, 10)));
        assert!(pool.push(label(1, 5, 20)));
        // Same query, newer truth: refreshed and moved to the back.
        assert!(!pool.push(label(0, 5, 42)));
        assert_eq!(pool.len(), 2);
        let newest = pool.holdout(1);
        assert_eq!(newest[0].cardinality, 42);
        let s = pool.stats();
        assert_eq!((s.pushed, s.deduped, s.evicted), (3, 1, 0));
    }

    #[test]
    fn pool_fifo_evicts_at_capacity() {
        let pool = QueryPool::new(3);
        for v in 0..5i64 {
            pool.push(label(0, v, v as u64));
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.stats().evicted, 2);
        // Oldest (v=0,1) gone; the evicted fingerprints may re-enter.
        let held: Vec<u32> = pool.holdout(3).iter().map(|l| l.cardinality as u32).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert!(pool.push(label(0, 0, 99)), "evicted fingerprint re-enters as new");
    }

    #[test]
    fn pool_training_drain_keeps_holdout_and_resets_fresh() {
        let pool = QueryPool::new(16);
        for v in 0..10i64 {
            pool.push(label(0, v, v as u64));
        }
        assert_eq!(pool.fresh(), 10);
        let train = pool.take_training(4);
        assert_eq!(train.len(), 6);
        assert_eq!(train[0].cardinality, 0, "oldest first");
        assert_eq!(pool.len(), 4, "holdout tail stays pooled");
        assert_eq!(pool.fresh(), 0);
        assert_eq!(pool.stats().drained, 6);
        // Drained fingerprints may re-enter with fresh labels.
        assert!(pool.push(label(0, 0, 7)));
    }

    #[test]
    fn gate_decides_in_priority_order() {
        let score = |median: f64, p95: f64, fallbacks: u64| ShadowScore {
            summary: ErrorSummary { mean: median, median, p95, max: p95, count: 8 },
            fallbacks,
            weights_finite: true,
        };
        let live = score(2.0, 8.0, 0);
        assert_eq!(decide(&score(2.0, 8.0, 0), &live, 2), GateDecision::Insufficient);
        assert_eq!(decide(&score(1.0, 1.0, 3), &live, 8), GateDecision::Unhealthy);
        // Non-finite weights fail the gate even with perfect q-errors.
        let nan_weights = ShadowScore { weights_finite: false, ..score(1.0, 1.0, 0) };
        assert_eq!(decide(&nan_weights, &live, 8), GateDecision::Unhealthy);
        assert_eq!(decide(&score(3.0, 8.0, 0), &live, 8), GateDecision::MedianRegressed);
        assert_eq!(decide(&score(2.0, 11.0, 0), &live, 8), GateDecision::P95Regressed);
        assert_eq!(decide(&score(2.1, 9.9, 0), &live, 8), GateDecision::Promote);
        // A broken live model (∞ quantiles) lets a healthy candidate in.
        let broken = score(f64::INFINITY, f64::INFINITY, 0);
        assert_eq!(decide(&score(5.0, 50.0, 0), &broken, 8), GateDecision::Promote);
        // …but a broken candidate never beats a healthy live model.
        assert_eq!(decide(&broken, &live, 8), GateDecision::MedianRegressed);
    }
}
