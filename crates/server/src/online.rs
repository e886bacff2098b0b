//! The background online-learning loop: the thread that closes the
//! query-driven feedback cycle against a live [`Registry`].
//!
//! [`uae_core::OnlineTrainer`] is a pure state machine — it takes the
//! clock as an argument and never sleeps, so tests replay it
//! deterministically. [`OnlineLearner`] is its production driver: a
//! single `uae-online` thread that periodically
//!
//! 1. snapshots the tenant's live model (a cheap `Arc` clone),
//! 2. runs one trainer round against the shared [`uae_core::QueryPool`]
//!    (whoever executes queries to completion feeds the pool), and
//! 3. publishes the round's verdict through
//!    [`Registry::swap_model`] — a promotion swaps the gated candidate
//!    in; a probation rollback swaps the prior version back.
//!
//! The swap is the same atomic publication point serving batches
//! already use: in-flight batches finish on the snapshot they started
//! with, the next flush sees the new model, and the server's rolling
//! latency window resets via the registry swap epoch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uae_core::{OnlineTrainer, QueryPool, RoundOutcome};

use crate::registry::Registry;

/// File name component of a checkpoint path, as stored in the manifest
/// (checkpoints live flat inside the state directory).
fn rel_name(path: &std::path::Path) -> Option<String> {
    path.file_name().map(|n| n.to_string_lossy().into_owned())
}

/// Counters of what the learner thread has published so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnerStats {
    /// Trainer rounds driven.
    pub rounds: u64,
    /// Candidates promoted and swapped in.
    pub promotions: u64,
    /// Candidates the shadow gate refused.
    pub rejections: u64,
    /// Post-promotion regressions rolled back.
    pub rollbacks: u64,
    /// Promotions withheld (or rollbacks left un-checkpointed) because
    /// the write-ahead persistence sequence failed. The loop keeps
    /// running and retries on later rounds.
    pub persist_failures: u64,
}

struct LearnerShared {
    stop: AtomicBool,
    stats: parking_lot::Mutex<LearnerStats>,
}

/// Handle to the background `uae-online` trainer thread. Dropping the
/// handle stops and joins the thread; [`OnlineLearner::stop`] does the
/// same and additionally hands the trainer back (for a final
/// checkpoint, sink drain, or inspection).
pub struct OnlineLearner {
    shared: Arc<LearnerShared>,
    handle: Option<JoinHandle<OnlineTrainer>>,
}

impl OnlineLearner {
    /// Spawn the learner loop for `tenant`: every `poll` interval, run
    /// one trainer round over `pool` against the tenant's current live
    /// model and publish any promotion or rollback through `registry`.
    ///
    /// The tenant must already be registered; rounds against a tenant
    /// that has since been removed publish nothing (the loop keeps
    /// running — registration is registry-lifetime stable anyway).
    pub fn start(
        registry: Arc<Registry>,
        tenant: impl Into<String>,
        mut trainer: OnlineTrainer,
        pool: Arc<QueryPool>,
        poll: Duration,
    ) -> OnlineLearner {
        let tenant = tenant.into();
        let shared = Arc::new(LearnerShared {
            stop: AtomicBool::new(false),
            stats: parking_lot::Mutex::new(LearnerStats::default()),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("uae-online".into())
            .spawn(move || {
                let epoch = Instant::now();
                while !thread_shared.stop.load(Ordering::SeqCst) {
                    let Some(t) = registry.get(&tenant) else {
                        std::thread::sleep(poll);
                        continue;
                    };
                    let live = t.model();
                    let now_ns = epoch.elapsed().as_nanos() as u64;
                    let report = trainer.round(&pool, &live, now_ns);
                    let mut stats = thread_shared.stats.lock();
                    stats.rounds += 1;
                    match report.outcome {
                        RoundOutcome::Promoted { model, version, checkpoint_path, .. } => {
                            stats.promotions += 1;
                            drop(stats);
                            let ck = checkpoint_path.as_deref().and_then(rel_name);
                            let _ = registry.publish(&tenant, model, Some(version), ck);
                        }
                        RoundOutcome::RolledBack { model, version, checkpoint_path, .. } => {
                            stats.rollbacks += 1;
                            drop(stats);
                            let ck = checkpoint_path.as_deref().and_then(rel_name);
                            let _ = registry.publish(&tenant, model, Some(version), ck);
                        }
                        RoundOutcome::PersistFailed { .. } => {
                            stats.persist_failures += 1;
                            drop(stats);
                            std::thread::sleep(poll);
                        }
                        RoundOutcome::Rejected(_) => {
                            stats.rejections += 1;
                            drop(stats);
                            std::thread::sleep(poll);
                        }
                        RoundOutcome::Idle => {
                            drop(stats);
                            std::thread::sleep(poll);
                        }
                    }
                }
                // Clean-shutdown flush: a final idempotent journal commit
                // for the current version plus a manifest rewrite, so a
                // clean stop and a `recover` round-trip are bit-identical.
                if trainer.finalize().is_err() {
                    thread_shared.stats.lock().persist_failures += 1;
                }
                let _ = registry.sync_manifest();
                trainer
            })
            .expect("spawn uae-online");
        OnlineLearner { shared, handle: Some(handle) }
    }

    /// Counters of published outcomes so far.
    pub fn stats(&self) -> LearnerStats {
        *self.shared.stats.lock()
    }

    /// Stop the loop and hand the trainer back (it keeps its version
    /// history, branch state, and any attached sink).
    pub fn stop(mut self) -> OnlineTrainer {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.handle.take().expect("learner running").join().expect("uae-online thread")
    }
}

impl Drop for OnlineLearner {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}
