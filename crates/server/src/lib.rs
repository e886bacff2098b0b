//! # uae-server — concurrent serving front-end for UAE
//!
//! The estimation engine underneath (`uae-core`) is synchronous: one
//! caller, one `&Uae`, one (possibly batched) estimate call. Real serving
//! traffic is the opposite shape — many concurrent submitters, each with a
//! single query, arriving at random times, possibly for different tables.
//! This crate bridges the two with three pieces:
//!
//! * [`Registry`] — a per-tenant model registry: named [`uae_core::Uae`]
//!   snapshots behind an atomic swap point, each with its own serving
//!   configuration and [`DegradeConfig`] ladder.
//! * [`MicroBatcher`] — a pure work-conserving state machine (a lane
//!   with no batch in flight flushes on arrival, a busy one on size or
//!   deadline or when its batch returns; mock-clock testable) that
//!   coalesces independent arrivals into the batches the engine is fast
//!   at.
//! * [`Server`] — threads wiring them together: one bounded queue (the
//!   micro-batcher behind a mutex) with typed [`SubmitError::Overloaded`]
//!   backpressure, a pool of batch executors that take ready lanes
//!   straight from it and drive [`uae_core::serve_batch`] so a tenant's
//!   router and the full fallback cascade apply per micro-batch, and a
//!   queue-depth degradation ladder that shrinks the progressive-sample
//!   budget under load (tagged
//!   [`uae_core::EstimateSource::ModelDegraded`]).
//! * [`OnlineLearner`] — the background `uae-online` thread closing the
//!   query-driven loop: it drives [`uae_core::OnlineTrainer`] rounds
//!   over a shared [`uae_core::QueryPool`] of executed queries and
//!   publishes shadow-gated promotions (and probation rollbacks)
//!   through the registry's atomic swap point.
//!
//! No async runtime, no executor dependency: plain `std::thread` +
//! mutexes + condvars, matching the rest of the workspace.
//!
//! ## Determinism
//!
//! Concurrent serving trades the engine's bit-for-bit replayability for
//! throughput: batch composition depends on arrival timing, and each
//! tenant's RNG stream advances in flush order. The escape hatch is
//! [`ServerConfig::deterministic`] — one executor, unbounded batch,
//! paused queue — under which a submitted sequence replays as a
//! single batch bit-identical to [`uae_core::serve_batch`] over the
//! tenant's model and router (without a router:
//! [`uae_core::Uae::try_estimate_cards`]).

pub mod batcher;
pub mod manifest;
pub mod online;
pub mod recover;
pub mod registry;
pub mod server;
pub mod stats;

pub use batcher::{MicroBatcher, Poll};
pub use manifest::{Manifest, ManifestEntry, MANIFEST_FILE};
pub use online::{LearnerStats, OnlineLearner};
pub use recover::{recover_registry, RecoveryReport, RecoverySource, TenantRecovery};
pub use registry::{DegradeConfig, LadderState, Registry, Tenant, UnknownTenant};
pub use server::{
    ServeCallError, Server, ServerConfig, ServerError, ServerFaultPlan, SubmitError, Ticket,
};
pub use stats::{batch_bucket_label, LatencyWindow, ServerStats, BATCH_HIST_BUCKETS};

// The whole design leans on sharing `Arc<Uae>` across executor threads;
// fail the build loudly if the estimator ever loses Send + Sync.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<uae_core::Uae>();
    assert_send_sync::<Server>();
    assert_send_sync::<Registry>();
};
