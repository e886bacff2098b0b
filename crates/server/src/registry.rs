//! Per-tenant model registry: named [`Uae`] snapshots behind an
//! atomic-swap point.
//!
//! A production estimation service hosts many tables/tenants at once, each
//! with its own trained model and serving configuration (`ServeConfig`
//! lives *inside* the tenant's `Uae`). The registry maps
//! tenant names to [`Tenant`] handles; the model inside a tenant is an
//! `Arc<Uae>` behind an `RwLock`, so
//!
//! * executors grab a cheap `Arc` clone per batch (a read lock held for
//!   nanoseconds, never across an estimate), and
//! * [`Registry::swap_model`] publishes a retrained model atomically
//!   between batches — in-flight batches finish on the snapshot they
//!   started with, the next flush sees the new one. This is the hot-swap
//!   point the online-learning loop (ROADMAP item 2) will drive.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use uae_core::{DiskFaults, PersistError, QueryPool, Router, Uae};

use crate::manifest::{Manifest, ManifestEntry};

/// Load-shedding degradation ladder (one per server, applied to every
/// tenant).
///
/// | rung | condition | per-query budget |
/// |---|---|---|
/// | 0 | nominal | the tenant's configured `estimate_samples` |
/// | 1 | in-flight requests over threshold | 0.25 × configured |
///
/// Degraded batches run through the same cascade; their results carry
/// [`uae_core::EstimateSource::ModelDegraded`] and count into
/// [`uae_core::ServeStats::degraded`].
///
/// Engagement is **hysteretic** (via [`DegradeConfig::step`] over a
/// per-tenant [`LadderState`]): the ladder engages the moment the depth
/// crosses the threshold, but releases only once the depth has dropped
/// into the exit band (`threshold × 0.8`) *and* has not re-crossed the
/// threshold for 100 ms. The rung fraction, the exit band and the
/// cooldown are constants; only the threshold is configurable.
/// Load oscillating right at the threshold therefore cannot flap the
/// budget every batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeConfig {
    /// In-flight requests (accepted, not yet replied) above which rung 1
    /// engages. `0` disables the ladder.
    pub queue_depth_threshold: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig { queue_depth_threshold: 256 }
    }
}

/// Rung-1 budget as a fraction of the tenant's configured
/// `estimate_samples`.
const DEGRADED_FRACTION: f64 = 0.25;
/// An engaged ladder releases only below `threshold × EXIT_FRACTION` —
/// the hysteresis band.
const EXIT_FRACTION: f64 = 0.8;
/// An engaged ladder additionally stays engaged for this long after the
/// depth last crossed the threshold, regardless of the exit band.
const COOLDOWN_NS: u64 = 100_000_000; // 100 ms

/// Per-tenant hysteresis state of the ladder: whether it is engaged, and
/// when the depth last crossed the threshold (the cooldown clock). Owned
/// by the [`Tenant`]; pure state driven by [`DegradeConfig::step`] under
/// the caller's clock (the server's, at flush time, or a mock in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct LadderState {
    hot: bool,
    hot_at_ns: u64,
}

impl LadderState {
    /// Whether the queue-depth signal is currently hot.
    pub fn depth_hot(&self) -> bool {
        self.hot
    }
}

impl DegradeConfig {
    /// A ladder that never engages (full budget regardless of load).
    pub fn disabled() -> Self {
        DegradeConfig { queue_depth_threshold: 0 }
    }

    /// The hysteretic per-query budget: advance `state` under the
    /// current `queue_depth` at `now_ns` and return the budget for the
    /// rung the ladder is now on (`None` for the full configured budget,
    /// `Some(shrunken)` when rung 1 engages). `configured` is the
    /// tenant's nominal `estimate_samples`. Entry is immediate; exit
    /// requires the depth below the exit band with the cooldown expired.
    pub fn step(
        &self,
        state: &mut LadderState,
        configured: usize,
        queue_depth: usize,
        now_ns: u64,
    ) -> Option<usize> {
        if self.queue_depth_threshold == 0 {
            state.hot = false;
            return None;
        }
        let (depth, threshold) = (queue_depth as f64, self.queue_depth_threshold as f64);
        if depth > threshold {
            state.hot = true;
            state.hot_at_ns = now_ns; // every re-cross restarts the cooldown
        } else if state.hot
            && depth <= threshold * EXIT_FRACTION
            && now_ns.saturating_sub(state.hot_at_ns) >= COOLDOWN_NS
        {
            state.hot = false;
        }
        if !state.hot {
            return None;
        }
        let shrunk = ((configured as f64 * DEGRADED_FRACTION).round() as usize).max(1);
        (shrunk < configured).then_some(shrunk)
    }
}

/// One registered tenant: a named model swap point plus its degradation
/// ladder state. The tenant's serving configuration (the fault plan)
/// travels inside the `Uae` itself.
pub struct Tenant {
    name: String,
    /// Stable dense index — the micro-batcher lane this tenant batches in.
    lane: usize,
    model: RwLock<Arc<Uae>>,
    /// Hysteresis state for this tenant's degradation ladder (driven at
    /// flush time by the server's clock).
    ladder: Mutex<LadderState>,
    /// Optional model fleet: a shape-aware router over baseline backends.
    /// `None` (the default) serves every query through the primary model,
    /// bit-identically to a pre-fleet server. Swappable like the model.
    router: RwLock<Option<Arc<Router>>>,
    /// Optional shared label stream: served queries whose true
    /// cardinalities arrive later are pushed here, feeding the online
    /// trainer and future router recalibration from one pool.
    pool: RwLock<Option<Arc<QueryPool>>>,
    /// Published model version (0 = the seed registration). Promotions
    /// and rollbacks set it explicitly; unversioned swaps increment it.
    version: AtomicU64,
    /// Checkpoint file (relative to the manifest's state directory) of
    /// the published version, if it was durably written.
    checkpoint: Mutex<Option<String>>,
}

impl Tenant {
    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The batching lane assigned at registration.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// The live model snapshot (cheap `Arc` clone; never blocks on an
    /// estimate in flight).
    pub fn model(&self) -> Arc<Uae> {
        self.model.read().clone()
    }

    /// The tenant's fleet router, if one is installed (cheap `Arc`
    /// clone, same discipline as [`Tenant::model`]).
    pub fn router(&self) -> Option<Arc<Router>> {
        self.router.read().clone()
    }

    /// The tenant's shared label pool, if one is attached.
    pub fn pool(&self) -> Option<Arc<QueryPool>> {
        self.pool.read().clone()
    }

    /// The published model version (0 = the seed registration).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Checkpoint file (relative to the state directory) backing the
    /// published version, if it was durably written.
    pub fn checkpoint(&self) -> Option<String> {
        self.checkpoint.lock().clone()
    }

    /// Snapshot this tenant's durable state as a manifest entry.
    fn manifest_entry(&self) -> ManifestEntry {
        ManifestEntry {
            version: self.version(),
            checkpoint: self.checkpoint(),
            router: self.router().map(|r| r.policy().clone()),
        }
    }

    /// Advance this tenant's hysteretic ladder under the server's ladder
    /// `cfg` and the current queue depth, and return the batch's sample
    /// budget (`None` = full).
    pub fn degrade_budget(
        &self,
        cfg: &DegradeConfig,
        configured: usize,
        queue_depth: usize,
        now_ns: u64,
    ) -> Option<usize> {
        cfg.step(&mut self.ladder.lock(), configured, queue_depth, now_ns)
    }
}

/// Error for operations addressing a tenant that was never registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTenant(pub String);

impl std::fmt::Display for UnknownTenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown tenant `{}`", self.0)
    }
}

impl std::error::Error for UnknownTenant {}

/// The registry's attachment to a durable state directory: the in-memory
/// manifest image plus where (and with what fault injection) to rewrite
/// it.
struct PersistHandle {
    dir: PathBuf,
    faults: Option<Arc<DiskFaults>>,
    manifest: Mutex<Manifest>,
}

/// Name → tenant map. Registration order assigns dense lane indices.
#[derive(Default)]
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Tenants in registration order: a tenant's index is its lane.
    by_lane: RwLock<Vec<Arc<Tenant>>>,
    /// Bumped on every model publication (swap or re-register). The
    /// serving front-end watches this to reset its rolling latency
    /// window: pre-swap samples describe the *old* model and would
    /// otherwise keep shaping the reported p50/p99 after a hot-swap.
    swap_epoch: AtomicU64,
    /// Durable manifest attachment (`None` = in-memory registry only).
    persist: RwLock<Option<PersistHandle>>,
    /// Manifest rewrites that failed. Publications never block on a
    /// failed manifest write — serving stays up and recovery falls back
    /// to the journal — but the failure is counted and kept.
    persist_failures: AtomicU64,
    /// Rendered error of the most recent failed manifest rewrite.
    last_persist_error: Mutex<Option<String>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register `model` under `name`. Re-registering an existing name
    /// swaps the model instead (the lane is stable for the life of the
    /// registry).
    pub fn register(&self, name: impl Into<String>, model: Uae) -> Arc<Tenant> {
        self.register_full(name, model, 0, None)
    }

    /// Register with explicit durable state — the recovery path uses
    /// this to republish a tenant at its recovered version rather than
    /// restarting the lineage at 0. Re-registering an existing name
    /// swaps the model and adopts the given version/checkpoint.
    pub fn register_full(
        &self,
        name: impl Into<String>,
        model: Uae,
        version: u64,
        checkpoint: Option<String>,
    ) -> Arc<Tenant> {
        let name = name.into();
        let tenant = {
            let mut tenants = self.tenants.write();
            if let Some(existing) = tenants.get(&name) {
                *existing.model.write() = Arc::new(model);
                existing.version.store(version, Ordering::SeqCst);
                *existing.checkpoint.lock() = checkpoint;
                self.swap_epoch.fetch_add(1, Ordering::SeqCst);
                existing.clone()
            } else {
                let mut by_lane = self.by_lane.write();
                let tenant = Arc::new(Tenant {
                    name: name.clone(),
                    lane: by_lane.len(),
                    model: RwLock::new(Arc::new(model)),
                    ladder: Mutex::new(LadderState::default()),
                    router: RwLock::new(None),
                    pool: RwLock::new(None),
                    version: AtomicU64::new(version),
                    checkpoint: Mutex::new(checkpoint),
                });
                by_lane.push(tenant.clone());
                tenants.insert(name.clone(), tenant.clone());
                tenant
            }
        };
        let _ = self.sync_manifest();
        tenant
    }

    /// Atomically publish a new model for `name`, returning the previous
    /// snapshot (which in-flight batches may still be using). The
    /// tenant's version increments; use [`Registry::publish`] when the
    /// publication carries an explicit version and checkpoint (online
    /// promotions do).
    pub fn swap_model(&self, name: &str, model: Uae) -> Result<Arc<Uae>, UnknownTenant> {
        self.publish(name, model, None, None)
    }

    /// Atomically publish a new model for `name` with its durable
    /// identity: the version number (`None` = increment the tenant's
    /// counter) and the checkpoint file backing it, if any. Syncs the
    /// manifest when the registry is attached to a state directory.
    pub fn publish(
        &self,
        name: &str,
        model: Uae,
        version: Option<u64>,
        checkpoint: Option<String>,
    ) -> Result<Arc<Uae>, UnknownTenant> {
        let prior = {
            let tenants = self.tenants.read();
            let tenant = tenants.get(name).ok_or_else(|| UnknownTenant(name.to_owned()))?;
            let mut slot = tenant.model.write();
            let prior = std::mem::replace(&mut *slot, Arc::new(model));
            drop(slot);
            match version {
                Some(v) => tenant.version.store(v, Ordering::SeqCst),
                None => {
                    tenant.version.fetch_add(1, Ordering::SeqCst);
                }
            }
            *tenant.checkpoint.lock() = checkpoint;
            self.swap_epoch.fetch_add(1, Ordering::SeqCst);
            prior
        };
        let _ = self.sync_manifest();
        Ok(prior)
    }

    /// Install (or replace, or with `None` remove) a fleet router for
    /// `name`. Routing engages at the next batch flush — in-flight
    /// batches finish under the routing they started with. Counts as a
    /// publication: the swap epoch bumps so the front-end resets its
    /// rolling latency window (pre-fleet samples describe a different
    /// serving mix).
    pub fn set_router(&self, name: &str, router: Option<Arc<Router>>) -> Result<(), UnknownTenant> {
        {
            let tenants = self.tenants.read();
            let tenant = tenants.get(name).ok_or_else(|| UnknownTenant(name.to_owned()))?;
            *tenant.router.write() = router;
            self.swap_epoch.fetch_add(1, Ordering::SeqCst);
        }
        let _ = self.sync_manifest();
        Ok(())
    }

    /// Attach (or with `None` detach) the shared label pool for `name`.
    /// Once attached, the server records served queries and joins
    /// later-arriving true cardinalities into this pool (see
    /// `Server::resolve_truth`).
    pub fn attach_pool(
        &self,
        name: &str,
        pool: Option<Arc<QueryPool>>,
    ) -> Result<(), UnknownTenant> {
        let tenants = self.tenants.read();
        let tenant = tenants.get(name).ok_or_else(|| UnknownTenant(name.to_owned()))?;
        *tenant.pool.write() = pool;
        Ok(())
    }

    /// Monotone counter of model publications (swaps and re-registers).
    pub fn swap_epoch(&self) -> u64 {
        self.swap_epoch.load(Ordering::SeqCst)
    }

    /// Look a tenant up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().get(name).cloned()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.by_lane.read().len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attach the registry to a durable state directory: load (or
    /// create) `manifest.uaem` there, fold the current tenants in, and
    /// rewrite it atomically. From here on every register / publish /
    /// router change rewrites the manifest; failures are counted in
    /// [`Registry::persist_failures`] rather than failing the
    /// publication (recovery falls back to the journal).
    pub fn persist_to(
        &self,
        dir: impl Into<PathBuf>,
        faults: Option<Arc<DiskFaults>>,
    ) -> Result<(), PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::Io {
            op: "create-dir",
            path: dir.clone(),
            source: e,
        })?;
        let manifest = Manifest::load(&dir)?.unwrap_or_default();
        *self.persist.write() = Some(PersistHandle { dir, faults, manifest: Mutex::new(manifest) });
        self.sync_manifest()
    }

    /// Rewrite the manifest from the full current registry state.
    /// A no-op without a persistence attachment.
    pub fn sync_manifest(&self) -> Result<(), PersistError> {
        let persist = self.persist.read();
        let Some(handle) = persist.as_ref() else {
            return Ok(());
        };
        let entries: Vec<(String, ManifestEntry)> =
            self.by_lane.read().iter().map(|t| (t.name.clone(), t.manifest_entry())).collect();
        let mut manifest = handle.manifest.lock();
        for (name, entry) in entries {
            manifest.entries.insert(name, entry);
        }
        let result = manifest.save(&handle.dir, handle.faults.as_deref());
        if let Err(e) = &result {
            self.persist_failures.fetch_add(1, Ordering::SeqCst);
            *self.last_persist_error.lock() = Some(e.to_string());
        }
        result
    }

    /// Manifest rewrite attempts that failed since attachment.
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::SeqCst)
    }

    /// Rendered error of the most recent failed manifest rewrite.
    pub fn last_persist_error(&self) -> Option<String> {
        self.last_persist_error.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_ladder_rungs() {
        let d = DegradeConfig { queue_depth_threshold: 10 };
        // Each case starts from a fresh (cold) ladder, so it is engaged
        // exactly when the depth is over the threshold.
        let fresh = |d: &DegradeConfig, configured, depth| {
            d.step(&mut LadderState::default(), configured, depth, 0)
        };
        // Nominal load: full budget.
        assert_eq!(fresh(&d, 1000, 5), None);
        // Queue depth: rung 1.
        assert_eq!(fresh(&d, 1000, 11), Some(250));
        // Shrunken budget never hits zero…
        assert_eq!(fresh(&d, 3, 11), Some(1));
        // …and never "degrades" to >= the configured budget.
        assert_eq!(fresh(&d, 1, 11), None);
        // A disabled ladder never engages.
        let off = DegradeConfig::disabled();
        assert_eq!(fresh(&off, 1000, usize::MAX), None);
    }

    /// The flapping regression: load oscillating right at the entry
    /// threshold must not toggle the ladder between rungs every step.
    /// Entry is immediate; exit needs the exit band AND the cooldown.
    #[test]
    fn degrade_ladder_hysteresis_does_not_flap_on_boundary_straddling_load() {
        let ms = 1_000_000u64;
        let d = DegradeConfig { queue_depth_threshold: 10 };
        let mut st = LadderState::default();

        // Below threshold: full budget, signal cold.
        assert_eq!(d.step(&mut st, 1000, 10, 0), None);
        assert!(!st.depth_hot());
        // Entry is immediate on the first crossing.
        assert_eq!(d.step(&mut st, 1000, 11, ms), Some(250));
        assert!(st.depth_hot());

        // Boundary-straddling load (11, 10, 11, 10, …): pre-hysteresis
        // this flapped Some/None every step; now it stays degraded —
        // 10 is inside the band (exit needs <= 8).
        for t in 2..100u64 {
            let depth = if t % 2 == 0 { 11 } else { 10 };
            assert_eq!(d.step(&mut st, 1000, depth, t * ms), Some(250), "flapped at t={t}");
        }
        // Drop clearly below the exit band, but within the 100 ms
        // cooldown of the last entry-crossing (t=98ms + 100ms): still
        // degraded.
        assert_eq!(d.step(&mut st, 1000, 2, 170 * ms), Some(250));
        assert!(st.depth_hot());
        // Same load after the cooldown expires: the ladder disengages.
        assert_eq!(d.step(&mut st, 1000, 2, 199 * ms), None);
        assert!(!st.depth_hot());
        // Re-entry is immediate again.
        assert_eq!(d.step(&mut st, 1000, 11, 200 * ms), Some(250));
    }

    #[test]
    fn swap_epoch_bumps_on_publication() {
        let reg = Registry::new();
        let t = uae_data::census_like(64, 7);
        let mk = || uae_core::Uae::new(&t, uae_core::UaeConfig::default());
        assert_eq!(reg.swap_epoch(), 0);
        reg.register("a", mk());
        assert_eq!(reg.swap_epoch(), 0, "first registration is not a swap");
        reg.swap_model("a", mk()).expect("tenant exists");
        assert_eq!(reg.swap_epoch(), 1);
        reg.register("a", mk()); // re-register = publication
        assert_eq!(reg.swap_epoch(), 2);
    }
}
