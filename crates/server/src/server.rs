//! The concurrent serving front-end: one bounded queue (the
//! [`MicroBatcher`]) that executors pull ready batches from.
//!
//! Threads, no async runtime:
//!
//! * **Submitters** (any number of caller threads) hand a `(tenant,
//!   query)` pair to [`Server::submit`], which pushes it into its
//!   tenant's lane of the queue and returns a [`Ticket`] — a oneshot
//!   reply slot. A queue already holding `queue_capacity` requests
//!   rejects immediately with [`SubmitError::Overloaded`]: the submitter
//!   is never blocked by a slow model (backpressure is typed, not
//!   implicit).
//! * **Executors** (a small pool) wait on the queue for a ready lane —
//!   one with no batch in flight as soon as it holds a request, a busy
//!   one at `max_batch` requests or once its oldest request aged past
//!   `max_delay`; the oldest ready lane first — and take up to
//!   `max_batch` of its requests. An executor returning from a batch
//!   releases its lane and takes its next batch under one lock
//!   acquisition, so a lane that filled while its batch ran flushes at
//!   once. Outside the lock each batch gets its sample budget from
//!   the degradation ladder (queue depth) and runs through one
//!   [`uae_core::serve_batch`] call — so the tenant's router (if any)
//!   partitions it and the whole validation → sample → retry → baseline
//!   → clamp cascade applies to the primary's share. A panic in the batch
//!   attempt is caught; only that batch's requests see
//!   [`ServerError::ExecutorPanic`], and the executor thread survives.
//!
//! [`Server::shutdown`] closes the queue to new submissions; the
//! executors drain every pending request as final `Drain`-reason batches
//! (lane order, at most `max_batch` each), run them to completion and
//! exit — every accepted request is answered before `shutdown` returns.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uae_core::{serve_batch, Estimate, EstimateError, EstimateSource, Event, FlushReason, Sink};
use uae_query::{CardEstimator, LabeledQuery, Query};

use crate::batcher::{MicroBatcher, Poll};
use crate::registry::{DegradeConfig, Registry, Tenant};
use crate::stats::{batch_bucket, LatencyWindow, ServerStats, ServerStatsCell};

/// Deterministic fault plan for the *front-end* (the model-level
/// [`uae_core::FaultPlan`] lives inside each tenant's `ServeConfig`).
/// Batches are addressed by their flush sequence number, so a plan
/// written against a fixed request sequence reproduces exactly. The
/// default plan is inert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFaultPlan {
    /// Batch sequence numbers whose execution panics *in the executor*
    /// (before reaching the model) — the drill for batch-level panic
    /// isolation.
    pub panic_batches: Vec<u64>,
}

impl ServerFaultPlan {
    /// Whether executing batch `seq` should panic.
    pub fn panics(&self, seq: u64) -> bool {
        self.panic_batches.contains(&seq)
    }
}

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Flush a lane as soon as it holds this many requests.
    /// `usize::MAX` disables size flushes (determinism escape hatch).
    pub max_batch: usize,
    /// Flush a *busy* lane (one with a batch in flight) once its oldest
    /// request has waited this long; a lane with nothing in flight flushes
    /// on arrival. At `max_batch = usize::MAX` it is the only flush rule.
    pub max_delay: Duration,
    /// Bound on queued requests (accepted, not yet taken by an executor);
    /// `submit` beyond it rejects with [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Batch-executor threads. `1` plus `max_batch = usize::MAX` is the
    /// deterministic replay configuration.
    pub executors: usize,
    /// Degradation ladder, applied to every tenant.
    pub degrade: DegradeConfig,
    /// Rolling end-to-end latency window size behind
    /// [`ServerStats::p50_ms`] and [`ServerStats::p99_ms`].
    pub latency_window: usize,
    /// Front-end fault injection (executor-level panics).
    pub fault: ServerFaultPlan,
    /// Start with the queue paused: submissions queue up (to
    /// `queue_capacity`) but nothing flushes until [`Server::resume`] —
    /// or [`Server::shutdown`], which drains the backlog as
    /// `Drain`-reason batches. Tests use this to build exact batches
    /// without timing races.
    pub start_paused: bool,
    /// How many served queries to keep waiting for a true cardinality
    /// (tenants with an attached [`uae_core::QueryPool`]). When full,
    /// the oldest pending entry is evicted (`labels_dropped`).
    pub label_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            executors: 2,
            degrade: DegradeConfig::default(),
            latency_window: 512,
            fault: ServerFaultPlan::default(),
            start_paused: false,
            label_buffer: 4096,
        }
    }
}

impl ServerConfig {
    /// The deterministic replay configuration: one executor, unbounded
    /// batch size, paused queue. Submit a sequence, then
    /// [`Server::shutdown`] — each tenant's requests execute as a single
    /// batch bit-identical to [`uae_core::Uae::try_estimate_cards`] on
    /// the same queries in submit order.
    pub fn deterministic(queue_capacity: usize) -> Self {
        ServerConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_secs(3600),
            queue_capacity,
            executors: 1,
            degrade: DegradeConfig::disabled(),
            start_paused: true,
            ..Self::default()
        }
    }
}

/// Why [`Server::submit`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No tenant of that name is registered.
    UnknownTenant(String),
    /// The bounded submission queue is full — shed load or retry later.
    Overloaded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            SubmitError::Overloaded => write!(f, "submission queue full (overloaded)"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* request failed to produce an estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The model-level cascade rejected the query (unknown column).
    Estimate(EstimateError),
    /// The executor panicked while running this request's batch; the
    /// panic was isolated to the batch.
    ExecutorPanic,
    /// The request's [`Server::submit_with_deadline`] deadline passed
    /// while it waited in the queue; it was dropped before execution
    /// (the estimate would have arrived too late to be useful). Counted
    /// in [`ServerStats::deadline_exceeded`] — distinct from the
    /// [`SubmitError::Overloaded`] shed, which never enters the queue.
    DeadlineExceeded,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Estimate(e) => write!(f, "estimate error: {e}"),
            ServerError::ExecutorPanic => write!(f, "executor panicked while running the batch"),
            ServerError::DeadlineExceeded => {
                write!(f, "request deadline passed while queued")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EstimateError> for ServerError {
    fn from(e: EstimateError) -> Self {
        ServerError::Estimate(e)
    }
}

/// Oneshot reply slot: filled exactly once by an executor, awaited by the
/// submitting thread. `std::sync` Mutex + Condvar (the vendored
/// `parking_lot` carries no Condvar).
struct ReplySlot {
    slot: Mutex<Option<Result<Estimate, ServerError>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot { slot: Mutex::new(None), cv: Condvar::new() }
    }

    fn fill(&self, value: Result<Estimate, ServerError>) {
        let mut slot = self.slot.lock().expect("reply slot poisoned");
        debug_assert!(slot.is_none(), "reply slot filled twice");
        *slot = Some(value);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Estimate, ServerError> {
        let mut slot = self.slot.lock().expect("reply slot poisoned");
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = self.cv.wait(slot).expect("reply slot poisoned");
        }
    }

    fn try_take(&self) -> Option<Result<Estimate, ServerError>> {
        self.slot.lock().expect("reply slot poisoned").take()
    }
}

/// Handle to one in-flight request's eventual reply.
pub struct Ticket {
    id: u64,
    slot: Arc<ReplySlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish_non_exhaustive()
    }
}

impl Ticket {
    /// The server-wide request id, the key [`Server::resolve_truth`]
    /// accepts once the query's true cardinality becomes known.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the reply arrives. Every accepted request is
    /// answered — [`Server::shutdown`] drains the backlog before
    /// returning, so `wait` cannot hang on a clean shutdown.
    pub fn wait(self) -> Result<Estimate, ServerError> {
        self.slot.wait()
    }

    /// The reply, if it has already arrived (consumes it).
    pub fn try_take(&self) -> Option<Result<Estimate, ServerError>> {
        self.slot.try_take()
    }
}

/// One accepted request travelling through the pipeline.
struct Request {
    /// Server-wide request sequence number (assigned at accept).
    id: u64,
    tenant: Arc<Tenant>,
    query: Query,
    reply: Arc<ReplySlot>,
    submitted: Instant,
    /// Drop-dead time: past it the request is answered
    /// [`ServerError::DeadlineExceeded`] at flush instead of executing.
    deadline: Option<Instant>,
}

/// The one serving queue, behind [`Shared::queue`]: every accepted
/// request waits here, in its tenant's lane, until an executor takes it
/// in a batch.
struct Queue {
    batcher: MicroBatcher<Request>,
    /// See [`ServerConfig::start_paused`]; executors take nothing while set.
    paused: bool,
    /// Set by shutdown (which owns the server, so no submission can
    /// follow): executors drain the lanes and exit.
    closing: bool,
}

/// Bounded store of served-but-unlabeled queries, keyed by request id,
/// waiting for [`Server::resolve_truth`]. FIFO eviction: truths that
/// never arrive must not pin memory forever.
struct PendingLabels {
    map: HashMap<u64, (Arc<Tenant>, Query)>,
    order: VecDeque<u64>,
    cap: usize,
}

impl PendingLabels {
    fn new(cap: usize) -> Self {
        PendingLabels { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// Record one entry; returns how many old entries were evicted.
    fn record(&mut self, id: u64, tenant: Arc<Tenant>, query: Query) -> u64 {
        let mut evicted = 0;
        if self.cap == 0 {
            return 1;
        }
        while self.map.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    if self.map.remove(&old).is_some() {
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        self.map.insert(id, (tenant, query));
        self.order.push_back(id);
        evicted
    }

    fn remove(&mut self, id: u64) -> Option<(Arc<Tenant>, Query)> {
        // `order` is lazily cleaned: stale ids fail the map lookup above.
        self.map.remove(&id)
    }
}

/// Shared state every pipeline thread sees.
struct Shared {
    registry: Arc<Registry>,
    stats: ServerStatsCell,
    latency: LatencyWindow,
    sink: parking_lot::Mutex<Option<Box<dyn Sink>>>,
    /// `std::sync` Mutex + Condvar (the vendored `parking_lot` carries no
    /// Condvar). Submitters notify `ready` after each push; executors
    /// wait on it for a ready lane.
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Zero of the batcher's nanosecond clock.
    epoch: Instant,
    request_seq: AtomicU64,
    batch_seq: AtomicU64,
    degrade: DegradeConfig,
    fault: ServerFaultPlan,
    /// Registry swap epoch last observed at flush time; a bump resets
    /// the rolling latency window (pre-swap samples describe the old
    /// model).
    seen_swap_epoch: AtomicU64,
    /// Served queries awaiting their true cardinality (only for tenants
    /// with an attached `QueryPool`).
    labels: parking_lot::Mutex<PendingLabels>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = self.sink.lock().as_mut() {
            sink.emit(&event);
        }
    }
}

/// The concurrent serving front-end. See the module docs for the
/// pipeline shape; construct with [`Server::start`].
pub struct Server {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
    cfg: ServerConfig,
}

impl Server {
    /// Spawn the executor pool over `registry`.
    pub fn start(registry: Arc<Registry>, cfg: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            registry: registry.clone(),
            stats: ServerStatsCell::default(),
            latency: LatencyWindow::new(cfg.latency_window),
            sink: parking_lot::Mutex::new(None),
            queue: Mutex::new(Queue {
                batcher: MicroBatcher::new(
                    registry.len(),
                    cfg.max_batch,
                    cfg.max_delay.as_nanos() as u64,
                ),
                paused: cfg.start_paused,
                closing: false,
            }),
            ready: Condvar::new(),
            epoch: Instant::now(),
            request_seq: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            degrade: cfg.degrade.clone(),
            fault: cfg.fault.clone(),
            seen_swap_epoch: AtomicU64::new(registry.swap_epoch()),
            labels: parking_lot::Mutex::new(PendingLabels::new(cfg.label_buffer)),
        });
        let executors = (0..cfg.executors.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("uae-exec-{i}"))
                    .spawn(move || executor_loop(shared))
                    .expect("spawn executor")
            })
            .collect();
        Server { shared, executors, cfg }
    }

    /// The tenant registry this server serves from.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Attach a sink for front-end events ([`Event::BatchFlushed`],
    /// [`Event::RequestServed`], [`Event::Routed`]). Model-level events
    /// are observed per tenant via [`uae_core::Uae::set_sink`].
    pub fn set_sink(&self, sink: Box<dyn Sink>) {
        *self.shared.sink.lock() = Some(sink);
    }

    /// Submit one query for `tenant`. Non-blocking: either the request
    /// is accepted (a [`Ticket`] for the eventual reply) or it is
    /// rejected right now with a typed reason.
    pub fn submit(&self, tenant: &str, query: Query) -> Result<Ticket, SubmitError> {
        self.submit_inner(tenant, query, None)
    }

    /// [`Server::submit`] with a drop-dead budget: if the request is
    /// still queued when `deadline` (measured from now) has elapsed, the
    /// executor drops it at flush time and the ticket resolves to
    /// [`ServerError::DeadlineExceeded`] instead of waiting on a batch
    /// whose answer would arrive too late. Requests already handed to an
    /// executor run to completion — the deadline bounds *queueing*, not
    /// execution.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        query: Query,
        deadline: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(tenant, query, Some(Instant::now() + deadline))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        query: Query,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        let Some(tenant) = self.shared.registry.get(tenant) else {
            self.shared.stats.rejected_unknown_tenant.fetch_add(1, Ordering::SeqCst);
            return Err(SubmitError::UnknownTenant(tenant.to_owned()));
        };
        let reply = Arc::new(ReplySlot::new());
        let mut queue = self.shared.queue.lock().expect("serving queue poisoned");
        if queue.batcher.pending() >= self.cfg.queue_capacity.max(1) {
            self.shared.stats.rejected_overloaded.fetch_add(1, Ordering::SeqCst);
            return Err(SubmitError::Overloaded);
        }
        let id = self.shared.request_seq.fetch_add(1, Ordering::SeqCst);
        self.shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
        self.shared.stats.enter();
        let lane = tenant.lane();
        let request = Request {
            id,
            tenant,
            query,
            reply: reply.clone(),
            submitted: Instant::now(),
            deadline,
        };
        queue.batcher.push(lane, request, self.shared.now_ns());
        drop(queue);
        self.shared.ready.notify_one();
        Ok(Ticket { id, slot: reply })
    }

    /// Convenience: submit and block for the reply.
    pub fn estimate(&self, tenant: &str, query: Query) -> Result<Estimate, ServeCallError> {
        let ticket = self.submit(tenant, query).map_err(ServeCallError::Submit)?;
        ticket.wait().map_err(ServeCallError::Serve)
    }

    /// Deliver the true cardinality for an earlier request (identified
    /// by [`Ticket::id`]), closing the online-learning loop: the label
    /// joins the tenant's attached [`uae_core::QueryPool`] — the same
    /// pool an `OnlineLearner` trains from — as a [`LabeledQuery`].
    /// Returns `false` if the request was never recorded (no pool
    /// attached when it was served), already resolved, or evicted.
    pub fn resolve_truth(&self, request_id: u64, true_card: u64) -> bool {
        let entry = self.shared.labels.lock().remove(request_id);
        let Some((tenant, query)) = entry else {
            return false;
        };
        let Some(pool) = tenant.pool() else {
            return false;
        };
        let rows = tenant.model().num_rows();
        let selectivity = if rows > 0.0 { (true_card as f64 / rows).clamp(0.0, 1.0) } else { 0.0 };
        pool.push(LabeledQuery { query, cardinality: true_card, selectivity });
        self.shared.stats.labels_resolved.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Served queries currently waiting for [`Server::resolve_truth`].
    pub fn pending_labels(&self) -> usize {
        self.shared.labels.lock().map.len()
    }

    /// Resume a queue started paused ([`ServerConfig::start_paused`]).
    pub fn resume(&self) {
        self.shared.queue.lock().expect("serving queue poisoned").paused = false;
        self.shared.ready.notify_all();
    }

    /// Snapshot of the front-end counters, including rolling-window
    /// latency quantiles.
    pub fn stats(&self) -> ServerStats {
        let mut s = self.shared.stats.snapshot();
        s.p50_ms = self.shared.latency.quantile(0.5);
        s.p99_ms = self.shared.latency.quantile(0.99);
        s
    }

    /// Observations currently in the rolling latency window. The window
    /// resets on a model hot-swap (at the first post-swap flush), so
    /// this also witnesses swap-time hygiene in tests.
    pub fn latency_samples(&self) -> usize {
        self.shared.latency.len()
    }

    /// Close the front door, drain every pending request as final
    /// `Drain` batches, run them to completion, join all threads and
    /// return the final counters. Every accepted request has been
    /// answered when this returns.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner();
        let mut s = self.shared.stats.snapshot();
        s.p50_ms = self.shared.latency.quantile(0.5);
        s.p99_ms = self.shared.latency.quantile(0.99);
        s
    }

    fn shutdown_inner(&mut self) {
        // Executors drain every lane once `closing` is set (a paused queue
        // included), then exit.
        self.shared.queue.lock().expect("serving queue poisoned").closing = true;
        self.shared.ready.notify_all();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.executors.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Error from the blocking [`Server::estimate`] convenience call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeCallError {
    /// Rejected at the front door.
    Submit(SubmitError),
    /// Accepted but failed downstream.
    Serve(ServerError),
}

impl std::fmt::Display for ServeCallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeCallError::Submit(e) => write!(f, "{e}"),
            ServeCallError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeCallError {}

fn executor_loop(shared: Arc<Shared>) {
    let mut finished = None;
    while let Some((lane, requests, reason)) = next_batch(&shared, finished) {
        // `flush` returns after an all-expired batch and after a panicked
        // one too, so the lane is always released.
        flush(&shared, requests, reason);
        finished = lane;
    }
}

/// Release `finished` (the lane of this executor's last batch, if it was
/// taken from a lane), then block until a lane is ready (or, once closing,
/// the next drain chunk) and take its batch, with its lane (`None` for a
/// drain chunk); `None` once the closed queue is empty.
fn next_batch(
    shared: &Shared,
    finished: Option<usize>,
) -> Option<(Option<usize>, Vec<Request>, FlushReason)> {
    let mut queue = shared.queue.lock().expect("serving queue poisoned");
    if let Some(lane) = finished {
        queue.batcher.complete(lane);
    }
    loop {
        if queue.closing {
            return queue.batcher.drain().map(|requests| (None, requests, FlushReason::Drain));
        }
        if queue.paused {
            queue = shared.ready.wait(queue).expect("serving queue poisoned");
            continue;
        }
        match queue.batcher.poll(shared.now_ns()) {
            Poll::Flush { lane, reason } => {
                let requests = queue.batcher.take(lane);
                if queue.batcher.pending() > 0 {
                    // This executor may have been the one timing the
                    // remaining lanes' deadlines, or its release made
                    // another lane ready: hand that to another.
                    shared.ready.notify_one();
                }
                return Some((Some(lane), requests, reason));
            }
            Poll::WaitNs(ns) => {
                let timeout = Duration::from_nanos(ns);
                queue =
                    shared.ready.wait_timeout(queue, timeout).expect("serving queue poisoned").0;
            }
            Poll::Idle => queue = shared.ready.wait(queue).expect("serving queue poisoned"),
        }
    }
}

/// Run a batch taken from the queue: drop expired requests, pick the
/// degraded budget from the queue depth, account the flush, execute.
fn flush(shared: &Arc<Shared>, mut requests: Vec<Request>, reason: FlushReason) {
    // Expired-in-queue requests never reach the model: answering them
    // would burn batch budget on estimates the caller has already given
    // up on. Dropped here (the single point every request passes through
    // on its way to a batch), counted separately from the `Overloaded`
    // shed — these were *accepted* and then timed out.
    let now = Instant::now();
    let expired: Vec<Request> = {
        let (expired, live): (Vec<Request>, Vec<Request>) =
            requests.drain(..).partition(|r| r.deadline.is_some_and(|d| now > d));
        requests = live;
        expired
    };
    if !expired.is_empty() {
        shared.stats.deadline_exceeded.fetch_add(expired.len() as u64, Ordering::SeqCst);
        shared.stats.exit(expired.len());
        for req in expired {
            req.reply.fill(Err(ServerError::DeadlineExceeded));
        }
    }
    if requests.is_empty() {
        return;
    }
    // A batch is one lane's requests, so they share one tenant.
    let tenant = requests[0].tenant.clone();
    // A model publication since the last flush invalidates the rolling
    // latency window: its samples describe the replaced model.
    let epoch = shared.registry.swap_epoch();
    if shared.seen_swap_epoch.swap(epoch, Ordering::SeqCst) != epoch {
        shared.latency.reset();
    }
    let queue_depth = shared.stats.depth();
    let configured = tenant.model().estimate_samples();
    let samples_override =
        tenant.degrade_budget(&shared.degrade, configured, queue_depth, shared.now_ns());
    let seq = shared.batch_seq.fetch_add(1, Ordering::SeqCst);
    let stats = &shared.stats;
    stats.batches.fetch_add(1, Ordering::SeqCst);
    match reason {
        FlushReason::Size => stats.flush_size.fetch_add(1, Ordering::SeqCst),
        FlushReason::Deadline => stats.flush_deadline.fetch_add(1, Ordering::SeqCst),
        FlushReason::Idle => stats.flush_idle.fetch_add(1, Ordering::SeqCst),
        FlushReason::Drain => stats.flush_drain.fetch_add(1, Ordering::SeqCst),
    };
    stats.batch_hist[batch_bucket(requests.len())].fetch_add(1, Ordering::SeqCst);
    shared.emit(Event::BatchFlushed {
        batch: seq,
        tenant: tenant.name().to_owned(),
        size: requests.len(),
        reason,
        queue_depth,
    });
    run_batch(shared, seq, &tenant, requests, samples_override);
}

/// Execute flushed batch `seq` of `tenant`'s requests end to end: one
/// panic-isolated [`uae_core::serve_batch`] call at the flush-time sample
/// budget (routed when the tenant holds a router), replies, latency
/// accounting, telemetry. Routed replies count in `routed_requests` and
/// emit [`Event::Routed`] keyed by request id.
fn run_batch(
    shared: &Arc<Shared>,
    seq: u64,
    tenant: &Arc<Tenant>,
    requests: Vec<Request>,
    samples_override: Option<usize>,
) {
    let n = requests.len();
    let queries: Vec<Query> = requests.iter().map(|r| r.query.clone()).collect();
    let model = tenant.model();
    let router = tenant.router();
    let exec_start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if shared.fault.panics(seq) {
            panic!("uae-server: fault-plan panic (batch {seq})");
        }
        serve_batch(&model, router.as_deref(), &queries, samples_override)
    }));
    let execute_ms = exec_start.elapsed().as_secs_f64() * 1e3;
    let stats = &shared.stats;
    let results = match attempt {
        Ok(results) => results
            .into_iter()
            .map(|(r, routed)| (r.map_err(ServerError::from), routed))
            .collect::<Vec<_>>(),
        Err(_) => {
            stats.executor_panics.fetch_add(1, Ordering::SeqCst);
            vec![(Err(ServerError::ExecutorPanic), None); n]
        }
    };
    // Record served queries for later truth resolution *before* any
    // reply is filled: once `Ticket::wait` returns, the caller may
    // immediately call `resolve_truth` with the ticket id.
    if tenant.pool().is_some() {
        let pending: Vec<(u64, Query)> = requests
            .iter()
            .zip(&results)
            .filter(|(_, (r, _))| r.is_ok())
            .map(|(req, _)| (req.id, req.query.clone()))
            .collect();
        if !pending.is_empty() {
            let recorded = pending.len() as u64;
            let mut dropped = 0u64;
            let mut labels = shared.labels.lock();
            for (id, query) in pending {
                dropped += labels.record(id, tenant.clone(), query);
            }
            drop(labels);
            stats.labels_recorded.fetch_add(recorded, Ordering::SeqCst);
            if dropped > 0 {
                stats.labels_dropped.fetch_add(dropped, Ordering::SeqCst);
            }
        }
    }
    let mut queue_ns_total = 0u64;
    let mut exec_ns_total = 0u64;
    for (req, (result, routed)) in requests.into_iter().zip(results) {
        match &result {
            Ok(est) => {
                stats.completed.fetch_add(1, Ordering::SeqCst);
                if est.source == EstimateSource::ModelDegraded {
                    stats.degraded_requests.fetch_add(1, Ordering::SeqCst);
                }
                if let Some((b, class)) = routed {
                    stats.routed_requests.fetch_add(1, Ordering::SeqCst);
                    if let Some(router) = router.as_deref() {
                        let backend = &router.backends()[b];
                        shared.emit(Event::Routed {
                            index: req.id,
                            backend: backend.name().to_owned(),
                            family: backend.family().label(),
                            class,
                        });
                    }
                }
            }
            Err(ServerError::Estimate(_)) => {
                stats.query_errors.fetch_add(1, Ordering::SeqCst);
            }
            Err(ServerError::ExecutorPanic) => {
                stats.failed.fetch_add(1, Ordering::SeqCst);
            }
            // Deadline drops happen at flush and never reach a batch.
            Err(ServerError::DeadlineExceeded) => unreachable!("dropped before execution"),
        }
        let queue_ms = exec_start.duration_since(req.submitted).as_secs_f64() * 1e3;
        let total_ms = req.submitted.elapsed().as_secs_f64() * 1e3;
        shared.latency.record(total_ms);
        queue_ns_total += (queue_ms * 1e6) as u64;
        exec_ns_total += (execute_ms * 1e6) as u64;
        shared.emit(Event::RequestServed {
            index: req.id,
            tenant: tenant.name().to_owned(),
            queue_ms,
            execute_ms,
        });
        req.reply.fill(result);
    }
    stats.queue_wait_ns.fetch_add(queue_ns_total, Ordering::SeqCst);
    stats.execute_ns.fetch_add(exec_ns_total, Ordering::SeqCst);
    stats.exit(n);
}
