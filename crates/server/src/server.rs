//! The concurrent serving front-end: bounded submission queue →
//! dispatcher (micro-batcher) → executor pool.
//!
//! Threads, no async runtime:
//!
//! * **Submitters** (any number of caller threads) hand a `(tenant,
//!   query)` pair to [`Server::submit`], which `try_send`s onto a bounded
//!   MPSC channel and returns a [`Ticket`] — a oneshot reply slot. A full
//!   channel rejects immediately with [`SubmitError::Overloaded`]: the
//!   submitter is never blocked by a slow model (backpressure is typed,
//!   not implicit).
//! * **The dispatcher** (one thread) pulls requests off the channel into
//!   per-tenant lanes of a [`MicroBatcher`] and flushes a lane when it
//!   reaches `max_batch` or its oldest request ages past `max_delay`,
//!   whichever first. At flush time it consults the degradation ladder
//!   (queue depth + rolling p99) to pick the batch's sample budget, then
//!   enqueues a [`BatchJob`] for the executors.
//! * **Executors** (a small pool) run each job through one
//!   [`uae_core::serve_batch`] call — so the tenant's router (if any)
//!   partitions the batch and the whole validation → sample → retry →
//!   baseline → clamp cascade applies to the primary's share — and fill
//!   every request's reply slot. A panic in the batch attempt is caught;
//!   only that batch's requests see [`ServerError::ExecutorPanic`], and
//!   the executor thread survives.
//!
//! [`Server::shutdown`] closes the submission channel, lets the
//! dispatcher drain every pending request as final `Drain`-reason
//! batches, runs them to completion and joins all threads — every
//! accepted request is answered before `shutdown` returns.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
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

    /// Whether the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.panic_batches.is_empty()
    }
}

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Flush a lane as soon as it holds this many requests.
    /// `usize::MAX` disables size flushes (determinism escape hatch).
    pub max_batch: usize,
    /// Flush a lane once its oldest request has waited this long.
    pub max_delay: Duration,
    /// Bounded submission-queue capacity; `submit` beyond it rejects
    /// with [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Batch-executor threads. `1` plus `max_batch = usize::MAX` is the
    /// deterministic replay configuration.
    pub executors: usize,
    /// Degradation ladder, applied to every tenant.
    pub degrade: DegradeConfig,
    /// Rolling end-to-end latency window size feeding the ladder's p99
    /// signal and [`ServerStats::p99_ms`].
    pub latency_window: usize,
    /// Front-end fault injection (executor-level panics).
    pub fault: ServerFaultPlan,
    /// Start with the dispatcher paused: submissions queue up (to
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
    /// batch size, paused dispatcher. Submit a sequence, then
    /// [`Server::shutdown`] — each tenant's requests execute as a single
    /// batch bit-identical to [`Uae::try_estimate_cards`] on the same
    /// queries in submit order.
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
    /// The server is shutting down (or already shut down).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            SubmitError::Overloaded => write!(f, "submission queue full (overloaded)"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
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

/// A flushed micro-batch awaiting an executor.
struct BatchJob {
    /// Batch flush sequence number.
    seq: u64,
    tenant: Arc<Tenant>,
    requests: Vec<Request>,
    /// Degraded per-query sample budget chosen at flush time (`None` =
    /// tenant's configured budget).
    samples_override: Option<usize>,
}

/// Executor work queue: `std::sync` Mutex + Condvar. `pop` keeps
/// returning queued jobs after `close()` until empty, so a shutdown
/// drain executes everything it flushed.
#[derive(Default)]
struct JobQueue {
    state: Mutex<JobState>,
    cv: Condvar,
}

#[derive(Default)]
struct JobState {
    queue: VecDeque<BatchJob>,
    closed: bool,
}

impl JobQueue {
    fn push(&self, job: BatchJob) {
        let mut st = self.state.lock().expect("job queue poisoned");
        st.queue.push_back(job);
        self.cv.notify_one();
    }

    fn pop(&self) -> Option<BatchJob> {
        let mut st = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = st.queue.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("job queue poisoned");
        st.closed = true;
        self.cv.notify_all();
    }
}

/// Dispatcher pause gate (see [`ServerConfig::start_paused`]).
#[derive(Default)]
struct PauseGate {
    paused: Mutex<bool>,
    cv: Condvar,
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
    jobs: JobQueue,
    gate: PauseGate,
    shutting_down: AtomicBool,
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
    submit_tx: RwLock<Option<SyncSender<Request>>>,
    dispatcher: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    cfg: ServerConfig,
}

impl Server {
    /// Spawn the dispatcher and executor pool over `registry`.
    pub fn start(registry: Arc<Registry>, cfg: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            registry: registry.clone(),
            stats: ServerStatsCell::default(),
            latency: LatencyWindow::new(cfg.latency_window),
            sink: parking_lot::Mutex::new(None),
            jobs: JobQueue::default(),
            gate: PauseGate { paused: Mutex::new(cfg.start_paused), cv: Condvar::new() },
            shutting_down: AtomicBool::new(false),
            request_seq: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            degrade: cfg.degrade.clone(),
            fault: cfg.fault.clone(),
            seen_swap_epoch: AtomicU64::new(registry.swap_epoch()),
            labels: parking_lot::Mutex::new(PendingLabels::new(cfg.label_buffer)),
        });
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let dispatcher = {
            let shared = shared.clone();
            let max_batch = cfg.max_batch;
            let max_delay = cfg.max_delay;
            std::thread::Builder::new()
                .name("uae-dispatch".into())
                .spawn(move || dispatcher_loop(shared, rx, max_batch, max_delay))
                .expect("spawn dispatcher")
        };
        let executors = (0..cfg.executors.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("uae-exec-{i}"))
                    .spawn(move || executor_loop(shared))
                    .expect("spawn executor")
            })
            .collect();
        Server {
            shared,
            submit_tx: RwLock::new(Some(tx)),
            dispatcher: Some(dispatcher),
            executors,
            cfg,
        }
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
    /// are observed per tenant via [`Uae::set_sink`].
    pub fn set_sink(&self, sink: Box<dyn Sink>) {
        *self.shared.sink.lock() = Some(sink);
    }

    /// Detach the front-end sink (dropping a JSONL sink flushes it).
    pub fn take_sink(&self) -> Option<Box<dyn Sink>> {
        self.shared.sink.lock().take()
    }

    /// Submit one query for `tenant`. Non-blocking: either the request
    /// is accepted (a [`Ticket`] for the eventual reply) or it is
    /// rejected right now with a typed reason.
    pub fn submit(&self, tenant: &str, query: Query) -> Result<Ticket, SubmitError> {
        self.submit_inner(tenant, query, None)
    }

    /// [`Server::submit`] with a drop-dead budget: if the request is
    /// still queued when `deadline` (measured from now) has elapsed, the
    /// dispatcher drops it at flush time and the ticket resolves to
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
        let tx_guard = self.submit_tx.read();
        let Some(tx) = tx_guard.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let reply = Arc::new(ReplySlot::new());
        let id = self.shared.request_seq.fetch_add(1, Ordering::SeqCst);
        let request = Request {
            id,
            tenant,
            query,
            reply: reply.clone(),
            submitted: Instant::now(),
            deadline,
        };
        match tx.try_send(request) {
            Ok(()) => {
                self.shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
                self.shared.stats.enter();
                Ok(Ticket { id, slot: reply })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.stats.rejected_overloaded.fetch_add(1, Ordering::SeqCst);
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
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

    /// Resume a dispatcher started paused
    /// ([`ServerConfig::start_paused`]).
    pub fn resume(&self) {
        *self.shared.gate.paused.lock().expect("pause gate poisoned") = false;
        self.shared.gate.cv.notify_all();
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
        // Drop the sender so the dispatcher sees Disconnected once the
        // channel empties.
        *self.submit_tx.write() = None;
        // Wake a paused dispatcher into the drain path.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.gate.cv.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // The dispatcher closed the job queue on exit; executors finish
        // the remaining jobs and stop.
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
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

fn dispatcher_loop(
    shared: Arc<Shared>,
    rx: Receiver<Request>,
    max_batch: usize,
    max_delay: Duration,
) {
    let epoch = Instant::now();
    let now_ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
    let mut batcher: MicroBatcher<Request> =
        MicroBatcher::new(shared.registry.len(), max_batch, max_delay.as_nanos() as u64);
    loop {
        // Pause gate: while paused, requests pile up in the bounded
        // channel (that is the point — backpressure becomes visible).
        {
            let mut paused = shared.gate.paused.lock().expect("pause gate poisoned");
            while *paused && !shared.shutting_down.load(Ordering::SeqCst) {
                paused = shared.gate.cv.wait(paused).expect("pause gate poisoned");
            }
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            // Pull whatever is still buffered in the channel, then fall
            // through to the drain below.
            while let Ok(req) = rx.try_recv() {
                enqueue(&shared, &mut batcher, req, now_ns(epoch));
            }
            break;
        }
        match batcher.poll(now_ns(epoch)) {
            Poll::Flush { lane, reason } => {
                let requests = batcher.take(lane);
                flush(&shared, lane, requests, reason, now_ns(epoch));
            }
            Poll::WaitNs(ns) => match rx.recv_timeout(Duration::from_nanos(ns)) {
                Ok(req) => enqueue(&shared, &mut batcher, req, now_ns(epoch)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            },
            Poll::Idle => match rx.recv() {
                Ok(req) => enqueue(&shared, &mut batcher, req, now_ns(epoch)),
                Err(_) => break,
            },
        }
    }
    // Shutdown drain: every pending lane flushes as one final batch.
    for (lane, requests) in batcher.drain_all() {
        flush(&shared, lane, requests, FlushReason::Drain, now_ns(epoch));
    }
    shared.jobs.close();
}

/// Push one request into its tenant's lane, flushing on size.
fn enqueue(shared: &Arc<Shared>, batcher: &mut MicroBatcher<Request>, req: Request, now_ns: u64) {
    let lane = req.tenant.lane();
    if let Some(reason) = batcher.push(lane, req, now_ns) {
        let requests = batcher.take(lane);
        flush(shared, lane, requests, reason, now_ns);
    }
}

/// Turn a flushed lane into a [`BatchJob`]: pick the degraded budget from
/// the current load signals, account the flush, hand it to the executors.
fn flush(
    shared: &Arc<Shared>,
    lane: usize,
    mut requests: Vec<Request>,
    reason: FlushReason,
    now_ns: u64,
) {
    if requests.is_empty() {
        return;
    }
    // Expired-in-queue requests never reach an executor: answering them
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
    let tenant = shared.registry.by_lane(lane).unwrap_or_else(|| requests[0].tenant.clone());
    // A model publication since the last flush invalidates the rolling
    // latency window: its samples describe the replaced model and would
    // keep feeding the ladder's p99 signal against the new one.
    let epoch = shared.registry.swap_epoch();
    if shared.seen_swap_epoch.swap(epoch, Ordering::SeqCst) != epoch {
        shared.latency.reset();
    }
    let queue_depth = shared.stats.depth();
    // The ladder ignores p99 while its latency signal is off; skip the
    // clone-and-sort of the latency ring then.
    let p99_ms =
        if shared.degrade.p99_target_ms > 0.0 { shared.latency.quantile(0.99) } else { 0.0 };
    let configured = tenant.model().estimate_samples();
    let samples_override =
        tenant.degrade_budget(&shared.degrade, configured, queue_depth, p99_ms, now_ns);
    let seq = shared.batch_seq.fetch_add(1, Ordering::SeqCst);
    let stats = &shared.stats;
    stats.batches.fetch_add(1, Ordering::SeqCst);
    match reason {
        FlushReason::Size => stats.flush_size.fetch_add(1, Ordering::SeqCst),
        FlushReason::Deadline => stats.flush_deadline.fetch_add(1, Ordering::SeqCst),
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
    shared.jobs.push(BatchJob { seq, tenant, requests, samples_override });
}

fn executor_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.jobs.pop() {
        run_batch(&shared, job);
    }
}

/// Execute one micro-batch end to end: one panic-isolated
/// [`uae_core::serve_batch`] call (routed when the tenant holds a
/// router), replies, latency accounting, telemetry. Routed replies count
/// in `routed_requests` and emit [`Event::Routed`] keyed by request id.
fn run_batch(shared: &Arc<Shared>, job: BatchJob) {
    let n = job.requests.len();
    let queries: Vec<Query> = job.requests.iter().map(|r| r.query.clone()).collect();
    let model = job.tenant.model();
    let router = job.tenant.router();
    let exec_start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if shared.fault.panics(job.seq) {
            panic!("uae-server: fault-plan panic (batch {})", job.seq);
        }
        serve_batch(&model, router.as_deref(), &queries, job.samples_override)
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
    if job.tenant.pool().is_some() {
        let pending: Vec<(u64, Query)> = job
            .requests
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
                dropped += labels.record(id, job.tenant.clone(), query);
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
    for (req, (result, routed)) in job.requests.into_iter().zip(results) {
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
            tenant: job.tenant.name().to_owned(),
            queue_ms,
            execute_ms,
        });
        req.reply.fill(result);
    }
    stats.queue_wait_ns.fetch_add(queue_ns_total, Ordering::SeqCst);
    stats.execute_ns.fetch_add(exec_ns_total, Ordering::SeqCst);
    stats.exit(n);
}
