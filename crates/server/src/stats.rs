//! Server-side counters: submission/rejection/completion tallies, the
//! flush-reason split, a batch-size histogram, queue-depth gauges and a
//! rolling end-to-end latency window for p50/p99.
//!
//! Everything on the submit/execute hot paths is an atomic; the latency
//! ring takes a short mutex per completed batch. [`ServerStatsCell`] is the
//! live cell shared across threads, [`ServerStats`] the plain snapshot
//! handed to callers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Number of log2 batch-size buckets: `1, 2, 3–4, 5–8, …, 257–512, >512`.
pub const BATCH_HIST_BUCKETS: usize = 11;

/// Histogram bucket for a batch of `size` requests.
pub fn batch_bucket(size: usize) -> usize {
    let size = size.max(1);
    // ceil(log2(size)), saturated into the top bucket.
    let ceil_log2 = (usize::BITS - (size - 1).leading_zeros()) as usize;
    ceil_log2.min(BATCH_HIST_BUCKETS - 1)
}

/// Human label for a histogram bucket (for reports).
pub fn batch_bucket_label(bucket: usize) -> String {
    match bucket {
        0 => "1".to_owned(),
        b if b + 1 == BATCH_HIST_BUCKETS => format!(">{}", 1usize << (b - 1)),
        b => format!("{}-{}", (1usize << (b - 1)) + 1, 1usize << b),
    }
}

/// Fixed-size ring of recent end-to-end latencies (milliseconds).
pub struct LatencyWindow {
    ring: Mutex<RingState>,
}

struct RingState {
    buf: Vec<f64>,
    cursor: usize,
}

impl LatencyWindow {
    /// A window remembering the last `capacity` observations.
    pub fn new(capacity: usize) -> Self {
        LatencyWindow {
            ring: Mutex::new(RingState { buf: Vec::with_capacity(capacity.max(1)), cursor: 0 }),
        }
    }

    /// Record one observation.
    pub fn record(&self, ms: f64) {
        let mut st = self.ring.lock();
        if st.buf.len() < st.buf.capacity() {
            st.buf.push(ms);
        } else {
            let c = st.cursor;
            st.buf[c] = ms;
            st.cursor = (c + 1) % st.buf.capacity();
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the window, or `0.0` when
    /// empty. Nearest-rank on a sorted copy — the window is small by
    /// construction.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut xs = self.ring.lock().buf.clone();
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len());
        xs[rank - 1]
    }

    /// Drop every observation (the window restarts empty). Called on a
    /// model hot-swap: pre-swap latencies describe the replaced model
    /// and must not shape the quantiles reported for the new one.
    pub fn reset(&self) {
        let mut st = self.ring.lock();
        st.buf.clear();
        st.cursor = 0;
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// Whether no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Live, thread-shared server counters.
#[derive(Default)]
pub struct ServerStatsCell {
    pub(crate) submitted: AtomicU64,
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected_overloaded: AtomicU64,
    pub(crate) rejected_unknown_tenant: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) query_errors: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) degraded_requests: AtomicU64,
    pub(crate) routed_requests: AtomicU64,
    pub(crate) labels_recorded: AtomicU64,
    pub(crate) labels_resolved: AtomicU64,
    pub(crate) labels_dropped: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) flush_size: AtomicU64,
    pub(crate) flush_deadline: AtomicU64,
    pub(crate) flush_drain: AtomicU64,
    pub(crate) executor_panics: AtomicU64,
    pub(crate) batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    /// Raised under the queue lock before a request is pushed, so no
    /// reply can lower it first.
    pub(crate) queue_depth: AtomicUsize,
    pub(crate) max_queue_depth: AtomicUsize,
    pub(crate) queue_wait_ns: AtomicU64,
    pub(crate) execute_ns: AtomicU64,
}

impl ServerStatsCell {
    /// Raise the in-flight gauge, keeping the high-water mark.
    pub(crate) fn enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::SeqCst);
    }

    /// Lower the in-flight gauge by `n` replies.
    pub(crate) fn exit(&self, n: usize) {
        let before = self.queue_depth.fetch_sub(n, Ordering::SeqCst);
        debug_assert!(before >= n, "in-flight gauge went below zero");
    }

    /// Current in-flight requests (accepted, not yet replied).
    pub fn depth(&self) -> usize {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Plain snapshot of every counter.
    pub fn snapshot(&self) -> ServerStats {
        let ld = |a: &AtomicU64| a.load(Ordering::SeqCst);
        let mut batch_hist = [0u64; BATCH_HIST_BUCKETS];
        for (dst, src) in batch_hist.iter_mut().zip(&self.batch_hist) {
            *dst = ld(src);
        }
        ServerStats {
            submitted: ld(&self.submitted),
            accepted: ld(&self.accepted),
            rejected_overloaded: ld(&self.rejected_overloaded),
            rejected_unknown_tenant: ld(&self.rejected_unknown_tenant),
            deadline_exceeded: ld(&self.deadline_exceeded),
            completed: ld(&self.completed),
            query_errors: ld(&self.query_errors),
            failed: ld(&self.failed),
            degraded_requests: ld(&self.degraded_requests),
            routed_requests: ld(&self.routed_requests),
            labels_recorded: ld(&self.labels_recorded),
            labels_resolved: ld(&self.labels_resolved),
            labels_dropped: ld(&self.labels_dropped),
            batches: ld(&self.batches),
            flush_size: ld(&self.flush_size),
            flush_deadline: ld(&self.flush_deadline),
            flush_drain: ld(&self.flush_drain),
            executor_panics: ld(&self.executor_panics),
            batch_hist,
            queue_depth: self.depth(),
            max_queue_depth: self.max_queue_depth.load(Ordering::SeqCst),
            queue_wait_ms_total: ld(&self.queue_wait_ns) as f64 / 1e6,
            execute_ms_total: ld(&self.execute_ns) as f64 / 1e6,
            p50_ms: 0.0,
            p99_ms: 0.0,
        }
    }
}

/// Point-in-time copy of the server counters (see [`ServerStatsCell`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Submissions attempted (accepted + rejected).
    pub submitted: u64,
    /// Submissions that entered the queue.
    pub accepted: u64,
    /// Submissions bounced with `Overloaded` (queue full).
    pub rejected_overloaded: u64,
    /// Submissions bounced with `UnknownTenant`.
    pub rejected_unknown_tenant: u64,
    /// Accepted requests dropped at flush because their
    /// `submit_with_deadline` budget expired while they queued. Distinct
    /// from `rejected_overloaded`: these entered the queue and timed
    /// out; the overload shed never entered at all.
    pub deadline_exceeded: u64,
    /// Requests answered with an estimate.
    pub completed: u64,
    /// Requests answered with a typed per-query `EstimateError`.
    pub query_errors: u64,
    /// Requests answered with a server-side error (executor panic,
    /// shutdown before execution).
    pub failed: u64,
    /// Requests served under a degraded (shrunken) sample budget.
    pub degraded_requests: u64,
    /// Requests a fleet backend answered instead of the primary model:
    /// exactly the replies whose source is `EstimateSource::Routed` (a
    /// validation shortcut on a routed decision does not count).
    /// Deliberate choices, not degradations — never double-counted in
    /// `failed` or the model's fallback tallies.
    pub routed_requests: u64,
    /// Served queries recorded as awaiting a true cardinality (tenants
    /// with an attached label pool).
    pub labels_recorded: u64,
    /// Recorded queries whose true cardinality arrived and was joined
    /// into the tenant's shared `QueryPool`.
    pub labels_resolved: u64,
    /// Recorded queries evicted before their truth arrived (pending-label
    /// buffer full — oldest first).
    pub labels_dropped: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Batches closed because they reached `max_batch`.
    pub flush_size: u64,
    /// Batches closed because the oldest request reached `max_delay`.
    pub flush_deadline: u64,
    /// Batches closed by shutdown drain.
    pub flush_drain: u64,
    /// Batch executions that panicked (isolated; one per batch).
    pub executor_panics: u64,
    /// Log2 batch-size histogram (`1, 2, 3–4, …, >512`; see
    /// [`batch_bucket_label`]).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// In-flight requests at snapshot time.
    pub queue_depth: usize,
    /// High-water mark of in-flight requests.
    pub max_queue_depth: usize,
    /// Total milliseconds requests spent queued / in forming batches.
    pub queue_wait_ms_total: f64,
    /// Total milliseconds executors spent on batches (per request).
    pub execute_ms_total: f64,
    /// Rolling-window p50 end-to-end latency (ms). Filled by
    /// `Server::stats`/`Server::shutdown` (the raw cell holds no window);
    /// `0.0` before any completion.
    pub p50_ms: f64,
    /// Rolling-window p99 end-to-end latency (ms); same provenance.
    pub p99_ms: f64,
}

impl ServerStats {
    /// Mean executed batch size.
    pub fn mean_batch_size(&self) -> f64 {
        let served = (self.completed + self.query_errors + self.failed) as f64;
        if self.batches == 0 {
            0.0
        } else {
            served / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_buckets_cover_log2_ranges() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(512), 9);
        assert_eq!(batch_bucket(513), 10);
        assert_eq!(batch_bucket(1 << 20), 10, "huge batches saturate the top bucket");
        assert_eq!(batch_bucket_label(0), "1");
        assert_eq!(batch_bucket_label(2), "3-4");
        assert_eq!(batch_bucket_label(10), ">512");
    }

    #[test]
    fn latency_window_quantiles_and_wraparound() {
        let w = LatencyWindow::new(4);
        assert_eq!(w.quantile(0.99), 0.0, "empty window reports 0");
        for ms in [1.0, 2.0, 3.0, 4.0] {
            w.record(ms);
        }
        assert_eq!(w.quantile(0.5), 2.0);
        assert_eq!(w.quantile(1.0), 4.0);
        // Overwrite the oldest: window becomes {5, 2, 3, 4}.
        w.record(5.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(1.0), 5.0);
        assert_eq!(w.quantile(0.25), 2.0);
    }

    #[test]
    fn latency_window_reset_restarts_empty_with_full_capacity() {
        let w = LatencyWindow::new(3);
        for ms in [1.0, 2.0, 3.0, 4.0] {
            w.record(ms);
        }
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.99), 0.0);
        // The ring refills from scratch after the reset.
        for ms in [7.0, 8.0, 9.0] {
            w.record(ms);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.quantile(0.5), 8.0);
    }

    #[test]
    fn depth_gauge_tracks_high_water_mark() {
        let c = ServerStatsCell::default();
        c.enter();
        c.enter();
        c.enter();
        c.exit(2);
        assert_eq!(c.depth(), 1);
        let snap = c.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.max_queue_depth, 3);
    }
}
