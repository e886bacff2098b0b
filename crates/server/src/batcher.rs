//! The adaptive micro-batcher: a **pure state machine** deciding when a
//! lane's pending requests become a batch.
//!
//! Independently arriving queries only benefit from the batched engine if
//! something coalesces them, but waiting for a full batch under light load
//! would add unbounded latency. The classic compromise — flush on
//! `max_batch` *or* `max_delay` since the oldest pending request,
//! whichever first — lives here, deliberately separated from threads and
//! wall clocks: time is an opaque `u64` nanosecond counter supplied by the
//! caller, so every flush rule is unit-testable with a mock clock (no
//! sleeps, no flaky timing assertions). The dispatcher thread in
//! [`crate::server`] drives the same state machine with real
//! `Instant`-derived nanoseconds.
//!
//! Lanes are the batching domains — one per tenant, since a batch can only
//! run against one model snapshot.

use uae_core::FlushReason;

/// One lane's pending requests plus the arrival time of the oldest.
struct Lane<T> {
    items: Vec<T>,
    /// Arrival time (ns) of the oldest pending item; meaningless when
    /// `items` is empty.
    oldest_ns: u64,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane { items: Vec::new(), oldest_ns: 0 }
    }
}

/// What the dispatcher should do next (see [`MicroBatcher::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Lane `lane` must flush now for `reason` (take it with
    /// [`MicroBatcher::take`]).
    Flush {
        /// The lane to flush.
        lane: usize,
        /// Why it is due.
        reason: FlushReason,
    },
    /// Nothing is due yet; the earliest pending deadline is `ns` from the
    /// polled instant. Sleep at most this long (or until the next arrival).
    WaitNs(u64),
    /// No lane has pending requests; block indefinitely for the next
    /// arrival.
    Idle,
}

/// Flush-on-size-or-deadline accumulator over a fixed set of lanes.
///
/// `max_batch = usize::MAX` disables size flushes (the determinism escape
/// hatch: one executor plus an unbounded batch replays a request sequence
/// as a single `estimate_batch`-identical batch). `max_delay_ns = 0` makes
/// every pending lane immediately due — batching degenerates to
/// pass-through.
pub struct MicroBatcher<T> {
    max_batch: usize,
    max_delay_ns: u64,
    lanes: Vec<Lane<T>>,
    pending_total: usize,
}

impl<T> MicroBatcher<T> {
    /// A batcher over `lanes` lanes flushing at `max_batch` items or
    /// `max_delay_ns` after a lane's oldest arrival, whichever first.
    pub fn new(lanes: usize, max_batch: usize, max_delay_ns: u64) -> Self {
        MicroBatcher {
            max_batch: max_batch.max(1),
            max_delay_ns,
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            pending_total: 0,
        }
    }

    /// Grow to at least `lanes` lanes (tenants can register after the
    /// server starts).
    pub fn ensure_lanes(&mut self, lanes: usize) {
        while self.lanes.len() < lanes {
            self.lanes.push(Lane::new());
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total pending items across all lanes.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Append an item to `lane` at time `now_ns`. Returns
    /// `Some(FlushReason::Size)` when the push filled the lane to
    /// `max_batch` — the caller must [`MicroBatcher::take`] it before the
    /// next push to that lane.
    pub fn push(&mut self, lane: usize, item: T, now_ns: u64) -> Option<FlushReason> {
        self.ensure_lanes(lane + 1);
        let l = &mut self.lanes[lane];
        if l.items.is_empty() {
            l.oldest_ns = now_ns;
        }
        l.items.push(item);
        self.pending_total += 1;
        (l.items.len() >= self.max_batch).then_some(FlushReason::Size)
    }

    /// The most urgent action at time `now_ns`: a lane past its deadline
    /// (oldest lane first), the wait until the earliest deadline, or
    /// [`Poll::Idle`] when nothing is pending.
    pub fn poll(&self, now_ns: u64) -> Poll {
        let mut earliest: Option<(usize, u64)> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if l.items.is_empty() {
                continue;
            }
            let deadline = l.oldest_ns.saturating_add(self.max_delay_ns);
            if earliest.is_none_or(|(_, d)| deadline < d) {
                earliest = Some((i, deadline));
            }
        }
        match earliest {
            None => Poll::Idle,
            Some((lane, deadline)) if deadline <= now_ns => {
                Poll::Flush { lane, reason: FlushReason::Deadline }
            }
            Some((_, deadline)) => Poll::WaitNs(deadline - now_ns),
        }
    }

    /// Remove and return every pending item of `lane` (in arrival order).
    pub fn take(&mut self, lane: usize) -> Vec<T> {
        let items = std::mem::take(&mut self.lanes[lane].items);
        self.pending_total -= items.len();
        items
    }

    /// Drain every non-empty lane (shutdown): `(lane, items)` pairs in
    /// lane order, each in arrival order.
    pub fn drain_all(&mut self) -> Vec<(usize, Vec<T>)> {
        let mut out = Vec::new();
        for lane in 0..self.lanes.len() {
            if !self.lanes[lane].items.is_empty() {
                let items = self.take(lane);
                out.push((lane, items));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn flush_on_size_fires_exactly_at_max_batch() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 4, 10 * MS);
        assert_eq!(b.push(0, 1, 0), None);
        assert_eq!(b.push(0, 2, 1), None);
        assert_eq!(b.push(0, 3, 2), None);
        assert_eq!(b.push(0, 4, 3), Some(FlushReason::Size));
        assert_eq!(b.take(0), vec![1, 2, 3, 4]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.poll(100 * MS), Poll::Idle, "taken lane is no longer due");
    }

    #[test]
    fn flush_on_deadline_fires_at_oldest_plus_delay() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 1000, 5 * MS);
        b.push(0, 7, 2 * MS);
        b.push(0, 8, 4 * MS); // later arrival must not extend the deadline
        match b.poll(3 * MS) {
            Poll::WaitNs(ns) => assert_eq!(ns, 4 * MS, "deadline = oldest(2ms) + delay(5ms)"),
            other => panic!("expected WaitNs, got {other:?}"),
        }
        assert_eq!(b.poll(6 * MS), Poll::WaitNs(MS));
        assert_eq!(b.poll(7 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
        assert_eq!(b.take(0), vec![7, 8]);
    }

    #[test]
    fn empty_batcher_idles_without_deadlines() {
        let b: MicroBatcher<u32> = MicroBatcher::new(3, 8, MS);
        assert_eq!(b.poll(0), Poll::Idle);
        assert_eq!(b.poll(u64::MAX), Poll::Idle);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn deadline_resets_after_take_and_reuses_lane() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 1000, 5 * MS);
        b.push(0, 1, 0);
        assert_eq!(b.poll(5 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
        b.take(0);
        // A fresh arrival starts a fresh deadline from its own arrival.
        b.push(0, 2, 20 * MS);
        assert_eq!(b.poll(20 * MS), Poll::WaitNs(5 * MS));
        assert_eq!(b.poll(25 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
    }

    #[test]
    fn multiple_lanes_flush_independently_oldest_first() {
        let mut b: MicroBatcher<&'static str> = MicroBatcher::new(2, 1000, 10 * MS);
        b.push(1, "b0", 0);
        b.push(0, "a0", 3 * MS);
        // Lane 1's deadline (10ms) precedes lane 0's (13ms).
        assert_eq!(b.poll(9 * MS), Poll::WaitNs(MS));
        assert_eq!(b.poll(11 * MS), Poll::Flush { lane: 1, reason: FlushReason::Deadline });
        assert_eq!(b.take(1), vec!["b0"]);
        assert_eq!(b.poll(11 * MS), Poll::WaitNs(2 * MS));
        assert_eq!(b.poll(13 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
    }

    #[test]
    fn unbounded_batch_never_size_flushes() {
        let mut b: MicroBatcher<usize> = MicroBatcher::new(1, usize::MAX, 50 * MS);
        for i in 0..10_000 {
            assert_eq!(b.push(0, i, i as u64), None, "∞ max_batch must never size-flush");
        }
        assert_eq!(b.pending(), 10_000);
        // Deadline still applies, anchored at the first arrival.
        assert_eq!(b.poll(50 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
        assert_eq!(b.take(0).len(), 10_000);
    }

    #[test]
    fn zero_delay_makes_every_pending_lane_immediately_due() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 1000, 0);
        b.push(0, 1, 7 * MS);
        assert_eq!(b.poll(7 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
    }

    #[test]
    fn drain_all_empties_every_lane_in_order() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(3, 1000, MS);
        b.push(2, 20, 0);
        b.push(0, 1, 1);
        b.push(0, 2, 2);
        let drained = b.drain_all();
        assert_eq!(drained, vec![(0, vec![1, 2]), (2, vec![20])]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.poll(0), Poll::Idle);
    }
}
