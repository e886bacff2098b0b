//! The adaptive micro-batcher: a **pure state machine** deciding when a
//! lane's pending requests become a batch.
//!
//! Independently arriving queries only benefit from the batched engine if
//! something coalesces them, but holding a request while the executor that
//! would serve it sits idle only adds latency. The rule is therefore
//! work-conserving (Clipper's adaptive batching): a lane with **no batch in
//! flight** is ready as soon as it holds a request; while one of its
//! batches runs, the lane accumulates and flushes when that batch returns
//! ([`MicroBatcher::complete`]), at `max_batch`, or once its oldest request
//! is `max_delay` old — whichever first. Idle executors get pass-through
//! latency; busy ones still build full batches.
//!
//! It lives here deliberately separated from threads and wall clocks:
//! time is an opaque `u64` nanosecond counter supplied by the caller, so
//! every flush rule is unit-testable with a mock clock (no sleeps, no flaky
//! timing assertions). The executors in [`crate::server`] drive the same
//! state machine, under the serving queue's lock, with real
//! `Instant`-derived nanoseconds.
//!
//! Lanes are the batching domains — one per tenant, since a batch can only
//! run against one model snapshot.

use std::collections::VecDeque;

use uae_core::FlushReason;

/// What an executor should do next (see [`MicroBatcher::poll`]).
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

/// Work-conserving flush-on-size-or-deadline accumulator over a fixed set
/// of lanes.
///
/// `max_batch = usize::MAX` disables size flushes *and* the idle-lane rule
/// (the determinism escape hatch: one executor plus an unbounded batch
/// replays a request sequence as a single `estimate_batch`-identical
/// batch, so only `max_delay` or a drain may close it). `max_delay_ns = 0`
/// makes every pending lane immediately due — batching degenerates to
/// pass-through.
pub struct MicroBatcher<T> {
    max_batch: usize,
    max_delay_ns: u64,
    /// Per-lane pending items with their arrival times (ns), oldest
    /// first — so a lane's deadline stays right after a partial take.
    lanes: Vec<VecDeque<(u64, T)>>,
    /// Per-lane batches taken and not yet [`MicroBatcher::complete`]d. A
    /// count, not a flag: with more executors than lanes, a busy lane can
    /// still flush on size or deadline to a second executor.
    in_flight: Vec<usize>,
    pending_total: usize,
}

impl<T> MicroBatcher<T> {
    /// A batcher over `lanes` lanes flushing a lane with no batch in
    /// flight at once, and a busy lane when its batch completes, at
    /// `max_batch` items or `max_delay_ns` after its oldest arrival,
    /// whichever first.
    pub fn new(lanes: usize, max_batch: usize, max_delay_ns: u64) -> Self {
        MicroBatcher {
            max_batch: max_batch.max(1),
            max_delay_ns,
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            in_flight: vec![0; lanes],
            pending_total: 0,
        }
    }

    /// Total pending items across all lanes.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Append an item to `lane` at time `now_ns`. Whether the lane is now
    /// due is [`MicroBatcher::poll`]'s call.
    pub fn push(&mut self, lane: usize, item: T, now_ns: u64) {
        // Tenants can register after the server starts.
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
            self.in_flight.resize(lane + 1, 0);
        }
        self.lanes[lane].push_back((now_ns, item));
        self.pending_total += 1;
    }

    /// The most urgent action at time `now_ns`: a ready lane whose oldest
    /// item arrived first (FIFO fairness across lanes), else the wait
    /// until the earliest deadline, or [`Poll::Idle`] when nothing is
    /// pending. A non-empty lane is ready, checked in this order, when it
    /// holds `max_batch` items ([`FlushReason::Size`]), when its oldest
    /// item is past `max_delay` ([`FlushReason::Deadline`]), or when none
    /// of its batches is in flight ([`FlushReason::Idle`]; never at
    /// `max_batch = usize::MAX`).
    pub fn poll(&self, now_ns: u64) -> Poll {
        let mut ready: Option<(usize, u64, FlushReason)> = None;
        let mut next_deadline: Option<u64> = None;
        for (lane, items) in self.lanes.iter().enumerate() {
            let Some(&(oldest, _)) = items.front() else {
                continue;
            };
            let deadline = oldest.saturating_add(self.max_delay_ns);
            let reason = if items.len() >= self.max_batch {
                FlushReason::Size
            } else if deadline <= now_ns {
                FlushReason::Deadline
            } else if self.in_flight[lane] == 0 && self.max_batch != usize::MAX {
                FlushReason::Idle
            } else {
                next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
                continue;
            };
            if ready.is_none_or(|(_, first, _)| oldest < first) {
                ready = Some((lane, oldest, reason));
            }
        }
        match (ready, next_deadline) {
            (Some((lane, _, reason)), _) => Poll::Flush { lane, reason },
            (None, Some(deadline)) => Poll::WaitNs(deadline - now_ns),
            (None, None) => Poll::Idle,
        }
    }

    /// Remove and return up to `max_batch` of `lane`'s oldest pending
    /// items, in arrival order, as a batch in flight until
    /// [`MicroBatcher::complete`].
    pub fn take(&mut self, lane: usize) -> Vec<T> {
        self.in_flight[lane] += 1;
        self.pop_batch(lane)
    }

    /// One batch [`MicroBatcher::take`]n from `lane` has finished: with no
    /// other batch of it in flight, the lane is ready again as soon as it
    /// holds an item.
    pub fn complete(&mut self, lane: usize) {
        debug_assert!(self.in_flight[lane] > 0, "complete({lane}) without a batch in flight");
        self.in_flight[lane] = self.in_flight[lane].saturating_sub(1);
    }

    /// Shutdown drain: the next batch (at most `max_batch` items) of the
    /// first non-empty lane in lane order, or `None` once every lane is
    /// empty. Drained batches are not in flight: nothing polls once the
    /// queue drains.
    pub fn drain(&mut self) -> Option<Vec<T>> {
        let lane = self.lanes.iter().position(|items| !items.is_empty())?;
        Some(self.pop_batch(lane))
    }

    fn pop_batch(&mut self, lane: usize) -> Vec<T> {
        let items = &mut self.lanes[lane];
        let n = items.len().min(self.max_batch);
        self.pending_total -= n;
        items.drain(..n).map(|(_, item)| item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Put an (empty) batch of `lane` in flight, so only size and
    /// deadline can release the lane.
    fn busy<T>(b: &mut MicroBatcher<T>, lane: usize) {
        assert!(b.take(lane).is_empty());
    }

    #[test]
    fn idle_lane_flushes_on_arrival() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 64, 10 * MS);
        b.push(0, 1, MS);
        assert_eq!(b.poll(MS), Poll::Flush { lane: 0, reason: FlushReason::Idle });
        assert_eq!(b.take(0), vec![1]);
        // A second arrival waits while the first batch runs …
        b.push(0, 2, 2 * MS);
        assert_eq!(b.poll(2 * MS), Poll::WaitNs(10 * MS));
        // … and flushes the moment it returns.
        b.complete(0);
        assert_eq!(b.poll(3 * MS), Poll::Flush { lane: 0, reason: FlushReason::Idle });
        assert_eq!(b.take(0), vec![2]);
        b.complete(0);
        assert_eq!(b.poll(3 * MS), Poll::Idle);
    }

    #[test]
    fn busy_lane_holds_until_size_or_deadline() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 3, 10 * MS);
        b.push(0, 0, 0);
        assert_eq!(b.poll(0), Poll::Flush { lane: 0, reason: FlushReason::Idle });
        b.take(0);
        b.push(0, 1, MS);
        b.push(0, 2, 2 * MS);
        assert_eq!(b.poll(2 * MS), Poll::WaitNs(9 * MS), "busy lane accumulates");
        b.push(0, 3, 3 * MS);
        assert_eq!(b.poll(3 * MS), Poll::Flush { lane: 0, reason: FlushReason::Size });
        assert_eq!(b.take(0), vec![1, 2, 3]);
        // Two batches in flight: one completion leaves the lane busy.
        b.push(0, 4, 4 * MS);
        b.complete(0);
        assert_eq!(b.poll(13 * MS), Poll::WaitNs(MS));
        assert_eq!(b.poll(14 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
    }

    #[test]
    fn complete_releases_only_its_own_lane() {
        let mut b: MicroBatcher<&'static str> = MicroBatcher::new(2, 64, 10 * MS);
        b.push(0, "a0", 0);
        b.push(1, "b0", 0);
        assert_eq!(b.poll(0), Poll::Flush { lane: 0, reason: FlushReason::Idle });
        b.take(0);
        assert_eq!(b.poll(0), Poll::Flush { lane: 1, reason: FlushReason::Idle });
        b.take(1);
        b.push(0, "a1", MS);
        b.push(1, "b1", 2 * MS);
        // Lane 1's batch returns: lane 1 flushes although lane 0 holds
        // the older request — lane 0's batch is still running.
        b.complete(1);
        assert_eq!(b.poll(2 * MS), Poll::Flush { lane: 1, reason: FlushReason::Idle });
        assert_eq!(b.take(1), vec!["b1"]);
        assert_eq!(b.poll(2 * MS), Poll::WaitNs(9 * MS), "lane 0 is still busy");
        b.complete(0);
        assert_eq!(b.poll(2 * MS), Poll::Flush { lane: 0, reason: FlushReason::Idle });
        assert_eq!(b.take(0), vec!["a1"]);
    }

    #[test]
    fn unbounded_batch_never_flushes_idle() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(2, usize::MAX, 50 * MS);
        b.push(0, 1, 0);
        b.push(1, 2, MS);
        assert_eq!(b.poll(0), Poll::WaitNs(50 * MS), "no batch in flight, still not due");
        assert_eq!(b.poll(50 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
        b.take(0);
        b.complete(0);
        b.push(0, 3, 50 * MS);
        assert_eq!(b.poll(50 * MS), Poll::WaitNs(MS), "a completion does not make it due either");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without a batch in flight")]
    fn complete_without_take_is_a_bug() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 8, MS);
        b.complete(0);
    }

    #[test]
    fn flush_on_size_fires_exactly_at_max_batch() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 4, 10 * MS);
        busy(&mut b, 0);
        for item in 0..3 {
            b.push(0, item, item as u64 * MS);
            assert!(matches!(b.poll(3 * MS), Poll::WaitNs(_)), "not due below max_batch");
        }
        b.push(0, 3, 3 * MS);
        b.push(0, 4, 4 * MS);
        assert_eq!(b.poll(4 * MS), Poll::Flush { lane: 0, reason: FlushReason::Size });
        assert_eq!(b.take(0), vec![0, 1, 2, 3], "at most max_batch, oldest first");
        // The leftover arrived at 4ms: due at 14ms, not at the taken
        // items' 10ms.
        assert_eq!(b.poll(10 * MS), Poll::WaitNs(4 * MS));
        assert_eq!(b.take(0), vec![4]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.poll(100 * MS), Poll::Idle, "taken lane is no longer due");
    }

    #[test]
    fn flush_on_deadline_fires_at_oldest_plus_delay() {
        let mut b: MicroBatcher<u32> = MicroBatcher::new(1, 1000, 5 * MS);
        busy(&mut b, 0);
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
        busy(&mut b, 0);
        busy(&mut b, 1);
        b.push(1, "b0", 0);
        b.push(0, "a0", 3 * MS);
        // Lane 1's deadline (10ms) precedes lane 0's (13ms).
        assert_eq!(b.poll(9 * MS), Poll::WaitNs(MS));
        assert_eq!(b.poll(11 * MS), Poll::Flush { lane: 1, reason: FlushReason::Deadline });
        assert_eq!(b.take(1), vec!["b0"]);
        assert_eq!(b.poll(11 * MS), Poll::WaitNs(2 * MS));
        assert_eq!(b.poll(13 * MS), Poll::Flush { lane: 0, reason: FlushReason::Deadline });
        b.take(0);
        // Among ready lanes the oldest arrival goes first, whether the
        // lane is past its deadline or full: lane 1 (20ms) before lane 0.
        b.push(1, "b1", 20 * MS);
        (0..1000).for_each(|_| b.push(0, "a", 25 * MS));
        assert_eq!(b.poll(30 * MS), Poll::Flush { lane: 1, reason: FlushReason::Deadline });
        b.take(1);
        assert_eq!(b.poll(30 * MS), Poll::Flush { lane: 0, reason: FlushReason::Size });
    }

    #[test]
    fn unbounded_batch_never_size_flushes() {
        let mut b: MicroBatcher<usize> = MicroBatcher::new(1, usize::MAX, 50 * MS);
        for i in 0..10_000 {
            b.push(0, i, i as u64);
        }
        assert_eq!(b.pending(), 10_000);
        assert!(matches!(b.poll(49 * MS), Poll::WaitNs(_)), "∞ max_batch must never size-flush");
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
        let mut b: MicroBatcher<u32> = MicroBatcher::new(3, 2, MS);
        b.push(2, 20, 0);
        b.push(0, 1, 1);
        b.push(0, 2, 2);
        b.push(0, 3, 3);
        let drained: Vec<_> = std::iter::from_fn(|| b.drain()).collect();
        assert_eq!(drained, vec![vec![1, 2], vec![3], vec![20]]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.poll(0), Poll::Idle);
    }
}
