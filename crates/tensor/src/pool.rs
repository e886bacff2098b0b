//! Persistent worker pool for data-parallel kernels.
//!
//! The seed implementation spawned fresh OS threads inside
//! `std::thread::scope` on every large matmul — a per-call cost of tens of
//! microseconds that dominates medium-sized kernels and throttles the
//! progressive-sampling serving path. This module replaces per-call
//! spawning with a **lazily initialized, process-wide pool** of detached
//! workers fed through a channel of type-erased jobs.
//!
//! Design:
//!
//! * A job is a `Fn(usize)` run once for each index in `0..n`. Indices are
//!   claimed from a shared atomic counter, so workers load-balance
//!   automatically.
//! * The **caller participates**: after enqueuing, the submitting thread
//!   claims indices like any worker and then waits on a per-job latch.
//!   This makes nested `parallel_for` calls deadlock-free — even if every
//!   pool worker is busy, the caller drains its own job — and it keeps
//!   single-core machines on a zero-handoff fast path.
//! * Borrowed closures are sound because the caller does not return until
//!   the latch reports every index finished; the job's lifetime is erased
//!   only inside that window.
//! * Worker panics are caught, the remaining indices are drained, and the
//!   panic is re-raised on the calling thread.
//! * A worker thread that nevertheless dies unwinding (only possible via
//!   injected faults today, but any future bug qualifies) is **respawned**
//!   by a drop guard, so the pool returns to full strength instead of
//!   silently shrinking toward a serial pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on any requested width — far above a sane kernel fan-out.
const MAX_POOL_THREADS: usize = 64;

/// Number of threads `parallel_for` spreads work across (workers + the
/// participating caller): `UAE_POOL_THREADS` from the environment, else
/// `min(cores, 8)`. Resolved once — the value sits on the per-matmul
/// dispatch path, and the spawned worker set is sized from it.
pub fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("UAE_POOL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map(|n| n.min(MAX_POOL_THREADS))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
            })
    })
}

/// Workers currently alive (armed and not unwound). Zero until the pool is
/// first used, then `pool_threads() - 1` in steady state.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Workers respawned after dying on a panic.
static RESPAWNS: AtomicUsize = AtomicUsize::new(0);
/// Pending injected worker deaths (see [`inject_worker_panic`]).
static KILL_REQUESTS: AtomicUsize = AtomicUsize::new(0);
/// Respawn budget: a backstop against a pathological kill loop burning OS
/// threads forever, far above anything a fault drill requests.
const MAX_RESPAWNS: usize = 1024;

/// Workers currently alive (0 until the pool's first use).
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Total workers respawned after panic-deaths since process start.
pub fn respawn_count() -> usize {
    RESPAWNS.load(Ordering::SeqCst)
}

/// Deterministic fault injection for robustness tests: the next `n`
/// workers to look at the queue panic (outside the queue lock, so the
/// queue mutex is never poisoned) instead of taking a job, exercising the
/// respawn path. Never used by production code.
#[doc(hidden)]
pub fn inject_worker_panic(n: usize) {
    KILL_REQUESTS.fetch_add(n, Ordering::SeqCst);
    injector().ready.notify_all();
}

/// Atomically claim one pending kill request, if any.
fn claim_kill() -> bool {
    KILL_REQUESTS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1)).is_ok()
}

/// Keeps [`LIVE_WORKERS`] honest and respawns the worker if it dies
/// unwinding. Spawning from a `Drop` impl during a panic is safe here:
/// `spawn_worker` never panics (spawn failure is tolerated — the pool
/// shrinks but the participating caller keeps every job completing).
struct RespawnGuard;

impl RespawnGuard {
    fn arm() -> Self {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        RespawnGuard
    }
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            let n = RESPAWNS.fetch_add(1, Ordering::SeqCst);
            if n < MAX_RESPAWNS {
                spawn_worker(format!("uae-pool-r{n}"));
            }
        }
    }
}

/// Spawn one detached pool worker; failure leaves the pool smaller but
/// functional (the caller always participates in every job).
fn spawn_worker(name: String) {
    let _ = std::thread::Builder::new().name(name).spawn(worker_loop);
}

/// A type-erased parallel-for job. `func` points at a caller-owned closure;
/// the caller guarantees it outlives the job by blocking on [`Job::wait`].
struct Job {
    /// `&dyn Fn(usize)` with its lifetime erased.
    func: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Total number of indices.
    total: usize,
    /// Indices not yet finished, guarded for the completion latch.
    remaining: Mutex<usize>,
    /// Signaled when `remaining` reaches zero.
    done: Condvar,
    /// Set when any index panicked.
    panicked: AtomicBool,
}

// SAFETY: `func` is only dereferenced between submission and latch
// release, during which the caller keeps the closure alive; the closure
// itself is `Sync`, so shared calls from several workers are allowed.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run indices until the job is exhausted.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: `i < total`, so the caller is still blocked in
            // `wait` and the closure is alive.
            let func = unsafe { &*self.func };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| func(i)));
            if outcome.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let mut remaining = self.remaining.lock().expect("pool latch");
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every index has finished.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("pool latch");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("pool latch");
        }
    }
}

/// The shared injector queue workers sleep on.
struct Injector {
    queue: Mutex<VecDeque<Arc<Job>>>,
    ready: Condvar,
}

fn injector() -> &'static Injector {
    static POOL: OnceLock<Injector> = OnceLock::new();
    POOL.get_or_init(|| {
        let inj = Injector { queue: Mutex::new(VecDeque::new()), ready: Condvar::new() };
        // The caller always participates, so spawn one fewer worker than
        // the target width. On a single-core machine this spawns nothing
        // and `parallel_for` degenerates to an inline loop.
        for i in 0..pool_threads().saturating_sub(1) {
            spawn_worker(format!("uae-pool-{i}"));
        }
        inj
    })
}

fn worker_loop() {
    // Armed before the first job: if this worker dies unwinding, the guard
    // decrements the live count and spawns a replacement.
    let _guard = RespawnGuard::arm();
    let inj = injector();
    loop {
        let job = {
            let mut queue = inj.queue.lock().expect("pool queue");
            loop {
                if claim_kill() {
                    // Injected death. Drop the queue lock *before*
                    // panicking — unwinding while holding it would poison
                    // the mutex and take the whole pool down. A worker
                    // dying before claiming any index is harmless: the
                    // participating caller drains every job to completion.
                    drop(queue);
                    panic!("uae-pool: injected worker death (fault plan)");
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inj.ready.wait(queue).expect("pool queue");
            }
        };
        job.drain();
    }
}

/// Run `f(i)` for every `i in 0..n`, spread across the persistent pool.
/// Blocks until all indices complete; panics (on the caller) if any index
/// panicked. `n` is expected to be small — a handful of chunks, not one
/// call per element.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    match n {
        0 => return,
        1 => {
            f(0);
            return;
        }
        _ => {}
    }
    let workers = pool_threads() - 1;
    if workers == 0 {
        // Single-core: no pool threads exist; run inline.
        for i in 0..n {
            f(i);
        }
        return;
    }
    let erased: &(dyn Fn(usize) + Sync) = &f;
    let job = Arc::new(Job {
        // SAFETY: lifetime erasure; `wait` below outlives every deref.
        func: unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(erased)
        },
        next: AtomicUsize::new(0),
        total: n,
        remaining: Mutex::new(n),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    let inj = injector();
    {
        let mut queue = inj.queue.lock().expect("pool queue");
        // One queue entry per helper that could usefully join; each entry
        // is just a handle — indices are claimed from the shared counter.
        for _ in 0..workers.min(n - 1) {
            queue.push_back(Arc::clone(&job));
        }
    }
    inj.ready.notify_all();
    job.drain();
    job.wait();
    if job.panicked.load(Ordering::Relaxed) {
        panic!("uae-pool job panicked");
    }
}

/// Run `f(i)` for `i in 0..n` and collect the results in index order.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = SendPtr(out.as_mut_ptr());
    parallel_for(n, |i| {
        let slot = slots;
        // SAFETY: each index is claimed exactly once, so writes are
        // disjoint; the vec outlives `parallel_for`, which blocks.
        unsafe { *slot.0.add(i) = Some(f(i)) };
    });
    out.into_iter().map(|v| v.expect("pool slot filled")).collect()
}

/// Raw-pointer wrapper for disjoint per-index writes from pool workers.
pub(crate) struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: users of `SendPtr` uphold one-writer-per-disjoint-region.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn nested_parallel_for_completes() {
        let total = AtomicU64::new(0);
        parallel_for(4, |_| {
            parallel_for(8, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (0..8).sum::<u64>());
    }

    #[test]
    fn borrows_stack_data() {
        let data: Vec<u64> = (0..1024).collect();
        let sums = parallel_map(8, |c| data[c * 128..(c + 1) * 128].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), (0..1024).sum::<u64>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // Pool stays usable afterwards.
        let out = parallel_map(8, |i| i);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn injected_worker_death_respawns() {
        // Warm the pool so every worker is armed.
        parallel_for(16, |_| {});
        let full = pool_threads().saturating_sub(1);
        if full == 0 {
            return; // single-core: no workers exist, nothing to kill
        }
        // Wait for all initial workers to come up (spawns are async).
        for _ in 0..1000 {
            if live_workers() >= full {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let before = respawn_count();
        // The victim's panic backtrace on stderr is expected noise.
        inject_worker_panic(1);
        for _ in 0..1000 {
            if respawn_count() > before && live_workers() >= full {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(respawn_count() > before, "no respawn observed after injected death");
        assert!(
            live_workers() >= full,
            "pool below strength after respawn: {} < {full}",
            live_workers()
        );
        // The pool stays fully usable and correct.
        for _ in 0..4 {
            let out = parallel_map(64, |i| i * 2);
            assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i));
        }
    }
}
