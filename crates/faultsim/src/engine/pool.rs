//! A persistent worker pool for evaluation fan-out.
//!
//! Campaign trials and design-space sweeps are embarrassingly parallel
//! but were previously run on ad-hoc scoped threads spawned per call,
//! capped at eight. This pool spawns its workers once and serves every
//! evaluation in the process: jobs go into a shared queue that idle
//! workers steal from, which load-balances trials of very different
//! cost (a 105-scheme sweep mixes SLC layers that decode instantly with
//! ECC-protected MLC3 layers that dominate the wall-clock).
//!
//! The scheduling is cooperative: the thread that calls
//! [`WorkerPool::scope_map`] helps drain the queue while it waits, so a
//! pool works at any size (even zero workers degenerates to the caller
//! running everything serially) and nested scopes cannot deadlock — a
//! blocked scope always has at least its own caller making progress.
//! While waiting, a caller parks on the pool's `work_ready` condvar; it
//! is woken either by new work being queued (including nested work its
//! own jobs pushed) or by the completion of its scope's last job, so
//! there is no polling interval anywhere in the pool.
//!
//! Scopes can be made cancellable ([`WorkerPool::scope_map_cancellable`]):
//! each queued job checks a [`CancelToken`] just before running, so a
//! cancelled scope drains its queue near-instantly and reports which
//! indices actually ran.

use crate::cancel::CancelToken;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

// Under `--cfg loom` (cargo xtask loom) the pool's primitives swap to the
// vendored loom polyfill, which injects seeded schedule perturbations at
// every lock/wait/notify/atomic access so the model tests explore many
// interleavings of the enqueue/park/wake windows. Production builds use
// parking_lot and plain std atomics.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, Ordering};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Wakes every parked thread — workers looking for jobs and scope
    /// callers waiting on completion. Taking (and immediately releasing)
    /// the queue lock first closes the race against a thread that has
    /// checked its predicate but not yet parked: the notifier serializes
    /// behind that thread's critical section, so the notify cannot land
    /// in the gap.
    fn wake_all(&self) {
        drop(self.queue.lock());
        self.work_ready.notify_all();
    }
}

/// A fixed set of persistent worker threads draining a shared job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent threads.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // If the OS refuses a thread, run with the workers that did
        // spawn: `scope_map` has the caller help drain the queue, so the
        // pool stays correct (just slower) even with zero workers.
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("maxnvm-eval-{i}"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        Self {
            shared,
            workers,
            handles,
        }
    }

    /// Number of worker threads (the caller of [`Self::scope_map`] also
    /// contributes while it waits).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `f(0..n)` across the pool, returning results in index
    /// order. Blocks until every job has finished; if any job panicked,
    /// the first panic is re-raised on the calling thread.
    ///
    /// Results are independent of the worker count and of scheduling:
    /// each index is computed by exactly one pure call of `f`, and the
    /// output vector is assembled by index, so a 1-worker and a
    /// 64-worker pool return byte-identical vectors.
    pub fn scope_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let never = CancelToken::new();
        self.scope_map_cancellable(n, &never, f)
            .into_iter()
            // maxnvm-lint: allow(D2/expect): a never-fired CancelToken cannot skip jobs, and job panics re-raise in finish() before results are read, so every slot is Some.
            .map(|slot| slot.expect("uncancellable scope job left no result"))
            .collect()
    }

    /// [`Self::scope_map`] with cooperative cancellation: each job
    /// checks `cancel` immediately before running `f`, so once the
    /// token fires the remaining queue drains without doing work.
    /// Returns `Some(result)` for indices that ran, `None` for indices
    /// skipped after cancellation. Panics from `f` are still re-raised
    /// (first one wins) after all jobs have settled.
    pub fn scope_map_cancellable<T, F>(
        &self,
        n: usize,
        cancel: &CancelToken,
        f: F,
    ) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let state = ScopeState::new(n);
        {
            let mut queue = self.shared.queue.lock();
            for i in 0..n {
                let state_ref = &state;
                let f_ref = &f;
                let cancel_ref = cancel;
                let shared_ref: &Shared = &self.shared;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let last = if cancel_ref.is_cancelled() {
                        state_ref.skip_one()
                    } else {
                        state_ref.run_one(i, f_ref)
                    };
                    if last {
                        // Wake the scope's caller (and any nested scope
                        // callers) parked on `work_ready`.
                        shared_ref.wake_all();
                    }
                });
                // SAFETY: this call does not return until `state.remaining`
                // reaches zero, i.e. every queued job has run to completion
                // (panics are caught and still count), so the borrows of
                // `state`, `f`, `cancel`, and `self.shared` smuggled past
                // the 'static bound outlive every job that uses them.
                let job: Job = unsafe { std::mem::transmute(job) };
                queue.push_back(job);
            }
        }
        self.shared.work_ready.notify_all();
        loop {
            let mut queue = self.shared.queue.lock();
            if let Some(job) = queue.pop_front() {
                drop(queue);
                job();
                continue;
            }
            if *state.remaining.lock() == 0 {
                break;
            }
            // Parked until either new work arrives (a job of ours running
            // on a worker may push nested work this caller should help
            // with) or our scope's last job completes and wakes us.
            self.shared.work_ready.wait(&mut queue);
        }
        state.finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock();
    loop {
        if let Some(job) = queue.pop_front() {
            drop(queue);
            job();
            queue = shared.queue.lock();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Woken by new work or (spuriously) by a scope completing; both
        // re-check the queue.
        shared.work_ready.wait(&mut queue);
    }
}

/// Completion tracking for one `scope_map` call: per-index result slots,
/// a countdown latch, and the first panic payload (if any).
struct ScopeState<T> {
    results: Mutex<Vec<Option<T>>>,
    remaining: Mutex<usize>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Send> ScopeState<T> {
    fn new(n: usize) -> Self {
        Self {
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            panic: Mutex::new(None),
        }
    }

    /// Runs job `i`; returns whether it was the scope's last job.
    fn run_one<F: Fn(usize) -> T + Sync>(&self, i: usize, f: &F) -> bool {
        match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(value) => self.results.lock()[i] = Some(value),
            Err(payload) => {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.count_down()
    }

    /// Marks a cancelled job complete without running it; returns
    /// whether it was the scope's last job.
    fn skip_one(&self) -> bool {
        self.count_down()
    }

    fn count_down(&self) -> bool {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        *remaining == 0
    }

    fn finish(self) -> Vec<Option<T>> {
        if let Some(payload) = self.panic.into_inner() {
            panic::resume_unwind(payload);
        }
        self.results.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn maps_in_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.scope_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_still_completes_via_the_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.scope_map(10, |i| i + 1), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkerPool::new(2);
        assert!(pool.scope_map(0, |i| i).is_empty());
    }

    #[test]
    fn results_do_not_depend_on_worker_count() {
        let work = |i: usize| {
            // Uneven job costs exercise the dynamic scheduling.
            (0..(i % 7) * 1000).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        };
        let serial = WorkerPool::new(0).scope_map(64, work);
        for workers in [1, 2, 8] {
            assert_eq!(WorkerPool::new(workers).scope_map(64, work), serial);
        }
    }

    #[test]
    fn borrows_caller_state() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let out = pool.scope_map(data.len(), |i| data[i] + 1);
        assert_eq!(out[49], 49 * 3 + 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job 5 exploded");
        // The pool survives and keeps serving work.
        assert_eq!(pool.scope_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_scopes_make_progress() {
        let pool = WorkerPool::new(1);
        let out = pool.scope_map(4, |i| {
            pool.scope_map(4, |j| i * 4 + j).iter().sum::<usize>()
        });
        assert_eq!(out.iter().sum::<usize>(), (0..16).sum());
    }

    #[test]
    fn completion_wakes_the_caller_promptly() {
        // One slow job running on a worker while the caller has nothing
        // left to steal: the caller must park and be woken by the job's
        // completion, not by a polling interval. An end-to-end latency
        // far below the old 1 ms poll multiplied by the iteration count
        // would not prove much, so instead assert the scope returns
        // promptly after the job finishes.
        let pool = WorkerPool::new(2);
        let start = Instant::now();
        let out = pool.scope_map(1, |i| {
            std::thread::sleep(Duration::from_millis(30));
            i + 7
        });
        assert_eq!(out, vec![7]);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "scope took {elapsed:?} for a 30 ms job"
        );
    }

    #[test]
    fn cancelled_scope_skips_remaining_jobs() {
        let pool = WorkerPool::new(0); // caller-only: deterministic order
        let cancel = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = pool.scope_map_cancellable(10, &cancel, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                cancel.cancel();
            }
            i
        });
        // Jobs 0..=2 ran (in order, caller-only); the rest were skipped.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(
            out,
            vec![
                Some(0),
                Some(1),
                Some(2),
                None,
                None,
                None,
                None,
                None,
                None,
                None
            ]
        );
    }

    #[test]
    fn pre_cancelled_scope_runs_nothing() {
        let pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = pool.scope_map_cancellable(16, &cancel, |i| i);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn transmute_job_borrows_stay_contained_in_the_scope() {
        // The Miri target for `cargo xtask miri` (matched by the
        // `engine::pool::tests::transmute_` filter): exercises the
        // lifetime-erasing transmute in `scope_map_cancellable` under
        // the borrow tracker. The jobs borrow caller-owned state, run on
        // pool workers and the caller, and one scope nests inside
        // another — if the SAFETY argument (no job outlives the scope
        // call) were wrong, Miri reports use-after-free on `data`,
        // `sums`, or the scope's own state.
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..24).map(|i| i * 7 + 1).collect();
        let sums = Mutex::new(0u64);
        let out = pool.scope_map(data.len(), |i| {
            let nested = pool.scope_map(2, |j| data[i] + j as u64);
            *sums.lock() += 1;
            nested[0] + nested[1]
        });
        assert_eq!(*sums.lock(), data.len() as u64);
        assert_eq!(out[3], 2 * data[3] + 1);
        // A cancelled scope drains through the same transmuted jobs.
        let cancel = CancelToken::new();
        cancel.cancel();
        let skipped = pool.scope_map_cancellable(8, &cancel, |i| data[i]);
        assert!(skipped.iter().all(Option::is_none));
    }

    #[test]
    fn cancellable_scope_without_cancellation_matches_scope_map() {
        let pool = WorkerPool::new(3);
        let cancel = CancelToken::new();
        let out = pool.scope_map_cancellable(32, &cancel, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }
}
