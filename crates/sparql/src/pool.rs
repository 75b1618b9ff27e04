//! The process's one helper pool, and the one loop that fans work out on it.
//!
//! **One instance.**  [`WorkerPool::shared`] is the only pool outside tests.
//! It has one thread per available core ([`available_cores`], read once per
//! process and shared with the planners' DOP cap), or as many as the largest
//! `QaServiceBuilder::workers(n)` any service in the process asked for
//! ([`WorkerPool::want_workers`]) if that is more, so legs that wait on an
//! endpoint still overlap on a one-core box.  Threads start with the first
//! job the pool accepts: a process that never fans out never spawns one.
//!
//! **Two kinds of job, one shape.**  The morsel executor ([`crate::exec`])
//! enlists helpers for a parallel query, and the `kgqan` core crate's
//! `QaService::answer_batch` enlists helpers for the legs of a batch (or of
//! a federated question).  Both go through [`WorkerPool::claim_all`]: the
//! items sit behind one cursor, the *calling thread claims and runs items
//! itself*, and a pool job is only ever a helper that claims from the same
//! cursor.  A single request never goes through the pool.
//!
//! **The waiting invariant.**  `claim_all` waits only for items a *running*
//! thread has claimed and not yet finished — never for a helper that has
//! not started.  A claimed item is on a thread that is executing it, so the
//! wait ends whatever the pool's queue holds; a helper that starts late
//! finds the cursor exhausted and returns.  That is what lets nested
//! fan-outs (a batch leg that coordinates a parallel query) share one
//! bounded pool: no thread ever blocks on work that is queued behind it.
//!
//! * **Bounded queue.**  At most 64 jobs wait;
//!   [`WorkerPool::try_submit`] *never blocks* — a refused job is a helper
//!   less and the caller runs the items itself.  So is a thread the OS
//!   refused to spawn.
//! * **Observable.**  [`WorkerPool::stats`] reads the real counters.
//! * **Clean shutdown** (private pools; the shared one lives as long as the
//!   process).  [`WorkerPool::shutdown`], or dropping the pool, stops
//!   accepting jobs, runs every job already accepted and joins the threads.
//! * **Panics.**  A panicking job never takes its worker thread down.
//!   Inside `claim_all` a panic in `run` — on whichever thread — is raised
//!   again on the caller, as a sequential `map` would.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Jobs that may wait in a pool's queue (jobs running on workers not
/// counted).  Helper jobs are short and a refused one only costs
/// parallelism, so one generous constant serves every caller.
const QUEUE_BOUND: usize = 64;

/// The cores this process may run on, read once per process.
///
/// `std::thread::available_parallelism` reads the cgroup quota files on
/// Linux at every call — tens of microseconds, more than planning a small
/// query costs — and the answer does not change while the process runs.
/// Both users read it here: the shared pool's size ([`WorkerPool::shared`])
/// and every planner's default DOP cap ([`crate::ParallelConfig::default`]).
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its bound; the caller goes on with a helper less.
    QueueFull {
        /// The bound that was hit.
        bound: usize,
    },
    /// The pool has no thread to run the job on: it was built with zero
    /// workers, or the OS refused every spawn.
    NoWorkers,
    /// The pool is shutting down (or already shut down) and accepts no new
    /// work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { bound } => {
                write!(f, "worker queue full (bound {bound})")
            }
            SubmitError::NoWorkers => write!(f, "worker pool has no threads"),
            SubmitError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A snapshot of a pool's (or an admission gate's) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs currently executing on workers.
    pub running: usize,
    /// Worker threads serving the pool (started so far).
    pub workers: usize,
    /// Jobs completed since the pool started (including panicked ones).
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    queued: AtomicUsize,
    running: AtomicUsize,
    completed: AtomicU64,
    rejected: AtomicU64,
    /// Threads the pool should have / has started.  `started` trails
    /// `wanted` until the first submission, and for good if the OS refuses
    /// a spawn.
    wanted: AtomicUsize,
    started: AtomicUsize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

impl PoolShared {
    /// No code that can panic runs under this lock (jobs run outside it),
    /// so a poisoned one is recovered.
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.lock_queue();
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutting_down {
                        return;
                    }
                    state = self
                        .job_ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            self.queued.fetch_sub(1, Ordering::Relaxed);
            self.running.fetch_add(1, Ordering::Relaxed);
            // A panicking job must not take the worker thread (and every
            // job queued behind it) down with it.
            let _ = catch_unwind(AssertUnwindSafe(job));
            self.running.fetch_sub(1, Ordering::Relaxed);
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A persistent, bounded pool of helper threads.  Production code shares
/// [`WorkerPool::shared`]; tests build private pools, which shut down —
/// draining accepted jobs — on [`WorkerPool::shutdown`] or drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool that will run jobs on `workers` threads, started by the first
    /// submission.  Zero workers is a pool that refuses every job — what a
    /// process at its thread limit degrades to.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutting_down: false,
                }),
                job_ready: Condvar::new(),
                queued: AtomicUsize::new(0),
                running: AtomicUsize::new(0),
                completed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                wanted: AtomicUsize::new(workers),
                started: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool: one worker per available core
    /// ([`available_cores`]), more if [`WorkerPool::want_workers`] asked
    /// for more.
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| WorkerPool::new(available_cores()))
    }

    /// Ask for at least `workers` threads (never fewer than the pool has).
    /// A service that expects `n` pipelines at once asks the shared pool
    /// for `n`, so its legs overlap that wide whatever the core count.
    pub fn want_workers(&self, workers: usize) {
        // Relaxed: `wanted` is a number to compare with, it publishes no data.
        self.shared.wanted.fetch_max(workers, Ordering::Relaxed);
    }

    /// Start the threads the pool wants and does not have.  A spawn the OS
    /// refuses (thread limit) costs helpers, not the request on whose
    /// thread this runs: the pool keeps the workers it got and the next
    /// submission tries again.
    fn start_wanted(&self) {
        let wanted = self.shared.wanted.load(Ordering::Relaxed);
        if self.shared.started.load(Ordering::Relaxed) >= wanted {
            return;
        }
        let mut handles = self
            .handles
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while handles.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("kgqan-worker-{}", handles.len()))
                .spawn(move || shared.worker_loop());
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(_) => break,
            }
        }
        self.shared.started.store(handles.len(), Ordering::Relaxed);
    }

    /// Enqueue a fire-and-forget job without blocking.  `Err` means the job
    /// was *not* accepted and will never run — the caller does the work
    /// itself.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.start_wanted();
        {
            let mut state = self.shared.lock_queue();
            if state.shutting_down {
                return Err(SubmitError::ShuttingDown);
            }
            if self.shared.started.load(Ordering::Relaxed) == 0 {
                return Err(SubmitError::NoWorkers);
            }
            if state.jobs.len() >= QUEUE_BOUND {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull { bound: QUEUE_BOUND });
            }
            state.jobs.push_back(Box::new(job));
            self.shared.queued.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Run `run(item)` for every item of `0..items`, like
    /// `(0..items).map(run)`, with up to `helpers` pool threads helping.
    ///
    /// The items sit behind one cursor.  The call submits at most
    /// `min(helpers, items − 1)` helper jobs ([`WorkerPool::try_submit`]
    /// refusing one is a helper less), then the **calling thread claims and
    /// runs items itself** until none is left, and finally waits only for
    /// items a helper has claimed and not finished — never for a helper
    /// that has not started (see the [module docs](self)).
    ///
    /// `run` returns `Continue(output)`, or `Break(output)` to also *close
    /// the cursor*: items nobody has claimed yet are never run and come
    /// back `None`; items already claimed finish and are present.
    ///
    /// Each output comes back at its item's index with the *ordinal* of the
    /// worker that ran it: `0` is the calling thread, `k` the `k`-th helper
    /// job.  A panic in `run`, on any thread, closes the cursor and is
    /// raised again here once the claimed items have settled.
    pub fn claim_all<T, F>(&self, items: usize, helpers: usize, run: F) -> Vec<Option<(usize, T)>>
    where
        T: Send + 'static,
        F: Fn(usize) -> ControlFlow<T, T> + Send + Sync + 'static,
    {
        let claims = Arc::new(Claims {
            run,
            items,
            state: Mutex::new(ClaimState {
                next: 0,
                running: 0,
                outputs: (0..items).map(|_| None).collect(),
                panic: None,
            }),
            settled: Condvar::new(),
        });
        for ordinal in 1..=helpers.min(items.saturating_sub(1)) {
            let claims = Arc::clone(&claims);
            if self.try_submit(move || claims.drain(ordinal)).is_err() {
                break;
            }
        }
        claims.drain(0);
        // The cursor is exhausted or closed, so `running` only falls now.
        let mut state = claims
            .settled
            .wait_while(claims.lock(), |state| state.running > 0)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
        std::mem::take(&mut state.outputs)
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            queued: self.shared.queued.load(Ordering::Relaxed),
            running: self.shared.running.load(Ordering::Relaxed),
            workers: self.shared.started.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting new jobs, run every job already accepted to
    /// completion, and join the worker threads.  Idempotent; concurrent
    /// calls all block until the pool is down.
    pub fn shutdown(&self) {
        self.shared.wanted.store(0, Ordering::Relaxed);
        self.shared.lock_queue().shutting_down = true;
        // Workers drain the remaining queue before observing the flag as a
        // reason to exit, so accepted jobs still run.
        self.shared.job_ready.notify_all();
        let handles = std::mem::take(
            &mut *self
                .handles
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for handle in handles {
            // A worker catches its jobs' panics, so it has no panic to report.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The shared state of one [`WorkerPool::claim_all`] call.  Everything is
/// owned, so the same value serves the calling thread and the `'static`
/// helper jobs.
struct Claims<T, F> {
    run: F,
    items: usize,
    state: Mutex<ClaimState<T>>,
    /// Signalled per finished item; only the caller ever waits.
    settled: Condvar,
}

struct ClaimState<T> {
    /// The cursor: the next unclaimed item; `items` once exhausted or closed.
    next: usize,
    /// Items claimed and not finished.
    running: usize,
    /// One slot per item, written by whichever thread ran it.
    outputs: Vec<Option<(usize, T)>>,
    /// The first panic `run` raised, for the caller to raise again.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, F: Fn(usize) -> ControlFlow<T, T>> Claims<T, F> {
    /// `run` executes outside this lock, so a poisoned one is recovered.
    fn lock(&self) -> MutexGuard<'_, ClaimState<T>> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Claim and run items as worker `ordinal` until none is left.
    fn drain(&self, ordinal: usize) {
        loop {
            let item = {
                let mut state = self.lock();
                if state.next >= self.items {
                    return;
                }
                let item = state.next;
                state.next += 1;
                state.running += 1;
                item
            };
            // Caught on the caller's thread too: helpers may still be inside
            // `run`, and the panic travels once they have settled.
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.run)(item)));
            let mut state = self.lock();
            state.running -= 1;
            let output = match outcome {
                Ok(ControlFlow::Continue(output)) => Some(output),
                Ok(ControlFlow::Break(output)) => {
                    state.next = self.items;
                    Some(output)
                }
                Err(payload) => {
                    state.next = self.items;
                    state.panic.get_or_insert(payload);
                    None
                }
            };
            state.outputs[item] = output.map(|output| (ordinal, output));
            drop(state);
            self.settled.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Occupy one worker of `pool` until the returned closure is called;
    /// returns once the worker is inside the job.
    fn block_one_worker(pool: &WorkerPool) -> impl FnOnce() {
        let (release, released) = channel::<()>();
        let (entered_tx, entered) = channel();
        pool.try_submit(move || {
            entered_tx.send(()).unwrap();
            let _ = released.recv();
        })
        .unwrap();
        entered.recv().unwrap();
        move || drop(release)
    }

    #[test]
    fn available_cores_is_the_one_core_count() {
        let cores = available_cores();
        assert_eq!(
            cores,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(crate::ParallelConfig::default().max_dop, cores);
        // Other tests may ask the shared pool for more, never for fewer.
        let wanted = WorkerPool::shared().shared.wanted.load(Ordering::Relaxed);
        assert!(
            wanted >= cores,
            "shared pool wants {wanted} < {cores} cores"
        );
    }

    #[test]
    fn threads_start_with_the_first_job_and_run_it() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        let (tx, rx) = channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.try_submit(move || tx.send(i * i).unwrap()).unwrap();
        }
        let mut results: Vec<usize> = (0..8).map(|_| rx.recv().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        pool.shutdown();
        let stats = pool.stats();
        assert_eq!((stats.workers, stats.completed, stats.queued), (2, 8, 0));
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1);
        let release = block_one_worker(&pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let count = |ran: &Arc<AtomicUsize>| {
            let ran = Arc::clone(ran);
            move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        // The bound fits in the queue, one more is rejected — immediately.
        for _ in 0..QUEUE_BOUND {
            pool.try_submit(count(&ran)).unwrap();
        }
        assert_eq!(
            pool.try_submit(count(&ran)).unwrap_err(),
            SubmitError::QueueFull { bound: QUEUE_BOUND }
        );
        assert_eq!(pool.stats().queued, QUEUE_BOUND);
        assert_eq!(pool.stats().rejected, 1);

        release();
        pool.shutdown();
        // Every accepted job ran, the rejected one never did.
        assert_eq!(ran.load(Ordering::SeqCst), QUEUE_BOUND);
    }

    #[test]
    fn shutdown_drains_accepted_jobs_then_rejects() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        // Every accepted job ran to completion before shutdown returned.
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(pool.stats().completed, 16);
        // New submissions are refused.
        assert_eq!(
            pool.try_submit(|| ()).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn dropping_the_pool_runs_what_it_accepted() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            let ran = Arc::clone(&ran);
            pool.try_submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_job_does_not_take_its_worker_down() {
        let pool = WorkerPool::new(1);
        pool.try_submit(|| panic!("job blew up")).unwrap();
        // The one worker survived and serves the next job.
        let (tx, rx) = channel();
        pool.try_submit(move || tx.send(7usize).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn claim_all_returns_outputs_in_item_order_whoever_ran_them() {
        let pool = WorkerPool::new(3);
        // Three threads must be inside `run` at once, so helpers did start.
        let together = Arc::new(Barrier::new(3));
        let outputs = pool.claim_all(3, 2, move |i| {
            together.wait();
            ControlFlow::Continue(i * 10)
        });
        let values: Vec<usize> = outputs.iter().map(|o| o.as_ref().unwrap().1).collect();
        assert_eq!(values, vec![0, 10, 20]);
        let mut ordinals: Vec<usize> = outputs.iter().map(|o| o.as_ref().unwrap().0).collect();
        ordinals.sort_unstable();
        assert_eq!(ordinals, vec![0, 1, 2]);
        assert!(pool.claim_all(0, 2, ControlFlow::Continue).is_empty());
    }

    #[test]
    fn claim_all_completes_on_the_caller_without_helpers() {
        let here = std::thread::current().id();
        let on_caller = move |pool: &WorkerPool, helpers: usize| {
            let outputs = pool.claim_all(5, helpers, move |i| {
                assert_eq!(std::thread::current().id(), here);
                ControlFlow::Continue(i)
            });
            for (i, output) in outputs.into_iter().enumerate() {
                assert_eq!(output, Some((0, i)));
            }
        };
        // No helper asked for: no thread is even started.
        let idle = WorkerPool::new(2);
        on_caller(&idle, 0);
        assert_eq!(idle.stats().workers, 0);
        // No thread to be had (what failed spawns leave behind).
        let empty = WorkerPool::new(0);
        assert_eq!(empty.try_submit(|| ()), Err(SubmitError::NoWorkers));
        on_caller(&empty, 4);
        // A pool that has shut down.
        let down = WorkerPool::new(2);
        down.shutdown();
        on_caller(&down, 4);
        // A full queue behind a busy worker.
        let full = WorkerPool::new(1);
        let release = block_one_worker(&full);
        for _ in 0..QUEUE_BOUND {
            full.try_submit(|| ()).unwrap();
        }
        on_caller(&full, 4);
        release();
    }

    #[test]
    fn claim_all_never_waits_for_a_helper_that_has_not_started() {
        let pool = WorkerPool::new(1);
        // The helper job queues behind the blocked worker; the call returns
        // while it is still there.
        let release = block_one_worker(&pool);
        let outputs = pool.claim_all(4, 1, |i| ControlFlow::Continue(i * i));
        // Every item ran on the caller (ordinal 0): a helper that claimed
        // nothing appears in no output, so it counts towards no `dop`.
        let expected = [0, 1, 4, 9].map(|square| Some((0, square)));
        assert_eq!(outputs, expected);
        assert_eq!(pool.stats().queued, 1);
        // When it does start it finds nothing to claim.
        release();
        pool.shutdown();
        assert_eq!(pool.stats().completed, 2);
    }

    #[test]
    fn closing_the_cursor_keeps_claimed_items_and_never_runs_the_rest() {
        let values = |outputs: Vec<Option<(usize, usize)>>| -> Vec<Option<usize>> {
            outputs.into_iter().map(|o| o.map(|o| o.1)).collect()
        };
        // On the caller alone the order is the item order: item 2 closes
        // the cursor, items 3.. are never run.
        let pool = WorkerPool::new(1);
        let outputs = pool.claim_all(6, 0, |i| {
            assert!(i <= 2, "item {i} was claimed after the cursor closed");
            match i {
                2 => ControlFlow::Break(i),
                _ => ControlFlow::Continue(i),
            }
        });
        let unclaimed = vec![Some(0), Some(1), Some(2), None, None, None];
        assert_eq!(values(outputs), unclaimed);
        // Two items both claimed before either finishes: the one that closes
        // the cursor does not cost the other its output.
        let both_claimed = Arc::new(Barrier::new(2));
        let outputs = pool.claim_all(2, 1, move |i| {
            both_claimed.wait();
            match i {
                0 => ControlFlow::Break(i),
                _ => ControlFlow::Continue(i),
            }
        });
        assert_eq!(values(outputs), vec![Some(0), Some(1)]);
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_spares_the_worker() {
        let pool = WorkerPool::new(1);
        let here = std::thread::current().id();
        let both_claimed = Arc::new(Barrier::new(2));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            pool.claim_all(2, 1, move |i| {
                both_claimed.wait();
                if std::thread::current().id() != here {
                    panic!("item {i} blew up");
                }
                ControlFlow::Continue(i)
            })
        }));
        let payload = unwound.expect_err("the helper's panic travels");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.ends_with("blew up"), "{message}");
        // The one worker survived and helps the next call.
        let together = Arc::new(Barrier::new(2));
        let outputs = pool.claim_all(2, 1, move |i| {
            together.wait();
            ControlFlow::Continue(i)
        });
        assert!(outputs.iter().all(Option::is_some));
    }
}
