//! The process-wide morsel executor: a shared [`WorkerPool`] that every
//! parallel query run draws helper workers from, plus the observability
//! counters the serving layer exports on `/metrics`.
//!
//! One pool serves the whole process — a query never spawns threads of its
//! own (thread-per-query would let N concurrent large queries oversubscribe
//! the machine N-fold).  Instead, each parallel run submits *morsel drain
//! jobs* to this pool with [`WorkerPool::try_submit`], which never blocks:
//! when the pool is saturated the run simply proceeds with fewer helpers
//! (in the limit, the coordinating thread drains every morsel itself), so
//! intra-query parallelism degrades gracefully under inter-query load
//! instead of deadlocking or queueing unboundedly.
//!
//! This pool and a `QaService`'s batch pool are deliberately two instances
//! of the one [`WorkerPool`] type, not one pool: a batch leg that
//! coordinates a parallel query blocks on its morsel helpers' tickets, so
//! with legs and helpers on one bounded pool every worker could end up
//! holding a leg that waits for a helper queued behind it.
//!
//! The counters here are process-global on purpose: the HTTP front-end
//! renders them as `executor_parallel_queries_total` and
//! `executor_active_workers` without having to thread a handle through
//! every endpoint layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::pool::{PoolConfig, SubmitError, Ticket, WorkerPool};

/// The shared pool parallel query runs execute their morsels on.
///
/// Obtain the process-wide instance with [`ExecutorPool::shared`]; it is
/// created lazily on the first parallel run and sized to the machine
/// ([`std::thread::available_parallelism`]).  Tests can build private pools
/// with [`ExecutorPool::new`].
pub struct ExecutorPool {
    pool: WorkerPool,
}

static SHARED: OnceLock<ExecutorPool> = OnceLock::new();

/// Total parallel query runs started in this process (monotonic).
static PARALLEL_QUERIES: AtomicU64 = AtomicU64::new(0);

impl ExecutorPool {
    /// Build a private pool with `workers` threads (at least one) — used by
    /// tests; production code shares one pool via [`ExecutorPool::shared`].
    pub fn new(workers: usize) -> ExecutorPool {
        ExecutorPool {
            pool: WorkerPool::new(PoolConfig {
                workers: workers.max(1),
                // Generous bound: morsel jobs are small and short-lived, and
                // rejected submissions only cost parallelism, not
                // correctness.
                queue_bound: 256,
            }),
        }
    }

    /// The process-wide executor pool, created on first use with one worker
    /// per available core.
    pub fn shared() -> &'static ExecutorPool {
        SHARED.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ExecutorPool::new(workers)
        })
    }

    /// Worker threads serving this pool.
    pub fn workers(&self) -> usize {
        self.pool.stats().workers
    }

    /// Morsel jobs currently executing (the `/metrics` active-worker
    /// gauge).
    pub fn active_workers(&self) -> usize {
        self.pool.stats().running
    }

    /// Submit one morsel drain job; never blocks.  Callers treat a rejected
    /// submission as "run with fewer helpers", not as an error.
    pub(crate) fn try_submit<T, F>(&self, job: F) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.pool.try_submit(job)
    }
}

/// How many parallel query runs this process has started (the `/metrics`
/// `executor_parallel_queries_total` counter).
pub fn parallel_queries_total() -> u64 {
    PARALLEL_QUERIES.load(Ordering::Relaxed)
}

/// Morsel jobs executing on the shared pool right now; `0` when no parallel
/// query has run yet (the pool is created lazily).
pub fn executor_active_workers() -> usize {
    SHARED.get().map_or(0, ExecutorPool::active_workers)
}

/// Count one parallel query run.
pub(crate) fn record_parallel_query() {
    PARALLEL_QUERIES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_pool_reports_workers_and_counts() {
        let pool = ExecutorPool::new(2);
        assert_eq!(pool.workers(), 2);
        let ticket = pool.try_submit(|| 41 + 1).unwrap();
        assert_eq!(ticket.wait(), Some(42));
        // The worker fulfils the ticket *before* it clears its running
        // flag, so the gauge may lag the wait by an instant.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.active_workers() != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.active_workers(), 0);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = ExecutorPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
