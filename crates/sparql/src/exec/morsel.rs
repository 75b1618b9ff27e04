//! The morsel driver: one parallel run of a plan.
//!
//! The planner's [`ParallelDecision`] splits the driver scan into key-range
//! morsels; this module fans them out over the shared [`ExecutorPool`] and
//! merges what they collect.  Each morsel is an ordinary [`Exec`] walk with
//! the driver scan clipped to the morsel's range.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kgqan_rdf::{PartitionRange, StoreSnapshot};

use super::{Collector, Exec, ExecutorPool, ParallelMetrics, Stop, PARALLEL_QUERIES};
use crate::eval::IdRow;
use crate::plan::{ParallelDecision, PhysicalPlan, PlanBody};

impl PhysicalPlan<'_> {
    /// The morsel-parallel run: fan the driver scan out as key-range
    /// morsels and merge their rows into `out`.
    ///
    /// The coordinating thread submits up to `dop - 1` helper jobs to the
    /// shared pool and then drains morsels itself, so the run makes
    /// progress even when the pool has no free slot (saturation degrades
    /// parallelism, never correctness).  Each worker claims morsels from a
    /// shared counter — partition order — and collects its morsel's
    /// projected rows; the coordinator feeds the outputs *in partition
    /// order* through the final collector, which is what makes the result
    /// byte-identical to the sequential run regardless of interleaving.
    pub(super) fn run_morsels(
        &self,
        decision: ParallelDecision,
        slots: &[Option<usize>],
        deadline: Option<Instant>,
        out: &mut Collector<'_>,
    ) -> (Option<Stop>, ParallelMetrics) {
        let ParallelDecision { dop, ranges } = decision;
        let morsels = ranges.len();
        let state = Arc::new(MorselRun {
            snapshot: Arc::clone(self.shared.as_ref().expect("checked by parallel_decision")),
            body: Arc::clone(&self.body),
            slots: slots.to_vec(),
            distinct: self.distinct,
            cap: self.limit.map(|limit| self.offset.saturating_add(limit)),
            ranges,
            next: AtomicUsize::new(0),
            outputs: (0..morsels).map(|_| Mutex::new(None)).collect(),
            deadline,
            expired: AtomicBool::new(false),
        });
        PARALLEL_QUERIES.fetch_add(1, Ordering::Relaxed);

        let pool = ExecutorPool::shared();
        let mut tickets = Vec::with_capacity(dop - 1);
        for _ in 1..dop {
            let job = Arc::clone(&state);
            match pool.try_submit(move || job.drain()) {
                Ok(ticket) => tickets.push(ticket),
                // Pool saturated or shutting down: run with fewer helpers.
                Err(_) => break,
            }
        }
        let mut rows_scanned_per_worker = vec![state.drain()];
        for ticket in tickets {
            // `None` = the helper panicked; its claimed morsel is refilled
            // below, so the run still completes.
            if let Some(scanned) = ticket.wait() {
                rows_scanned_per_worker.push(scanned);
            }
        }
        // Refill any hole that is not a deadline hole (a panicked helper's
        // claimed-but-unfinished morsel) on the coordinating thread.
        if !state.expired.load(Ordering::Relaxed) {
            for index in 0..morsels {
                let missing = state.lock_output(index).is_none();
                if missing {
                    let (output, scanned) = state.run_morsel(index);
                    rows_scanned_per_worker[0] += scanned;
                    *state.lock_output(index) = Some(output);
                }
            }
        }

        // Merge in partition order.  The first morsel that is missing (never
        // claimed: the deadline latch was set) or was cut short ends the
        // prefix that gets returned; a cut-short morsel still contributes
        // the rows it produced, which are a prefix of its own output.
        let mut stop = None;
        let mut completed = 0usize;
        for index in 0..morsels {
            let Some((rows, cut)) = state.lock_output(index).take() else {
                stop = Some(Stop::Deadline);
                break;
            };
            if let ControlFlow::Break(full) = rows.into_iter().try_for_each(|row| out.push(row)) {
                stop = Some(full);
                break;
            }
            if cut.is_some() {
                stop = cut;
                break;
            }
            completed += 1;
        }
        let metrics = ParallelMetrics {
            dop: rows_scanned_per_worker.len(),
            morsels: completed,
            rows_scanned_per_worker,
        };
        (stop, metrics)
    }
}

/// One morsel's output: the projected id-rows it collected, and why it was
/// cut short (deadline or error), if it was.
type MorselOutput = (Vec<IdRow>, Option<Stop>);

/// The shared state of one morsel-parallel run.  Everything is owned
/// (`Arc`s into the pinned snapshot and the plan), so the same value serves
/// the coordinating thread and the `'static` helper jobs on the executor
/// pool.
struct MorselRun {
    snapshot: Arc<StoreSnapshot>,
    body: Arc<PlanBody>,
    /// Projection: variable slot per output column.
    slots: Vec<Option<usize>>,
    distinct: bool,
    /// `offset + limit` when the query pages: no morsel can contribute more
    /// than the whole page, so each stops after this many (distinct,
    /// when applicable) projected rows.
    cap: Option<usize>,
    ranges: Vec<PartitionRange>,
    /// Next unclaimed morsel index — the work-stealing cursor.
    next: AtomicUsize,
    /// One slot per morsel, written by whichever worker ran it.
    outputs: Vec<Mutex<Option<MorselOutput>>>,
    deadline: Option<Instant>,
    /// Latched once any morsel observes the deadline passed; stops all
    /// further morsel claims.
    expired: AtomicBool,
}

impl MorselRun {
    fn lock_output(&self, index: usize) -> std::sync::MutexGuard<'_, Option<MorselOutput>> {
        self.outputs[index]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Claim and run morsels until none are left (or the deadline passes).
    /// Returns the rows this worker scanned, for per-worker metrics.
    fn drain(&self) -> u64 {
        let mut scanned = 0u64;
        while !self.expired.load(Ordering::Relaxed) {
            let index = self.next.fetch_add(1, Ordering::SeqCst);
            if index >= self.ranges.len() {
                break;
            }
            let (output, morsel_scanned) = self.run_morsel(index);
            scanned += morsel_scanned;
            if matches!(output.1, Some(Stop::Deadline)) {
                self.expired.store(true, Ordering::Relaxed);
            }
            *self.lock_output(index) = Some(output);
        }
        scanned
    }

    /// Walk the whole operator tree with the driver scan clipped to one
    /// morsel's key range, collecting the morsel's projected rows.
    fn run_morsel(&self, index: usize) -> (MorselOutput, u64) {
        // Parallel-eligible plans never contain SERVICE groups.
        let exec = Exec::new(
            &self.body,
            &self.snapshot,
            None,
            Some(self.ranges[index]),
            self.deadline,
        );
        // Morsel-local dedup is sound under a global cap: a row past a
        // morsel's first `cap` distinct values has at least `cap` distinct
        // predecessors in the concatenated stream, so it cannot be in the
        // global first `cap` either.  (The coordinator dedups across
        // morsels again.)
        let mut out = Collector::new(&self.slots, self.distinct, 0, self.cap);
        // Reaching the cap completes the morsel: nothing past it can matter.
        let cut = match exec.run_root(&mut out) {
            Some(Stop::Full) | None => None,
            cut => cut,
        };
        ((out.rows, cut), exec.scanned.get())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use crate::parser::parse_query;
    use crate::plan::tests::{eager_parallel, skewed_live};
    use crate::plan::Planner;
    use crate::ExecOptions;

    #[test]
    fn parallel_run_matches_sequential_and_reports_per_worker_metrics() {
        let snapshot = skewed_live();
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
             ?p <http://www.w3.org/2000/01/rdf-schema#label> ?n . }",
        )
        .unwrap();
        let sequential = Planner::for_snapshot(&snapshot)
            .plan(&query)
            .execute()
            .unwrap();
        assert!(sequential.metrics.parallel.is_none());

        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        let parallel = plan.execute().unwrap();
        assert_eq!(parallel.results, sequential.results);
        let info = parallel.metrics.parallel.as_ref().expect("ran parallel");
        assert!(info.dop >= 1 && info.morsels >= 2, "{info:?}");
        assert_eq!(
            info.rows_scanned_per_worker.iter().sum::<u64>(),
            parallel.metrics.rows_scanned
        );
        assert!(!parallel.metrics.deadline_exceeded);
    }

    #[test]
    fn expired_deadline_stops_parallel_run_at_morsel_boundaries() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        // The decision *is* parallel (deadline does not affect eligibility)…
        let rendered = plan.summary().to_string();
        assert!(rendered.contains("parallel("), "{rendered}");
        // …but an already-expired deadline means no morsel is ever claimed.
        let run = plan
            .execute_with(ExecOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            })
            .unwrap();
        assert!(run.metrics.deadline_exceeded);
        assert!(run.results.rows().is_empty());
    }
}
