//! The morsel driver: one parallel run of a plan.
//!
//! The planner's [`ParallelDecision`] splits the driver scan into key-range
//! morsels; this module fans them out with [`WorkerPool::claim_all`] and
//! merges what they collect.  Each morsel is an ordinary [`Exec`] walk with
//! the driver scan clipped to the morsel's range.

use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use kgqan_rdf::{PartitionRange, StoreSnapshot, TermId};

use super::{Collector, Exec, ParallelMetrics, Stop, PARALLEL_QUERIES};
use crate::plan::{ParallelDecision, PhysicalPlan, PlanBody};
use crate::pool::WorkerPool;

impl PhysicalPlan<'_> {
    /// The morsel-parallel run: fan the driver scan out as key-range
    /// morsels and merge their rows into `out`.
    ///
    /// The coordinating thread and up to `dop - 1` helpers from the shared
    /// pool claim morsels from one cursor — partition order — and each
    /// collects its morsel's projected rows; the run makes progress even
    /// when the pool has no free slot (saturation degrades parallelism,
    /// never correctness).  The first morsel to see the deadline pass closes
    /// the cursor.  The coordinator feeds the outputs *in partition order*
    /// through the final collector, which is what makes the result
    /// byte-identical to the sequential run regardless of interleaving.
    pub(super) fn run_morsels(
        &self,
        decision: ParallelDecision,
        snapshot: &Arc<StoreSnapshot>,
        deadline: Option<Instant>,
        out: &mut Collector<'_>,
    ) -> (Option<Stop>, ParallelMetrics) {
        let ParallelDecision { dop, ranges } = decision;
        let morsels = ranges.len();
        let run = MorselRun {
            snapshot: Arc::clone(snapshot),
            body: Arc::new(self.body.clone()),
            slots: self.projection.clone(),
            distinct: self.distinct,
            cap: self.limit.map(|limit| self.offset.saturating_add(limit)),
            ranges,
            deadline,
        };
        PARALLEL_QUERIES.fetch_add(1, Ordering::Relaxed);
        let outputs = WorkerPool::shared().claim_all(morsels, dop - 1, move |index| {
            let output = run.run_morsel(index);
            match output.cut {
                Some(Stop::Deadline) => ControlFlow::Break(output),
                _ => ControlFlow::Continue(output),
            }
        });

        // Worker ordinals are 0 (this thread) to `dop - 1`.
        let mut scanned_by = vec![None::<u64>; dop];
        for (worker, output) in outputs.iter().flatten() {
            *scanned_by[*worker].get_or_insert(0) += output.scanned;
        }
        // Merge in partition order.  The first morsel that is missing (never
        // claimed: the deadline closed the cursor) or was cut short ends the
        // prefix that gets returned; a cut-short morsel still contributes
        // the rows it produced, which are a prefix of its own output.
        let mut stop = None;
        let mut completed = 0usize;
        let width = self.projection.len();
        for output in outputs {
            let Some((_, morsel)) = output else {
                stop = Some(Stop::Deadline);
                break;
            };
            let MorselOutput {
                cells, rows, cut, ..
            } = morsel;
            // A morsel that ran to completion counts even when its rows
            // fill the page part-way through the merge.
            if cut.is_none() {
                completed += 1;
            }
            let mut morsel_rows = (0..rows).map(|row| &cells[row * width..][..width]);
            if let ControlFlow::Break(full) = morsel_rows.try_for_each(|row| out.push(row)) {
                stop = Some(full);
                break;
            }
            if cut.is_some() {
                stop = cut;
                break;
            }
        }
        let rows_scanned_per_worker: Vec<u64> = scanned_by.into_iter().flatten().collect();
        let metrics = ParallelMetrics {
            dop: rows_scanned_per_worker.len(),
            morsels: completed,
            rows_scanned_per_worker,
        };
        (stop, metrics)
    }
}

/// One morsel's output.
struct MorselOutput {
    /// The projected id-rows the morsel collected, row-major.
    cells: Vec<Option<TermId>>,
    /// How many rows `cells` holds.
    rows: usize,
    /// Why it was cut short (deadline or error), if it was.
    cut: Option<Stop>,
    /// Index entries its walk scanned.
    scanned: u64,
}

/// What every morsel of one parallel run reads.  Everything is owned
/// (`Arc`s into the pinned snapshot and the plan), so the same value serves
/// the coordinating thread and the `'static` helper jobs on the pool.
struct MorselRun {
    snapshot: Arc<StoreSnapshot>,
    body: Arc<PlanBody>,
    /// Projection: variable slot per output column.
    slots: Vec<usize>,
    distinct: bool,
    /// `offset + limit` when the query pages: no morsel can contribute more
    /// than the whole page, so each stops after this many (distinct,
    /// when applicable) projected rows.
    cap: Option<usize>,
    ranges: Vec<PartitionRange>,
    deadline: Option<Instant>,
}

impl MorselRun {
    /// Walk the whole operator tree with the driver scan clipped to one
    /// morsel's key range, collecting the morsel's projected rows.
    fn run_morsel(&self, index: usize) -> MorselOutput {
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
        MorselOutput {
            cells: out.cells,
            rows: out.rows,
            cut,
            scanned: exec.scanned.get(),
        }
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
    fn the_morsel_that_fills_the_page_is_counted() {
        // Each of the 200 bornIn driver rows joins the 50 people born in
        // the same city.  A 201-row page is above the driver estimate, so
        // the query fans out, and the first morsel alone fills the page.
        let snapshot = skewed_live();
        let query = parse_query(
            "SELECT ?p ?q WHERE { ?p <http://e/bornIn> ?c . \
             ?q <http://e/bornIn> ?c . } LIMIT 201",
        )
        .unwrap();
        let sequential = Planner::for_snapshot(&snapshot)
            .plan(&query)
            .execute()
            .unwrap();
        let parallel = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query)
            .execute()
            .unwrap();
        let info = parallel.metrics.parallel.as_ref().expect("ran parallel");
        assert!(info.morsels >= 1, "{info:?}");
        assert_eq!(parallel.results, sequential.results);
        assert_eq!(parallel.results.rows().len(), 201);
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
