//! The executor: one depth-first walk of the planned operator tree.
//!
//! [`PhysicalPlan::execute_with`] evaluates a plan with a single recursive,
//! push-based function — `Exec::run(node, row, emit)`.  It carries *one*
//! mutable id row down the tree: a scan step binds the (at most three)
//! variables of its pattern in place, calls the continuation for the
//! extended row, and unbinds them before trying the next index entry.
//! Depth-first order is the nested-loop join order, so rows come out in the
//! order the plan implies and nothing is materialised between operators.
//!
//! Every reason to stop early travels the same way: the continuation
//! returns `ControlFlow::Break`, which unwinds through every enclosing scan
//! loop at once.  A full `LIMIT` page, an `ASK` that found its first row,
//! an expired [`ExecOptions::deadline`] and an evaluation error are the
//! four `Stop` reasons.  The deadline is tested on scan *work* — every
//! 256 index entries touched — so a join whose filter rejects every
//! row still honours it; the rows collected so far are then a correct
//! prefix of the answer and [`ExecMetrics::deadline_exceeded`] is set.
//!
//! The rows that reach the root go through one `Collector` (projection →
//! `DISTINCT` → `OFFSET` → `LIMIT`) and are flattened into the result
//! table last, still as ids.  A
//! sequential run is one walk with no clip feeding that collector.  When
//! the plan says every index entry of its root BGP's last step is one
//! output row (`PlanBody::offset_at_last_step`), the walk borrows the
//! collector's `OFFSET` counter and that step counts it off by range
//! length: a range no longer than what is left to skip is skipped whole,
//! and the range the offset ends in starts at the first kept entry
//! (`nth`).  Those entries are never touched, so
//! [`ExecMetrics::rows_scanned`] does not count them.  A
//! morsel-parallel run (see [`crate::plan::ParallelConfig`]) does the same
//! walk once per *morsel* — a key range of the plan's driver scan — each
//! into a collector of its own, and the coordinator feeds the morsels'
//! rows, in partition order, through the final collector (the `morsel`
//! submodule); that order is what makes the result byte-identical to the
//! sequential run whatever the thread interleaving.
//!
//! # The shared pool
//!
//! A query never spawns threads of its own (thread-per-query would let N
//! concurrent large queries oversubscribe the machine N-fold).  A parallel
//! run hands its morsels to [`WorkerPool::claim_all`] on the process-wide
//! [`WorkerPool::shared`]: the coordinating thread claims and runs morsels
//! itself and up to `dop - 1` pool threads help.  Enlisting a helper never
//! blocks and the run never waits for one that has not started, so when the
//! pool is saturated the run simply proceeds with fewer helpers (in the
//! limit, the coordinating thread runs every morsel), and intra-query
//! parallelism degrades gracefully under inter-query load instead of
//! deadlocking or queueing unboundedly.  See [`crate::pool`] for why the
//! same pool can also serve the batch legs that coordinate such runs.
//!
//! The run counter here is process-global on purpose: the HTTP front-end
//! renders it as `executor_parallel_queries_total` (beside the pool's
//! `executor_active_workers`) without having to thread a handle through
//! every endpoint layer.
//!
//! [`WorkerPool::claim_all`]: crate::pool::WorkerPool::claim_all
//! [`WorkerPool::shared`]: crate::pool::WorkerPool::shared

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kgqan_rdf::hash::FxHashSet;
use kgqan_rdf::{EncodedTriple, PartitionRange, ScanCursor, Store, Term, TermId, TextMatch};

use crate::ast::{Expression, Query, VarOrTerm};
use crate::error::SparqlError;
use crate::eval::{
    eval_expression, flatten_rows, term_truthiness, text_query_words, CompiledTriplePattern, IdRow,
    Slot,
};
use crate::plan::{PhysicalPlan, PlanBody, PlanNode, PlanStep, ServiceResolver, StepKind};
use crate::results::{side_code, QueryResults};

mod morsel;

/// Execution counters of one planned query run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Index entries and text-index matches the joins touched.  This is the
    /// engine's unit of work: a `LIMIT k` query over a large store should
    /// keep it near `k / selectivity`, not near the store size.  Entries an
    /// `OFFSET` skipped by count at the last join step (see the module
    /// docs) were not touched and are not counted; an offset walked through
    /// the collector is.
    pub rows_scanned: u64,
    /// Rows in the final result (1/0 for ASK).
    pub rows_emitted: u64,
    /// `true` when an [`ExecOptions::deadline`] cut the run short: the
    /// results are a correct *prefix* of the full answer, not the full
    /// answer.
    pub deadline_exceeded: bool,
    /// Set when the run used morsel-driven parallel execution; `None` for
    /// the sequential fast path.
    pub parallel: Option<ParallelMetrics>,
}

/// Work distribution of one morsel-parallel run, surfaced through
/// [`ExecMetrics`] all the way up to the answer response's trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelMetrics {
    /// Threads that ran at least one morsel (the coordinating thread and
    /// every helper that claimed any) — may be lower than the planned
    /// degree of parallelism under inter-query load, or when a helper
    /// started after the last morsel was claimed.
    pub dop: usize,
    /// Morsels that ran to completion and were merged into the result.
    pub morsels: usize,
    /// Index entries each of those threads scanned, the coordinating
    /// thread's first.
    pub rows_scanned_per_worker: Vec<u64>,
}

/// Per-run execution knobs, passed to [`PhysicalPlan::execute_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Stop producing rows at this instant and return what has been
    /// computed so far with [`ExecMetrics::deadline_exceeded`] set.  The
    /// clock is read when a run (or a morsel) starts and then once per 256
    /// index entries scanned, on the sequential and the parallel path
    /// alike.
    pub deadline: Option<Instant>,
}

/// The output of one planned run: the results plus the work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedExecution {
    /// The query results.
    pub results: QueryResults,
    /// How much work the executor did.
    pub metrics: ExecMetrics,
}

/// Index entries scanned between two reads of the clock, which amortises
/// the read; a run without a deadline pays one branch per entry.
const DEADLINE_CHECK_INTERVAL: u64 = 256;

/// Why a walk ended before its scans were exhausted.
#[derive(Debug)]
enum Stop {
    /// The collector has every row it needs (`LIMIT` page full, `ASK`
    /// satisfied).
    Full,
    /// The deadline passed; what was collected is a prefix of the answer.
    Deadline,
    /// An evaluation error, propagated to the caller.
    Error(SparqlError),
}

/// `Break` stops every enclosing scan loop at once.
type Flow<T = ()> = ControlFlow<Stop, T>;

/// The continuation an operator calls once per row it produces.  The row
/// is lent mutably so the callee can extend it in place; it must hand it
/// back unchanged when it returns `Continue`.
type Emit<'e> = dyn FnMut(&mut IdRow) -> Flow + 'e;

fn lift<T>(result: Result<T, SparqlError>) -> Flow<T> {
    match result {
        Ok(value) => ControlFlow::Continue(value),
        Err(e) => ControlFlow::Break(Stop::Error(e)),
    }
}

/// Run-scoped side dictionary for remote terms: terms returned by a remote
/// SERVICE endpoint that the local dictionary has never seen are interned
/// here under result side-table codes ([`side_code`]), so they can flow
/// through the id-level joins.  Those codes start at 2³¹; local stores would
/// need two billion terms to collide, far beyond this engine's scale.  The
/// run's result table takes the terms over as the start of its side table,
/// so a foreign id is already the code of its cell.
///
/// Interning is consistent within one run — the same remote term always maps
/// to the same synthetic id, so rows from two SERVICE groups still join on
/// equality.  A synthetic id can never equal a local id, which gives the
/// correct join semantics for free: a remote term absent from the local
/// store cannot match a locally-bound variable.  Local scans and FILTERs
/// over foreign-bound variables degrade safely (match nothing / see
/// unbound) because foreign ids resolve to no local term.
#[derive(Default)]
struct ForeignTerms {
    ids: RefCell<HashMap<Term, TermId>>,
    terms: RefCell<Vec<Term>>,
}

impl ForeignTerms {
    /// Map a remote term to an id: the local dictionary id when the store
    /// knows the term, a stable synthetic id otherwise.
    fn intern(&self, store: &Store, term: &Term) -> TermId {
        if let Some(id) = store.id_of(term) {
            return id;
        }
        if let Some(id) = self.ids.borrow().get(term) {
            return *id;
        }
        let mut terms = self.terms.borrow_mut();
        let id = TermId(side_code(terms.len()));
        terms.push(term.clone());
        self.ids.borrow_mut().insert(term.clone(), id);
        id
    }
}

/// One remote solution, projected onto local variable slots and id-interned
/// (see [`ForeignTerms`]).
type ServiceRow = Vec<(usize, TermId)>;

/// The match set of one text-search step: the ranked matches (for
/// generatively binding an unbound subject) plus a membership set (for
/// subjects already bound by an earlier step), built by the first
/// membership test: a generative probe never needs it.
struct TextMatches {
    matches: Vec<TextMatch>,
    literals: OnceCell<FxHashSet<TermId>>,
}

impl TextMatches {
    fn contains(&self, literal: TermId) -> bool {
        self.literals
            .get_or_init(|| self.matches.iter().map(|m| m.literal).collect())
            .contains(&literal)
    }
}

/// The output operators of a run, applied to rows while they are still
/// ids: projection, `DISTINCT`, `OFFSET`, `LIMIT`.  The sequential run, each
/// morsel and the coordinator's merge all collect through this one type.
///
/// `to_skip` is the run's one `OFFSET` counter.  A walk whose plan counts
/// the offset at its last step takes it for the walk and hands back what
/// is left ([`Exec::run_root`]); the rows it skipped never arrive here.
///
/// Kept rows are projected straight into one flat cell array; only a row
/// new to a `DISTINCT` set is copied again, into the set.
struct Collector<'a> {
    /// Projection: variable slot per output column.
    slots: &'a [usize],
    /// The distinct projected rows seen so far, kept or skipped.  Term ids
    /// of local data, so the fast non-keyed hash is safe.
    seen: Option<FxHashSet<Box<[Option<TermId>]>>>,
    to_skip: usize,
    limit: Option<usize>,
    /// The kept rows, row-major, `slots.len()` cells a row.
    cells: Vec<Option<TermId>>,
    /// How many rows `cells` holds (it holds no cells at width 0).
    rows: usize,
}

impl<'a> Collector<'a> {
    fn new(slots: &'a [usize], distinct: bool, offset: usize, limit: Option<usize>) -> Self {
        Collector {
            slots,
            seen: distinct.then(FxHashSet::default),
            to_skip: offset,
            limit,
            cells: Vec::new(),
            rows: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.limit.is_some_and(|limit| self.rows >= limit)
    }

    /// Project one row of the walk and collect it.
    fn push_row(&mut self, row: &IdRow) -> Flow {
        self.cells.extend(self.slots.iter().map(|&slot| row[slot]));
        self.keep_last()
    }

    /// Collect one already-projected row; `Break` once the page is full.
    fn push(&mut self, projected: &[Option<TermId>]) -> Flow {
        self.cells.extend_from_slice(projected);
        self.keep_last()
    }

    /// Apply `DISTINCT`, `OFFSET` and `LIMIT` to the row just appended to
    /// `cells`: keep it, or take it back off.
    fn keep_last(&mut self) -> Flow {
        let start = self.rows * self.slots.len();
        if let Some(seen) = &mut self.seen {
            let row = &self.cells[start..];
            if seen.contains(row) {
                self.cells.truncate(start);
                return ControlFlow::Continue(());
            }
            seen.insert(row.into());
        }
        if self.to_skip > 0 {
            self.to_skip -= 1;
            self.cells.truncate(start);
            return ControlFlow::Continue(());
        }
        self.rows += 1;
        if self.is_full() {
            ControlFlow::Break(Stop::Full)
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// One walk of a plan: the sequential run, or one morsel of a parallel one.
/// Holds what the walk reads (store, plan, limits) and the run-scoped state
/// it fills in (work counter, caches).
struct Exec<'a> {
    store: &'a Store,
    body: &'a PlanBody,
    /// Resolver for SERVICE groups; `None` outside federated plans.
    services: Option<&'a dyn ServiceResolver>,
    /// When set, this walk is one morsel: the driver scan is clipped to
    /// this key range, every other operator runs unchanged.
    clip: Option<PartitionRange>,
    deadline: Option<Instant>,
    scanned: Cell<u64>,
    /// One lazily-filled match-set slot per constant-string text step: the
    /// search runs once per walk however many rows reach the step.  (The
    /// planner costs a bound-subject text step at ~1 row on this
    /// assumption.)
    text_cache: Vec<OnceCell<TextMatches>>,
    /// One lazily-filled remote-result slot per SERVICE group: the remote
    /// query runs once per walk, however many rows reach the join.
    service_cache: Vec<OnceCell<Result<Vec<ServiceRow>, SparqlError>>>,
    /// One cursor per scan step: where the step's last seek landed in this
    /// walk, so its next seek gallops on from there.
    cursors: Vec<Cell<ScanCursor>>,
    /// The `OFFSET` rows still to skip, lent by the collector for the walk
    /// when the plan counts them off its last step
    /// ([`PlanBody::offset_at_last_step`]); 0 otherwise.
    to_skip: Cell<usize>,
    foreign: ForeignTerms,
}

impl<'a> Exec<'a> {
    fn new(
        body: &'a PlanBody,
        store: &'a Store,
        services: Option<&'a dyn ServiceResolver>,
        clip: Option<PartitionRange>,
        deadline: Option<Instant>,
    ) -> Self {
        Exec {
            store,
            body,
            services,
            clip,
            deadline,
            scanned: Cell::new(0),
            text_cache: (0..body.text_slots).map(|_| OnceCell::new()).collect(),
            service_cache: (0..body.service_slots).map(|_| OnceCell::new()).collect(),
            cursors: vec![Cell::default(); body.scan_slots],
            to_skip: Cell::new(0),
            foreign: ForeignTerms::default(),
        }
    }

    /// Walk the whole tree from the all-unbound seed row into `out`.
    /// Returns why the walk ended early, or `None` when it ran dry.
    fn run_root(&self, out: &mut Collector<'_>) -> Option<Stop> {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Some(Stop::Deadline);
        }
        let mut row: IdRow = vec![None; self.body.vars.len()];
        // Rows the last step counts off never reach the collector, so its
        // skip counter moves to the walk and back: one counter either way.
        if self.body.offset_at_last_step {
            self.to_skip.set(std::mem::take(&mut out.to_skip));
        }
        let stop = self
            .run(&self.body.root, &mut row, &mut |row| out.push_row(row))
            .break_value();
        out.to_skip += self.to_skip.take();
        stop
    }

    /// Evaluate `node` for one input row, calling `emit` once per solution
    /// — the only function that walks the operator tree at run time.
    fn run(&self, node: &PlanNode, row: &mut IdRow, emit: &mut Emit<'_>) -> Flow {
        match node {
            PlanNode::Bgp { pre_filters, steps } => {
                if !self.keep(pre_filters, row)? {
                    return ControlFlow::Continue(());
                }
                self.run_steps(steps, row, emit)
            }
            PlanNode::Join(a, b) => self.run(a, row, &mut |row| self.run(b, row, emit)),
            PlanNode::LeftJoin(a, b) => self.run(a, row, &mut |row| {
                let mut matched = false;
                self.run(b, row, &mut |row| {
                    matched = true;
                    emit(row)
                })?;
                if matched {
                    ControlFlow::Continue(())
                } else {
                    emit(row)
                }
            }),
            PlanNode::Union(a, b) => {
                self.run(a, row, emit)?;
                self.run(b, row, emit)
            }
            PlanNode::Filter(inner, expr) => self.run(inner, row, &mut |row| {
                if self.keep(std::slice::from_ref(expr), row)? {
                    emit(row)
                } else {
                    ControlFlow::Continue(())
                }
            }),
            PlanNode::Service {
                kg,
                query,
                binds,
                cache_slot,
                ..
            } => {
                let remote = self.service_cache[*cache_slot]
                    .get_or_init(|| self.fetch_service(kg, query, binds));
                for ext in lift(remote.as_ref().map_err(Clone::clone))? {
                    // A shared variable bound to a different term on the
                    // two sides means the rows do not join.
                    bind(row, ext, emit)?;
                }
                ControlFlow::Continue(())
            }
        }
    }

    /// The join steps of one BGP, first to last: each extension of the row
    /// by the first step that passes the step's filters continues into the
    /// remaining steps.
    fn run_steps(&self, steps: &[PlanStep], row: &mut IdRow, emit: &mut Emit<'_>) -> Flow {
        let Some((step, rest)) = steps.split_first() else {
            return emit(row);
        };
        let next: &mut Emit<'_> = &mut |row| {
            if self.keep(&step.filters, row)? {
                self.run_steps(rest, row, emit)
            } else {
                ControlFlow::Continue(())
            }
        };
        match &step.kind {
            // A constant absent from the dictionary matches nothing,
            // whatever the input.
            StepKind::NeverMatches(_) => ControlFlow::Continue(()),
            StepKind::Scan {
                pattern: tp,
                cursor_slot,
            } => {
                let pattern = tp.encoded(|v| row[v]);
                match self.clip.filter(|_| step.driver) {
                    // The driver scan of one morsel: same pattern, same
                    // ordering, restricted to the morsel's key range.
                    Some(range) => {
                        self.scan(self.store.scan_within(pattern, range), *tp, row, next)
                    }
                    None => {
                        let cursor = &self.cursors[*cursor_slot];
                        let mut at = cursor.get();
                        let mut entries = self.store.scan_from(pattern, &mut at);
                        cursor.set(at);
                        // A count is lent only when the root is one BGP,
                        // so the step with no `rest` is its last step.
                        let to_skip = self.to_skip.get();
                        if to_skip > 0 && rest.is_empty() {
                            // Each entry is one output row: skip the whole
                            // range by its length, or up to where the
                            // `OFFSET` runs out inside it.
                            let len = entries.len();
                            self.to_skip.set(to_skip.saturating_sub(len));
                            if len <= to_skip {
                                return ControlFlow::Continue(());
                            }
                            entries.nth(to_skip - 1);
                        }
                        self.scan(entries, *tp, row, next)
                    }
                }
            }
            StepKind::TextSearch {
                pattern,
                cache_slot,
                constant_words,
            } => {
                let searched;
                let matches = match constant_words {
                    Some(words) => {
                        self.text_cache[*cache_slot].get_or_init(|| self.search_text(words))
                    }
                    None => {
                        let words = text_query_words(self.store, &self.body.vars, pattern, row);
                        searched = self.search_text(&lift(words)?);
                        &searched
                    }
                };
                // An already-bound subject is a set membership test, not a
                // walk of the match list.
                let bound_subject = match &pattern.subject {
                    VarOrTerm::Var(var) => {
                        // Cannot fail: `body.vars` is built from the whole
                        // graph pattern (`VarRegistry::from_pattern`) and
                        // `pattern` is one of that pattern's triples.
                        let slot = self
                            .body
                            .vars
                            .id_of(var)
                            .expect("pattern variables are all registered");
                        if row[slot].is_none() {
                            for m in &matches.matches {
                                bind(row, &[(slot, m.literal)], next)?;
                            }
                            return ControlFlow::Continue(());
                        }
                        row[slot]
                    }
                    VarOrTerm::Term(term) => self.store.id_of(term),
                };
                if bound_subject.is_some_and(|id| matches.contains(id)) {
                    next(row)
                } else {
                    ControlFlow::Continue(())
                }
            }
        }
    }

    /// The innermost join loop: extend the row by each index entry of one
    /// scan.  Generic over the scan so the clipped and the full scan share
    /// it without boxing.
    fn scan(
        &self,
        entries: impl Iterator<Item = EncodedTriple>,
        tp: CompiledTriplePattern,
        row: &mut IdRow,
        next: &mut Emit<'_>,
    ) -> Flow {
        for triple in entries {
            let scanned = self.scanned.get();
            if let Some(deadline) = self.deadline {
                if scanned.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= deadline {
                    return ControlFlow::Break(Stop::Deadline);
                }
            }
            self.scanned.set(scanned + 1);
            let mut pairs = [(0, triple.subject); 3];
            let mut count = 0;
            for (slot, id) in [
                (tp.subject, triple.subject),
                (tp.predicate, triple.predicate),
                (tp.object, triple.object),
            ] {
                if let Slot::Var(v) = slot {
                    pairs[count] = (v, id);
                    count += 1;
                }
            }
            // An incompatible pair here is a variable repeated within the
            // pattern that matched two different ids.
            bind(row, &pairs[..count], next)?;
        }
        ControlFlow::Continue(())
    }

    /// `true` when every expression holds for the row (an expression that
    /// is an error for the row, e.g. an unbound variable, counts as false).
    fn keep(&self, exprs: &[Expression], row: &IdRow) -> Flow<bool> {
        for expr in exprs {
            let value = lift(eval_expression(self.store, &self.body.vars, expr, row))?;
            if !value.map(term_truthiness).unwrap_or(false) {
                return ControlFlow::Continue(false);
            }
        }
        ControlFlow::Continue(true)
    }

    /// Run one text search, reporting the matches it inspected to the scan
    /// counter and building the membership set used for bound subjects.
    fn search_text(&self, words: &[String]) -> TextMatches {
        let word_refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let matches = self
            .store
            .text_index()
            .search_any(&word_refs, self.body.text_cap);
        self.scanned.set(self.scanned.get() + matches.len() as u64);
        TextMatches {
            matches,
            literals: OnceCell::new(),
        }
    }

    /// Run one SERVICE group's query against the remote KG and project each
    /// remote solution onto local variable slots, id-interned through the
    /// run's [`ForeignTerms`] table.  Remote rows count as scanned work.
    fn fetch_service(
        &self,
        kg: &str,
        query: &Query,
        binds: &[(String, usize)],
    ) -> Result<Vec<ServiceRow>, SparqlError> {
        let Some(services) = self.services else {
            return Err(SparqlError::Service {
                kg: kg.to_string(),
                message: "no service resolver installed (plan with Planner::with_services)"
                    .to_string(),
            });
        };
        let results = services.execute_service(kg, query)?;
        let Some(remote) = results.as_solutions() else {
            return Ok(Vec::new());
        };
        self.scanned.set(self.scanned.get() + remote.len() as u64);
        // Each shared variable's remote column is resolved once, not per row.
        let columns: Vec<(usize, usize)> = binds
            .iter()
            .filter_map(|(var, slot)| Some((remote.column_index(var)?, *slot)))
            .collect();
        Ok(remote
            .rows()
            .map(|row| {
                columns
                    .iter()
                    .filter_map(|&(column, slot)| {
                        let term = row.cell(column)?;
                        Some((slot, self.foreign.intern(self.store, term)))
                    })
                    .collect()
            })
            .collect())
    }
}

/// Bind `(slot, id)` pairs in the row one after another, call `next` for
/// the fully extended row, and unbind on the way back whatever was newly
/// bound.  A pair whose slot already holds a different id makes the
/// extension incompatible: `next` is not called.
fn bind(row: &mut IdRow, pairs: &[(usize, TermId)], next: &mut Emit<'_>) -> Flow {
    let Some((&(slot, id), rest)) = pairs.split_first() else {
        return next(row);
    };
    match row[slot] {
        Some(existing) if existing != id => ControlFlow::Continue(()),
        Some(_) => bind(row, rest, next),
        None => {
            row[slot] = Some(id);
            let flow = bind(row, rest, next);
            row[slot] = None;
            flow
        }
    }
}

impl PhysicalPlan<'_> {
    /// Run the plan to completion.  `LIMIT`/`OFFSET`/`DISTINCT` (and ASK's
    /// one-row need) stop the scans as soon as the output is decided.
    pub fn execute(&self) -> Result<PlannedExecution, SparqlError> {
        self.execute_with(ExecOptions::default())
    }

    /// [`PhysicalPlan::execute`] with per-run knobs (currently: a
    /// deadline).  When the plan is parallel-eligible (see
    /// [`crate::plan::ParallelConfig`]) the driving scan runs as morsels on
    /// the shared [`WorkerPool`](crate::pool::WorkerPool); results are
    /// byte-identical to the sequential path whatever the worker
    /// interleaving, because morsel outputs are merged in partition order
    /// before `DISTINCT`/`OFFSET`/`LIMIT` are applied.
    pub fn execute_with(&self, opts: ExecOptions) -> Result<PlannedExecution, SparqlError> {
        // ASK is a one-row page over the empty projection.
        let (offset, limit) = match self.is_ask {
            true => (0, Some(1)),
            false => (self.offset, self.limit),
        };
        let mut out = Collector::new(&self.projection, self.distinct, offset, limit);

        // Only a sequential run can meet a SERVICE group, so only it can
        // intern foreign terms.
        let mut foreign = Vec::new();
        let mut parallel = None;
        let (stop, rows_scanned) = if out.is_full() {
            // `LIMIT 0`: the page is decided before anything runs.
            (None, 0)
        } else if let (Some(decision), Some(snapshot)) = (self.parallel_decision(), self.shared) {
            let (stop, metrics) = self.run_morsels(decision, snapshot, opts.deadline, &mut out);
            let scanned = metrics.rows_scanned_per_worker.iter().sum();
            parallel = Some(metrics);
            (stop, scanned)
        } else {
            let exec = Exec::new(&self.body, self.store, self.services, None, opts.deadline);
            let stop = exec.run_root(&mut out);
            foreign = exec.foreign.terms.into_inner();
            (stop, exec.scanned.get())
        };
        let deadline_exceeded = match stop {
            Some(Stop::Error(e)) => return Err(e),
            Some(Stop::Deadline) => true,
            Some(Stop::Full) | None => false,
        };

        let results = if self.is_ask {
            QueryResults::Boolean(out.rows > 0)
        } else {
            // The column names are copied here, once per run.
            let columns = self
                .projection
                .iter()
                .map(|&slot| self.body.vars.name(slot).to_string())
                .collect();
            QueryResults::Solutions(flatten_rows(
                columns, &out.cells, out.rows, self.store, foreign,
            ))
        };
        Ok(PlannedExecution {
            results,
            metrics: ExecMetrics {
                rows_scanned,
                rows_emitted: out.rows as u64,
                deadline_exceeded,
                parallel,
            },
        })
    }
}

/// Total parallel query runs started in this process (monotonic).
static PARALLEL_QUERIES: AtomicU64 = AtomicU64::new(0);

/// How many parallel query runs this process has started (the `/metrics`
/// `executor_parallel_queries_total` counter).
pub fn parallel_queries_total() -> u64 {
    PARALLEL_QUERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::tests::{eager_parallel, skewed_store, StoreResolver};
    use crate::plan::Planner;
    use kgqan_rdf::{vocab, Triple};

    #[test]
    fn limit_stops_scanning_early() {
        let store = skewed_store();
        let query = parse_query("SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 5").unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 5);
        assert_eq!(run.metrics.rows_emitted, 5);
        assert!(
            run.metrics.rows_scanned <= 5,
            "LIMIT 5 should scan ~5 index entries, scanned {}",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn ask_stops_after_first_row() {
        let store = skewed_store();
        let query = parse_query("ASK { ?p <http://e/bornIn> ?c . }").unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.as_boolean(), Some(true));
        assert!(run.metrics.rows_scanned <= 1);
    }

    #[test]
    fn bound_subject_text_step_searches_once_not_per_row() {
        // 4 <name> edges vs ~200 literals matching "person": the planner
        // runs the selective scan first, demoting the text step to a
        // membership filter.  The search itself must then run once per
        // step, not once per row — total scan work stays O(rows + matches),
        // never O(rows × matches).
        let mut store = Store::new();
        let name = Term::iri("http://e/name");
        for i in 0..200 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/x{i}")),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str(format!("person alias {i}")),
            ));
        }
        for i in 0..4 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/s{i}")),
                name.clone(),
                Term::literal_str(format!("person name {i}")),
            ));
        }
        let query = parse_query(
            r#"SELECT ?s ?d WHERE { ?s <http://e/name> ?d . ?d <bif:contains> "'person'" . }"#,
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert!(
            labels[0].starts_with("scan "),
            "selective scan must run first:\n{}",
            plan.summary()
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 4);
        // One search (≤204 matches counted once) + 4 scan extensions; the
        // old per-row search would have counted ~4×204.
        assert!(
            run.metrics.rows_scanned <= 204 + 4,
            "scanned {} rows — text search re-ran per row?",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn optional_text_step_shares_one_search_across_left_rows() {
        // The OPTIONAL right side re-runs once per left row; its
        // constant-string text search must still execute only once per run
        // (the match cache lives on the execution, not on the per-row
        // pipeline), keeping scan work O(rows + matches).
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let born = Term::iri("http://e/bornIn");
        for i in 0..100 {
            let person = Term::iri(format!("http://e/person{i}"));
            store.insert(Triple::new(
                person.clone(),
                born.clone(),
                Term::iri("http://e/city0"),
            ));
            store.insert(Triple::new(
                person,
                label.clone(),
                Term::literal_str(format!("resident {i}")),
            ));
        }
        let query = parse_query(
            r#"SELECT ?p ?d WHERE {
                 ?p <http://e/bornIn> <http://e/city0> .
                 OPTIONAL { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?d .
                            ?d <bif:contains> "'resident'" . } }"#,
        )
        .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 100);
        // 100 bornIn scans + 100 label scans + ~100 text matches counted
        // once; a per-row search would count ~100×100.
        assert!(
            run.metrics.rows_scanned <= 100 + 100 + 100,
            "scanned {} rows — text search re-ran per left row?",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn offset_and_distinct_stream_correctly() {
        let store = skewed_store();
        let query =
            parse_query("SELECT DISTINCT ?c WHERE { ?p <http://e/bornIn> ?c . } LIMIT 2 OFFSET 1")
                .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 2);
        // 4 distinct cities exist; the pipeline must stop once offset 1 +
        // limit 2 = 3 distinct values have been seen, well before all 200
        // bornIn entries are scanned.
        assert!(
            run.metrics.rows_scanned < 200,
            "scanned {}",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn cartesian_product_still_answers_correctly() {
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::iri("http://e/b"),
        ));
        store.insert(Triple::new(
            Term::iri("http://e/c"),
            Term::iri("http://e/q"),
            Term::iri("http://e/d"),
        ));
        // No shared variable: a forced cartesian product.
        let query = parse_query("SELECT ?x ?y WHERE { ?x <http://e/p> ?b . ?y <http://e/q> ?d . }")
            .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 1);
    }

    #[test]
    fn expired_deadline_returns_partial_prefix_sequentially() {
        let store = skewed_store();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::new(&store).plan(&query);
        let run = plan
            .execute_with(ExecOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            })
            .unwrap();
        assert!(run.metrics.deadline_exceeded);
        assert!(
            run.results.rows().len() < 200,
            "expired deadline must cut the run short, got {} rows",
            run.results.rows().len()
        );
    }

    #[test]
    fn deadline_stops_scans_that_emit_nothing() {
        // 2 × 3 000 triples whose cross product (9 003 000 index entries) a
        // FILTER rejects row by row: no row ever reaches the output, so only
        // a clock read on scan *work* can notice the deadline — on the
        // sequential path and inside a morsel alike.
        let mut store = Store::new();
        for i in 0..3_000 {
            for (side, pred) in [("l", "http://e/p"), ("r", "http://e/q")] {
                store.insert(Triple::new(
                    Term::iri(format!("http://e/{side}{i}")),
                    Term::iri(pred),
                    Term::iri("http://e/o"),
                ));
            }
        }
        let snapshot = kgqan_rdf::LiveStore::new(store).snapshot();
        let query = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://e/p> ?a . ?y <http://e/q> ?b . FILTER (?x = ?y) }",
        )
        .unwrap();
        for parallel in [false, true] {
            let planner = match parallel {
                true => Planner::for_shared_snapshot(&snapshot).with_parallelism(eager_parallel()),
                false => Planner::for_snapshot(&snapshot),
            };
            let run = planner
                .plan(&query)
                .execute_with(ExecOptions {
                    deadline: Some(Instant::now() + std::time::Duration::from_millis(2)),
                })
                .unwrap();
            assert_eq!(run.metrics.parallel.is_some(), parallel);
            assert!(run.metrics.deadline_exceeded);
            assert!(run.results.rows().is_empty());
            assert!(
                run.metrics.rows_scanned < 100_000,
                "scanned {} of 9 003 000 entries under a 2 ms deadline (parallel: {parallel})",
                run.metrics.rows_scanned
            );
        }
    }

    #[test]
    fn service_joins_rows_across_stores() {
        let mut local = Store::new();
        local.insert(Triple::new(
            Term::iri("http://e/Alice"),
            Term::iri("http://e/spouse"),
            Term::iri("http://e/Bob"),
        ));
        let mut remote = Store::new();
        // `Bob` exists in both stores; `Berlin` only remotely, so the
        // result table carries it in its side table — followed there by
        // `Bob`, whose id sits in this never-compacted store's head.
        remote.insert(Triple::new(
            Term::iri("http://e/Bob"),
            Term::iri("http://e/birthPlace"),
            Term::iri("http://e/Berlin"),
        ));
        remote.insert(Triple::new(
            Term::iri("http://e/Stranger"),
            Term::iri("http://e/birthPlace"),
            Term::iri("http://e/Paris"),
        ));
        let resolver = StoreResolver::new([("remote", remote)]);

        let query = parse_query(
            "SELECT ?q ?c WHERE { <http://e/Alice> <http://e/spouse> ?q . \
             SERVICE <kg:remote> { ?q <http://e/birthPlace> ?c . } }",
        )
        .unwrap();
        let plan = Planner::new(&local)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap();

        let rendered = plan.summary().to_string();
        assert!(rendered.contains("service <kg:remote>"), "{rendered}");
        assert!(
            rendered.contains("remote ?q <http://e/birthPlace> ?c ."),
            "{rendered}"
        );
        assert!(
            plan.summary()
                .step_labels()
                .iter()
                .any(|l| l.starts_with("service ")),
            "{rendered}"
        );

        let run = plan.execute().unwrap();
        let rows = run.results.rows();
        // Only Bob's birth place joins; the stranger's row is filtered out.
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows.first().unwrap().get("q"),
            Some(&Term::iri("http://e/Bob"))
        );
        assert_eq!(
            rows.first().unwrap().get("c"),
            Some(&Term::iri("http://e/Berlin"))
        );
        assert_eq!(resolver.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn service_remote_query_runs_once_per_execution() {
        let mut local = Store::new();
        for i in 0..5 {
            local.insert(Triple::new(
                Term::iri(format!("http://e/p{i}")),
                Term::iri("http://e/knows"),
                Term::iri("http://e/Bob"),
            ));
        }
        let mut remote = Store::new();
        remote.insert(Triple::new(
            Term::iri("http://e/Bob"),
            Term::iri("http://e/age"),
            Term::literal_str("42"),
        ));
        let resolver = StoreResolver::new([("remote", remote)]);
        let query = parse_query(
            "SELECT ?p ?a WHERE { ?p <http://e/knows> ?b . \
             SERVICE <kg:remote> { ?b <http://e/age> ?a . } }",
        )
        .unwrap();
        let plan = Planner::new(&local).with_services(&resolver).plan(&query);
        let run = plan.execute().unwrap();
        // Five local rows flow through the join, but the remote query runs
        // exactly once per run.
        assert_eq!(run.results.rows().len(), 5);
        assert_eq!(resolver.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn service_without_resolver_fails_at_plan_or_run_time() {
        let store = Store::new();
        let query =
            parse_query("SELECT ?s WHERE { SERVICE <kg:Anywhere> { ?s <http://e/p> ?o . } }")
                .unwrap();
        // plan_checked fails up front…
        let planner = Planner::new(&store);
        assert!(matches!(
            planner.plan_checked(&query),
            Err(SparqlError::Service { .. })
        ));
        // …and the infallible plan() defers the same error to execute().
        let err = planner.plan(&query).execute().unwrap_err();
        assert!(matches!(err, SparqlError::Service { .. }), "{err}");
    }
}
