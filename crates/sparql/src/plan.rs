//! Cost-based query planning: logical pattern → physical plan.
//!
//! [`Planner`] compiles a parsed [`Query`] into a [`PhysicalPlan`] — the
//! operator tree the executor ([`crate::exec`]) walks and `EXPLAIN`
//! ([`PhysicalPlan::summary`]) renders:
//!
//! * each basic graph pattern's triple patterns are reordered into a
//!   **greedy cardinality-ordered left-deep join**: at every step the
//!   cheapest remaining pattern is chosen, where "cheap" is an exact
//!   `O(log n)` range count over the constant positions
//!   ([`Store::scan_count`]) divided by per-predicate distinct counts
//!   ([`kgqan_rdf::PlannerStats`]) for positions held by already-joined
//!   variables — patterns connected to the rows produced so far are
//!   preferred so cartesian products only happen when the query forces them;
//! * full-text (`bif:contains`) steps are costed from the text index's
//!   posting lists: generative probes are scheduled like any other pattern,
//!   but once their subject is bound by an earlier selective step they
//!   degrade to per-row membership filters (estimate 1);
//! * `FILTER` expressions are **pushed down** to the earliest join step at
//!   which every variable they mention (and that the BGP binds at all) is
//!   bound, so doomed rows die before fanning out;
//! * `DISTINCT`, `OFFSET` and `LIMIT` are explicit output operators of the
//!   plan, applied to each row as the joins produce it — a `LIMIT k` query
//!   stops scanning the moment the page is full, instead of materialising
//!   every match and truncating;
//! * the first scan of the leftmost BGP is marked as the plan's *driver*:
//!   when its estimate is large enough ([`ParallelConfig`]) the executor
//!   splits exactly that scan into key-range morsels and runs them on the
//!   shared pool.
//!
//! A plan keeps ids, not copies of the query.  A scan step holds only its
//! compiled pattern: a dictionary id per constant, a variable slot per
//! variable.  Text and never-matches steps keep their triple pattern, the
//! one because its search string or subject is resolved per row, the other
//! because its absent constant has no id.  The projection is a list of
//! slots; a run copies their names into the result's header, once.
//! `EXPLAIN` renders a scan's label back from its ids and the registry's
//! names ([`crate::explain`]), byte for byte what the pattern prints.
//! Planning is cheap scratch work: each pattern is counted once with
//! nothing bound and the greedy steps only divide that count, bound slots
//! are a bitset, and the plan borrows its snapshot handle, which only a
//! parallel run clones.
//!
//! Every executed plan reports [`crate::ExecMetrics`] — most importantly
//! `rows_scanned`, the number of index/text-index entries the joins
//! touched.
//!
//! ```
//! use kgqan_rdf::{Store, Term, Triple};
//! use kgqan_sparql::{parse_query, plan::Planner};
//!
//! let mut store = Store::new();
//! store.insert(Triple::new(
//!     Term::iri("http://e/Baltic_Sea"),
//!     Term::iri("http://e/outflow"),
//!     Term::iri("http://e/Danish_straits"),
//! ));
//! let query = parse_query(
//!     "SELECT ?sea WHERE { ?sea <http://e/outflow> <http://e/Danish_straits> . }",
//! )
//! .unwrap();
//!
//! let plan = Planner::new(&store).plan(&query);
//! println!("{}", plan.summary()); // EXPLAIN-style operator tree
//! let run = plan.execute().unwrap();
//! assert_eq!(run.results.rows().len(), 1);
//! assert_eq!(run.metrics.rows_scanned, 1); // one index entry touched
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock};

use kgqan_rdf::{PartitionRange, PlannerStats, Store, StoreSnapshot, Term};

use crate::ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use crate::error::SparqlError;
use crate::eval::{
    compile_triple_pattern, effective_text_cap, is_text_search_pattern, parse_text_query,
    CompiledTriplePattern, Slot, VarRegistry,
};
use crate::explain::PlanSummary;
use crate::results::QueryResults;

/// Planner knobs for morsel-driven parallel execution, installed with
/// [`Planner::with_parallelism`] (and on by default for planners built via
/// [`Planner::for_shared_snapshot`]).
///
/// The degree of parallelism (DOP) is chosen from the planner's own
/// cardinality estimate for the driver scan:
/// `dop = clamp(estimate / rows_per_worker, 1, max_dop)` — a query whose
/// driving scan is estimated under `2 × rows_per_worker` therefore keeps
/// the sequential fast path untouched.  So does a `LIMIT` query whose page
/// (`offset + limit`) is no larger than that estimate: the sequential walk
/// stops as soon as the page is full, while a parallel run cannot stop
/// before every partition it claimed holds a page of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Upper bound on workers per query.  Defaults to the available cores,
    /// read once per process and shared with the size of the helper pool
    /// ([`crate::pool::available_cores`]).
    pub max_dop: usize,
    /// Driver-scan rows one worker is expected to absorb; the DOP divisor.
    pub rows_per_worker: f64,
    /// Morsels per chosen worker: more morsels mean finer-grained work
    /// stealing at slightly more scheduling overhead.
    pub morsels_per_worker: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            max_dop: crate::pool::available_cores(),
            rows_per_worker: 50_000.0,
            morsels_per_worker: 4,
        }
    }
}

/// Resolves `SERVICE <kg:name>` groups to other query endpoints.
///
/// The planner itself knows one [`Store`]; federation across registered KGs
/// lives a crate up (`kgqan-endpoint`'s `EndpointRegistry` implements this
/// trait).  Keeping the trait here lets the executor call out to a remote KG
/// mid-join without `kgqan-sparql` depending on the endpoint layer.  Install
/// one with [`Planner::with_services`].
pub trait ServiceResolver: Send + Sync {
    /// The KG names this resolver can execute against, used by
    /// [`Planner::plan_checked`] to reject unknown targets with a helpful
    /// error message.
    fn service_names(&self) -> Vec<String>;

    /// Execute `query` against the KG registered under `kg`.
    fn execute_service(&self, kg: &str, query: &Query) -> Result<QueryResults, SparqlError>;
}

/// Cardinality guess for a SERVICE group: the planner has no statistics for
/// the remote KG, so every SERVICE step is costed at a flat row count —
/// expensive enough that local scans are preferred first, finite so the
/// step still schedules.
const SERVICE_ESTIMATE: f64 = 256.0;

/// Per-plan counters sizing the run-scoped state: one slot per
/// constant-string text step, one per SERVICE group, one per scan step.
#[derive(Default)]
struct SlotCounters {
    text: usize,
    service: usize,
    scan: usize,
}

/// What one join step does.  A scan keeps only its compiled ids and
/// variable slots; the two kinds that need their pattern at run time or to
/// be rendered keep it.
#[derive(Debug, Clone)]
pub(crate) enum StepKind {
    /// An index scan of an id-compiled pattern.
    Scan {
        pattern: CompiledTriplePattern,
        /// Index into the walk's scan cursors: the step seeks its range
        /// from where its seek for the previous input row landed, and a
        /// driver walking an index in key order hands it ascending keys.
        cursor_slot: usize,
    },
    /// A full-text probe (generative when its subject is unbound, a
    /// membership filter once it is bound).
    TextSearch {
        /// The probe's pattern: its subject and, when the search string is
        /// not a constant, its object are resolved per row.
        pattern: TriplePatternAst,
        /// Index into the run's text-match cache.  The cache lives on the
        /// *execution*, so a constant-string search runs once per run even
        /// when OPTIONAL/UNION re-enter the step once per input row.
        cache_slot: usize,
        /// The search words when the query string is a constant literal —
        /// row-independent, so the match set is cacheable.  `None` when the
        /// string comes from a variable binding (resolved per row).
        constant_words: Option<Vec<String>>,
    },
    /// A constant term of the pattern is absent from the dictionary, so the
    /// pattern provably matches nothing in this store.  The pattern is
    /// kept for its label: the absent term has no id to render.
    NeverMatches(TriplePatternAst),
}

impl StepKind {
    /// The variable slots the step mentions.
    fn var_slots(&self, vars: &VarRegistry) -> [Option<usize>; 3] {
        match self {
            StepKind::Scan { pattern: tp, .. } => {
                [tp.subject, tp.predicate, tp.object].map(|slot| match slot {
                    Slot::Var(v) => Some(v),
                    Slot::Const(_) => None,
                })
            }
            StepKind::TextSearch { pattern, .. } | StepKind::NeverMatches(pattern) => {
                [&pattern.subject, &pattern.predicate, &pattern.object]
                    .map(|position| position.as_var().and_then(|v| vars.id_of(v)))
            }
        }
    }

    /// The variable slots the step binds when it runs: a scan binds every
    /// variable it mentions, a text probe its subject (the object is the
    /// query string, the predicate the magic IRI), a never-matches step
    /// nothing.
    fn bound_slots(&self, vars: &VarRegistry) -> [Option<usize>; 3] {
        match self {
            StepKind::Scan { .. } => self.var_slots(vars),
            StepKind::TextSearch { pattern, .. } => [
                pattern.subject.as_var().and_then(|v| vars.id_of(v)),
                None,
                None,
            ],
            StepKind::NeverMatches(_) => [None; 3],
        }
    }
}

/// One planned join step of a basic graph pattern: the operation, the
/// planner's estimate, and the filters pushed down to run right after it.
#[derive(Debug, Clone)]
pub(crate) struct PlanStep {
    pub(crate) kind: StepKind,
    /// Expected rows per input row (absolute rows for a BGP's first step).
    /// While the BGP is being ordered, a step not yet picked holds here its
    /// count with no variable bound, which the greedy steps divide.
    pub(crate) estimate: f64,
    pub(crate) filters: Vec<Expression>,
    /// `true` on the plan's *driver* scan: the first step of the leftmost
    /// BGP, the only step whose input is always the single seed row.  A
    /// parallel run partitions exactly this scan into morsels; every other
    /// step runs unchanged inside each morsel.
    pub(crate) driver: bool,
}

/// A planned operator tree over id rows.
#[derive(Debug, Clone)]
pub(crate) enum PlanNode {
    /// A join-ordered basic graph pattern.  `pre_filters` are pushed-down
    /// filters none of whose variables are bound by this BGP's own steps
    /// (they only see input bindings, so they run before any fan-out).
    Bgp {
        pre_filters: Vec<Expression>,
        steps: Vec<PlanStep>,
    },
    Join(Box<PlanNode>, Box<PlanNode>),
    LeftJoin(Box<PlanNode>, Box<PlanNode>),
    Union(Box<PlanNode>, Box<PlanNode>),
    /// A residual filter that could not be pushed into a BGP.
    Filter(Box<PlanNode>, Expression),
    /// A `SERVICE <kg:name>` group: run `query` against another registered
    /// KG once per run (cached in the execution's service slot), then join
    /// the remote rows into each input row on the shared variable slots.
    Service {
        /// Registry name of the remote KG.
        kg: String,
        /// `SELECT *` over the group's pattern, executed remotely.
        query: Query,
        /// Remote variable name → local slot, for the merge join.
        binds: Vec<(String, usize)>,
        /// Index into the run's service-result cache.
        cache_slot: usize,
        /// The planner's (flat) cardinality guess for the remote rows.
        estimate: f64,
    },
}

/// The part of a plan every walk of it reads: the operator tree, the
/// variable numbering and the sizes of the run-scoped caches.  A parallel
/// run copies it behind an `Arc` for its `'static` morsel jobs.
#[derive(Debug, Clone)]
pub(crate) struct PlanBody {
    pub(crate) root: PlanNode,
    pub(crate) vars: VarRegistry,
    pub(crate) text_cap: usize,
    /// Number of text-search steps in the plan (sizes the per-run cache).
    pub(crate) text_slots: usize,
    /// Number of SERVICE groups in the plan (sizes the per-run cache).
    pub(crate) service_slots: usize,
    /// Number of scan steps in the plan (sizes each walk's cursors).
    pub(crate) scan_slots: usize,
    /// `true` when the root is one BGP whose last step yields exactly one
    /// output row per index entry, so a sequential walk counts the page's
    /// `OFFSET` off that step's ranges by their length instead of walking
    /// them (see [`offset_counts_at_last_step`]).
    pub(crate) offset_at_last_step: bool,
}

/// A query compiled against one store: variables numbered, constants
/// resolved to dictionary ids, joins cost-ordered, filters pushed down, and
/// the result operators (`DISTINCT`/`OFFSET`/`LIMIT`) made explicit.
///
/// Run it with [`PhysicalPlan::execute`] / [`PhysicalPlan::execute_with`]
/// (see [`crate::exec`]); render it with [`PhysicalPlan::summary`].
pub struct PhysicalPlan<'s> {
    pub(crate) store: &'s Store,
    pub(crate) body: PlanBody,
    /// The driver scan's compiled pattern and cardinality estimate, when
    /// the plan has one (see [`PlanStep::driver`]).
    driver: Option<(CompiledTriplePattern, f64)>,
    /// The epoch snapshot this plan was compiled against, when the planner
    /// was built from one ([`Planner::for_shared_snapshot`]).  A parallel
    /// run clones the `Arc` to hand `'static` morsel jobs to the shared
    /// executor pool without copying the store; a sequential one never
    /// touches its count.
    pub(crate) shared: Option<&'s Arc<StoreSnapshot>>,
    /// Morsel-parallelism knobs; `None` plans always execute sequentially.
    parallel: Option<ParallelConfig>,
    /// Projection: the variable slot of each output column.  A projected
    /// variable the pattern never mentions has a slot no step binds.
    pub(crate) projection: Vec<usize>,
    pub(crate) is_ask: bool,
    pub(crate) distinct: bool,
    pub(crate) limit: Option<usize>,
    pub(crate) offset: usize,
    /// Resolver for SERVICE groups, inherited from the planner.
    pub(crate) services: Option<&'s dyn ServiceResolver>,
    /// Built lazily: untraced runs never pay for rendering operator labels.
    pub(crate) summary: OnceLock<PlanSummary>,
}

impl fmt::Debug for PhysicalPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPlan")
            .field("root", &self.body.root)
            .field("projection", &self.projection)
            .field("is_ask", &self.is_ask)
            .field("distinct", &self.distinct)
            .field("limit", &self.limit)
            .field("offset", &self.offset)
            .field("has_services", &self.services.is_some())
            .finish_non_exhaustive()
    }
}

/// Compiles queries into [`PhysicalPlan`]s over one store, using the
/// store's cached [`PlannerStats`] for cardinality estimation.
pub struct Planner<'s> {
    store: &'s Store,
    stats: &'s PlannerStats,
    services: Option<&'s dyn ServiceResolver>,
    /// Set by [`Planner::for_shared_snapshot`]: the owned snapshot handle
    /// its plans lend to a parallel run.
    shared: Option<&'s Arc<StoreSnapshot>>,
    parallel: Option<ParallelConfig>,
}

impl<'s> Planner<'s> {
    /// Create a planner over `store`.
    pub fn new(store: &'s Store) -> Self {
        Planner {
            stats: store.planner_stats_ref(),
            store,
            services: None,
            shared: None,
            parallel: None,
        }
    }

    /// Install morsel-parallelism knobs: plans compiled afterwards may
    /// execute their driving scan as parallel morsels on the shared
    /// executor pool (see [`ParallelConfig`] for the DOP heuristic).
    ///
    /// Parallel execution additionally requires an *owned* snapshot handle
    /// — build the planner with [`Planner::for_shared_snapshot`]; on a
    /// plain borrowed [`Store`] the configuration is inert and every run
    /// stays sequential.
    pub fn with_parallelism(mut self, config: ParallelConfig) -> Self {
        self.parallel = Some(config);
        self
    }

    /// Install a resolver for `SERVICE <kg:name>` groups.
    ///
    /// Plans compiled afterwards can execute federated queries: each SERVICE
    /// group is sent to the resolver (typically `kgqan-endpoint`'s
    /// `EndpointRegistry`, which routes through the per-KG semantic cache)
    /// and the remote rows are joined back into the local pipeline.  Without
    /// a resolver, executing a plan with a SERVICE group fails at run time;
    /// use [`Planner::plan_checked`] to fail at plan time instead.
    pub fn with_services(mut self, services: &'s dyn ServiceResolver) -> Self {
        self.services = Some(services);
        self
    }

    /// Like [`Planner::plan`], but fail fast — at plan time — when the query
    /// contains a `SERVICE` group that cannot execute: either no resolver is
    /// installed, or a target KG is not one the resolver knows.  The
    /// unknown-KG error lists the available names.
    pub fn plan_checked(&self, query: &Query) -> Result<PhysicalPlan<'s>, SparqlError> {
        let targets = query.pattern.service_targets();
        if !targets.is_empty() {
            let Some(services) = self.services else {
                return Err(SparqlError::Service {
                    kg: targets[0].to_string(),
                    message: "no service resolver installed (use Planner::with_services)"
                        .to_string(),
                });
            };
            let available = services.service_names();
            for kg in targets {
                if !available.iter().any(|name| name == kg) {
                    return Err(SparqlError::UnknownService {
                        kg: kg.to_string(),
                        available: available.clone(),
                    });
                }
            }
        }
        Ok(self.plan(query))
    }

    /// Create a planner pinned to one epoch snapshot of a live store.
    ///
    /// Functionally this is `Planner::new(&snapshot)` (the snapshot derefs
    /// to its [`Store`]); it exists to make the epoch-consistency contract
    /// explicit: the returned planner's cardinality estimates, the plans it
    /// compiles, and the scans those plans run all observe the *same*
    /// epoch, no matter how many ingest batches are published concurrently.
    /// Snapshots carry pre-installed [`PlannerStats`], so construction does
    /// no stats compute.
    ///
    /// ```
    /// use kgqan_rdf::{IngestBatch, LiveStore, Store, Term, Triple};
    /// use kgqan_sparql::{parse_query, Planner};
    ///
    /// let live = LiveStore::new(Store::new());
    /// live.ingest(IngestBatch::from_iter([Triple::new(
    ///     Term::iri("http://e/s"),
    ///     Term::iri("http://e/p"),
    ///     Term::iri("http://e/o"),
    /// )]))
    /// .unwrap();
    ///
    /// let snapshot = live.snapshot();
    /// let query = parse_query("SELECT ?s WHERE { ?s <http://e/p> ?o }").unwrap();
    /// let planner = Planner::for_snapshot(&snapshot);
    /// assert_eq!(planner.plan(&query).execute().unwrap().results.rows().len(), 1);
    /// ```
    pub fn for_snapshot(snapshot: &'s kgqan_rdf::StoreSnapshot) -> Self {
        Planner::new(snapshot)
    }

    /// Like [`Planner::for_snapshot`], but from an *owned* snapshot handle,
    /// which additionally enables morsel-driven parallel execution (with
    /// [`ParallelConfig::default`]; tune or effectively disable it via
    /// [`Planner::with_parallelism`]).
    ///
    /// The plans this planner compiles borrow the `Arc`, and a parallel
    /// run clones it to ship `'static` morsel jobs to the shared executor
    /// pool — every worker reads the *same pinned epoch* the plan was
    /// costed against, however many ingest batches are published while the
    /// query runs.
    pub fn for_shared_snapshot(snapshot: &'s Arc<StoreSnapshot>) -> Self {
        Planner {
            stats: snapshot.planner_stats_ref(),
            store: snapshot,
            services: None,
            shared: Some(snapshot),
            parallel: Some(ParallelConfig::default()),
        }
    }

    /// Compile a query into a physical plan.
    ///
    /// Planning never fails: constants missing from the dictionary become
    /// `never-matches` steps (scheduled first, so they empty the pipeline
    /// immediately) instead of errors.
    pub fn plan(&self, query: &Query) -> PhysicalPlan<'s> {
        let mut vars = VarRegistry::from_pattern(&query.pattern);
        let (projection, is_ask, distinct) = match &query.form {
            QueryForm::Ask => (Vec::new(), true, false),
            // `SELECT *` projects the pattern's variables in first-seen
            // order, which is their numbering.
            QueryForm::Select {
                variables,
                distinct,
            } if variables.is_empty() => ((0..vars.len()).collect(), false, *distinct),
            QueryForm::Select {
                variables,
                distinct,
            } => (
                variables.iter().map(|v| vars.register(v)).collect(),
                false,
                *distinct,
            ),
        };

        let text_cap = effective_text_cap(query);
        let mut bound = SlotSet::default();
        let mut slots = SlotCounters::default();
        let mut root = self.compile(&query.pattern, &vars, &mut bound, text_cap, &mut slots);
        let driver = mark_driver(&mut root);
        let offset = query.offset.unwrap_or(0);
        let offset_at_last_step =
            offset > 0 && !is_ask && !distinct && offset_counts_at_last_step(&root, &vars);

        PhysicalPlan {
            store: self.store,
            body: PlanBody {
                root,
                vars,
                text_cap,
                text_slots: slots.text,
                service_slots: slots.service,
                scan_slots: slots.scan,
                offset_at_last_step,
            },
            driver,
            shared: self.shared,
            parallel: self.parallel,
            projection,
            is_ask,
            distinct,
            limit: query.limit,
            offset,
            services: self.services,
            summary: OnceLock::new(),
        }
    }

    /// Recursively compile a graph pattern, threading the set of variable
    /// slots that may already be bound by the time rows reach this node
    /// (used for cardinality estimation and filter pushdown).
    fn compile(
        &self,
        pattern: &GraphPattern,
        vars: &VarRegistry,
        bound: &mut SlotSet,
        text_cap: usize,
        slots: &mut SlotCounters,
    ) -> PlanNode {
        match pattern {
            GraphPattern::Bgp(tps) => self.plan_bgp(tps, vars, bound, text_cap, slots),
            GraphPattern::Join(a, b) => {
                let left = self.compile(a, vars, bound, text_cap, slots);
                let right = self.compile(b, vars, bound, text_cap, slots);
                PlanNode::Join(Box::new(left), Box::new(right))
            }
            GraphPattern::Optional(a, b) => {
                let left = self.compile(a, vars, bound, text_cap, slots);
                let right = self.compile(b, vars, bound, text_cap, slots);
                PlanNode::LeftJoin(Box::new(left), Box::new(right))
            }
            GraphPattern::Union(a, b) => {
                let mut bound_a = bound.clone();
                let left = self.compile(a, vars, &mut bound_a, text_cap, slots);
                let mut bound_b = bound.clone();
                let right = self.compile(b, vars, &mut bound_b, text_cap, slots);
                bound.union_with(&bound_a);
                bound.union_with(&bound_b);
                PlanNode::Union(Box::new(left), Box::new(right))
            }
            GraphPattern::Filter(inner, expr) => {
                let mut node = self.compile(inner, vars, bound, text_cap, slots);
                match push_filter(&mut node, expr, vars) {
                    true => node,
                    false => PlanNode::Filter(Box::new(node), expr.clone()),
                }
            }
            GraphPattern::Service { kg, pattern } => {
                // The group executes remotely as `SELECT *`; every variable
                // it mentions is bound (or checked) by the merge join.
                let query = Query {
                    form: QueryForm::Select {
                        variables: Vec::new(),
                        distinct: false,
                    },
                    pattern: (**pattern).clone(),
                    limit: None,
                    offset: None,
                };
                let binds: Vec<(String, usize)> = pattern
                    .variables()
                    .into_iter()
                    .filter_map(|v| vars.id_of(&v).map(|slot| (v, slot)))
                    .collect();
                for (_, slot) in &binds {
                    bound.insert(*slot);
                }
                let cache_slot = slots.service;
                slots.service += 1;
                PlanNode::Service {
                    kg: kg.clone(),
                    query,
                    binds,
                    cache_slot,
                    estimate: SERVICE_ESTIMATE,
                }
            }
        }
    }

    /// Greedily join-order one basic graph pattern.
    fn plan_bgp(
        &self,
        tps: &[TriplePatternAst],
        vars: &VarRegistry,
        bound: &mut SlotSet,
        text_cap: usize,
        slots: &mut SlotCounters,
    ) -> PlanNode {
        // Each pattern is compiled and counted once, with no variable
        // bound; the greedy steps below only divide that count.
        let mut steps: Vec<PlanStep> = tps
            .iter()
            .map(|tp| {
                let (kind, count) = if is_text_search_pattern(tp) {
                    let constant_words = constant_text_words(tp);
                    let count = match &constant_words {
                        Some(words) => {
                            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                            self.store.text_index().estimate_any(&refs).min(text_cap)
                        }
                        // Query string only known at run time: assume the cap.
                        None => text_cap.min(self.store.text_index().num_literals()),
                    };
                    let cache_slot = slots.text;
                    slots.text += 1;
                    let kind = StepKind::TextSearch {
                        pattern: tp.clone(),
                        cache_slot,
                        constant_words,
                    };
                    (kind, count as f64)
                } else {
                    match compile_triple_pattern(self.store, vars, tp) {
                        Some(compiled) => {
                            let count = self.store.scan_count(compiled.encoded(|_| None));
                            let cursor_slot = slots.scan;
                            slots.scan += 1;
                            let kind = StepKind::Scan {
                                pattern: compiled,
                                cursor_slot,
                            };
                            (kind, count as f64)
                        }
                        None => (StepKind::NeverMatches(tp.clone()), 0.0),
                    }
                };
                PlanStep {
                    kind,
                    estimate: count,
                    filters: Vec::new(),
                    driver: false,
                }
            })
            .collect();

        // The steps not yet picked are `steps[..remaining]`.  A pick is
        // swapped to the end of that range, which leaves the rest in the
        // order a `swap_remove` would, so ties break as they always have;
        // the picks, collected back to front, are reversed at the end.
        for remaining in (1..=steps.len()).rev() {
            let unpicked = &steps[..remaining];
            // Prefer patterns connected to what is already joined (shared
            // variable or no variables at all); fall back to every pattern
            // when nothing connects — the cartesian product is then forced
            // by the query, and we at least start from the cheapest side.
            let connected = |step: &PlanStep| {
                let mut mentioned = step.kind.var_slots(vars).into_iter().flatten().peekable();
                mentioned.peek().is_none() || mentioned.any(|slot| bound.contains(slot))
            };
            let any_connected = remaining < steps.len() && unpicked.iter().any(connected);
            let (index, estimate) = unpicked
                .iter()
                .enumerate()
                .filter(|(_, step)| !any_connected || connected(step))
                .map(|(i, step)| (i, self.estimate(step, bound, vars)))
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("remaining is non-empty");
            steps.swap(index, remaining - 1);
            let picked = &mut steps[remaining - 1];
            picked.estimate = estimate;
            for slot in picked.kind.bound_slots(vars).into_iter().flatten() {
                bound.insert(slot);
            }
        }
        steps.reverse();
        PlanNode::Bgp {
            pre_filters: Vec::new(),
            steps,
        }
    }

    /// Estimate how many rows a step not yet picked yields per input row,
    /// given which variable slots are already bound.
    fn estimate(&self, step: &PlanStep, bound: &SlotSet, vars: &VarRegistry) -> f64 {
        // Until the step is picked, its estimate is its unbound count.
        let count = step.estimate;
        match &step.kind {
            StepKind::NeverMatches(_) => 0.0,
            StepKind::TextSearch { pattern, .. } => {
                let subject_bound = match &pattern.subject {
                    VarOrTerm::Var(v) => vars.id_of(v).is_some_and(|slot| bound.contains(slot)),
                    VarOrTerm::Term(_) => true,
                };
                // A bound subject is a membership test against the match
                // set: ~1 row out per row in.
                if subject_bound {
                    1.0
                } else {
                    count
                }
            }
            StepKind::Scan { pattern: tp, .. } => {
                if count == 0.0 {
                    return 0.0;
                }
                // Positions held by an already-joined variable divide the
                // constant-match count by the relevant distinct count: with
                // a constant predicate that is the predicate's own distinct
                // subject/object count (average out-/in-degree), otherwise
                // the graph-wide distinct counts.
                let pred_card = match tp.predicate {
                    Slot::Const(p) => self.stats.predicate(p).copied(),
                    Slot::Var(_) => None,
                };
                let mut est = count;
                if let Slot::Var(v) = tp.subject {
                    if bound.contains(v) {
                        let distinct = pred_card
                            .map(|c| c.distinct_subjects)
                            .unwrap_or(self.stats.distinct_subjects);
                        est /= distinct.max(1) as f64;
                    }
                }
                if let Slot::Var(v) = tp.predicate {
                    if bound.contains(v) {
                        est /= self.stats.distinct_predicates.max(1) as f64;
                    }
                }
                if let Slot::Var(v) = tp.object {
                    if bound.contains(v) {
                        let distinct = pred_card
                            .map(|c| c.distinct_objects)
                            .unwrap_or(self.stats.distinct_objects);
                        est /= distinct.max(1) as f64;
                    }
                }
                est
            }
        }
    }
}

/// The variable slots that may be bound by the time rows reach a node: a
/// bitset, inline for the first 64 slots.
#[derive(Debug, Clone, Default)]
struct SlotSet {
    first: u64,
    rest: Vec<u64>,
}

impl SlotSet {
    fn contains(&self, slot: usize) -> bool {
        let word = match slot / 64 {
            0 => self.first,
            n => self.rest.get(n - 1).copied().unwrap_or(0),
        };
        word & (1 << (slot % 64)) != 0
    }

    fn insert(&mut self, slot: usize) {
        let word = match slot / 64 {
            0 => &mut self.first,
            n => {
                if self.rest.len() < n {
                    self.rest.resize(n, 0);
                }
                &mut self.rest[n - 1]
            }
        };
        *word |= 1 << (slot % 64);
    }

    fn union_with(&mut self, other: &SlotSet) {
        self.first |= other.first;
        if self.rest.len() < other.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (word, theirs) in self.rest.iter_mut().zip(&other.rest) {
            *word |= theirs;
        }
    }
}

/// Try to push a filter into a BGP node: attach it after the last step that
/// binds any of the filter's variables, or to the pre-filter list when the
/// BGP's steps bind none of them (the filter then only depends on input
/// bindings, which no step can change).  Returns `false` if the node is not
/// a BGP — the caller keeps the filter as a residual operator.
fn push_filter(node: &mut PlanNode, expr: &Expression, vars: &VarRegistry) -> bool {
    let PlanNode::Bgp {
        pre_filters, steps, ..
    } = node
    else {
        return false;
    };
    let filter_slots: Vec<usize> = expr
        .variables()
        .iter()
        .filter_map(|v| vars.id_of(v))
        .collect();
    let position = steps.iter().rposition(|step| {
        step.kind
            .bound_slots(vars)
            .into_iter()
            .flatten()
            .any(|slot| filter_slots.contains(&slot))
    });
    match position {
        Some(i) => steps[i].filters.push(expr.clone()),
        None => pre_filters.push(expr.clone()),
    }
    true
}

/// Mark the plan's driver scan (see [`PlanStep::driver`]) and return its
/// compiled pattern and estimate: the first step of the leftmost BGP,
/// reached by walking left through joins and filters.  Union branches and
/// SERVICE groups re-evaluate per input row, so nothing inside them can
/// drive a partitioned scan.
fn mark_driver(node: &mut PlanNode) -> Option<(CompiledTriplePattern, f64)> {
    match node {
        PlanNode::Bgp { steps, .. } => {
            let step = steps.first_mut()?;
            let StepKind::Scan { pattern: tp, .. } = step.kind else {
                return None;
            };
            step.driver = true;
            Some((tp, step.estimate))
        }
        PlanNode::Join(a, _) | PlanNode::LeftJoin(a, _) => mark_driver(a),
        PlanNode::Filter(inner, _) => mark_driver(inner),
        PlanNode::Union(..) | PlanNode::Service { .. } => None,
    }
}

/// Whether every index entry the last step of the plan's root scans is
/// exactly one row of the output, so that an `OFFSET` can be counted off
/// that step's ranges by their length: the root is one BGP, and its last
/// step is a scan with no filter pushed after it and no variable twice in
/// its pattern (`?x p ?x` drops the entries whose subject is not their
/// object).  Variables an earlier step bound are constants of the seek, so
/// every entry of the range agrees with them.  `DISTINCT` is the caller's
/// to rule out.
fn offset_counts_at_last_step(root: &PlanNode, vars: &VarRegistry) -> bool {
    let PlanNode::Bgp { steps, .. } = root else {
        return false;
    };
    let Some(last) = steps.last() else {
        return false;
    };
    let [s, p, o] = last.kind.var_slots(vars);
    let repeated = |a: Option<usize>, b| a.is_some() && a == b;
    matches!(last.kind, StepKind::Scan { .. })
        && last.filters.is_empty()
        && !repeated(s, p)
        && !repeated(s, o)
        && !repeated(p, o)
}

/// The search words of a text pattern whose query string is a constant
/// literal — row-independent, so the search can run once per step.
/// `None` when the string comes from a variable binding (resolved per row).
fn constant_text_words(tp: &TriplePatternAst) -> Option<Vec<String>> {
    match &tp.object {
        VarOrTerm::Term(Term::Literal(lit)) => Some(parse_text_query(&lit.lexical)),
        _ => None,
    }
}

/// How a parallel run splits its driver scan: the chosen degree of
/// parallelism and the morsel key ranges, in scan order.
pub(crate) struct ParallelDecision {
    pub(crate) dop: usize,
    pub(crate) ranges: Vec<PartitionRange>,
}

impl PhysicalPlan<'_> {
    /// Decide whether (and how) this plan runs in parallel — the one
    /// decision `execute` acts on and `EXPLAIN` shows.  Returns `None` —
    /// the sequential fast path — unless *all* of the following hold: a
    /// parallelism config and an owned snapshot are installed, the query is
    /// not an ASK and touches no SERVICE group (resolvers are borrowed and
    /// their term interner is single-threaded), a driver scan exists, its
    /// cardinality estimate asks for at least two workers, a `LIMIT` page
    /// (`offset + limit`, saturating) is larger than that estimate, and the
    /// driver actually splits into more than one partition.
    ///
    /// The page rule: the sequential walk stops at the page, but every
    /// morsel a parallel run claims runs until it holds a page of its own
    /// or its partition ends, so a page that a prefix of the driver can
    /// fill is cheapest on one walk.  A page larger than the driver's
    /// estimated row count is expected to need every partition, and fans
    /// out.
    pub(crate) fn parallel_decision(&self) -> Option<ParallelDecision> {
        let config = self.parallel?;
        self.shared.as_ref()?;
        if self.is_ask || config.max_dop < 2 || self.body.service_slots > 0 {
            return None;
        }
        let (tp, estimate) = self.driver?;
        if self
            .limit
            .is_some_and(|limit| self.offset.saturating_add(limit) as f64 <= estimate)
        {
            return None;
        }
        let dop = ((estimate / config.rows_per_worker.max(1.0)) as usize).clamp(1, config.max_dop);
        if dop < 2 {
            return None;
        }
        // The driver's input is always the single all-unbound seed row, so
        // its runtime pattern is exactly its compiled constants.
        let ranges = self
            .store
            .scan_partitions(tp.encoded(|_| None), dop * config.morsels_per_worker.max(1));
        if ranges.len() < 2 {
            return None;
        }
        Some(ParallelDecision { dop, ranges })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse_query;
    use kgqan_rdf::{vocab, LiveStore, Triple};

    /// A store where join order matters: 200 people born in 4 cities, one
    /// person also a member of a tiny club.
    pub(crate) fn skewed_store() -> Store {
        let mut store = Store::new();
        let born = Term::iri("http://e/bornIn");
        let member = Term::iri("http://e/memberOf");
        let label = Term::iri(vocab::RDFS_LABEL);
        for i in 0..200 {
            let person = Term::iri(format!("http://e/person{i}"));
            let city = Term::iri(format!("http://e/city{}", i % 4));
            store.insert(Triple::new(person.clone(), born.clone(), city));
            store.insert(Triple::new(
                person,
                label.clone(),
                Term::literal_str(format!("person number {i}")),
            ));
        }
        store.insert(Triple::new(
            Term::iri("http://e/person7"),
            member,
            Term::iri("http://e/club"),
        ));
        store
    }

    #[test]
    fn planner_orders_selective_pattern_first() {
        let store = skewed_store();
        // Written worst-first: the 200-row bornIn scan before the 1-row
        // memberOf lookup.
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
             ?p <http://e/memberOf> <http://e/club> . }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert_eq!(labels.len(), 2);
        assert!(
            labels[0].contains("memberOf"),
            "selective pattern must run first:\n{}",
            plan.summary()
        );

        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 1);
        // 1 memberOf match + 1 bornIn extension — not 200 + 1.
        assert!(
            run.metrics.rows_scanned <= 4,
            "scanned {} rows",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn text_step_runs_before_unselective_scan() {
        let store = skewed_store();
        let query =
            parse_query(r#"SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "'person'" . } LIMIT 3"#)
                .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert!(
            labels[0].starts_with("text "),
            "text probe must run first:\n{}",
            plan.summary()
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 3);
    }

    #[test]
    fn filters_are_pushed_to_their_binding_step() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/memberOf> <http://e/club> . \
             ?p <http://e/bornIn> ?c . \
             FILTER (?c != <http://e/city0>) }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let rendered = plan.summary().to_string();
        // The filter line must appear nested under the bornIn step (which
        // binds ?c), not as a residual operator above the bgp.
        let bgp_pos = rendered.find("bgp").unwrap();
        let filter_pos = rendered.find("filter").unwrap();
        assert!(
            filter_pos > bgp_pos,
            "filter should be pushed inside the bgp:\n{rendered}"
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 1); // person7 born in city3
    }

    #[test]
    fn unknown_constant_becomes_never_matches_step() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p WHERE { ?p <http://nowhere/pred> ?x . ?p <http://e/bornIn> ?c . }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        // Estimate 0 schedules it first, emptying the pipeline immediately.
        assert!(labels[0].starts_with("never-matches "));
        let run = plan.execute().unwrap();
        assert!(run.results.rows().is_empty());
        assert_eq!(run.metrics.rows_scanned, 0);
    }

    /// A [`ServiceResolver`] over in-memory stores, counting remote calls.
    pub(crate) struct StoreResolver {
        stores: std::collections::BTreeMap<String, Store>,
        pub(crate) calls: std::sync::atomic::AtomicUsize,
    }

    impl StoreResolver {
        pub(crate) fn new(stores: impl IntoIterator<Item = (&'static str, Store)>) -> Self {
            StoreResolver {
                stores: stores
                    .into_iter()
                    .map(|(name, store)| (name.to_string(), store))
                    .collect(),
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl ServiceResolver for StoreResolver {
        fn service_names(&self) -> Vec<String> {
            self.stores.keys().cloned().collect()
        }

        fn execute_service(&self, kg: &str, query: &Query) -> Result<QueryResults, SparqlError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let store = self
                .stores
                .get(kg)
                .ok_or_else(|| SparqlError::UnknownService {
                    kg: kg.to_string(),
                    available: self.service_names(),
                })?;
            Ok(Planner::new(store).plan(query).execute()?.results)
        }
    }

    /// The skewed store published through a live store, for snapshot
    /// pinning (the parallel path requires an owned snapshot).
    pub(crate) fn skewed_live() -> std::sync::Arc<StoreSnapshot> {
        let live = LiveStore::new(skewed_store());
        live.snapshot()
    }

    /// A config aggressive enough to parallelise the 401-triple test store.
    pub(crate) fn eager_parallel() -> ParallelConfig {
        ParallelConfig {
            max_dop: 8,
            rows_per_worker: 8.0,
            morsels_per_worker: 2,
        }
    }

    #[test]
    fn small_queries_keep_the_sequential_fast_path() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        // Default config: a 200-row scan is far below rows_per_worker.
        let plan = Planner::for_shared_snapshot(&snapshot).plan(&query);
        assert!(!plan.summary().to_string().contains("parallel("));
        let run = plan.execute().unwrap();
        assert!(run.metrics.parallel.is_none());
        assert_eq!(run.results.rows().len(), 200);
    }

    #[test]
    fn ask_and_small_pages_stay_sequential_under_parallel_config() {
        let snapshot = skewed_live();
        let planner = Planner::for_shared_snapshot(&snapshot).with_parallelism(eager_parallel());
        let ask = parse_query("ASK { ?p <http://e/bornIn> ?c . }").unwrap();
        let run = planner.plan(&ask).execute().unwrap();
        assert!(run.metrics.parallel.is_none());
        // The driver scan is estimated at its 200 bornIn entries.  A page
        // that fits inside it is one walk that stops at the page…
        let paged = |limit: usize, offset: usize| {
            planner.plan(
                &parse_query(&format!(
                    "SELECT ?p WHERE {{ ?p <http://e/bornIn> ?c . }} LIMIT {limit} OFFSET {offset}"
                ))
                .unwrap(),
            )
        };
        for (limit, offset) in [(5, 0), (200, 0), (150, 50)] {
            let plan = paged(limit, offset);
            let rendered = plan.summary().to_string();
            assert!(!rendered.contains("parallel("), "{rendered}");
            let run = plan.execute().unwrap();
            assert!(run.metrics.parallel.is_none());
            assert!(run.metrics.rows_scanned <= (limit + offset) as u64);
        }
        // …and one row more fans out.
        for (limit, offset) in [(201, 0), (151, 50)] {
            let plan = paged(limit, offset);
            let rendered = plan.summary().to_string();
            assert!(rendered.contains("parallel("), "{rendered}");
            assert!(plan.execute().unwrap().metrics.parallel.is_some());
        }
    }

    #[test]
    fn the_page_size_saturates() {
        // `offset + limit` overflows: the page is unbounded, so the plan
        // fans out, and its rows are still the sequential ones.
        let snapshot = skewed_live();
        let query = parse_query(
            "SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 18446744073709551615 OFFSET 1",
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
        assert!(parallel.metrics.parallel.is_some());
        assert_eq!(parallel.results, sequential.results);
        assert_eq!(sequential.results.rows().len(), 199);
    }

    #[test]
    fn plan_checked_rejects_unknown_service_target() {
        let store = Store::new();
        let resolver = StoreResolver::new([("DBpedia", Store::new())]);
        let query =
            parse_query("SELECT ?s WHERE { SERVICE <kg:Nope> { ?s <http://e/p> ?o . } }").unwrap();
        let err = Planner::new(&store)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap_err();
        match err {
            SparqlError::UnknownService { kg, available } => {
                assert_eq!(kg, "Nope");
                assert_eq!(available, vec!["DBpedia".to_string()]);
            }
            other => panic!("expected UnknownService, got {other:?}"),
        }
        // The rendered message names the valid targets for the caller.
        let rendered = Planner::new(&store)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap_err()
            .to_string();
        assert!(rendered.contains("DBpedia"), "{rendered}");
    }
}
