//! The concurrent, multi-KG serving layer.
//!
//! [`QaService`] is the platform API the paper's universality claim calls
//! for: **one** trained KGQAn instance (question understanding + affinity
//! models, trained once, held in `Arc`s) serving questions against *any*
//! number of registered SPARQL endpoints, from any number of threads.
//!
//! * The service is built on the staged [`Pipeline`](crate::pipeline): four
//!   typed stages (understand → link → execute → filter) composed behind
//!   `Arc`s.  [`QaServiceBuilder::pipeline`] swaps in alternative stage
//!   implementations.
//! * Requests are [`AnswerRequest`]s: a question, an optional target KG name
//!   (resolved through the service's [`EndpointRegistry`]), per-request
//!   [`ConfigOverrides`], and an optional deadline.
//! * Responses are [`AnswerResponse`]s: the per-request envelope (request
//!   id, the KG that answered, an endpoint stats snapshot, provenance, and a
//!   [`BudgetVerdict`] saying whether the deadline cut the pipeline short)
//!   around the [`PipelineTrace`] the run produced — every stage's artifact
//!   and timing, moved in, never copied.
//! * Registered KGs are served through a cross-request **semantic cache**
//!   (the mechanism is `kgqan_endpoint::cache`): each KG gets its own
//!   bounded namespace of linking probes and parsed-query results, shared
//!   by concurrent and batched requests and flushed when the KG is
//!   re-registered, so repeated and overlapping questions skip endpoint
//!   round-trips.  Caching changes latency, never answers.
//!   [`QaServiceBuilder::cache`] tunes the capacities;
//!   [`QaServiceBuilder::no_cache`] disables the layer;
//!   [`QaService::cache_report`] is the one place its hit and miss counters
//!   are read ([`CacheReport`]).
//! * Deadlines degrade gracefully: an expired [`Budget`] stops linking
//!   probes and candidate-query execution at the next check-point and the
//!   response carries the best answers collected so far, flagged
//!   [`BudgetVerdict::Partial`] — a slow KG bounds a request's latency
//!   instead of running unbounded.
//! * [`QaService::answer`] runs the whole pipeline on the calling thread.
//!   [`QaService::answer_batch`] understands each distinct question of the
//!   batch once and runs the per-KG stages of its legs from one shared
//!   cursor ([`WorkerPool::claim_all`]): the calling thread claims and runs
//!   legs itself, and helpers from the process's shared worker pool join in
//!   only while the service has workers nobody is using.  The service owns
//!   no thread; it is cheaply cloneable (one `Arc` inside) and
//!   `Send + Sync`, so callers can equally well clone it into their own
//!   threads.
//!
//! [`QaService::answer`] (and its batch form) is the only way into the
//! pipeline for a registered KG; a caller holding a *borrowed* endpoint
//! runs [`Pipeline::run`] itself.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use kgqan_endpoint::cache::{CacheConfig, CacheStats};
use kgqan_endpoint::{EndpointRegistry, RequestStats, SparqlEndpoint};
use kgqan_rdf::Term;
use kgqan_sparql::pool::WorkerPool;

use crate::affinity::SemanticAffinity;
use crate::config::{Budget, KgqanConfig, LinkerConfig};
use crate::error::KgqanError;
use crate::pipeline::{Pipeline, PipelineTrace, StageContext};
use crate::understanding::{QuestionUnderstanding, Understanding};

/// Whether a request completed within its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// Every phase ran to completion (the deadline, if any, was met).
    Completed,
    /// The deadline expired mid-pipeline; the response carries the best
    /// results collected so far (linking annotations, answers) and skipped
    /// whatever work remained.
    Partial,
}

impl BudgetVerdict {
    /// True if the deadline cut the pipeline short.
    pub fn is_partial(&self) -> bool {
        matches!(self, BudgetVerdict::Partial)
    }
}

/// Per-request overrides of the service-wide [`KgqanConfig`].
///
/// Only the *runtime* knobs can vary per request; the model axes
/// (`seq2seq`, `affinity`) are fixed when the service is built, because they
/// select which trained models the service holds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigOverrides {
    /// Override the linker knobs (max fetched vertices, vertices per node,
    /// predicates per edge).
    pub linker: Option<LinkerConfig>,
    /// Override *Max number of Queries*.
    pub max_candidate_queries: Option<usize>,
    /// Override the productive-query budget of the Execute stage.
    pub max_productive_queries: Option<usize>,
    /// Override the post-filtration toggle.
    pub filtration_enabled: Option<bool>,
}

impl ConfigOverrides {
    /// No overrides: the request runs with the service configuration.
    pub fn none() -> Self {
        Self::default()
    }

    /// Resolve the effective configuration for a request.
    pub fn apply(&self, base: &KgqanConfig) -> KgqanConfig {
        KgqanConfig {
            linker: self.linker.unwrap_or(base.linker),
            max_candidate_queries: self
                .max_candidate_queries
                .unwrap_or(base.max_candidate_queries),
            max_productive_queries: self
                .max_productive_queries
                .unwrap_or(base.max_productive_queries),
            filtration_enabled: self.filtration_enabled.unwrap_or(base.filtration_enabled),
            ..*base
        }
    }
}

/// One question for the service to answer.
#[derive(Debug, Clone, Default)]
pub struct AnswerRequest {
    /// The natural-language question.
    pub question: String,
    /// The registered KG to answer from.  `None` targets the service's
    /// default KG (explicitly configured, or the sole registered endpoint).
    pub kg: Option<String>,
    /// Per-request configuration overrides.
    pub overrides: ConfigOverrides,
    /// How long the request may run.  When the deadline expires the
    /// pipeline returns best-so-far results flagged partial instead of
    /// continuing unbounded.
    pub deadline: Option<Duration>,
    /// Client-supplied request id echoed in the response; the service
    /// assigns a sequential `req-N` id when absent.
    pub id: Option<String>,
}

impl AnswerRequest {
    /// A request against the service's default KG with no overrides.
    pub fn new(question: impl Into<String>) -> Self {
        AnswerRequest {
            question: question.into(),
            ..Default::default()
        }
    }

    /// Target a registered KG by name.
    pub fn on_kg(mut self, kg: impl Into<String>) -> Self {
        self.kg = Some(kg.into());
        self
    }

    /// Bound the request's wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach per-request configuration overrides.
    pub fn with_overrides(mut self, overrides: ConfigOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Attach a client-supplied request id.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }
}

/// Provenance of an answer set: which KG contributed, the epoch it served,
/// how long it took, and how much plan work its engine reported.
///
/// Single-KG responses carry exactly one source; the federation layer
/// merges answers from several KGs and attaches one entry per KG that
/// contributed to the merged set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSource {
    /// The registered KG name.
    pub kg: String,
    /// The epoch the KG was serving, when its endpoint exposes one.
    pub epoch: Option<u64>,
    /// Wall-clock time this KG's pipeline run took.
    pub elapsed: Duration,
    /// Total index/text rows the KG's engine scanned across the executed
    /// candidate queries (0 when the endpoint exposes no metrics).
    pub plan_rows: u64,
}

/// Everything the service reports for one answered request: the
/// per-request envelope around the [`PipelineTrace`] the run produced.
#[derive(Debug, Clone)]
pub struct AnswerResponse {
    /// The request id (client-supplied or service-assigned).
    pub request_id: String,
    /// The name of the KG that answered.
    pub kg: String,
    /// The question as asked.
    pub question: String,
    /// Whether the deadline cut the pipeline short.
    pub verdict: BudgetVerdict,
    /// Wall-clock time the request spent in the pipeline.
    pub elapsed: Duration,
    /// Cumulative request statistics of the answering endpoint, snapshotted
    /// when this request finished (cumulative across all requests the
    /// endpoint has served, not just this one).  Semantic-cache counters
    /// are read from [`QaService::cache_report`].
    pub endpoint_stats: RequestStats,
    /// Provenance: the KG(s) whose evidence produced the answers — one
    /// entry on the single-KG paths, one per contributing KG on federated
    /// responses.
    pub sources: Vec<AnswerSource>,
    /// Ranking score per answer, parallel to [`AnswerResponse::answers`]:
    /// the best Equation-2 query score that produced the term.
    pub answer_scores: Vec<f64>,
    /// Every stage's artifact and wall-clock timing: the understanding, the
    /// AGP and ranked candidates, the per-candidate execution statistics,
    /// the answers before and after filtration.
    pub trace: PipelineTrace,
}

impl AnswerResponse {
    /// True if the deadline expired before the pipeline completed.
    pub fn is_partial(&self) -> bool {
        self.verdict.is_partial()
    }

    /// The final (post-filtration) answers.
    pub fn answers(&self) -> &[Term] {
        &self.trace.filtered.answers
    }

    /// The Boolean verdict, for yes/no questions.
    pub fn boolean(&self) -> Option<bool> {
        self.trace.execution.boolean
    }
}

/// Aggregated semantic-cache statistics of a service: one entry per cached
/// KG namespace, sorted by KG name.  One request's cache activity is
/// [`CacheStats::since`] over two reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Per-KG namespace counter snapshots.
    pub per_kg: Vec<(String, CacheStats)>,
}

impl CacheReport {
    /// A report over a set of per-KG snapshots.
    pub(crate) fn new(per_kg: Vec<(String, CacheStats)>) -> Self {
        CacheReport { per_kg }
    }

    /// The snapshot of one KG's namespace, if that KG is cached.
    pub fn kg(&self, name: &str) -> Option<&CacheStats> {
        self.per_kg
            .iter()
            .find(|(kg, _)| kg == name)
            .map(|(_, stats)| stats)
    }

    /// Counters summed across every namespace.
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, stats) in &self.per_kg {
            total.merge(stats);
        }
        total
    }

    /// True when the service runs uncached (no namespaces at all).
    pub fn is_uncached(&self) -> bool {
        self.per_kg.is_empty()
    }
}

/// Everything a pipeline run needs, shared by every service clone and by
/// the helper jobs of a batch.
struct ServiceInner {
    understanding: Arc<QuestionUnderstanding>,
    pipeline: Pipeline,
    config: KgqanConfig,
    registry: EndpointRegistry,
    default_kg: Option<String>,
    next_request_id: AtomicU64,
    /// See [`QaServiceBuilder::workers`].
    workers: usize,
    /// Pipelines running right now on any thread — the callers of
    /// [`QaService::answer`] and the legs of every batch.  A serving layer
    /// bounds the same number by `workers`, so a batch reads it to see how
    /// many workers nobody is using.
    in_flight: AtomicUsize,
}

/// A concurrent, multi-KG question-answering service.
///
/// Cloning is cheap (one `Arc` bump) and every clone shares the same
/// trained models, configuration, endpoint registry and cache namespaces,
/// so one service can be handed to any number of threads.  See the
/// [module docs](self) for the request / response model.
#[derive(Clone)]
pub struct QaService {
    inner: Arc<ServiceInner>,
}

impl QaService {
    /// Start building a service.
    pub fn builder() -> QaServiceBuilder {
        QaServiceBuilder::new()
    }

    /// The service-wide configuration (requests may override parts of it).
    pub fn config(&self) -> &KgqanConfig {
        &self.inner.config
    }

    /// The registry of KGs this service can answer from.
    pub fn registry(&self) -> &EndpointRegistry {
        &self.inner.registry
    }

    /// Names of the registered KGs, sorted.
    pub fn kg_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// The shared trained question-understanding component.
    pub fn understanding(&self) -> &Arc<QuestionUnderstanding> {
        &self.inner.understanding
    }

    /// The staged pipeline the service runs requests through.
    pub fn pipeline(&self) -> &Pipeline {
        &self.inner.pipeline
    }

    /// Per-KG semantic-cache statistics (empty when the cache layer is
    /// disabled).
    pub fn cache_report(&self) -> CacheReport {
        CacheReport::new(self.inner.registry.cache_stats())
    }

    /// Flush the cache namespace of one registered KG.  Returns true if the
    /// KG exists and is cached.
    pub fn invalidate_cache(&self, kg: &str) -> bool {
        self.inner.registry.invalidate_cache(kg)
    }

    /// How many pipelines the service expects to run at once
    /// ([`QaServiceBuilder::workers`]) — what a serving layer sizes its
    /// admission to.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Ingest a batch of new triples into one registered KG's live store.
    ///
    /// The batch is applied atomically by the KG's writer and published as a
    /// new epoch snapshot; requests already in flight keep the epoch they
    /// pinned, requests arriving after this call returns see the new data.
    /// On a cached service the KG's namespace is *scope*-invalidated: only
    /// cached probes and candidate results the added triples could have
    /// changed are evicted, everything else stays warm.  Fails with
    /// [`KgqanError`] wrapping [`kgqan_endpoint::EndpointError`] when the KG
    /// is unknown or its endpoint is read-only.
    pub fn ingest(
        &self,
        kg: &str,
        batch: kgqan_rdf::IngestBatch,
    ) -> Result<kgqan_rdf::IngestReport, KgqanError> {
        Ok(self.inner.registry.ingest(kg, batch)?)
    }

    /// Answer one request against its registered target KG, on the calling
    /// thread.
    pub fn answer(&self, request: AnswerRequest) -> Result<AnswerResponse, KgqanError> {
        self.inner.serve(request, Pipeline::run)
    }

    /// Answer a batch of requests; responses come back in request order.
    ///
    /// **Who runs a leg.**  The legs sit behind one shared cursor.  The
    /// calling thread claims and runs legs itself until none is left, and
    /// then waits only for legs a helper has claimed and not yet finished —
    /// never for a helper that has not started.  Which thread ran which leg
    /// shows nowhere in the responses.
    ///
    /// **When helpers are enlisted.**  Before it starts, the caller submits
    /// at most `min(legs − 1, workers − 1 − pipelines in flight)` helper
    /// jobs to the process's shared pool ([`WorkerPool::shared`]): one
    /// worker is the caller itself, and the pipelines other threads are
    /// running right now — [`QaService::answer`] callers, legs of other
    /// batches — already occupy theirs.  On an idle service the legs of a
    /// batch overlap, so one slow KG does not serialise the rest; on a
    /// saturated one a batch crosses no thread at all, because a leg handed
    /// to a busy box costs more than running it.  A helper the pool's
    /// bounded queue refuses just means fewer helpers: a batch of any size
    /// always answers every leg.
    ///
    /// **Understanding is shared.**  Each distinct question text in the
    /// batch is understood once, by whichever thread first claims a leg
    /// asking it, and every leg asking it runs link → execute → filter over
    /// the same `Arc<Understanding>`.  The leg that ran the stage reports
    /// its time in `trace.timings.understand`; a leg that reused the result
    /// reports zero.  A question that cannot be understood fails every leg
    /// asking it with the same [`KgqanError::UnderstandingFailed`].
    ///
    /// Each request runs under its own `deadline` only, counted from the
    /// moment its leg is claimed — a caller fanning one budget out stamps
    /// every request with its share ([`Budget::split`]), so legs that run
    /// one after another on the caller stay inside the whole.  The legs
    /// share the per-KG cache namespaces, so overlapping requests in one
    /// batch hit each other's probe results.  A leg whose pipeline panics
    /// is that leg's `Err`, whichever thread ran it.
    ///
    /// Batch responses come back with `trace.linked.candidates` empty (see
    /// `Batch::run_leg`); `trace.execution.query_stats` still lists every
    /// candidate that was executed.
    pub fn answer_batch(
        &self,
        requests: &[AnswerRequest],
    ) -> Vec<Result<AnswerResponse, KgqanError>> {
        let batch = Batch::new(Arc::clone(&self.inner), requests);
        let spare =
            (self.inner.workers - 1).saturating_sub(self.inner.in_flight.load(Ordering::Relaxed));
        WorkerPool::shared()
            .claim_all(requests.len(), spare, move |leg| {
                // A panicking stage costs its own leg only, whichever
                // thread claimed it.
                let output =
                    catch_unwind(AssertUnwindSafe(|| batch.run_leg(leg))).unwrap_or_else(|_| {
                        Err(KgqanError::Configuration(
                            "pipeline panicked while answering the request".into(),
                        ))
                    });
                ControlFlow::Continue(output)
            })
            .into_iter()
            .map(|output| {
                // The closure above neither closes the cursor nor unwinds.
                output.expect("every leg of a batch is claimed and run").1
            })
            .collect()
    }
}

impl ServiceInner {
    /// Resolve which registered KG a request targets: the request's explicit
    /// choice, else the configured default, else the sole registered
    /// endpoint.
    fn resolve_kg(&self, request: &AnswerRequest) -> Result<String, KgqanError> {
        if let Some(kg) = &request.kg {
            return Ok(kg.clone());
        }
        if let Some(default) = &self.default_kg {
            return Ok(default.clone());
        }
        let names = self.registry.names();
        match names.as_slice() {
            [only] => Ok(only.clone()),
            [] => Err(KgqanError::Configuration(
                "request names no KG and the service has no registered endpoints".into(),
            )),
            _ => Err(KgqanError::Configuration(format!(
                "request names no KG and the service has no default (registered: {})",
                names.join(", ")
            ))),
        }
    }

    /// The one function every pipeline run passes through, a lone
    /// [`QaService::answer`] and a batch leg alike: resolve the request's
    /// endpoint, configuration and budget, let `run` drive the pipeline in
    /// that context, and wrap the trace in the response envelope.  The run
    /// counts as in flight for as long as this function is on the stack.
    fn serve(
        &self,
        request: AnswerRequest,
        run: impl FnOnce(&Pipeline, &str, &StageContext<'_>) -> Result<PipelineTrace, KgqanError>,
    ) -> Result<AnswerResponse, KgqanError> {
        struct InFlight<'a>(&'a AtomicUsize);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlight(&self.in_flight);

        let kg = self.resolve_kg(&request)?;
        let endpoint = self.registry.get(&kg)?;
        let config = request.overrides.apply(&self.config);
        let budget = Budget::start(request.deadline);
        let request_id = request.id.unwrap_or_else(|| {
            format!(
                "req-{}",
                self.next_request_id.fetch_add(1, Ordering::Relaxed)
            )
        });

        let ctx = StageContext::new(endpoint.as_ref(), &budget, &config);
        let trace = run(&self.pipeline, &request.question, &ctx)?;
        let elapsed = budget.elapsed();

        // Per-answer ranking scores: the best Equation-2 score among the
        // executed queries that produced each filtered answer.
        let mut best_score: HashMap<&Term, f64> = HashMap::new();
        for collected in &trace.execution.answers {
            let best = best_score.entry(&collected.answer).or_insert(0.0);
            *best = best.max(f64::from(collected.query_score));
        }
        let answer_scores = trace
            .filtered
            .answers
            .iter()
            .map(|term| best_score.get(term).copied().unwrap_or(0.0))
            .collect();
        Ok(AnswerResponse {
            request_id,
            question: request.question,
            verdict: if trace.deadline_exceeded() {
                BudgetVerdict::Partial
            } else {
                BudgetVerdict::Completed
            },
            elapsed,
            endpoint_stats: endpoint.stats(),
            sources: vec![AnswerSource {
                kg: kg.clone(),
                epoch: endpoint.describe().map(|d| d.epoch),
                elapsed,
                plan_rows: trace.rows_scanned(),
            }],
            answer_scores,
            kg,
            trace,
        })
    }
}

/// What one leg of a batch produced.
type LegOutput = Result<AnswerResponse, KgqanError>;

/// What the legs of one [`QaService::answer_batch`] call share.  Everything
/// is owned, so the same value serves the calling thread and the `'static`
/// helper jobs on the pool.
struct Batch {
    service: Arc<ServiceInner>,
    requests: Vec<AnswerRequest>,
    /// Per leg, the index of the first leg asking the same question text:
    /// the slot of `understood` the leg shares.
    first_asker: Vec<usize>,
    /// One slot per distinct question (at its first asker's index), filled
    /// by whichever thread first runs a leg that needs it.
    understood: Vec<OnceLock<Result<Arc<Understanding>, KgqanError>>>,
}

impl Batch {
    fn new(service: Arc<ServiceInner>, requests: &[AnswerRequest]) -> Batch {
        let mut seen = HashMap::with_capacity(requests.len());
        Batch {
            service,
            first_asker: requests
                .iter()
                .enumerate()
                .map(|(leg, request)| *seen.entry(request.question.as_str()).or_insert(leg))
                .collect(),
            understood: requests.iter().map(|_| OnceLock::new()).collect(),
            requests: requests.to_vec(),
        }
    }

    /// One leg: link → execute → filter over the batch's shared
    /// understanding of the leg's question.
    ///
    /// The generated candidate list is dropped here, by the thread that
    /// built it.  It is the one artifact nothing reads after execution and
    /// it is hundreds of small allocations per leg (text, AST and BGP of
    /// every candidate); letting it ride in the response, to be freed by
    /// the thread that collects the batch, cost the `federate_hot` workload
    /// 23 % of its throughput when legs ran on other threads.
    fn run_leg(&self, leg: usize) -> LegOutput {
        let shared = &self.understood[self.first_asker[leg]];
        self.service
            .serve(self.requests[leg].clone(), |pipeline, question, ctx| {
                let mut understand_time = Duration::ZERO;
                let understanding = shared
                    .get_or_init(|| {
                        let started = Instant::now();
                        let understanding = pipeline.understand(question);
                        understand_time = started.elapsed();
                        understanding
                    })
                    .clone()?;
                let mut trace = pipeline.run_understood(understanding, ctx)?;
                trace.timings.understand = understand_time;
                trace.linked.candidates = Vec::new();
                Ok(trace)
            })
    }
}

/// Builder for [`QaService`].
///
/// ```
/// use std::sync::Arc;
/// use kgqan::service::QaService;
/// use kgqan_endpoint::InProcessEndpoint;
/// use kgqan_rdf::Store;
///
/// let service = QaService::builder()
///     .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())))
///     .endpoint(Arc::new(InProcessEndpoint::new("MAG", Store::new())))
///     .default_kg("DBpedia")
///     .build()
///     .unwrap();
/// assert_eq!(service.kg_names(), vec!["DBpedia", "MAG"]);
/// // Registered KGs are served through per-KG cache namespaces by default.
/// assert_eq!(service.cache_report().per_kg.len(), 2);
/// ```
pub struct QaServiceBuilder {
    config: KgqanConfig,
    understanding: Option<Arc<QuestionUnderstanding>>,
    pipeline: Option<Pipeline>,
    registry: Option<EndpointRegistry>,
    pending_endpoints: Vec<Arc<dyn SparqlEndpoint>>,
    cache: Option<CacheConfig>,
    default_kg: Option<String>,
    workers: usize,
}

impl QaServiceBuilder {
    fn new() -> Self {
        QaServiceBuilder {
            config: KgqanConfig::default(),
            understanding: None,
            pipeline: None,
            registry: None,
            pending_endpoints: Vec::new(),
            cache: Some(CacheConfig::default()),
            default_kg: None,
            // A request's wall-clock is mostly endpoint round-trips, which
            // overlap even on one core.
            workers: 4,
        }
    }

    /// Use this service-wide configuration (requests may override the
    /// runtime knobs per call).
    pub fn config(mut self, config: KgqanConfig) -> Self {
        self.config = config;
        self
    }

    /// Reuse an already-trained question-understanding component instead of
    /// training one during `build()`.
    pub fn understanding(mut self, understanding: QuestionUnderstanding) -> Self {
        self.understanding = Some(Arc::new(understanding));
        self
    }

    /// Share a trained question-understanding component with other services.
    pub fn shared_understanding(mut self, understanding: Arc<QuestionUnderstanding>) -> Self {
        self.understanding = Some(understanding);
        self
    }

    /// Run requests through a custom staged [`Pipeline`] instead of the
    /// default KGQAn stages (see [`crate::pipeline`]).  The builder's
    /// understanding component still backs [`QaService::understanding`].
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Register an endpoint under its own name.
    pub fn endpoint(mut self, endpoint: Arc<dyn SparqlEndpoint>) -> Self {
        self.pending_endpoints.push(endpoint);
        self
    }

    /// Use an already-populated registry (replaces endpoints registered so
    /// far on this builder, and that registry's own cache setting wins over
    /// [`QaServiceBuilder::cache`]).
    pub fn registry(mut self, registry: EndpointRegistry) -> Self {
        self.registry = Some(registry);
        self.pending_endpoints.clear();
        self
    }

    /// Configure the per-KG semantic-cache capacities (caching is on by
    /// default).
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Serve every request straight from the endpoints, with no semantic
    /// cache in front of them.
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Name the KG that requests without an explicit target answer from.
    pub fn default_kg(mut self, name: impl Into<String>) -> Self {
        self.default_kg = Some(name.into());
        self
    }

    /// How many pipelines the service expects to run at once (four unless
    /// set; at least one).
    ///
    /// The HTTP front-end admits that many, and a
    /// [`QaService::answer_batch`] (and so every federated question)
    /// enlists helpers from the process's shared pool only for the workers
    /// not running a pipeline already.  The service starts and owns no
    /// thread: building it only asks the shared pool
    /// ([`WorkerPool::want_workers`]) to be at least this wide once
    /// something fans out.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Build the service, training the understanding models if none were
    /// supplied (takes a moment).
    ///
    /// Fails with [`KgqanError::Configuration`] if the default KG names an
    /// unregistered endpoint.
    pub fn build(self) -> Result<QaService, KgqanError> {
        let mut registry = self.registry.unwrap_or_else(|| match self.cache {
            Some(config) => EndpointRegistry::with_cache(config),
            None => EndpointRegistry::new(),
        });
        for endpoint in self.pending_endpoints {
            registry.register(endpoint);
        }
        if let Some(default) = &self.default_kg {
            if !registry.contains(default) {
                return Err(KgqanError::Configuration(format!(
                    "default KG {default:?} is not registered (registered: {})",
                    registry.names().join(", ")
                )));
            }
        }
        let understanding = self.understanding.unwrap_or_else(|| {
            Arc::new(QuestionUnderstanding::train_with_variant(
                self.config.seq2seq,
            ))
        });
        let pipeline = self.pipeline.unwrap_or_else(|| {
            let affinity: Arc<dyn SemanticAffinity> = Arc::from(self.config.affinity.build());
            Pipeline::kgqan(Arc::clone(&understanding), affinity)
        });
        WorkerPool::shared().want_workers(self.workers);
        Ok(QaService {
            inner: Arc::new(ServiceInner {
                understanding,
                pipeline,
                config: self.config,
                registry,
                default_kg: self.default_kg,
                next_request_id: AtomicU64::new(0),
                workers: self.workers,
                in_flight: AtomicUsize::new(0),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Triple};

    fn spouse_store() -> Store {
        let mut store = Store::new();
        let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
        let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        store.insert_all([
            Triple::new(
                obama.clone(),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str("Barack Obama"),
            ),
            Triple::new(
                michelle.clone(),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str("Michelle Obama"),
            ),
            Triple::new(
                obama,
                Term::iri("http://dbpedia.org/ontology/spouse"),
                michelle,
            ),
        ]);
        store
    }

    fn service_with_one_kg() -> QaService {
        QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
            .build()
            .unwrap()
    }

    #[test]
    fn single_kg_response_carries_provenance() {
        let service = service_with_one_kg();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert_eq!(response.sources.len(), 1);
        let source = &response.sources[0];
        assert_eq!(source.kg, "DBpedia");
        assert_eq!(source.epoch, Some(0));
        assert!(source.plan_rows > 0, "in-process engine reports scan work");
        assert!(source.elapsed > Duration::ZERO);
        // One ranking score per answer, all positive.
        assert_eq!(response.answer_scores.len(), response.answers().len());
        assert!(!response.answer_scores.is_empty());
        assert!(response.answer_scores.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn overrides_apply_over_base_config() {
        let base = KgqanConfig::default();
        assert_eq!(ConfigOverrides::none().apply(&base), base);

        let overridden = ConfigOverrides {
            max_candidate_queries: Some(7),
            filtration_enabled: Some(false),
            ..Default::default()
        }
        .apply(&base);
        assert_eq!(overridden.max_candidate_queries, 7);
        assert!(!overridden.filtration_enabled);
        // Untouched knobs keep the base values.
        assert_eq!(overridden.linker, base.linker);
        assert_eq!(
            overridden.max_productive_queries,
            base.max_productive_queries
        );
        assert_eq!(overridden.affinity, base.affinity);
    }

    #[test]
    fn builder_rejects_unregistered_default_kg() {
        let err = QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())))
            .default_kg("YAGO")
            .build()
            .map(|_| ())
            .unwrap_err();
        let KgqanError::Configuration(msg) = err else {
            panic!("expected Configuration error, got {err:?}");
        };
        assert!(msg.contains("YAGO"));
        assert!(msg.contains("DBpedia"));
    }

    #[test]
    fn sole_endpoint_is_the_implicit_default() {
        let service = service_with_one_kg();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert_eq!(response.kg, "DBpedia");
        assert_eq!(response.verdict, BudgetVerdict::Completed);
        assert!(!response.is_partial());
        assert!(response
            .answers()
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));
        assert!(!response.trace.execution.query_stats.is_empty());
        assert!(response.endpoint_stats.total_requests > 0);
    }

    #[test]
    fn ingest_updates_the_live_kg_and_subsequent_answers() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Donald Trump?";
        // Before the ingest the KG knows nothing about the subject.
        let before = service.answer(AnswerRequest::new(question)).unwrap();
        assert!(before.answers().is_empty());

        let trump = Term::iri("http://dbpedia.org/resource/Donald_Trump");
        let melania = Term::iri("http://dbpedia.org/resource/Melania_Trump");
        let report = service
            .ingest(
                "DBpedia",
                kgqan_rdf::IngestBatch::new()
                    .with(Triple::new(
                        trump.clone(),
                        Term::iri(vocab::RDFS_LABEL),
                        Term::literal_str("Donald Trump"),
                    ))
                    .with(Triple::new(
                        melania.clone(),
                        Term::iri(vocab::RDFS_LABEL),
                        Term::literal_str("Melania Trump"),
                    ))
                    .with(Triple::new(
                        trump,
                        Term::iri("http://dbpedia.org/ontology/spouse"),
                        melania,
                    )),
            )
            .unwrap();
        assert_eq!(report.added(), 3);
        assert_eq!(report.epoch(), 1);

        // The same question now finds the freshly ingested facts.
        let after = service.answer(AnswerRequest::new(question)).unwrap();
        assert!(after
            .answers()
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Melania_Trump")));

        // Unknown KGs fail cleanly.
        assert!(service
            .ingest("YAGO", kgqan_rdf::IngestBatch::new())
            .is_err());
    }

    #[test]
    fn requests_without_kg_fail_on_ambiguous_registry() {
        let understanding = service_with_one_kg().understanding().clone();
        let service = QaService::builder()
            .shared_understanding(understanding)
            .endpoint(Arc::new(InProcessEndpoint::new("A", Store::new())))
            .endpoint(Arc::new(InProcessEndpoint::new("B", Store::new())))
            .build()
            .unwrap();
        let err = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, KgqanError::Configuration(_)));
        assert!(err.to_string().contains("A, B"));
    }

    #[test]
    fn unknown_kg_error_lists_registered_names() {
        let service = service_with_one_kg();
        let err = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("YAGO"))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, KgqanError::Endpoint(_)));
        assert!(err.to_string().contains("DBpedia"));
    }

    #[test]
    fn service_assigns_sequential_request_ids_and_echoes_client_ids() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Barack Obama?";
        let a = service.answer(AnswerRequest::new(question)).unwrap();
        let b = service.answer(AnswerRequest::new(question)).unwrap();
        assert_ne!(a.request_id, b.request_id);
        let c = service
            .answer(AnswerRequest::new(question).with_id("client-7"))
            .unwrap();
        assert_eq!(c.request_id, "client-7");
    }

    #[test]
    fn zero_deadline_yields_flagged_partial_response() {
        let service = service_with_one_kg();
        let response = service
            .answer(
                AnswerRequest::new("Who is the wife of Barack Obama?")
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(response.is_partial());
        assert_eq!(response.verdict, BudgetVerdict::Partial);
        // Nothing was linked or executed, so there is nothing to answer —
        // but the request *returned* instead of running the full pipeline.
        assert!(response.answers().is_empty());
        assert!(response.trace.execution.query_stats.is_empty());
    }

    #[test]
    fn batches_answer_like_answer_however_many_helpers_there_are() {
        let understanding = service_with_one_kg().understanding().clone();
        let question = "Who is the wife of Barack Obama?";
        // More legs than any helper count below.
        let requests: Vec<AnswerRequest> = (0..6)
            .map(|i| AnswerRequest::new(question).with_id(format!("r{i}")))
            .collect();
        // Unset is four workers: an idle service enlists three helpers for
        // six legs.  One worker is the caller itself: no helper at all.
        for workers in [None, Some(1)] {
            let mut builder = QaService::builder()
                .shared_understanding(understanding.clone())
                .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())));
            if let Some(workers) = workers {
                builder = builder.workers(workers);
            }
            let service = builder.build().unwrap();
            assert_eq!(service.workers(), workers.unwrap_or(4));
            let direct = service.answer(AnswerRequest::new(question)).unwrap();

            // The second batch finds the caches warm and the pool started.
            for _ in 0..2 {
                let responses = service.answer_batch(&requests);
                assert_eq!(responses.len(), requests.len());
                for (i, response) in responses.iter().enumerate() {
                    let response = response.as_ref().unwrap();
                    assert_eq!(response.request_id, format!("r{i}"));
                    assert_eq!(response.answers(), direct.answers());
                    assert_eq!(response.answer_scores, direct.answer_scores);
                    // A leg leaves its candidate list on the thread that
                    // built it; what was executed still rides in the trace.
                    assert!(response.trace.linked.candidates.is_empty());
                    assert_eq!(
                        response.trace.execution.executed_queries(),
                        direct.trace.execution.executed_queries()
                    );
                }
            }
            assert_eq!(service.inner.in_flight.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn answer_batch_preserves_request_order() {
        let service = service_with_one_kg();
        let requests = vec![
            AnswerRequest::new("Who is the wife of Barack Obama?").with_id("first"),
            AnswerRequest::new("Who is the wife of Barack Obama?").with_id("second"),
            AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("Nope"),
        ];
        let responses = service.answer_batch(&requests);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].as_ref().unwrap().request_id, "first");
        assert_eq!(responses[1].as_ref().unwrap().request_id, "second");
        assert!(responses[2].is_err());
        assert!(service.answer_batch(&[]).is_empty());
    }

    #[test]
    fn repeated_questions_hit_the_kg_cache() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Barack Obama?";
        let cache = || service.cache_report().total();

        let cold = service.answer(AnswerRequest::new(question)).unwrap();
        let after_cold = cache();
        assert_eq!(after_cold.hits, 0);
        assert!(after_cold.misses > 0, "cold request must probe the KG");

        let warm = service.answer(AnswerRequest::new(question)).unwrap();
        let warm_delta = cache().since(&after_cold);
        assert!(warm_delta.hits > 0, "repeat must hit the cache");
        assert_eq!(warm_delta.misses, 0, "warm repeat must not re-probe");
        // The warm request reached the engine zero times.
        assert_eq!(
            warm.endpoint_stats.total_requests,
            cold.endpoint_stats.total_requests
        );
        // Identical answers either way.
        assert_eq!(warm.answers(), cold.answers());
        // The per-KG report sees the same counters.
        let report = service.cache_report();
        assert_eq!(report.per_kg.len(), 1);
        assert_eq!(report.kg("DBpedia").unwrap().hits, warm_delta.hits);

        // Invalidation flushes the namespace: the next request misses again.
        assert!(service.invalidate_cache("DBpedia"));
        let before = cache();
        let after = service.answer(AnswerRequest::new(question)).unwrap();
        assert!(cache().since(&before).misses > 0);
        assert_eq!(after.answers(), cold.answers());
    }

    #[test]
    fn no_cache_builder_disables_the_layer() {
        let understanding = service_with_one_kg().understanding().clone();
        let service = QaService::builder()
            .shared_understanding(understanding)
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
            .no_cache()
            .build()
            .unwrap();
        assert!(service.cache_report().is_uncached());
        let question = "Who is the wife of Barack Obama?";
        let first = service.answer(AnswerRequest::new(question)).unwrap();
        let second = service.answer(AnswerRequest::new(question)).unwrap();
        assert_eq!(service.cache_report().total(), CacheStats::default());
        assert_eq!(service.cache_report().total().hits, 0);
        // Without the cache the repeat re-probes the endpoint.
        assert!(second.endpoint_stats.total_requests > first.endpoint_stats.total_requests);
        assert!(!service.invalidate_cache("DBpedia"));
    }

    #[test]
    fn responses_own_every_stage_artifact_and_timing() {
        let service = service_with_one_kg();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert_eq!(response.question, "Who is the wife of Barack Obama?");
        assert!(!response.trace.understanding.pgp.is_empty());
        assert!(!response.trace.linked.candidates.is_empty());
        assert!(!response.trace.execution.query_stats.is_empty());
        assert_eq!(response.answers(), response.trace.filtered.answers);
        assert_eq!(response.boolean(), None);
        assert!(response.elapsed >= response.trace.timings.total());
    }

    /// A small DBpedia-like knowledge graph covering the paper's questions.
    fn dbpedia_endpoint() -> InProcessEndpoint {
        let mut store = spouse_store();
        let label = Term::iri(vocab::RDFS_LABEL);
        let rdf_type = Term::iri(vocab::RDF_TYPE);

        let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
        let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let person = Term::iri("http://dbpedia.org/ontology/Person");

        store.insert_all([
            Triple::new(
                Term::iri("http://dbpedia.org/resource/Chicago"),
                label.clone(),
                Term::literal_str("Chicago"),
            ),
            Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
            Triple::new(
                straits.clone(),
                label.clone(),
                Term::literal_str("Danish Straits"),
            ),
            Triple::new(kali.clone(), label, Term::literal_str("Kaliningrad")),
            Triple::new(
                obama.clone(),
                Term::iri("http://dbpedia.org/ontology/birthPlace"),
                Term::iri("http://dbpedia.org/resource/Honolulu"),
            ),
            Triple::new(obama, rdf_type.clone(), person.clone()),
            Triple::new(michelle, rdf_type.clone(), person),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/property/outflow"),
                straits,
            ),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/ontology/nearestCity"),
                kali.clone(),
            ),
            Triple::new(
                sea,
                rdf_type.clone(),
                Term::iri("http://dbpedia.org/ontology/Sea"),
            ),
            Triple::new(
                kali,
                rdf_type,
                Term::iri("http://dbpedia.org/ontology/City"),
            ),
        ]);
        InProcessEndpoint::new("DBpedia", store)
    }

    fn dbpedia_service() -> &'static QaService {
        static SERVICE: OnceLock<QaService> = OnceLock::new();
        SERVICE.get_or_init(|| {
            QaService::builder()
                .endpoint(Arc::new(dbpedia_endpoint()))
                .build()
                .unwrap()
        })
    }

    #[test]
    fn answers_single_fact_question() {
        let response = dbpedia_service()
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert!(
            response
                .answers()
                .iter()
                .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")),
            "expected Michelle Obama among answers, got {:?}",
            response.answers()
        );
        assert!(!response.trace.execution.query_stats.is_empty());
        assert!(response.trace.timings.total() > Duration::ZERO);
    }

    #[test]
    fn answers_running_example_with_baltic_sea() {
        let response = dbpedia_service()
            .answer(AnswerRequest::new(
                "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore",
            ))
            .unwrap();
        assert!(
            response
                .answers()
                .iter()
                .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Baltic_Sea")),
            "expected Baltic Sea, got {:?}",
            response.answers()
        );
        let understanding = &response.trace.understanding;
        assert_eq!(
            understanding.answer_type.data_type,
            kgqan_nlp::AnswerDataType::String
        );
        assert!(understanding.pgp.num_triples() >= 2);
    }

    #[test]
    fn unknown_entity_produces_empty_but_not_error() {
        let response = dbpedia_service()
            .answer(AnswerRequest::new("Who is the wife of Zorblax Qwertyius?"))
            .unwrap();
        assert!(response.answers().is_empty());
        assert!(!response.is_partial());
    }

    #[test]
    fn filtration_toggle_affects_answers() {
        let service = QaService::builder()
            .shared_understanding(dbpedia_service().understanding().clone())
            .config(KgqanConfig {
                filtration_enabled: false,
                ..KgqanConfig::default()
            })
            .endpoint(Arc::new(dbpedia_endpoint()))
            .build()
            .unwrap();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        // Without filtration every collected answer is returned.
        assert_eq!(response.answers(), response.trace.filtered.unfiltered);
        assert!(!response.answers().is_empty());
        assert!(!service.config().filtration_enabled);
    }

    #[test]
    fn timings_are_recorded_per_stage() {
        let response = dbpedia_service()
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        let t = response.trace.timings;
        assert!(t.total() >= t.understand);
        assert!(t.total() >= t.link);
        assert!(t.total() >= t.execute + t.filter);
        assert_eq!(t.total(), t.understand + t.link + t.execute + t.filter);
    }

    fn cache_stats(hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            insertions: misses,
            ..CacheStats::default()
        }
    }

    #[test]
    fn cache_report_aggregates_namespaces() {
        let report = CacheReport::new(vec![
            ("DBpedia".to_string(), cache_stats(8, 2)),
            ("MAG".to_string(), cache_stats(1, 3)),
        ]);
        assert!(!report.is_uncached());
        assert_eq!(report.kg("DBpedia").unwrap().hits, 8);
        assert!(report.kg("YAGO").is_none());
        let total = report.total();
        assert_eq!(total.hits, 9);
        assert_eq!(total.misses, 5);
        assert_eq!(total.insertions, 5);
        assert!((total.hit_rate() - 9.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_report_is_uncached() {
        let report = CacheReport::default();
        assert!(report.is_uncached());
        assert_eq!(report.total(), CacheStats::default());
    }
}
