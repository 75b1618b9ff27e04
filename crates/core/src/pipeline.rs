//! The staged answer pipeline: typed stage traits, typed artifacts, and the
//! [`Pipeline`] composer the serving layer is built on.
//!
//! KGQAn's online phase is a fixed sequence of four stages with typed
//! artifacts flowing between them:
//!
//! ```text
//! question ──Understand──▶ Understanding (PGP + answer type)
//!          ──Link────────▶ LinkedQuestion (AGP + ranked candidate queries)
//!          ──Execute─────▶ ExecutionOutcome (collected answers / verdict)
//!          ──Filter──────▶ FilteredAnswers (type-filtered answers)
//! ```
//!
//! Each stage is a trait ([`Understand`], [`Link`], [`Execute`],
//! [`Filter`]), so alternative implementations — a rule-based question
//! decomposer from the `kgqan-baselines` crate, a different execution
//! policy, a no-op filter — plug into the same composer.  The per-request
//! environment (target endpoint, time budget, effective configuration)
//! travels in a [`StageContext`] instead of being baked into the stages, so
//! one `Pipeline` instance serves any number of KGs and requests
//! concurrently.
//!
//! [`Pipeline::run`] returns a [`PipelineTrace`]: every intermediate
//! artifact plus per-stage wall-clock timings.  It is the door for a
//! *borrowed* endpoint; `QaService::answer` is the door for registered KGs
//! and moves the same trace into its response (`response.trace`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use kgqan_endpoint::SparqlEndpoint;
use kgqan_rdf::Term;

use crate::affinity::SemanticAffinity;
use crate::agp::AnnotatedGraphPattern;
use crate::bgp::{generate_candidate_queries, CandidateQuery};
use crate::config::{Budget, KgqanConfig};
use crate::error::KgqanError;
use crate::execution::{execute_candidates, ExecutionOutcome};
use crate::filter::filter_answers;
use crate::linker::{fresh_identity, JitLinker};
use crate::understanding::{QuestionUnderstanding, Understanding};

/// The per-request environment every stage runs in: the target endpoint,
/// the request's time budget, and the effective (override-resolved)
/// configuration.
#[derive(Clone, Copy)]
pub struct StageContext<'a> {
    /// The endpoint of the KG this request targets (possibly a
    /// `CachingEndpoint` handed out by the registry).
    pub endpoint: &'a dyn SparqlEndpoint,
    /// The request's time budget; stages check it between endpoint
    /// round-trips and degrade to best-so-far artifacts once it expires.
    pub budget: &'a Budget,
    /// The effective configuration (service config with per-request
    /// overrides applied).
    pub config: &'a KgqanConfig,
}

impl<'a> StageContext<'a> {
    /// Assemble a context.
    pub fn new(
        endpoint: &'a dyn SparqlEndpoint,
        budget: &'a Budget,
        config: &'a KgqanConfig,
    ) -> Self {
        StageContext {
            endpoint,
            budget,
            config,
        }
    }
}

/// Stage 1: turn a natural-language question into an [`Understanding`]
/// (phrase graph pattern + predicted answer type).
///
/// This stage is KG-independent, so it takes no [`StageContext`]; swapping
/// it exchanges the learned Seq2Seq-style model for e.g. the rule-based
/// decomposition of the baseline systems.
pub trait Understand: Send + Sync {
    /// Understand one question.
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError>;
}

/// The trained question-understanding component is the default
/// [`Understand`] stage.
impl Understand for QuestionUnderstanding {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        QuestionUnderstanding::understand(self, question)
    }
}

/// The artifact of the linking stage: the annotated graph pattern plus the
/// ranked candidate queries generated from it.
#[derive(Debug, Clone)]
pub struct LinkedQuestion {
    /// The (possibly partially) annotated graph pattern.
    pub agp: AnnotatedGraphPattern,
    /// Ranked candidate SPARQL queries generated from the AGP.
    pub candidates: Vec<CandidateQuery>,
    /// True if every PGP node and edge was probed within the budget.
    pub completed: bool,
}

/// Stage 2: annotate the PGP against the target KG and generate the ranked
/// candidate queries.
pub trait Link: Send + Sync {
    /// Link one understood question against `ctx.endpoint`.
    fn link(
        &self,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> Result<LinkedQuestion, KgqanError>;
}

/// Stage 3: execute candidate queries and collect answers.
pub trait Execute: Send + Sync {
    /// Execute the linked question's candidates against `ctx.endpoint`.
    fn execute(
        &self,
        linked: &LinkedQuestion,
        ctx: &StageContext<'_>,
    ) -> Result<ExecutionOutcome, KgqanError>;
}

/// The artifact of the filtration stage.
#[derive(Debug, Clone)]
pub struct FilteredAnswers {
    /// The final answers (post-filtration when it ran).
    pub answers: Vec<Term>,
    /// The deduplicated answers before filtration (the Figure 10
    /// comparison point).
    pub unfiltered: Vec<Term>,
    /// True if filtration was enabled but skipped because the budget
    /// expired — `answers` then equals `unfiltered`.
    pub skipped: bool,
}

/// Stage 4: post-filter collected answers by the predicted answer type.
///
/// Filtration is local (no endpoint round-trips) and infallible: a filter
/// that cannot decide keeps the answer, so the stage returns artifacts, not
/// `Result`s.
pub trait Filter: Send + Sync {
    /// Filter the execution outcome of one question.
    fn filter(
        &self,
        execution: &ExecutionOutcome,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> FilteredAnswers;
}

/// The default [`Link`] stage: just-in-time entity/relation linking
/// (Algorithms 1 and 2) followed by candidate-query generation
/// (Algorithm 3), both driven by `ctx.config`.
///
/// Every request's linker carries the stage's identity, so a vertex probe
/// served from the endpoint cache is ranked once per stage, label and
/// `num_vertices` (see [`crate::linker`]).
pub struct JitLinkStage {
    affinity: Arc<dyn SemanticAffinity>,
    identity: u64,
}

impl JitLinkStage {
    /// Create the stage around a shared semantic-affinity model.
    pub fn new(affinity: Arc<dyn SemanticAffinity>) -> Self {
        JitLinkStage {
            affinity,
            identity: fresh_identity(),
        }
    }
}

impl Link for JitLinkStage {
    fn link(
        &self,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> Result<LinkedQuestion, KgqanError> {
        let linker =
            JitLinker::with_identity(self.affinity.as_ref(), ctx.config.linker, self.identity);
        let outcome = linker.link(&understanding.pgp, ctx.endpoint, ctx.budget)?;
        let candidates = generate_candidate_queries(&outcome.agp, ctx.config.max_candidate_queries);
        Ok(LinkedQuestion {
            agp: outcome.agp,
            candidates,
            completed: outcome.completed,
        })
    }
}

/// The default [`Execute`] stage: rank-order execution that stops after
/// `ctx.config.max_productive_queries` productive candidates, or at the
/// first candidate scoring below 0.9 of the first productive one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagedExecution;

impl Execute for ManagedExecution {
    fn execute(
        &self,
        linked: &LinkedQuestion,
        ctx: &StageContext<'_>,
    ) -> Result<ExecutionOutcome, KgqanError> {
        execute_candidates(
            &linked.candidates,
            ctx.config.max_productive_queries,
            ctx.endpoint,
            ctx.budget,
        )
    }
}

/// The default [`Filter`] stage: answer-type filtration (§6), honouring the
/// config toggle and skipping wholesale once the budget is gone.
pub struct TypeFiltration {
    affinity: Arc<dyn SemanticAffinity>,
}

impl TypeFiltration {
    /// Create the stage around a shared semantic-affinity model.
    pub fn new(affinity: Arc<dyn SemanticAffinity>) -> Self {
        TypeFiltration { affinity }
    }
}

impl Filter for TypeFiltration {
    fn filter(
        &self,
        execution: &ExecutionOutcome,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> FilteredAnswers {
        let mut seen = std::collections::HashSet::new();
        let unfiltered: Vec<Term> = execution
            .answers
            .iter()
            .filter(|a| seen.insert(&a.answer))
            .map(|a| a.answer.clone())
            .collect();
        let skipped = ctx.config.filtration_enabled && ctx.budget.expired();
        let answers = if ctx.config.filtration_enabled && !skipped {
            filter_answers(
                self.affinity.as_ref(),
                &execution.answers,
                &understanding.answer_type,
            )
        } else {
            unfiltered.clone()
        };
        FilteredAnswers {
            answers,
            unfiltered,
            skipped,
        }
    }
}

/// Wall-clock time spent in each of the four pipeline stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Question understanding.
    pub understand: Duration,
    /// Linking and candidate generation.
    pub link: Duration,
    /// Candidate execution.
    pub execute: Duration,
    /// Answer filtration.
    pub filter: Duration,
}

impl StageTimings {
    /// Total time across the four stages.
    pub fn total(&self) -> Duration {
        self.understand + self.link + self.execute + self.filter
    }
}

/// Everything one [`Pipeline::run`] produced: the artifact of every stage
/// plus per-stage timings.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// The understanding artifact (stage 1), shared with every other run
    /// of the same understood question.
    pub understanding: Arc<Understanding>,
    /// The linking artifact (stage 2).
    pub linked: LinkedQuestion,
    /// The execution artifact (stage 3).
    pub execution: ExecutionOutcome,
    /// The filtration artifact (stage 4).
    pub filtered: FilteredAnswers,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl PipelineTrace {
    /// True if any stage was cut short by the request's budget.
    pub fn deadline_exceeded(&self) -> bool {
        !self.linked.completed || self.execution.deadline_exceeded || self.filtered.skipped
    }

    /// Total rows the endpoint's engine scanned executing this request's
    /// candidate queries.
    pub fn rows_scanned(&self) -> u64 {
        self.execution.total_rows_scanned()
    }
}

/// The composed four-stage answer pipeline.
///
/// A `Pipeline` owns one implementation of each stage trait behind `Arc`s,
/// so it is cheap to clone and safe to share across threads; per-request
/// state travels in the [`StageContext`].  [`Pipeline::kgqan`] builds the
/// paper's pipeline; the `with_*` methods swap individual stages:
///
/// ```
/// use std::sync::Arc;
/// use kgqan::pipeline::{Pipeline, StageContext};
/// use kgqan::{AffinityModel, Budget, KgqanConfig, QuestionUnderstanding};
/// use kgqan_endpoint::InProcessEndpoint;
/// use kgqan_rdf::{vocab, Store, Term, Triple};
///
/// let mut store = Store::new();
/// store.insert(Triple::new(
///     Term::iri("http://e/Barack_Obama"),
///     Term::iri(vocab::RDFS_LABEL),
///     Term::literal_str("Barack Obama"),
/// ));
/// store.insert(Triple::new(
///     Term::iri("http://e/Barack_Obama"),
///     Term::iri("http://e/spouse"),
///     Term::iri("http://e/Michelle_Obama"),
/// ));
/// let endpoint = InProcessEndpoint::new("DBpedia", store);
///
/// let config = KgqanConfig::default();
/// let pipeline = Pipeline::kgqan(
///     Arc::new(QuestionUnderstanding::train_default()),
///     Arc::from(AffinityModel::FineGrained.build()),
/// );
/// let budget = Budget::unbounded();
/// let trace = pipeline
///     .run(
///         "Who is the wife of Barack Obama?",
///         &StageContext::new(&endpoint, &budget, &config),
///     )
///     .unwrap();
/// assert!(trace
///     .filtered
///     .answers
///     .iter()
///     .any(|t| t.as_iri() == Some("http://e/Michelle_Obama")));
/// assert!(trace.timings.total() > std::time::Duration::ZERO);
/// ```
#[derive(Clone)]
pub struct Pipeline {
    understand: Arc<dyn Understand>,
    link: Arc<dyn Link>,
    execute: Arc<dyn Execute>,
    filter: Arc<dyn Filter>,
}

impl Pipeline {
    /// Compose a pipeline from explicit stage implementations.
    pub fn new(
        understand: Arc<dyn Understand>,
        link: Arc<dyn Link>,
        execute: Arc<dyn Execute>,
        filter: Arc<dyn Filter>,
    ) -> Self {
        Pipeline {
            understand,
            link,
            execute,
            filter,
        }
    }

    /// The paper's pipeline: trained understanding, JIT linking, managed
    /// execution, answer-type filtration.
    pub fn kgqan(
        understanding: Arc<QuestionUnderstanding>,
        affinity: Arc<dyn SemanticAffinity>,
    ) -> Self {
        Pipeline {
            understand: understanding,
            link: Arc::new(JitLinkStage::new(Arc::clone(&affinity))),
            execute: Arc::new(ManagedExecution),
            filter: Arc::new(TypeFiltration::new(affinity)),
        }
    }

    /// Swap the understanding stage.
    pub fn with_understand(mut self, stage: Arc<dyn Understand>) -> Self {
        self.understand = stage;
        self
    }

    /// Swap the linking stage.
    pub fn with_link(mut self, stage: Arc<dyn Link>) -> Self {
        self.link = stage;
        self
    }

    /// Swap the filtration stage.
    pub fn with_filter(mut self, stage: Arc<dyn Filter>) -> Self {
        self.filter = stage;
        self
    }

    /// Stage 1 alone: understand one question.
    ///
    /// Understanding depends on no KG (the paper's Figure 4), so the result
    /// comes back behind an `Arc`: a caller asking several KGs the same
    /// question understands it once and hands a clone to each
    /// [`Pipeline::run_understood`].
    pub fn understand(&self, question: &str) -> Result<Arc<Understanding>, KgqanError> {
        self.understand.understand(question).map(Arc::new)
    }

    /// Stages 2–4 — link, execute, filter — against `ctx.endpoint` for a
    /// question that is already understood, timing each.  The trace's
    /// `timings.understand` is zero: this call did not run that stage.
    pub fn run_understood(
        &self,
        understanding: Arc<Understanding>,
        ctx: &StageContext<'_>,
    ) -> Result<PipelineTrace, KgqanError> {
        let t1 = Instant::now();
        let linked = self.link.link(&understanding, ctx)?;
        let link_time = t1.elapsed();

        let t2 = Instant::now();
        let execution = self.execute.execute(&linked, ctx)?;
        let execute_time = t2.elapsed();

        let t3 = Instant::now();
        let filtered = self.filter.filter(&execution, &understanding, ctx);
        let filter_time = t3.elapsed();

        Ok(PipelineTrace {
            understanding,
            linked,
            execution,
            filtered,
            timings: StageTimings {
                understand: Duration::ZERO,
                link: link_time,
                execute: execute_time,
                filter: filter_time,
            },
        })
    }

    /// Run all four stages on one question, timing each, and return the
    /// full trace: [`Pipeline::understand`] then
    /// [`Pipeline::run_understood`].
    pub fn run(&self, question: &str, ctx: &StageContext<'_>) -> Result<PipelineTrace, KgqanError> {
        let t0 = Instant::now();
        let understanding = self.understand(question)?;
        let understand_time = t0.elapsed();
        let mut trace = self.run_understood(understanding, ctx)?;
        trace.timings.understand = understand_time;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::FineGrainedAffinity;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Triple};
    use std::sync::OnceLock;

    fn spouse_endpoint() -> InProcessEndpoint {
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
        InProcessEndpoint::new("DBpedia", store)
    }

    fn understanding() -> Arc<QuestionUnderstanding> {
        static QU: OnceLock<Arc<QuestionUnderstanding>> = OnceLock::new();
        Arc::clone(QU.get_or_init(|| Arc::new(QuestionUnderstanding::train_default())))
    }

    fn default_pipeline() -> Pipeline {
        Pipeline::kgqan(understanding(), Arc::new(FineGrainedAffinity::new()))
    }

    #[test]
    fn pipeline_trace_carries_every_stage_artifact() {
        let endpoint = spouse_endpoint();
        let config = KgqanConfig::default();
        let budget = Budget::unbounded();
        let ctx = StageContext::new(&endpoint, &budget, &config);
        let trace = default_pipeline()
            .run("Who is the wife of Barack Obama?", &ctx)
            .unwrap();

        assert!(!trace.understanding.pgp.is_empty());
        assert!(trace.linked.completed);
        assert!(!trace.linked.candidates.is_empty());
        assert!(!trace.execution.query_stats.is_empty());
        assert!(trace
            .filtered
            .answers
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));
        assert!(!trace.filtered.skipped);
        assert!(!trace.deadline_exceeded());
        assert_eq!(
            trace.timings.total(),
            trace.timings.understand
                + trace.timings.link
                + trace.timings.execute
                + trace.timings.filter
        );
    }

    #[test]
    fn pipeline_trace_exposes_candidate_plan_summaries() {
        let endpoint = spouse_endpoint();
        let config = KgqanConfig::default();
        let budget = Budget::unbounded();
        let ctx = StageContext::new(&endpoint, &budget, &config);
        let trace = default_pipeline()
            .run("Who is the wife of Barack Obama?", &ctx)
            .unwrap();

        let stats = &trace.execution.query_stats;
        assert!(!stats.is_empty());
        // The uncached in-process endpoint reports a scan counter for every
        // executed candidate, and EXPLAIN of its AST at read time is the
        // plan a traced run of it reports.
        for stat in stats {
            assert!(!stat.sparql().is_empty());
            assert!(stat.rows_scanned.is_some());
            let plan = endpoint.explain(&stat.query);
            assert!(!plan.ops.is_empty());
            assert_eq!(Some(plan), endpoint.query_traced(&stat.query).unwrap().plan);
        }
        assert!(trace.rows_scanned() >= 1);
    }

    #[test]
    fn expired_budget_marks_trace_deadline_exceeded() {
        let endpoint = spouse_endpoint();
        let config = KgqanConfig::default();
        let budget = Budget::with_deadline(Duration::ZERO);
        let ctx = StageContext::new(&endpoint, &budget, &config);
        let trace = default_pipeline()
            .run("Who is the wife of Barack Obama?", &ctx)
            .unwrap();
        assert!(trace.deadline_exceeded());
        assert!(!trace.linked.completed);
        assert!(trace.filtered.answers.is_empty());
    }

    #[test]
    fn swapped_stages_change_behaviour() {
        /// A filter stage that drops everything — the degenerate plug-in.
        struct DropAll;
        impl Filter for DropAll {
            fn filter(
                &self,
                execution: &ExecutionOutcome,
                _understanding: &Understanding,
                _ctx: &StageContext<'_>,
            ) -> FilteredAnswers {
                let mut seen = std::collections::HashSet::new();
                let unfiltered: Vec<Term> = execution
                    .answers
                    .iter()
                    .filter(|a| seen.insert(&a.answer))
                    .map(|a| a.answer.clone())
                    .collect();
                FilteredAnswers {
                    answers: Vec::new(),
                    unfiltered,
                    skipped: false,
                }
            }
        }

        let endpoint = spouse_endpoint();
        let config = KgqanConfig::default();
        let budget = Budget::unbounded();
        let ctx = StageContext::new(&endpoint, &budget, &config);
        let trace = default_pipeline()
            .with_filter(Arc::new(DropAll))
            .run("Who is the wife of Barack Obama?", &ctx)
            .unwrap();
        assert!(trace.filtered.answers.is_empty());
        assert!(!trace.filtered.unfiltered.is_empty());
    }
}
