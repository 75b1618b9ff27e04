//! # kgqan-federate
//!
//! Cross-KG federation for KGQAn: fan one natural-language question out to
//! a selected set of registered KGs, merge the per-KG answers into one
//! provenance-tagged, agreement-ranked list, and report every KG's outcome
//! — even when some of them time out or fail.
//!
//! The entry point is [`FederatedEndpoint`], a thin layer over
//! [`QaService`]:
//!
//! 1. **Fan-out** — the request's [`KgSelection`] is resolved against the
//!    service's registered KG names.  Unknown names become per-KG
//!    [`KgStatus::Unknown`] reports (HTTP 404 at the serving layer); the
//!    remaining KGs are asked through one [`QaService::answer_batch`],
//!    which understands the question once — understanding depends on no
//!    KG — and runs linking, execution and filtration per KG over that
//!    shared result.  The asking thread runs legs itself and pool threads
//!    help while the service has workers to spare, so the legs overlap on
//!    an idle service and cross no thread on a busy one.  Each leg's
//!    request carries an equal share of the request's deadline
//!    ([`kgqan::Budget::split`]), so one stalled KG can never starve its
//!    siblings, whether they run beside it or after it.
//! 2. **Merge** — per-KG answers are deduplicated by a normalised
//!    equivalence key ([`answer_key`]) and re-ranked with an
//!    agreement-boosted combined score ([`merge_answers`]); every merged
//!    answer lists the KGs that agreed on it and the response carries one
//!    [`AnswerSource`] per contributing KG.
//! 3. **Degrade, don't fail** — a KG that errors or runs out of budget
//!    yields a [`KgStatus::Failed`] / [`KgStatus::Partial`] report and the
//!    overall verdict becomes [`BudgetVerdict::Partial`]; the federated
//!    request itself only errors when it selects no KGs at all.
//!
//! ```
//! use std::sync::Arc;
//! use kgqan::QaService;
//! use kgqan::understanding::QuestionUnderstanding;
//! use kgqan_endpoint::InProcessEndpoint;
//! use kgqan_federate::{FederatedEndpoint, FederatedRequest};
//! use kgqan_rdf::{Store, Term, Triple, vocab};
//!
//! fn spouse_store() -> Store {
//!     let mut store = Store::new();
//!     let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
//!     let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
//!     store.insert_all([
//!         Triple::new(obama.clone(), Term::iri(vocab::RDFS_LABEL),
//!                     Term::literal_str("Barack Obama")),
//!         Triple::new(michelle.clone(), Term::iri(vocab::RDFS_LABEL),
//!                     Term::literal_str("Michelle Obama")),
//!         Triple::new(obama, Term::iri("http://dbpedia.org/ontology/spouse"), michelle),
//!     ]);
//!     store
//! }
//!
//! let service = QaService::builder()
//!     .understanding(QuestionUnderstanding::train_default())
//!     .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
//!     .endpoint(Arc::new(InProcessEndpoint::new("Mirror", spouse_store())))
//!     .build()
//!     .unwrap();
//! let federated = FederatedEndpoint::new(service);
//!
//! let response = federated
//!     .ask(FederatedRequest::new("Who is the wife of Barack Obama?"))
//!     .unwrap();
//! // Both KGs agree, so the merged answer carries two-KG provenance.
//! assert_eq!(response.answers[0].kgs, vec!["DBpedia".to_string(), "Mirror".to_string()]);
//! assert_eq!(response.sources.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;

pub use merge::{answer_key, merge_answers, FederatedAnswer, ScoredAnswer, AGREEMENT_BOOST};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kgqan::{
    AnswerRequest, AnswerSource, Budget, BudgetVerdict, ConfigOverrides, KgqanError, QaService,
};
use kgqan_endpoint::EndpointError;

/// Which registered KGs a federated request targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgSelection {
    /// Every KG currently registered with the service (the HTTP layer
    /// spells this `"*"`).
    All,
    /// An explicit list of KG names.  Unknown names degrade to per-KG
    /// [`KgStatus::Unknown`] reports instead of failing the request.
    Named(Vec<String>),
}

/// One federated question: the text, the KG selection, and the optional
/// whole-request deadline that is split evenly across the selected KGs.
#[derive(Debug, Clone)]
pub struct FederatedRequest {
    /// The natural-language question.
    pub question: String,
    /// The KGs to fan out to.
    pub kgs: KgSelection,
    /// Whole-request deadline; each selected KG gets an equal share
    /// (floored at [`kgqan::Budget::MIN_SPLIT_SHARE`]).
    pub deadline: Option<Duration>,
    /// Per-request configuration overrides, applied on every KG.
    pub overrides: ConfigOverrides,
    /// Client-supplied request id; the endpoint assigns one when absent.
    pub id: Option<String>,
}

impl FederatedRequest {
    /// A request fanning out to every registered KG, with no deadline.
    pub fn new(question: impl Into<String>) -> Self {
        FederatedRequest {
            question: question.into(),
            kgs: KgSelection::All,
            deadline: None,
            overrides: ConfigOverrides::none(),
            id: None,
        }
    }

    /// Restrict the fan-out to the named KGs.
    pub fn on_kgs<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.kgs = KgSelection::Named(names.into_iter().map(Into::into).collect());
        self
    }

    /// Set the whole-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set per-request configuration overrides.
    pub fn with_overrides(mut self, overrides: ConfigOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Set the client-supplied request id.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }
}

/// The outcome of one KG's share of a federated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgStatus {
    /// The KG completed within its budget share.
    Answered,
    /// The KG's share of the deadline expired; any answers it produced
    /// before the cut-off are still merged.
    Partial,
    /// The selection named a KG that is not registered.
    Unknown {
        /// The sorted list of registered KG names.
        available: Vec<String>,
    },
    /// The KG's pipeline failed outright.
    Failed {
        /// The rendered error.
        message: String,
    },
}

impl KgStatus {
    /// The HTTP status code the serving layer reports for this KG's entry:
    /// 200 for [`Answered`](KgStatus::Answered) and
    /// [`Partial`](KgStatus::Partial), 404 for
    /// [`Unknown`](KgStatus::Unknown), 500 for
    /// [`Failed`](KgStatus::Failed).
    pub fn http_status(&self) -> u16 {
        match self {
            KgStatus::Answered | KgStatus::Partial => 200,
            KgStatus::Unknown { .. } => 404,
            KgStatus::Failed { .. } => 500,
        }
    }

    /// Short machine-readable label for metrics and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            KgStatus::Answered => "answered",
            KgStatus::Partial => "partial",
            KgStatus::Unknown { .. } => "unknown",
            KgStatus::Failed { .. } => "failed",
        }
    }
}

/// One KG's report inside a [`FederatedResponse`], in selection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KgReport {
    /// The KG name as it appeared in the selection.
    pub kg: String,
    /// What happened on this KG.
    pub status: KgStatus,
    /// Wall-clock time this KG's pipeline run took (zero for KGs that
    /// never ran).
    pub elapsed: Duration,
    /// How many answers this KG contributed before merging.
    pub answers: usize,
}

/// The merged outcome of a federated request.
#[derive(Debug, Clone)]
pub struct FederatedResponse {
    /// The request id (client-supplied or endpoint-assigned).
    pub request_id: String,
    /// The question as asked.
    pub question: String,
    /// Deduplicated answers, ranked by agreement-boosted combined score.
    pub answers: Vec<FederatedAnswer>,
    /// Majority Boolean verdict for yes/no questions (ties resolve to the
    /// first reporting KG in selection order).
    pub boolean: Option<bool>,
    /// [`BudgetVerdict::Completed`] only when every selected KG answered
    /// completely; any unknown, failed, or deadline-cut KG degrades the
    /// whole response to [`BudgetVerdict::Partial`].
    pub verdict: BudgetVerdict,
    /// Per-KG outcomes, in selection order.
    pub reports: Vec<KgReport>,
    /// Provenance: one [`AnswerSource`] per KG that contributed evidence.
    pub sources: Vec<AnswerSource>,
    /// Wall-clock time of the whole fan-out.
    pub elapsed: Duration,
}

impl FederatedResponse {
    /// True if any selected KG failed, was unknown, or ran out of budget.
    pub fn is_partial(&self) -> bool {
        self.verdict.is_partial()
    }
}

/// Fans federated requests out to the KGs registered with a [`QaService`]
/// and merges the per-KG outcomes.  See the [crate docs](crate) for the
/// data flow.
pub struct FederatedEndpoint {
    service: QaService,
    next_id: AtomicU64,
}

impl FederatedEndpoint {
    /// Wrap a service; the service's registered KGs form the federation.
    pub fn new(service: QaService) -> Self {
        FederatedEndpoint {
            service,
            next_id: AtomicU64::new(1),
        }
    }

    /// The wrapped service (for cache reports, registry access, ingest).
    pub fn service(&self) -> &QaService {
        &self.service
    }

    /// Answer one question across the selected KGs.
    ///
    /// Errors only when the selection resolves to zero KGs (nothing
    /// registered, or an explicitly empty list); every per-KG problem —
    /// unknown name, pipeline failure, expired budget share — degrades to
    /// that KG's [`KgReport`] while the remaining KGs still answer.
    pub fn ask(&self, request: FederatedRequest) -> Result<FederatedResponse, KgqanError> {
        let budget = Budget::start(request.deadline);
        let registered = self.service.kg_names();
        // One report per KG, in selection order: repeats of a name collapse
        // into its first mention.
        let selection = match request.kgs {
            KgSelection::All => registered.clone(),
            KgSelection::Named(names) => {
                let mut selection = Vec::with_capacity(names.len());
                for name in names {
                    if !selection.contains(&name) {
                        selection.push(name);
                    }
                }
                selection
            }
        };
        if selection.is_empty() {
            return Err(KgqanError::Configuration(
                "federated request selects no KGs (none registered or empty selection)".into(),
            ));
        }
        let request_id = request
            .id
            .unwrap_or_else(|| format!("fed-{}", self.next_id.fetch_add(1, Ordering::Relaxed)));

        // `kg_names()` is sorted.
        let is_registered = |kg: &String| registered.binary_search(kg).is_ok();
        let known: Vec<&String> = selection.iter().filter(|kg| is_registered(kg)).collect();
        // Every leg carries its own share of the deadline: a stalled KG
        // exhausts only its slice (answered `Partial`) while its siblings
        // still complete within theirs.
        let share = budget.split(known.len()).deadline();
        let requests: Vec<AnswerRequest> = known
            .into_iter()
            .map(|kg| AnswerRequest {
                question: request.question.clone(),
                kg: Some(kg.clone()),
                overrides: request.overrides,
                deadline: share,
                id: Some(format!("{request_id}/{kg}")),
            })
            .collect();
        let mut results = self.service.answer_batch(&requests).into_iter();

        let mut votes = Vec::new();
        let mut sources = Vec::new();
        let mut booleans = Vec::new();
        let mut reports = Vec::with_capacity(selection.len());
        for kg in selection {
            let result = if is_registered(&kg) {
                results.next()
            } else {
                None
            };
            let (status, elapsed, answers) = match result {
                Some(Ok(response)) => {
                    for (term, score) in response.answers().iter().zip(&response.answer_scores) {
                        votes.push(ScoredAnswer {
                            kg: kg.clone(),
                            term: term.clone(),
                            score: *score,
                        });
                    }
                    booleans.extend(response.boolean());
                    let status = if response.is_partial() {
                        KgStatus::Partial
                    } else {
                        KgStatus::Answered
                    };
                    let answers = response.answers().len();
                    sources.extend(response.sources);
                    (status, response.elapsed, answers)
                }
                Some(Err(KgqanError::Endpoint(EndpointError::UnknownEndpoint {
                    available,
                    ..
                }))) => (KgStatus::Unknown { available }, Duration::ZERO, 0),
                Some(Err(error)) => (
                    KgStatus::Failed {
                        message: error.to_string(),
                    },
                    Duration::ZERO,
                    0,
                ),
                None => (
                    KgStatus::Unknown {
                        available: registered.clone(),
                    },
                    Duration::ZERO,
                    0,
                ),
            };
            reports.push(KgReport {
                kg,
                status,
                elapsed,
                answers,
            });
        }

        let answers = merge_answers(&votes);
        let boolean = if booleans.is_empty() {
            None
        } else {
            let trues = booleans.iter().filter(|b| **b).count();
            let falses = booleans.len() - trues;
            Some(match trues.cmp(&falses) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => booleans[0],
            })
        };
        let verdict = if reports
            .iter()
            .all(|report| report.status == KgStatus::Answered)
        {
            BudgetVerdict::Completed
        } else {
            BudgetVerdict::Partial
        };

        Ok(FederatedResponse {
            request_id,
            question: request.question,
            answers,
            boolean,
            verdict,
            reports,
            sources,
            elapsed: budget.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use kgqan::understanding::QuestionUnderstanding;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Term, Triple};

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

    fn federation_of(endpoints: Vec<InProcessEndpoint>) -> FederatedEndpoint {
        let mut builder =
            QaService::builder().understanding(QuestionUnderstanding::train_default());
        for endpoint in endpoints {
            builder = builder.endpoint(Arc::new(endpoint));
        }
        FederatedEndpoint::new(builder.build().unwrap())
    }

    #[test]
    fn two_agreeing_kgs_merge_into_one_boosted_answer() {
        let federated = federation_of(vec![
            InProcessEndpoint::new("DBpedia", spouse_store()),
            InProcessEndpoint::new("Mirror", spouse_store()),
        ]);
        let response = federated
            .ask(FederatedRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();

        assert_eq!(response.verdict, BudgetVerdict::Completed);
        assert!(!response.is_partial());
        let top = &response.answers[0];
        assert_eq!(
            top.term.as_iri(),
            Some("http://dbpedia.org/resource/Michelle_Obama")
        );
        assert_eq!(top.kgs, vec!["DBpedia".to_string(), "Mirror".to_string()]);
        assert!(top.score > 0.0);
        // Provenance: one source per contributing KG, with epochs.
        assert_eq!(response.sources.len(), 2);
        assert!(response.sources.iter().all(|s| s.epoch == Some(0)));
        let mut kgs: Vec<&str> = response.sources.iter().map(|s| s.kg.as_str()).collect();
        kgs.sort_unstable();
        assert_eq!(kgs, vec!["DBpedia", "Mirror"]);
        // Per-KG reports in selection order, all answered.
        assert_eq!(response.reports.len(), 2);
        assert!(response
            .reports
            .iter()
            .all(|r| r.status == KgStatus::Answered && r.status.http_status() == 200));
    }

    #[test]
    fn unknown_kg_degrades_to_a_404_report_while_others_answer() {
        let federated = federation_of(vec![InProcessEndpoint::new("DBpedia", spouse_store())]);
        let response = federated
            .ask(
                FederatedRequest::new("Who is the wife of Barack Obama?")
                    .on_kgs(["DBpedia", "YAGO"]),
            )
            .unwrap();

        assert_eq!(response.verdict, BudgetVerdict::Partial);
        assert_eq!(response.reports.len(), 2);
        assert_eq!(response.reports[0].kg, "DBpedia");
        assert_eq!(response.reports[0].status, KgStatus::Answered);
        assert_eq!(response.reports[1].kg, "YAGO");
        assert_eq!(response.reports[1].status.http_status(), 404);
        match &response.reports[1].status {
            KgStatus::Unknown { available } => {
                assert_eq!(available, &vec!["DBpedia".to_string()])
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // The known KG still produced the answer.
        assert_eq!(
            response.answers[0].term.as_iri(),
            Some("http://dbpedia.org/resource/Michelle_Obama")
        );
        assert_eq!(response.sources.len(), 1);
    }

    #[test]
    fn all_kgs_out_of_budget_degrades_to_partial_not_error() {
        let federated = federation_of(vec![
            InProcessEndpoint::new("SlowA", spouse_store()).with_latency(Duration::from_millis(80)),
            InProcessEndpoint::new("SlowB", spouse_store()).with_latency(Duration::from_millis(80)),
        ]);
        let response = federated
            .ask(
                FederatedRequest::new("Who is the wife of Barack Obama?")
                    .with_deadline(Duration::from_millis(60)),
            )
            .unwrap();

        assert_eq!(response.verdict, BudgetVerdict::Partial);
        assert!(response
            .reports
            .iter()
            .all(|r| r.status == KgStatus::Partial && r.status.http_status() == 200));
    }

    #[test]
    fn one_stalled_kg_does_not_starve_its_sibling() {
        let federated = federation_of(vec![
            InProcessEndpoint::new("Fast", spouse_store()),
            InProcessEndpoint::new("Stalled", spouse_store())
                .with_latency(Duration::from_millis(120)),
        ]);
        let response = federated
            .ask(
                FederatedRequest::new("Who is the wife of Barack Obama?")
                    .with_deadline(Duration::from_millis(100)),
            )
            .unwrap();

        // Degraded overall, but the fast KG's answer survives with its
        // provenance attached.
        assert_eq!(response.verdict, BudgetVerdict::Partial);
        assert_eq!(
            response.answers[0].term.as_iri(),
            Some("http://dbpedia.org/resource/Michelle_Obama")
        );
        assert_eq!(response.answers[0].kgs, vec!["Fast".to_string()]);
        let fast = response.reports.iter().find(|r| r.kg == "Fast").unwrap();
        assert_eq!(fast.status, KgStatus::Answered);
        let stalled = response.reports.iter().find(|r| r.kg == "Stalled").unwrap();
        assert_eq!(stalled.status, KgStatus::Partial);
    }

    #[test]
    fn empty_selection_is_a_configuration_error() {
        let federated = federation_of(vec![InProcessEndpoint::new("DBpedia", spouse_store())]);
        let error = federated
            .ask(FederatedRequest::new("anything").on_kgs(Vec::<String>::new()))
            .unwrap_err();
        assert!(matches!(error, KgqanError::Configuration(_)));
    }

    #[test]
    fn duplicate_selection_entries_collapse_to_one_report() {
        let federated = federation_of(vec![InProcessEndpoint::new("DBpedia", spouse_store())]);
        let response = federated
            .ask(
                FederatedRequest::new("Who is the wife of Barack Obama?")
                    .on_kgs(["DBpedia", "DBpedia"]),
            )
            .unwrap();
        assert_eq!(response.reports.len(), 1);
        assert_eq!(response.verdict, BudgetVerdict::Completed);
    }
}
