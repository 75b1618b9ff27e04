//! Phase 3a: execution of the candidate queries.
//!
//! The default `Execute` stage ([`crate::pipeline::ManagedExecution`])
//! sends the ranked candidate queries to the target endpoint and collects
//! `(answer, class)` pairs for the main unknown, or the Boolean verdict for
//! ASK questions.  Candidate queries are processed in rank order; collection
//! stops once `KgqanConfig::max_productive_queries` queries have produced
//! answers (the paper sends the "top-k most promising" queries —
//! executing the entire candidate list would only add noise for the
//! filtration step to remove).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgqan_endpoint::SparqlEndpoint;
use kgqan_rdf::Term;
use kgqan_sparql::Query;

use crate::bgp::{CandidateQuery, TYPE_VARIABLE};
use crate::config::Budget;
use crate::error::KgqanError;

/// One collected answer: the term bound to the main unknown and the classes
/// reported by the OPTIONAL `rdf:type` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedAnswer {
    /// The answer term.
    pub answer: Term,
    /// The `rdf:type` classes of the answer, if the KG provides any.
    pub classes: Vec<Term>,
    /// The Equation-2 score of the query that produced this answer.
    pub query_score: f32,
}

/// Execution statistics for one candidate query, surfaced per request in
/// the response's trace (`response.trace.execution.query_stats`).
///
/// It carries no text and no plan: [`QueryStat::sparql`] renders the text
/// when called, and the plan of an executed candidate comes from
/// `InProcessEndpoint::explain(&stat.query)`, which re-plans at read time
/// on the snapshot then current (on an unchanged epoch, the summary the
/// execution used).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStat {
    /// The executed query, shared with its [`CandidateQuery`].
    pub query: Arc<Query>,
    /// The Equation-2 ranking score of the candidate.
    pub score: f32,
    /// Wall-clock time the endpoint took to answer it.
    pub duration: Duration,
    /// Solution rows returned (ASK queries report 0).
    pub rows: usize,
    /// Index/text-index entries the engine scanned answering this
    /// candidate.  `None` when the endpoint does not report work counters
    /// (remote engines) and for a semantic-cache hit, which executed
    /// nothing.
    pub rows_scanned: Option<u64>,
}

impl QueryStat {
    /// The SPARQL text of the executed query, rendered on every call.
    pub fn sparql(&self) -> String {
        self.query.to_sparql()
    }
}

/// The outcome of executing the candidate queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionOutcome {
    /// Collected answers for the main unknown (empty for Boolean questions).
    pub answers: Vec<CollectedAnswer>,
    /// The Boolean verdict for ASK questions.
    pub boolean: Option<bool>,
    /// Per-executed-query statistics, in execution order.
    pub query_stats: Vec<QueryStat>,
    /// True if the request's deadline expired before the candidate list was
    /// exhausted — the collected answers are best-so-far, not complete.
    pub deadline_exceeded: bool,
}

impl ExecutionOutcome {
    /// The SPARQL texts that were actually executed, in execution order,
    /// rendered on every call.
    pub fn executed_queries(&self) -> Vec<String> {
        self.query_stats.iter().map(QueryStat::sparql).collect()
    }

    /// Total rows the endpoint's engine scanned across every executed
    /// candidate that reported work counters.
    pub fn total_rows_scanned(&self) -> u64 {
        self.query_stats.iter().filter_map(|s| s.rows_scanned).sum()
    }
}

/// Once a query has produced answers, further queries only contribute if
/// their Equation-2 score is at least this fraction of the first productive
/// query's score (keeps near-tied interpretations, drops the long tail of
/// low-confidence candidates).
const SCORE_WINDOW: f32 = 0.9;

/// Execute candidate queries in rank order within a time budget, stopping
/// after `max_productive_queries` queries returned at least one answer.
///
/// The budget is checked before every query: once it expires the remaining
/// candidates are skipped, `deadline_exceeded` is set, and the answers
/// collected so far are returned (best-so-far semantics).
pub(crate) fn execute_candidates(
    queries: &[CandidateQuery],
    max_productive_queries: usize,
    endpoint: &dyn SparqlEndpoint,
    budget: &Budget,
) -> Result<ExecutionOutcome, KgqanError> {
    let mut outcome = ExecutionOutcome::default();
    let mut productive = 0usize;
    let mut first_productive_score: Option<f32> = None;

    for candidate in queries {
        if productive >= max_productive_queries {
            break;
        }
        if let Some(best) = first_productive_score {
            if candidate.score < best * SCORE_WINDOW {
                break;
            }
        }
        // The deadline check comes after the stopping rules above: a run
        // that already exhausted its productive budget is complete, not
        // partial, even if the clock has also run out by then.
        if budget.expired() {
            outcome.deadline_exceeded = true;
            break;
        }
        // Hand over the AST: in-process endpoints evaluate it directly
        // on dictionary ids, so the candidate never round-trips through
        // a SPARQL string between generation and execution.  The traced
        // entry point additionally reports the rows the engine scanned,
        // which ride along in the stats; it renders no plan.  The
        // budget's remaining time becomes the engine's deadline, so one
        // runaway candidate is cut *mid-query* (per morsel on the
        // parallel path) instead of only being noticed afterwards.
        let started = Instant::now();
        let deadline = budget.remaining().map(|left| started + left);
        let traced = endpoint.query_traced_within(&candidate.query, deadline)?;
        if traced
            .metrics
            .as_ref()
            .is_some_and(|metrics| metrics.deadline_exceeded)
        {
            outcome.deadline_exceeded = true;
        }
        let results = traced.results;
        outcome.query_stats.push(QueryStat {
            query: Arc::clone(&candidate.query),
            score: candidate.score,
            duration: started.elapsed(),
            rows: results.as_solutions().map_or(0, |s| s.rows().len()),
            rows_scanned: traced.metrics.map(|m| m.rows_scanned),
        });

        if candidate.query.is_ask() {
            let verdict = results.as_boolean().unwrap_or(false);
            // The highest-ranked ASK query that says "yes" settles the
            // question; otherwise keep the (possibly false) verdict of
            // the best query.
            if outcome.boolean.is_none() || verdict {
                outcome.boolean = Some(verdict);
            }
            if verdict {
                break;
            }
            continue;
        }

        let Some(solutions) = results.as_solutions() else {
            continue;
        };
        if solutions.is_empty() {
            continue;
        }
        productive += 1;
        first_productive_score.get_or_insert(candidate.score);
        // Group class bindings per answer term (one answer may appear in
        // several rows, one per rdf:type).  `seen` finds an answer's
        // entry in one lookup however many rows the candidate returns;
        // the rows of an earlier candidate with this very score (rare)
        // merge into the same entries, found by scanning just those.
        let score = candidate.score;
        let answers = &mut outcome.answers;
        let earlier: Vec<usize> = (0..answers.len())
            .filter(|&i| answers[i].query_score == score)
            .collect();
        let mut seen: HashMap<&Term, usize> = HashMap::new();
        let Some(answer_column) = solutions.column_index("unknown1") else {
            continue;
        };
        let class_column = solutions.column_index(TYPE_VARIABLE);
        for row in solutions.rows() {
            let Some(answer) = row.cell(answer_column) else {
                continue;
            };
            let at = *seen.entry(answer).or_insert_with(|| {
                let merged = earlier.iter().find(|&&i| &answers[i].answer == answer);
                merged.copied().unwrap_or_else(|| {
                    answers.push(CollectedAnswer {
                        answer: answer.clone(),
                        classes: Vec::new(),
                        query_score: score,
                    });
                    answers.len() - 1
                })
            });
            if let Some(class) = class_column.and_then(|column| row.cell(column)) {
                let classes = &mut answers[at].classes;
                if !classes.contains(class) {
                    classes.push(class.clone());
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Triple};

    fn endpoint() -> InProcessEndpoint {
        let mut store = Store::new();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        store.insert(Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/property/outflow"),
            Term::iri("http://dbpedia.org/resource/Danish_straits"),
        ));
        store.insert(Triple::new(
            sea.clone(),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ));
        store.insert(Triple::new(
            sea,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/BodyOfWater"),
        ));
        InProcessEndpoint::new("DBpedia", store)
    }

    fn candidate_query(sparql: &str, score: f32) -> CandidateQuery {
        CandidateQuery {
            query: Arc::new(kgqan_sparql::parse_query(sparql).expect("test query parses")),
            score,
        }
    }

    #[test]
    fn collects_answers_with_their_classes() {
        let ep = endpoint();
        let q = candidate_query(
            "SELECT DISTINCT ?unknown1 ?type WHERE { ?unknown1 \
             <http://dbpedia.org/property/outflow> <http://dbpedia.org/resource/Danish_straits> . \
             OPTIONAL { ?unknown1 a ?type . } }",
            1.0,
        );
        let outcome = execute_candidates(&[q], 3, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.answers.len(), 1);
        let answer = &outcome.answers[0];
        assert_eq!(
            answer.answer,
            Term::iri("http://dbpedia.org/resource/Baltic_Sea")
        );
        assert_eq!(answer.classes.len(), 2);
        assert_eq!(outcome.boolean, None);
    }

    #[test]
    fn a_hub_neighbourhood_is_grouped_in_one_pass() {
        // 5 000 answers × 2 classes = 10 000 rows from one candidate; a
        // second candidate with the very same score returns the first 100
        // again and must merge into the existing entries, not duplicate
        // them.  Grouping by scanning the collected answers per row needed
        // ~25 M term comparisons here.
        const ANSWERS: usize = 5_000;
        let mut store = Store::new();
        let hub = Term::iri("http://e/hub");
        for i in 0..ANSWERS {
            let node = Term::iri(format!("http://e/neighbour/{i}"));
            store.insert(Triple::new(
                node.clone(),
                Term::iri("http://e/linksTo"),
                hub.clone(),
            ));
            if i < 100 {
                store.insert(Triple::new(
                    node.clone(),
                    Term::iri("http://e/near"),
                    hub.clone(),
                ));
            }
            for class in ["http://e/Thing", "http://e/Node"] {
                store.insert(Triple::new(
                    node.clone(),
                    Term::iri(vocab::RDF_TYPE),
                    Term::iri(class),
                ));
            }
        }
        let ep = InProcessEndpoint::new("Hub", store);
        let candidate = |predicate: &str| {
            candidate_query(
                &format!(
                    "SELECT DISTINCT ?unknown1 ?type WHERE {{ ?unknown1 <http://e/{predicate}> \
                     <http://e/hub> . OPTIONAL {{ ?unknown1 a ?type . }} }}"
                ),
                1.0,
            )
        };
        let started = Instant::now();
        let outcome = execute_candidates(
            &[candidate("linksTo"), candidate("near")],
            3,
            &ep,
            &Budget::unbounded(),
        )
        .unwrap();
        let elapsed = started.elapsed();

        assert_eq!(outcome.query_stats.len(), 2);
        assert_eq!(outcome.query_stats[0].rows, 2 * ANSWERS);
        assert_eq!(outcome.query_stats[1].rows, 200);
        assert_eq!(outcome.answers.len(), ANSWERS);
        assert!(outcome.answers.iter().all(|a| a.classes.len() == 2));
        // First-seen order: the engine's row order, one entry per answer.
        let first_seen: Vec<Term> = {
            let rows = ep.query(&candidate("linksTo").sparql()).unwrap();
            let mut terms = rows.as_solutions().unwrap().column("unknown1");
            terms.dedup();
            terms
        };
        let collected: Vec<&Term> = outcome.answers.iter().map(|a| &a.answer).collect();
        assert_eq!(collected, first_seen.iter().collect::<Vec<_>>());
        assert!(
            elapsed < Duration::from_secs(3),
            "grouping {} rows took {elapsed:?}",
            2 * ANSWERS
        );
    }

    #[test]
    fn stops_after_budget_of_productive_queries() {
        let ep = endpoint();
        let productive = "SELECT ?unknown1 WHERE { ?unknown1 ?p ?o . }";
        let queries: Vec<CandidateQuery> = (0..5)
            .map(|i| candidate_query(productive, 1.0 - i as f32 * 0.1))
            .collect();
        let outcome = execute_candidates(&queries, 2, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.executed_queries().len(), 2);
    }

    #[test]
    fn stops_at_the_first_candidate_below_the_window() {
        // All three return rows and the productive budget would take all
        // three, but 0.85 < 0.9 × 1.0: the window closes before it.
        let ep = endpoint();
        let productive = "SELECT ?unknown1 WHERE { ?unknown1 ?p ?o . }";
        let queries: Vec<CandidateQuery> = [1.0, 0.95, 0.85]
            .into_iter()
            .map(|score| candidate_query(productive, score))
            .collect();
        let outcome = execute_candidates(&queries, 3, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.executed_queries().len(), 2);
        assert!(outcome.query_stats.iter().all(|stat| stat.rows > 0));
    }

    #[test]
    fn empty_queries_do_not_consume_budget() {
        let ep = endpoint();
        let empty = candidate_query(
            "SELECT ?unknown1 WHERE { ?unknown1 <http://nothing/here> ?o . }",
            0.9,
        );
        let productive = candidate_query("SELECT ?unknown1 WHERE { ?unknown1 ?p ?o . }", 0.5);
        let outcome =
            execute_candidates(&[empty, productive], 1, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.executed_queries().len(), 2);
        assert!(!outcome.answers.is_empty());
    }

    #[test]
    fn ask_queries_produce_boolean_verdicts() {
        let ep = endpoint();
        let no = candidate_query(
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> \
             <http://dbpedia.org/property/outflow> <http://nowhere/x> }",
            0.9,
        );
        let yes = candidate_query(
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> \
             <http://dbpedia.org/property/outflow> \
             <http://dbpedia.org/resource/Danish_straits> }",
            0.8,
        );
        let outcome = execute_candidates(&[no, yes], 3, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.boolean, Some(true));
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn expired_budget_skips_all_candidates_and_flags_outcome() {
        let ep = endpoint();
        let q = candidate_query("SELECT ?unknown1 WHERE { ?unknown1 ?p ?o . }", 1.0);
        let budget = Budget::with_deadline(Duration::ZERO);
        let outcome = execute_candidates(&[q], 3, &ep, &budget).unwrap();
        assert!(outcome.deadline_exceeded);
        assert!(outcome.executed_queries().is_empty());
        assert!(outcome.answers.is_empty());
        assert_eq!(ep.stats().total_requests, 0);
    }

    #[test]
    fn exhausted_productive_cap_is_complete_even_with_expired_budget() {
        // The stopping rules are checked before the deadline: a run that
        // would have stopped anyway (productive cap reached) must not be
        // mislabelled as deadline-partial just because the clock also ran
        // out by then.
        let ep = endpoint();
        let q = candidate_query("SELECT ?unknown1 WHERE { ?unknown1 ?p ?o . }", 1.0);
        let outcome =
            execute_candidates(&[q], 0, &ep, &Budget::with_deadline(Duration::ZERO)).unwrap();
        assert!(!outcome.deadline_exceeded);
        assert!(outcome.query_stats.is_empty());
    }

    #[test]
    fn query_stats_record_scores_rows_and_kind() {
        let ep = endpoint();
        let empty = candidate_query(
            "SELECT ?unknown1 WHERE { ?unknown1 <http://nothing/here> ?o . }",
            1.0,
        );
        let productive = candidate_query(
            "SELECT DISTINCT ?unknown1 WHERE { ?unknown1 \
             <http://dbpedia.org/property/outflow> ?o . }",
            0.8,
        );
        let outcome =
            execute_candidates(&[empty, productive], 3, &ep, &Budget::unbounded()).unwrap();
        assert!(!outcome.deadline_exceeded);
        assert_eq!(outcome.query_stats.len(), 2);
        assert_eq!(outcome.query_stats[0].rows, 0);
        assert_eq!(outcome.query_stats[0].score, 1.0);
        assert_eq!(outcome.query_stats[1].rows, 1);
        assert_eq!(outcome.query_stats[1].score, 0.8);
        assert!(outcome.query_stats.iter().all(|s| !s.query.is_ask()));
        assert!(outcome.query_stats[0]
            .sparql()
            .contains("http://nothing/here"));
        assert!(outcome.query_stats[1]
            .sparql()
            .contains("http://dbpedia.org/property/outflow"));
        assert_eq!(
            outcome.executed_queries(),
            vec![
                outcome.query_stats[0].sparql(),
                outcome.query_stats[1].sparql()
            ]
        );
    }

    #[test]
    fn query_stats_carry_plan_summaries_and_scan_counters() {
        let ep = endpoint();
        let q = candidate_query(
            "SELECT DISTINCT ?unknown1 WHERE { ?unknown1 \
             <http://dbpedia.org/property/outflow> ?o . }",
            1.0,
        );
        let shared = Arc::clone(&q.query);
        let outcome = execute_candidates(&[q], 3, &ep, &Budget::unbounded()).unwrap();
        assert_eq!(outcome.query_stats.len(), 1);
        let stat = &outcome.query_stats[0];
        assert!(Arc::ptr_eq(&stat.query, &shared), "the AST is shared");
        // The plan is rendered when read: EXPLAIN on the unchanged epoch is
        // the plan a traced run of the same query reports.
        let plan = ep.explain(&stat.query);
        assert_eq!(
            Some(&plan),
            ep.query_traced(&stat.query).unwrap().plan.as_ref()
        );
        assert!(plan.to_string().contains("scan ?unknown1"), "{plan}");
        assert!(stat.rows_scanned.is_some());
        assert!(outcome.total_rows_scanned() >= 1);
    }

    #[test]
    fn no_queries_yields_empty_outcome() {
        let ep = endpoint();
        let outcome = execute_candidates(&[], 3, &ep, &Budget::unbounded()).unwrap();
        assert!(outcome.answers.is_empty());
        assert!(outcome.boolean.is_none());
        assert!(outcome.executed_queries().is_empty());
    }
}
