//! Tier-1 smoke test: the `examples/quickstart.rs` path must work end to end.
//!
//! Builds the miniature DBpedia fragment around the paper's running example
//! 𝑞_E (Figure 4), wraps it in an [`InProcessEndpoint`], and asserts that a
//! default-configured [`QaService`] produces the gold answer. This is
//! deliberately fast (a 7-triple KG) so it can guard every CI run.

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_sparql::parse_query;

/// The running example's one executed query, byte for byte as the pipeline
/// rendered it when candidates still carried their text.
const QUICKSTART_EXECUTED: &str = "SELECT DISTINCT ?unknown1 ?type WHERE {
  ?unknown1 <http://dbpedia.org/property/outflow> <http://dbpedia.org/resource/Danish_straits> .
  ?unknown1 <http://dbpedia.org/ontology/nearestCity> <http://dbpedia.org/resource/Kaliningrad> .
  OPTIONAL {
    ?unknown1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?type .
  }
}";

fn quickstart_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
    let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
    let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
    let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");

    store.insert_all([
        Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
        Triple::new(
            straits.clone(),
            label.clone(),
            Term::literal_str("Danish Straits"),
        ),
        Triple::new(
            kali.clone(),
            label.clone(),
            Term::literal_str("Kaliningrad"),
        ),
        Triple::new(yantar, label, Term::literal_str("Yantar, Kaliningrad")),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/property/outflow"),
            straits,
        ),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/ontology/nearestCity"),
            kali,
        ),
        Triple::new(
            sea,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ),
    ]);
    store
}

#[test]
fn quickstart_running_example_answers_baltic_sea() {
    let endpoint = Arc::new(InProcessEndpoint::new("DBpedia", quickstart_store()));
    let service = QaService::builder()
        .endpoint(endpoint.clone())
        .build()
        .expect("one registered KG");

    let question = "Name the sea into which Danish Straits flows and has \
                    Kaliningrad as one of the city on the shore";
    let response = service
        .answer(AnswerRequest::new(question))
        .expect("the running example question must be understood");

    // The gold answer of the running example.
    assert!(
        response
            .answers()
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Baltic_Sea")),
        "expected Baltic_Sea among answers, got {:?}",
        response.answers()
    );

    // The pipeline actually ran all three phases against the endpoint.
    assert!(
        !response.trace.execution.query_stats.is_empty(),
        "no SPARQL was executed"
    );
    assert!(
        endpoint.stats().total_requests > 0,
        "endpoint was never queried"
    );
}

/// Candidates and stats carry the AST and render their text on demand; the
/// rendered text is the golden string and parses back to the AST that ran.
#[test]
fn quickstart_executed_text_is_the_golden_string() {
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            quickstart_store(),
        )))
        .build()
        .expect("one registered KG");
    let response = service
        .answer(AnswerRequest::new(
            "Name the sea into which Danish Straits flows and has \
             Kaliningrad as one of the city on the shore",
        ))
        .unwrap();
    let execution = &response.trace.execution;
    assert_eq!(
        execution.executed_queries(),
        vec![QUICKSTART_EXECUTED.to_string()]
    );
    let stat = &execution.query_stats[0];
    assert_eq!(parse_query(&stat.sparql()).unwrap(), *stat.query);
    let candidate = &response.trace.linked.candidates[0];
    assert_eq!(candidate.sparql(), QUICKSTART_EXECUTED);
    assert!(Arc::ptr_eq(&candidate.query, &stat.query));
}

#[test]
fn quickstart_service_is_reusable_across_questions() {
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            quickstart_store(),
        )))
        .build()
        .expect("one registered KG");

    // The service trains once and answers any number of questions; a second
    // question on the same instance must not panic or poison state.
    for question in [
        "Name the sea into which Danish Straits flows and has \
         Kaliningrad as one of the city on the shore",
        "What flows into the Baltic Sea?",
    ] {
        let _ = service.answer(AnswerRequest::new(question));
    }
}
