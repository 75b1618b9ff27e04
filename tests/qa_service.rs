//! Serving-layer integration tests: one shared [`QaService`] answering
//! concurrently against multiple registered KGs, per-request deadlines
//! degrading gracefully on slow endpoints, and `answer_batch` agreeing with
//! sequential answering.

use std::sync::Arc;
use std::time::Duration;

use kgqan::{
    AnswerRequest, BudgetVerdict, ConfigOverrides, KgqanError, QaService, QuestionUnderstanding,
};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{vocab, Store, Term, Triple};

/// A small DBpedia-like people KG.
fn people_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
    let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
    let person = Term::iri("http://dbpedia.org/ontology/Person");
    store.insert_all([
        Triple::new(
            obama.clone(),
            label.clone(),
            Term::literal_str("Barack Obama"),
        ),
        Triple::new(
            michelle.clone(),
            label.clone(),
            Term::literal_str("Michelle Obama"),
        ),
        Triple::new(
            obama.clone(),
            Term::iri("http://dbpedia.org/ontology/spouse"),
            michelle.clone(),
        ),
        Triple::new(obama, rdf_type.clone(), person.clone()),
        Triple::new(michelle, rdf_type, person),
    ]);
    store
}

/// The running-example geography KG (Figure 4 fragment).
fn seas_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
    let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
    let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
    store.insert_all([
        Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
        Triple::new(
            straits.clone(),
            label.clone(),
            Term::literal_str("Danish Straits"),
        ),
        Triple::new(kali.clone(), label, Term::literal_str("Kaliningrad")),
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
    store
}

const PEOPLE_QUESTION: &str = "Who is the wife of Barack Obama?";
const SEAS_QUESTION: &str = "Name the sea into which Danish Straits flows \
                             and has Kaliningrad as one of the city on the shore";

fn two_kg_service() -> QaService {
    QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .endpoint(Arc::new(InProcessEndpoint::new("People", people_store())))
        .endpoint(Arc::new(InProcessEndpoint::new("Seas", seas_store())))
        .default_kg("People")
        .build()
        .expect("both KGs registered")
}

#[test]
fn one_service_serves_two_kgs_from_many_threads() {
    let service = two_kg_service();

    // Single-threaded reference answers for both KGs.
    let reference_people = service
        .answer(AnswerRequest::new(PEOPLE_QUESTION).on_kg("People"))
        .unwrap();
    let reference_seas = service
        .answer(AnswerRequest::new(SEAS_QUESTION).on_kg("Seas"))
        .unwrap();
    assert!(reference_people
        .answers()
        .iter()
        .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));
    assert!(reference_seas
        .answers()
        .iter()
        .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Baltic_Sea")));

    // Eight threads share one service (cheap clones of the same Arc'd
    // models), alternating between the two registered KGs.
    let results: Vec<(String, Vec<Term>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let service = service.clone();
                scope.spawn(move || {
                    let (kg, question) = if i % 2 == 0 {
                        ("People", PEOPLE_QUESTION)
                    } else {
                        ("Seas", SEAS_QUESTION)
                    };
                    let response = service
                        .answer(AnswerRequest::new(question).on_kg(kg))
                        .unwrap();
                    assert_eq!(response.kg, kg);
                    assert_eq!(response.verdict, BudgetVerdict::Completed);
                    (response.kg, response.trace.filtered.answers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every thread got exactly the single-threaded answers for its KG.
    for (kg, answers) in results {
        let expected = if kg == "People" {
            reference_people.answers()
        } else {
            reference_seas.answers()
        };
        assert_eq!(answers, expected, "divergent answers on {kg}");
    }
}

#[test]
fn deadline_degrades_gracefully_on_a_slow_kg() {
    let latency = Duration::from_millis(40);

    // Reference: no deadline, the full pipeline runs against the slow KG.
    let unbounded_endpoint =
        Arc::new(InProcessEndpoint::new("Slow", people_store()).with_latency(latency));
    let service = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .endpoint(unbounded_endpoint.clone())
        .build()
        .unwrap();
    let complete = service.answer(AnswerRequest::new(PEOPLE_QUESTION)).unwrap();
    assert_eq!(complete.verdict, BudgetVerdict::Completed);
    let unbounded_requests = unbounded_endpoint.stats().total_requests;
    assert!(
        unbounded_requests >= 4,
        "expected several endpoint round-trips, got {unbounded_requests}"
    );

    // Deadlined: the budget expires during the first 40ms round-trip, so
    // the pipeline stops probing instead of issuing the remaining queries.
    let deadlined_endpoint =
        Arc::new(InProcessEndpoint::new("Slow", people_store()).with_latency(latency));
    let service = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .endpoint(deadlined_endpoint.clone())
        .build()
        .unwrap();
    let partial = service
        .answer(AnswerRequest::new(PEOPLE_QUESTION).with_deadline(Duration::from_millis(10)))
        .unwrap();

    assert!(partial.is_partial(), "deadline must flag the response");
    assert_eq!(partial.verdict, BudgetVerdict::Partial);
    let partial_requests = deadlined_endpoint.stats().total_requests;
    assert!(
        partial_requests < unbounded_requests,
        "deadline should cut endpoint work: {partial_requests} vs {unbounded_requests}"
    );
    // Wall time is bounded: the deadline plus at most one in-flight
    // round-trip per phase check-point, nowhere near the unbounded run.
    assert!(
        partial.elapsed < Duration::from_secs(2),
        "partial response took {:?}",
        partial.elapsed
    );
}

#[test]
fn per_request_overrides_take_effect_without_touching_the_service() {
    let service = two_kg_service();

    let filtered = service.answer(AnswerRequest::new(PEOPLE_QUESTION)).unwrap();
    let unfiltered = service
        .answer(
            AnswerRequest::new(PEOPLE_QUESTION).with_overrides(ConfigOverrides {
                filtration_enabled: Some(false),
                ..Default::default()
            }),
        )
        .unwrap();
    // With filtration disabled the response returns every collected answer.
    assert_eq!(unfiltered.answers(), unfiltered.trace.filtered.unfiltered);
    // The service-wide config is untouched by per-request overrides.
    assert!(service.config().filtration_enabled);
    assert!(!filtered.answers().is_empty());

    // Capping the productive-query budget caps executed candidates.
    let capped = service
        .answer(
            AnswerRequest::new(PEOPLE_QUESTION).with_overrides(ConfigOverrides {
                max_productive_queries: Some(1),
                ..Default::default()
            }),
        )
        .unwrap();
    let productive = capped
        .trace
        .execution
        .query_stats
        .iter()
        .filter(|s| s.rows > 0)
        .count();
    assert!(
        productive <= 1,
        "expected ≤1 productive query, got {productive}"
    );
}

#[test]
fn answer_batch_agrees_with_sequential_answers_across_kgs() {
    let service = two_kg_service();
    let requests = vec![
        AnswerRequest::new(PEOPLE_QUESTION).on_kg("People"),
        AnswerRequest::new(SEAS_QUESTION).on_kg("Seas"),
        AnswerRequest::new(PEOPLE_QUESTION).on_kg("People"),
        AnswerRequest::new(SEAS_QUESTION).on_kg("Seas"),
    ];

    let sequential: Vec<_> = requests
        .iter()
        .map(|r| service.answer(r.clone()).unwrap().trace.filtered.answers)
        .collect();
    let batched = service.answer_batch(&requests);

    assert_eq!(batched.len(), requests.len());
    for (i, (response, expected)) in batched.iter().zip(&sequential).enumerate() {
        let response = response.as_ref().expect("batch request succeeds");
        assert_eq!(response.answers(), expected, "request {i} diverged");
        assert_eq!(response.kg, requests[i].kg.clone().unwrap());
    }
}

#[test]
fn a_name_with_a_multi_byte_letter_is_answered_or_not_understood_never_a_panic() {
    let service = two_kg_service();
    for question in [
        "Who is the wife of Muñoz?",
        "Who is the wife of Muñoz Obama?",
    ] {
        match service.answer(AnswerRequest::new(question)) {
            Ok(_) | Err(KgqanError::UnderstandingFailed { .. }) => {}
            Err(other) => panic!("{question}: {other}"),
        }
    }
}
