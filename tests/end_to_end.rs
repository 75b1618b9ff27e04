//! End-to-end integration test: the full KGQAn pipeline against a generated
//! DBpedia-like knowledge graph, across the question categories of the
//! paper's taxonomy.

use std::sync::{Arc, OnceLock};

use kgqan::{AnswerRequest, AnswerResponse, Budget, QaService, StageContext};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_benchmarks::questions::questions_for;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_nlp::AnswerDataType;

fn dbpedia() -> &'static GeneratedKg {
    static KG: OnceLock<GeneratedKg> = OnceLock::new();
    KG.get_or_init(|| GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny()))
}

fn service() -> &'static QaService {
    static SERVICE: OnceLock<QaService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new(
                "DBpedia",
                dbpedia().store.clone(),
            )))
            .build()
            .unwrap()
    })
}

fn answer(question: &str) -> AnswerResponse {
    service().answer(AnswerRequest::new(question)).unwrap()
}

#[test]
fn single_fact_question_returns_gold_spouse() {
    let kg = dbpedia();
    let person = kg.facts.people.iter().find(|p| p.spouse.is_some()).unwrap();
    let spouse = &kg.facts.people[person.spouse.unwrap()];
    let response = answer(&format!("Who is the wife of {}?", person.name));
    assert!(
        response.answers().contains(&spouse.iri),
        "expected {} among {:?}",
        spouse.iri,
        response.answers()
    );
    assert_eq!(
        response.trace.understanding.answer_type.data_type,
        AnswerDataType::String
    );
}

#[test]
fn fact_with_type_question_returns_capital_city() {
    let kg = dbpedia();
    let country = &kg.facts.countries[4];
    let capital = &kg.facts.cities[country.capital];
    let response = answer(&format!("Which city is the capital of {}?", country.name));
    assert!(
        response.answers().contains(&capital.iri),
        "expected {} among {:?}",
        capital.iri,
        response.answers()
    );
}

#[test]
fn multi_fact_question_constrains_the_unknown_with_both_facts() {
    let kg = dbpedia();
    let sea = &kg.facts.waters[0];
    let straits = &kg.facts.waters[sea.outflow_of.unwrap()];
    let city = &kg.facts.cities[sea.nearest_city];
    let question = format!(
        "Name the sea into which {} flows and has {} as one of the city on the shore",
        straits.name, city.name
    );
    let response = answer(&question);
    assert!(
        response.answers().contains(&sea.iri),
        "expected {} among {:?}",
        sea.iri,
        response.answers()
    );
    assert!(response.trace.understanding.pgp.num_triples() >= 2);
}

#[test]
fn date_question_returns_a_date_literal() {
    let kg = dbpedia();
    let person = &kg.facts.people[10];
    let response = answer(&format!("When was {} born?", person.name));
    assert_eq!(
        response.trace.understanding.answer_type.data_type,
        AnswerDataType::Date
    );
    assert!(
        response
            .answers()
            .iter()
            .any(|t| t.as_literal().map(|l| l.is_date()).unwrap_or(false)),
        "expected a date literal among {:?}",
        response.answers()
    );
}

#[test]
fn boolean_question_gets_correct_verdicts_in_both_directions() {
    let kg = dbpedia();
    let country = &kg.facts.countries[2];
    let capital = &kg.facts.cities[country.capital];
    let not_capital = &kg.facts.cities[(country.capital + 5) % kg.facts.cities.len()];

    let yes = answer(&format!(
        "Is {} the capital of {}?",
        capital.name, country.name
    ));
    assert_eq!(
        yes.boolean(),
        Some(true),
        "expected yes for the true statement"
    );

    let no = answer(&format!(
        "Is {} the capital of {}?",
        not_capital.name, country.name
    ));
    assert_eq!(
        no.boolean(),
        Some(false),
        "expected no for the false statement"
    );
}

#[test]
fn pipeline_reports_all_three_phase_timings_and_queries() {
    let kg = dbpedia();
    let person = &kg.facts.people[1];
    let response = answer(&format!("Where was {} born?", person.name));
    let executed = response.trace.execution.executed_queries();
    assert!(!executed.is_empty());
    let t = response.trace.timings;
    assert!(t.understand > std::time::Duration::ZERO);
    assert!(t.total() >= t.link);
    assert!(t.total() >= t.execute + t.filter);
    // The executed SPARQL carries the OPTIONAL rdf:type clause used by the
    // post-filter (Figure 6).
    assert!(executed[0].contains("OPTIONAL"));
}

#[test]
fn nonsense_entity_yields_empty_answer_not_error() {
    let response = answer("Who is the wife of Xyzzyplugh Frobozz?");
    assert!(response.answers().is_empty());
}

/// The two doors agree: `Pipeline::run` on a borrowed endpoint and
/// `QaService::answer` on the same endpoint registered uncached produce the
/// same answers, verdicts and executed queries for every benchmark question.
#[test]
fn pipeline_run_and_service_answer_agree_on_every_tiny_question() {
    let kg = dbpedia();
    let endpoint = Arc::new(InProcessEndpoint::new("DBpedia", kg.store.clone()));
    let registered = QaService::builder()
        .shared_understanding(service().understanding().clone())
        .endpoint(endpoint.clone())
        .no_cache()
        .build()
        .unwrap();

    let questions = questions_for(kg, 60).questions;
    assert!(questions.len() >= 30);
    let mut answered = 0;
    for question in &questions {
        let budget = Budget::unbounded();
        let borrowed = registered.pipeline().run(
            &question.text,
            &StageContext::new(endpoint.as_ref(), &budget, registered.config()),
        );
        let served = registered.answer(AnswerRequest::new(&question.text));
        match (borrowed, served) {
            (Ok(trace), Ok(response)) => {
                assert_eq!(
                    trace.filtered.answers,
                    response.answers(),
                    "{}",
                    question.text
                );
                assert_eq!(trace.execution.boolean, response.boolean());
                assert_eq!(
                    trace.execution.executed_queries(),
                    response.trace.execution.executed_queries(),
                    "{}",
                    question.text
                );
                answered += usize::from(!trace.filtered.answers.is_empty());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("doors disagree on {:?}: {a:?} vs {b:?}", question.text),
        }
    }
    assert!(answered > questions.len() / 2, "only {answered} answered");
}
