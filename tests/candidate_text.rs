//! Candidates and their execution stats carry only the query AST; the SPARQL
//! text is rendered when someone reads it.  Over a batch of MAG benchmark
//! questions, every executed candidate's rendered text parses back to the
//! AST that ran.  (`smoke_quickstart.rs` pins the running example's text
//! byte for byte.)

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_benchmarks::questions::questions_for;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_sparql::parse_query;

#[test]
fn mag_candidate_text_parses_back_to_the_executed_ast() {
    let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::tiny());
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("MAG", kg.store.clone())))
        .no_cache()
        .build()
        .unwrap();
    let questions = questions_for(&kg, 40).questions;
    assert!(questions.len() >= 20);
    let mut executed = 0;
    for question in &questions {
        let Ok(response) = service.answer(AnswerRequest::new(&question.text)) else {
            continue;
        };
        for stat in &response.trace.execution.query_stats {
            let text = stat.sparql();
            let reparsed =
                parse_query(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", question.text));
            assert_eq!(reparsed, *stat.query, "{}\n{text}", question.text);
            executed += 1;
        }
    }
    assert!(executed >= questions.len(), "only {executed} executed");
}
