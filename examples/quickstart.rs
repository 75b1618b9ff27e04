//! Quickstart: build a small knowledge graph, wrap it in a SPARQL endpoint,
//! and ask KGQAn the paper's running example question 𝑞_E.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, Store, Term, Triple};

fn main() {
    // 1. A miniature DBpedia fragment around the running example (Figure 4).
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
    println!("Knowledge graph loaded: {} triples", store.len());

    // 2. Expose the store as a SPARQL endpoint — the only interface KGQAn
    //    uses.  A remote Virtuoso endpoint would be swapped in here.
    let endpoint = Arc::new(InProcessEndpoint::new("DBpedia", store));

    // 3. Train the (KG-independent) question-understanding models and build
    //    the service with the paper's default configuration.
    println!("Training question-understanding models (one-time, KG-independent)…");
    let service = QaService::builder()
        .endpoint(endpoint)
        .build()
        .expect("one registered KG");

    // 4. Ask the running example question.
    let question = "Name the sea into which Danish Straits flows and has \
                    Kaliningrad as one of the city on the shore";
    println!("\nQuestion: {question}");
    let response = service
        .answer(AnswerRequest::new(question))
        .expect("question should be understood");
    // The response owns the run's full per-stage trace.
    let trace = &response.trace;

    println!("\nPhrase graph pattern (the system's understanding):");
    print!("{}", trace.understanding.pgp);
    println!(
        "Predicted answer type: {} (semantic type: {:?})",
        trace.understanding.answer_type.data_type, trace.understanding.answer_type.semantic_type
    );

    println!(
        "\nExecuted SPARQL ({} candidate queries):",
        trace.execution.query_stats.len()
    );
    for stat in &trace.execution.query_stats {
        println!("{}\n", stat.sparql());
    }

    println!("Answers:");
    for answer in response.answers() {
        println!("  {answer}");
    }
    println!(
        "\nStage timings — understand: {:?}, link: {:?}, execute: {:?}, filter: {:?}",
        trace.timings.understand, trace.timings.link, trace.timings.execute, trace.timings.filter
    );
    println!(
        "Endpoint served {} requests in total.",
        response.endpoint_stats.total_requests
    );
}
