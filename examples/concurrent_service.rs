//! Concurrent multi-KG serving with [`QaService`]: build one service over
//! two registered knowledge graphs, answer with per-request configuration
//! overrides and deadlines, and fan a batch of requests across threads.
//!
//! ```text
//! cargo run --release --example concurrent_service
//! ```

use std::sync::Arc;
use std::time::Duration;

use kgqan::{AnswerRequest, ConfigOverrides, QaService, QuestionUnderstanding};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, Store, Term, Triple};

fn people_kg() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
    let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
    store.insert_all([
        Triple::new(
            obama.clone(),
            label.clone(),
            Term::literal_str("Barack Obama"),
        ),
        Triple::new(michelle.clone(), label, Term::literal_str("Michelle Obama")),
        Triple::new(
            obama,
            Term::iri("http://dbpedia.org/ontology/spouse"),
            michelle,
        ),
    ]);
    store
}

fn seas_kg() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
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
            sea,
            Term::iri("http://dbpedia.org/ontology/nearestCity"),
            kali,
        ),
    ]);
    store
}

fn main() {
    // 1. Build ONE service: the models are trained once and shared (Arc)
    //    by every clone and thread; the registry routes requests by KG name.
    println!("training the question-understanding models once...");
    let service = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .endpoint(Arc::new(InProcessEndpoint::new("People", people_kg())))
        .endpoint(Arc::new(InProcessEndpoint::new("Seas", seas_kg())))
        .default_kg("People")
        .build()
        .expect("default KG is registered");
    println!("registered KGs: {:?}\n", service.kg_names());

    // 2. A plain request against the default KG.
    let response = service
        .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
        .unwrap();
    println!(
        "[{}] {} -> {:?} ({} queries, partial: {})",
        response.kg,
        response.question,
        response
            .answers()
            .iter()
            .map(|t| t.readable_form().into_owned())
            .collect::<Vec<_>>(),
        response.trace.execution.query_stats.len(),
        response.is_partial(),
    );

    // 3. Target the other KG by name, with per-request overrides (here: a
    //    tighter candidate budget and no post-filtration) and a deadline.
    let request = AnswerRequest::new(
        "Name the sea into which Danish Straits flows and has Kaliningrad \
         as one of the city on the shore",
    )
    .on_kg("Seas")
    .with_overrides(ConfigOverrides {
        max_candidate_queries: Some(10),
        filtration_enabled: Some(false),
        ..Default::default()
    })
    .with_deadline(Duration::from_secs(5));
    let response = service.answer(request).unwrap();
    println!(
        "[{}] answered {:?} within budget (elapsed {:?}, verdict {:?})",
        response.kg,
        response
            .answers()
            .iter()
            .map(|t| t.readable_form().into_owned())
            .collect::<Vec<_>>(),
        response.elapsed,
        response.verdict,
    );

    // 4. Fan a mixed-KG batch out on the service's worker pool.
    let batch: Vec<AnswerRequest> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("People")
            } else {
                AnswerRequest::new("Which city is the nearest city of the Baltic Sea?")
                    .on_kg("Seas")
            }
        })
        .collect();
    let responses = service.answer_batch(&batch);
    println!("\nanswer_batch over {} mixed-KG requests:", batch.len());
    for response in responses {
        let response = response.unwrap();
        println!(
            "  {} [{}] -> {:?}",
            response.request_id,
            response.kg,
            response
                .answers()
                .iter()
                .map(|t| t.readable_form().into_owned())
                .collect::<Vec<_>>(),
        );
    }
}
