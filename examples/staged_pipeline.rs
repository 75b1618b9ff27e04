//! The staged pipeline API and the KG-scoped semantic cache: read the full
//! per-stage trace every response owns, watch repeated questions turn into
//! cache hits, and swap a pipeline stage (the baselines' rule-based
//! question understanding) into KGQAn's linking/execution stages.
//!
//! ```text
//! cargo run --release --example staged_pipeline
//! ```

use std::sync::Arc;

use kgqan::pipeline::Pipeline;
use kgqan::{AnswerRequest, QaService, QuestionUnderstanding};
use kgqan_baselines::kgqan_adapter::RuleBasedUnderstand;
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, Store, Term, Triple};

fn people_kg() -> Store {
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
        Triple::new(michelle.clone(), label, Term::literal_str("Michelle Obama")),
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

fn main() {
    println!("training the question-understanding models once …");
    let understanding = Arc::new(QuestionUnderstanding::train_default());

    // One service, one registered KG, cache on by default.
    let service = QaService::builder()
        .shared_understanding(Arc::clone(&understanding))
        .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", people_kg())))
        .build()
        .expect("one registered KG");

    let question = "Who is the wife of Barack Obama?";

    // Every response owns its run's trace: each stage's artifact and timing.
    let cold = service
        .answer(AnswerRequest::new(question))
        .expect("cold answer");
    let after_cold = service.cache_report().total();
    println!("\n— cold request —");
    println!("  answers:     {:?}", cold.answers());
    println!(
        "  stages:      understand {:?} | link {:?} | execute {:?} | filter {:?}",
        cold.trace.timings.understand,
        cold.trace.timings.link,
        cold.trace.timings.execute,
        cold.trace.timings.filter,
    );
    println!(
        "  candidates:  {} generated, {} executed",
        cold.trace.linked.candidates.len(),
        cold.trace.execution.query_stats.len()
    );
    println!(
        "  cache:       {} misses, {} hits",
        after_cold.misses, after_cold.hits
    );

    // The same question again: the linking probes and candidate queries
    // come out of the KG's cache namespace.  A request's cache activity is
    // the difference of two `cache_report()` reads.
    let warm = service
        .answer(AnswerRequest::new(question))
        .expect("warm answer");
    let warm_cache = service.cache_report().total().since(&after_cold);
    println!("\n— warm repeat —");
    println!("  answers:     {:?}", warm.answers());
    println!(
        "  cache:       {} misses, {} hits",
        warm_cache.misses, warm_cache.hits
    );
    let report = service.cache_report();
    let stats = report.kg("DBpedia").expect("cached KG");
    println!(
        "  namespace:   {:.0}% hit rate over {} lookups",
        stats.hit_rate() * 100.0,
        stats.hits + stats.misses
    );
    assert_eq!(warm.answers(), cold.answers());
    assert_eq!(
        warm_cache.misses, 0,
        "a warm repeat never reaches the engine"
    );

    // Stage swapping: the baselines' curated-rule question decomposition in
    // stage 1, KGQAn's JIT linking / execution / filtration downstream.
    let affinity: Arc<dyn kgqan::SemanticAffinity> =
        Arc::from(kgqan::AffinityModel::FineGrained.build());
    let mixed = Pipeline::kgqan(understanding, affinity)
        .with_understand(Arc::new(RuleBasedUnderstand::default()));
    let rules_service = QaService::builder()
        .shared_understanding(service.understanding().clone())
        .pipeline(mixed)
        .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", people_kg())))
        .build()
        .expect("one registered KG");
    let swapped = rules_service
        .answer(AnswerRequest::new(question))
        .expect("rule-based answer");
    println!("\n— rule-based understanding, same downstream stages —");
    println!("  answers:     {:?}", swapped.answers());
    assert_eq!(swapped.answers(), cold.answers());
}
