//! The hardest "universality" scenario of the paper: a Microsoft-Academic-
//! Graph-like KG whose entity URIs are opaque numeric identifiers (e.g.
//! `https://makg.org/entity/2279569217`), described only through `foaf:name`
//! literals.  Index-based linkers built on URI text find nothing here; KGQAn's
//! just-in-time linking through the endpoint's full-text index still works.
//!
//! The example answers a question with KGQAn and with the gAnswer behaviour
//! model side by side, reproducing the §7.2.3 contrast.
//!
//! ```text
//! cargo run --release --example unseen_kg_mag
//! ```

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_baselines::{GAnswerSystem, QaSystem};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn main() {
    let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::tiny());
    println!(
        "MAG-like KG: {} triples; example entity URI: {}",
        kg.store.len(),
        kg.facts.authors[0].iri
    );
    let endpoint = Arc::new(InProcessEndpoint::new("MAG", kg.store.clone()));

    let author = &kg.facts.authors[2];
    let question = format!("What is the primary affiliation of {}?", author.name);
    println!("\nQuestion: {question}");
    println!("Gold affiliation: {}", kg.facts.authors[2].affiliation);

    // KGQAn: no pre-processing, just-in-time linking.
    println!("\n-- KGQAn (no pre-processing) --");
    let service = QaService::builder()
        .endpoint(endpoint.clone())
        .build()
        .expect("one registered KG");
    match service.answer(AnswerRequest::new(&question)) {
        Ok(response) => {
            if response.answers().is_empty() {
                println!("  No answer found.");
            }
            for answer in response.answers() {
                println!("  Answer: {answer}");
            }
        }
        Err(e) => println!("  Failed: {e}"),
    }

    // gAnswer behaviour model: needs a pre-processing pass, and its URI-text
    // index cannot link mentions to opaque MAG URIs.
    println!("\n-- gAnswer behaviour model (URI-text index) --");
    let mut ganswer = GAnswerSystem::new();
    let stats = ganswer.preprocess(endpoint.as_ref());
    println!(
        "  Pre-processing: {:?}, index ≈ {} KB",
        stats.duration,
        stats.index_bytes / 1024
    );
    let response = ganswer.answer(&question, endpoint.as_ref());
    if response.answers.is_empty() {
        println!(
            "  No answer found (URI-based linking cannot resolve \"{}\").",
            author.name
        );
    } else {
        for answer in &response.answers {
            println!("  Answer: {answer}");
        }
    }
}
