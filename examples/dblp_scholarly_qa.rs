//! Scholarly question answering on a DBLP-like knowledge graph — the
//! "unseen domain" scenario of §7.2.3: KGQAn's models were trained only on
//! general-fact questions, yet it answers questions about papers, authors
//! and venues without any adaptation.
//!
//! ```text
//! cargo run --release --example dblp_scholarly_qa
//! ```

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn main() {
    // A synthetic DBLP stand-in: publications with long titles, authors with
    // affiliations, venues, years.
    let kg = GeneratedKg::generate(KgFlavor::Dblp, KgScale::tiny());
    println!(
        "DBLP-like KG: {} triples, {} papers, {} authors",
        kg.store.len(),
        kg.facts.papers.len(),
        kg.facts.authors.len()
    );
    println!("Training question-understanding models (general-fact corpus only)…");
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("DBLP", kg.store.clone())))
        .build()
        .expect("one registered KG");

    let paper = &kg.facts.papers[5];
    let author = &kg.facts.authors[paper.authors[0]];
    let questions = [
        format!("Who is the author of {}?", paper.title),
        format!("Which conference published {}?", paper.title),
        format!("What is the primary affiliation of {}?", author.name),
        format!("Did {} write the paper {}?", author.name, paper.title),
    ];

    for question in &questions {
        println!("\nQuestion: {question}");
        match service.answer(AnswerRequest::new(question)) {
            Ok(response) => {
                if let Some(verdict) = response.boolean() {
                    println!("  Answer: {verdict}");
                } else if response.answers().is_empty() {
                    println!("  No answer found.");
                } else {
                    for answer in response.answers() {
                        println!("  Answer: {answer}");
                    }
                }
            }
            Err(e) => println!("  Failed: {e}"),
        }
    }

    println!(
        "\nGold for the first question: {:?}",
        paper
            .authors
            .iter()
            .map(|&a| kg.facts.authors[a].name.clone())
            .collect::<Vec<_>>()
    );
}
