//! Point KGQAn at your own knowledge graph: load N-Triples, register the
//! endpoint under a name (the "Question + Endpoint URI" interaction of
//! Figure 2), and answer questions against it — no per-KG configuration.
//!
//! ```text
//! cargo run --release --example build_your_own_kg
//! ```

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{parse_ntriples, Store};

/// An N-Triples document describing a tiny music knowledge graph — a domain
/// that appears nowhere in KGQAn's training corpus.
const MUSIC_KG: &str = r#"
<http://example.org/band/Radiohead> <http://www.w3.org/2000/01/rdf-schema#label> "Radiohead" .
<http://example.org/band/Radiohead> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/class/Band> .
<http://example.org/person/Thom_Yorke> <http://www.w3.org/2000/01/rdf-schema#label> "Thom Yorke" .
<http://example.org/person/Thom_Yorke> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/class/Person> .
<http://example.org/person/Thom_Yorke> <http://example.org/prop/memberOf> <http://example.org/band/Radiohead> .
<http://example.org/album/OK_Computer> <http://www.w3.org/2000/01/rdf-schema#label> "OK Computer" .
<http://example.org/album/OK_Computer> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/class/Album> .
<http://example.org/album/OK_Computer> <http://example.org/prop/artist> <http://example.org/band/Radiohead> .
<http://example.org/album/OK_Computer> <http://example.org/prop/releaseDate> "1997-05-21"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://example.org/album/In_Rainbows> <http://www.w3.org/2000/01/rdf-schema#label> "In Rainbows" .
<http://example.org/album/In_Rainbows> <http://example.org/prop/artist> <http://example.org/band/Radiohead> .
<http://example.org/album/In_Rainbows> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/class/Album> .
"#;

fn main() {
    // 1. Load the N-Triples dump into a store.
    let triples = parse_ntriples(MUSIC_KG).expect("valid N-Triples");
    let mut store = Store::new();
    let inserted = store.insert_all(triples);
    println!("Loaded {inserted} triples into the music KG.");

    // 2. Register the endpoint under a name, the way a user would pick a
    //    SPARQL endpoint URI.  One service, any KG.
    let service = QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("MusicKG", store)))
        .build()
        .expect("one registered KG");

    // 3. Ask, naming the KG per request.
    let questions = [
        "Who is a member of Radiohead?",
        "When was OK Computer released?",
        "Which album has Radiohead as artist?",
    ];
    for question in questions {
        println!("\nQuestion: {question}");
        match service.answer(AnswerRequest::new(question).on_kg("MusicKG")) {
            Ok(response) => {
                if let Some(verdict) = response.boolean() {
                    println!("  Answer: {verdict}");
                } else if response.answers().is_empty() {
                    println!("  No answer found.");
                } else {
                    for answer in response.answers().iter().take(3) {
                        println!("  Answer: {answer}");
                    }
                }
            }
            Err(e) => println!("  Failed: {e}"),
        }
    }
}
