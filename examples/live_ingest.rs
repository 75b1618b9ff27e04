//! Live KGs: answer questions while the graph grows underneath you.
//!
//! The demo registers a small people KG, answers a question, then ingests
//! new facts through the service.  The ingest publishes a new **epoch
//! snapshot**: requests already holding the old snapshot keep their
//! consistent view, new requests see the new data, and the KG's semantic
//! cache is *scope*-invalidated — only entries the new triples could have
//! changed are evicted.  The demo asserts that: no full flush, some
//! scoped evictions, and cache hits when the old question is asked again.
//!
//! ```text
//! cargo run --release --example live_ingest
//! ```

use std::sync::Arc;

use kgqan::{AnswerRequest, CacheConfig, QaService};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_rdf::{vocab, IngestBatch, Store, Term, Triple};

const SPOUSE: &str = "http://example.org/ontology/spouse";

fn person(name: &str) -> Term {
    Term::iri(format!(
        "http://example.org/resource/{}",
        name.replace(' ', "_")
    ))
}

fn facts_about(name: &str, spouse: &str) -> [Triple; 3] {
    [
        Triple::new(
            person(name),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str(name),
        ),
        Triple::new(
            person(spouse),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str(spouse),
        ),
        Triple::new(person(name), Term::iri(SPOUSE), person(spouse)),
    ]
}

fn print_answers(label: &str, service: &QaService, question: &str) {
    let response = service
        .answer(AnswerRequest::new(question))
        .expect("the service answers");
    let answers: Vec<_> = response
        .answers()
        .iter()
        .map(|t| t.as_iri().unwrap_or("<literal>").to_string())
        .collect();
    if answers.is_empty() {
        println!("{label} {question:?} -> no answer");
    } else {
        println!("{label} {question:?} -> {}", answers.join(", "));
    }
}

fn main() {
    // 1. A KG that knows one couple, served through a cached live endpoint.
    let mut store = Store::new();
    store.insert_all(facts_about("Barack Obama", "Michelle Obama"));
    let endpoint = Arc::new(InProcessEndpoint::new("People", store));
    let service = QaService::builder()
        .endpoint(Arc::clone(&endpoint) as Arc<_>)
        .cache(CacheConfig::default())
        .build()
        .expect("service builds");

    println!("== epoch {} ==", endpoint.epoch());
    print_answers("  ", &service, "Who is the wife of Barack Obama?");
    print_answers("  ", &service, "Who is the wife of Harry Truman?");

    // 2. Pin the current snapshot, the way an in-flight request does.
    let pinned = endpoint.store();
    println!(
        "\npinned snapshot: epoch {}, {} triples",
        pinned.epoch(),
        pinned.len()
    );

    // 3. Ingest new facts through the service: one atomic batch, one new
    //    epoch, scoped cache invalidation.
    let report = service
        .ingest(
            "People",
            IngestBatch::from(facts_about("Harry Truman", "Bess Truman").to_vec()),
        )
        .expect("the People KG accepts writes");
    println!(
        "\ningested {} triples ({} duplicates) -> epoch {}",
        report.added(),
        report.duplicates(),
        report.epoch()
    );
    let mut tokens: Vec<&str> = report
        .touched()
        .literal_tokens()
        .iter()
        .map(String::as_str)
        .collect();
    tokens.sort_unstable();
    println!(
        "touched: {} added triples, literal tokens {tokens:?}",
        report.touched().added().len()
    );

    // 4. The pinned snapshot is frozen at its epoch; the service answers
    //    from the new one.
    println!(
        "\npinned snapshot still: epoch {}, {} triples",
        pinned.epoch(),
        pinned.len()
    );
    println!("== epoch {} ==", endpoint.epoch());
    print_answers("  ", &service, "Who is the wife of Harry Truman?");
    let before_obama = service.cache_report().total();
    print_answers("  ", &service, "Who is the wife of Barack Obama?");

    // 5. The cache counters show the invalidation was surgical: the Truman
    //    batch evicted the entries about Truman, and the ones about the
    //    Obamas survived it to answer the repeat.
    let total = service.cache_report().total();
    println!(
        "\ncache: {} hits, {} misses, {} scoped passes evicting {} entries, {} full flushes",
        total.hits,
        total.misses,
        total.scoped_invalidations,
        total.scoped_evictions,
        total.invalidations
    );
    assert_eq!(total.invalidations, 0, "the batch flushed the whole cache");
    assert!(total.scoped_evictions > 0, "the batch evicted nothing");
    let obama = total.since(&before_obama);
    assert!(obama.hits > 0, "the Obama repeat missed the cache");
    println!(
        "re-asked Obama question: {} hits, {} misses",
        obama.hits, obama.misses
    );
}
