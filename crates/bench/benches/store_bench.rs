//! Criterion micro-benchmarks for the RDF store substrate: bulk loading,
//! id-level triple-pattern scans over the sextuple index, and full-text
//! search.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_rdf::{Store, Term, TriplePattern};

fn load_store(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let triples: Vec<_> = kg.store.iter().collect();
    let mut group = c.benchmark_group("store_load");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("insert_all", triples.len()), |b| {
        b.iter(|| {
            let mut store = Store::new();
            store.insert_all(triples.iter().cloned());
            store.len()
        })
    });
    group.finish();
}

/// The id-level access path the SPARQL join loops use: pattern encoding is
/// paid once, every probe is an iterator-driven range scan over `TermId`s,
/// and nothing is decoded.
fn pattern_matching(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let store = &kg.store;
    let label = Term::iri(kgqan_rdf::vocab::RDFS_LABEL);
    let person = &kg.facts.people[17];
    let encode = |pattern: TriplePattern| store.encode_pattern(&pattern).expect("terms interned");
    let by_predicate = encode(TriplePattern::any().with_predicate(label));
    let by_subject_object = encode(
        TriplePattern::any()
            .with_subject(person.iri.clone())
            .with_object(Term::literal_str(person.name.clone())),
    );

    let mut group = c.benchmark_group("store_pattern_matching");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("by_predicate", |b| {
        b.iter(|| store.scan(by_predicate).count())
    });
    group.bench_function("by_subject_object", |b| {
        b.iter(|| store.scan(by_subject_object).count())
    });
    group.finish();
}

fn text_search(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::tiny());
    let mut group = c.benchmark_group("store_text_search");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("potential_relevant_vertices", |b| {
        b.iter(|| {
            kg.store
                .vertices_with_description_containing(&["query", "processing"], 400)
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, load_store, pattern_matching, text_search);
criterion_main!(benches);
