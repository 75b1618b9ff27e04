//! Criterion micro-benchmarks for the SPARQL layer: parsing, BGP joins,
//! OPTIONAL evaluation, the `bif:contains` text-search path used by the
//! JIT linker, and one empty candidate through the in-process endpoint.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan_bench::empty_mag_candidate;
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_sparql::{execute_query, parse_query};

fn parsing(c: &mut Criterion) {
    let query = r#"PREFIX dbv: <http://dbpedia.org/resource/>
        SELECT DISTINCT ?sea ?type WHERE {
          ?sea <http://dbpedia.org/property/outflow> dbv:Danish_straits .
          ?sea <http://dbpedia.org/ontology/nearestCity> dbv:Kaliningrad .
          OPTIONAL { ?sea a ?type . }
          FILTER (CONTAINS(?name, "sea") && ?pop > 100)
        } LIMIT 40"#;
    let mut group = c.benchmark_group("sparql_parse");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("figure1_style_query", |b| {
        b.iter(|| parse_query(query).unwrap())
    });
    group.finish();
}

fn execution(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let store = &kg.store;
    let person = &kg.facts.people[11];
    let voc = kg.predicates.as_ref().unwrap();

    let mut group = c.benchmark_group("sparql_execute");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));

    let single = format!(
        "SELECT ?u WHERE {{ <{}> <{}> ?u . }}",
        person.iri.as_iri().unwrap(),
        voc.birth_place
    );
    group.bench_function("single_triple_lookup", |b| {
        b.iter(|| execute_query(store, &single).unwrap())
    });

    let join = format!(
        "SELECT ?u ?type WHERE {{ ?u <{}> ?c . ?c <{}> ?m . OPTIONAL {{ ?u a ?type . }} }} LIMIT 50",
        voc.capital, voc.mayor
    );
    group.bench_function("two_hop_join_with_optional", |b| {
        b.iter(|| execute_query(store, &join).unwrap())
    });

    let text = r#"SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "'baltic' OR 'sea'" . } LIMIT 400"#;
    group.bench_function("bif_contains_linking_probe", |b| {
        b.iter(|| execute_query(store, text).unwrap())
    });
    group.finish();
}

/// What an executed candidate that finds nothing costs the engine: plan and
/// execute through `InProcessEndpoint::query_parsed` (no parse, no cache)
/// over the MAG stand-in at benchmark scale, and through
/// `query_traced_within`, the call the Execute stage makes for every
/// candidate (an unbounded request passes no deadline).  It also returns
/// the executor's work counters; the two lines differ by those alone.
fn empty_candidate(c: &mut Criterion) {
    let mag = GeneratedKg::generate(KgFlavor::Mag, KgScale::benchmark(KgFlavor::Mag));
    let query = parse_query(&empty_mag_candidate(&mag)).unwrap();
    let endpoint = InProcessEndpoint::new("MAG", mag.store);
    assert!(endpoint.query_parsed(&query).unwrap().rows().is_empty());

    let mut group = c.benchmark_group("sparql_bench");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("empty_candidate_query_parsed", |b| {
        b.iter(|| endpoint.query_parsed(&query).unwrap())
    });
    group.bench_function("empty_candidate_query_traced_within", |b| {
        b.iter(|| endpoint.query_traced_within(&query, None).unwrap())
    });
    group.finish();
}

criterion_group!(benches, parsing, execution, empty_candidate);
criterion_main!(benches);
