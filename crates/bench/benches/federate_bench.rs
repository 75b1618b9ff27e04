//! Criterion benchmarks for the cross-KG federation layer.
//!
//! Two questions:
//!
//! 1. **Fan-out scaling** — answering one question over 1, 2, and 4
//!    registered KGs through [`FederatedEndpoint`]: the per-KG pipeline
//!    runs overlap on the shared pool, so the 4-KG cost should stay well
//!    under 4× the 1-KG cost.
//! 2. **`SERVICE` join vs. manual merge** — joining rows across two KGs
//!    with the planner's `SERVICE <kg:name>` operator vs. issuing two
//!    separate queries and hash-joining the rows by hand, the way a client
//!    without the operator would have to.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::{QaService, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::{EndpointRegistry, InProcessEndpoint};
use kgqan_federate::{FederatedEndpoint, FederatedRequest};
use kgqan_rdf::{Store, Term, Triple};
use kgqan_sparql::{parse_query, QueryResults};

const SPOUSE: &str = "http://dbpedia.org/ontology/spouse";
const BIRTH_PLACE: &str = "http://dbpedia.org/ontology/birthPlace";

/// A federation of `n` mirrors of the same generated KG, plus a question
/// every mirror can answer (full agreement: the merge path does maximal
/// dedup work).
fn federation_of(n: usize) -> (FederatedEndpoint, String) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let question = format!("Who is the spouse of {}?", kg.facts.people[3].name);
    let mut builder = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .no_cache();
    for i in 0..n {
        builder = builder.endpoint(Arc::new(InProcessEndpoint::new(
            format!("KG{i}"),
            kg.store.clone(),
        )));
    }
    let service = builder.build().expect("federation builds");
    (FederatedEndpoint::new(service), question)
}

fn fan_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("federate_fan_out");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for n in [1usize, 2, 4] {
        let (federated, question) = federation_of(n);
        group.bench_function(format!("kgs{n}"), |b| {
            b.iter(|| {
                let response = federated
                    .ask(FederatedRequest::new(question.clone()))
                    .expect("federated ask");
                assert!(!response.answers.is_empty());
                criterion::black_box(response)
            })
        });
    }
    group.finish();
}

/// Two KGs whose rows only join across the boundary: `People` holds
/// `person —spouse→ partner`, `Places` holds `partner —birthPlace→ city`.
fn join_registry(pairs: usize) -> EndpointRegistry {
    let mut people = Store::new();
    let mut places = Store::new();
    for k in 0..pairs {
        let person = Term::iri(format!("http://e/person/{k}"));
        let partner = Term::iri(format!("http://e/partner/{k}"));
        let city = Term::iri(format!("http://e/city/{}", k % 7));
        people.insert(Triple::new(person, Term::iri(SPOUSE), partner.clone()));
        places.insert(Triple::new(partner, Term::iri(BIRTH_PLACE), city));
    }
    let mut registry = EndpointRegistry::new();
    registry.register(Arc::new(InProcessEndpoint::new("People", people)));
    registry.register(Arc::new(InProcessEndpoint::new("Places", places)));
    registry
}

fn service_join(c: &mut Criterion) {
    let registry = join_registry(256);
    let people = registry.get("People").expect("registered");
    let places = registry.get("Places").expect("registered");

    let service_query = parse_query(&format!(
        "SELECT ?s ?spouse ?place WHERE {{ ?s <{SPOUSE}> ?spouse . \
         SERVICE <kg:Places> {{ ?spouse <{BIRTH_PLACE}> ?place . }} }}"
    ))
    .expect("service query parses");
    let local_query = parse_query(&format!(
        "SELECT ?s ?spouse WHERE {{ ?s <{SPOUSE}> ?spouse . }}"
    ))
    .expect("local query parses");
    let remote_query = parse_query(&format!(
        "SELECT ?spouse ?place WHERE {{ ?spouse <{BIRTH_PLACE}> ?place . }}"
    ))
    .expect("remote query parses");

    let mut group = c.benchmark_group("federate_service_join");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("service_operator", |b| {
        b.iter(|| {
            let traced = people
                .query_federated(&service_query, &registry)
                .expect("SERVICE join");
            let QueryResults::Solutions(rows) = &traced.results else {
                panic!("SELECT expected");
            };
            assert_eq!(rows.rows().len(), 256);
            criterion::black_box(traced.results)
        })
    });
    group.bench_function("manual_two_query_merge", |b| {
        b.iter(|| {
            // What a client without the operator does: pull both sides
            // whole and hash-join on the shared variable.
            let QueryResults::Solutions(local) =
                people.query_parsed(&local_query).expect("local side")
            else {
                panic!("SELECT expected");
            };
            let QueryResults::Solutions(remote) =
                places.query_parsed(&remote_query).expect("remote side")
            else {
                panic!("SELECT expected");
            };
            let mut by_spouse: HashMap<String, Vec<&Term>> = HashMap::new();
            for row in remote.rows() {
                if let (Some(spouse), Some(place)) = (row.get("spouse"), row.get("place")) {
                    by_spouse.entry(spouse.to_string()).or_default().push(place);
                }
            }
            let mut joined = 0usize;
            for row in local.rows() {
                if let Some(spouse) = row.get("spouse") {
                    joined += by_spouse.get(&spouse.to_string()).map_or(0, Vec::len);
                }
            }
            assert_eq!(joined, 256);
            criterion::black_box(joined)
        })
    });
    group.finish();
}

criterion_group!(benches, fan_out, service_join);
criterion_main!(benches);
