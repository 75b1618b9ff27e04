//! Exact scan work of three planned queries over a store large enough for
//! join order and `LIMIT` early exit to matter: 20 000 people born across
//! 40 cities (500 each) and one club with 4 members — the store the
//! `sparql_planner` bench times.
//!
//! `rows_scanned` counts index entries the executor touched.  It depends
//! on the store, the query and the plan only, so it is the same on every
//! machine and the expectation is an equality: a count that rises means
//! the planner picked a worse order or the executor stopped streaming.

use kgqan_rdf::{Store, Term, Triple};
use kgqan_sparql::{parse_query, Planner};

fn skewed_store() -> Store {
    let mut store = Store::new();
    let born = Term::iri("http://e/bornIn");
    let member = Term::iri("http://e/memberOf");
    let club = Term::iri("http://e/club");
    for i in 0..20_000 {
        let person = Term::iri(format!("http://e/person{i}"));
        let city = Term::iri(format!("http://e/city{}", i % 40));
        store.insert(Triple::new(person.clone(), born.clone(), city));
        if i % 5_000 == 0 {
            store.insert(Triple::new(person, member.clone(), club.clone()));
        }
    }
    store
}

/// `(result rows, rows scanned)` of `sparql`, planned and run.
fn run(sparql: &str) -> (usize, u64) {
    let store = skewed_store();
    let query = parse_query(sparql).expect("query parses");
    let run = Planner::new(&store)
        .plan(&query)
        .execute()
        .expect("query runs");
    (run.results.rows().len(), run.metrics.rows_scanned)
}

/// Written worst-first — the 20 000-entry scan before the 4-entry lookup.
/// Planned, it is the 4 club members and one birthplace for each.
#[test]
fn worst_order_two_pattern_join() {
    let scanned = run("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
         ?p <http://e/memberOf> <http://e/club> . }");
    assert_eq!(scanned, (4, 8));
}

#[test]
fn limit10_streaming_scan() {
    let scanned = run("SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 10");
    assert_eq!(scanned, (10, 10));
}

#[test]
fn selective_point_lookup() {
    let scanned = run("SELECT ?p WHERE { ?p <http://e/memberOf> <http://e/club> . }");
    assert_eq!(scanned, (4, 4));
}
