//! Criterion benchmarks for the cost-based query planner and streaming
//! executor:
//!
//! * **join order** — the same two-pattern query written in its worst order
//!   (huge scan first) and its best order (selective lookup first), both
//!   through the planner, plus the naive AST-order evaluator on the worst
//!   order.  The planner must make the worst spelling perform like the best
//!   one (the acceptance bar is ~2×); the naive evaluator shows the cost of
//!   not planning.
//! * **LIMIT early exit** — a `LIMIT 10` scan over tens of thousands of
//!   matching triples: the streaming executor stops after ~10 index
//!   entries, the naive evaluator materialises everything and truncates.
//! * **per-plan fixed cost** — an empty two-anchor MAG candidate planned
//!   through `Planner::for_shared_snapshot`, the constructor every
//!   in-process endpoint request goes through (the benches above use
//!   `Planner::new`, which installs no parallelism config).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan_bench::empty_mag_candidate;
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_rdf::{LiveStore, Store, Term, Triple};
use kgqan_sparql::{execute, execute_naive, parse_query, Planner, Query};

/// 20k people born across 40 cities (500 each), one tiny club with 4
/// members: the selectivity skew that makes join order matter.
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

fn parsed(query: &str) -> Query {
    parse_query(query).expect("bench query parses")
}

fn join_order(c: &mut Criterion) {
    let store = skewed_store();
    // Worst spelling: the 20k-row bornIn scan listed before the 4-row
    // memberOf lookup.
    let worst = parsed(
        "SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
         ?p <http://e/memberOf> <http://e/club> . }",
    );
    // Best spelling: selective pattern first.
    let best = parsed(
        "SELECT ?p ?c WHERE { ?p <http://e/memberOf> <http://e/club> . \
         ?p <http://e/bornIn> ?c . }",
    );
    // Warm the store's planner-stats cache outside the timing loops.
    let _ = store.planner_stats();

    let mut group = c.benchmark_group("sparql_planner_join_order");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("worst_order_planned", |b| {
        b.iter(|| execute(&store, &worst).unwrap())
    });
    group.bench_function("best_order_planned", |b| {
        b.iter(|| execute(&store, &best).unwrap())
    });
    group.bench_function("worst_order_naive", |b| {
        b.iter(|| execute_naive(&store, &worst).unwrap())
    });
    group.finish();
}

fn limit_early_exit(c: &mut Criterion) {
    let store = skewed_store();
    let query = parsed("SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 10");
    let _ = store.planner_stats();

    // Sanity: the streaming executor must only touch ~LIMIT index entries.
    let run = Planner::new(&store).plan(&query).execute().unwrap();
    assert_eq!(run.results.rows().len(), 10);
    assert!(
        run.metrics.rows_scanned <= 10,
        "LIMIT 10 scanned {} rows",
        run.metrics.rows_scanned
    );

    let mut group = c.benchmark_group("sparql_planner_limit");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("limit10_streaming", |b| {
        b.iter(|| execute(&store, &query).unwrap())
    });
    group.bench_function("limit10_naive_materialized", |b| {
        b.iter(|| execute_naive(&store, &query).unwrap())
    });
    group.finish();
}

fn serving_plan(c: &mut Criterion) {
    let mag = GeneratedKg::generate(KgFlavor::Mag, KgScale::benchmark(KgFlavor::Mag));
    let query = parsed(&empty_mag_candidate(&mag));
    let snapshot = LiveStore::new(mag.store).snapshot();
    let run = Planner::for_shared_snapshot(&snapshot)
        .plan(&query)
        .execute()
        .unwrap();
    assert!(run.results.rows().is_empty());

    let mut group = c.benchmark_group("sparql_planner");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("plan_two_anchor_candidate", |b| {
        b.iter(|| Planner::for_shared_snapshot(&snapshot).plan(&query))
    });
    group.finish();
}

criterion_group!(benches, join_order, limit_early_exit, serving_plan);
criterion_main!(benches);
