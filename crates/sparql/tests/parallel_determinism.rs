//! Determinism and equivalence properties of the morsel-parallel executor.
//!
//! The parallel path must be *invisible* in the results: for any query the
//! rows — including their order, and including `DISTINCT`/`OFFSET`/`LIMIT`
//! paging — must be byte-identical to the sequential run's,
//! which in turn must agree (as a multiset) with the naive AST-order
//! reference evaluator.  Worker count, morsel granularity and scheduling
//! jitter may never leak into answers.

mod common;

use std::sync::Arc;
use std::time::Instant;

use common::{arb_pattern, arb_store, row_multiset, select_query};
use kgqan_rdf::{LiveStore, Store, StoreSnapshot, Term, Triple};
use kgqan_sparql::ast::Query;
use kgqan_sparql::{execute_naive, ExecOptions, ParallelConfig, Planner, QueryResults};
use proptest::prelude::*;

/// Random snapshots up to ~90 triples: big enough for multi-morsel
/// partitions, small enough to debug.
fn arb_snapshot() -> impl Strategy<Value = Arc<StoreSnapshot>> {
    arb_store(90).prop_map(|store| LiveStore::new(store).snapshot())
}

/// A config that fans out on stores of a handful of triples: every worker
/// is expected to absorb a single driver row, pages larger than the driver
/// estimate go parallel, and each worker's share splits into several
/// morsels.
fn eager(max_dop: usize, morsels_per_worker: usize) -> ParallelConfig {
    ParallelConfig {
        max_dop,
        rows_per_worker: 1.0,
        morsels_per_worker,
    }
}

fn run(snapshot: &Arc<StoreSnapshot>, query: &Query, config: ParallelConfig) -> QueryResults {
    Planner::for_shared_snapshot(snapshot)
        .with_parallelism(config)
        .plan(query)
        .execute()
        .expect("execution succeeds")
        .results
}

proptest! {
    /// Parallel execution at varying worker counts and morsel granularities
    /// returns the sequential executor's rows *byte-identically* — same
    /// rows, same order, same paging — and the sequential rows agree with
    /// the naive reference evaluator as a multiset.
    #[test]
    fn parallel_equals_sequential_equals_naive(
        snapshot in arb_snapshot(),
        pattern in arb_pattern(),
        distinct in any::<bool>(),
        // Limits reach past the driver estimates of these ≤ 90-triple
        // stores, so paged queries take the parallel path too.
        page in prop::option::of((0usize..100, 0usize..4)),
        max_dop in 2usize..9,
        morsels_per_worker in 1usize..5,
    ) {
        let (limit, offset) = match page {
            Some((limit, offset)) => (Some(limit), Some(offset)),
            None => (None, None),
        };
        let query = Query { limit, offset, ..select_query(pattern, distinct) };

        let sequential = run(&snapshot, &query, eager(1, morsels_per_worker));
        let parallel = run(&snapshot, &query, eager(max_dop, morsels_per_worker));
        prop_assert!(
            parallel == sequential,
            "parallel rows diverge at dop {} / {} morsels-per-worker\nquery:\n{}",
            max_dop, morsels_per_worker, query.to_sparql()
        );

        // Unpaged queries must also match the naive evaluator's multiset
        // (paged text-search queries legitimately cap their fan-out, so the
        // planner-vs-naive paging laws live in planner_properties.rs).
        if limit.is_none() && offset.is_none() {
            let naive = execute_naive(&snapshot, &query).expect("naive execution succeeds");
            prop_assert!(
                row_multiset(&sequential) == row_multiset(&naive),
                "sequential rows diverge from naive\nquery:\n{}",
                query.to_sparql()
            );
        }
    }

    /// A deadline that expires mid-run yields a clean *prefix* of the full
    /// result (never reordered or invented rows) with the flag set.
    #[test]
    fn expired_deadline_yields_flagged_prefix(
        snapshot in arb_snapshot(),
        pattern in arb_pattern(),
        max_dop in 1usize..9,
    ) {
        let query = select_query(pattern, false);
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager(max_dop, 2))
            .plan(&query);
        let full = plan.execute().expect("execution succeeds");
        let lapsed = plan
            .execute_with(ExecOptions { deadline: Some(Instant::now() - std::time::Duration::from_secs(1)) })
            .expect("execution succeeds");

        prop_assert!(lapsed.results.rows().len() <= full.results.rows().len());
        for (got, want) in lapsed.results.rows().iter().zip(full.results.rows()) {
            prop_assert_eq!(got, want);
        }
        if lapsed.results.rows().len() < full.results.rows().len() {
            prop_assert!(lapsed.metrics.deadline_exceeded);
        }
    }
}

/// The headline regression test: a skewed store large enough that the
/// driver scan splits into many morsels, a paging query with `DISTINCT`,
/// `OFFSET` and a `LIMIT` whose page exceeds the 400-row driver estimate
/// (smaller pages stay sequential), and the parallel path *provably
/// engaged* — the answer must be byte-identical between 1 and 8 workers.
#[test]
fn one_and_eight_workers_page_identically() {
    let mut store = Store::new();
    for i in 0..400 {
        let person = Term::iri(format!("http://g/person{i}"));
        // Zipf-ish: person i knows persons i+1 .. i+1+deg for a skewed deg.
        let degree = 1 + 40 / (1 + i % 13);
        for d in 1..=degree {
            store.insert(Triple::new(
                person.clone(),
                Term::iri("http://g/knows"),
                Term::iri(format!("http://g/person{}", (i + d) % 400)),
            ));
        }
        store.insert(Triple::new(
            person.clone(),
            Term::iri("http://g/city"),
            Term::iri(format!("http://g/city{}", i % 7)),
        ));
    }
    let snapshot = LiveStore::new(store).snapshot();

    let query = kgqan_sparql::parse_query(
        "SELECT DISTINCT ?a ?city WHERE { \
           ?a <http://g/knows> ?b . ?b <http://g/city> ?city . \
         } OFFSET 2 LIMIT 600",
    )
    .expect("query parses");

    let sequential = Planner::for_shared_snapshot(&snapshot)
        .with_parallelism(eager(1, 4))
        .plan(&query)
        .execute()
        .expect("sequential run succeeds");
    assert!(
        sequential.metrics.parallel.is_none(),
        "max_dop 1 must stay sequential"
    );

    let parallel = Planner::for_shared_snapshot(&snapshot)
        .with_parallelism(eager(8, 4))
        .plan(&query)
        .execute()
        .expect("parallel run succeeds");
    let metrics = parallel
        .metrics
        .parallel
        .as_ref()
        .expect("parallel path must engage on this store");
    assert!(metrics.dop >= 1 && metrics.morsels >= 2);

    assert_eq!(parallel.results, sequential.results);
    assert_eq!(sequential.results.rows().len(), 600);
}
