//! A query that misses every cache pays for its scan, not for copies of
//! itself: planning keeps ids instead of the query's terms, so its
//! allocations do not grow with the number or the length of the constants,
//! and a candidate shaped like the ones a cold question executes plans and
//! runs in a handful of allocations — measured, not assumed.
//!
//! This binary installs a counting `#[global_allocator]` whose counter is
//! thread-local, so the test measures its own thread only.  The counts are
//! only meaningful in release builds; CI runs
//! `cargo test --release -p kgqan-sparql --test plan_allocations`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kgqan_rdf::{vocab, LiveStore, Store, Term, Triple};
use kgqan_sparql::{parse_query, ExecOptions, Planner, Query};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local `Cell` without a destructor, so it neither allocates nor
// runs during thread teardown (`try_with` covers a destroyed slot anyway).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `work` made on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// An IRI of exactly 200 bytes.
fn long_iri(kind: &str, i: usize) -> String {
    let head = format!("http://example.org/{kind}/{i}/");
    format!("{head}{}", "x".repeat(200 - head.len()))
}

/// `SELECT ?x WHERE { <s0> <p0> ?x . … }` over `patterns` constant pairs of
/// 200-byte IRIs, all of them in the store.
fn constant_heavy(patterns: usize) -> (Store, Query) {
    let mut store = Store::new();
    let mut body = String::new();
    for i in 0..patterns {
        let (s, p) = (long_iri("subject", i), long_iri("predicate", i));
        store.insert(Triple::new(
            Term::iri(&s),
            Term::iri(&p),
            Term::iri(long_iri("object", i)),
        ));
        body.push_str(&format!("<{s}> <{p}> ?x . "));
    }
    let query = parse_query(&format!("SELECT ?x WHERE {{ {body}}}")).unwrap();
    (store, query)
}

#[test]
fn planning_allocates_the_same_for_1_and_8_patterns_of_long_iris() {
    let planned = |patterns: usize| {
        let (store, query) = constant_heavy(patterns);
        let snapshot = LiveStore::new(store).snapshot();
        let planner = Planner::for_shared_snapshot(&snapshot);
        drop(planner.plan(&query));
        allocations(|| drop(planner.plan(&query)))
    };
    let (one, eight) = (planned(1), planned(8));
    // A plan that copied its patterns would make at least three
    // allocations a pattern, one per 200-byte IRI.
    assert_eq!(
        one, eight,
        "planning made {one} allocations for 1 pattern, {eight} for 8"
    );
}

#[test]
fn a_cold_candidate_plans_in_10_allocations_and_runs_in_16() {
    // Three papers by three authors, none of them shared: the candidate's
    // anchors meet in no paper, like most candidates a cold question runs.
    let mut store = Store::new();
    let creator = "https://makg.org/property/creator";
    for i in 0..3 {
        let paper = Term::iri(format!("https://makg.org/entity/paper{i}"));
        store.insert(Triple::new(
            Term::iri(format!("https://makg.org/entity/author{i}")),
            Term::iri(creator),
            paper.clone(),
        ));
        store.insert(Triple::new(
            paper,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("https://makg.org/class/Paper"),
        ));
    }
    let snapshot = LiveStore::new(store).snapshot();
    let query = parse_query(&format!(
        "SELECT DISTINCT ?unknown1 ?type WHERE {{ \
         <https://makg.org/entity/author0> <{creator}> ?unknown1 . \
         <https://makg.org/entity/author1> <{creator}> ?unknown1 . \
         <https://makg.org/entity/author2> <{creator}> ?unknown1 . \
         OPTIONAL {{ ?unknown1 <{}> ?type . }} }}",
        vocab::RDF_TYPE
    ))
    .unwrap();
    let run = || {
        let plan = Planner::for_shared_snapshot(&snapshot).plan(&query);
        plan.execute_with(ExecOptions::default()).unwrap()
    };
    assert!(run().results.rows().is_empty());

    let planning = allocations(|| drop(Planner::for_shared_snapshot(&snapshot).plan(&query)));
    let end_to_end = allocations(|| assert!(run().results.rows().is_empty()));
    assert!(
        planning <= 10,
        "planning the candidate made {planning} allocations"
    );
    assert!(
        end_to_end <= 16,
        "planning and running the candidate made {end_to_end} allocations"
    );
}
