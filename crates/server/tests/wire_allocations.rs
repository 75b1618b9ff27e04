//! A SPARQL-JSON page is written into one buffer sized before the first
//! byte: the writer allocates the same number of times whatever the number
//! of rows and the length of the terms — measured, not assumed.
//!
//! This binary installs a counting `#[global_allocator]` whose counter is
//! thread-local, so the test measures its own thread only.  The counts are
//! only meaningful in release builds; CI runs
//! `cargo test --release -p kgqan-server --test wire_allocations`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kgqan_rdf::{LiveStore, Store, Term, Triple};
use kgqan_server::wire::query_results_to_json;
use kgqan_sparql::{parse_query, ExecOptions, Planner, QueryResults, ResultSet};

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

/// The allocations `work` made on this thread, and what it returned.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// An IRI of exactly `len` bytes.
fn iri(kind: &str, i: usize, len: usize) -> String {
    let head = format!("http://example.org/{kind}/{i}/");
    format!("{head}{}", "x".repeat(len - head.len()))
}

/// `SELECT ?s ?o` over `rows` edges from a few subjects to distinct
/// objects, all IRIs of `len` bytes: a `paged_links`-shaped page, one
/// column repeating and one not, whose cells are dictionary ids.
fn page(rows: usize, len: usize) -> QueryResults {
    let mut store = Store::new();
    for i in 0..rows {
        store.insert(Triple::new(
            Term::iri(iri("s", i % 3, len)),
            Term::iri("http://example.org/p"),
            Term::iri(iri("o", i, len)),
        ));
    }
    let snapshot = LiveStore::new(store).snapshot();
    let query = parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o . }").unwrap();
    let run = Planner::for_shared_snapshot(&snapshot)
        .plan(&query)
        .execute_with(ExecOptions::default())
        .unwrap();
    assert_eq!(run.results.rows().len(), rows);
    run.results
}

#[test]
fn a_page_allocates_the_same_for_1_to_4100_rows_of_short_and_long_iris() {
    let mut counts = Vec::new();
    for len in [30, 200] {
        for rows in [1, 100, 4100] {
            let results = page(rows, len);
            let (count, body) = allocations(|| query_results_to_json(&results));
            assert!(body.len() > rows * 2 * len, "every cell is written");
            counts.push(((rows, len), count));
        }
    }
    // The column order, one key a column, the resolved cells, the column
    // memos and the page itself.
    let first = counts[0].1;
    assert!(first <= 7, "a two-column page allocates {first} times");
    assert!(
        counts.iter().all(|&(_, count)| count == first),
        "allocations per (rows, IRI bytes): {counts:?}"
    );
}

#[test]
fn a_side_table_page_allocates_the_same_for_short_and_long_literals() {
    let count = |rows: usize, len: usize| {
        let cells = (0..rows).flat_map(|i| {
            let literal = Term::literal_lang(format!("{i}{}", "y".repeat(len)), "en");
            [Some(Term::iri(iri("s", i, len))), Some(literal)]
        });
        let results = ResultSet::new(vec!["s".into(), "label".into()], rows, cells);
        let results = QueryResults::Solutions(results);
        allocations(|| query_results_to_json(&results)).0
    };
    let short = count(1, 30);
    assert_eq!(count(4100, 30), short);
    assert_eq!(count(4100, 200), short);
}
