//! Cached results are shared, not copied, and stay ids — measured, not
//! assumed.
//!
//! This binary installs a counting `#[global_allocator]` whose counters are
//! thread-local, so each test measures its own thread only (the harness's
//! other threads cannot disturb them).  The allocation counts are only
//! meaningful in release builds; CI runs
//! `cargo test --release -p kgqan-endpoint --test result_sharing`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{IngestBatch, Store, Term, Triple};
use kgqan_server::wire::query_results_to_json;

thread_local! {
    /// Allocations made, bytes requested and bytes given back by this thread.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local `Cell` without a destructor, so it neither allocates nor
// runs during thread teardown (`try_with` covers a destroyed slot anyway).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| {
            let (allocs, bytes, freed) = c.get();
            c.set((allocs + 1, bytes + layout.size() as u64, freed));
        });
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = COUNTS.try_with(|c| {
            let (allocs, bytes, freed) = c.get();
            c.set((allocs, bytes, freed + layout.size() as u64));
        });
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `work` did to this thread's heap.
struct Heap<T> {
    value: T,
    allocations: u64,
    /// Bytes still held when `work` returned (its value included).
    retained: u64,
}

fn measure<T>(work: impl FnOnce() -> T) -> Heap<T> {
    let before = COUNTS.with(Cell::get);
    let value = work();
    let after = COUNTS.with(Cell::get);
    let allocated = after.1 - before.1;
    Heap {
        value,
        allocations: after.0 - before.0,
        retained: allocated.saturating_sub(after.2 - before.2),
    }
}

/// A KG whose one predicate has `rows` `(subject, label)` pairs, served
/// by `engine` behind a cache.
fn cached_endpoint(rows: usize) -> (Arc<InProcessEndpoint>, CachingEndpoint) {
    let mut store = Store::new();
    for i in 0..rows {
        store.insert(Triple::new(
            Term::iri(format!("http://e/subject/{i}")),
            Term::iri("http://e/label"),
            Term::literal_str(format!("the label of {i}")),
        ));
    }
    let engine = Arc::new(InProcessEndpoint::new("kg", store));
    let cached = CachingEndpoint::new(engine.clone(), QueryCache::shared(CacheConfig::default()));
    (engine, cached)
}

const PAGE: &str = "SELECT ?s ?l WHERE { ?s <http://e/label> ?l . }";

#[test]
fn a_cached_page_is_built_once_and_every_hit_shares_it() {
    const ROWS: usize = 1_000;
    let (_, big) = cached_endpoint(ROWS);
    let (_, small) = cached_endpoint(10);

    // The miss: the engine builds the page, the cache keeps a share of it
    // and the caller gets the same table — one page is alive, not two.
    let miss = measure(|| big.query(PAGE).unwrap());
    assert_eq!(miss.value.rows().len(), ROWS);
    // A cell is its 4-byte dictionary id: the IRI and the label stay the
    // store's, so two cells and the page's share of plan and cache entry
    // are all a row keeps alive.
    let per_row = miss.retained / ROWS as u64;
    assert!(
        per_row <= 16,
        "a cached 2-variable row keeps {per_row} bytes alive (the miss retained {})",
        miss.retained
    );
    // Built once, and no text copied: the collector's one id row per
    // result row is the only per-row allocation.  Decoding each cell into
    // an owned term (an IRI `String`, a label `String`) would take three.
    let per_row = miss.allocations as f64 / ROWS as f64;
    assert!(
        per_row < 1.5,
        "the miss made {} allocations for {ROWS} rows",
        miss.allocations
    );
    let reported = big.cache().stats().resident_bytes;
    assert!(
        reported <= miss.retained && reported * 2 > miss.retained,
        "resident_bytes {reported} vs measured {}",
        miss.retained
    );

    // The hit: a reference count, whatever the page holds.  The query is
    // parsed beforehand, so only the lookup is measured.
    let page = kgqan_sparql::parse_query(PAGE).unwrap();
    let hit = measure(|| big.query_parsed(&page).unwrap());
    assert_eq!(hit.value, miss.value);
    assert!(
        hit.allocations <= 4,
        "a hit on {ROWS} rows made {} allocations",
        hit.allocations
    );
    assert!(hit.retained < 256, "a hit retained {} bytes", hit.retained);

    small.query(PAGE).unwrap();
    let small_hit = measure(|| small.query_parsed(&page).unwrap());
    assert_eq!(small_hit.value.rows().len(), 10);
    assert_eq!(hit.allocations, small_hit.allocations);
    assert_eq!(big.cache().stats().hits, 1);
}

#[test]
fn a_cached_page_outlives_the_epochs_after_it() {
    // Nine terms: a batch of comparable size merges the segment they were
    // sealed into with the next one.
    let (engine, cached) = cached_endpoint(4);
    let page = cached.query(PAGE).unwrap();
    let merges = || engine.store().maintenance_counters().dict_merges;
    let before = merges();

    // Batches the page's pattern cannot see: another predicate, fresh
    // IRIs and no literal, so scoped invalidation keeps the page.
    let mut batch_no = 0;
    while merges() == before {
        batch_no += 1;
        assert!(batch_no <= 8, "eight batches and no dictionary merge");
        cached
            .ingest(IngestBatch::from_iter((0..8).map(|i| {
                Triple::new(
                    Term::iri(format!("http://e/fresh/{batch_no}/{i}")),
                    Term::iri("http://e/other"),
                    Term::iri(format!("http://e/thing/{batch_no}/{i}")),
                )
            })))
            .unwrap();
    }
    assert_eq!(engine.epoch(), batch_no);
    assert_eq!(cached.cache().stats().scoped_evictions, 0);

    // The segments the page was built against are gone from the live
    // store; its own handle still resolves every code.
    let hits = cached.cache().stats().hits;
    let hit = cached.query(PAGE).unwrap();
    assert_eq!(cached.cache().stats().hits, hits + 1);
    let fresh = engine.query(PAGE).unwrap();
    assert_eq!(hit, page);
    assert_eq!(hit, fresh);
    assert_eq!(query_results_to_json(&hit), query_results_to_json(&fresh));
    assert!(query_results_to_json(&hit).contains("the label of 3"));
}

#[test]
fn a_value_attached_to_a_cached_page_never_reaches_the_wire() {
    let (engine, cached) = cached_endpoint(4);
    let page = cached.query(PAGE).unwrap();
    let bytes = query_results_to_json(&page);
    let table = page.as_solutions().unwrap();
    assert!(table.attach(String::from("a ranking derived from the rows")));

    // The next hit is the same table, carrying the value.
    let hit = cached.query(PAGE).unwrap();
    let attached = hit.as_solutions().unwrap().attached().unwrap();
    assert!(attached.downcast_ref::<String>().is_some());
    let fresh = engine.query(PAGE).unwrap();
    assert!(fresh.as_solutions().unwrap().attached().is_none());
    assert_eq!(hit, fresh);
    assert_eq!(fresh, hit);
    assert_eq!(format!("{hit:?}"), format!("{fresh:?}"));
    assert_eq!(query_results_to_json(&hit), bytes);
    assert_eq!(query_results_to_json(&fresh), bytes);
}

/// `SELECT ?s` over `patterns` triple patterns, each with its own long
/// predicate IRI that no triple uses: the query's AST is `patterns` times
/// three heap strings and a vector, and executing it scans nothing.
fn wide_query(patterns: usize, variant: usize) -> kgqan_sparql::Query {
    let long = "a-predicate-name-long-enough-to-matter/".repeat(4);
    let body: String = (0..patterns)
        .map(|i| format!("?s <http://e/{long}{variant}/{i}> ?o{i} . "))
        .collect();
    kgqan_sparql::parse_query(&format!("SELECT ?s WHERE {{ {body}}}")).unwrap()
}

/// The cache keys a query by one copy of its canonical bytes, so what a
/// lookup and an insert allocate does not grow with the query.
#[test]
fn a_key_costs_the_same_allocations_whatever_the_query_holds() {
    let mut store = Store::new();
    store.insert(Triple::new(
        Term::iri("http://e/s"),
        Term::iri("http://e/p"),
        Term::iri("http://e/o"),
    ));
    let engine = Arc::new(InProcessEndpoint::new("kg", store));
    let namespace = QueryCache::shared(CacheConfig::with_capacity(4));
    let cached = CachingEndpoint::new(engine.clone(), namespace.clone());
    // A namespace at capacity: every miss below also evicts.
    for variant in 0..4 {
        cached.query_parsed(&wide_query(16, 100 + variant)).unwrap();
    }

    let mut hits = Vec::new();
    for patterns in [1, 16] {
        // Once per size, so the thread's key buffer has grown to it.
        cached.query_parsed(&wide_query(patterns, 0)).unwrap();
        let query = wide_query(patterns, 1);
        let bare = measure(|| engine.query_parsed(&query).unwrap()).allocations;
        let evictions = namespace.stats().evictions;
        let miss = measure(|| cached.query_parsed(&query).unwrap()).allocations;
        assert_eq!(namespace.stats().evictions, evictions + 1);
        // The entry's copy of the key's bytes is the one allocation of its
        // own (the LRU at capacity reuses its slots); one more is slack.  A
        // deep copy of the AST would add three strings a pattern.
        assert!(
            miss <= bare + 2,
            "a miss on {patterns} patterns made {miss} allocations, the engine alone {bare}"
        );
        hits.push(measure(|| cached.query_parsed(&query).unwrap()).allocations);
    }
    assert_eq!(hits[0], hits[1], "a hit on 1 or 16 patterns: {hits:?}");
    assert_eq!(namespace.stats().hits, 2);
}
