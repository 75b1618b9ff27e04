//! Cached results are shared, not copied — measured, not assumed.
//!
//! This binary installs a counting `#[global_allocator]`, so it holds one
//! test and runs its measurements on the test's own thread (the counters
//! are thread-local: the harness's other threads cannot disturb them).
//! The allocation counts are only meaningful in release builds; CI runs
//! `cargo test --release -p kgqan-endpoint --test result_sharing`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{Store, Term, Triple};

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
    /// Bytes requested, whether or not they were freed again.
    allocated: u64,
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
        allocated,
        retained: allocated.saturating_sub(after.2 - before.2),
    }
}

/// A KG whose one predicate has `rows` `(subject, label)` pairs.
fn cached_endpoint(rows: usize) -> CachingEndpoint {
    let mut store = Store::new();
    for i in 0..rows {
        store.insert(Triple::new(
            Term::iri(format!("http://e/subject/{i}")),
            Term::iri("http://e/label"),
            Term::literal_str(format!("the label of {i}")),
        ));
    }
    CachingEndpoint::new(
        Arc::new(InProcessEndpoint::new("kg", store)),
        QueryCache::shared(CacheConfig::default()),
    )
}

const PAGE: &str = "SELECT ?s ?l WHERE { ?s <http://e/label> ?l . }";

#[test]
fn a_cached_page_is_built_once_and_every_hit_shares_it() {
    const ROWS: usize = 1_000;
    let big = cached_endpoint(ROWS);
    let small = cached_endpoint(10);

    // The miss: the engine builds the page, the cache keeps a share of it
    // and the caller gets the same table — one page is alive, not two.
    let miss = measure(|| big.query(PAGE).unwrap());
    assert_eq!(miss.value.rows().len(), ROWS);
    let per_row = miss.retained / ROWS as u64;
    assert!(
        per_row <= 300,
        "a cached 2-variable row keeps {per_row} bytes alive (the miss retained {})",
        miss.retained
    );
    // Built once: everything the miss ever requested — id rows, plan and
    // parser scratch included — stays under two copies of the page.
    assert!(
        miss.allocated < 2 * miss.retained,
        "the miss allocated {} bytes for a page of {}",
        miss.allocated,
        miss.retained
    );
    let reported = big.cache().stats().resident_bytes;
    assert!(
        reported <= miss.retained && reported * 2 > miss.retained,
        "resident_bytes {reported} vs measured {}",
        miss.retained
    );

    // The hit: a reference count, whatever the page holds.
    let hit = measure(|| big.query(PAGE).unwrap());
    assert_eq!(hit.value, miss.value);
    assert!(
        hit.allocations <= 4,
        "a hit on {ROWS} rows made {} allocations",
        hit.allocations
    );
    assert!(hit.retained < 256, "a hit retained {} bytes", hit.retained);

    small.query(PAGE).unwrap();
    let small_hit = measure(|| small.query(PAGE).unwrap());
    assert_eq!(small_hit.value.rows().len(), 10);
    assert_eq!(hit.allocations, small_hit.allocations);
    assert_eq!(big.cache().stats().hits, 1);
}
