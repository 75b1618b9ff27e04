//! Linking over a cached predicate probe costs the same however many rows
//! the probe holds: the ranking kept on the probe's table is read, not
//! made again — measured, not assumed.
//!
//! This binary installs a counting `#[global_allocator]` whose counter is
//! thread-local, so the test measures its own thread only.  The counts are
//! only meaningful in release builds; CI runs
//! `cargo test --release -p kgqan --test link_allocations`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kgqan::{Budget, FineGrainedAffinity, JitLinker, LinkerConfig, PhraseGraphPattern};
use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_nlp::PhraseTriplePattern;
use kgqan_rdf::{vocab, Store, Term, Triple};

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

/// Kaliningrad, with `predicates` distinct readable predicates pointing at
/// it: its incoming predicate probe has that many rows.
fn kaliningrad(predicates: usize) -> CachingEndpoint {
    let kali = Term::iri("http://e/Kaliningrad");
    let mut store = Store::new();
    store.insert(Triple::new(
        kali.clone(),
        Term::iri(vocab::RDFS_LABEL),
        Term::literal_str("Kaliningrad"),
    ));
    for i in 0..predicates {
        store.insert(Triple::new(
            Term::iri(format!("http://e/subject{i}")),
            Term::iri(format!("http://e/cityOnTheShoreNumber{i}")),
            kali.clone(),
        ));
    }
    let engine = Arc::new(InProcessEndpoint::new("kg", store));
    CachingEndpoint::new(engine, QueryCache::shared(CacheConfig::default()))
}

#[test]
fn a_warm_edge_costs_the_same_allocations_for_3_and_200_predicate_rows() {
    let affinity = FineGrainedAffinity::new();
    let config = LinkerConfig {
        num_predicates: 3,
        ..LinkerConfig::default()
    };
    let linker = JitLinker::new(&affinity, config);
    let pgp = PhraseGraphPattern::from_triples(&[PhraseTriplePattern::unknown_to_entity(
        "city on the shore",
        "Kaliningrad",
    )]);
    let budget = Budget::unbounded();

    let warm = |predicates: usize| {
        let endpoint = kaliningrad(predicates);
        let cold = linker.link(&pgp, &endpoint, &budget).unwrap();
        assert_eq!(cold.agp.predicates_of(0).len(), 3);
        let mut again = None;
        let made = allocations(|| again = Some(linker.link(&pgp, &endpoint, &budget).unwrap()));
        assert_eq!(
            again.unwrap().agp.edge_annotations,
            cold.agp.edge_annotations
        );
        made
    };
    let (few, many) = (warm(3), warm(200));
    // Scoring, or describing, every row again would cost at least one
    // allocation a row.
    assert_eq!(
        few, many,
        "a warm edge made {few} allocations over 3 predicate rows, {many} over 200"
    );
}
