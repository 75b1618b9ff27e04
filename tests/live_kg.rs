//! Live-KG integration tests: epoch-snapshot consistency under concurrent
//! ingestion, and scoped cache invalidation observed through the service
//! API.
//!
//! The writer publishes each ingest batch as one atomic epoch; readers pin
//! a snapshot per request and must observe *some* published epoch — never a
//! torn state between two of them — while never blocking on the writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use kgqan::{AnswerRequest, CacheConfig, QaService};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{vocab, IngestBatch, LiveStore, Store, Term, Triple};
use kgqan_sparql::{parse_query, Planner};

const PRED_A: &str = "http://example.org/ontology/a";
const PRED_B: &str = "http://example.org/ontology/b";

fn subject(k: usize) -> Term {
    Term::iri(format!("http://example.org/resource/s{k}"))
}

fn value(k: usize) -> Term {
    Term::iri(format!("http://example.org/resource/v{k}"))
}

/// Batch `k` adds both halves of one join pair: `(s_k, a, v_k)` and
/// `(s_k, b, v_k)`.  Because a batch publishes atomically, every epoch `e`
/// holds exactly `e` *complete* pairs — a reader that ever saw one half
/// without the other caught a torn, never-published state.
fn pair_batch(k: usize) -> IngestBatch {
    IngestBatch::new()
        .with(Triple::new(subject(k), Term::iri(PRED_A), value(k)))
        .with(Triple::new(subject(k), Term::iri(PRED_B), value(k)))
}

proptest! {
    /// Readers racing a writer only ever observe published epochs: in every
    /// pinned snapshot the triple count is exactly `2 × epoch` and the
    /// `a ⋈ b` join yields exactly the first `epoch` pairs.
    #[test]
    fn every_read_observes_a_published_epoch(batches in 4usize..16) {
        let live = Arc::new(LiveStore::new(Store::new()));
        let done = AtomicBool::new(false);
        let join = parse_query(&format!(
            "SELECT ?s WHERE {{ ?s <{PRED_A}> ?v . ?s <{PRED_B}> ?v . }}"
        ))
        .unwrap();

        std::thread::scope(|scope| {
            let mut checks = Vec::new();
            for _ in 0..2 {
                let live = Arc::clone(&live);
                let done = &done;
                let join = &join;
                checks.push(scope.spawn(move || {
                    let mut observed = 0u64;
                    while !done.load(Ordering::Acquire) || observed == 0 {
                        let snap = live.snapshot();
                        let epoch = snap.epoch();
                        // Atomicity: a published epoch holds whole batches.
                        assert_eq!(snap.len() as u64, 2 * epoch);
                        // Consistency: planning and execution against the
                        // pinned snapshot see the same epoch end to end.
                        let run = Planner::for_snapshot(&snap).plan(join).execute().unwrap();
                        let rows = run.results.rows();
                        assert_eq!(rows.len() as u64, epoch);
                        for k in 0..epoch as usize {
                            assert!(
                                rows.iter().any(|b| b.get("s") == Some(&subject(k))),
                                "epoch {epoch} is missing pair {k}"
                            );
                        }
                        observed += 1;
                    }
                    observed
                }));
            }

            for k in 0..batches {
                let report = live.ingest(pair_batch(k)).unwrap();
                assert_eq!(report.epoch(), k as u64 + 1);
                assert_eq!(report.added(), 2);
            }
            done.store(true, Ordering::Release);

            for check in checks {
                let observed = check.join().expect("reader panicked");
                prop_assert!(observed > 0, "reader never completed a check");
            }
            Ok(())
        })?;
        prop_assert_eq!(live.epoch(), batches as u64);
    }
}

/// A snapshot pinned before an ingest is a frozen view: the writer keeps
/// publishing, the old epoch keeps answering with its own data.
#[test]
fn pinned_snapshots_are_immutable_across_ingests() {
    let ep = InProcessEndpoint::new("LiveKG", Store::new());
    let old = ep.store();
    assert_eq!(old.epoch(), 0);

    ep.ingest(pair_batch(0)).unwrap();
    ep.ingest(pair_batch(1)).unwrap();

    assert_eq!(old.len(), 0, "epoch 0 stays empty forever");
    assert_eq!(ep.store().epoch(), 2);
    assert_eq!(ep.store().len(), 4);
}

fn people_service() -> QaService {
    let mut store = Store::new();
    let ada = Term::iri("http://example.org/resource/Ada");
    store.insert_all([
        Triple::new(
            ada.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Ada"),
        ),
        Triple::new(
            ada,
            Term::iri("http://example.org/ontology/spouse"),
            Term::iri("http://example.org/resource/Carl"),
        ),
    ]);
    QaService::builder()
        .endpoint(Arc::new(InProcessEndpoint::new("People", store)))
        .cache(CacheConfig::default())
        .build()
        .unwrap()
}

/// A targeted ingest evicts only the cache entries it could have changed:
/// probes about untouched entities keep hitting, and the counters prove it.
#[test]
fn scoped_invalidation_keeps_untouched_service_cache_entries_warm() {
    let service = people_service();
    let untouched = "Who is the wife of Ada?";
    let touched = "Who is the wife of Zoe?";
    service.answer(AnswerRequest::new(untouched)).unwrap();
    service.answer(AnswerRequest::new(touched)).unwrap();
    let before = service.cache_report().total();
    assert!(before.insertions > 0, "the questions warmed the cache");

    // Ingest facts about Zoe only.
    let zoe = Term::iri("http://example.org/resource/Zoe");
    service
        .ingest(
            "People",
            IngestBatch::new()
                .with(Triple::new(
                    zoe.clone(),
                    Term::iri(vocab::RDFS_LABEL),
                    Term::literal_str("Zoe"),
                ))
                .with(Triple::new(
                    zoe,
                    Term::iri("http://example.org/ontology/spouse"),
                    Term::iri("http://example.org/resource/Yves"),
                )),
        )
        .unwrap();

    let after_ingest = service.cache_report().total();
    assert_eq!(after_ingest.scoped_invalidations, 1);
    assert_eq!(
        after_ingest.invalidations, 0,
        "targeted ingest must not flush the namespace"
    );
    assert!(
        after_ingest.scoped_evictions < before.insertions,
        "some entries must survive a scoped pass \
         ({} evicted of {} inserted)",
        after_ingest.scoped_evictions,
        before.insertions
    );

    // Re-asking about the untouched entity hits the surviving entries; the
    // touched question re-probes and now finds the ingested answer.
    service.answer(AnswerRequest::new(untouched)).unwrap();
    let warm = service.cache_report().total();
    assert!(
        warm.hits > after_ingest.hits,
        "untouched entries answered from the cache after the ingest"
    );
    let answer = service.answer(AnswerRequest::new(touched)).unwrap();
    assert!(answer
        .answers()
        .iter()
        .any(|t| t.as_iri() == Some("http://example.org/resource/Yves")));
}

/// Satellite regression: an all-duplicate batch is a no-op end to end — no
/// new epoch, no planner-stats rebuild, and no cache invalidation of any
/// kind.
#[test]
fn duplicate_only_ingest_invalidates_nothing() {
    let service = people_service();
    service
        .answer(AnswerRequest::new("Who is the wife of Ada?"))
        .unwrap();
    let warmed = service.cache_report().total();

    // Re-ingest a triple the KG already holds.
    let report = service
        .ingest(
            "People",
            IngestBatch::from(vec![Triple::new(
                Term::iri("http://example.org/resource/Ada"),
                Term::iri("http://example.org/ontology/spouse"),
                Term::iri("http://example.org/resource/Carl"),
            )]),
        )
        .unwrap();
    assert!(report.is_noop());
    assert_eq!(report.duplicates(), 1);
    assert_eq!(report.epoch(), 0, "no new epoch was published");

    let after = service.cache_report().total();
    assert_eq!(after.invalidations, warmed.invalidations);
    assert_eq!(after.scoped_invalidations, warmed.scoped_invalidations);
    assert_eq!(after.scoped_evictions, warmed.scoped_evictions);
    assert_eq!(after.insertions, warmed.insertions);
}
