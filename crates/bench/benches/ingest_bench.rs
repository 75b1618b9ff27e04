//! Criterion micro-benchmarks for the live-KG ingestion path: batched
//! epoch publication, incremental planner-stats maintenance versus the
//! naive full rescan, and read latency while a writer is sustaining
//! ingestion (readers pin snapshots and must never block).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{IngestBatch, LiveStore, Store, Term, Triple};
use kgqan_sparql::parse_query;

const PRED_A: &str = "http://example.org/ontology/a";
const PRED_B: &str = "http://example.org/ontology/b";

/// `count` distinct pair-joined triples per batch, disjoint across `k`.
fn batch_triples(k: usize, count: usize) -> Vec<Triple> {
    (0..count)
        .flat_map(|i| {
            let s = Term::iri(format!("http://example.org/resource/s{k}_{i}"));
            let v = Term::iri(format!("http://example.org/resource/v{k}_{i}"));
            [
                Triple::new(s.clone(), Term::iri(PRED_A), v.clone()),
                Triple::new(s, Term::iri(PRED_B), v),
            ]
        })
        .collect()
}

/// End-to-end batched ingest throughput: every iteration starts from an
/// empty live store and publishes a fixed ladder of epochs, so the work per
/// iteration is identical (no drift as a shared store would grow).
fn batched_ingest(c: &mut Criterion) {
    const BATCHES: usize = 64;
    const PAIRS_PER_BATCH: usize = 4;
    let prepared: Vec<Vec<Triple>> = (0..BATCHES)
        .map(|k| batch_triples(k, PAIRS_PER_BATCH))
        .collect();

    let mut group = c.benchmark_group("ingest_batched");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(
        BenchmarkId::new(
            "publish_epochs",
            format!("{BATCHES}x{PAIRS_PER_BATCH}pairs"),
        ),
        |b| {
            b.iter(|| {
                let live = LiveStore::new(Store::new());
                for triples in &prepared {
                    live.ingest(IngestBatch::from(triples.clone())).unwrap();
                }
                assert_eq!(live.epoch(), BATCHES as u64);
                live.snapshot().len()
            })
        },
    );
    group.finish();
}

/// The tentpole's stats claim, measured head-to-head on the same epoch
/// ladder: a [`LiveStore`] folds each batch's delta into its maintenance
/// state (`O(batch)` per epoch), while the naive alternative rescans the
/// whole graph to rebuild [`kgqan_rdf::PlannerStats`] after every batch
/// (`O(graph)` per epoch).  Both leave every epoch with warm stats.
fn stats_maintenance(c: &mut Criterion) {
    const BATCHES: usize = 48;
    const PAIRS_PER_BATCH: usize = 8;
    let prepared: Vec<Vec<Triple>> = (0..BATCHES)
        .map(|k| batch_triples(k, PAIRS_PER_BATCH))
        .collect();
    // Both paths start from the same compacted base graph: incremental
    // maintenance costs O(batch) per epoch regardless of base size, the
    // rescan costs O(base + delta) per epoch.  (Compacting up front makes
    // the per-iteration clone an `Arc`-sharing copy, not a rebuild.)
    let seed = {
        let mut s = Store::new();
        for k in 0..200 {
            s.insert_all(batch_triples(1_000 + k, 4));
        }
        s.compact();
        s
    };

    let mut group = c.benchmark_group("ingest_stats");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("incremental", |b| {
        b.iter(|| {
            // Maintenance counters are lineage-shared across store clones,
            // so assert this iteration's *delta*: one bootstrap install at
            // construction, one per published epoch, and zero full scans.
            let before = seed.maintenance_counters();
            let live = LiveStore::new(seed.clone());
            for triples in &prepared {
                live.ingest(IngestBatch::from(triples.clone())).unwrap();
            }
            let counters = live.snapshot().maintenance_counters();
            assert_eq!(
                counters.stats_incremental_installs - before.stats_incremental_installs,
                BATCHES as u64 + 1
            );
            assert_eq!(counters.stats_full_scans, before.stats_full_scans);
            live.snapshot().len()
        })
    });
    group.bench_function("full_rescan", |b| {
        b.iter(|| {
            let mut store = seed.clone();
            for triples in &prepared {
                store.insert_all(triples.iter().cloned());
                // Insertion invalidated the cached stats; forcing them here
                // is the per-epoch full recompute the incremental path
                // replaces.
                let stats = store.planner_stats();
                assert!(stats.num_classes() == 0);
            }
            store.len()
        })
    });
    group.finish();
}

/// Read latency while a writer publishes epochs as fast as it can: each
/// measured query pins the then-current snapshot and joins over it.  The
/// point of the epoch design is that this curve stays flat — readers never
/// take the writer's lock.
fn query_during_sustained_ingest(c: &mut Criterion) {
    let seed = {
        let mut store = Store::new();
        for triples in (0..32).map(|k| batch_triples(k, 4)) {
            store.insert_all(triples);
        }
        store
    };
    let endpoint = Arc::new(InProcessEndpoint::new("live", seed));
    let join = parse_query(&format!(
        "SELECT ?s WHERE {{ ?s <{PRED_A}> ?v . ?s <{PRED_B}> ?v . }}"
    ))
    .unwrap();

    let mut group = c.benchmark_group("ingest_read_latency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function(BenchmarkId::new("join_query", "quiescent"), |b| {
        b.iter(|| endpoint.query_parsed(&join).unwrap().rows().len())
    });

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let live = endpoint.live_store();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // The writer grows a *different* predicate so the measured join's
            // result set stays fixed — the bench isolates snapshot-pinning
            // overhead and lock contention, not data growth.
            let mut k = 0usize;
            while !stop.load(Ordering::Acquire) {
                let s = Term::iri(format!("http://example.org/resource/w{k}"));
                let v = Term::iri(format!("http://example.org/resource/x{k}"));
                let batch = IngestBatch::new().with(Triple::new(
                    s,
                    Term::iri("http://example.org/ontology/background"),
                    v,
                ));
                live.ingest(batch).unwrap();
                k += 1;
            }
            live.epoch()
        })
    };
    group.bench_function(BenchmarkId::new("join_query", "under_ingest"), |b| {
        b.iter(|| endpoint.query_parsed(&join).unwrap().rows().len())
    });
    stop.store(true, Ordering::Release);
    let published = writer.join().expect("writer thread");
    assert!(published > 0, "the writer published at least one epoch");
    group.finish();
}

criterion_group!(
    benches,
    batched_ingest,
    stats_maintenance,
    query_during_sustained_ingest
);
criterion_main!(benches);
