//! Morsel-driven parallel execution: EXPLAIN a multi-hop join over a
//! Zipf-skewed synthetic KG, watch the planner choose a degree of
//! parallelism, and compare the sequential and parallel runs.
//!
//! ```sh
//! cargo run --release --example parallel_scan
//! ```

use std::time::Instant;

use kgqan_bench::kggen::{ZipfKg, ZipfKgConfig, LINKS};
use kgqan_sparql::{parse_query, ParallelConfig, Planner};

fn main() {
    // A 400k-triple KG with Zipf-skewed degrees: a few hub entities own a
    // large share of the `links` edges, so equal-width partitions carry
    // unequal work — the morsel scheduler's reason to exist.
    let config = ZipfKgConfig {
        entities: 40_000,
        triples: 400_000,
        ..ZipfKgConfig::scale_full()
    };
    println!(
        "generating a {} triple Zipf KG (seed {:#x})…",
        config.triples, config.seed
    );
    let kg = ZipfKg::generate(config);
    let snapshot = &kg.snapshot;

    // Mutual links: the driver scans every `links` edge, the second step is
    // a fully-bound point probe — scan throughput dominates.
    let query = parse_query(&format!(
        "SELECT ?a ?b WHERE {{ ?a <{LINKS}> ?b . ?b <{LINKS}> ?a . }}"
    ))
    .expect("example query parses");
    println!("\nquery:\n{}\n", query.to_sparql());

    // Force a fan-out of 4 regardless of the machine (the planner's default
    // caps the DOP at the available cores and stays sequential for scans
    // under ~50k rows per worker).
    let parallel = ParallelConfig {
        max_dop: 4,
        rows_per_worker: 50_000.0,
        ..ParallelConfig::default()
    };

    let plan = Planner::for_shared_snapshot(snapshot)
        .with_parallelism(parallel)
        .plan(&query);
    println!(
        "EXPLAIN — the driver scan fans out over key-range morsels:\n{}",
        plan.summary()
    );

    let started = Instant::now();
    let run = plan.execute().expect("parallel run succeeds");
    let parallel_time = started.elapsed();
    let metrics = run
        .metrics
        .parallel
        .as_ref()
        .expect("the driver scan is large enough to fan out");
    println!(
        "parallel:   {} rows in {parallel_time:?} — dop {}, {} morsels, rows scanned per worker {:?}",
        run.results.rows().len(),
        metrics.dop,
        metrics.morsels,
        metrics.rows_scanned_per_worker,
    );

    let sequential_plan = Planner::for_shared_snapshot(snapshot)
        .with_parallelism(ParallelConfig {
            max_dop: 1,
            ..parallel
        })
        .plan(&query);
    let started = Instant::now();
    let sequential = sequential_plan.execute().expect("sequential run succeeds");
    let sequential_time = started.elapsed();
    println!(
        "sequential: {} rows in {sequential_time:?} — {} index entries scanned",
        sequential.results.rows().len(),
        sequential.metrics.rows_scanned,
    );

    assert_eq!(run.results, sequential.results);
    println!("\nresults are byte-identical across worker counts ✓");
}
