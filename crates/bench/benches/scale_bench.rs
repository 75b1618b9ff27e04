//! Morsel-driven parallel multi-hop joins on a large Zipf-skewed synthetic
//! KG ([`kgqan_bench::kggen`]).
//!
//! Each query runs at degrees of parallelism 1/2/4/8 (`max_dop`; 1 forces
//! the sequential path), so one run prints the speedup curve of the morsel
//! executor on the machine it ran on.  The KG is 2M triples in full mode
//! and ~60k under `KGQAN_BENCH_SMOKE`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kgqan_bench::kggen::{ZipfKg, ZipfKgConfig, CATEGORY, LINKS};
use kgqan_sparql::{parse_query, ParallelConfig, Planner};

const DOPS: [usize; 4] = [1, 2, 4, 8];

/// A `ParallelConfig` that fans an unpaged driver scan out whenever
/// `max_dop` allows: the per-worker row threshold is low enough that even
/// the smoke KG's driver scan (~50k rows) fans out.
fn config_for(dop: usize) -> ParallelConfig {
    ParallelConfig {
        max_dop: dop,
        rows_per_worker: 8_192.0,
        ..ParallelConfig::default()
    }
}

fn multi_hop_joins(c: &mut Criterion) {
    let kg = ZipfKg::generate(if std::env::var_os("KGQAN_BENCH_SMOKE").is_some() {
        ZipfKgConfig::scale_smoke()
    } else {
        ZipfKgConfig::scale_full()
    });
    let snapshot = &kg.snapshot;

    // Closed two-hop (mutual links): the driver scans every `links` edge
    // and the second step is a fully-bound point probe, so scan throughput
    // dominates and the output stays small — the pure-speedup shape.
    let mutual = parse_query(&format!(
        "SELECT ?a ?b WHERE {{ ?a <{LINKS}> ?b . ?b <{LINKS}> ?a . }}"
    ))
    .expect("mutual-links query parses");

    let mut group = c.benchmark_group("scale_closed_two_hop");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for dop in DOPS {
        let planner = Planner::for_shared_snapshot(snapshot).with_parallelism(config_for(dop));
        let plan = planner.plan(&mutual);
        group.bench_function(BenchmarkId::new("mutual_links", dop), |b| {
            b.iter(|| plan.execute().unwrap())
        });
    }
    group.finish();

    // Paged two-hop: join every `links` edge to its target's category and
    // stop after one result page.  Measures time-to-page.  The 10 000-row
    // page is below the driver scan's estimate, so the planner keeps it on
    // the sequential walk, which stops as soon as the page fills, at every
    // DOP: the curve should be flat.
    let paged = parse_query(&format!(
        "SELECT ?a ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }} LIMIT 10000"
    ))
    .expect("paged two-hop query parses");

    let mut group = c.benchmark_group("scale_paged_two_hop");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for dop in DOPS {
        let planner = Planner::for_shared_snapshot(snapshot).with_parallelism(config_for(dop));
        let plan = planner.plan(&paged);
        group.bench_function(BenchmarkId::new("links_to_category", dop), |b| {
            b.iter(|| plan.execute().unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, multi_hop_joins);
criterion_main!(benches);
