//! In-process cost of the repository benchmark's `sparql_join` queries, per
//! template and per engine phase, with no HTTP in between.
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin join_templates [-- --passes 9 --seed 20230613]
//! ```
//!
//! Rebuilds the benchmark's seeded Zipf KG (400 000 triples) and its 4 096
//! join queries with the same seed and draws as `benchmark/src/workload.rs`,
//! then runs every query `--passes` times through the path the `/sparql`
//! route takes: parse, plan (the shared-snapshot planner under the default
//! parallel config), execute, and write the SPARQL-JSON page.  The result
//! cache is bypassed.  Per template it prints each phase's µs a query (the
//! minimum over passes of the template's total, divided by its queries),
//! and the rows, rows scanned and bytes of one pass.  The last line is one
//! FNV-1a digest over every body in generation order, so two builds that
//! print the same digest served the same bytes.

use std::time::{Duration, Instant};

use kgqan_bench::kggen::{ZipfKg, ZipfKgConfig, CATEGORY, LINKS};
use kgqan_server::wire::query_results_to_json;
use kgqan_sparql::{parse_query, ParallelConfig, Planner};

/// The benchmark's default `--seed`.
const DEFAULT_SEED: u64 = 20_230_613;

/// The join KG, as the benchmark generates it.
const JOIN_KG: ZipfKgConfig = ZipfKgConfig {
    seed: 0x5eed_cafe_f00d_0011,
    entities: 40_000,
    triples: 400_000,
    exponent: 1.1,
    categories: 64,
};

/// Distinct queries per template, in generation order.
const JOIN_MIX: [(&str, usize); 4] = [
    ("star", 1664),
    ("paged_category", 1152),
    ("mutual", 960),
    ("paged_links", 320),
];

/// The benchmark's splitmix64 stream: the draws below must match it.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (unit * n as f64) as usize % n
    }

    fn fork(&mut self, purpose: &str) -> SplitMix64 {
        let mut seed = self.next_u64();
        for byte in purpose.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        SplitMix64(seed)
    }
}

/// The `sparql_join` queries, grouped by template.
fn queries(seed: u64) -> Vec<(&'static str, Vec<String>)> {
    let entity = |index: usize| format!("http://kggen.invalid/e/{index}");
    let subject_of_rank = |rank: usize| rank * 0x9e37 % JOIN_KG.entities;
    let mut constants = SplitMix64(seed).fork("constants");
    JOIN_MIX
        .iter()
        .map(|&(template, count)| {
            let queries = (0..count)
                .map(|i| match template {
                    "star" => {
                        let e = entity(subject_of_rank(20 + i));
                        format!(
                            "SELECT ?b ?c WHERE {{ <{e}> <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }}"
                        )
                    }
                    "paged_category" => {
                        let limit = 200 + constants.below(1800);
                        format!(
                            "SELECT ?a ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }} LIMIT {limit} OFFSET {}",
                            i * 29
                        )
                    }
                    "mutual" => {
                        let e = entity(subject_of_rank(100 + i));
                        format!(
                            "SELECT ?b ?c WHERE {{ <{e}> <{LINKS}> ?b . ?b <{LINKS}> ?c . ?c <{LINKS}> ?b . }} LIMIT {}",
                            256 + constants.below(512)
                        )
                    }
                    _ => format!(
                        "SELECT ?a ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{LINKS}> ?c . }} LIMIT 4100 OFFSET {}",
                        i * 5
                    ),
                })
                .collect();
            (template, queries)
        })
        .collect()
}

/// One pass over one template's queries: time per phase, and what it made.
#[derive(Default)]
struct Pass {
    phases: [Duration; 4],
    rows: usize,
    rows_scanned: u64,
    bytes: usize,
}

fn run_template(planner: &Planner<'_>, queries: &[String], bodies: &mut Vec<String>) -> Pass {
    let mut pass = Pass::default();
    for text in queries {
        let t0 = Instant::now();
        let query = parse_query(text).expect("a benchmark query parses");
        let t1 = Instant::now();
        let plan = planner.plan(&query);
        let t2 = Instant::now();
        let run = plan.execute().expect("a benchmark query runs");
        let t3 = Instant::now();
        let body = query_results_to_json(&run.results);
        let t4 = Instant::now();
        for (phase, (from, to)) in
            pass.phases
                .iter_mut()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
        {
            *phase += to - from;
        }
        pass.rows += run.results.as_solutions().map_or(0, |table| table.len());
        pass.rows_scanned += run.metrics.rows_scanned;
        pass.bytes += body.len();
        bodies.push(body);
    }
    pass
}

fn fnv1a(bodies: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bodies.iter().flat_map(|body| body.bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: u64| {
        args.iter()
            .position(|arg| arg == name)
            .and_then(|i| args.get(i + 1))
            .map_or(default, |value| {
                value
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} takes a number"))
            })
    };
    let passes = flag("--passes", 9).max(1);
    let seed = flag("--seed", DEFAULT_SEED);

    let kg = ZipfKg::generate(JOIN_KG);
    let planner =
        Planner::for_shared_snapshot(&kg.snapshot).with_parallelism(ParallelConfig::default());
    let templates = queries(seed);
    let total: usize = templates.iter().map(|(_, queries)| queries.len()).sum();
    println!(
        "join_templates: seed {seed}, {total} queries over {} triples, min of {passes} passes",
        kg.snapshot.store().len()
    );
    println!("| template | queries | parse µs | plan µs | execute µs | write µs | rows | rows scanned | bytes |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|");

    let mut bodies = Vec::with_capacity(total);
    let mut rows = 0;
    for (template, queries) in &templates {
        let first = run_template(&planner, queries, &mut bodies);
        let mut best = first.phases;
        for _ in 1..passes {
            let pass = run_template(&planner, queries, &mut Vec::new());
            for (best, phase) in best.iter_mut().zip(pass.phases) {
                *best = (*best).min(phase);
            }
        }
        let per_query = best.map(|phase| phase.as_secs_f64() * 1e6 / queries.len() as f64);
        println!(
            "| {template} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {} | {} |",
            queries.len(),
            per_query[0],
            per_query[1],
            per_query[2],
            per_query[3],
            first.rows,
            first.rows_scanned,
            first.bytes
        );
        rows += first.rows;
    }
    println!(
        "digest {:016x} over {} bodies, {rows} rows",
        fnv1a(&bodies),
        bodies.len()
    );
}
