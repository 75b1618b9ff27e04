//! Parameter ablation for the four KGQAn knobs of §7.1.6: *Max Fetched
//! Vertices*, *Number of Vertices*, *Number of Predicates* and *Max number
//! of Queries*.  Not a table in the paper, but DESIGN.md calls these out as
//! the tunables whose defaults (400 / 1 / 20 / 40) the paper justifies; this
//! harness shows how F1 on the QALD-9-like benchmark responds to each.
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin ablation_params [-- --scale smoke]
//! ```

use kgqan::{KgqanConfig, LinkerConfig, QuestionUnderstanding};
use kgqan_baselines::PipelineSystem;
use kgqan_bench::harness::{parse_scale, run_system_on_benchmark};
use kgqan_bench::table::{pct, TableWriter};
use kgqan_benchmarks::{BenchmarkSuite, KgFlavor};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    println!("Parameter ablation — the four KGQAn knobs (scale: {scale:?})");

    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, scale);

    let configurations: Vec<(String, KgqanConfig)> = vec![
        (
            "defaults (maxVR=400, k_v=1, k_p=20, k_q=40)".into(),
            KgqanConfig::default(),
        ),
        (
            "maxVR=50".into(),
            KgqanConfig {
                linker: LinkerConfig {
                    max_fetched_vertices: 50,
                    ..LinkerConfig::default()
                },
                ..KgqanConfig::default()
            },
        ),
        (
            "k_v=3 vertices per node".into(),
            KgqanConfig {
                linker: LinkerConfig {
                    num_vertices: 3,
                    ..LinkerConfig::default()
                },
                ..KgqanConfig::default()
            },
        ),
        (
            "k_p=5 predicates per edge".into(),
            KgqanConfig {
                linker: LinkerConfig {
                    num_predicates: 5,
                    ..LinkerConfig::default()
                },
                ..KgqanConfig::default()
            },
        ),
        (
            "k_q=5 candidate queries".into(),
            KgqanConfig {
                max_candidate_queries: 5,
                ..KgqanConfig::default()
            },
        ),
        (
            "k_q=1 candidate query".into(),
            KgqanConfig {
                max_candidate_queries: 1,
                ..KgqanConfig::default()
            },
        ),
    ];

    let mut table = TableWriter::new(&["Configuration", "P", "R", "Macro F1"]);
    for (label, config) in configurations {
        let system = PipelineSystem::kgqan(QuestionUnderstanding::train_default(), config);
        let (report, _) = run_system_on_benchmark(&system, &instance);
        table.row(&[
            label,
            pct(report.macro_precision),
            pct(report.macro_recall),
            pct(report.macro_f1),
        ]);
    }

    table.print("KGQAn parameter ablation on the QALD-9-like benchmark");
}
