//! Regenerates **Figure 10**: KGQAn's precision / recall / F1 with and
//! without the post-filtration step, on the QALD-9-like and LC-QuAD-like
//! benchmarks.
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin figure10_filtration [-- --scale smoke]
//! ```

use kgqan::{KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::PipelineSystem;
use kgqan_bench::harness::{parse_scale, run_system_on_benchmark};
use kgqan_bench::published::PAPER_FIGURE10;
use kgqan_bench::table::{pct, TableWriter};
use kgqan_benchmarks::{BenchmarkSuite, KgFlavor};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    println!("Figure 10 — effect of post-filtration (scale: {scale:?})");

    let mut table = TableWriter::new(&[
        "Benchmark",
        "Configuration",
        "P",
        "R",
        "Macro F1",
        "Paper (P/R/F1)",
    ]);

    for flavor in [KgFlavor::Dbpedia10, KgFlavor::Dbpedia04] {
        let instance = BenchmarkSuite::build_one(flavor, scale);
        for filtration in [false, true] {
            let config = KgqanConfig {
                filtration_enabled: filtration,
                ..KgqanConfig::default()
            };
            let system = PipelineSystem::kgqan(QuestionUnderstanding::train_default(), config);
            let (report, _) = run_system_on_benchmark(&system, &instance);
            let label = if filtration {
                "KGQAn"
            } else {
                "KGQAn without filtration"
            };
            let paper = PAPER_FIGURE10
                .iter()
                .find(|(b, _, _)| *b == instance.benchmark.name)
                .map(|(_, without, with)| {
                    let row = if filtration { with } else { without };
                    format!("{:.1} / {:.1} / {:.1}", row[0], row[1], row[2])
                })
                .unwrap_or_else(|| "-".into());
            table.row(&[
                instance.benchmark.name.clone(),
                label.to_string(),
                pct(report.macro_precision),
                pct(report.macro_recall),
                pct(report.macro_f1),
                paper,
            ]);
        }
    }

    table.print("Figure 10 (with vs. without filtration)");
    println!(
        "Paper shape to check: filtration improves precision (and overall F1) at a small cost\n\
         in recall, on both benchmarks."
    );
}
