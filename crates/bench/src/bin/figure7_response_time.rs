//! Regenerates **Figure 7**: average response time per system and benchmark,
//! broken down into question understanding (QU), linking and execution &
//! filtration (E&F).
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin figure7_response_time [-- --scale smoke]
//! ```

use kgqan::QuestionUnderstanding;
use kgqan_baselines::QaSystem;
use kgqan_bench::harness::{
    build_systems, default_kgqan_config, parse_scale, run_system_on_benchmark,
};
use kgqan_bench::published::PAPER_FIGURE7_TOTAL_SECONDS;
use kgqan_bench::table::{micros, TableWriter};
use kgqan_benchmarks::{BenchmarkSuite, KgFlavor};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    println!("Figure 7 — response time per phase (scale: {scale:?})");
    println!(
        "Note: absolute latencies are not comparable to the paper's (remote Virtuoso, much\n\
         larger KGs, Python/Java systems); the reported shape is the per-phase breakdown."
    );

    let mut table = TableWriter::new(&[
        "Benchmark",
        "System",
        "QU (µs)",
        "Linking (µs)",
        "E&F (µs)",
        "Total (µs)",
        "Paper total (s)",
    ]);

    for flavor in KgFlavor::ALL {
        let instance = BenchmarkSuite::build_one(flavor, scale);
        let systems = build_systems(
            &instance,
            QuestionUnderstanding::train_default(),
            default_kgqan_config(),
        );
        let evaluated: Vec<&dyn QaSystem> = vec![&systems.ganswer, &systems.edgqa, &systems.kgqan];
        for system in evaluated {
            let (report, _) = run_system_on_benchmark(system, &instance);
            let (qu, link, exec) = report.mean_phase_seconds.unwrap_or((0.0, 0.0, 0.0));
            let paper = PAPER_FIGURE7_TOTAL_SECONDS
                .iter()
                .find(|(s, b, _)| *s == report.system && *b == instance.benchmark.name)
                .map(|(_, _, t)| format!("{t:.1}"))
                .unwrap_or_else(|| "-".into());
            table.row(&[
                instance.benchmark.name.clone(),
                report.system.clone(),
                micros(qu),
                micros(link),
                micros(exec),
                micros(qu + link + exec),
                paper,
            ]);
        }
    }

    table.print("Figure 7 (mean microseconds per phase; the paper's totals in seconds)");
    println!(
        "Paper shape to check: KGQAn's time is dominated by QU, its linking is the cheapest\n\
         phase, and response time tracks pipeline complexity rather than KG size."
    );
}
