//! Regenerates **Table 4**: KGQAn's F1 under different pre-trained-model
//! choices — BART-like vs GPT-3-like question understanding, and
//! fine-grained vs coarse-grained (sentence-embedding) semantic affinity.
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin table4_plm_ablation [-- --scale smoke]
//! ```

use kgqan::{AffinityModel, QuestionUnderstanding};
use kgqan_baselines::PipelineSystem;
use kgqan_bench::harness::{kgqan_config_variant, parse_scale, run_system_on_benchmark};
use kgqan_bench::published::PAPER_TABLE4_F1;
use kgqan_bench::table::{pct, TableWriter};
use kgqan_benchmarks::{BenchmarkSuite, KgFlavor};
use kgqan_nlp::Seq2SeqVariant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    println!("Table 4 — KGQAn F1 under different QU / affinity models (scale: {scale:?})");

    let variants: [(&str, Seq2SeqVariant, AffinityModel); 3] = [
        (
            "QU: BART, SA: FG",
            Seq2SeqVariant::BartLike,
            AffinityModel::FineGrained,
        ),
        (
            "QU: GPT-3, SA: FG",
            Seq2SeqVariant::Gpt3Like,
            AffinityModel::FineGrained,
        ),
        (
            "QU: BART, SA: GPT-3 CG",
            Seq2SeqVariant::BartLike,
            AffinityModel::CoarseGrained,
        ),
    ];

    let mut table = TableWriter::new(&[
        "Benchmark",
        variants[0].0,
        variants[1].0,
        variants[2].0,
        "Paper (BART+FG / GPT-3+FG / BART+CG)",
    ]);

    for flavor in KgFlavor::ALL {
        let instance = BenchmarkSuite::build_one(flavor, scale);
        let mut measured = Vec::new();
        for (_, seq2seq, affinity) in variants {
            let system = PipelineSystem::kgqan(
                QuestionUnderstanding::train_with_variant(seq2seq),
                kgqan_config_variant(seq2seq, affinity),
            );
            let (report, _) = run_system_on_benchmark(&system, &instance);
            measured.push(pct(report.macro_f1));
        }
        let paper = PAPER_TABLE4_F1
            .iter()
            .find(|(b, _, _, _)| *b == instance.benchmark.name)
            .map(|(_, a, b, c)| format!("{a:.2} / {b:.2} / {c:.2}"))
            .unwrap_or_else(|| "-".into());
        table.row(&[
            instance.benchmark.name.clone(),
            measured[0].clone(),
            measured[1].clone(),
            measured[2].clone(),
            paper,
        ]);
    }

    table.print("Table 4 (measured F1 per configuration vs. paper)");
    println!(
        "Paper shape to check: the default (BART-like QU + fine-grained affinity) wins in most\n\
         rows, and the coarse-grained affinity degrades most on the scholarly KGs (DBLP, MAG)."
    );
}
