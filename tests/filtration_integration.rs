//! Integration test of the post-filtration step (Figure 10): filtering
//! should improve precision on a whole benchmark without destroying recall.

use kgqan::{KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::{PipelineSystem, QaSystem};
use kgqan_benchmarks::{evaluate, BenchmarkSuite, KgFlavor, SuiteScale, SystemAnswer};

fn run(filtration: bool) -> (f64, f64, f64) {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let system = PipelineSystem::kgqan(
        QuestionUnderstanding::train_default(),
        KgqanConfig {
            filtration_enabled: filtration,
            ..KgqanConfig::default()
        },
    );
    let answers: Vec<SystemAnswer> = instance
        .benchmark
        .questions
        .iter()
        .map(|q| {
            let r = system.answer(&q.text, instance.endpoint.as_ref());
            SystemAnswer {
                answers: r.answers,
                boolean: r.boolean,
                understanding_ok: r.understanding_ok,
                phase_seconds: None,
            }
        })
        .collect();
    let report = evaluate(&instance.benchmark, "KGQAn", &answers);
    (report.macro_precision, report.macro_recall, report.macro_f1)
}

#[test]
fn filtration_does_not_reduce_precision_and_preserves_most_recall() {
    let (p_without, r_without, f1_without) = run(false);
    let (p_with, r_with, f1_with) = run(true);

    // Filtration removes wrongly-typed answers; on occasion it also drops a
    // correct answer whose KG class is only loosely related to the predicted
    // semantic type, so allow a small tolerance.
    assert!(
        p_with >= p_without - 0.05,
        "filtration must not hurt precision: {p_with:.3} vs {p_without:.3}"
    );
    assert!(
        r_with >= r_without * 0.7,
        "filtration lost too much recall: {r_with:.3} vs {r_without:.3}"
    );
    // Overall the filtered configuration should not be worse.
    assert!(
        f1_with >= f1_without - 0.05,
        "filtration degraded F1: {f1_with:.3} vs {f1_without:.3}"
    );
}
