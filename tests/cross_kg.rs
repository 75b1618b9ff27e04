//! Universality integration test: one trained KGQAn platform answers
//! questions against all five benchmark KGs — including the scholarly and
//! opaque-URI ones — with **no** per-KG re-training, configuration or
//! pre-processing.  This is the paper's central claim.

use kgqan::{KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::{PipelineSystem, QaSystem};
use kgqan_benchmarks::{evaluate, BenchmarkSuite, KgFlavor, SuiteScale, SystemAnswer};

fn run_kgqan(system: &PipelineSystem, flavor: KgFlavor) -> f64 {
    let instance = BenchmarkSuite::build_one(flavor, SuiteScale::Smoke);
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
                phase_seconds: Some(r.phase_seconds),
            }
        })
        .collect();
    evaluate(&instance.benchmark, "KGQAn", &answers).macro_f1
}

#[test]
fn one_platform_answers_on_all_five_kgs_without_preprocessing() {
    let mut system = PipelineSystem::kgqan(
        QuestionUnderstanding::train_default(),
        KgqanConfig::default(),
    );

    for flavor in KgFlavor::ALL {
        // KGQAn performs no pre-processing for any KG.
        let instance = BenchmarkSuite::build_one(flavor, SuiteScale::Smoke);
        let stats = system.preprocess(instance.endpoint.as_ref());
        assert_eq!(stats.index_bytes, 0, "KGQAn must not build per-KG indices");
    }

    let mut f1_per_kg = Vec::new();
    for flavor in KgFlavor::ALL {
        let f1 = run_kgqan(&system, flavor);
        f1_per_kg.push((flavor, f1));
        assert!(
            f1 > 0.15,
            "KGQAn should answer a meaningful share of {flavor:?} questions, got F1 {f1:.3}"
        );
    }

    // The unseen scholarly KGs must not be catastrophically worse than the
    // general-fact ones (the universality property).
    let general: f64 = f1_per_kg
        .iter()
        .filter(|(f, _)| !f.is_scholarly())
        .map(|(_, f1)| *f1)
        .sum::<f64>()
        / 3.0;
    let scholarly: f64 = f1_per_kg
        .iter()
        .filter(|(f, _)| f.is_scholarly())
        .map(|(_, f1)| *f1)
        .sum::<f64>()
        / 2.0;
    assert!(
        scholarly > general * 0.4,
        "scholarly-KG F1 ({scholarly:.3}) collapsed relative to general-fact F1 ({general:.3})"
    );
}

#[test]
fn dbpedia_and_yago_use_different_vocabularies_but_both_work() {
    let system = PipelineSystem::kgqan(
        QuestionUnderstanding::train_default(),
        KgqanConfig::default(),
    );
    let dbp = run_kgqan(&system, KgFlavor::Dbpedia10);
    let yago = run_kgqan(&system, KgFlavor::Yago);
    assert!(dbp > 0.2);
    assert!(yago > 0.2);
}
