//! Integration test of the paper's headline comparison: on unseen,
//! differently-shaped KGs (DBLP-like and MAG-like), KGQAn outperforms the
//! pre-processing-based baselines by a large margin, and gAnswer collapses on
//! the opaque-URI KG.

use kgqan::{KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::{EdgqaSystem, GAnswerSystem, PipelineSystem, QaSystem};
use kgqan_benchmarks::suite::BenchmarkInstance;
use kgqan_benchmarks::{evaluate, BenchmarkSuite, KgFlavor, SuiteScale, SystemAnswer};
use kgqan_rdf::vocab;

fn run(system: &dyn QaSystem, instance: &BenchmarkInstance) -> f64 {
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
    evaluate(&instance.benchmark, system.name(), &answers).macro_f1
}

#[test]
fn kgqan_beats_baselines_on_unseen_scholarly_kgs() {
    let kgqan = PipelineSystem::kgqan(
        QuestionUnderstanding::train_default(),
        KgqanConfig::default(),
    );

    for flavor in [KgFlavor::Dblp, KgFlavor::Mag] {
        let instance = BenchmarkSuite::build_one(flavor, SuiteScale::Smoke);

        let mut ganswer = GAnswerSystem::new();
        ganswer.preprocess(instance.endpoint.as_ref());
        let mut edgqa = if flavor == KgFlavor::Mag {
            EdgqaSystem::new().with_label_predicate(vocab::FOAF_NAME)
        } else {
            EdgqaSystem::new()
        };
        edgqa.preprocess(instance.endpoint.as_ref());

        let kgqan_f1 = run(&kgqan, &instance);
        let ganswer_f1 = run(&ganswer, &instance);
        let edgqa_f1 = run(&edgqa, &instance);

        assert!(
            kgqan_f1 > ganswer_f1,
            "{flavor:?}: KGQAn ({kgqan_f1:.3}) should beat gAnswer ({ganswer_f1:.3})"
        );
        assert!(
            kgqan_f1 > edgqa_f1,
            "{flavor:?}: KGQAn ({kgqan_f1:.3}) should beat EDGQA ({edgqa_f1:.3})"
        );
    }
}

#[test]
fn ganswer_scores_zero_on_mag_like_kg() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Mag, SuiteScale::Smoke);
    let mut ganswer = GAnswerSystem::new();
    ganswer.preprocess(instance.endpoint.as_ref());
    let f1 = run(&ganswer, &instance);
    assert!(
        f1 < 0.05,
        "gAnswer's URI-text index should fail on MAG (paper: F1 = 0.0), got {f1:.3}"
    );
}

#[test]
fn only_the_baselines_pay_preprocessing_cost() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dblp, SuiteScale::Smoke);

    let mut kgqan = PipelineSystem::kgqan(
        QuestionUnderstanding::train_default(),
        KgqanConfig::default(),
    );
    let kgqan_stats = kgqan.preprocess(instance.endpoint.as_ref());
    assert_eq!(kgqan_stats.index_bytes, 0);
    assert_eq!(kgqan_stats.indexed_items, 0);

    let mut ganswer = GAnswerSystem::new();
    let ganswer_stats = ganswer.preprocess(instance.endpoint.as_ref());
    assert!(ganswer_stats.index_bytes > 0);

    let mut edgqa = EdgqaSystem::new();
    let edgqa_stats = edgqa.preprocess(instance.endpoint.as_ref());
    assert!(edgqa_stats.index_bytes > 0);
}
