//! Shared harness: build the three systems, run one system over one
//! benchmark, collect the evaluation report.

use kgqan::{AffinityModel, KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::{EdgqaSystem, GAnswerSystem, PipelineSystem, PreprocessingStats, QaSystem};
use kgqan_benchmarks::suite::BenchmarkInstance;
use kgqan_benchmarks::{evaluate, EvaluationReport, SuiteScale, SystemAnswer};
use kgqan_nlp::Seq2SeqVariant;
use kgqan_rdf::vocab;

/// Parse the `--scale smoke|full` command-line argument (default: full).
pub fn parse_scale(args: &[String]) -> SuiteScale {
    let mut scale = SuiteScale::Full;
    for window in args.windows(2) {
        if window[0] == "--scale" && window[1] == "smoke" {
            scale = SuiteScale::Smoke;
        }
    }
    if args.iter().any(|a| a == "--smoke") {
        scale = SuiteScale::Smoke;
    }
    scale
}

/// The three evaluated systems, pre-processed for one benchmark instance.
pub struct SystemSet {
    /// KGQAn (no pre-processing needed).
    pub kgqan: PipelineSystem,
    /// gAnswer with its per-KG indices built.
    pub ganswer: GAnswerSystem,
    /// EDGQA with its per-KG indices built (label predicate configured for
    /// MAG, the manual step of §7.2.1).
    pub edgqa: EdgqaSystem,
    /// Pre-processing cost per system, in Table 2 order
    /// (EDGQA/Falcon first, then gAnswer; KGQAn's is always zero).
    pub preprocessing: Vec<(String, PreprocessingStats)>,
}

/// Build and pre-process the three systems for one benchmark instance.
///
/// `understanding` lets the caller train KGQAn's QU models once and share
/// them across benchmarks (they are KG-independent by design).
pub fn build_systems(
    instance: &BenchmarkInstance,
    understanding: QuestionUnderstanding,
    config: KgqanConfig,
) -> SystemSet {
    let mut kgqan = PipelineSystem::kgqan(understanding, config);
    let kgqan_stats = kgqan.preprocess(instance.endpoint.as_ref());

    let mut ganswer = GAnswerSystem::new();
    let ganswer_stats = ganswer.preprocess(instance.endpoint.as_ref());

    let mut edgqa = if instance.kg.flavor == kgqan_benchmarks::KgFlavor::Mag {
        EdgqaSystem::new().with_label_predicate(vocab::FOAF_NAME)
    } else {
        EdgqaSystem::new()
    };
    let edgqa_stats = edgqa.preprocess(instance.endpoint.as_ref());

    SystemSet {
        kgqan,
        ganswer,
        edgqa,
        preprocessing: vec![
            ("EDGQA (Falcon-like)".to_string(), edgqa_stats),
            ("gAnswer".to_string(), ganswer_stats),
            ("KGQAn".to_string(), kgqan_stats),
        ],
    }
}

/// Default KGQAn configuration used by the harness (the paper's settings).
pub fn default_kgqan_config() -> KgqanConfig {
    KgqanConfig::default()
}

/// An ablation configuration for Table 4.
pub fn kgqan_config_variant(seq2seq: Seq2SeqVariant, affinity: AffinityModel) -> KgqanConfig {
    KgqanConfig {
        seq2seq,
        affinity,
        ..KgqanConfig::default()
    }
}

/// Run one system over every question of a benchmark and evaluate it.
pub fn run_system_on_benchmark(
    system: &dyn QaSystem,
    instance: &BenchmarkInstance,
) -> (EvaluationReport, Vec<SystemAnswer>) {
    let mut answers = Vec::with_capacity(instance.benchmark.len());
    for question in &instance.benchmark.questions {
        let response = system.answer(&question.text, instance.endpoint.as_ref());
        answers.push(SystemAnswer {
            answers: response.answers,
            boolean: response.boolean,
            understanding_ok: response.understanding_ok,
            phase_seconds: Some(response.phase_seconds),
        });
    }
    let report = evaluate(&instance.benchmark, system.name(), &answers);
    (report, answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_benchmarks::{BenchmarkSuite, KgFlavor};

    #[test]
    fn parse_scale_accepts_both_spellings() {
        assert_eq!(parse_scale(&[]), SuiteScale::Full);
        assert_eq!(
            parse_scale(&["--scale".into(), "smoke".into()]),
            SuiteScale::Smoke
        );
        assert_eq!(parse_scale(&["--smoke".into()]), SuiteScale::Smoke);
        assert_eq!(
            parse_scale(&["--scale".into(), "full".into()]),
            SuiteScale::Full
        );
    }

    #[test]
    fn harness_runs_kgqan_on_a_smoke_benchmark() {
        let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
        let systems = build_systems(
            &instance,
            QuestionUnderstanding::train_default(),
            default_kgqan_config(),
        );
        // KGQAn needs no pre-processing; the baselines do.
        let kgqan_pre = systems
            .preprocessing
            .iter()
            .find(|(n, _)| n == "KGQAn")
            .unwrap();
        assert_eq!(kgqan_pre.1.index_bytes, 0);
        let ganswer_pre = systems
            .preprocessing
            .iter()
            .find(|(n, _)| n == "gAnswer")
            .unwrap();
        assert!(ganswer_pre.1.index_bytes > 0);

        let (report, answers) = run_system_on_benchmark(&systems.kgqan, &instance);
        assert_eq!(answers.len(), instance.benchmark.len());
        assert!(
            report.macro_f1 > 0.2,
            "KGQAn should answer a reasonable share of the smoke benchmark, got F1 {}",
            report.macro_f1
        );
    }
}
