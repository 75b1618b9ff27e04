//! Shared harness: build the three systems, run one system over one
//! benchmark, collect the evaluation report; and the empty MAG candidate
//! the `sparql_planner` and `sparql_bench` criterion suites both time.

use kgqan::{AffinityModel, KgqanConfig, QuestionUnderstanding};
use kgqan_baselines::{EdgqaSystem, GAnswerSystem, PipelineSystem, PreprocessingStats, QaSystem};
use kgqan_benchmarks::kg::scholarly;
use kgqan_benchmarks::suite::BenchmarkInstance;
use kgqan_benchmarks::{evaluate, EvaluationReport, GeneratedKg, SuiteScale, SystemAnswer};
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

/// The SPARQL text of an empty two-anchor candidate over a MAG stand-in,
/// in the shape the candidate generator emits (`kgqan::bgp`):
/// `<author> creator ?u . <venue> appearsInConferenceSeries ?u` plus the
/// `OPTIONAL` type clause.  Both anchors are oriented the wrong way round,
/// so each pattern reads one index row and finds nothing — the fate of
/// most candidates a cold MAG question executes.
pub fn empty_mag_candidate(mag: &GeneratedKg) -> String {
    let iri = |term: &kgqan_rdf::Term| term.as_iri().expect("an IRI entity").to_string();
    let author = iri(&mag.facts.authors[7].iri);
    let venue = iri(&mag.facts.papers[0].venue_iri);
    format!(
        "SELECT DISTINCT ?unknown1 ?type WHERE {{ \
         <{author}> <{creator}> ?unknown1 . \
         <{venue}> <{appears}> ?unknown1 . \
         OPTIONAL {{ ?unknown1 <{rdf_type}> ?type . }} }}",
        creator = scholarly::MAG_CREATOR,
        appears = scholarly::MAG_VENUE,
        rdf_type = vocab::RDF_TYPE,
    )
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
