//! Exposes KGQAn's staged pipeline through the shared [`QaSystem`]
//! interface so the harness can evaluate it side by side with the
//! baselines:
//!
//! * [`PipelineSystem`] wraps any composed [`Pipeline`] as a [`QaSystem`];
//!   [`PipelineSystem::kgqan`] is the paper's pipeline, i.e. KGQAn itself,
//! * [`RuleBasedUnderstand`] implements the [`Understand`] stage trait with
//!   the baselines' curated-rule question decomposition, so a
//!   [`Pipeline`] can swap KGQAn's learned understanding for the
//!   gAnswer/EDGQA-style parser while keeping JIT linking and execution.

use std::sync::Arc;
use std::time::Instant;

use kgqan::pipeline::{Pipeline, StageContext, Understand};
use kgqan::{
    Budget, KgqanConfig, KgqanError, PhraseGraphPattern, QuestionUnderstanding, Understanding,
};
use kgqan_endpoint::SparqlEndpoint;
use kgqan_nlp::{AnswerDataType, AnswerTypePrediction, PhraseNode, PhraseTriplePattern};

use crate::rules::parse_with_rules;
use crate::{PreprocessingStats, QaSystem, SystemResponse};

/// The baselines' rule-based question decomposition as an [`Understand`]
/// stage: capitalised-span entity extraction, a curated relation-phrase
/// rule, and the auxiliary-verb Boolean test, producing the same
/// [`Understanding`] artifact as KGQAn's trained model.
///
/// This is what the stage traits buy: the harness can ablate question
/// understanding (learned vs. curated rules) while keeping KGQAn's JIT
/// linking, execution and filtration stages — the Table 4 axis, but per
/// stage instead of per system.
#[derive(Debug, Clone, Copy)]
pub struct RuleBasedUnderstand {
    /// Maximum entity-span length in tokens (EDGQA-style truncation; use a
    /// large value for gAnswer-style unbounded spans).
    pub max_entity_span: usize,
}

impl Default for RuleBasedUnderstand {
    fn default() -> Self {
        RuleBasedUnderstand { max_entity_span: 6 }
    }
}

impl Understand for RuleBasedUnderstand {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        let parse = parse_with_rules(question, self.max_entity_span);
        if !parse.is_usable() {
            return Err(KgqanError::UnderstandingFailed {
                question: question.to_string(),
            });
        }
        let relation = parse.relation.clone().unwrap_or_else(|| "related".into());
        let triples: Vec<PhraseTriplePattern> = if parse.boolean && parse.entities.len() >= 2 {
            // Boolean questions with two mentions assert a fact between
            // them; no unknown is introduced.
            vec![PhraseTriplePattern::new(
                PhraseNode::Phrase(parse.entities[0].clone()),
                relation.clone(),
                PhraseNode::Phrase(parse.entities[1].clone()),
            )]
        } else {
            parse
                .entities
                .iter()
                .map(|entity| PhraseTriplePattern::unknown_to_entity(relation.clone(), entity))
                .collect()
        };
        let answer_type = AnswerTypePrediction {
            data_type: if parse.boolean {
                AnswerDataType::Boolean
            } else {
                AnswerDataType::String
            },
            semantic_type: parse.type_word.clone().or(parse.relation),
        };
        Ok(Understanding {
            question: question.to_string(),
            pgp: PhraseGraphPattern::from_triples(&triples),
            triples,
            answer_type,
        })
    }
}

/// Any composed staged [`Pipeline`] exposed as a [`QaSystem`], so the
/// harness evaluates mixed pipelines (e.g. rule-based understanding + JIT
/// linking) side by side with the intact systems.
pub struct PipelineSystem {
    pipeline: Pipeline,
    config: KgqanConfig,
    name: String,
}

impl PipelineSystem {
    /// Wrap a pipeline under a display name.
    pub fn new(name: impl Into<String>, pipeline: Pipeline) -> Self {
        PipelineSystem {
            pipeline,
            config: KgqanConfig::default(),
            name: name.into(),
        }
    }

    /// KGQAn itself: the paper's pipeline ([`Pipeline::kgqan`]) over an
    /// already-trained question-understanding component and the affinity
    /// model `config` selects (lets the harness train once and evaluate
    /// many configurations).
    pub fn kgqan(understanding: QuestionUnderstanding, config: KgqanConfig) -> Self {
        let pipeline = Pipeline::kgqan(Arc::new(understanding), Arc::from(config.affinity.build()));
        PipelineSystem::new("KGQAn", pipeline).with_config(config)
    }

    /// Use a custom configuration for the stage contexts.
    pub fn with_config(mut self, config: KgqanConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the display name (used by the Table 4 harness to label
    /// configuration variants).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
}

impl QaSystem for PipelineSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn preprocess(&mut self, _endpoint: &dyn SparqlEndpoint) -> PreprocessingStats {
        // Staged pipelines inherit KGQAn's defining property: nothing to
        // build per KG.
        PreprocessingStats::default()
    }

    fn answer(&self, question: &str, endpoint: &dyn SparqlEndpoint) -> SystemResponse {
        let start = Instant::now();
        let budget = Budget::unbounded();
        let ctx = StageContext::new(endpoint, &budget, &self.config);
        match self.pipeline.run(question, &ctx) {
            Ok(trace) => SystemResponse {
                answers: trace.filtered.answers.clone(),
                boolean: trace.execution.boolean,
                understanding_ok: !trace.understanding.pgp.is_empty(),
                phase_seconds: (
                    trace.timings.understand.as_secs_f64(),
                    trace.timings.link.as_secs_f64(),
                    (trace.timings.execute + trace.timings.filter).as_secs_f64(),
                ),
            },
            Err(_) => SystemResponse {
                understanding_ok: false,
                phase_seconds: (start.elapsed().as_secs_f64(), 0.0, 0.0),
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
    use kgqan_endpoint::InProcessEndpoint;

    #[test]
    fn kgqan_adapter_requires_no_preprocessing_and_answers() {
        let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
        let ep = InProcessEndpoint::new("DBpedia", kg.store.clone());
        let mut sys = PipelineSystem::kgqan(
            QuestionUnderstanding::train_default(),
            KgqanConfig::default(),
        );
        let stats = sys.preprocess(&ep);
        assert_eq!(stats.indexed_items, 0);
        assert_eq!(stats.index_bytes, 0);

        let person = kg.facts.people.iter().find(|p| p.spouse.is_some()).unwrap();
        let spouse = &kg.facts.people[person.spouse.unwrap()];
        let response = sys.answer(&format!("Who is the spouse of {}?", person.name), &ep);
        assert!(response.understanding_ok);
        assert!(
            response.answers.contains(&spouse.iri),
            "expected {:?} in {:?}",
            spouse.iri,
            response.answers
        );
        assert!(response.phase_seconds.0 > 0.0);
        assert_eq!(sys.name(), "KGQAn");
        assert_eq!(sys.named("KGQAn (GPT-3 QU)").name(), "KGQAn (GPT-3 QU)");
    }

    #[test]
    fn rule_based_understand_produces_kgqan_artifacts() {
        let stage = RuleBasedUnderstand::default();
        let u = stage
            .understand("Who is the wife of Barack Obama?")
            .unwrap();
        assert_eq!(u.triples.len(), 1);
        assert!(u.pgp.main_unknown().is_some());
        assert_eq!(u.answer_type.data_type, AnswerDataType::String);
        assert_eq!(u.answer_type.semantic_type.as_deref(), Some("wife"));

        let boolean = stage
            .understand("Is Berlin the capital of Germany?")
            .unwrap();
        assert_eq!(boolean.answer_type.data_type, AnswerDataType::Boolean);
        assert!(boolean.pgp.is_boolean());

        assert!(stage.understand("what is the meaning of life").is_err());
    }

    #[test]
    fn pipeline_system_runs_a_mixed_pipeline_in_the_harness() {
        let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
        let ep = InProcessEndpoint::new("DBpedia", kg.store.clone());

        // KGQAn's linking/execution/filtration stages, but the baselines'
        // rule-based question understanding in stage 1.
        let affinity: Arc<dyn kgqan::SemanticAffinity> =
            Arc::from(kgqan::AffinityModel::FineGrained.build());
        let mixed = Pipeline::kgqan(Arc::new(QuestionUnderstanding::train_default()), affinity)
            .with_understand(Arc::new(RuleBasedUnderstand::default()));
        let mut sys = PipelineSystem::new("rules+JIT", mixed);
        assert_eq!(sys.name(), "rules+JIT");
        assert_eq!(sys.preprocess(&ep).indexed_items, 0);

        let person = kg.facts.people.iter().find(|p| p.spouse.is_some()).unwrap();
        let spouse = &kg.facts.people[person.spouse.unwrap()];
        let response = sys.answer(&format!("Who is the spouse of {}?", person.name), &ep);
        assert!(response.understanding_ok);
        assert!(
            response.answers.contains(&spouse.iri),
            "expected {:?} in {:?}",
            spouse.iri,
            response.answers
        );
    }
}
