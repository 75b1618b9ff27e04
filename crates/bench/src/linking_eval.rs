//! Standalone entity/relation-linking evaluation (Figure 9).
//!
//! The paper evaluates the linking step in isolation on the labelled
//! LC-QuAD 1.0 linking dataset of \[18]: given the gold question phrases, how
//! well does each system map them to the right vertex / predicate?  Our
//! benchmark questions carry the same gold pairs ([`LinkingGold`](kgqan_benchmarks::benchmark::LinkingGold)), so the
//! evaluation asks each system's linker to resolve the gold phrases and
//! scores the result with precision / recall / F1 over the returned sets.

use kgqan::pgp::PhraseGraphPattern;
use kgqan::{Budget, FineGrainedAffinity, JitLinker, LinkerConfig};
use kgqan_baselines::{EdgqaSystem, GAnswerSystem};
use kgqan_benchmarks::suite::BenchmarkInstance;
use kgqan_nlp::{PhraseNode, PhraseTriplePattern};
use kgqan_rdf::Term;

/// Precision / recall / F1 of a linking run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkingScores {
    /// Entity-linking precision.
    pub entity_precision: f64,
    /// Entity-linking recall.
    pub entity_recall: f64,
    /// Entity-linking F1.
    pub entity_f1: f64,
    /// Relation-linking precision.
    pub relation_precision: f64,
    /// Relation-linking recall.
    pub relation_recall: f64,
    /// Relation-linking F1.
    pub relation_f1: f64,
}

fn prf(correct: usize, returned: usize, gold: usize) -> (f64, f64, f64) {
    let p = if returned == 0 {
        0.0
    } else {
        correct as f64 / returned as f64
    };
    let r = if gold == 0 {
        0.0
    } else {
        correct as f64 / gold as f64
    };
    let f1 = if p + r > 0.0 {
        2.0 * p * r / (p + r)
    } else {
        0.0
    };
    (p, r, f1)
}

/// Which linker to evaluate.
pub enum LinkerUnderTest<'a> {
    /// KGQAn's JIT linker (no pre-processing; talks to the endpoint).
    Kgqan,
    /// gAnswer's pre-built URI-token index.
    GAnswer(&'a GAnswerSystem),
    /// EDGQA's pre-built label index.
    Edgqa(&'a EdgqaSystem),
}

/// Evaluate one linker over the gold linking pairs of a benchmark.
pub fn evaluate_linking(linker: &LinkerUnderTest, instance: &BenchmarkInstance) -> LinkingScores {
    let mut entity_correct = 0usize;
    let mut entity_returned = 0usize;
    let mut entity_gold = 0usize;
    let mut relation_correct = 0usize;
    let mut relation_returned = 0usize;
    let mut relation_gold = 0usize;

    let affinity = FineGrainedAffinity::new();
    let jit = JitLinker::new(&affinity, LinkerConfig::default());

    for question in &instance.benchmark.questions {
        for (phrase, gold_vertex) in &question.linking.entities {
            entity_gold += 1;
            let linked: Option<Term> = match linker {
                LinkerUnderTest::Kgqan => {
                    // Link an isolated entity node, exactly Algorithm 1.
                    let pgp = PhraseGraphPattern::from_triples(&[PhraseTriplePattern::new(
                        PhraseNode::Unknown(1),
                        "related to",
                        PhraseNode::Phrase(phrase.clone()),
                    )]);
                    jit.link(&pgp, instance.endpoint.as_ref(), &Budget::unbounded())
                        .ok()
                        .and_then(|linked| {
                            let agp = linked.agp;
                            let node = agp
                                .pgp
                                .nodes()
                                .iter()
                                .find(|n| !n.is_unknown())
                                .map(|n| n.id)?;
                            agp.vertices_of(node).first().map(|rv| rv.vertex.clone())
                        })
                }
                LinkerUnderTest::GAnswer(sys) => sys.link_entity(phrase),
                LinkerUnderTest::Edgqa(sys) => sys.link_entity(phrase),
            };
            if let Some(vertex) = linked {
                entity_returned += 1;
                if &vertex == gold_vertex {
                    entity_correct += 1;
                }
            }
        }

        for (phrase, gold_predicate) in &question.linking.relations {
            relation_gold += 1;
            let candidates: Vec<Term> = match linker {
                LinkerUnderTest::Kgqan => {
                    // Link the relation in the context of the question's first
                    // gold entity, exactly Algorithm 2's anchoring.
                    let Some((entity_phrase, _)) = question.linking.entities.first() else {
                        continue;
                    };
                    let pgp = PhraseGraphPattern::from_triples(&[PhraseTriplePattern::new(
                        PhraseNode::Unknown(1),
                        phrase.clone(),
                        PhraseNode::Phrase(entity_phrase.clone()),
                    )]);
                    jit.link(&pgp, instance.endpoint.as_ref(), &Budget::unbounded())
                        .map(|linked| {
                            linked
                                .agp
                                .predicates_of(0)
                                .iter()
                                .take(1)
                                .map(|rp| rp.predicate.clone())
                                .collect()
                        })
                        .unwrap_or_default()
                }
                LinkerUnderTest::GAnswer(sys) => {
                    sys.link_relation(phrase).into_iter().take(1).collect()
                }
                LinkerUnderTest::Edgqa(sys) => {
                    let Some((_, gold_entity)) = question.linking.entities.first() else {
                        continue;
                    };
                    sys.link_relation(phrase, gold_entity, instance.endpoint.as_ref())
                        .into_iter()
                        .take(1)
                        .collect()
                }
            };
            if !candidates.is_empty() {
                relation_returned += 1;
                if candidates.contains(gold_predicate) {
                    relation_correct += 1;
                }
            }
        }
    }

    let (entity_precision, entity_recall, entity_f1) =
        prf(entity_correct, entity_returned, entity_gold);
    let (relation_precision, relation_recall, relation_f1) =
        prf(relation_correct, relation_returned, relation_gold);
    LinkingScores {
        entity_precision,
        entity_recall,
        entity_f1,
        relation_precision,
        relation_recall,
        relation_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_baselines::QaSystem;
    use kgqan_benchmarks::{BenchmarkSuite, KgFlavor, SuiteScale};

    #[test]
    fn kgqan_linking_is_strong_on_lcquad_like_benchmark() {
        let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia04, SuiteScale::Smoke);
        let kgqan_scores = evaluate_linking(&LinkerUnderTest::Kgqan, &instance);
        assert!(
            kgqan_scores.entity_f1 > 0.5,
            "KGQAn entity linking too weak: {kgqan_scores:?}"
        );
        assert!(
            kgqan_scores.relation_f1 > 0.3,
            "KGQAn relation linking too weak: {kgqan_scores:?}"
        );
    }

    #[test]
    fn kgqan_entity_linking_beats_ganswer_where_uris_are_opaque() {
        // The discriminating case of the paper: gAnswer's URI-token index
        // cannot link mentions on MAG, while KGQAn's JIT text-index linking
        // still can (§7.2.3).
        let instance = BenchmarkSuite::build_one(KgFlavor::Mag, SuiteScale::Smoke);
        let kgqan_scores = evaluate_linking(&LinkerUnderTest::Kgqan, &instance);
        let mut ganswer = GAnswerSystem::new();
        ganswer.preprocess(instance.endpoint.as_ref());
        let ganswer_scores = evaluate_linking(&LinkerUnderTest::GAnswer(&ganswer), &instance);
        assert!(kgqan_scores.entity_f1 > ganswer_scores.entity_f1);
        assert!(
            kgqan_scores.entity_f1 > 0.4,
            "KGQAn should still link on MAG: {kgqan_scores:?}"
        );
        assert!(
            ganswer_scores.entity_f1 < 0.1,
            "gAnswer should fail on MAG: {ganswer_scores:?}"
        );
    }

    #[test]
    fn prf_handles_empty_sets() {
        assert_eq!(prf(0, 0, 0), (0.0, 0.0, 0.0));
        assert_eq!(prf(1, 1, 1), (1.0, 1.0, 1.0));
        let (p, r, f1) = prf(1, 2, 4);
        assert!((p - 0.5).abs() < 1e-9);
        assert!((r - 0.25).abs() < 1e-9);
        assert!(f1 > 0.0);
    }
}
