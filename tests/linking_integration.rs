//! Integration tests of the just-in-time linker (Algorithms 1 and 2) against
//! generated knowledge graphs, using the benchmarks' gold linking pairs.

use kgqan::pgp::PhraseGraphPattern;
use kgqan::{Budget, FineGrainedAffinity, JitLinker, LinkerConfig, SemanticAffinity};
use kgqan_benchmarks::suite::BenchmarkSuite;
use kgqan_benchmarks::{KgFlavor, SuiteScale};
use kgqan_nlp::{PhraseNode, PhraseTriplePattern};

fn pgp_for(entity: &str, relation: &str) -> PhraseGraphPattern {
    PhraseGraphPattern::from_triples(&[PhraseTriplePattern::new(
        PhraseNode::Unknown(1),
        relation.to_string(),
        PhraseNode::Phrase(entity.to_string()),
    )])
}

#[test]
fn entity_linking_resolves_most_gold_mentions_on_dbpedia() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let affinity = FineGrainedAffinity::new();
    let linker = JitLinker::new(&affinity, LinkerConfig::default());

    let mut total = 0usize;
    let mut correct = 0usize;
    for question in &instance.benchmark.questions {
        for (phrase, gold) in &question.linking.entities {
            total += 1;
            let agp = linker
                .link(
                    &pgp_for(phrase, "related to"),
                    instance.endpoint.as_ref(),
                    &Budget::unbounded(),
                )
                .unwrap()
                .agp;
            let node = agp.pgp.nodes().iter().find(|n| !n.is_unknown()).unwrap().id;
            if agp.vertices_of(node).first().map(|rv| &rv.vertex) == Some(gold) {
                correct += 1;
            }
        }
    }
    assert!(total > 0);
    let accuracy = correct as f64 / total as f64;
    assert!(
        accuracy > 0.7,
        "entity linking accuracy too low: {correct}/{total}"
    );
}

#[test]
fn relation_linking_ranks_gold_predicate_in_top_candidates() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let affinity = FineGrainedAffinity::new();
    let linker = JitLinker::new(&affinity, LinkerConfig::default());

    let mut total = 0usize;
    let mut hit = 0usize;
    for question in &instance.benchmark.questions {
        let Some((entity_phrase, _)) = question.linking.entities.first() else {
            continue;
        };
        for (relation_phrase, gold) in &question.linking.relations {
            total += 1;
            let agp = linker
                .link(
                    &pgp_for(entity_phrase, relation_phrase),
                    instance.endpoint.as_ref(),
                    &Budget::unbounded(),
                )
                .unwrap()
                .agp;
            if agp
                .predicates_of(0)
                .iter()
                .take(5)
                .any(|rp| &rp.predicate == gold)
            {
                hit += 1;
            }
        }
    }
    assert!(total > 0);
    let accuracy = hit as f64 / total as f64;
    assert!(
        accuracy > 0.6,
        "gold predicate in top-5 for only {hit}/{total} relations"
    );
}

#[test]
fn linking_works_on_opaque_uri_kg_through_descriptions() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Mag, SuiteScale::Smoke);
    let affinity = FineGrainedAffinity::new();
    let linker = JitLinker::new(&affinity, LinkerConfig::default());

    let mut total = 0usize;
    let mut correct = 0usize;
    for question in instance.benchmark.questions.iter().take(10) {
        for (phrase, gold) in &question.linking.entities {
            total += 1;
            let agp = linker
                .link(
                    &pgp_for(phrase, "related to"),
                    instance.endpoint.as_ref(),
                    &Budget::unbounded(),
                )
                .unwrap()
                .agp;
            let node = agp.pgp.nodes().iter().find(|n| !n.is_unknown()).unwrap().id;
            if agp.vertices_of(node).first().map(|rv| &rv.vertex) == Some(gold) {
                correct += 1;
            }
        }
    }
    assert!(
        correct as f64 / total as f64 > 0.5,
        "JIT linking should still work on MAG-style KGs: {correct}/{total}"
    );
}

#[test]
fn num_vertices_knob_controls_annotation_width() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let affinity = FineGrainedAffinity::new();
    let phrase = &instance.benchmark.questions[0].linking.entities[0].0;

    for k in [1usize, 3, 5] {
        let linker = JitLinker::new(
            &affinity,
            LinkerConfig {
                num_vertices: k,
                ..LinkerConfig::default()
            },
        );
        let agp = linker
            .link(
                &pgp_for(phrase, "related to"),
                instance.endpoint.as_ref(),
                &Budget::unbounded(),
            )
            .unwrap()
            .agp;
        let node = agp.pgp.nodes().iter().find(|n| !n.is_unknown()).unwrap().id;
        assert!(
            agp.vertices_of(node).len() <= k,
            "more vertices than the k={k} knob allows"
        );
    }
}

#[test]
fn relation_annotations_respect_num_predicates_knob() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let affinity = FineGrainedAffinity::new();
    let linker = JitLinker::new(
        &affinity,
        LinkerConfig {
            num_predicates: 3,
            ..LinkerConfig::default()
        },
    );
    let question = &instance.benchmark.questions[0];
    let entity = &question.linking.entities[0].0;
    let relation = &question.linking.relations[0].0;
    let agp = linker
        .link(
            &pgp_for(entity, relation),
            instance.endpoint.as_ref(),
            &Budget::unbounded(),
        )
        .unwrap()
        .agp;
    assert!(agp.predicates_of(0).len() <= 3);
}

/// A model written against the two required methods only — as models were
/// before `score_many` existed — counting its calls.
struct ScoreOnly {
    inner: FineGrainedAffinity,
    calls: std::sync::atomic::AtomicUsize,
}

impl SemanticAffinity for ScoreOnly {
    fn score(&self, a: &str, b: &str) -> f32 {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.score(a, b)
    }

    fn label(&self) -> &'static str {
        "score-only"
    }
}

#[test]
fn a_model_implementing_only_score_links_through_the_provided_batch_method() {
    let instance = BenchmarkSuite::build_one(KgFlavor::Dbpedia10, SuiteScale::Smoke);
    let builtin = FineGrainedAffinity::new();
    let custom = ScoreOnly {
        inner: FineGrainedAffinity::new(),
        calls: Default::default(),
    };

    for question in instance.benchmark.questions.iter().take(10) {
        let (Some((entity, _)), Some((relation, _))) = (
            question.linking.entities.first(),
            question.linking.relations.first(),
        ) else {
            continue;
        };
        let pgp = pgp_for(entity, relation);
        let link = |affinity: &dyn SemanticAffinity| {
            JitLinker::new(affinity, LinkerConfig::default())
                .link(&pgp, instance.endpoint.as_ref(), &Budget::unbounded())
                .unwrap()
                .agp
        };
        let (expected, got) = (link(&builtin), link(&custom));
        assert_eq!(got.node_annotations, expected.node_annotations);
        assert_eq!(got.edge_annotations, expected.edge_annotations);
        // One `score` call per scored description, as a decorator counts them.
        let scored = got.total_vertex_candidates() + got.total_predicate_candidates();
        assert!(custom.calls.load(std::sync::atomic::Ordering::Relaxed) >= scored);
    }
    assert!(custom.calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
}
