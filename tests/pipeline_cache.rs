//! Semantic-cache integration tests: the cached pipeline must be
//! answer-equivalent to an uncached pipeline — caching changes latency,
//! never answers — plus cross-request hit sharing through one service and
//! staged-trace plumbing through the public API.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use kgqan::{
    AffinityModel, AnswerRequest, AnswerResponse, CacheConfig, ConfigOverrides, KgqanConfig,
    LinkerConfig, QaService, QuestionUnderstanding, RelevantPredicate, RelevantVertex,
};
use kgqan_endpoint::{EndpointRegistry, InProcessEndpoint};
use kgqan_rdf::{vocab, Store, Term, Triple};

const FIRST_NAMES: &[&str] = &["Ada", "Barack", "Carl", "Dora", "Edith", "Frank"];
const LAST_NAMES: &[&str] = &["Obama", "Stone", "Rivers", "Klein"];

fn full_name(first: usize, last: usize) -> String {
    format!(
        "{} {}",
        FIRST_NAMES[first % FIRST_NAMES.len()],
        LAST_NAMES[last % LAST_NAMES.len()]
    )
}

fn person_iri(name: &str) -> Term {
    Term::iri(format!(
        "http://example.org/resource/{}",
        name.replace(' ', "_")
    ))
}

/// A randomly shaped people KG: every person gets a label, some get spouses
/// and types, drawn from a small closed name pool so questions frequently
/// overlap across cases (the cache's bread and butter).
#[derive(Debug, Clone)]
struct PeopleKg {
    couples: Vec<(usize, usize)>,
    typed: Vec<bool>,
}

impl PeopleKg {
    fn store(&self) -> Store {
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let rdf_type = Term::iri(vocab::RDF_TYPE);
        let person_class = Term::iri("http://example.org/ontology/Person");
        for (i, &(a, b)) in self.couples.iter().enumerate() {
            let husband = full_name(a, i);
            let wife = full_name(b, i + 1);
            let h = person_iri(&husband);
            let w = person_iri(&wife);
            store.insert_all([
                Triple::new(h.clone(), label.clone(), Term::literal_str(husband)),
                Triple::new(w.clone(), label.clone(), Term::literal_str(wife)),
                Triple::new(
                    h.clone(),
                    Term::iri("http://example.org/ontology/spouse"),
                    w.clone(),
                ),
            ]);
            if self.typed.get(i).copied().unwrap_or(false) {
                store.insert(Triple::new(h, rdf_type.clone(), person_class.clone()));
                store.insert(Triple::new(w, rdf_type.clone(), person_class.clone()));
            }
        }
        store
    }

    fn questions(&self) -> Vec<String> {
        let mut questions: Vec<String> = self
            .couples
            .iter()
            .enumerate()
            .map(|(i, &(a, _))| format!("Who is the wife of {}?", full_name(a, i)))
            .collect();
        // One question about a person who may not exist in this KG.
        questions.push("Who is the wife of Zorblax Qwerty?".to_string());
        questions
    }
}

fn arb_people_kg() -> impl Strategy<Value = PeopleKg> {
    (
        prop::collection::vec((0usize..6, 0usize..6), 1..4),
        prop::collection::vec(any::<bool>(), 0..4),
    )
        .prop_map(|(couples, typed)| PeopleKg { couples, typed })
}

fn understanding() -> Arc<QuestionUnderstanding> {
    static QU: OnceLock<Arc<QuestionUnderstanding>> = OnceLock::new();
    Arc::clone(QU.get_or_init(|| Arc::new(QuestionUnderstanding::train_default())))
}

fn service(kg: &PeopleKg, cached: bool) -> QaService {
    let builder = QaService::builder()
        .shared_understanding(understanding())
        .endpoint(Arc::new(InProcessEndpoint::new("People", kg.store())));
    let builder = if cached {
        // A deliberately small cache so eviction paths run under the
        // equivalence check too.
        builder.cache(CacheConfig::with_capacity(16))
    } else {
        builder.no_cache()
    };
    builder.build().expect("one registered KG")
}

proptest! {
    /// The cached service returns exactly the answers of the uncached
    /// service, question for question — including on the second, warm pass
    /// where every probe comes out of the namespace.
    #[test]
    fn cached_pipeline_is_answer_equivalent_to_uncached(kg in arb_people_kg()) {
        let cached = service(&kg, true);
        let uncached = service(&kg, false);

        for round in 0..2 {
            for question in kg.questions() {
                let cached_result = cached.answer(AnswerRequest::new(&question));
                let uncached_result = uncached.answer(AnswerRequest::new(&question));
                match (cached_result, uncached_result) {
                    (Ok(c), Ok(u)) => {
                        if c.answers() != u.answers() {
                            return Err(TestCaseError::fail(format!(
                                "answers diverged on {question:?} (round {round}): \
                                 {:?} vs {:?}",
                                c.answers(), u.answers()
                            )));
                        }
                        prop_assert_eq!(
                            &c.trace.filtered.unfiltered,
                            &u.trace.filtered.unfiltered
                        );
                        prop_assert_eq!(c.boolean(), u.boolean());
                    }
                    (Err(c), Err(u)) => prop_assert_eq!(c.to_string(), u.to_string()),
                    (c, u) => {
                        return Err(TestCaseError::fail(format!(
                            "cached/uncached disagreed on {question:?}: {c:?} vs {u:?}"
                        )))
                    }
                }
            }
        }
        // Sanity: after two identical passes the cached service has seen
        // repeats, so unless every question failed understanding the
        // namespace must have registered activity.
        let report = cached.cache_report();
        prop_assert_eq!(report.per_kg.len(), 1);
        prop_assert!(uncached.cache_report().is_uncached());
    }
}

#[test]
fn concurrent_requests_share_one_namespace() {
    let kg = PeopleKg {
        couples: vec![(1, 0)],
        typed: vec![true],
    };
    let service = service(&kg, true);
    let question = kg.questions()[0].clone();

    // Warm the namespace once, then hammer it from four threads.
    let reference = service
        .answer(AnswerRequest::new(&question))
        .unwrap()
        .answers()
        .to_vec();
    let before = service.cache_report().total();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let service = service.clone();
            let question = question.clone();
            let reference = reference.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let response = service.answer(AnswerRequest::new(&question)).unwrap();
                    assert_eq!(response.answers(), reference);
                }
            });
        }
    });

    let delta = service.cache_report().total().since(&before);
    assert!(delta.hits > 0, "threads must share warm entries");
    assert_eq!(delta.misses, 0, "warm namespace must absorb every probe");
    // The KG endpoint itself served no additional requests after warm-up.
    let stats = service.registry().get_uncached("People").unwrap().stats();
    let warm = service.answer(AnswerRequest::new(&question)).unwrap();
    assert_eq!(warm.endpoint_stats.total_requests, stats.total_requests);
}

#[test]
fn responses_report_per_stage_artifacts_through_the_public_api() {
    let kg = PeopleKg {
        couples: vec![(1, 0)],
        typed: vec![true],
    };
    let service = service(&kg, true);
    let question = kg.questions()[0].clone();
    // A request's cache activity is the difference of two report reads.
    let cache = || service.cache_report().total();

    let cold = service.answer(AnswerRequest::new(&question)).unwrap();
    let after_cold = cache();
    assert!(!cold.trace.understanding.pgp.is_empty());
    assert!(cold.trace.linked.completed);
    assert!(!cold.trace.linked.candidates.is_empty());
    assert!(!cold.trace.execution.query_stats.is_empty());
    assert_eq!(cold.trace.filtered.answers, cold.answers());
    assert!(after_cold.misses > 0);
    assert_eq!(after_cold.hits, 0);

    let warm = service.answer(AnswerRequest::new(&question)).unwrap();
    let warm_delta = cache().since(&after_cold);
    assert!(warm_delta.hits > 0);
    assert_eq!(warm_delta.misses, 0);
    assert_eq!(warm.answers(), cold.answers());
    // The report is the one place hits are counted: its total is the one
    // namespace's.
    assert_eq!(
        cache().hits,
        service.cache_report().kg("People").unwrap().hits
    );
}

/// Three vertices whose labels all hold "Barack Obama", each with a
/// spouse: one vertex probe, three candidates for a wide node.
fn obamas() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let spouse = Term::iri("http://example.org/ontology/spouse");
    for (i, name) in [
        "Barack Obama",
        "Barack Obama Sr.",
        "Barack Obama Presidential Center",
    ]
    .into_iter()
    .enumerate()
    {
        let vertex = person_iri(name);
        let partner = person_iri(&format!("Partner {i}"));
        store.insert_all([
            Triple::new(vertex.clone(), label.clone(), Term::literal_str(name)),
            Triple::new(vertex, spouse.clone(), partner),
        ]);
    }
    store
}

/// What a response linked and answered: its AGP's vertex and predicate
/// annotations, and its answers.
fn linked(
    response: &AnswerResponse,
) -> (&[Vec<RelevantVertex>], &[Vec<RelevantPredicate>], Vec<Term>) {
    let agp = &response.trace.linked.agp;
    (
        &agp.node_annotations,
        &agp.edge_annotations,
        response.answers().to_vec(),
    )
}

#[test]
fn a_num_vertices_override_alternating_on_one_cached_probe_links_as_uncached() {
    let service = |cached: bool| {
        let builder = QaService::builder()
            .shared_understanding(understanding())
            .endpoint(Arc::new(InProcessEndpoint::new("People", obamas())));
        let builder = if cached { builder } else { builder.no_cache() };
        builder.build().unwrap()
    };
    let (cached, uncached) = (service(true), service(false));
    let width = |num_vertices| ConfigOverrides {
        linker: Some(LinkerConfig {
            num_vertices,
            ..Default::default()
        }),
        ..ConfigOverrides::none()
    };
    let question = "Who is the wife of Barack Obama?";
    for round in 0..3 {
        for num_vertices in [1, 3] {
            let request = AnswerRequest::new(question).with_overrides(width(num_vertices));
            let through_cache = cached.answer(request.clone()).unwrap();
            let alone = uncached.answer(request).unwrap();
            assert_eq!(
                linked(&through_cache),
                linked(&alone),
                "num_vertices {num_vertices}, round {round}"
            );
            let widest = alone.trace.linked.agp.node_annotations.iter().map(Vec::len);
            assert_eq!(widest.max(), Some(num_vertices));
        }
    }
    // The repeats were served from the one namespace, which never filled.
    let stats = cached.cache_report().total();
    assert!(stats.hits > 0);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn two_models_over_one_registry_each_answer_as_they_do_alone() {
    let kg = PeopleKg {
        couples: vec![(1, 0), (1, 2), (3, 1)],
        typed: vec![true, false, true],
    };
    let fine = KgqanConfig::default();
    let coarse = KgqanConfig {
        affinity: AffinityModel::CoarseGrained,
        ..KgqanConfig::default()
    };
    let registry = |store: Store| {
        let mut registry = EndpointRegistry::with_cache(CacheConfig::default());
        registry.register(Arc::new(InProcessEndpoint::new("People", store)));
        registry
    };
    let service = |config: KgqanConfig, registry: EndpointRegistry| {
        QaService::builder()
            .shared_understanding(understanding())
            .config(config)
            .registry(registry)
            .build()
            .unwrap()
    };
    let shared = registry(kg.store());
    let pairs = [
        (
            service(fine, shared.clone()),
            service(fine, registry(kg.store())),
        ),
        (
            service(coarse, shared.clone()),
            service(coarse, registry(kg.store())),
        ),
    ];
    for round in 0..2 {
        for question in kg.questions() {
            for (sharing, alone) in &pairs {
                let request = AnswerRequest::new(&question);
                match (sharing.answer(request.clone()), alone.answer(request)) {
                    (Ok(sharing), Ok(alone)) => assert_eq!(
                        linked(&sharing),
                        linked(&alone),
                        "{question:?}, round {round}"
                    ),
                    (sharing, alone) => assert_eq!(
                        sharing
                            .map(|r| r.answers().to_vec())
                            .map_err(|e| e.to_string()),
                        alone
                            .map(|r| r.answers().to_vec())
                            .map_err(|e| e.to_string()),
                    ),
                }
            }
        }
    }
    // The two models did meet in one namespace.
    let namespace = shared.cache_of("People").unwrap().stats();
    let (fine_alone, coarse_alone) = (&pairs[0].1, &pairs[1].1);
    let alone_misses =
        fine_alone.cache_report().total().misses + coarse_alone.cache_report().total().misses;
    assert!(namespace.misses < alone_misses);
}
