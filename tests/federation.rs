//! Federation-level integration tests: the fan-out + merge layer must be
//! semantically equivalent to answering against the union of the federated
//! stores (modulo provenance), and its failure modes must degrade per KG
//! instead of failing whole.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use kgqan::understanding::QuestionUnderstanding;
use kgqan::{AnswerRequest, QaService};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_federate::{FederatedEndpoint, FederatedRequest, KgStatus};
use kgqan_rdf::{vocab, Store, Term, Triple};
use proptest::prelude::*;

const QUESTION: &str = "Who is the wife of Barack Obama?";
const OBAMA: &str = "http://dbpedia.org/resource/Barack_Obama";
const SPOUSE: &str = "http://dbpedia.org/ontology/spouse";

/// One trained model for every proptest case: training is deterministic,
/// so sharing it only saves time, not coverage.
fn understanding() -> Arc<QuestionUnderstanding> {
    static MODEL: OnceLock<Arc<QuestionUnderstanding>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(QuestionUnderstanding::train_default())))
}

/// A store holding the Barack Obama entity plus the given spouse pairs.
fn store_with_pairs(pairs: &[usize]) -> Store {
    let mut store = Store::new();
    let obama = Term::iri(OBAMA);
    store.insert(Triple::new(
        obama.clone(),
        Term::iri(vocab::RDFS_LABEL),
        Term::literal_str("Barack Obama"),
    ));
    for &k in pairs {
        let value = Term::iri(format!("http://dbpedia.org/resource/Spouse_{k}"));
        store.insert(Triple::new(
            value.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str(format!("Spouse {k}")),
        ));
        store.insert(Triple::new(obama.clone(), Term::iri(SPOUSE), value));
    }
    store
}

fn service_over(endpoints: Vec<InProcessEndpoint>) -> QaService {
    let mut builder = QaService::builder().shared_understanding(understanding());
    for endpoint in endpoints {
        builder = builder.endpoint(Arc::new(endpoint));
    }
    builder.build().unwrap()
}

proptest! {
    /// Splitting one KG's triples across two federated KGs and merging the
    /// answers yields the same answer *set* as asking the union store
    /// directly — federation changes provenance, never semantics.
    #[test]
    fn federated_merge_equals_union_store(assignment in prop::collection::vec(0usize..2, 1..6)) {
        // Pin one pair to each side so both KGs actually contain the
        // relation: a KG with no spouse edge at all answers with a label
        // fallback, which is a pipeline property, not a merge property.
        let n = assignment.len();
        let everything: Vec<usize> = (0..n + 2).collect();
        let mut left: Vec<usize> = vec![n];
        let mut right: Vec<usize> = vec![n + 1];
        for (k, side) in assignment.iter().enumerate() {
            if *side == 0 {
                left.push(k);
            } else {
                right.push(k);
            }
        }

        let federated = FederatedEndpoint::new(service_over(vec![
            InProcessEndpoint::new("Left", store_with_pairs(&left)),
            InProcessEndpoint::new("Right", store_with_pairs(&right)),
        ]));
        let union = service_over(vec![InProcessEndpoint::new(
            "Union",
            store_with_pairs(&everything),
        )]);

        let merged = federated.ask(FederatedRequest::new(QUESTION)).unwrap();
        let direct = union
            .answer(AnswerRequest::new(QUESTION).on_kg("Union"))
            .unwrap();

        let merged_terms: BTreeSet<String> = merged
            .answers
            .iter()
            .map(|a| a.term.to_string())
            .collect();
        let direct_terms: BTreeSet<String> = direct.answers()
            .iter()
            .map(|t| t.to_string())
            .collect();
        prop_assert!(
            merged_terms == direct_terms,
            "left={:?} right={:?}: merged {:?} != union {:?}",
            left, right, merged_terms, direct_terms
        );

        // Every merged answer's provenance points at a KG that actually
        // holds the pair.
        for answer in &merged.answers {
            for kg in &answer.kgs {
                prop_assert!(kg == "Left" || kg == "Right");
            }
        }
    }
}

#[test]
fn federated_answers_carry_disjoint_provenance() {
    // Disjoint pairs: each merged answer must name exactly the one KG that
    // holds it, and together they must cover the union.
    let federated = FederatedEndpoint::new(service_over(vec![
        InProcessEndpoint::new("Left", store_with_pairs(&[0])),
        InProcessEndpoint::new("Right", store_with_pairs(&[1])),
    ]));
    let response = federated.ask(FederatedRequest::new(QUESTION)).unwrap();

    assert_eq!(response.answers.len(), 2);
    for answer in &response.answers {
        let iri = answer.term.as_iri().unwrap();
        let expected = if iri.ends_with("Spouse_0") {
            "Left"
        } else {
            "Right"
        };
        assert_eq!(answer.kgs, vec![expected.to_string()], "answer {iri}");
    }
    assert_eq!(response.sources.len(), 2);
}

#[test]
fn whole_federation_timeout_is_partial_with_reports_not_an_error() {
    let federated = FederatedEndpoint::new(service_over(vec![
        InProcessEndpoint::new("SlowA", store_with_pairs(&[0]))
            .with_latency(Duration::from_millis(90)),
        InProcessEndpoint::new("SlowB", store_with_pairs(&[1]))
            .with_latency(Duration::from_millis(90)),
    ]));
    let response = federated
        .ask(FederatedRequest::new(QUESTION).with_deadline(Duration::from_millis(60)))
        .unwrap();

    assert!(response.is_partial());
    assert_eq!(response.reports.len(), 2);
    assert!(response
        .reports
        .iter()
        .all(|r| r.status == KgStatus::Partial));
}
