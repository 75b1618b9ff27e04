//! A behaviour model of **EDGQA** \[28].
//!
//! EDGQA decomposes a question into an *entity description graph* with
//! constituency-parse rules tuned to the LC-QuAD 1.0 templates, links
//! entities with an ensemble of pre-built indexing systems (Falcon, EARL,
//! Dexter — here a Falcon-like label n-gram index), ranks relations among
//! the predicates of the linked entities, and filters *in the query* through
//! an `rdf:type` constraint derived from the question's type word (Table 1).
//!
//! Modelled failure modes (they drive Tables 2–3 and Figures 8–9):
//!
//! * pre-processing must index every description literal of the KG, and the
//!   right description predicate must be configured per KG
//!   ([`EdgqaSystem::with_label_predicate`], the manual step §7.2.1 mentions
//!   for MAG),
//! * the decomposition rules truncate entity phrases at three tokens, so
//!   long entities — paper titles — are extracted only partially and either
//!   mis-link or fail to link (the DBLP/MAG collapse of §7.2.3).

use std::collections::HashMap;
use std::time::Instant;

use kgqan_endpoint::SparqlEndpoint;
use kgqan_nlp::embedding::stem;
use kgqan_nlp::synonyms::same_group;
use kgqan_rdf::term::local_name_words;
use kgqan_rdf::{vocab, Term};

use crate::rules::parse_with_rules;
use crate::{PreprocessingStats, QaSystem, SystemResponse};

/// The EDGQA behaviour model.
#[derive(Debug)]
pub struct EdgqaSystem {
    /// The description predicate Falcon indexes (`rdfs:label` by default;
    /// must be configured manually for KGs that use something else).
    label_predicate: String,
    /// Label-token → vertices index (the Falcon-like index).
    label_index: HashMap<String, Vec<Term>>,
    /// Token count of each indexed vertex's label (Falcon matches a mention
    /// against the *whole* surface form, so a short fragment of a long label
    /// is not an acceptable match).
    label_lengths: HashMap<Term, usize>,
    /// Known classes, keyed by their lowercase local name (for the in-query
    /// type filter).
    classes: HashMap<String, Term>,
    /// Maximum entity-phrase length the decomposition rules can produce.
    max_entity_span: usize,
    preprocessed: bool,
}

impl Default for EdgqaSystem {
    fn default() -> Self {
        EdgqaSystem {
            label_predicate: vocab::RDFS_LABEL.to_string(),
            label_index: HashMap::new(),
            label_lengths: HashMap::new(),
            classes: HashMap::new(),
            max_entity_span: 3,
            preprocessed: false,
        }
    }
}

impl EdgqaSystem {
    /// Create an EDGQA instance with the default (`rdfs:label`) indexing
    /// predicate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configure the description predicate to index — the manual,
    /// KG-specific customisation step the paper performs for MAG.
    pub fn with_label_predicate(mut self, predicate: impl Into<String>) -> Self {
        self.label_predicate = predicate.into();
        self
    }

    /// Conjunctive lookup of an entity phrase in the label index.
    pub fn link_entity(&self, phrase: &str) -> Option<Term> {
        let tokens: Vec<String> = phrase
            .split_whitespace()
            .map(|w| w.to_lowercase())
            .collect();
        if tokens.is_empty() {
            return None;
        }
        let mut counts: HashMap<&Term, usize> = HashMap::new();
        for token in &tokens {
            if let Some(vertices) = self.label_index.get(token) {
                for v in vertices {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
        }
        // All tokens must match (Falcon's n-gram search), the mention must
        // cover the whole surface form (a 3-token fragment of a 7-token
        // paper title is not an acceptable match), and among the survivors
        // prefer the vertex whose label is shortest.
        counts
            .into_iter()
            .filter(|(v, c)| {
                *c == tokens.len()
                    && self
                        .label_lengths
                        .get(*v)
                        .map(|len| *len <= tokens.len() + 1)
                        .unwrap_or(false)
            })
            .map(|(v, _)| v.clone())
            .min_by_key(|v| v.as_iri().map(str::len).unwrap_or(usize::MAX))
    }

    /// Rank the predicates around a linked vertex by lexical overlap with
    /// the relation phrase (the BERT re-ranker stand-in).
    pub fn link_relation(
        &self,
        relation: &str,
        vertex: &Term,
        endpoint: &dyn SparqlEndpoint,
    ) -> Vec<Term> {
        let mut candidates: Vec<(Term, usize)> = Vec::new();
        for query in [
            format!("SELECT DISTINCT ?p WHERE {{ {vertex} ?p ?o . }}"),
            format!("SELECT DISTINCT ?p WHERE {{ ?s ?p {vertex} . }}"),
        ] {
            let Ok(results) = endpoint.query(&query) else {
                continue;
            };
            for row in results.rows() {
                let Some(p @ Term::Iri(iri)) = row.get("p") else {
                    continue;
                };
                let description = local_name_words(iri);
                let overlap = relation
                    .split_whitespace()
                    .filter(|w| {
                        let w = w.to_lowercase();
                        description
                            .split_whitespace()
                            .any(|d| d == w || stem(d) == stem(&w) || same_group(d, &w))
                    })
                    .count();
                if overlap > 0 && !candidates.iter().any(|(c, _)| c == p) {
                    candidates.push((p.clone(), overlap));
                }
            }
        }
        candidates.sort_by_key(|(_, overlap)| std::cmp::Reverse(*overlap));
        candidates.into_iter().map(|(p, _)| p).collect()
    }
}

impl QaSystem for EdgqaSystem {
    fn name(&self) -> &str {
        "EDGQA"
    }

    fn preprocess(&mut self, endpoint: &dyn SparqlEndpoint) -> PreprocessingStats {
        let start = Instant::now();
        self.label_index.clear();
        self.label_lengths.clear();
        self.classes.clear();

        // Falcon scans every (vertex, description) pair of the configured
        // label predicate and builds n-gram postings; EARL and Dexter add
        // their own passes, which we model as extra tokenisation work over
        // the same literals (the ensemble is why EDGQA's pre-processing is
        // the slowest column of Table 2).
        let query = format!(
            "SELECT ?v ?d WHERE {{ ?v <{}> ?d . }}",
            self.label_predicate
        );
        let mut indexed_items = 0usize;
        if let Ok(results) = endpoint.query(&query) {
            for row in results.rows() {
                let (Some(v), Some(Term::Literal(lit))) = (row.get("v"), row.get("d")) else {
                    continue;
                };
                // Three ensemble passes over the tokens (Falcon, EARL, Dexter).
                let tokens = kgqan_rdf::text::tokenize(&lit.lexical);
                self.label_lengths.insert(v.clone(), tokens.len());
                for _pass in 0..3 {
                    for token in &tokens {
                        let entry = self.label_index.entry(token.clone()).or_default();
                        if !entry.contains(v) {
                            entry.push(v.clone());
                            indexed_items += 1;
                        }
                    }
                }
            }
        }

        // Class inventory for the in-query type filter.
        if let Ok(results) = endpoint.query(&format!(
            "SELECT DISTINCT ?c WHERE {{ ?s <{}> ?c . }}",
            vocab::RDF_TYPE
        )) {
            for row in results.rows() {
                if let Some(c @ Term::Iri(iri)) = row.get("c") {
                    self.classes.insert(local_name_words(iri), c.clone());
                    indexed_items += 1;
                }
            }
        }
        self.preprocessed = true;

        let index_bytes: usize = self
            .label_index
            .iter()
            .map(|(k, v)| k.len() + v.len() * 48 + 32)
            .sum::<usize>()
            + self.classes.len() * 64;

        PreprocessingStats {
            duration: start.elapsed(),
            index_bytes,
            indexed_items,
        }
    }

    fn answer(&self, question: &str, endpoint: &dyn SparqlEndpoint) -> SystemResponse {
        // Question understanding: constituency-style decomposition rules.
        let qu_start = Instant::now();
        let parse = parse_with_rules(question, self.max_entity_span);
        let qu_time = qu_start.elapsed().as_secs_f64();

        if !parse.is_usable() || !self.preprocessed {
            return SystemResponse {
                understanding_ok: false,
                phase_seconds: (qu_time, 0.0, 0.0),
                ..Default::default()
            };
        }

        // Linking.
        let link_start = Instant::now();
        let linked: Vec<(String, Term)> = parse
            .entities
            .iter()
            .filter_map(|e| self.link_entity(e).map(|v| (e.clone(), v)))
            .collect();
        let relation_candidates: Vec<Term> = match (&parse.relation, linked.first()) {
            (Some(relation), Some((_, vertex))) => self.link_relation(relation, vertex, endpoint),
            _ => Vec::new(),
        };
        let link_time = link_start.elapsed().as_secs_f64();

        if linked.is_empty() {
            return SystemResponse {
                understanding_ok: true,
                phase_seconds: (qu_time, link_time, 0.0),
                ..Default::default()
            };
        }

        // Execution with the in-query type filter.
        let exec_start = Instant::now();
        let mut response = SystemResponse {
            understanding_ok: true,
            ..Default::default()
        };

        if parse.boolean && linked.len() >= 2 {
            let (a, b) = (&linked[0].1, &linked[1].1);
            let mut verdict = false;
            for p in relation_candidates.iter().take(3) {
                for (s, o) in [(a, b), (b, a)] {
                    if let Ok(result) = endpoint.query(&format!("ASK {{ {s} {p} {o} }}")) {
                        if result.as_boolean() == Some(true) {
                            verdict = true;
                        }
                    }
                }
            }
            response.boolean = Some(verdict);
        } else {
            let entity = &linked[0].1;
            let type_constraint = parse
                .type_word
                .as_deref()
                .and_then(|t| self.classes.get(t))
                .map(|class| format!("?u <{}> {class} . ", vocab::RDF_TYPE))
                .unwrap_or_default();
            'outer: for p in relation_candidates.iter().take(3) {
                for body in [
                    format!("?u {p} {entity} . {type_constraint}"),
                    format!("{entity} {p} ?u . {type_constraint}"),
                ] {
                    let sparql = format!("SELECT DISTINCT ?u WHERE {{ {body} }}");
                    if let Ok(result) = endpoint.query(&sparql) {
                        if let Some(solutions) = result.as_solutions() {
                            if !solutions.is_empty() {
                                response.answers = solutions.column("u");
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        let exec_time = exec_start.elapsed().as_secs_f64();
        response.phase_seconds = (qu_time, link_time, exec_time);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
    use kgqan_endpoint::InProcessEndpoint;

    fn dbpedia() -> (GeneratedKg, InProcessEndpoint) {
        let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
        let ep = InProcessEndpoint::new("DBpedia", kg.store.clone());
        (kg, ep)
    }

    #[test]
    fn preprocessing_indexes_labels_and_classes() {
        let (_, ep) = dbpedia();
        let mut sys = EdgqaSystem::new();
        let stats = sys.preprocess(&ep);
        assert!(stats.indexed_items > 0);
        assert!(stats.index_bytes > 0);
        assert!(!sys.classes.is_empty());
    }

    #[test]
    fn answers_simple_question_on_dbpedia() {
        let (kg, ep) = dbpedia();
        let mut sys = EdgqaSystem::new();
        sys.preprocess(&ep);
        let country = &kg.facts.countries[3];
        let capital = &kg.facts.cities[country.capital];
        let response = sys.answer(&format!("What is the capital of {}?", country.name), &ep);
        assert!(response.understanding_ok);
        assert!(
            response.answers.contains(&capital.iri),
            "expected {:?} in {:?}",
            capital.iri,
            response.answers
        );
    }

    #[test]
    fn type_filter_is_applied_for_which_questions() {
        let (kg, ep) = dbpedia();
        let mut sys = EdgqaSystem::new();
        sys.preprocess(&ep);
        let country = &kg.facts.countries[5];
        let capital = &kg.facts.cities[country.capital];
        let response = sys.answer(
            &format!("Which city is the capital of {}?", country.name),
            &ep,
        );
        assert!(response.answers.contains(&capital.iri));
    }

    #[test]
    fn long_paper_titles_defeat_the_decomposition_rules_for_most_questions() {
        let kg = GeneratedKg::generate(KgFlavor::Dblp, KgScale::tiny());
        let ep = InProcessEndpoint::new("DBLP", kg.store.clone());
        let mut sys = EdgqaSystem::new();
        sys.preprocess(&ep);
        // Because the decomposition rules fragment long titles, the linked
        // vertex is usually the wrong paper (or none), so the gold author is
        // missed for the clear majority of title questions.
        let mut solved = 0usize;
        let sample = 12;
        for paper in kg.facts.papers.iter().skip(20).take(sample) {
            let gold_authors: Vec<_> = paper
                .authors
                .iter()
                .map(|&a| kg.facts.authors[a].iri.clone())
                .collect();
            let response = sys.answer(&format!("Who is the author of {}?", paper.title), &ep);
            if response.answers.iter().any(|a| gold_authors.contains(a)) {
                solved += 1;
            }
        }
        assert!(
            solved <= sample / 2,
            "EDGQA should miss most long-title questions, solved {solved}/{sample}"
        );
    }

    #[test]
    fn mag_requires_label_predicate_configuration() {
        let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::tiny());
        let ep = InProcessEndpoint::new("MAG", kg.store.clone());

        // Default configuration indexes rdfs:label — MAG has none.
        let mut default_sys = EdgqaSystem::new();
        let default_stats = default_sys.preprocess(&ep);
        assert_eq!(
            default_sys.label_index.len(),
            0,
            "default EDGQA finds nothing to index on MAG"
        );

        // With the manual customisation it indexes foaf:name.
        let mut configured = EdgqaSystem::new().with_label_predicate(vocab::FOAF_NAME);
        let configured_stats = configured.preprocess(&ep);
        assert!(configured_stats.indexed_items > default_stats.indexed_items);
        assert!(!configured.label_index.is_empty());
    }

    #[test]
    fn boolean_questions_get_a_verdict() {
        let (kg, ep) = dbpedia();
        let mut sys = EdgqaSystem::new();
        sys.preprocess(&ep);
        let country = &kg.facts.countries[1];
        let wrong_city = &kg.facts.cities[(country.capital + 1) % kg.facts.cities.len()];
        let response = sys.answer(
            &format!("Is {} the capital of {}?", wrong_city.name, country.name),
            &ep,
        );
        assert_eq!(response.boolean, Some(false));
    }
}
