//! A behaviour model of **gAnswer** \[27, 64].
//!
//! gAnswer understands questions with curated dependency-parse rules (tuned
//! on QALD-9), links entities through an inverted index built from the *URI
//! text* of the KG's vertices, links relations through a pre-built relation
//! dictionary, generates a SPARQL query from its semantic query graph and
//! returns the answers without post-filtering (Table 1).
//!
//! The two properties that drive its behaviour in the paper's experiments
//! are modelled faithfully:
//!
//! * the **pre-processing phase** scans the entire KG and its cost grows
//!   with KG size (Table 2),
//! * the entity index is keyed by **URI tokens**, so KGs whose entity URIs
//!   are opaque numeric identifiers (MAG, most of DBLP) are effectively
//!   unlinkable — gAnswer answers zero MAG questions (§7.2.3).

use std::collections::HashMap;
use std::time::Instant;

use kgqan_endpoint::SparqlEndpoint;
use kgqan_nlp::embedding::stem;
use kgqan_nlp::synonyms::same_group;
use kgqan_rdf::term::{local_name_words, split_identifier_words};
use kgqan_rdf::Term;

use crate::rules::parse_with_rules;
use crate::{PreprocessingStats, QaSystem, SystemResponse};

/// The gAnswer behaviour model.
#[derive(Debug, Default)]
pub struct GAnswerSystem {
    /// URI-token → vertices inverted index (built in pre-processing).
    entity_index: HashMap<String, Vec<Term>>,
    /// Relation-mention → predicates dictionary.
    relation_dict: HashMap<String, Vec<Term>>,
    preprocessed: bool,
}

impl GAnswerSystem {
    /// Create an un-preprocessed gAnswer instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up candidate vertices for an entity phrase in the URI-token
    /// index: candidates must match every token of the phrase.
    pub fn link_entity(&self, phrase: &str) -> Option<Term> {
        let tokens: Vec<String> = phrase
            .split_whitespace()
            .map(|w| w.to_lowercase())
            .collect();
        let mut counts: HashMap<&Term, usize> = HashMap::new();
        for token in &tokens {
            if let Some(vertices) = self.entity_index.get(token) {
                for v in vertices {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
        }
        counts
            .into_iter()
            .filter(|(_, c)| *c == tokens.len())
            .map(|(v, _)| v.clone())
            .min_by_key(|v| v.as_iri().map(str::len).unwrap_or(usize::MAX))
    }

    /// Look up candidate predicates for a relation phrase in the relation
    /// dictionary (exact word, stem, or predefined-synonym match).
    pub fn link_relation(&self, phrase: &str) -> Vec<Term> {
        let mut candidates = Vec::new();
        for word in phrase.split_whitespace() {
            let lower = word.to_lowercase();
            let word_stem = stem(&lower);
            for (mention, predicates) in &self.relation_dict {
                let matches = mention == &lower
                    || mention == word_stem
                    || stem(mention) == word_stem
                    || same_group(mention, &lower);
                if matches {
                    for p in predicates {
                        if !candidates.contains(p) {
                            candidates.push(p.clone());
                        }
                    }
                }
            }
        }
        candidates
    }
}

impl QaSystem for GAnswerSystem {
    fn name(&self) -> &str {
        "gAnswer"
    }

    fn preprocess(&mut self, endpoint: &dyn SparqlEndpoint) -> PreprocessingStats {
        let start = Instant::now();
        self.entity_index.clear();
        self.relation_dict.clear();

        // gAnswer's offline phase consumes the KG dump; here: a full scan
        // through the public endpoint.
        let Ok(results) = endpoint.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }") else {
            return PreprocessingStats::default();
        };
        let mut indexed_items = 0usize;
        for row in results.rows() {
            for var in ["s", "o"] {
                if let Some(term @ Term::Iri(iri)) = row.get(var) {
                    for token in split_identifier_words(kgqan_rdf::term::local_name(iri)) {
                        // Only alphabetic tokens are useful mentions; numeric
                        // URI fragments never match question words, which is
                        // exactly gAnswer's blind spot on MAG.
                        let entry = self.entity_index.entry(token).or_default();
                        if !entry.contains(term) {
                            entry.push(term.clone());
                            indexed_items += 1;
                        }
                    }
                }
            }
            if let Some(p @ Term::Iri(iri)) = row.get("p") {
                let mention = local_name_words(iri);
                for word in mention.split_whitespace() {
                    let entry = self.relation_dict.entry(word.to_string()).or_default();
                    if !entry.contains(p) {
                        entry.push(p.clone());
                        indexed_items += 1;
                    }
                }
            }
        }
        self.preprocessed = true;

        let index_bytes: usize = self
            .entity_index
            .iter()
            .map(|(k, v)| k.len() + v.len() * 48 + 32)
            .sum::<usize>()
            + self
                .relation_dict
                .iter()
                .map(|(k, v)| k.len() + v.len() * 48 + 32)
                .sum::<usize>();

        PreprocessingStats {
            duration: start.elapsed(),
            index_bytes,
            indexed_items,
        }
    }

    fn answer(&self, question: &str, endpoint: &dyn SparqlEndpoint) -> SystemResponse {
        // Question understanding: curated rules.
        let qu_start = Instant::now();
        let parse = parse_with_rules(question, 6);
        let qu_time = qu_start.elapsed().as_secs_f64();

        if !parse.is_usable() || !self.preprocessed {
            return SystemResponse {
                understanding_ok: false,
                phase_seconds: (qu_time, 0.0, 0.0),
                ..Default::default()
            };
        }

        // Linking: inverted-index lookups.
        let link_start = Instant::now();
        let linked_entities: Vec<Term> = parse
            .entities
            .iter()
            .filter_map(|e| self.link_entity(e))
            .collect();
        let predicates = parse
            .relation
            .as_deref()
            .map(|r| self.link_relation(r))
            .unwrap_or_default();
        let link_time = link_start.elapsed().as_secs_f64();

        if linked_entities.is_empty() {
            return SystemResponse {
                understanding_ok: true,
                phase_seconds: (qu_time, link_time, 0.0),
                ..Default::default()
            };
        }

        // Execution: no filtering (Table 1).
        let exec_start = Instant::now();
        let mut response = SystemResponse {
            understanding_ok: true,
            ..Default::default()
        };

        if parse.boolean && linked_entities.len() >= 2 {
            let (a, b) = (&linked_entities[0], &linked_entities[1]);
            let mut verdict = false;
            for p in predicates.iter().take(5) {
                for (s, o) in [(a, b), (b, a)] {
                    let ask = format!("ASK {{ {s} {p} {o} }}");
                    if let Ok(result) = endpoint.query(&ask) {
                        if result.as_boolean() == Some(true) {
                            verdict = true;
                        }
                    }
                }
            }
            response.boolean = Some(verdict);
        } else {
            let entity = &linked_entities[0];
            'outer: for p in predicates.iter().take(5) {
                for pattern in [
                    format!("SELECT ?u WHERE {{ ?u {p} {entity} . }}"),
                    format!("SELECT ?u WHERE {{ {entity} {p} ?u . }}"),
                ] {
                    if let Ok(result) = endpoint.query(&pattern) {
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
    fn preprocessing_builds_nonempty_indices_on_dbpedia() {
        let (_, ep) = dbpedia();
        let mut sys = GAnswerSystem::new();
        let stats = sys.preprocess(&ep);
        assert!(stats.indexed_items > 0);
        assert!(stats.index_bytes > 0);
        assert!(stats.duration.as_nanos() > 0);
    }

    #[test]
    fn answers_simple_qald_style_question_on_dbpedia() {
        let (kg, ep) = dbpedia();
        let mut sys = GAnswerSystem::new();
        sys.preprocess(&ep);
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

    #[test]
    fn fails_to_link_on_mag_due_to_opaque_uris() {
        let kg = GeneratedKg::generate(KgFlavor::Mag, KgScale::tiny());
        let ep = InProcessEndpoint::new("MAG", kg.store.clone());
        let mut sys = GAnswerSystem::new();
        sys.preprocess(&ep);
        let author = &kg.facts.authors[0];
        let response = sys.answer(
            &format!("What is the primary affiliation of {}?", author.name),
            &ep,
        );
        // Understanding succeeds (the name is a capitalised span), but the
        // URI-token index cannot find the opaque entity ⇒ no answers.
        assert!(response.answers.is_empty());
    }

    #[test]
    fn unpreprocessed_system_answers_nothing() {
        let (_, ep) = dbpedia();
        let sys = GAnswerSystem::new();
        let response = sys.answer("Who is the spouse of James Smith?", &ep);
        assert!(response.answers.is_empty());
        assert!(!response.understanding_ok);
    }

    #[test]
    fn boolean_questions_get_a_verdict() {
        let (kg, ep) = dbpedia();
        let mut sys = GAnswerSystem::new();
        sys.preprocess(&ep);
        let country = &kg.facts.countries[0];
        let capital = &kg.facts.cities[country.capital];
        let response = sys.answer(
            &format!("Is {} the capital of {}?", capital.name, country.name),
            &ep,
        );
        assert_eq!(response.boolean, Some(true));
    }
}
