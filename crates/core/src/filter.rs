//! Phase 3b: post-filtration of collected answers (Section 6).
//!
//! KGQAn improves precision *after* execution, at its own site, using only
//! the predicted answer type — no KG-specific prior knowledge:
//!
//! * **date / numeric / boolean** answers are kept only if the literal's
//!   datatype (or lexical shape) matches,
//! * **string** answers are kept if the class reported by the OPTIONAL
//!   `rdf:type` clause is semantically close to the predicted semantic type
//!   ("sea" vs `dbo:Sea`), or if the KG reports no class at all (filtering
//!   must not destroy recall on type-less KGs).

use std::collections::HashSet;

use kgqan_nlp::{AnswerDataType, AnswerTypePrediction};
use kgqan_rdf::Term;

use crate::affinity::SemanticAffinity;
use crate::execution::CollectedAnswer;

/// Minimum affinity between the predicted semantic type and the answer's
/// class for the answer to be kept.
const SEMANTIC_THRESHOLD: f32 = 0.45;

/// Filter collected answers according to the predicted answer type and
/// return the surviving answer terms, preserving rank order.
pub(crate) fn filter_answers(
    affinity: &dyn SemanticAffinity,
    answers: &[CollectedAnswer],
    prediction: &AnswerTypePrediction,
) -> Vec<Term> {
    // Order-preserving hash-set dedup: `Vec::contains` would rescan the
    // kept list per candidate (quadratic on answer-heavy KGs).
    let mut seen = HashSet::new();
    let mut kept = Vec::new();
    for candidate in answers {
        if keeps(affinity, candidate, prediction) && seen.insert(&candidate.answer) {
            kept.push(candidate.answer.clone());
        }
    }
    kept
}

/// Decide whether a single answer survives filtration.
fn keeps(
    affinity: &dyn SemanticAffinity,
    candidate: &CollectedAnswer,
    prediction: &AnswerTypePrediction,
) -> bool {
    match prediction.data_type {
        AnswerDataType::Boolean => true, // booleans are settled by ASK, not here
        AnswerDataType::Date => is_date_like(&candidate.answer),
        AnswerDataType::Numeric => is_numeric_like(&candidate.answer),
        AnswerDataType::String => matches_semantic_type(affinity, candidate, prediction),
    }
}

fn is_date_like(term: &Term) -> bool {
    match term.as_literal() {
        Some(lit) if lit.is_date() => true,
        Some(lit) => {
            // Plain literals shaped like a year or an ISO date also pass.
            let text = lit.lexical.trim();
            let year = text.len() == 4 && text.chars().all(|c| c.is_ascii_digit());
            let iso = text.len() == 10
                && text.chars().enumerate().all(|(i, c)| {
                    if i == 4 || i == 7 {
                        c == '-'
                    } else {
                        c.is_ascii_digit()
                    }
                });
            year || iso
        }
        None => false,
    }
}

fn is_numeric_like(term: &Term) -> bool {
    match term.as_literal() {
        Some(lit) if lit.is_numeric() => true,
        Some(lit) => lit.lexical.trim().parse::<f64>().is_ok(),
        None => false,
    }
}

fn matches_semantic_type(
    affinity: &dyn SemanticAffinity,
    candidate: &CollectedAnswer,
    prediction: &AnswerTypePrediction,
) -> bool {
    // String answers that are literals of the wrong kind are rejected;
    // IRIs and string literals proceed to the semantic check.
    if let Some(lit) = candidate.answer.as_literal() {
        if lit.is_numeric() || lit.is_boolean() {
            return false;
        }
    }
    let Some(expected) = prediction.semantic_type.as_deref() else {
        return true; // nothing to check against
    };
    if candidate.classes.is_empty() {
        return true; // the KG offers no class information: keep (recall)
    }
    // One batch per alias: the alias is embedded once for all classes.
    let descriptions: Vec<_> = candidate.classes.iter().map(Term::readable_form).collect();
    let descriptions: Vec<&str> = descriptions.iter().map(|d| d.as_ref()).collect();
    semantic_type_aliases(expected).iter().any(|alias| {
        affinity
            .score_many(alias, &descriptions)
            .iter()
            .any(|score| *score >= SEMANTIC_THRESHOLD)
    })
}

/// Generalisations of a predicted semantic type, used when comparing it to a
/// KG class: "wife" answers are `Person`s, "capital" answers are `Place`s.
/// This is plain English world knowledge (a miniature hypernym table), not
/// knowledge about any particular KG.
fn semantic_type_aliases(expected: &str) -> Vec<String> {
    const PERSON_ROLES: &[&str] = &[
        "wife",
        "husband",
        "spouse",
        "mother",
        "father",
        "child",
        "son",
        "daughter",
        "author",
        "writer",
        "director",
        "mayor",
        "president",
        "leader",
        "founder",
        "scientist",
        "actor",
        "actress",
        "politician",
        "winner",
        "player",
        "painter",
        "composer",
        "architect",
        "astronaut",
        "person",
        "people",
        "advisor",
        "supervisor",
        "coauthor",
    ];
    const PLACE_WORDS: &[&str] = &[
        "capital",
        "city",
        "country",
        "place",
        "location",
        "town",
        "birthplace",
        "headquarters",
        "river",
        "sea",
        "lake",
        "mountain",
        "state",
        "region",
        "continent",
    ];
    const ORG_WORDS: &[&str] = &[
        "company",
        "university",
        "organisation",
        "organization",
        "institution",
        "team",
        "club",
        "band",
        "employer",
        "school",
        "conference",
        "venue",
        "journal",
        "publisher",
    ];
    const WORK_WORDS: &[&str] = &[
        "book",
        "novel",
        "film",
        "movie",
        "album",
        "song",
        "paper",
        "publication",
        "article",
        "painting",
        "work",
    ];
    let lower = expected.to_lowercase();
    let mut aliases = vec![expected.to_string()];
    if lower == "capital" {
        // A capital is a city; the class reported by the KG is usually City.
        aliases.push("city".to_string());
    }
    if lower == "birthplace" || lower == "headquarters" {
        aliases.push("city".to_string());
        aliases.push("country".to_string());
    }
    if PERSON_ROLES.contains(&lower.as_str()) {
        aliases.push("person".to_string());
        aliases.push("agent".to_string());
    }
    if PLACE_WORDS.contains(&lower.as_str()) {
        aliases.push("place".to_string());
        aliases.push("location".to_string());
    }
    if ORG_WORDS.contains(&lower.as_str()) {
        aliases.push("organisation".to_string());
        aliases.push("agent".to_string());
    }
    if WORK_WORDS.contains(&lower.as_str()) {
        aliases.push("work".to_string());
        aliases.push("creative work".to_string());
    }
    aliases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::FineGrainedAffinity;

    fn answer(term: Term, classes: Vec<Term>) -> CollectedAnswer {
        CollectedAnswer {
            answer: term,
            classes,
            query_score: 1.0,
        }
    }

    fn string_prediction(semantic: &str) -> AnswerTypePrediction {
        AnswerTypePrediction {
            data_type: AnswerDataType::String,
            semantic_type: Some(semantic.to_string()),
        }
    }

    #[test]
    fn keeps_answers_whose_class_matches_semantic_type() {
        let affinity = FineGrainedAffinity::new();
        let sea = answer(
            Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
            vec![Term::iri("http://dbpedia.org/ontology/Sea")],
        );
        let person = answer(
            Term::iri("http://dbpedia.org/resource/Immanuel_Kant"),
            vec![Term::iri("http://dbpedia.org/ontology/Person")],
        );
        let prediction = string_prediction("sea");
        let kept = filter_answers(&affinity, &[sea.clone(), person], &prediction);
        assert_eq!(kept, vec![sea.answer]);
    }

    #[test]
    fn keeps_answers_without_class_information() {
        let affinity = FineGrainedAffinity::new();
        let untyped = answer(Term::iri("http://dbpedia.org/resource/Something"), vec![]);
        assert!(keeps(&affinity, &untyped, &string_prediction("sea")));
    }

    #[test]
    fn keeps_everything_when_no_semantic_type_predicted() {
        let affinity = FineGrainedAffinity::new();
        let prediction = AnswerTypePrediction {
            data_type: AnswerDataType::String,
            semantic_type: None,
        };
        let typed = answer(
            Term::iri("http://e/x"),
            vec![Term::iri("http://dbpedia.org/ontology/Person")],
        );
        assert!(keeps(&affinity, &typed, &prediction));
    }

    #[test]
    fn date_prediction_filters_non_dates() {
        let affinity = FineGrainedAffinity::new();
        let prediction = AnswerTypePrediction {
            data_type: AnswerDataType::Date,
            semantic_type: None,
        };
        assert!(keeps(
            &affinity,
            &answer(Term::date("1945-05-08"), vec![]),
            &prediction
        ));
        assert!(keeps(
            &affinity,
            &answer(Term::literal_str("1945"), vec![]),
            &prediction
        ));
        assert!(keeps(
            &affinity,
            &answer(Term::literal_str("1945-05-08"), vec![]),
            &prediction
        ));
        assert!(!keeps(
            &affinity,
            &answer(Term::literal_str("Berlin"), vec![]),
            &prediction
        ));
        assert!(!keeps(
            &affinity,
            &answer(Term::iri("http://e/x"), vec![]),
            &prediction
        ));
    }

    #[test]
    fn numeric_prediction_filters_non_numbers() {
        let affinity = FineGrainedAffinity::new();
        let prediction = AnswerTypePrediction {
            data_type: AnswerDataType::Numeric,
            semantic_type: None,
        };
        assert!(keeps(
            &affinity,
            &answer(Term::integer(431000), vec![]),
            &prediction
        ));
        assert!(keeps(
            &affinity,
            &answer(Term::literal_str("3.14"), vec![]),
            &prediction
        ));
        assert!(!keeps(
            &affinity,
            &answer(Term::literal_str("many"), vec![]),
            &prediction
        ));
        assert!(!keeps(
            &affinity,
            &answer(Term::iri("http://e/x"), vec![]),
            &prediction
        ));
    }

    #[test]
    fn string_prediction_rejects_numeric_literals() {
        let affinity = FineGrainedAffinity::new();
        assert!(!keeps(
            &affinity,
            &answer(Term::integer(5), vec![]),
            &string_prediction("city")
        ));
    }

    #[test]
    fn duplicate_answers_are_deduplicated() {
        let affinity = FineGrainedAffinity::new();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let answers = vec![
            answer(
                sea.clone(),
                vec![Term::iri("http://dbpedia.org/ontology/Sea")],
            ),
            answer(sea.clone(), vec![]),
        ];
        let kept = filter_answers(&affinity, &answers, &string_prediction("sea"));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn person_roles_accept_person_classes() {
        let affinity = FineGrainedAffinity::new();
        let kant = answer(
            Term::iri("http://dbpedia.org/resource/Michelle_Obama"),
            vec![Term::iri("http://dbpedia.org/ontology/Person")],
        );
        assert!(keeps(&affinity, &kant, &string_prediction("wife")));
        // ...but a place class is still rejected for a person-role question.
        let city = answer(
            Term::iri("http://dbpedia.org/resource/Chicago"),
            vec![Term::iri("http://dbpedia.org/ontology/City")],
        );
        assert!(!keeps(&affinity, &city, &string_prediction("wife")));
        assert!(semantic_type_aliases("wife").contains(&"person".to_string()));
        assert!(semantic_type_aliases("capital").contains(&"place".to_string()));
        assert_eq!(semantic_type_aliases("zebra"), vec!["zebra".to_string()]);
    }

    #[test]
    fn boolean_prediction_keeps_everything() {
        let affinity = FineGrainedAffinity::new();
        let prediction = AnswerTypePrediction {
            data_type: AnswerDataType::Boolean,
            semantic_type: None,
        };
        assert!(keeps(
            &affinity,
            &answer(Term::iri("http://e/x"), vec![]),
            &prediction
        ));
    }
}
