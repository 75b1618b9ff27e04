//! The annotated training corpus for question understanding.
//!
//! The paper fine-tunes its Seq2Seq model on **1,752 manually annotated
//! questions** drawn from the QALD-9 and LC-QuAD 1.0 training splits
//! (§4.1.2): each question is annotated with its phrase triple patterns
//! (entities, relations, unknowns).  Those annotation files are not
//! redistributable, so this module *generates* an equivalent corpus from
//! question templates over general-fact vocabulary (people, places, works,
//! organisations) with the same properties:
//!
//! * every example carries token-level entity/relation tags, the gold phrase
//!   triple patterns and the expected answer data type,
//! * the vocabulary is deliberately **general-domain only** — no scholarly
//!   (DBLP/MAG) questions appear, mirroring the paper's observation that the
//!   model is trained on DBpedia-style facts yet generalises to unseen
//!   domains,
//! * the corpus covers the same question categories: single fact, fact with
//!   type, multi-fact, Boolean, count, and date questions, with one main
//!   unknown and optional intermediate unknowns.

use crate::answer_type::AnswerDataType;
use crate::seq2seq::{BioTag, PhraseNode, PhraseTriplePattern};
use crate::tokenizer::tokenize_question;

/// One annotated training question.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedQuestion {
    /// The question text.
    pub question: String,
    /// Token-level BIO tags, one per token the question model reads off
    /// `question` (the tokens of `tokenize_question`).
    pub(crate) tags: Vec<BioTag>,
    /// The gold phrase triple patterns.
    pub triples: Vec<PhraseTriplePattern>,
    /// The expected answer data type.
    pub answer_type: AnswerDataType,
    /// The expected semantic type (first noun) for string answers.
    pub semantic_type: Option<String>,
}

/// A question segment used by the template builder.
#[derive(Debug, Clone)]
enum Seg {
    /// Plain words tagged `O`.
    O(String),
    /// An entity phrase (tagged `B-ENT` / `I-ENT`).
    Ent(String),
    /// A relation phrase (tagged `B-REL` / `I-REL`).
    Rel(String),
}

fn o(text: &str) -> Seg {
    Seg::O(text.to_string())
}
fn ent(text: &str) -> Seg {
    Seg::Ent(text.to_string())
}
fn rel(text: &str) -> Seg {
    Seg::Rel(text.to_string())
}

/// Assemble a question string and aligned tags from segments.
fn build(
    segments: &[Seg],
    triples: Vec<PhraseTriplePattern>,
    answer_type: AnswerDataType,
    semantic_type: Option<&str>,
) -> AnnotatedQuestion {
    let mut question = String::new();
    let mut tags = Vec::new();
    for seg in segments {
        let (text, kind) = match seg {
            Seg::O(t) => (t, None),
            Seg::Ent(t) => (t, Some((BioTag::EntB, BioTag::EntI))),
            Seg::Rel(t) => (t, Some((BioTag::RelB, BioTag::RelI))),
        };
        if text.is_empty() {
            continue;
        }
        if !question.is_empty() {
            question.push(' ');
        }
        question.push_str(text);
        let token_count = tokenize_question(text).len();
        match kind {
            None => tags.extend(std::iter::repeat_n(BioTag::O, token_count)),
            Some((begin, inside)) => {
                for i in 0..token_count {
                    tags.push(if i == 0 { begin } else { inside });
                }
            }
        }
    }
    debug_assert_eq!(tokenize_question(&question).len(), tags.len());
    AnnotatedQuestion {
        question,
        tags,
        triples,
        answer_type,
        semantic_type: semantic_type.map(str::to_string),
    }
}

/// People used as entity fillers.
const PEOPLE: &[&str] = &[
    "Barack Obama",
    "Angela Merkel",
    "Albert Einstein",
    "Marie Curie",
    "Alan Turing",
    "Isaac Newton",
    "Ada Lovelace",
    "Grace Hopper",
    "Nelson Mandela",
    "Frida Kahlo",
    "Leonardo da Vinci",
    "Charles Darwin",
    "Jane Austen",
    "William Shakespeare",
    "Pablo Picasso",
    "Nikola Tesla",
    "Abraham Lincoln",
    "Winston Churchill",
    "Indira Gandhi",
    "Mahatma Gandhi",
];

/// Places used as entity fillers.
const PLACES: &[&str] = &[
    "Germany",
    "Canada",
    "Kaliningrad",
    "Baltic Sea",
    "Danish Straits",
    "Berlin",
    "Paris",
    "Mount Everest",
    "Amazon River",
    "Lake Victoria",
    "Egypt",
    "Japan",
    "Brazil",
    "Nile",
    "Sahara Desert",
    "Australia",
    "Buenos Aires",
    "Reykjavik",
];

/// Creative works used as entity fillers.
const WORKS: &[&str] = &[
    "The Hobbit",
    "Dune",
    "Hamlet",
    "Inception",
    "The Matrix",
    "Mona Lisa",
    "War and Peace",
    "Casablanca",
    "Bohemian Rhapsody",
    "Guernica",
];

/// Organisations used as entity fillers.
const ORGS: &[&str] = &[
    "Princeton University",
    "Stanford University",
    "Microsoft",
    "IBM",
    "United Nations",
    "European Union",
    "NASA",
    "Bauhaus",
];

/// Relation nouns whose answers are resources / strings.
const STRING_RELATION_NOUNS: &[&str] = &[
    "wife",
    "husband",
    "spouse",
    "capital",
    "mayor",
    "author",
    "director",
    "currency",
    "official language",
    "birth place",
    "nearest city",
    "founder",
    "leader",
    "mother",
    "father",
];

/// Relation nouns whose answers are numeric.
const NUMERIC_RELATION_NOUNS: &[&str] = &["population", "height", "area", "length"];

/// Relation verbs (simple past) used in "Who VERB ENTITY?" questions.
const RELATION_VERBS: &[&str] = &[
    "wrote",
    "directed",
    "founded",
    "discovered",
    "invented",
    "painted",
    "composed",
    "designed",
];

/// Types used in "Which TYPE ..." questions.
const TYPES: &[&str] = &[
    "city",
    "country",
    "river",
    "university",
    "company",
    "scientist",
    "museum",
];

/// Count nouns for "How many ... ?" questions.
const COUNT_NOUNS: &[&str] = &["children", "languages", "awards", "inhabitants", "students"];

/// Build the full training corpus (deterministic, no randomness).
///
/// The size is comparable to the paper's 1,752 annotated questions.
pub fn training_corpus() -> Vec<AnnotatedQuestion> {
    let mut corpus = Vec::new();

    // 1. Single fact, relation noun: "Who is the wife of Barack Obama?"
    for (i, relation) in STRING_RELATION_NOUNS.iter().enumerate() {
        for (j, entity) in PEOPLE.iter().chain(PLACES.iter()).enumerate() {
            if (i + j) % 2 == 0 {
                corpus.push(build(
                    &[o("Who is the"), rel(relation), o("of"), ent(entity)],
                    vec![PhraseTriplePattern::unknown_to_entity(*relation, *entity)],
                    AnswerDataType::String,
                    Some(relation.split(' ').next_back().unwrap_or(relation)),
                ));
            } else {
                corpus.push(build(
                    &[o("What is the"), rel(relation), o("of"), ent(entity)],
                    vec![PhraseTriplePattern::unknown_to_entity(*relation, *entity)],
                    AnswerDataType::String,
                    Some(relation.split(' ').next_back().unwrap_or(relation)),
                ));
            }
        }
    }

    // 2. Single fact, verb relation: "Who wrote The Hobbit?"
    for relation in RELATION_VERBS {
        for entity in WORKS.iter().chain(ORGS.iter()) {
            corpus.push(build(
                &[o("Who"), rel(relation), ent(entity)],
                vec![PhraseTriplePattern::unknown_to_entity(*relation, *entity)],
                AnswerDataType::String,
                None,
            ));
        }
    }

    // 3. Fact with type: "Which city is the capital of Germany?"
    for (i, ty) in TYPES.iter().enumerate() {
        for relation in STRING_RELATION_NOUNS.iter().skip(i % 3).step_by(3) {
            for entity in PLACES.iter().step_by(2) {
                corpus.push(build(
                    &[
                        o("Which"),
                        o(ty),
                        o("is the"),
                        rel(relation),
                        o("of"),
                        ent(entity),
                    ],
                    vec![PhraseTriplePattern::unknown_to_entity(*relation, *entity)],
                    AnswerDataType::String,
                    Some(ty),
                ));
            }
        }
    }

    // 4. Date questions: "When was Albert Einstein born?"
    for entity in PEOPLE {
        corpus.push(build(
            &[o("When was"), ent(entity), rel("born")],
            vec![PhraseTriplePattern::unknown_to_entity("born", *entity)],
            AnswerDataType::Date,
            None,
        ));
        corpus.push(build(
            &[o("When did"), ent(entity), rel("die")],
            vec![PhraseTriplePattern::unknown_to_entity("die", *entity)],
            AnswerDataType::Date,
            None,
        ));
    }
    for entity in ORGS {
        corpus.push(build(
            &[o("When was"), ent(entity), rel("founded")],
            vec![PhraseTriplePattern::unknown_to_entity("founded", *entity)],
            AnswerDataType::Date,
            None,
        ));
    }

    // 5. Numeric questions: "What is the population of Berlin?" and
    //    "How many children does Barack Obama have?"
    for relation in NUMERIC_RELATION_NOUNS {
        for entity in PLACES.iter().step_by(2) {
            corpus.push(build(
                &[o("What is the"), rel(relation), o("of"), ent(entity)],
                vec![PhraseTriplePattern::unknown_to_entity(*relation, *entity)],
                AnswerDataType::Numeric,
                None,
            ));
        }
    }
    for count in COUNT_NOUNS {
        for entity in PEOPLE.iter().step_by(3).chain(PLACES.iter().step_by(4)) {
            corpus.push(build(
                &[o("How many"), rel(count), o("does"), ent(entity), o("have")],
                vec![PhraseTriplePattern::unknown_to_entity(*count, *entity)],
                AnswerDataType::Numeric,
                None,
            ));
        }
    }

    // 6. Boolean questions: "Did Tolkien write The Hobbit?" /
    //    "Is Berlin the capital of Germany?"
    for (i, subject) in PEOPLE.iter().enumerate() {
        let object = WORKS[i % WORKS.len()];
        let verb = RELATION_VERBS[i % RELATION_VERBS.len()];
        corpus.push(build(
            &[o("Did"), ent(subject), rel(verb), ent(object)],
            vec![PhraseTriplePattern::new(
                PhraseNode::Phrase(subject.to_string()),
                verb,
                PhraseNode::Phrase(object.to_string()),
            )],
            AnswerDataType::Boolean,
            None,
        ));
    }
    for (i, place) in PLACES.iter().enumerate() {
        let country = PLACES[(i + 3) % PLACES.len()];
        corpus.push(build(
            &[
                o("Is"),
                ent(place),
                o("the"),
                rel("capital"),
                o("of"),
                ent(country),
            ],
            vec![PhraseTriplePattern::new(
                PhraseNode::Phrase(place.to_string()),
                "capital",
                PhraseNode::Phrase(country.to_string()),
            )],
            AnswerDataType::Boolean,
            None,
        ));
    }

    // 7. Multi-fact (star) questions, in the style of the running example:
    //    "Name the sea into which Danish Straits flows and has Kaliningrad as
    //     one of the city on the shore".
    let multi_fact_slots: &[(&str, &str, &str, &str, &str)] = &[
        (
            "sea",
            "flows",
            "Danish Straits",
            "city on the shore",
            "Kaliningrad",
        ),
        ("river", "flows", "Lake Victoria", "nearest city", "Cairo"),
        (
            "country",
            "borders",
            "Germany",
            "official language",
            "French",
        ),
        (
            "scientist",
            "discovered",
            "Penicillin",
            "birth place",
            "Scotland",
        ),
        (
            "company",
            "founded",
            "Bill Gates",
            "headquarters",
            "Redmond",
        ),
        (
            "film",
            "directed",
            "Christopher Nolan",
            "starring",
            "Leonardo DiCaprio",
        ),
        ("city", "located in", "Bavaria", "mayor", "Dieter Reiter"),
        (
            "university",
            "located in",
            "California",
            "founder",
            "Leland Stanford",
        ),
    ];
    for (ty, rel1, ent1, rel2, ent2) in multi_fact_slots {
        corpus.push(build(
            &[
                o("Name the"),
                o(ty),
                o("into which"),
                ent(ent1),
                rel(rel1),
                o("and has"),
                ent(ent2),
                o("as one of the"),
                rel(rel2),
            ],
            vec![
                PhraseTriplePattern::unknown_to_entity(*rel1, *ent1),
                PhraseTriplePattern::unknown_to_entity(*rel2, *ent2),
            ],
            AnswerDataType::String,
            Some(ty),
        ));
        corpus.push(build(
            &[
                o("Which"),
                o(ty),
                rel(rel1),
                ent(ent1),
                o("and has"),
                ent(ent2),
                o("as"),
                rel(rel2),
            ],
            vec![
                PhraseTriplePattern::unknown_to_entity(*rel1, *ent1),
                PhraseTriplePattern::unknown_to_entity(*rel2, *ent2),
            ],
            AnswerDataType::String,
            Some(ty),
        ));
    }

    // 8. Path questions with an intermediate unknown:
    //    "What is the capital of the country whose president is Emmanuel Macron?"
    let path_slots: &[(&str, &str, &str, &str)] = &[
        ("capital", "country", "president", "Emmanuel Macron"),
        ("population", "city", "mayor", "Anne Hidalgo"),
        ("currency", "country", "capital", "Ottawa"),
        ("official language", "country", "largest city", "Sao Paulo"),
        ("area", "country", "leader", "Angela Merkel"),
    ];
    for (rel1, ty, rel2, entity) in path_slots {
        corpus.push(build(
            &[
                o("What is the"),
                rel(rel1),
                o("of the"),
                o(ty),
                o("whose"),
                rel(rel2),
                o("is"),
                ent(entity),
            ],
            vec![
                PhraseTriplePattern::new(
                    PhraseNode::Unknown(1),
                    rel1.to_string(),
                    PhraseNode::Unknown(2),
                ),
                PhraseTriplePattern::new(
                    PhraseNode::Unknown(2),
                    rel2.to_string(),
                    PhraseNode::Phrase(entity.to_string()),
                ),
            ],
            if *rel1 == "population" || *rel1 == "area" {
                AnswerDataType::Numeric
            } else {
                AnswerDataType::String
            },
            Some(rel1.split(' ').next_back().unwrap_or(rel1)),
        ));
    }

    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_size_is_comparable_to_the_paper() {
        let corpus = training_corpus();
        assert!(
            corpus.len() >= 800,
            "expected a corpus in the same order of magnitude as the paper's 1752 \
             annotated questions, got {}",
            corpus.len()
        );
    }

    #[test]
    fn every_example_has_aligned_tags() {
        for q in training_corpus() {
            let tokens = tokenize_question(&q.question);
            assert_eq!(
                tokens.len(),
                q.tags.len(),
                "tag misalignment for question: {}",
                q.question
            );
        }
    }

    #[test]
    fn every_example_has_at_least_one_triple() {
        for q in training_corpus() {
            assert!(!q.triples.is_empty(), "no triples for {}", q.question);
        }
    }

    #[test]
    fn every_non_boolean_example_has_a_main_unknown() {
        for q in training_corpus() {
            if q.answer_type == AnswerDataType::Boolean {
                continue;
            }
            assert!(
                q.triples
                    .iter()
                    .any(|t| t.subject == PhraseNode::Unknown(1)
                        || t.object == PhraseNode::Unknown(1)),
                "no main unknown in {}",
                q.question
            );
        }
    }

    #[test]
    fn corpus_covers_all_answer_types() {
        let corpus = training_corpus();
        for ty in AnswerDataType::ALL {
            assert!(
                corpus.iter().any(|q| q.answer_type == ty),
                "no examples with answer type {ty}"
            );
        }
    }

    #[test]
    fn corpus_contains_multi_fact_and_path_questions() {
        let corpus = training_corpus();
        assert!(corpus.iter().any(|q| q.triples.len() >= 2));
        assert!(corpus
            .iter()
            .any(|q| q.triples.iter().any(
                |t| t.object == PhraseNode::Unknown(2) || t.subject == PhraseNode::Unknown(2)
            )));
    }

    #[test]
    fn corpus_is_scholarly_free() {
        // The training corpus must not mention the DBLP/MAG domain, so that
        // those benchmarks remain truly "unseen domains" (§7.2.3).
        for q in training_corpus() {
            let lower = q.question.to_lowercase();
            assert!(
                !lower.contains("paper"),
                "scholarly question leaked: {}",
                q.question
            );
            assert!(
                !lower.contains("conference"),
                "scholarly question leaked: {}",
                q.question
            );
            assert!(
                !lower.contains("citation"),
                "scholarly question leaked: {}",
                q.question
            );
        }
    }

    #[test]
    fn entity_tags_cover_entity_phrases() {
        let corpus = training_corpus();
        let example = corpus
            .iter()
            .find(|q| q.question.contains("Danish Straits"))
            .expect("running-example-style question present");
        let tokens = tokenize_question(&example.question);
        let danish = tokens.iter().position(|t| t.surface == "Danish").unwrap();
        assert_eq!(example.tags[danish], BioTag::EntB);
        assert_eq!(example.tags[danish + 1], BioTag::EntI);
    }
}
