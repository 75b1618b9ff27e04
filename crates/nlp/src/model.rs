//! The question model: the tagger and the answer-type classifier behind one
//! type, reading one [`TaggedQuestion`] per question.
//!
//! A question is tokenized and part-of-speech tagged once (the paper's
//! Seq2Seq model also reads it once, §4); the tagger writes its BIO tags into
//! the same value, and span assembly, the Boolean check, the answer-type
//! features and the first-noun semantic type (§4.3) all read it.

use crate::answer_type::{AnswerDataType, AnswerTypeClassifier, AnswerTypePrediction};
use crate::corpus::training_corpus;
use crate::lexicon::{pos_tag, PosTag};
use crate::seq2seq::{
    assemble_triples, BioTag, PhraseTriplePattern, Seq2SeqVariant, TriplePatternGenerator,
};
use crate::tokenizer::{tokenize_question, Token};

/// A question read once: its tokens, one part-of-speech tag per token and,
/// once the tagger or the corpus has written them, its BIO tags.
#[derive(Debug, Clone)]
pub(crate) struct TaggedQuestion {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: Vec<PosTag>,
    /// Empty until tagged; a corpus example's tags may be misaligned.
    pub(crate) tags: Vec<BioTag>,
}

impl TaggedQuestion {
    /// Tokenize and part-of-speech tag `question`, with no BIO tags yet.
    pub(crate) fn new(question: &str) -> Self {
        let tokens = tokenize_question(question);
        let pos = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| pos_tag(&t.lower, t.capitalized, i == 0))
            .collect();
        TaggedQuestion {
            tokens,
            pos,
            tags: Vec::new(),
        }
    }

    /// True if the question is a Boolean (yes/no) question: it starts with
    /// an auxiliary verb rather than a wh-word or imperative.
    pub(crate) fn is_boolean(&self) -> bool {
        self.tokens.first().is_some_and(|t| {
            matches!(
                t.lower.as_str(),
                "is" | "are"
                    | "was"
                    | "were"
                    | "did"
                    | "does"
                    | "do"
                    | "has"
                    | "have"
                    | "can"
                    | "could"
            )
        })
    }

    /// The first (common) noun of the question — KGQAn's semantic-type
    /// heuristic (§4.3).  Proper nouns are skipped because they are entity
    /// mentions, not type descriptions.
    pub(crate) fn first_noun(&self) -> Option<String> {
        self.tokens
            .iter()
            .zip(&self.pos)
            .find(|(_, pos)| **pos == PosTag::Noun)
            .map(|(t, _)| t.lower.clone())
    }
}

/// The trained question-understanding model: the triple-pattern tagger of
/// one Seq2Seq variant and the answer-type classifier.
#[derive(Debug, Clone)]
pub struct QuestionModel {
    generator: TriplePatternGenerator,
    classifier: AnswerTypeClassifier,
}

impl QuestionModel {
    /// Train both models on the built-in annotated corpus, tagging each
    /// example once.  Mirrors Figure 5: trained once, before deployment, on
    /// KG-independent questions.
    pub fn train(variant: Seq2SeqVariant) -> Self {
        let (questions, answer_types) = training_questions();
        QuestionModel {
            generator: TriplePatternGenerator::train(variant, &questions, 5),
            classifier: AnswerTypeClassifier::train(&questions, &answer_types, 8),
        }
    }

    /// The Seq2Seq variant the tagger emulates.
    pub fn variant(&self) -> Seq2SeqVariant {
        self.generator.variant()
    }

    /// The phrase triple patterns of a question (Definition 4.1), none if
    /// it has no tagged phrase, and its predicted answer type.
    pub fn understand(&self, question: &str) -> (Vec<PhraseTriplePattern>, AnswerTypePrediction) {
        let mut question = TaggedQuestion::new(question);
        self.generator.tag(&mut question);
        (
            assemble_triples(&question),
            self.classifier.predict(&question),
        )
    }
}

/// The annotated training corpus, each example read once into a
/// [`TaggedQuestion`] carrying its gold tags, beside its answer's data type.
pub(crate) fn training_questions() -> (Vec<TaggedQuestion>, Vec<AnswerDataType>) {
    training_corpus()
        .into_iter()
        .map(|example| {
            let question = TaggedQuestion {
                tags: example.tags,
                ..TaggedQuestion::new(&example.question)
            };
            (question, example.answer_type)
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_question_is_read_into_one_tag_per_token() {
        let q = TaggedQuestion::new("When did the Danish Straits freeze?");
        assert_eq!(q.tokens.len(), 6);
        assert_eq!(q.pos.len(), 6);
        assert_eq!(q.pos[0], PosTag::QuestionWord);
        assert!(q.tags.is_empty());
    }

    #[test]
    fn boolean_questions_start_with_an_auxiliary() {
        assert!(TaggedQuestion::new("Did Tolkien write The Hobbit?").is_boolean());
        assert!(!TaggedQuestion::new("Who wrote The Hobbit?").is_boolean());
        assert!(!TaggedQuestion::new("").is_boolean());
    }

    #[test]
    fn first_noun_matches_paper_example() {
        // For q_E the predicted semantic type is "sea".
        let q = "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore";
        assert_eq!(TaggedQuestion::new(q).first_noun(), Some("sea".to_string()));
    }

    #[test]
    fn first_noun_skips_proper_nouns_and_question_words() {
        let first_noun = |q| TaggedQuestion::new(q).first_noun();
        assert_eq!(
            first_noun("Who is the wife of Barack Obama?"),
            Some("wife".to_string())
        );
        assert_eq!(
            first_noun("Which river does the Brooklyn Bridge cross?"),
            Some("river".to_string())
        );
        assert_eq!(first_noun(""), None);
        assert_eq!(first_noun("Who is he?"), None);
    }

    #[test]
    fn the_model_understands_under_both_variants() {
        for variant in [Seq2SeqVariant::BartLike, Seq2SeqVariant::Gpt3Like] {
            let model = QuestionModel::train(variant);
            assert_eq!(model.variant(), variant);
            let (triples, answer_type) = model.understand("Who is the author of Dune?");
            assert!(!triples.is_empty());
            assert_eq!(answer_type.data_type, AnswerDataType::String);
            assert!(model.understand("").0.is_empty());
        }
    }
}
