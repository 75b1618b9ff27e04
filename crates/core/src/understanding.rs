//! Phase 1: question understanding.
//!
//! Wraps the trained question model of `kgqan_nlp` (the Seq2Seq substitute
//! and the answer-type classifier, which read each question once) and adds
//! the PGP built from its triples — everything downstream phases need,
//! independent of any KG.

use kgqan_nlp::{
    AnswerDataType, AnswerTypePrediction, PhraseTriplePattern, QuestionModel, Seq2SeqVariant,
};

use crate::error::KgqanError;
use crate::pgp::PhraseGraphPattern;

/// The result of understanding one question.
#[derive(Debug, Clone)]
pub struct Understanding {
    /// The question as received.
    pub question: String,
    /// The extracted phrase triple patterns (Definition 4.1).
    pub triples: Vec<PhraseTriplePattern>,
    /// The phrase graph pattern built from the triples (Definition 4.2).
    pub pgp: PhraseGraphPattern,
    /// The predicted answer data / semantic type (§4.3).
    pub answer_type: AnswerTypePrediction,
}

impl Understanding {
    /// True if this is a Boolean (ASK) question: either the classifier says
    /// so or the PGP has no unknown.
    pub fn is_boolean(&self) -> bool {
        self.answer_type.data_type == AnswerDataType::Boolean || self.pgp.is_boolean()
    }
}

/// The question-understanding component: trained once before deployment
/// (Figure 5), then applied to any question against any KG.
pub struct QuestionUnderstanding {
    model: QuestionModel,
}

impl QuestionUnderstanding {
    /// Train the default (BART-like) models on the built-in annotated corpus.
    pub fn train_default() -> Self {
        Self::train_with_variant(Seq2SeqVariant::BartLike)
    }

    /// Train models with the chosen Seq2Seq variant (the Table 4 axis).
    pub fn train_with_variant(variant: Seq2SeqVariant) -> Self {
        QuestionUnderstanding {
            model: QuestionModel::train(variant),
        }
    }

    /// The Seq2Seq variant in use.
    pub fn variant(&self) -> Seq2SeqVariant {
        self.model.variant()
    }

    /// Understand a question: extract triples, build the PGP, predict the
    /// answer type.  Fails if no triple pattern can be extracted at all.
    pub fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        let (triples, answer_type) = self.model.understand(question);
        if triples.is_empty() {
            return Err(KgqanError::UnderstandingFailed {
                question: question.to_string(),
            });
        }
        Ok(Understanding {
            question: question.to_string(),
            pgp: PhraseGraphPattern::from_triples(&triples),
            triples,
            answer_type,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn qu() -> &'static QuestionUnderstanding {
        static QU: OnceLock<QuestionUnderstanding> = OnceLock::new();
        QU.get_or_init(QuestionUnderstanding::train_default)
    }

    #[test]
    fn understands_single_fact_question() {
        let u = qu().understand("Who is the wife of Barack Obama?").unwrap();
        assert!(!u.triples.is_empty());
        assert!(u.pgp.main_unknown().is_some());
        assert_eq!(u.answer_type.data_type, AnswerDataType::String);
        assert!(!u.is_boolean());
    }

    #[test]
    fn understands_running_example_with_two_triples() {
        let u = qu()
            .understand(
                "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore",
            )
            .unwrap();
        assert!(u.pgp.num_triples() >= 2);
        assert_eq!(u.answer_type.semantic_type.as_deref(), Some("sea"));
        assert!(u.pgp.is_star());
    }

    #[test]
    fn boolean_questions_are_flagged() {
        let u = qu()
            .understand("Did Albert Einstein work at Princeton University?")
            .unwrap();
        assert!(u.is_boolean());
    }

    #[test]
    fn empty_question_fails_understanding() {
        assert!(matches!(
            qu().understand(""),
            Err(KgqanError::UnderstandingFailed { .. })
        ));
    }

    #[test]
    fn gpt3_variant_is_selectable() {
        let alt = QuestionUnderstanding::train_with_variant(Seq2SeqVariant::Gpt3Like);
        assert_eq!(alt.variant(), Seq2SeqVariant::Gpt3Like);
        let u = alt.understand("Who is the mayor of Berlin?").unwrap();
        assert!(!u.triples.is_empty());
    }
}
