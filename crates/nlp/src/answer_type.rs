//! Answer data-type and semantic-type prediction (§4.3).
//!
//! KGQAn predicts the expected *data type* of the answer — date, numerical,
//! boolean, or string — with a small neural classifier trained on the QALD-9
//! training questions, and, when the data type is string, a *semantic type*
//! taken to be the first noun of the question.  Both predictions are used
//! only by the post-filtering step.
//!
//! The substitute classifier is an averaged perceptron over bag-of-words and
//! question-shape features, trained on the annotated corpus of
//! [`crate::corpus`].  The semantic type uses the first-noun heuristic backed
//! by the lexicon tagger of [`crate::lexicon`].

use std::fmt;

use crate::lexicon::first_noun;
use crate::perceptron::{AveragedPerceptron, FeatureSink, Training};
use crate::tokenizer::tokenize_question;

/// The expected data type of an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerDataType {
    /// A calendar date (or year).
    Date,
    /// A number (count, measurement, …).
    Numeric,
    /// Yes / no.
    Boolean,
    /// Anything else: a resource or plain string.
    String,
}

impl AnswerDataType {
    /// All data types.
    pub const ALL: [AnswerDataType; 4] = [
        AnswerDataType::Date,
        AnswerDataType::Numeric,
        AnswerDataType::Boolean,
        AnswerDataType::String,
    ];

    /// Class label used by the classifier.
    pub fn label(&self) -> &'static str {
        match self {
            AnswerDataType::Date => "date",
            AnswerDataType::Numeric => "numeric",
            AnswerDataType::Boolean => "boolean",
            AnswerDataType::String => "string",
        }
    }

    /// Parse a label back into a data type.
    pub(crate) fn from_label(label: &str) -> Option<AnswerDataType> {
        Self::ALL.iter().copied().find(|t| t.label() == label)
    }
}

impl fmt::Display for AnswerDataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The full answer-type prediction: data type plus (for strings) the
/// predicted semantic type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerTypePrediction {
    /// Predicted data type.
    pub data_type: AnswerDataType,
    /// Predicted semantic type ("sea", "person", …) when the data type is
    /// string and a first noun exists.
    pub semantic_type: Option<String>,
}

/// The trainable answer-type classifier.
#[derive(Debug, Clone)]
pub struct AnswerTypeClassifier {
    model: AveragedPerceptron,
}

impl Default for AnswerTypeClassifier {
    fn default() -> Self {
        Self::new()
    }
}

impl AnswerTypeClassifier {
    /// Create an untrained classifier.
    pub fn new() -> Self {
        AnswerTypeClassifier {
            model: AveragedPerceptron::new(labels()),
        }
    }

    /// Train on `(question, data type)` pairs for `epochs` passes,
    /// replacing whatever the classifier had learnt before.
    pub fn train(&mut self, examples: &[(String, AnswerDataType)], epochs: usize) {
        let mut training = Training::new(labels());
        for _ in 0..epochs {
            for (question, truth) in examples {
                Self::features(question, &mut training);
                training.learn(truth.label());
            }
        }
        self.model = training.average();
    }

    /// Predict the data type and semantic type of a question's answer.
    pub fn predict(&self, question: &str) -> AnswerTypePrediction {
        let mut scorer = self.model.scorer();
        Self::features(question, &mut scorer);
        let data_type =
            AnswerDataType::from_label(scorer.predict()).unwrap_or(AnswerDataType::String);
        let semantic_type = if data_type == AnswerDataType::String {
            first_noun(question)
        } else {
            None
        };
        AnswerTypePrediction {
            data_type,
            semantic_type,
        }
    }

    /// Feature template: the first two tokens (question word and auxiliary),
    /// selected cue bigrams ("how many", "in which year"), and a small bag of
    /// lowercase words, streamed into `sink`.
    fn features(question: &str, sink: &mut impl FeatureSink) {
        let tokens = tokenize_question(question);
        let lower: Vec<&str> = tokens.iter().map(|t| t.lower.as_str()).collect();
        sink.feature(format_args!("bias"));
        if let Some(first) = lower.first() {
            sink.feature(format_args!("first={first}"));
        }
        if lower.len() >= 2 {
            sink.feature(format_args!("first2={} {}", lower[0], lower[1]));
        }
        if let Some(last) = lower.last() {
            sink.feature(format_args!("last={last}"));
        }
        let text = lower.join(" ");
        for cue in [
            "how many",
            "how much",
            "how tall",
            "how long",
            "how old",
            "number of",
            "count",
            "when",
            "what year",
            "which year",
            "what date",
            "birthday",
            "founded",
            "born",
            "die",
            "start",
            "population",
            "height",
            "area",
        ] {
            if text.contains(cue) {
                sink.feature(format_args!("cue={cue}"));
            }
        }
        for w in lower.iter().take(12) {
            sink.feature(format_args!("w={w}"));
        }
    }
}

/// The class labels of the data-type classifier.
fn labels() -> Vec<String> {
    AnswerDataType::ALL
        .iter()
        .map(|t| t.label().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::training_corpus;

    fn trained() -> AnswerTypeClassifier {
        let corpus = training_corpus();
        let examples: Vec<(String, AnswerDataType)> = corpus
            .iter()
            .map(|q| (q.question.clone(), q.answer_type))
            .collect();
        let mut clf = AnswerTypeClassifier::new();
        clf.train(&examples, 8);
        clf
    }

    #[test]
    fn label_roundtrip() {
        for t in AnswerDataType::ALL {
            assert_eq!(AnswerDataType::from_label(t.label()), Some(t));
        }
        assert_eq!(AnswerDataType::from_label("other"), None);
        assert_eq!(AnswerDataType::Numeric.to_string(), "numeric");
    }

    #[test]
    fn predicts_boolean_for_yes_no_questions() {
        let clf = trained();
        let p = clf.predict("Did Albert Einstein work at Princeton University?");
        assert_eq!(p.data_type, AnswerDataType::Boolean);
        assert_eq!(p.semantic_type, None);
    }

    #[test]
    fn predicts_numeric_for_how_many_questions() {
        let clf = trained();
        let p = clf.predict("How many papers did Jim Gray write?");
        assert_eq!(p.data_type, AnswerDataType::Numeric);
    }

    #[test]
    fn predicts_date_for_when_questions() {
        let clf = trained();
        let p = clf.predict("When was Albert Einstein born?");
        assert_eq!(p.data_type, AnswerDataType::Date);
    }

    #[test]
    fn predicts_string_with_semantic_type_for_entity_questions() {
        let clf = trained();
        let p = clf.predict(
            "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore",
        );
        assert_eq!(p.data_type, AnswerDataType::String);
        assert_eq!(p.semantic_type.as_deref(), Some("sea"));
    }

    #[test]
    fn semantic_type_is_first_noun_only_for_strings() {
        let clf = trained();
        let p = clf.predict("Who is the wife of Barack Obama?");
        assert_eq!(p.data_type, AnswerDataType::String);
        assert_eq!(p.semantic_type.as_deref(), Some("wife"));
    }
}
