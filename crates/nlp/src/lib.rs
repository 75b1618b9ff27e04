//! # kgqan-nlp
//!
//! The natural-language substrate KGQAn builds on.  The original system uses
//! off-the-shelf neural components (BART / GPT-3 Seq2Seq models, the FastText
//! `wiki-news-300d-1M` word vectors, chars2vec, the AllenNLP constituency
//! parser); none of these are available as pure-Rust artifacts, so this crate
//! provides *trainable, deterministic substitutes* with the same interfaces
//! and the same role in the pipeline (see DESIGN.md §3 for the substitution
//! argument):
//!
//! * [`tokenizer`] — question tokenization and stop-word handling,
//! * [`lexicon`] — a lightweight part-of-speech tagger (the stand-in for the
//!   constituency parser used by the first-noun semantic-type heuristic),
//! * [`synonyms`] — a built-in synonym/topic lexicon seeding the embedding
//!   space so that e.g. *wife* ≈ *spouse* and *flow* ≈ *outflow*,
//! * [`embedding`] — word embeddings (FastText substitute), character
//!   n-gram embeddings for out-of-vocabulary words (chars2vec substitute) and
//!   mean-pooled sentence embeddings (GPT-3 coarse-grained substitute),
//! * [`seq2seq`] — the **triple pattern generator**: a trainable averaged
//!   perceptron sequence tagger plus a one-pass span and triple assembler, the
//!   substitute for the fine-tuned BART/GPT-3 Seq2Seq model of Section 4,
//! * [`answer_type`] — the answer data-type classifier (date / numeric /
//!   boolean / string) and the first-noun semantic-type heuristic of §4.3,
//! * [`QuestionModel`] — both of them as one trained model that reads each
//!   question once,
//! * [`corpus`] — the annotated training corpus generator standing in for
//!   the 1,752 manually annotated questions of §4.1.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer_type;
pub mod corpus;
pub mod embedding;
pub mod lexicon;
mod model;
mod perceptron;
pub mod seq2seq;
pub mod synonyms;
pub mod tokenizer;

pub use answer_type::{AnswerDataType, AnswerTypePrediction};
pub use corpus::{training_corpus, AnnotatedQuestion};
pub use model::QuestionModel;
pub use seq2seq::{PhraseNode, PhraseTriplePattern, Seq2SeqVariant};
