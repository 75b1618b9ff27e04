//! A golden digest of question understanding: every triple, PGP and answer
//! type `QuestionUnderstanding::understand` produces for the training corpus
//! and for the generated benchmark questions of every KG flavor, under both
//! Seq2Seq variants.  Training is deterministic and the tagger's arithmetic
//! is fixed, so the digest moves only when understanding itself changes;
//! a change to how the models are stored or evaluated must leave it alone.

use std::fmt::Write as _;
use std::sync::OnceLock;

use kgqan::{KgqanError, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_benchmarks::questions::questions_for;
use kgqan_nlp::{training_corpus, Seq2SeqVariant};

/// The digest of [`understanding_digest`] for each variant, in
/// `[BartLike, Gpt3Like]` order, recorded with the nested-map perceptron
/// that preceded the dense one (debug and release agree).
const GOLDEN: [u64; 2] = [9_111_067_551_396_780_819, 3_449_707_409_387_876_741];

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Every question the digest covers: the training corpus, then 60
/// benchmark questions per KG flavor at the tiny scale.
fn questions() -> &'static [String] {
    static QUESTIONS: OnceLock<Vec<String>> = OnceLock::new();
    QUESTIONS.get_or_init(|| {
        let mut out: Vec<String> = training_corpus().into_iter().map(|q| q.question).collect();
        for flavor in KgFlavor::ALL {
            let kg = GeneratedKg::generate(flavor, KgScale::tiny());
            out.extend(questions_for(&kg, 60).questions.into_iter().map(|q| q.text));
        }
        out
    })
}

/// One line per question: its triples, PGP and answer type, or the error.
fn render(qu: &QuestionUnderstanding, question: &str) -> String {
    let mut line = String::new();
    match qu.understand(question) {
        Ok(u) => write!(
            line,
            "{question}\t{:?}\t{:?}\t{:?}",
            u.triples, u.pgp, u.answer_type
        ),
        Err(e) => write!(line, "{question}\terror: {e}"),
    }
    .unwrap();
    line
}

fn understanding_digest(variant: Seq2SeqVariant) -> u64 {
    let qu = QuestionUnderstanding::train_with_variant(variant);
    questions().iter().fold(0xcbf2_9ce4_8422_2325, |h, q| {
        fnv1a(render(&qu, q).as_bytes(), fnv1a(b"\n", h))
    })
}

#[test]
fn understanding_matches_the_golden_digest_under_both_variants() {
    assert!(questions().len() > 1_500, "{} questions", questions().len());
    let digests = [Seq2SeqVariant::BartLike, Seq2SeqVariant::Gpt3Like].map(understanding_digest);
    assert_eq!(digests, GOLDEN, "understanding output moved");
}

#[test]
fn a_multi_byte_suffix_does_not_stop_understanding() {
    let question = "Who is the wife of Muñoz?";
    for variant in [Seq2SeqVariant::BartLike, Seq2SeqVariant::Gpt3Like] {
        let qu = QuestionUnderstanding::train_with_variant(variant);
        match qu.understand(question) {
            Ok(u) => assert!(!u.triples.is_empty()),
            Err(e) => assert!(matches!(e, KgqanError::UnderstandingFailed { .. }), "{e}"),
        }
    }
}
