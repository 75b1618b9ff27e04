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
use proptest::prelude::*;

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

/// One model per Seq2Seq variant, trained once for the property below.
fn models() -> &'static [QuestionUnderstanding; 2] {
    static MODELS: OnceLock<[QuestionUnderstanding; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        [Seq2SeqVariant::BartLike, Seq2SeqVariant::Gpt3Like]
            .map(QuestionUnderstanding::train_with_variant)
    })
}

/// A character of the class `class` picks: printable ASCII, ASCII letters,
/// ASCII punctuation, whitespace (ASCII and not), Latin with diacritics,
/// combining marks, Cyrillic, Arabic, CJK, emoji, or any scalar value.
/// `bits` picks within the class; a surrogate becomes U+FFFD.
fn unicode_char(class: u8, bits: u32) -> char {
    const PUNCTUATION: &[u8] = b"!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~";
    const SPACES: [char; 6] = [' ', '\t', '\n', '\u{A0}', '\u{3000}', '\u{200B}'];
    let (start, len) = match class {
        0 => (0x20, 0x5F),
        1 => (u32::from(b'a'), 26),
        2 => return char::from(PUNCTUATION[bits as usize % PUNCTUATION.len()]),
        3 => return SPACES[bits as usize % SPACES.len()],
        4 => (0xC0, 0x180),
        5 => (0x300, 0x70),
        6 => (0x400, 0x100),
        7 => (0x600, 0x100),
        8 => (0x4E00, 0x5200),
        9 => (0x1F300, 0x700),
        _ => (0, 0x11_0000),
    };
    char::from_u32(start + bits % len).unwrap_or('\u{FFFD}')
}

/// Strings drawn character by character from `classes`.
fn unicode_text(
    classes: std::ops::Range<u8>,
    chars: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec((classes, any::<u32>()), chars).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, bits)| unicode_char(class, bits))
            .collect()
    })
}

/// Questions `understand` may be sent: the empty string, mixed-script text
/// with combining marks, punctuation and spaces only, arbitrary text inside
/// a question template, and 10 000 characters.
fn arbitrary_question() -> impl Strategy<Value = String> {
    const TEMPLATES: [&str; 4] = [
        "Who is the wife of ",
        "What is the capital of ",
        "Is ",
        "When was ",
    ];
    prop_oneof![
        Just(String::new()),
        unicode_text(0..11, 0..40),
        unicode_text(2..4, 0..20),
        (0..TEMPLATES.len(), unicode_text(0..11, 0..12))
            .prop_map(|(template, name)| format!("{}{name}?", TEMPLATES[template])),
        unicode_text(0..11, 10_000..10_001),
    ]
}

proptest! {
    #[test]
    fn understand_never_panics_on_arbitrary_unicode(question in arbitrary_question()) {
        for qu in models() {
            let outcome = std::panic::catch_unwind(|| qu.understand(&question));
            match outcome {
                Ok(Ok(_)) | Ok(Err(KgqanError::UnderstandingFailed { .. })) => {}
                Ok(Err(e)) => prop_assert!(false, "{question:?}: {e}"),
                Err(_) => prop_assert!(false, "understand panicked on {question:?}"),
            }
        }
    }
}
