//! The memoised, batched affinity models against the memo-free reference
//! derivation (`kgqan_nlp::embedding::oracle`): every score must agree bit
//! for bit, whichever way it is asked for and however many threads ask.
//! Batches of 1, 2 and 400 candidates drawn from one small vocabulary repeat
//! their tokens, which is where the fine-grained model's per-batch token
//! table does its work.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use kgqan::{AffinityModel, SemanticAffinity};
use kgqan_nlp::embedding::oracle;
use kgqan_nlp::synonyms::SYNONYM_GROUPS;
use proptest::prelude::*;

type Oracle = fn(&str, &str) -> f32;

fn models() -> [(Box<dyn SemanticAffinity>, Oracle); 2] {
    [
        (
            AffinityModel::FineGrained.build(),
            oracle::fine_grained_score,
        ),
        (
            AffinityModel::CoarseGrained.build(),
            oracle::coarse_grained_score,
        ),
    ]
}

/// One word of a phrase: the kinds of token a question or a KG description
/// holds, each of which takes a different path through the embedding.
fn arb_word() -> impl Strategy<Value = String> {
    let lexicon: Vec<&str> = SYNONYM_GROUPS
        .iter()
        .flat_map(|g| g.iter().copied())
        .collect();
    let lexicon_len = lexicon.len();
    prop_oneof![
        // In-vocabulary words outside the lexicon, any case.
        "[a-zA-Z]{2,9}",
        // Lexicon words and their inflections (group lookup by stem).
        (0..lexicon_len, 0usize..5).prop_map(move |(word, suffix)| format!(
            "{}{}",
            lexicon[word],
            ["", "s", "ed", "ing", "ations"][suffix]
        )),
        // MAG-style numeric ids and opaque codes: the character space.
        "[0-9]{6,10}",
        "[pq][0-9]{1,4}",
        // Single characters (one trigram) and stop words (dropped).
        "[a-z0-9]",
        (0usize..6).prop_map(|i| ["the", "of", "in", "The", "OF", "which"][i].to_string()),
        // Hyphens and apostrophes stay inside a token.
        "[a-z]{1,4}[-'][a-z0-9]{1,4}",
        // Non-ASCII, including final sigma and characters whose lowercase
        // form has a different byte length (İ → i̇, ẞ → ß, Ⱥ → ⱥ).
        "[a-zA-ZΣσςİıßẞȺÉéǅΩ]{1,6}",
    ]
}

fn arb_phrase() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_word(), 0..5),
        prop::collection::vec(0usize..4, 5..6),
    )
        .prop_map(|(words, separators)| {
            let mut phrase = String::new();
            for (word, separator) in words.iter().zip(separators) {
                phrase.push_str(word);
                phrase.push_str([" ", ", ", "  ", "_"][separator]);
            }
            phrase
        })
}

/// Tokens the descriptions of one probe share, so that a batch drawn from
/// them repeats tokens: case variants of one word, stop words in caps,
/// hyphen and apostrophe tokens (a bare `-` is a token too), non-ASCII words
/// whose lowercase form has another byte length, numeric ids and opaque
/// codes, and a few lexicon words.
const SHARED_VOCABULARY: &[&str] = &[
    "Graph",
    "graph",
    "GRAPH",
    "The",
    "OF",
    "the",
    "in",
    "Covid-19",
    "O'Brien's",
    "state-of-the-art",
    "-",
    "'s",
    "İstanbul",
    "ẞTRASSE",
    "ΟΔΥΣΣΕΥΣ",
    "Ⱥlpha",
    "2279569217",
    "2279569218",
    "p42",
    "x",
    "network",
    "networks",
    "spouse",
    "wife",
];

/// Zero to four words of [`SHARED_VOCABULARY`]: the empty string is one
/// draw in five.
fn shared_phrase() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0..SHARED_VOCABULARY.len(), 0..5),
        0usize..4,
    )
        .prop_map(|(words, separator)| {
            let words: Vec<&str> = words.iter().map(|&i| SHARED_VOCABULARY[i]).collect();
            words.join([" ", ", ", "  ", "_"][separator])
        })
}

/// Every score of `model.score_many(phrase, candidates)` equals
/// `model.score` of the same pair and the oracle's, bit for bit.  The oracle
/// is asked once per distinct candidate.
fn agrees_with_oracle(
    model: &dyn SemanticAffinity,
    oracle: Oracle,
    phrase: &str,
    candidates: &[&str],
) -> Result<(), TestCaseError> {
    let batch = model.score_many(phrase, candidates);
    prop_assert_eq!(batch.len(), candidates.len());
    let mut oracle_bits: HashMap<&str, u32> = HashMap::new();
    for (&candidate, score) in candidates.iter().zip(batch) {
        let expected = *oracle_bits
            .entry(candidate)
            .or_insert_with(|| oracle(phrase, candidate).to_bits());
        let single = model.score(phrase, candidate).to_bits();
        prop_assert!(
            score.to_bits() == expected && single == expected,
            "{} on {phrase:?} vs {candidate:?}: batch {:#x}, single {single:#x}, oracle {expected:#x}",
            model.label(),
            score.to_bits()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn batch_single_and_oracle_agree_bitwise(
        phrase in arb_phrase(),
        candidates in prop::collection::vec(arb_phrase(), 0..6),
    ) {
        let candidates: Vec<&str> = candidates.iter().map(String::as_str).collect();
        for (model, oracle) in models() {
            agrees_with_oracle(&*model, oracle, &phrase, &candidates)?;
        }
    }

    #[test]
    fn batches_that_repeat_tokens_agree_bitwise(
        phrase in prop_oneof![
            shared_phrase(),
            arb_phrase(),
            // No content word at all.
            Just("The OF the, in".to_string()),
        ],
        pool in prop::collection::vec(shared_phrase(), 400..401),
        size in 0usize..3,
    ) {
        let candidates: Vec<&str> = pool[..[1, 2, 400][size]]
            .iter()
            .map(String::as_str)
            .collect();
        for (model, oracle) in models() {
            agrees_with_oracle(&*model, oracle, &phrase, &candidates)?;
        }
    }
}

#[test]
fn eight_threads_sharing_one_model_score_like_the_oracle() {
    const THREADS: usize = 8;
    // Words no other test in this file embeds, so the threads race to
    // derive and insert them, and more of them (4 800) than the memo holds,
    // so shards are emptied under threads that hold their vectors; each
    // thread walks the list from its own offset.
    let descriptions: Vec<String> = (0..1200)
        .map(|i| format!("racing{i} paper zz{i}q 90210{i} Τίτλος{i}"))
        .collect();
    let descriptions: Vec<&str> = descriptions.iter().map(String::as_str).collect();
    let phrase = "paper racing7 902107";

    for (model, oracle) in models() {
        let expected: Vec<u32> = descriptions
            .iter()
            .map(|d| oracle(phrase, d).to_bits())
            .collect();
        let model: Arc<dyn SemanticAffinity> = Arc::from(model);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (model, barrier) = (Arc::clone(&model), &barrier);
                let (descriptions, expected) = (&descriptions, &expected);
                scope.spawn(move || {
                    let offset = thread * descriptions.len() / THREADS;
                    let order: Vec<usize> = (0..descriptions.len())
                        .map(|i| (i + offset) % descriptions.len())
                        .collect();
                    let rotated: Vec<&str> = order.iter().map(|&i| descriptions[i]).collect();
                    barrier.wait();
                    let batch = model.score_many(phrase, &rotated);
                    for (&i, score) in order.iter().zip(batch) {
                        assert_eq!(score.to_bits(), expected[i], "{}", descriptions[i]);
                        assert_eq!(model.score(phrase, descriptions[i]).to_bits(), expected[i]);
                    }
                });
            }
        });
    }
}
