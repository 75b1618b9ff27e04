//! The reference derivation of every score the embedding models produce:
//! each call re-tokenises both phrases, builds every seed string, rescans
//! the lexicon and recomputes both norms, with no memo and no shared state.
//!
//! Nothing at run time calls this module.  The tests hold
//! [`EmbeddingProvider`](super::EmbeddingProvider),
//! [`SentenceEmbedder`](super::SentenceEmbedder) and the batch affinity
//! methods built on them to these functions bit for bit, the way
//! `execute_naive` pins the SPARQL planner.

use crate::synonyms::SYNONYM_GROUPS;
use crate::tokenizer::{is_stop_word, tokenize_question};

use super::EMBEDDING_DIM;

fn seeded_values(seed: &str) -> Vec<f32> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut out = Vec::with_capacity(EMBEDDING_DIM);
    let mut state = h;
    for _ in 0..EMBEDDING_DIM {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.push((z as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32);
    }
    out
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn group_of(word: &str) -> Option<usize> {
    let lower = word.to_lowercase();
    SYNONYM_GROUPS
        .iter()
        .position(|group| group.contains(&lower.as_str()))
}

fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    for suffix in [
        "ations", "ation", "ings", "ing", "ies", "ied", "ers", "er", "ed", "es", "s",
    ] {
        if let Some(base) = w.strip_suffix(suffix) {
            if base.len() >= 3 {
                return base.to_string();
            }
        }
    }
    w
}

fn word_vector(word: &str) -> Vec<f32> {
    let lower = word.to_lowercase();
    let stem = stem(&lower);
    let mut v = vec![0.0f32; EMBEDDING_DIM];
    if let Some(group) = group_of(&lower).or_else(|| group_of(&stem)) {
        for (x, g) in v.iter_mut().zip(seeded_values(&format!("group:{group}"))) {
            *x += 2.0 * g;
        }
    }
    for (x, s) in v.iter_mut().zip(seeded_values(&format!("stem:{stem}"))) {
        *x += 1.0 * s;
    }
    for (x, w) in v.iter_mut().zip(seeded_values(&format!("word:{lower}"))) {
        *x += 0.25 * w;
    }
    l2_normalize(&mut v);
    v
}

fn char_vector(word: &str) -> Vec<f32> {
    let padded: Vec<char> = format!("^{}$", word.to_lowercase()).chars().collect();
    let mut v = vec![0.0f32; EMBEDDING_DIM];
    if padded.len() < 3 {
        v.copy_from_slice(&seeded_values(&format!("char:{}", word.to_lowercase())));
        l2_normalize(&mut v);
        return v;
    }
    for window in padded.windows(3) {
        let gram: String = window.iter().collect();
        for (x, g) in v.iter_mut().zip(seeded_values(&format!("3gram:{gram}"))) {
            *x += g;
        }
    }
    l2_normalize(&mut v);
    v
}

/// `(in the word space, vector)` of one word; the OOV rule is alphabetic
/// and at least two bytes.
pub(crate) fn embed_word(word: &str) -> (bool, Vec<f32>) {
    if word.len() >= 2 && word.chars().all(|c| c.is_alphabetic()) {
        (true, word_vector(word))
    } else {
        (false, char_vector(word))
    }
}

fn embed_phrase(phrase: &str) -> Vec<(bool, Vec<f32>)> {
    tokenize_question(phrase)
        .into_iter()
        .filter(|t| !is_stop_word(&t.lower))
        .map(|t| embed_word(&t.lower))
        .collect()
}

/// Equation 1: the mean pairwise cosine over all content-word pairs,
/// cross-space pairs counting as zero.
pub fn fine_grained_score(a: &str, b: &str) -> f32 {
    let xs = embed_phrase(a);
    let ys = embed_phrase(b);
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for (x_is_word, x) in &xs {
        for (y_is_word, y) in &ys {
            total += if x_is_word == y_is_word {
                cosine(x, y)
            } else {
                0.0
            };
        }
    }
    total / (xs.len() as f32 * ys.len() as f32)
}

fn sentence_vector(phrase: &str) -> Vec<f32> {
    let words = embed_phrase(phrase);
    let mut v = vec![0.0f32; EMBEDDING_DIM];
    for (_, word) in &words {
        for (x, y) in v.iter_mut().zip(word) {
            *x += y;
        }
    }
    if !words.is_empty() {
        for x in v.iter_mut() {
            *x /= words.len() as f32;
        }
    }
    l2_normalize(&mut v);
    v
}

/// The coarse-grained score: cosine of the two mean-pooled phrase vectors.
pub fn coarse_grained_score(a: &str, b: &str) -> f32 {
    cosine(&sentence_vector(a), &sentence_vector(b))
}
