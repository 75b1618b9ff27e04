//! Semantic affinity between phrases (Section 5.4, Equation 1).
//!
//! The affinity score `S(l_X, l_Y)` between two strings is the mean pairwise
//! cosine similarity over all pairs of word embeddings, where each word is
//! embedded by the word model if it is in vocabulary and by the character
//! model otherwise, and cross-model pairs contribute zero.
//!
//! The coarse-grained variant (the GPT-3 sentence-embedding ablation of
//! Table 4) instead compares a single pooled vector per string.
//!
//! The linker scores one phrase against every description a probe fetched,
//! so the models embed the phrase once per batch
//! ([`SemanticAffinity::score_many`]) and take word vectors from the
//! process-wide memo of [`kgqan_nlp::embedding`].  A vertex or predicate
//! probe is scored so only the first time a linker ranks it: the ranking
//! stays on the probe's cached table, and a node or edge that hits the
//! probe again reads it (see [`crate::linker`]).  Filtration scores on
//! every call.  Every score is bit-identical to the memo-free reference in
//! [`kgqan_nlp::embedding::oracle`].
//!
//! # The fine-grained batch table
//!
//! The ~400 descriptions of one probe share most of their words, so
//! [`FineGrainedAffinity::score_many`] works per *distinct token*, not per
//! occurrence.  One table lives for the call:
//!
//! ```text
//! rows  FxHashMap<&str, u32>   raw token (borrowed from the candidates) → row,
//!                              u32::MAX for a stop word
//! sims  Vec<f32>               row r = [sim(x₀, y_r), …, sim(x_{n−1}, y_r)]
//!                              over the phrase's n content words
//! ```
//!
//! The table holds one batch's text and is dropped when the call returns: no
//! lock, no bound, nothing shared (the keys hash with Fx, as the store's
//! dictionary and text index hash the same KG text).  A token is
//! lowercased, checked against the stop words, embedded (through the memo)
//! and compared with every phrase word the first time it appears;
//! a candidate's score is then |phrase| × |words| additions over its rows.
//! The additions are the ones [`EmbeddingProvider::mean_pair_similarity`]
//! makes — the same `f32`s, summed phrase-word-major in the same order,
//! divided the same way — so the batch score equals `score` and the oracle
//! bit for bit.  A one-candidate batch (the filter's one-class batches) has
//! nothing to share and is `score`, the direct loop over the two phrases'
//! embeddings.

use kgqan_nlp::embedding::{EmbeddingProvider, SentenceEmbedder};
use kgqan_nlp::tokenizer::{for_each_content_word, tokens};
use kgqan_rdf::hash::FxHashMap;

/// A model that scores the semantic affinity of two phrases in `[−1, 1]`
/// (in practice `[0, 1]` for related phrases).
pub trait SemanticAffinity: Send + Sync {
    /// The affinity score between two phrases.
    fn score(&self, a: &str, b: &str) -> f32;

    /// The scores of `phrase` against each of `candidates`, in order:
    /// `score_many(p, cs)[i]` must equal `score(p, cs[i])` exactly.  The
    /// linker and the filter score through this method only; the default
    /// calls [`score`](Self::score) once per candidate, and a model
    /// overrides it when it can do the work on `phrase` once.
    fn score_many(&self, phrase: &str, candidates: &[&str]) -> Vec<f32> {
        candidates
            .iter()
            .map(|candidate| self.score(phrase, candidate))
            .collect()
    }

    /// A short label used in experiment reports ("FG", "GPT-3 CG", …).
    fn label(&self) -> &'static str;
}

/// Fine-grained affinity: Equation 1, word-pair level.
#[derive(Debug, Default, Clone)]
pub struct FineGrainedAffinity {
    provider: EmbeddingProvider,
}

impl FineGrainedAffinity {
    /// Create the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SemanticAffinity for FineGrainedAffinity {
    fn score(&self, a: &str, b: &str) -> f32 {
        EmbeddingProvider::mean_pair_similarity(
            &self.provider.embed_phrase(a),
            &self.provider.embed_phrase(b),
        )
    }

    /// Equation 1 of `phrase` against each candidate through one per-batch
    /// table of distinct tokens (see the [module docs](self)); a
    /// one-candidate batch is [`score`](Self::score).
    fn score_many(&self, phrase: &str, candidates: &[&str]) -> Vec<f32> {
        if let [candidate] = candidates {
            return vec![self.score(phrase, candidate)];
        }
        let xs = self.provider.embed_phrase(phrase);
        if xs.is_empty() {
            return vec![0.0; candidates.len()];
        }
        const STOP_WORD: u32 = u32::MAX;
        let width = xs.len();
        let mut rows: FxHashMap<&str, u32> = FxHashMap::default();
        let mut sims: Vec<f32> = Vec::new();
        let mut words: Vec<u32> = Vec::new();
        candidates
            .iter()
            .map(|candidate| {
                words.clear();
                for token in tokens(candidate) {
                    let row = *rows.entry(token).or_insert_with(|| {
                        let mut row = STOP_WORD;
                        for_each_content_word(token, |word| {
                            let y = self.provider.embed_word(word);
                            row = (sims.len() / width) as u32;
                            sims.extend(
                                xs.iter().map(|x| EmbeddingProvider::pair_similarity(x, &y)),
                            );
                        });
                        row
                    });
                    if row != STOP_WORD {
                        words.push(row);
                    }
                }
                if words.is_empty() {
                    return 0.0;
                }
                let mut total = 0.0f32;
                for x in 0..width {
                    for &row in &words {
                        total += sims[row as usize * width + x];
                    }
                }
                total / (width as f32 * words.len() as f32)
            })
            .collect()
    }

    fn label(&self) -> &'static str {
        "FG"
    }
}

/// Coarse-grained affinity: one pooled sentence vector per phrase.
#[derive(Debug, Default, Clone)]
pub struct CoarseGrainedAffinity {
    embedder: SentenceEmbedder,
}

impl CoarseGrainedAffinity {
    /// Create the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SemanticAffinity for CoarseGrainedAffinity {
    fn score(&self, a: &str, b: &str) -> f32 {
        self.score_many(a, &[b])[0]
    }

    fn score_many(&self, phrase: &str, candidates: &[&str]) -> Vec<f32> {
        let pooled = self.embedder.embed(phrase);
        candidates
            .iter()
            .map(|candidate| pooled.cosine(&self.embedder.embed(candidate)))
            .collect()
    }

    fn label(&self) -> &'static str {
        "CG"
    }
}

/// The affinity model selection used by [`crate::KgqanConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AffinityModel {
    /// Fine-grained pairwise affinity (the paper's default).
    #[default]
    FineGrained,
    /// Coarse-grained sentence-embedding affinity (GPT-3 ablation).
    CoarseGrained,
}

impl AffinityModel {
    /// Instantiate the selected model.
    pub fn build(&self) -> Box<dyn SemanticAffinity> {
        match self {
            AffinityModel::FineGrained => Box::new(FineGrainedAffinity::new()),
            AffinityModel::CoarseGrained => Box::new(CoarseGrainedAffinity::new()),
        }
    }

    /// Label used in the Table 4 harness.
    pub fn label(&self) -> &'static str {
        match self {
            AffinityModel::FineGrained => "FG",
            AffinityModel::CoarseGrained => "GPT-3 CG",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_grained_ranks_paper_examples() {
        let fg = FineGrainedAffinity::new();
        // "wife" should map to "spouse" (dbo:spouse, §5.2).
        assert!(fg.score("wife", "spouse") > fg.score("wife", "city"));
        // "flow" should prefer "outflow" over "cities" (Figure 4 annotations).
        assert!(fg.score("flow", "outflow") > fg.score("flow", "cities"));
        // "city on shore" should prefer "nearest city" over "country".
        assert!(fg.score("city on shore", "nearest city") > fg.score("city on shore", "country"));
    }

    #[test]
    fn identical_phrases_score_highest() {
        let fg = FineGrainedAffinity::new();
        // Equation 1 averages over *all* word pairs, so even identical
        // multi-word phrases do not reach 1.0 — but they must still beat any
        // unrelated phrase, and single-word identity is exactly 1.0.
        let same = fg.score("danish straits", "danish straits");
        let other = fg.score("danish straits", "english channel");
        assert!(same > other);
        assert!(same > 0.4);
        assert!((fg.score("kaliningrad", "kaliningrad") - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_phrases_score_zero() {
        let fg = FineGrainedAffinity::new();
        assert_eq!(fg.score("", "spouse"), 0.0);
        assert_eq!(fg.score("the of", "spouse"), 0.0);
    }

    #[test]
    fn oov_identifiers_still_match_by_spelling() {
        let fg = FineGrainedAffinity::new();
        // MAG-style numeric ids: matching id should beat different id.
        assert!(fg.score("2279569217", "2279569217") > fg.score("2279569217", "9999999999"));
    }

    #[test]
    fn coarse_grained_behaves_but_differs_from_fine_grained() {
        let cg = CoarseGrainedAffinity::new();
        assert!(cg.score("wife", "spouse") > cg.score("wife", "river"));
        assert_eq!(cg.label(), "CG");
        let fg = FineGrainedAffinity::new();
        assert_eq!(fg.label(), "FG");
    }

    #[test]
    fn model_selector_builds_both_variants() {
        assert_eq!(AffinityModel::FineGrained.build().label(), "FG");
        assert_eq!(AffinityModel::CoarseGrained.build().label(), "CG");
        assert_eq!(AffinityModel::default(), AffinityModel::FineGrained);
        assert_eq!(AffinityModel::CoarseGrained.label(), "GPT-3 CG");
    }
}
