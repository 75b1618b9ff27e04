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
//! process-wide memo of [`kgqan_nlp::embedding`].  Every score is
//! bit-identical to the memo-free reference in
//! [`kgqan_nlp::embedding::oracle`].

use kgqan_nlp::embedding::{EmbeddingProvider, SentenceEmbedder};

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
        self.score_many(a, &[b])[0]
    }

    fn score_many(&self, phrase: &str, candidates: &[&str]) -> Vec<f32> {
        let xs = self.provider.embed_phrase(phrase);
        let mut ys = Vec::new();
        candidates
            .iter()
            .map(|candidate| {
                self.provider.embed_phrase_into(candidate, &mut ys);
                EmbeddingProvider::mean_pair_similarity(&xs, &ys)
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
