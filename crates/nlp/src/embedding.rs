//! Word, character and sentence embeddings.
//!
//! Substitutes for the embedding models of the paper:
//!
//! * `WordEmbedding` — the FastText `wiki-news-300d-1M` substitute: a
//!   deterministic hashed random projection seeded by the synonym lexicon,
//!   so that words in the same topic group are close in cosine space,
//! * `CharNgramEmbedding` — the chars2vec substitute used for
//!   out-of-vocabulary words: character trigram hashing, so that similar
//!   spellings ("Kaliningrad" / "Kaliningrd") are close,
//! * [`SentenceEmbedder`] — the GPT-3 sentence-embedding substitute used by
//!   the coarse-grained affinity variant of Table 4: a mean-pooled bag of
//!   word vectors.
//!
//! All vectors are L2-normalised and carry their norm, so a cosine is one
//! dot product and one division.
//!
//! A word's vector is a pure function of its lowercase spelling, so
//! [`EmbeddingProvider::embed_word`] keeps it in a process-wide memo: the
//! linker scores one phrase against hundreds of descriptions per question
//! and the same words come back in every one of them.  [`oracle`] keeps the
//! direct, memo-free derivation as the reference the tests compare against
//! bit for bit.

pub mod oracle;

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, LazyLock, RwLock};

use crate::synonyms::group_of;
use crate::tokenizer::for_each_content_word;

/// Dimensionality of all embeddings in this crate.
pub(crate) const EMBEDDING_DIM: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The seed of a deterministic pseudo-random stream: an FNV-1a hash fed
/// piecewise (a constant prefix, then the word), so no seed string is built.
/// Keeps the embeddings reproducible across runs without depending on a
/// random-number crate at run time.
#[derive(Clone, Copy)]
struct Seed(u64);

impl Seed {
    const fn of(prefix: &str) -> Seed {
        let bytes = prefix.as_bytes();
        let mut h = FNV_OFFSET;
        let mut i = 0;
        while i < bytes.len() {
            h = (h ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
            i += 1;
        }
        Seed(h)
    }

    fn then(self, bytes: &[u8]) -> Seed {
        Seed(
            bytes
                .iter()
                .fold(self.0, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)),
        )
    }

    fn then_decimal(self, mut n: usize) -> Seed {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return self.then(&digits[start..]);
            }
        }
    }

    fn then_char(self, c: char) -> Seed {
        self.then(c.encode_utf8(&mut [0; 4]).as_bytes())
    }

    /// `out[i] += scale * draw_i`, the draws being the splitmix64 stream of
    /// this seed mapped to `[-1, 1)`.
    fn add_scaled(self, scale: f32, out: &mut [f32; EMBEDDING_DIM]) {
        let mut state = self.0;
        for x in out {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *x += scale * (z as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32;
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

fn cosine_of(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    if norm_a == 0.0 || norm_b == 0.0 {
        0.0
    } else {
        dot / (norm_a * norm_b)
    }
}

/// An L2-normalised embedding together with its norm, computed once when
/// the vector is built instead of once per comparison.  (The stored norm is
/// what a cosine over the bare values would recompute, not exactly 1.)
/// Dereferences to its values.
#[derive(Debug, Clone, PartialEq)]
pub struct NormedVector {
    values: [f32; EMBEDDING_DIM],
    norm: f32,
}

impl NormedVector {
    fn normalized(mut values: [f32; EMBEDDING_DIM]) -> Self {
        let norm = l2_norm(&values);
        if norm > 0.0 {
            for x in &mut values {
                *x /= norm;
            }
        }
        let norm = l2_norm(&values);
        NormedVector { values, norm }
    }

    /// Cosine similarity with `other`: a cosine over the two value slices,
    /// bit for bit, without recomputing either norm.
    pub fn cosine(&self, other: &NormedVector) -> f32 {
        cosine_of(dot(&self.values, &other.values), self.norm, other.norm)
    }
}

impl Deref for NormedVector {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.values
    }
}

/// Word-level embedding model (FastText substitute).
///
/// A word's vector is the sum of (i) a strong component shared by its
/// synonym-lexicon topic group, if it belongs to one, and (ii) a weaker
/// word-specific hashed component.  Words outside the lexicon get only the
/// word-specific component, so unrelated words have near-zero similarity,
/// while same-group words have high similarity — the ranking property the
/// JIT linker needs.
#[derive(Debug, Default, Clone)]
pub(crate) struct WordEmbedding;

impl WordEmbedding {
    /// True if the word is "in vocabulary": alphabetic and at least two
    /// characters.  Mirrors FastText's behaviour of covering ordinary English
    /// words; identifiers and codes fall through to the char model.
    pub(crate) fn knows(&self, word: &str) -> bool {
        word.len() >= 2 && word.chars().all(|c| c.is_alphabetic())
    }

    /// The embedding of a single lowercase word.
    pub(crate) fn embed(&self, word: &str) -> NormedVector {
        const GROUP: Seed = Seed::of("group:");
        const STEM: Seed = Seed::of("stem:");
        const WORD: Seed = Seed::of("word:");
        let stem = stem(word);
        let mut v = [0.0f32; EMBEDDING_DIM];
        // Topic-group component (strong).
        if let Some(group) = group_of(word).or_else(|| group_of(stem)) {
            GROUP.then_decimal(group).add_scaled(2.0, &mut v);
        }
        // Stem-specific component (medium) ties inflected forms together.
        STEM.then(stem.as_bytes()).add_scaled(1.0, &mut v);
        // Surface-specific component (weak).
        WORD.then(word.as_bytes()).add_scaled(0.25, &mut v);
        NormedVector::normalized(v)
    }
}

/// A crude Porter-lite stemmer: strips common English suffixes so that
/// "flows"/"flowing"/"flowed" share a stem.  Takes a lowercase word.
pub fn stem(word: &str) -> &str {
    for suffix in [
        "ations", "ation", "ings", "ing", "ies", "ied", "ers", "er", "ed", "es", "s",
    ] {
        if let Some(base) = word.strip_suffix(suffix) {
            if base.len() >= 3 {
                return base;
            }
        }
    }
    word
}

/// Character n-gram embedding (chars2vec substitute): the normalised sum of
/// hashed character trigrams of the padded word.  Captures spelling
/// similarity for names and identifiers FastText does not know.
#[derive(Debug, Default, Clone)]
pub(crate) struct CharNgramEmbedding;

impl CharNgramEmbedding {
    /// The embedding of a lowercase word based on its character trigrams.
    pub(crate) fn embed(&self, word: &str) -> NormedVector {
        const TRIGRAM: Seed = Seed::of("3gram:");
        const WHOLE: Seed = Seed::of("char:");
        let mut v = [0.0f32; EMBEDDING_DIM];
        let mut chars = word.chars();
        let Some(mut b) = chars.next() else {
            // The padding alone ("^$") has no trigram.
            WHOLE.add_scaled(1.0, &mut v);
            return NormedVector::normalized(v);
        };
        let mut a = '^';
        for c in chars.chain(std::iter::once('$')) {
            TRIGRAM
                .then_char(a)
                .then_char(b)
                .then_char(c)
                .add_scaled(1.0, &mut v);
            (a, b) = (b, c);
        }
        NormedVector::normalized(v)
    }
}

/// An embedding together with which model produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceVector {
    /// Produced by the word model.
    Word(NormedVector),
    /// Produced by the character model (OOV fallback).
    Char(NormedVector),
}

impl SpaceVector {
    fn vector(&self) -> &NormedVector {
        match self {
            SpaceVector::Word(v) | SpaceVector::Char(v) => v,
        }
    }
}

const MEMO_SHARDS: usize = 16;

/// Words kept per shard.  A shard that reaches it is emptied and starts
/// over — the words still in use are derived once more (microseconds each)
/// and come straight back — so the memo's footprint is bounded (≈ 360 bytes
/// per word, ≈ 1.4 MB full) and a lookup does no bookkeeping.
#[cfg(not(test))]
const MEMO_SHARD_CAP: usize = 256;
/// Small enough that the unit tests run past it.
#[cfg(test)]
const MEMO_SHARD_CAP: usize = 8;

/// The process-wide `lowercase word → vector` memo behind
/// [`EmbeddingProvider::embed_word`]: sharded so that workers sharing one
/// affinity model rarely meet on a lock, read-locked on the hit path.
struct WordMemo {
    shards: [RwLock<HashMap<Box<str>, Arc<SpaceVector>>>; MEMO_SHARDS],
}

static WORD_MEMO: LazyLock<WordMemo> = LazyLock::new(|| WordMemo {
    shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
});

impl WordMemo {
    fn get_or_insert_with(
        &self,
        word: &str,
        derive: impl FnOnce() -> SpaceVector,
    ) -> Arc<SpaceVector> {
        // Every update leaves a shard valid (a `clear`, an `insert`), so a
        // lock poisoned by a panicking worker is still good to use.
        let shard = &self.shards[Seed(FNV_OFFSET).then(word.as_bytes()).0 as usize % MEMO_SHARDS];
        if let Some(hit) = shard
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(word)
        {
            return Arc::clone(hit);
        }
        let vector = Arc::new(derive());
        let mut map = shard
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(raced) = map.get(word) {
            return Arc::clone(raced);
        }
        if map.len() >= MEMO_SHARD_CAP {
            map.clear();
        }
        map.insert(word.into(), Arc::clone(&vector));
        vector
    }
}

/// The combined provider used by the semantic-affinity calculation (§5.4):
/// word vectors for in-vocabulary words, character vectors otherwise, and
/// `sim = 0` across the two spaces, exactly as Equation 1 specifies.
#[derive(Debug, Default, Clone)]
pub struct EmbeddingProvider {
    words: WordEmbedding,
    chars: CharNgramEmbedding,
}

impl EmbeddingProvider {
    /// Create a provider with both models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Embed one lowercase word, choosing the model per the OOV rule.  The
    /// vector comes from the process-wide memo when the word has been seen.
    pub fn embed_word(&self, word: &str) -> Arc<SpaceVector> {
        WORD_MEMO.get_or_insert_with(word, || {
            if self.words.knows(word) {
                SpaceVector::Word(self.words.embed(word))
            } else {
                SpaceVector::Char(self.chars.embed(word))
            }
        })
    }

    /// Embed every content word of a phrase.
    pub fn embed_phrase(&self, phrase: &str) -> Vec<Arc<SpaceVector>> {
        let mut vectors = Vec::new();
        for_each_content_word(phrase, |word| vectors.push(self.embed_word(word)));
        vectors
    }

    /// Pairwise similarity honouring the cross-space rule of Equation 1:
    /// vectors from different models have similarity 0.
    pub fn pair_similarity(a: &SpaceVector, b: &SpaceVector) -> f32 {
        match (a, b) {
            (SpaceVector::Word(x), SpaceVector::Word(y)) => x.cosine(y),
            (SpaceVector::Char(x), SpaceVector::Char(y)) => x.cosine(y),
            _ => 0.0,
        }
    }

    /// Equation 1 over two embedded phrases: the mean of
    /// [`pair_similarity`](Self::pair_similarity) over all word pairs, `0`
    /// if either phrase has no content word.
    pub fn mean_pair_similarity(xs: &[Arc<SpaceVector>], ys: &[Arc<SpaceVector>]) -> f32 {
        if xs.is_empty() || ys.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f32;
        for x in xs {
            for y in ys {
                total += Self::pair_similarity(x, y);
            }
        }
        total / (xs.len() as f32 * ys.len() as f32)
    }
}

/// Sentence embedding (GPT-3 coarse-grained substitute): mean pooling of
/// word vectors over content words, with the char model for OOV words pooled
/// into the same vector (losing the cross-space distinction — which is why
/// the coarse-grained variant degrades on identifier-heavy KGs, Table 4).
#[derive(Debug, Default, Clone)]
pub struct SentenceEmbedder {
    provider: EmbeddingProvider,
}

impl SentenceEmbedder {
    /// Create the sentence embedder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Embed an entire phrase into a single vector.
    pub fn embed(&self, phrase: &str) -> NormedVector {
        let mut v = [0.0f32; EMBEDDING_DIM];
        let mut count = 0usize;
        for_each_content_word(phrase, |word| {
            let word_vector = self.provider.embed_word(word);
            for (x, y) in v.iter_mut().zip(word_vector.vector().iter()) {
                *x += y;
            }
            count += 1;
        });
        if count > 0 {
            for x in v.iter_mut() {
                *x /= count as f32;
            }
        }
        NormedVector::normalized(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cosine similarity between two vectors (assumed same length).
    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        cosine_of(dot(a, b), l2_norm(a), l2_norm(b))
    }

    #[test]
    fn embeddings_are_deterministic_and_normalised() {
        let model = WordEmbedding;
        let a = model.embed("sea");
        let b = model.embed("sea");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        assert_eq!(a.len(), EMBEDDING_DIM);
    }

    #[test]
    fn synonyms_are_closer_than_unrelated_words() {
        let model = WordEmbedding;
        let wife = model.embed("wife");
        let spouse = model.embed("spouse");
        let river = model.embed("river");
        assert!(cosine(&wife, &spouse) > 0.6, "synonyms should be close");
        assert!(cosine(&wife, &spouse) > cosine(&wife, &river) + 0.3);
    }

    #[test]
    fn paper_examples_rank_correctly() {
        let model = WordEmbedding;
        // "flow" should be closer to "outflow" than to "cities".
        let flow = model.embed("flow");
        assert!(cosine(&flow, &model.embed("outflow")) > cosine(&flow, &model.embed("cities")));
        // "shore" closer to "nearest" (nearestCity) than to "country".
        let shore = model.embed("shore");
        assert!(cosine(&shore, &model.embed("nearest")) > cosine(&shore, &model.embed("country")));
    }

    #[test]
    fn inflected_forms_share_similarity_via_stemming() {
        let model = WordEmbedding;
        assert!(cosine(&model.embed("flows"), &model.embed("flow")) > 0.5);
        assert!(cosine(&model.embed("cities"), &model.embed("city")) > 0.3);
    }

    #[test]
    fn identical_words_have_similarity_one() {
        let model = WordEmbedding;
        let v = model.embed("kaliningrad");
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn char_embedding_captures_spelling_similarity() {
        let chars = CharNgramEmbedding;
        let a = chars.embed("kaliningrad");
        let b = chars.embed("kaliningrd"); // typo
        let c = chars.embed("melbourne");
        assert!(cosine(&a, &b) > cosine(&a, &c));
        assert!(cosine(&a, &b) > 0.6);
    }

    #[test]
    fn char_embedding_handles_short_and_numeric_strings() {
        let chars = CharNgramEmbedding;
        let a = chars.embed("x");
        assert_eq!(a.len(), EMBEDDING_DIM);
        let b = chars.embed("2279569217");
        let c = chars.embed("2279569218");
        assert!(cosine(&b, &c) > 0.5, "near-identical ids share trigrams");
    }

    #[test]
    fn provider_routes_oov_words_to_char_space() {
        let provider = EmbeddingProvider::new();
        assert!(matches!(*provider.embed_word("sea"), SpaceVector::Word(_)));
        assert!(matches!(*provider.embed_word("p227"), SpaceVector::Char(_)));
        assert!(matches!(
            *provider.embed_word("2279569217"),
            SpaceVector::Char(_)
        ));
    }

    #[test]
    fn cross_space_similarity_is_zero() {
        let provider = EmbeddingProvider::new();
        let word = provider.embed_word("sea");
        let code = provider.embed_word("2279569217");
        assert_eq!(EmbeddingProvider::pair_similarity(&word, &code), 0.0);
    }

    #[test]
    fn embed_phrase_drops_stop_words() {
        let provider = EmbeddingProvider::new();
        let vs = provider.embed_phrase("the city on the shore");
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn sentence_embedder_similarity_behaves() {
        let s = SentenceEmbedder::new();
        let similarity = |a, b| s.embed(a).cosine(&s.embed(b));
        let sim_related = similarity("city on the shore", "nearest city");
        let sim_unrelated = similarity("city on the shore", "academic paper citation");
        assert!(sim_related > sim_unrelated);
        assert!((similarity("wife", "wife") - 1.0).abs() < 1e-5);
        assert_eq!(s.embed("").len(), EMBEDDING_DIM);
    }

    #[test]
    fn stemming_examples() {
        assert_eq!(stem("flows"), "flow");
        assert_eq!(stem("publications"), "public");
        assert_eq!(stem("cited"), "cit");
        assert_eq!(stem("sea"), "sea");
    }

    /// Bitwise comparison of a memoised vector with the reference one.
    fn assert_matches_oracle(provider: &EmbeddingProvider, word: &str) {
        let (in_word_space, expected) = oracle::embed_word(word);
        let got = provider.embed_word(word);
        assert_eq!(
            matches!(*got, SpaceVector::Word(_)),
            in_word_space,
            "{word:?}"
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.vector()), bits(&expected), "{word:?}");
        assert_eq!(
            got.vector().norm.to_bits(),
            l2_norm(&expected).to_bits(),
            "{word:?}"
        );
    }

    #[test]
    fn vectors_match_the_reference_derivation_bitwise() {
        let provider = EmbeddingProvider::new();
        for word in [
            "sea",
            "flows",
            "publications",
            "works",
            "kaliningrad",
            "2279569217",
            "p227",
            "x",
            "",
            "covid-19",
            "o'brien's",
            "i\u{307}stanbul",
            "οδυσσευς",
            "straße",
        ] {
            assert_matches_oracle(&provider, word);
        }
    }

    #[test]
    fn shards_at_cap_start_over_and_scores_stay_identical() {
        let provider = EmbeddingProvider::new();
        // Four times the words the (test-sized) memo holds, alternating
        // between the character space ("w17") and the word space ("wr").
        let words: Vec<String> = (0..4 * MEMO_SHARDS * MEMO_SHARD_CAP)
            .map(|i| match i % 2 {
                0 => format!("w{i}"),
                _ => format!(
                    "w{}{}",
                    char::from(b'a' + (i / 26 % 26) as u8),
                    char::from(b'a' + (i % 26) as u8)
                ),
            })
            .collect();
        // Every shard is emptied several times per pass; the second pass
        // meets a mix of words still held and words dropped.
        for _ in 0..2 {
            for word in &words {
                assert_matches_oracle(&provider, word);
            }
        }
        for shard in &WORD_MEMO.shards {
            let held = shard.read().unwrap().len();
            assert!((1..=MEMO_SHARD_CAP).contains(&held), "{held}");
        }

        let sentences = SentenceEmbedder::new();
        for pair in words.chunks_exact(6) {
            let (a, b) = (pair[..3].join(" "), pair[3..].join(" "));
            let eq1 = EmbeddingProvider::mean_pair_similarity(
                &provider.embed_phrase(&a),
                &provider.embed_phrase(&b),
            );
            assert_eq!(eq1.to_bits(), oracle::fine_grained_score(&a, &b).to_bits());
            assert_eq!(
                sentences.embed(&a).cosine(&sentences.embed(&b)).to_bits(),
                oracle::coarse_grained_score(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
