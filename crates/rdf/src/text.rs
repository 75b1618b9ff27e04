//! Built-in full-text index over string literals.
//!
//! All RDF engines the paper targets (Virtuoso, Stardog, Apache Jena) build
//! full-text indices over literals by default, exposed through proprietary
//! SPARQL extensions (`bif:contains`, `stardog:textMatch`, `text:query`).
//! KGQAn's `potentialRelevantVertices` query — the heart of JIT entity
//! linking — is answered entirely by this index.
//!
//! The index maps lower-cased word tokens to the set of literal term ids that
//! contain them, and additionally records, per literal, the set of subject
//! vertices that point at the literal through *any* predicate, because the
//! linker asks for vertices `?v` such that `?v ?p ?d_v` and `?d_v` contains
//! the query words.
//!
//! Like the dictionary, the index is **generational**: new literals are
//! posted into a small mutable head segment and [`TextIndex::freeze`] seals
//! the head into an immutable, `Arc`-shared segment (with geometric
//! compaction of trailing segments).  Because every literal id lives in
//! exactly one segment, per-token posting lists are disjoint across
//! segments and searches simply accumulate over them — so an ingest batch
//! appends postings instead of rewriting the inverted index, and epoch
//! snapshots share the sealed segments by reference count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::dictionary::TermId;
use crate::hash::{FxHashMap, FxHashSet};
use crate::segments;

/// A match returned from a text search: the literal that matched and how many
/// of the query words it contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextMatch {
    /// Dictionary id of the matching string literal.
    pub literal: TermId,
    /// How many distinct query words appear in the literal.
    pub matched_words: usize,
}

/// One immutable run of indexed literals: an inverted token → literal-id map
/// plus per-literal token counts.
#[derive(Debug, Default, Clone)]
struct TextSegment {
    postings: FxHashMap<String, FxHashSet<TermId>>,
    literal_tokens: FxHashMap<TermId, u32>,
    total_postings: usize,
}

/// Inverted index token → literal ids, with token statistics.
#[derive(Debug, Default, Clone)]
pub struct TextIndex {
    frozen: Vec<Arc<TextSegment>>,
    head: TextSegment,
    freezes: Arc<AtomicU64>,
    merges: Arc<AtomicU64>,
}

/// Tokenize a string for full-text indexing: lowercase, split on
/// non-alphanumeric characters, drop empty tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

impl TextIndex {
    /// Create an empty text index.
    pub fn new() -> Self {
        Self::default()
    }

    /// All segments, oldest first, ending with the mutable head.
    fn segments(&self) -> impl Iterator<Item = &TextSegment> {
        self.frozen
            .iter()
            .map(|seg| seg.as_ref())
            .chain(std::iter::once(&self.head))
    }

    /// Index a string literal under its dictionary id.
    pub fn index_literal(&mut self, literal: TermId, text: &str) {
        if self.contains_literal(literal) {
            return; // dictionary ids are unique per literal; already indexed
        }
        let tokens = tokenize(text);
        self.head
            .literal_tokens
            .insert(literal, tokens.len() as u32);
        for token in tokens {
            let entry = self.head.postings.entry(token).or_default();
            if entry.insert(literal) {
                self.head.total_postings += 1;
            }
        }
    }

    /// Seal the mutable head into an immutable, `Arc`-shared segment.
    ///
    /// Posting lists already sealed are untouched — a freeze moves the head
    /// wholesale and then merges trailing segments while the second-newest
    /// holds fewer literals than twice the newest, keeping the segment count
    /// logarithmic.  An empty head is a no-op.
    pub fn freeze(&mut self) {
        if self.head.literal_tokens.is_empty() {
            return;
        }
        let head = std::mem::take(&mut self.head);
        self.frozen.push(Arc::new(head));
        self.freezes.fetch_add(1, Ordering::Relaxed);

        let len = |seg: &TextSegment| seg.literal_tokens.len();
        let merges = segments::compact(&mut self.frozen, len, |a, b| {
            let mut merged = TextSegment {
                postings: a.postings.clone(),
                literal_tokens: a.literal_tokens.clone(),
                total_postings: a.total_postings + b.total_postings,
            };
            for (token, literals) in &b.postings {
                merged
                    .postings
                    .entry(token.clone())
                    .or_default()
                    .extend(literals.iter().copied());
            }
            merged
                .literal_tokens
                .extend(b.literal_tokens.iter().map(|(&id, &n)| (id, n)));
            merged
        });
        self.merges.fetch_add(merges, Ordering::Relaxed);
    }

    /// Number of frozen segments plus the head if it is non-empty.
    pub fn num_segments(&self) -> usize {
        self.frozen.len() + usize::from(!self.head.literal_tokens.is_empty())
    }

    /// Lifetime (freeze, merge) counter values, shared across clones.
    pub(crate) fn counter_values(&self) -> (u64, u64) {
        (
            self.freezes.load(Ordering::Relaxed),
            self.merges.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct literals indexed.
    pub fn num_literals(&self) -> usize {
        self.segments().map(|seg| seg.literal_tokens.len()).sum()
    }

    /// True if the given dictionary id is an indexed string literal.
    ///
    /// Because the store text-indexes *every* string-literal object (and
    /// nothing else), this doubles as an id-level "is this term a string
    /// literal?" test — which is what lets graph statistics run entirely in
    /// id space without decoding a single term.
    pub fn contains_literal(&self, literal: TermId) -> bool {
        self.segments()
            .any(|seg| seg.literal_tokens.contains_key(&literal))
    }

    /// An upper bound on how many literals [`TextIndex::search_any`] can
    /// return for these words, in `O(words × segments)`: the sum of the
    /// posting-list lengths, clamped to the number of indexed literals.
    ///
    /// The query planner uses this to cost a `bif:contains` step without
    /// running the search.
    pub fn estimate_any(&self, words: &[&str]) -> usize {
        let mut total = 0usize;
        for word in words {
            let token = word.to_lowercase();
            for seg in self.segments() {
                if let Some(literals) = seg.postings.get(&token) {
                    total = total.saturating_add(literals.len());
                }
            }
        }
        total.min(self.num_literals())
    }

    /// Number of distinct tokens in the index.
    pub fn num_tokens(&self) -> usize {
        if self.frozen.is_empty() {
            return self.head.postings.len();
        }
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        for seg in self.segments() {
            seen.extend(seg.postings.keys().map(String::as_str));
        }
        seen.len()
    }

    /// Search for literals containing **any** of the given words
    /// (a disjunctive `bif:contains` expression, which is what the
    /// `potentialRelevantVertices` query of Section 5.1 issues).
    ///
    /// Results are ranked by the number of distinct query words matched
    /// (descending), then by literal id for determinism, and truncated to
    /// `limit` entries — mirroring the `LIMIT maxVR` clause.  Per-token
    /// posting lists are disjoint across segments, so accumulating over all
    /// segments counts each (literal, word) pair exactly once.
    pub fn search_any(&self, words: &[&str], limit: usize) -> Vec<TextMatch> {
        let mut counts: FxHashMap<TermId, usize> = FxHashMap::default();
        for word in words {
            let token = word.to_lowercase();
            for seg in self.segments() {
                if let Some(literals) = seg.postings.get(&token) {
                    for &lit in literals {
                        *counts.entry(lit).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut matches: Vec<TextMatch> = counts
            .into_iter()
            .map(|(literal, matched_words)| TextMatch {
                literal,
                matched_words,
            })
            .collect();
        // A total order (literal ids are distinct), so selecting the first
        // `limit` and sorting only those gives the full sort's prefix.
        let rank = |a: &TextMatch, b: &TextMatch| {
            b.matched_words
                .cmp(&a.matched_words)
                .then(a.literal.cmp(&b.literal))
        };
        if limit < matches.len() {
            matches.select_nth_unstable_by(limit, rank);
            matches.truncate(limit);
        }
        matches.sort_unstable_by(rank);
        matches
    }

    /// Search for literals containing **all** of the given words (conjunctive
    /// containment, used by the Falcon-style baseline indexer).
    pub fn search_all(&self, words: &[&str], limit: usize) -> Vec<TextMatch> {
        if words.is_empty() {
            return Vec::new();
        }
        let required = words.len();
        let mut result = self.search_any(words, usize::MAX);
        result.retain(|m| m.matched_words == required);
        result.truncate(limit);
        result
    }

    /// Approximate heap footprint in bytes (token strings + posting entries).
    pub fn approx_bytes(&self) -> usize {
        self.segments()
            .map(|seg| {
                let token_bytes: usize = seg.postings.keys().map(|k| k.len() + 32).sum();
                token_bytes + seg.total_postings * 8 + seg.literal_tokens.len() * 12
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_index(entries: &[(u32, &str)]) -> TextIndex {
        let mut idx = TextIndex::new();
        for &(id, text) in entries {
            idx.index_literal(TermId(id), text);
        }
        idx
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Danish Straits"), vec!["danish", "straits"]);
        assert_eq!(
            tokenize("Yantar,_Kaliningrad"),
            vec!["yantar", "kaliningrad"]
        );
        assert_eq!(tokenize("  multiple   spaces "), vec!["multiple", "spaces"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("C3PO-unit"), vec!["c3po", "unit"]);
    }

    #[test]
    fn search_any_matches_partial_containment() {
        let idx = build_index(&[
            (1, "Kaliningrad"),
            (2, "Yantar, Kaliningrad"),
            (3, "Baltic Sea"),
            (4, "Danish Straits"),
        ]);
        let hits = idx.search_any(&["kaliningrad"], 10);
        let ids: Vec<u32> = hits.iter().map(|m| m.literal.0).collect();
        assert_eq!(ids, vec![1, 2]);

        // Disjunctive: any of the words counts.
        let hits = idx.search_any(&["danish", "straits"], 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].matched_words, 2);
    }

    #[test]
    fn search_ranks_by_matched_word_count() {
        let idx = build_index(&[(1, "city"), (2, "city on the shore"), (3, "shore")]);
        let hits = idx.search_any(&["city", "shore"], 10);
        assert_eq!(hits[0].literal, TermId(2));
        assert_eq!(hits[0].matched_words, 2);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn a_limited_search_is_the_prefix_of_the_unlimited_one() {
        // 60 literals holding 0–3 of the words, ids out of rank order, and
        // spread over several segments.
        let words = ["alpha", "beta", "gamma"];
        let mut idx = TextIndex::new();
        for i in 0..60u32 {
            let id = (i * 37) % 61;
            let text: Vec<&str> = (0..(i % 4) as usize).map(|w| words[w]).collect();
            idx.index_literal(TermId(id), &format!("{} filler", text.join(" ")));
            if i % 9 == 0 {
                idx.freeze();
            }
        }
        let all = idx.search_any(&words, usize::MAX);
        assert_eq!(all.len(), 45);
        for limit in 0..=all.len() + 1 {
            assert_eq!(idx.search_any(&words, limit), all[..limit.min(all.len())]);
        }
    }

    #[test]
    fn search_respects_limit_like_maxvr() {
        let mut idx = TextIndex::new();
        for i in 0..500 {
            idx.index_literal(TermId(i), &format!("entity number {i}"));
        }
        let hits = idx.search_any(&["entity"], 400);
        assert_eq!(hits.len(), 400);
    }

    #[test]
    fn search_all_requires_every_word() {
        let idx = build_index(&[
            (1, "Microsoft Academic Graph"),
            (2, "Microsoft"),
            (3, "Graph"),
        ]);
        let hits = idx.search_all(&["microsoft", "graph"], 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].literal, TermId(1));
        assert!(idx.search_all(&[], 10).is_empty());
    }

    #[test]
    fn search_is_case_insensitive() {
        let idx = build_index(&[(1, "Jim Gray")]);
        assert_eq!(idx.search_any(&["JIM"], 10).len(), 1);
        assert_eq!(idx.search_any(&["gray"], 10).len(), 1);
    }

    #[test]
    fn indexing_same_literal_twice_is_idempotent() {
        let mut idx = TextIndex::new();
        idx.index_literal(TermId(1), "Baltic Sea");
        idx.index_literal(TermId(1), "Baltic Sea");
        assert_eq!(idx.num_literals(), 1);
        assert_eq!(idx.search_any(&["baltic"], 10).len(), 1);
    }

    #[test]
    fn stats_reflect_content() {
        let idx = build_index(&[(1, "a b c"), (2, "c d")]);
        assert_eq!(idx.num_literals(), 2);
        assert_eq!(idx.num_tokens(), 4);
        assert!(idx.approx_bytes() > 0);
    }

    #[test]
    fn unknown_words_match_nothing() {
        let idx = build_index(&[(1, "Baltic Sea")]);
        assert!(idx.search_any(&["zanzibar"], 10).is_empty());
    }

    #[test]
    fn contains_literal_tracks_indexed_ids() {
        let idx = build_index(&[(1, "Baltic Sea"), (7, "Danish Straits")]);
        assert!(idx.contains_literal(TermId(1)));
        assert!(idx.contains_literal(TermId(7)));
        assert!(!idx.contains_literal(TermId(2)));
    }

    #[test]
    fn estimate_any_bounds_the_real_match_count() {
        let idx = build_index(&[
            (1, "Baltic Sea"),
            (2, "North Sea"),
            (3, "sea shore sea"),
            (4, "Danish Straits"),
        ]);
        for words in [
            vec!["sea"],
            vec!["sea", "shore"],
            vec!["danish", "straits"],
            vec!["zanzibar"],
            vec![],
        ] {
            let est = idx.estimate_any(&words);
            let real = idx.search_any(&words, usize::MAX).len();
            assert!(est >= real, "estimate {est} < real {real} for {words:?}");
            assert!(est <= idx.num_literals());
        }
    }

    #[test]
    fn frozen_and_head_segments_answer_together() {
        let mut idx = TextIndex::new();
        idx.index_literal(TermId(1), "Baltic Sea");
        idx.index_literal(TermId(2), "North Sea");
        idx.freeze();
        idx.index_literal(TermId(3), "sea shore");
        assert_eq!(idx.num_literals(), 3);
        let hits = idx.search_any(&["sea"], 10);
        let ids: Vec<u32> = hits.iter().map(|m| m.literal.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(idx.contains_literal(TermId(3)));
        assert_eq!(idx.search_all(&["sea", "shore"], 10).len(), 1);
        assert_eq!(idx.num_tokens(), 4);

        // Idempotence holds across the freeze boundary.
        idx.index_literal(TermId(1), "Baltic Sea");
        assert_eq!(idx.num_literals(), 3);
    }

    #[test]
    fn small_freeze_does_not_merge_into_a_large_segment() {
        let mut idx = TextIndex::new();
        for i in 0..1000 {
            idx.index_literal(TermId(i), &format!("entity number {i}"));
        }
        idx.freeze();
        assert_eq!(idx.num_segments(), 1);
        let (_, merges_before) = idx.counter_values();
        idx.index_literal(TermId(5000), "fresh literal");
        idx.freeze();
        assert_eq!(idx.num_segments(), 2);
        let (freezes, merges_after) = idx.counter_values();
        assert_eq!(freezes, 2);
        assert_eq!(merges_before, merges_after);
    }

    #[test]
    fn repeated_freezes_compact_geometrically() {
        let mut idx = TextIndex::new();
        for i in 0..64 {
            idx.index_literal(TermId(i), &format!("generation {i} entity"));
            idx.freeze();
        }
        assert!(idx.num_segments() <= 8, "got {}", idx.num_segments());
        assert_eq!(idx.num_literals(), 64);
        assert_eq!(idx.search_any(&["entity"], usize::MAX).len(), 64);
        let (_, merges) = idx.counter_values();
        assert!(merges > 0);
    }

    #[test]
    fn clones_share_frozen_segments() {
        let mut idx = build_index(&[(1, "Baltic Sea"), (2, "Danish Straits")]);
        idx.freeze();
        let snapshot = idx.clone();
        idx.index_literal(TermId(3), "fresh shore");
        assert_eq!(snapshot.num_literals(), 2);
        assert_eq!(idx.num_literals(), 3);
        assert!(snapshot.search_any(&["shore"], 10).is_empty());
    }
}
