//! The in-memory triple store: dictionary + sextuple indices + text index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::dictionary::{Dictionary, TermId};
use crate::error::RdfError;
use crate::index::{PartitionRange, ScanCursor, TripleIndex};
use crate::stats::{GraphStats, PlannerStats};
use crate::term::Term;
use crate::text::TextIndex;
use crate::triple::{EncodedTriple, EncodedTriplePattern, Triple};

/// Lifetime totals of the maintenance probe counters of one store lineage.
///
/// All counters live behind `Arc`s shared by every clone of a store —
/// including the epoch snapshots a [`crate::live::LiveStore`] publishes —
/// so reading them from any clone reports the lineage-wide totals.  They
/// exist so tests (and the ingest benches) can *prove* maintenance claims:
/// an append-only ingest batch must raise the incremental counters while
/// leaving the full-recompute counters untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceCounters {
    /// Full `PlannerStats` scans triggered lazily by
    /// [`Store::planner_stats`] on a cache miss.
    pub stats_full_scans: u64,
    /// Pre-derived `PlannerStats` installs (the incremental path: a live
    /// store folds the batch delta into sketches and installs the result).
    pub stats_incremental_installs: u64,
    /// Sorted index base runs produced by merging an existing run with the
    /// sorted pending triples — never a re-sort of the run.
    pub index_base_merges: u64,
    /// Sorted index base runs built from the pending triples alone (the
    /// initial bulk load).
    pub index_base_builds: u64,
    /// Dictionary head segments sealed.
    pub dict_freezes: u64,
    /// Dictionary segment compactions (geometric merges).
    pub dict_merges: u64,
    /// Text-index head segments sealed.
    pub text_freezes: u64,
    /// Text-index segment compactions (geometric merges).
    pub text_merges: u64,
}

/// A term-level triple pattern: unbound positions are `None`.
///
/// This is a convenience layer for external callers working with [`Term`]s;
/// internally the store encodes it once into an [`EncodedTriplePattern`] and
/// answers it through the id-level scan path ([`Store::scan`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject constraint.
    pub subject: Option<Term>,
    /// Predicate constraint.
    pub predicate: Option<Term>,
    /// Object constraint.
    pub object: Option<Term>,
}

impl TriplePattern {
    /// A fully unbound pattern matching every triple.
    pub fn any() -> Self {
        Self::default()
    }

    /// Set the subject constraint.
    pub fn with_subject(mut self, term: Term) -> Self {
        self.subject = Some(term);
        self
    }

    /// Set the predicate constraint.
    pub fn with_predicate(mut self, term: Term) -> Self {
        self.predicate = Some(term);
        self
    }

    /// Set the object constraint.
    pub fn with_object(mut self, term: Term) -> Self {
        self.object = Some(term);
        self
    }
}

/// An in-memory RDF store with dictionary encoding, six-way triple indices
/// and a built-in full-text index over string literals.
#[derive(Debug, Default, Clone)]
pub struct Store {
    dictionary: Dictionary,
    index: TripleIndex,
    text: TextIndex,
    /// Lazily computed planner summaries ([`Store::planner_stats`]);
    /// invalidated whenever a triple is actually added.
    planner_stats: OnceLock<Arc<PlannerStats>>,
    stats_full_scans: Arc<AtomicU64>,
    stats_incremental_installs: Arc<AtomicU64>,
}

impl Store {
    /// Create an empty store with the full sextuple index layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples in the store.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The built-in full-text index.
    pub fn text_index(&self) -> &TextIndex {
        &self.text
    }

    /// Insert a term-level triple.  Invalid triples (literal subjects,
    /// non-IRI predicates) are rejected.
    pub fn try_insert(&mut self, triple: Triple) -> Result<bool, RdfError> {
        Ok(self.try_insert_encoded(triple)?.is_some())
    }

    /// Insert a term-level triple, returning its encoded form when it was
    /// actually new (`None` for duplicates).  The ingest path uses the
    /// encoded delta to maintain planner stats incrementally.
    pub(crate) fn try_insert_encoded(
        &mut self,
        triple: Triple,
    ) -> Result<Option<EncodedTriple>, RdfError> {
        if !triple.is_valid() {
            return Err(RdfError::InvalidTriple(triple.to_string()));
        }
        let s = self.dictionary.intern(triple.subject);
        let p = self.dictionary.intern(triple.predicate);
        let object = triple.object;
        let is_string_literal = object.is_string_literal();
        let literal_text = if is_string_literal {
            object.as_literal().map(|l| l.lexical.clone())
        } else {
            None
        };
        let o = self.dictionary.intern(object);
        if let Some(text) = literal_text {
            self.text.index_literal(o, &text);
        }
        let encoded = EncodedTriple::new(s, p, o);
        let added = self.index.insert(encoded);
        if added {
            self.planner_stats = OnceLock::new();
            Ok(Some(encoded))
        } else {
            Ok(None)
        }
    }

    /// Insert a term-level triple, panicking on structurally invalid input.
    ///
    /// Most callers build triples programmatically where validity is known;
    /// use [`Store::try_insert`] when loading untrusted data.
    pub fn insert(&mut self, triple: Triple) -> bool {
        self.try_insert(triple).expect("invalid RDF triple")
    }

    /// Bulk-insert triples, returning how many were new.
    pub fn insert_all<I: IntoIterator<Item = Triple>>(&mut self, triples: I) -> usize {
        triples
            .into_iter()
            .filter(|t| self.insert(t.clone()))
            .count()
    }

    /// True if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dictionary.id_of(&triple.subject),
            self.dictionary.id_of(&triple.predicate),
            self.dictionary.id_of(&triple.object),
        ) else {
            return false;
        };
        self.index.contains(EncodedTriple::new(s, p, o))
    }

    /// Look up a term's dictionary id, if interned.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dictionary.id_of(term)
    }

    /// Resolve a dictionary id back to its term.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        self.dictionary.term_of(id)
    }

    /// Encode a term-level pattern into the id-level form.
    ///
    /// Returns `None` if any bound term is absent from the dictionary — the
    /// pattern then cannot match anything in this store.
    pub fn encode_pattern(&self, pattern: &TriplePattern) -> Option<EncodedTriplePattern> {
        let encode = |term: &Option<Term>| -> Option<Option<TermId>> {
            match term {
                None => Some(None),
                Some(t) => self.dictionary.id_of(t).map(Some),
            }
        };
        Some(EncodedTriplePattern::new(
            encode(&pattern.subject)?,
            encode(&pattern.predicate)?,
            encode(&pattern.object)?,
        ))
    }

    /// Scan an id-level pattern, yielding matching triples without
    /// materialising them.  This is the native access path; callers holding
    /// [`Term`]s encode once ([`Store::encode_pattern`]) and decode only the
    /// triples they keep ([`Store::decode`]).  It is [`Store::scan_from`]
    /// with a fresh cursor: the range is found by one binary search for its
    /// start and a gallop from there to its end.
    ///
    /// The iterator's length is exact (the size of the sought range), and
    /// `nth(k)` skips `k` matches in `O(log k)` without walking them: an
    /// `OFFSET` that covers a whole range, or ends inside one, is counted
    /// off, not scanned.
    pub fn scan(
        &self,
        pattern: EncodedTriplePattern,
    ) -> impl ExactSizeIterator<Item = EncodedTriple> + '_ {
        self.scan_from(pattern, &mut ScanCursor::default())
    }

    /// [`Store::scan`], seeking the pattern's range from where `cursor`'s
    /// last seek landed and leaving the cursor where this range starts.
    ///
    /// A caller that scans many patterns in ascending key order — a join
    /// step fed by a driver that walks an index — threads one cursor
    /// through them, and each seek gallops over the keys since the last one
    /// instead of binary-searching the whole run.  The triples are the
    /// same whatever the cursor holds (see [`ScanCursor`]), and so is the
    /// exact length and the cheap `nth` of [`Store::scan`].
    pub fn scan_from(
        &self,
        pattern: EncodedTriplePattern,
        cursor: &mut ScanCursor,
    ) -> impl ExactSizeIterator<Item = EncodedTriple> + '_ {
        self.index
            .iter_matching(pattern.subject, pattern.predicate, pattern.object, cursor)
    }

    /// Count the matches of an id-level pattern without materialising them.
    pub fn scan_count(&self, pattern: EncodedTriplePattern) -> usize {
        self.index
            .count_matching(pattern.subject, pattern.predicate, pattern.object)
    }

    /// [`Store::scan_count`] for many patterns in one call: `counts[i]` is
    /// the count of `patterns[i]`.  Panics unless the slices are the same
    /// length.
    ///
    /// The searches of up to 16 patterns run interleaved, so their memory
    /// loads overlap instead of each waiting for the last: a caller with
    /// several ranges to count (an `OFFSET` skipping a join step's ranges)
    /// pays for about half the seeks.  Equal consecutive patterns are
    /// counted once.
    pub fn scan_counts(&self, patterns: &[EncodedTriplePattern], counts: &mut [usize]) {
        self.index.count_matching_many(patterns, counts);
    }

    /// Split an id-level pattern scan into at most `n` contiguous key ranges
    /// (*morsels*) for parallel execution.
    ///
    /// The ranges are disjoint, in key order, and together cover exactly the
    /// matches [`Store::scan`] would yield — concatenating
    /// [`Store::scan_within`] streams in range order reproduces the
    /// sequential scan byte-for-byte, which is what keeps morsel-parallel
    /// query execution deterministic.  Ranges are balanced over the sorted
    /// index base run; fewer than `n` come back when the scan is too small
    /// to split.
    pub fn scan_partitions(&self, pattern: EncodedTriplePattern, n: usize) -> Vec<PartitionRange> {
        self.index
            .partition_matching(pattern.subject, pattern.predicate, pattern.object, n)
    }

    /// Scan an id-level pattern clipped to one partition produced by
    /// [`Store::scan_partitions`] for the same pattern on the same
    /// (unmutated) store.
    pub fn scan_within(
        &self,
        pattern: EncodedTriplePattern,
        range: PartitionRange,
    ) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.index
            .iter_matching_within(pattern.subject, pattern.predicate, pattern.object, range)
    }

    /// Count the matches of a term-level pattern.
    pub fn count_matching(&self, pattern: &TriplePattern) -> usize {
        match self.encode_pattern(pattern) {
            Some(encoded) => self.scan_count(encoded),
            None => 0,
        }
    }

    /// Find vertices whose *description* (any string literal they point at
    /// through any predicate) contains any of `words`.
    ///
    /// This is the store-level primitive behind the paper's
    /// `potentialRelevantVertices(l_n, maxVR)` SPARQL query: it returns
    /// `(vertex, description literal)` pairs, at most `max_results`, ranked
    /// by the number of matched words.
    pub fn vertices_with_description_containing(
        &self,
        words: &[&str],
        max_results: usize,
    ) -> Vec<(Term, Term)> {
        let mut out = Vec::new();
        // Over-fetch literals: several vertices may share one literal value.
        let literal_matches = self.text.search_any(words, max_results.saturating_mul(4));
        // One cursor for every literal's seek: the matches of one match
        // count come in ascending id order, so most seeks gallop forward.
        let mut cursor = ScanCursor::default();
        'outer: for m in literal_matches {
            let literal = self.decode_term(m.literal);
            // All triples with this literal as object, via the OPS index.
            let pattern = EncodedTriplePattern::any().with_object(m.literal);
            for triple in self.scan_from(pattern, &mut cursor) {
                out.push((self.decode_term(triple.subject), literal.clone()));
                if out.len() >= max_results {
                    break 'outer;
                }
            }
        }
        out
    }

    /// Iterate every triple in the store, decoded, in (object, predicate,
    /// subject) id order: the ordering a fully unbound scan reads.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.scan(EncodedTriplePattern::any())
            .map(move |t| self.decode(t))
    }

    /// Compute summary statistics over the graph.
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(self)
    }

    /// Per-predicate/class cardinality summaries for the query planner.
    ///
    /// Computed lazily in one id-space pass and cached behind an `Arc`, so
    /// every candidate query planned against an unchanged store shares the
    /// same snapshot for free; inserting a new triple invalidates the cache
    /// and the next call recomputes.
    pub fn planner_stats(&self) -> Arc<PlannerStats> {
        Arc::clone(self.cached_planner_stats())
    }

    /// [`Store::planner_stats`], borrowed for as long as the store is: a
    /// planner that holds the store reads them without touching the
    /// `Arc`'s shared reference count.
    pub fn planner_stats_ref(&self) -> &PlannerStats {
        self.cached_planner_stats()
    }

    fn cached_planner_stats(&self) -> &Arc<PlannerStats> {
        self.planner_stats.get_or_init(|| {
            self.stats_full_scans.fetch_add(1, Ordering::Relaxed);
            Arc::new(PlannerStats::compute(self))
        })
    }

    /// Install pre-derived planner stats (the incremental maintenance path
    /// of [`crate::live::LiveStore`]), replacing any cached summary.
    pub(crate) fn install_planner_stats(&mut self, stats: Arc<PlannerStats>) {
        self.planner_stats = OnceLock::from(stats);
        self.stats_incremental_installs
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Seal the store's mutable write state into immutable, `Arc`-shared
    /// runs: the pending index triples are merged into the sorted base runs,
    /// and the dictionary and text-index heads are frozen into segments.
    ///
    /// Ids, contents and query results are unaffected — only the storage
    /// generation changes.  After a compact, cloning the store (which is how
    /// [`crate::live::LiveStore`] publishes an epoch snapshot) costs a
    /// handful of reference-count bumps instead of a deep copy.  Compacting
    /// an already sealed store is a no-op.
    pub fn compact(&mut self) {
        self.index.flush_pending();
        self.dictionary.freeze();
        self.text.freeze();
    }

    /// A snapshot of the lifetime maintenance probe counters of this store
    /// lineage (shared across clones and epoch snapshots; see
    /// [`MaintenanceCounters`]).
    pub fn maintenance_counters(&self) -> MaintenanceCounters {
        let index = self.index.counters();
        let (dict_freezes, dict_merges) = self.dictionary.counter_values();
        let (text_freezes, text_merges) = self.text.counter_values();
        MaintenanceCounters {
            stats_full_scans: self.stats_full_scans.load(Ordering::Relaxed),
            stats_incremental_installs: self.stats_incremental_installs.load(Ordering::Relaxed),
            index_base_merges: index.base_merges,
            index_base_builds: index.base_builds,
            dict_freezes,
            dict_merges,
            text_freezes,
            text_merges,
        }
    }

    /// Approximate total heap footprint of the store (dictionary + indices +
    /// text index), in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.dictionary.approx_bytes() + self.index.approx_bytes() + self.text.approx_bytes()
    }

    fn decode_term(&self, id: TermId) -> Term {
        self.dictionary
            .term_of(id)
            .cloned()
            .expect("term id produced by this store's own index")
    }

    /// Decode an encoded triple back to term level.
    pub fn decode(&self, t: EncodedTriple) -> Triple {
        Triple::new(
            self.decode_term(t.subject),
            self.decode_term(t.predicate),
            self.decode_term(t.object),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    impl Store {
        /// Match a term-level pattern, returning decoded triples (empty when
        /// a bound term is not in the dictionary).
        fn matching(&self, pattern: &TriplePattern) -> Vec<Triple> {
            let Some(encoded) = self.encode_pattern(pattern) else {
                return Vec::new();
            };
            self.scan(encoded).map(|t| self.decode(t)).collect()
        }
    }

    fn example_store() -> Store {
        let mut store = Store::new();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");
        store.insert(Triple::new(
            sea.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Baltic Sea"),
        ));
        store.insert(Triple::new(
            straits.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Danish Straits"),
        ));
        store.insert(Triple::new(
            kali.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Kaliningrad"),
        ));
        store.insert(Triple::new(
            yantar.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Yantar, Kaliningrad"),
        ));
        store.insert(Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/property/outflow"),
            straits,
        ));
        store.insert(Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/ontology/nearestCity"),
            kali,
        ));
        store.insert(Triple::new(
            sea,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ));
        store
    }

    #[test]
    fn insert_and_len_and_contains() {
        let store = example_store();
        assert_eq!(store.len(), 7);
        assert!(store.contains(&Triple::new(
            Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        )));
        assert!(!store.contains(&Triple::new(
            Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/River"),
        )));
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut store = Store::new();
        let t = Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::literal_str("x"),
        );
        assert!(store.insert(t.clone()));
        assert!(!store.insert(t));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn invalid_triples_are_rejected() {
        let mut store = Store::new();
        let bad = Triple::new(
            Term::literal_str("literal subject"),
            Term::iri("http://e/p"),
            Term::literal_str("x"),
        );
        assert!(store.try_insert(bad).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn matching_by_pattern_shapes() {
        let store = example_store();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");

        let all = store.matching(&TriplePattern::any());
        assert_eq!(all.len(), 7);

        let sea_out = store.matching(&TriplePattern::any().with_subject(sea.clone()));
        assert_eq!(sea_out.len(), 4);

        let labels =
            store.matching(&TriplePattern::any().with_predicate(Term::iri(vocab::RDFS_LABEL)));
        assert_eq!(labels.len(), 4);

        let typed = store.matching(
            &TriplePattern::any()
                .with_subject(sea)
                .with_predicate(Term::iri(vocab::RDF_TYPE)),
        );
        assert_eq!(typed.len(), 1);
        assert_eq!(
            typed[0].object,
            Term::iri("http://dbpedia.org/ontology/Sea")
        );
    }

    #[test]
    fn encoded_scan_agrees_with_term_level_matching() {
        let store = example_store();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let pattern = TriplePattern::any().with_subject(sea.clone());
        let encoded = store.encode_pattern(&pattern).expect("sea is interned");
        assert_eq!(encoded.subject, store.id_of(&sea));
        assert_eq!(store.scan(encoded).count(), 4);
        assert_eq!(store.scan_count(encoded), 4);
        let decoded: Vec<Triple> = store.scan(encoded).map(|t| store.decode(t)).collect();
        assert_eq!(decoded, store.matching(&pattern));

        // Unknown bound term: the pattern cannot be encoded at all.
        let unknown = TriplePattern::any().with_subject(Term::iri("http://nowhere/x"));
        assert!(store.encode_pattern(&unknown).is_none());
    }

    #[test]
    fn matching_with_unknown_term_is_empty() {
        let store = example_store();
        let unknown = TriplePattern::any().with_subject(Term::iri("http://nowhere/x"));
        assert!(store.matching(&unknown).is_empty());
        assert_eq!(store.count_matching(&unknown), 0);
    }

    #[test]
    fn vertices_with_description_containing_finds_partial_matches() {
        let store = example_store();
        // "Kaliningrad" should hit both Kaliningrad and Yantar,_Kaliningrad —
        // exactly the running example of Figure 4.
        let hits = store.vertices_with_description_containing(&["kaliningrad"], 400);
        let subjects: Vec<&str> = hits.iter().filter_map(|(v, _)| v.as_iri()).collect();
        assert!(subjects.contains(&"http://dbpedia.org/resource/Kaliningrad"));
        assert!(subjects.contains(&"http://dbpedia.org/resource/Yantar,_Kaliningrad"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn vertices_with_description_respects_limit() {
        let mut store = Store::new();
        for i in 0..50 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/city{i}")),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str(format!("city number {i}")),
            ));
        }
        let hits = store.vertices_with_description_containing(&["city"], 10);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn iter_round_trips_all_triples() {
        let store = example_store();
        let collected: Vec<Triple> = store.iter().collect();
        assert_eq!(collected.len(), store.len());
        for t in &collected {
            assert!(store.contains(t));
        }
    }

    #[test]
    fn only_string_literals_are_text_indexed() {
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/population"),
            Term::integer(431000),
        ));
        store.insert(Triple::new(
            Term::iri("http://e/s"),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Kaliningrad"),
        ));
        assert_eq!(store.text_index().num_literals(), 1);
    }

    #[test]
    fn approx_bytes_is_nonzero_for_nonempty_store() {
        let store = example_store();
        assert!(store.approx_bytes() > 0);
    }

    #[test]
    fn compact_preserves_contents_and_seals_write_state() {
        let mut store = example_store();
        let before: Vec<Triple> = store.iter().collect();
        store.compact();
        let after: Vec<Triple> = store.iter().collect();
        assert_eq!(before, after);
        assert_eq!(store.len(), 7);
        assert!(store.contains(&before[0]));
        assert_eq!(store.text_index().num_literals(), 4);

        let counters = store.maintenance_counters();
        assert_eq!(counters.index_base_builds, 1);
        assert_eq!(counters.dict_freezes, 1);
        assert_eq!(counters.text_freezes, 1);

        // Compacting a sealed store is a no-op.
        store.compact();
        assert_eq!(store.maintenance_counters(), counters);

        // Inserting after a compact still works, and a duplicate of a sealed
        // triple is still recognised as a duplicate.
        assert!(!store.insert(before[0].clone()));
        assert!(store.insert(Triple::new(
            Term::iri("http://e/fresh"),
            Term::iri("http://e/p"),
            Term::literal_str("fresh literal"),
        )));
        assert_eq!(store.len(), 8);
        store.compact();
        assert_eq!(store.maintenance_counters().index_base_merges, 1);
    }

    #[test]
    fn lazy_planner_stats_count_as_full_scans() {
        let mut store = example_store();
        assert_eq!(store.maintenance_counters().stats_full_scans, 0);
        let _ = store.planner_stats();
        let _ = store.planner_stats(); // cached: no second scan
        assert_eq!(store.maintenance_counters().stats_full_scans, 1);
        store.insert(Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        ));
        let _ = store.planner_stats();
        assert_eq!(store.maintenance_counters().stats_full_scans, 2);
        assert_eq!(store.maintenance_counters().stats_incremental_installs, 0);
    }
}
