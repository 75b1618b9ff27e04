//! Dictionary encoding: interning of RDF terms into dense integer ids.
//!
//! Every RDF engine of the class targeted by the paper (Virtuoso, Jena TDB,
//! RDF-3X/Hexastore descendants) stores triples over a term dictionary so
//! that the triple indices operate on fixed-width integers.  This module
//! provides the bidirectional mapping `Term ↔ TermId`.
//!
//! The dictionary is **generational**: terms are interned into a small
//! mutable head, and [`Dictionary::freeze`] seals the head into an
//! immutable, `Arc`-shared segment.  Cloning a frozen dictionary — which
//! the live-ingest path does once per published epoch — therefore bumps a
//! handful of reference counts instead of copying every interned term.
//! Segments are kept geometrically sized (a freeze merges trailing segments
//! until each is at least twice the size of its successor), so lookups probe
//! `O(log n)` segments and merge work is amortised across freezes.
//!
//! The sealed segments sit behind one more `Arc` as a [`FrozenDictionary`],
//! the handle a query result keeps to turn its ids back into terms: taking
//! it is one reference-count bump.  Ids are append-only and never re-used,
//! so a handle taken at any epoch resolves its ids to the same terms as
//! every later epoch's dictionary does.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::segments;
use crate::term::Term;

/// A dense identifier for an interned [`Term`].
///
/// Ids are assigned sequentially from 0 in insertion order, so they can be
/// used directly as indices into side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize`, for indexing into vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One immutable run of interned terms covering the contiguous id range
/// `start .. start + terms.len()`.
struct DictSegment {
    start: u32,
    terms: Vec<Term>,
    forward: FxHashMap<Term, TermId>,
}

impl DictSegment {
    fn len(&self) -> usize {
        self.terms.len()
    }
}

/// The sealed generations of a [`Dictionary`]: every id below
/// [`FrozenDictionary::len`], immutable and shared.
///
/// Cloning is one reference-count bump, and the terms it resolves stay
/// alive as long as the handle does, whatever the dictionary it came from
/// freezes or merges afterwards.  Obtained with [`Dictionary::frozen`].
#[derive(Clone, Default)]
pub struct FrozenDictionary {
    segments: Arc<[Arc<DictSegment>]>,
}

impl FrozenDictionary {
    /// Resolve an id back to its term; `None` for ids this handle does not
    /// cover.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        // A fully merged dictionary (the common sealed-store layout) has one
        // segment covering every sealed id — skip the segment search.
        let seg = match &*self.segments {
            [only] => only,
            segs => {
                let seg_idx = segs.partition_point(|seg| seg.start <= id.0);
                segs.get(seg_idx.checked_sub(1)?)?
            }
        };
        seg.terms.get(id.0.checked_sub(seg.start)? as usize)
    }

    /// Look up the id of a term, newest segment first.
    fn id_of(&self, term: &Term) -> Option<TermId> {
        self.segments
            .iter()
            .rev()
            .find_map(|seg| seg.forward.get(term).copied())
    }

    /// Number of ids covered: `0 .. len()`.
    pub fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |seg| seg.start as usize + seg.len())
    }

    /// True if the handle covers no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summarises, never lists: a handle may cover millions of terms.
impl fmt::Debug for FrozenDictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenDictionary")
            .field("terms", &self.len())
            .field("segments", &self.segments.len())
            .finish()
    }
}

/// A bidirectional mapping between [`Term`]s and [`TermId`]s.
///
/// The forward direction (term → id) is a hash map per segment; the reverse
/// direction is a dense vector per segment, so resolving an id back to a
/// term is a segment lookup plus an O(1) slice access.  Dictionaries that
/// never freeze keep everything in the head and behave exactly like a single
/// map + vector pair.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    frozen: FrozenDictionary,
    /// `frozen.len()`: the first id of the head.
    head_start: u32,
    head_terms: Vec<Term>,
    head_forward: FxHashMap<Term, TermId>,
    freezes: Arc<AtomicU64>,
    merges: Arc<AtomicU64>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id.  Terms already present keep their id.
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.id_of(&term) {
            return id;
        }
        let id = TermId(self.head_start + self.head_terms.len() as u32);
        self.head_forward.insert(term.clone(), id);
        self.head_terms.push(term);
        id
    }

    /// Look up the id of a term without interning it.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        if let Some(&id) = self.head_forward.get(term) {
            return Some(id);
        }
        self.frozen.id_of(term)
    }

    /// Resolve an id back to its term.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        match id.0.checked_sub(self.head_start) {
            Some(offset) => self.head_terms.get(offset as usize),
            None => self.frozen.term_of(id),
        }
    }

    /// The sealed part of the dictionary — every id below the head — as a
    /// shared handle (one reference-count bump).  After a
    /// [`Dictionary::freeze`] it covers every interned term.
    pub fn frozen(&self) -> FrozenDictionary {
        self.frozen.clone()
    }

    /// Seal the mutable head into an immutable, `Arc`-shared segment.
    ///
    /// Ids are unaffected; only the storage generation changes.  Clones
    /// taken after a freeze share the frozen segments by reference count.
    /// Trailing segments are merged while the second-newest is smaller than
    /// twice the newest, keeping the segment count logarithmic.  An empty
    /// head is a no-op.
    pub fn freeze(&mut self) {
        if self.head_terms.is_empty() {
            return;
        }
        let segment = DictSegment {
            start: self.head_start,
            terms: std::mem::take(&mut self.head_terms),
            forward: std::mem::take(&mut self.head_forward),
        };
        self.head_start += segment.len() as u32;
        // Handles taken earlier keep the old list; this one is rebuilt.
        let mut frozen = self.frozen.segments.to_vec();
        frozen.push(Arc::new(segment));
        self.freezes.fetch_add(1, Ordering::Relaxed);

        let merges = segments::compact(&mut frozen, DictSegment::len, |a, b| {
            let mut terms = Vec::with_capacity(a.len() + b.len());
            terms.extend(a.terms.iter().cloned());
            terms.extend(b.terms.iter().cloned());
            let mut forward = a.forward.clone();
            forward.extend(b.forward.iter().map(|(t, &id)| (t.clone(), id)));
            DictSegment {
                start: a.start,
                terms,
                forward,
            }
        });
        self.merges.fetch_add(merges, Ordering::Relaxed);
        self.frozen = FrozenDictionary {
            segments: frozen.into(),
        };
    }

    /// Number of frozen segments plus the head if it is non-empty.
    pub fn num_segments(&self) -> usize {
        self.frozen.segments.len() + usize::from(!self.head_terms.is_empty())
    }

    /// Lifetime (freeze, merge) counter values, shared across clones.
    pub(crate) fn counter_values(&self) -> (u64, u64) {
        (
            self.freezes.load(Ordering::Relaxed),
            self.merges.load(Ordering::Relaxed),
        )
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.head_start as usize + self.head_terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.frozen
            .segments
            .iter()
            .flat_map(|seg| {
                seg.terms
                    .iter()
                    .enumerate()
                    .map(move |(i, t)| (TermId(seg.start + i as u32), t))
            })
            .chain(
                self.head_terms
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (TermId(self.head_start + i as u32), t)),
            )
    }

    /// Approximate heap footprint of the dictionary in bytes, counted as the
    /// sum of the lexical lengths of all interned terms plus fixed per-entry
    /// overhead.  Used by the pre-processing cost accounting of Table 2.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for (_, term) in self.iter() {
            total += 48; // map entry + vec slot + enum discriminant overhead
            total += match term {
                Term::Iri(iri) => iri.len(),
                Term::Blank(b) => b.len(),
                Term::Literal(l) => {
                    l.lexical.len()
                        + l.datatype.as_ref().map(String::len).unwrap_or(0)
                        + l.language.as_ref().map(String::len).unwrap_or(0)
                }
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut dict = Dictionary::new();
        let a = dict.intern(Term::iri("http://example.org/a"));
        let b = dict.intern(Term::iri("http://example.org/b"));
        let a2 = dict.intern(Term::iri("http://example.org/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_sequential() {
        let mut dict = Dictionary::new();
        for i in 0..100 {
            let id = dict.intern(Term::iri(format!("http://example.org/{i}")));
            assert_eq!(id.index(), i);
        }
        assert_eq!(dict.len(), 100);
    }

    #[test]
    fn id_of_and_term_of_are_inverse() {
        let mut dict = Dictionary::new();
        let term = Term::literal_lang("Kaliningrad", "en");
        let id = dict.intern(term.clone());
        assert_eq!(dict.id_of(&term), Some(id));
        assert_eq!(dict.term_of(id), Some(&term));
        assert_eq!(dict.id_of(&Term::literal_str("absent")), None);
        assert_eq!(dict.term_of(TermId(999)), None);
    }

    #[test]
    fn literals_differing_only_in_language_get_distinct_ids() {
        let mut dict = Dictionary::new();
        let en = dict.intern(Term::literal_lang("Danube", "en"));
        let de = dict.intern(Term::literal_lang("Donau", "de"));
        let plain = dict.intern(Term::literal_str("Danube"));
        assert_ne!(en, de);
        assert_ne!(en, plain);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut dict = Dictionary::new();
        dict.intern(Term::iri("http://example.org/x"));
        dict.intern(Term::iri("http://example.org/y"));
        let collected: Vec<_> = dict.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, vec![0, 1]);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut dict = Dictionary::new();
        let before = dict.approx_bytes();
        dict.intern(Term::iri("http://example.org/some/quite/long/iri/path"));
        assert!(dict.approx_bytes() > before);
    }

    #[test]
    fn display_of_term_id() {
        assert_eq!(TermId(5).to_string(), "t5");
    }

    #[test]
    fn freeze_preserves_ids_and_lookups() {
        let mut dict = Dictionary::new();
        let mut terms = Vec::new();
        for i in 0..50 {
            let term = Term::iri(format!("http://example.org/{i}"));
            terms.push((dict.intern(term.clone()), term));
        }
        dict.freeze();
        // New terms intern into a fresh head with continuing ids.
        let next = dict.intern(Term::iri("http://example.org/after"));
        assert_eq!(next, TermId(50));
        for (id, term) in &terms {
            assert_eq!(dict.id_of(term), Some(*id));
            assert_eq!(dict.term_of(*id), Some(term));
        }
        // Re-interning a frozen term keeps its id.
        assert_eq!(dict.intern(terms[7].1.clone()), terms[7].0);
        assert_eq!(dict.len(), 51);
        let ids: Vec<usize> = dict.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, (0..51).collect::<Vec<_>>());
    }

    #[test]
    fn small_freezes_do_not_merge_into_a_large_segment() {
        let mut dict = Dictionary::new();
        for i in 0..1000 {
            dict.intern(Term::iri(format!("http://example.org/bulk/{i}")));
        }
        dict.freeze();
        assert_eq!(dict.num_segments(), 1);
        let (_, merges_before) = dict.counter_values();

        // A small follow-up generation stays its own segment: the bulk run
        // is not rewritten.
        dict.intern(Term::iri("http://example.org/delta/0"));
        dict.freeze();
        assert_eq!(dict.num_segments(), 2);
        let (_, merges_after) = dict.counter_values();
        assert_eq!(merges_before, merges_after);
    }

    #[test]
    fn repeated_freezes_compact_geometrically() {
        let mut dict = Dictionary::new();
        for round in 0..64 {
            dict.intern(Term::iri(format!("http://example.org/r/{round}")));
            dict.freeze();
        }
        // 64 single-term generations collapse to a handful of segments.
        assert!(dict.num_segments() <= 8, "got {}", dict.num_segments());
        assert_eq!(dict.len(), 64);
        for round in 0..64 {
            let term = Term::iri(format!("http://example.org/r/{round}"));
            let id = dict.id_of(&term).expect("interned");
            assert_eq!(dict.term_of(id), Some(&term));
        }
        let (freezes, merges) = dict.counter_values();
        assert_eq!(freezes, 64);
        assert!(merges > 0);
    }

    #[test]
    fn a_frozen_handle_resolves_its_ids_after_later_merges() {
        let mut dict = Dictionary::new();
        let iri = |i: u32| Term::iri(format!("http://example.org/{i}"));
        for i in 0..10 {
            dict.intern(iri(i));
        }
        assert!(dict.frozen().is_empty(), "the head is not sealed yet");
        dict.freeze();
        let handle = dict.frozen();
        assert_eq!(handle.len(), 10);
        // Equal-sized generations merge into the segment the handle holds.
        for i in 10..40 {
            dict.intern(iri(i));
            if i % 10 == 9 {
                dict.freeze();
            }
        }
        assert!(dict.counter_values().1 > 0);
        for i in 0..10 {
            assert_eq!(handle.term_of(TermId(i)), Some(&iri(i)));
            assert_eq!(dict.term_of(TermId(i)), Some(&iri(i)));
        }
        assert_eq!(handle.term_of(TermId(10)), None);
        assert_eq!(dict.frozen().len(), 40);
        assert_eq!(
            format!("{handle:?}"),
            "FrozenDictionary { terms: 10, segments: 1 }"
        );
    }

    #[test]
    fn clones_share_frozen_segments() {
        let mut dict = Dictionary::new();
        for i in 0..10 {
            dict.intern(Term::iri(format!("http://example.org/{i}")));
        }
        dict.freeze();
        let snapshot = dict.clone();
        dict.intern(Term::iri("http://example.org/new"));
        assert_eq!(snapshot.len(), 10);
        assert_eq!(dict.len(), 11);
        assert_eq!(
            snapshot.id_of(&Term::iri("http://example.org/3")),
            Some(TermId(3))
        );
        assert_eq!(snapshot.id_of(&Term::iri("http://example.org/new")), None);
    }
}
