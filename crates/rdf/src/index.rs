//! Six-way triple indexing ("hexastore"-style sextuple indexing).
//!
//! Each of the six permutations of (subject, predicate, object) is kept
//! sorted, so that **any** triple pattern — whatever combination of its
//! positions is bound — can be answered with a single prefix range scan.
//! This is the index organisation the paper cites (\[59] Hexastore,
//! \[63] TripleBit) when arguing that the JIT linker's `outgoingPredicate` /
//! `incomingPredicate` probes are constant-time lookups in a stock RDF
//! engine.
//!
//! Each ordering is stored as an immutable sorted **base run** (an
//! `Arc`-shared vector).  Triples inserted since the runs were last sealed
//! wait in one **pending set**, a hash set shared by all six orderings, so
//! an insert is one hash probe.  The first read of an ordering sorts the
//! pending set into that ordering's key layout — its **view** — and keeps
//! it until the next new insert drops it; reads merge base-run and view
//! slices on the fly.  [`TripleIndex::flush_pending`] seals the pending set
//! into new base runs by a linear merge with each view, which is what lets
//! the live-ingest path ([`crate::live::LiveStore`]) publish a fresh epoch
//! per batch without rebuilding the index, and lets snapshots share the base
//! runs by bumping a reference count.
//!
//! The write state is sized for the traffic it gets.  Every store a query is
//! served from is sealed before anyone reads it: the live-ingest path
//! flushes once per published epoch and the KG builders compact after
//! loading, so a sealed read never touches the pending set.  Reads of an
//! unsealed store come from tests, doctests, examples and benches that build
//! a store once and then read it, and pay one sort per ordering they touch.
//! Alternating single inserts with reads re-sorts the pending set on every
//! read; nothing outside this module's tests does that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::dictionary::TermId;
use crate::hash::FxHashSet;
use crate::triple::EncodedTriple;

/// The six access orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexOrder {
    /// subject, predicate, object
    Spo,
    /// subject, object, predicate
    Sop,
    /// predicate, subject, object
    Pso,
    /// predicate, object, subject
    Pos,
    /// object, subject, predicate
    Osp,
    /// object, predicate, subject
    Ops,
}

/// The position in [`IndexOrder::ALL`] of the ordering a pattern is scanned
/// from, by which positions it binds (bit 0 subject, 1 predicate, 2 object):
/// the last ordering whose key prefix the bound positions fill.  In shape
/// order: Ops, Sop, Pos, Pso, Ops, Osp, Ops, Ops.
const BEST_ORDER: [usize; 8] = [5, 1, 3, 2, 5, 4, 5, 5];

impl IndexOrder {
    /// All six orderings.
    const ALL: [IndexOrder; 6] = [
        IndexOrder::Spo,
        IndexOrder::Sop,
        IndexOrder::Pso,
        IndexOrder::Pos,
        IndexOrder::Osp,
        IndexOrder::Ops,
    ];

    /// Permute an (s, p, o) triple into this ordering's key layout.
    #[inline]
    fn permute(&self, t: EncodedTriple) -> [u32; 3] {
        let (s, p, o) = (t.subject.0, t.predicate.0, t.object.0);
        match self {
            IndexOrder::Spo => [s, p, o],
            IndexOrder::Sop => [s, o, p],
            IndexOrder::Pso => [p, s, o],
            IndexOrder::Pos => [p, o, s],
            IndexOrder::Osp => [o, s, p],
            IndexOrder::Ops => [o, p, s],
        }
    }

    /// Invert the permutation: recover the (s, p, o) triple from a key.
    #[inline]
    fn unpermute(&self, key: [u32; 3]) -> EncodedTriple {
        let [a, b, c] = key;
        let (s, p, o) = match self {
            IndexOrder::Spo => (a, b, c),
            IndexOrder::Sop => (a, c, b),
            IndexOrder::Pso => (b, a, c),
            IndexOrder::Pos => (c, a, b),
            IndexOrder::Osp => (b, c, a),
            IndexOrder::Ops => (c, b, a),
        };
        EncodedTriple::new(TermId(s), TermId(p), TermId(o))
    }

    /// The key prefix values for a pattern under this ordering.
    fn prefix_values(&self, s: Option<u32>, p: Option<u32>, o: Option<u32>) -> [Option<u32>; 3] {
        match self {
            IndexOrder::Spo => [s, p, o],
            IndexOrder::Sop => [s, o, p],
            IndexOrder::Pso => [p, s, o],
            IndexOrder::Pos => [p, o, s],
            IndexOrder::Osp => [o, s, p],
            IndexOrder::Ops => [o, p, s],
        }
    }

    /// The pending set in this ordering's key layout, sorted.
    fn sorted_keys(self, pending: &FxHashSet<EncodedTriple>) -> Vec<[u32; 3]> {
        let mut keys: Vec<[u32; 3]> = pending.iter().map(|&t| self.permute(t)).collect();
        keys.sort_unstable();
        keys
    }
}

/// Lifetime totals of the index-maintenance probe counters.
///
/// The counters live behind an `Arc` shared by every clone in a store
/// lineage, so an epoch snapshot reports the same totals as the live writer
/// it was published from.  Tests use them to assert that an ingest batch
/// *merged* the sorted base runs instead of rebuilding them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IndexCounters {
    /// Base runs produced by linearly merging an existing run with the
    /// sorted pending set (`O(n + d)`, no re-sort of the run).
    pub(crate) base_merges: u64,
    /// Base runs produced directly from the pending set when no run existed
    /// yet (the initial bulk load).
    pub(crate) base_builds: u64,
}

#[derive(Debug, Default)]
struct SharedCounters {
    base_merges: AtomicU64,
    base_builds: AtomicU64,
}

/// One maintained ordering: the immutable sorted base run plus the sorted
/// view of the index's pending set, built by the first read after an insert.
///
/// Both are sorted vectors, so a scan merges two slices and a range count is
/// one finger search per side ([`PartitionRange::seek`]): a lower bound
/// galloped from the side's [`ScanCursor`] finger, then an upper bound
/// galloped from the lower one.
#[derive(Debug, Clone)]
struct OrderEntry {
    order: IndexOrder,
    base: Arc<Vec<[u32; 3]>>,
    view: OnceLock<Vec<[u32; 3]>>,
}

impl OrderEntry {
    fn new(order: IndexOrder) -> Self {
        OrderEntry {
            order,
            base: Arc::new(Vec::new()),
            view: OnceLock::new(),
        }
    }

    /// This ordering's view of `pending` (the owning index's pending set).
    /// A sealed index has an empty set and never builds one.
    fn view(&self, pending: &FxHashSet<EncodedTriple>) -> &[[u32; 3]] {
        if pending.is_empty() {
            return &[];
        }
        self.view.get_or_init(|| self.order.sorted_keys(pending))
    }

    /// The keys of this ordering inside `range`, base run and view, each
    /// found by a finger search from `cursor`, which is left where they
    /// start.
    fn seek<'a>(
        &'a self,
        pending: &'a FxHashSet<EncodedTriple>,
        range: PartitionRange,
        cursor: &mut ScanCursor,
    ) -> MergedRange<'a> {
        let (base, view) = cursor.fingers(self.order);
        MergedRange {
            base: range.seek(&self.base, base),
            pending: range.seek(self.view(pending), view),
        }
    }

    /// Every key of this ordering inside `range`, base run and view
    /// merge-iterated, decoded back to (s, p, o).
    fn scan<'a>(
        &'a self,
        pending: &'a FxHashSet<EncodedTriple>,
        range: PartitionRange,
        cursor: &mut ScanCursor,
    ) -> RangeScan<'a> {
        RangeScan {
            order: self.order,
            keys: self.seek(pending, range, cursor),
        }
    }
}

/// The keys of one sought range decoded back to (s, p, o) triples.  Its
/// length is exact and `nth` skips keys without decoding or merging them
/// one by one (a `map` over the keys would walk them).
struct RangeScan<'a> {
    order: IndexOrder,
    keys: MergedRange<'a>,
}

impl Iterator for RangeScan<'_> {
    type Item = EncodedTriple;

    fn next(&mut self) -> Option<EncodedTriple> {
        self.keys.next().map(|key| self.order.unpermute(key))
    }

    fn nth(&mut self, n: usize) -> Option<EncodedTriple> {
        self.keys.nth(n).map(|key| self.order.unpermute(key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl ExactSizeIterator for RangeScan<'_> {}

/// Where the last seek of one scan landed: the ordering it ran on and the
/// first matching position in that ordering's base run and view.
///
/// A join step seeks its pattern once per input row, and a driver that
/// walks an index in key order hands it ascending keys, so the next range
/// usually starts a few keys after the last one.  Threading one cursor
/// through those seeks ([`crate::Store::scan_from`]) turns each into a
/// gallop over that distance instead of two binary searches over the whole
/// run.  A cursor is only where the search starts: a seek finds the same
/// range whatever the cursor holds, from another pattern, ordering or store
/// included.  A fresh cursor (`ScanCursor::default()`) seeks like a plain
/// binary search, which is what [`crate::Store::scan`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCursor {
    /// The ordering the fingers point into; `None` on a fresh cursor.
    order: Option<IndexOrder>,
    base: usize,
    view: usize,
}

impl ScanCursor {
    /// The fingers into `order`'s base run and view.  A cursor last used on
    /// another ordering (or never) starts past the end of both.
    fn fingers(&mut self, order: IndexOrder) -> (&mut usize, &mut usize) {
        if self.order != Some(order) {
            *self = ScanCursor {
                order: Some(order),
                base: usize::MAX,
                view: usize::MAX,
            };
        }
        (&mut self.base, &mut self.view)
    }
}

/// One contiguous key range of a partitioned pattern scan (a *morsel*).
///
/// Produced by [`crate::Store::scan_partitions`]: the ranges of one call are
/// disjoint, cover the pattern's whole match set, and are ordered so that
/// concatenating the per-range streams of [`crate::Store::scan_within`]
/// reproduces the exact sequential scan order.  The bounds live in the
/// selected index ordering's key space and are only meaningful for the
/// pattern/store pair that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionRange {
    /// Inclusive lower key bound.
    lower: [u32; 3],
    /// Inclusive upper key bound.
    upper: [u32; 3],
}

impl PartitionRange {
    /// The keys of a sorted slice that fall inside this range, found by a
    /// finger search from `*finger`, which is left at the range's first
    /// position.
    ///
    /// When no key before the finger reaches the lower bound, the lower
    /// bound gallops forward from the finger (probes 1, 2, 4, … keys on,
    /// then a binary search inside the last doubling): `O(log d)` for a
    /// range that starts `d` keys on.  Otherwise it is a binary search over
    /// the keys before the finger.  The upper bound gallops on from the
    /// lower one, `O(log m)` for `m` matches.  A finger past the end (a
    /// fresh cursor's) makes the lower bound one binary search over the
    /// whole slice.
    fn seek<'k>(self, keys: &'k [[u32; 3]], finger: &mut usize) -> &'k [[u32; 3]] {
        let hint = (*finger).min(keys.len());
        let lo = match hint.checked_sub(1) {
            Some(last) if keys[last] >= self.lower => {
                keys[..hint].partition_point(|key| key < &self.lower)
            }
            _ => gallop(keys, hint, |key| key < &self.lower),
        };
        let hi = gallop(keys, lo, |key| key <= &self.upper);
        *finger = lo;
        &keys[lo..hi]
    }
}

/// The first position at or after `from` whose key fails `before`, where
/// `before` holds on a prefix of `keys` that reaches at least `from`.
/// Probes `from`, `from + 1`, `from + 3`, `from + 7`, … until one fails,
/// then binary-searches the last doubling.
fn gallop(keys: &[[u32; 3]], from: usize, before: impl Fn(&[u32; 3]) -> bool) -> usize {
    let rest = &keys[from..];
    let mut bound = 1;
    while bound <= rest.len() && before(&rest[bound - 1]) {
        bound *= 2;
    }
    // Every key before `rest[bound / 2]` passed; `rest[bound - 1]`, if it
    // exists, failed.
    let start = bound / 2;
    from + start + rest[start..(bound - 1).min(rest.len())].partition_point(before)
}

/// The largest key strictly below `key` in the lexicographic `[u32; 3]`
/// space.  Callers guarantee `key > [0, 0, 0]` (a partition split key is
/// always strictly above its range's start).
fn prev_key(key: [u32; 3]) -> [u32; 3] {
    let [a, b, c] = key;
    if c > 0 {
        [a, b, c - 1]
    } else if b > 0 {
        [a, b - 1, u32::MAX]
    } else {
        [a - 1, u32::MAX, u32::MAX]
    }
}

/// Sorted two-way merge of a base-run slice and a view slice.
///
/// The two sides are disjoint (an index invariant) and individually sorted,
/// so the merged stream is globally sorted with no duplicates.
struct MergedRange<'a> {
    base: &'a [[u32; 3]],
    pending: &'a [[u32; 3]],
}

impl Iterator for MergedRange<'_> {
    type Item = [u32; 3];

    fn next(&mut self) -> Option<[u32; 3]> {
        let side = match (self.base.first(), self.pending.first()) {
            (Some(b), Some(p)) if p < b => &mut self.pending,
            (Some(_), _) => &mut self.base,
            (None, _) => &mut self.pending,
        };
        let (&key, rest) = side.split_first()?;
        *side = rest;
        Some(key)
    }

    /// Skip `n` keys by slicing both sides, then yield the next one.  The
    /// first `n` keys of the merge are the first `i` of the base run and
    /// the first `n - i` of the view for the one split `i` at which the
    /// base key `i` sorts above the view key `n - i - 1`: a binary search
    /// over `i`, `O(log n)` instead of `n` merge steps.
    fn nth(&mut self, n: usize) -> Option<[u32; 3]> {
        if n >= self.len() {
            *self = MergedRange {
                base: &[],
                pending: &[],
            };
            return None;
        }
        let mut lo = n.saturating_sub(self.pending.len());
        let mut hi = n.min(self.base.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.base[mid] < self.pending[n - mid - 1] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.base = &self.base[lo..];
        self.pending = &self.pending[n - lo..];
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.base.len() + self.pending.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for MergedRange<'_> {}

/// The sextuple index: one sorted base run per ordering, plus the pending
/// set of triples inserted since the runs were sealed.
#[derive(Debug, Clone)]
pub(crate) struct TripleIndex {
    orders: [OrderEntry; 6],
    /// Inserted triples not yet sealed into the base runs; disjoint from
    /// them.
    pending: FxHashSet<EncodedTriple>,
    counters: Arc<SharedCounters>,
}

impl Default for TripleIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleIndex {
    /// Create an index maintaining all six orderings.
    pub(crate) fn new() -> Self {
        TripleIndex {
            orders: IndexOrder::ALL.map(OrderEntry::new),
            pending: FxHashSet::default(),
            counters: Arc::new(SharedCounters::default()),
        }
    }

    /// Number of distinct triples in the index.
    pub(crate) fn len(&self) -> usize {
        self.orders[0].base.len() + self.pending.len()
    }

    /// True if the index holds no triples.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a triple.  Returns `true` if the triple was new.  A new triple
    /// lands in the pending set and drops every ordering's view; sealed base
    /// runs are never touched by an insert.
    pub(crate) fn insert(&mut self, t: EncodedTriple) -> bool {
        if self.in_base(t) || !self.pending.insert(t) {
            return false;
        }
        for entry in &mut self.orders {
            entry.view.take();
        }
        true
    }

    /// Seal the pending set into the sorted base runs.
    ///
    /// Each ordering's new run is a linear interleave of the old run with
    /// the ordering's view — `O(n + d)` plus the view's sort, never a
    /// re-sort of the run — after which the pending set is empty and range
    /// counts are pure binary search over the run.  [`crate::Store::compact`]
    /// funnels here; the live-ingest path calls it once per published epoch
    /// so snapshots always carry sealed runs.  Whether a merge or a
    /// from-scratch build happened is recorded in [`TripleIndex::counters`].
    pub(crate) fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let had_base = !self.orders[0].base.is_empty();
        for entry in &mut self.orders {
            let view = entry
                .view
                .take()
                .unwrap_or_else(|| entry.order.sorted_keys(&self.pending));
            let run = if had_base {
                MergedRange {
                    base: &entry.base,
                    pending: &view,
                }
                .collect()
            } else {
                view
            };
            entry.base = Arc::new(run);
        }
        self.pending = FxHashSet::default();
        let counter = if had_base {
            &self.counters.base_merges
        } else {
            &self.counters.base_builds
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the lifetime maintenance counters, shared by every
    /// clone in this index's lineage.
    pub(crate) fn counters(&self) -> IndexCounters {
        IndexCounters {
            base_merges: self.counters.base_merges.load(Ordering::Relaxed),
            base_builds: self.counters.base_builds.load(Ordering::Relaxed),
        }
    }

    /// True if the exact triple is present.
    pub(crate) fn contains(&self, t: EncodedTriple) -> bool {
        self.pending.contains(&t) || self.in_base(t)
    }

    /// True if the triple is sealed into the base runs.
    fn in_base(&self, t: EncodedTriple) -> bool {
        let entry = &self.orders[0];
        entry.base.binary_search(&entry.order.permute(t)).is_ok()
    }

    /// The ordering with the longest bound key prefix for a pattern, and the
    /// inclusive key range covering that prefix.  With all six permutations
    /// maintained, the bound positions of any pattern form such a prefix of
    /// some ordering, so every key in the range is a match.
    fn best_range(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> (&OrderEntry, PartitionRange) {
        let (s, p, o) = (s.map(|x| x.0), p.map(|x| x.0), o.map(|x| x.0));
        let shape = usize::from(s.is_some())
            | usize::from(p.is_some()) << 1
            | usize::from(o.is_some()) << 2;
        let entry = &self.orders[BEST_ORDER[shape]];
        let prefix = entry.order.prefix_values(s, p, o);
        // Nothing is bound past the prefix, so unbound positions alone span
        // the range.
        debug_assert_eq!(
            prefix.iter().take_while(|x| x.is_some()).count(),
            prefix.iter().flatten().count()
        );
        let range = PartitionRange {
            lower: prefix.map(|bound| bound.unwrap_or(u32::MIN)),
            upper: prefix.map(|bound| bound.unwrap_or(u32::MAX)),
        };
        (entry, range)
    }

    /// Scan a triple pattern without materialising the matches; unbound
    /// positions are `None`.  Yields the matching triples in the order of the
    /// selected index (base run and view are merge-iterated, so the stream
    /// stays globally sorted).  This is the store's hot path: the SPARQL
    /// join loops drive these iterators directly, extending id-level
    /// bindings per yielded triple instead of buffering a
    /// `Vec<EncodedTriple>` per probe.  The range is sought from `cursor`
    /// (see [`ScanCursor`]) when the call is made, and the cursor is left
    /// where it starts.  The iterator knows its exact length, and `nth`
    /// skips keys without walking them.
    pub(crate) fn iter_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        cursor: &mut ScanCursor,
    ) -> impl ExactSizeIterator<Item = EncodedTriple> + '_ {
        let (entry, range) = self.best_range(s, p, o);
        entry.scan(&self.pending, range, cursor)
    }

    /// Split a pattern scan into at most `n` contiguous key ranges.
    ///
    /// The ranges are disjoint, cover the pattern's whole match set, and are
    /// returned in key order, so concatenating the per-range streams of
    /// [`TripleIndex::iter_matching_within`] reproduces *exactly* the stream
    /// [`TripleIndex::iter_matching`] yields — morsel-parallel scans stay
    /// byte-deterministic by merging partition outputs in this order.  Split
    /// keys are sampled at equidistant positions of the selected ordering's
    /// sorted base run, so ranges are balanced over the sealed data (pending
    /// inserts land in whichever range contains them).  Fewer than `n` ranges
    /// come back when the scan is too small or key space too narrow to split.
    pub(crate) fn partition_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        n: usize,
    ) -> Vec<PartitionRange> {
        let (entry, range) = self.best_range(s, p, o);
        let keys = entry
            .seek(&self.pending, range, &mut ScanCursor::default())
            .base;
        let total = keys.len();
        let n = n.max(1);
        if n == 1 || total < 2 {
            return vec![range];
        }
        let mut splits: Vec<[u32; 3]> = (1..n).map(|i| keys[i * total / n]).collect();
        splits.dedup();
        let mut ranges = Vec::with_capacity(n);
        let mut start = range.lower;
        for split in splits {
            if split <= start {
                continue;
            }
            ranges.push(PartitionRange {
                lower: start,
                upper: prev_key(split),
            });
            start = split;
        }
        ranges.push(PartitionRange {
            lower: start,
            upper: range.upper,
        });
        ranges
    }

    /// Scan a triple pattern clipped to one partition's key range.
    ///
    /// Semantics match [`TripleIndex::iter_matching`] restricted to the keys
    /// the range covers; the range must come from
    /// [`TripleIndex::partition_matching`] called with the *same* pattern on
    /// the *same* (unmutated) index.
    pub(crate) fn iter_matching_within(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        range: PartitionRange,
    ) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.best_range(s, p, o)
            .0
            .scan(&self.pending, range, &mut ScanCursor::default())
    }

    /// Count matches of a pattern without materialising — or walking — them.
    ///
    /// The count is one seek from a fresh cursor over the selected
    /// ordering's base run plus, while triples are pending, one more over
    /// that ordering's view: `O(log n)` whatever the match count, once the
    /// view is built.
    /// Sealed stores (everything a query is served from) have no pending
    /// triples and pay the run searches only.  This is what makes it cheap
    /// enough for the query planner to estimate the cardinality of every
    /// triple pattern of every candidate query.
    pub(crate) fn count_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> usize {
        let (entry, range) = self.best_range(s, p, o);
        entry
            .seek(&self.pending, range, &mut ScanCursor::default())
            .len()
    }

    /// Approximate heap footprint in bytes: one 12-byte key per sealed
    /// triple and ordering, 12 bytes per key of every view built since the
    /// last insert, and the pending set's table (a 12-byte slot and a
    /// control byte per entry it has room for).
    pub(crate) fn approx_bytes(&self) -> usize {
        let keys: usize = self
            .orders
            .iter()
            .map(|entry| entry.base.len() + entry.view.get().map_or(0, Vec::len))
            .sum();
        keys * 12 + self.pending.capacity() * (12 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> EncodedTriple {
        EncodedTriple::new(TermId(s), TermId(p), TermId(o))
    }

    impl TripleIndex {
        /// Match a pattern, materialising the results.
        fn matching(
            &self,
            s: Option<TermId>,
            p: Option<TermId>,
            o: Option<TermId>,
        ) -> Vec<EncodedTriple> {
            self.iter_matching(s, p, o, &mut ScanCursor::default())
                .collect()
        }

        /// Number of triples still waiting in the pending set (zero once
        /// [`TripleIndex::flush_pending`] has sealed them).
        fn pending_len(&self) -> usize {
            self.pending.len()
        }
    }

    #[test]
    fn insert_is_deduplicating() {
        let mut idx = TripleIndex::new();
        assert!(idx.insert(t(1, 2, 3)));
        assert!(!idx.insert(t(1, 2, 3)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn all_eight_pattern_shapes_return_correct_matches() {
        let mut idx = TripleIndex::new();
        let triples = [
            t(1, 10, 100),
            t(1, 10, 101),
            t(1, 11, 100),
            t(2, 10, 100),
            t(3, 12, 103),
        ];
        for &tr in &triples {
            idx.insert(tr);
        }

        // (s, p, o) fully bound
        assert_eq!(
            idx.matching(Some(TermId(1)), Some(TermId(10)), Some(TermId(100)))
                .len(),
            1
        );
        // (s, p, ?)
        assert_eq!(
            idx.matching(Some(TermId(1)), Some(TermId(10)), None).len(),
            2
        );
        // (s, ?, o)
        assert_eq!(
            idx.matching(Some(TermId(1)), None, Some(TermId(100))).len(),
            2
        );
        // (s, ?, ?)
        assert_eq!(idx.matching(Some(TermId(1)), None, None).len(), 3);
        // (?, p, o)
        assert_eq!(
            idx.matching(None, Some(TermId(10)), Some(TermId(100)))
                .len(),
            2
        );
        // (?, p, ?)
        assert_eq!(idx.matching(None, Some(TermId(10)), None).len(), 3);
        // (?, ?, o)
        assert_eq!(idx.matching(None, None, Some(TermId(100))).len(), 3);
        // (?, ?, ?)
        assert_eq!(idx.matching(None, None, None).len(), 5);
    }

    #[test]
    fn each_shape_scans_the_last_ordering_its_bound_positions_prefix() {
        for (shape, &best) in BEST_ORDER.iter().enumerate() {
            let bound = |bit: usize| (shape >> bit & 1 == 1).then_some(7);
            let (s, p, o) = (bound(0), bound(1), bound(2));
            let prefix_len = |order: &IndexOrder| {
                order
                    .prefix_values(s, p, o)
                    .iter()
                    .take_while(|x| x.is_some())
                    .count()
            };
            let longest = IndexOrder::ALL.iter().map(prefix_len).max().unwrap();
            let last = IndexOrder::ALL
                .iter()
                .rposition(|order| prefix_len(order) == longest)
                .unwrap();
            assert_eq!(best, last, "shape {shape:03b}");
            assert_eq!(
                longest,
                usize::from(s.is_some()) + usize::from(p.is_some()) + usize::from(o.is_some())
            );
        }
    }

    #[test]
    fn permute_unpermute_roundtrip() {
        let triple = t(7, 8, 9);
        for order in IndexOrder::ALL {
            assert_eq!(order.unpermute(order.permute(triple)), triple);
        }
    }

    #[test]
    fn count_matching_agrees_with_iter_matching_for_all_shapes() {
        let mut idx = TripleIndex::new();
        for s in 0..5u32 {
            for p in 0..3u32 {
                idx.insert(t(s, 10 + p, 100 + s * p));
            }
        }
        let probes: [(Option<u32>, Option<u32>, Option<u32>); 8] = [
            (None, None, None),
            (Some(1), None, None),
            (None, Some(11), None),
            (None, None, Some(100)),
            (Some(1), Some(11), None),
            (Some(1), None, Some(100)),
            (None, Some(11), Some(102)),
            (Some(2), Some(12), Some(104)),
        ];
        for (s, p, o) in probes {
            let s = s.map(TermId);
            let p = p.map(TermId);
            let o = o.map(TermId);
            assert_eq!(
                idx.count_matching(s, p, o),
                idx.matching(s, p, o).len(),
                "pattern {:?}",
                (s, p, o)
            );
        }
    }

    #[test]
    fn count_matching_snapshot_is_invalidated_by_mutation() {
        let mut idx = TripleIndex::new();
        idx.insert(t(1, 10, 100));
        // Build the sorted view, then mutate, then count again.
        assert_eq!(idx.count_matching(Some(TermId(1)), None, None), 1);
        idx.insert(t(1, 10, 101));
        assert_eq!(idx.count_matching(Some(TermId(1)), None, None), 2);
        // Cloned indices answer through their own copy of the pending set.
        let cloned = idx.clone();
        assert_eq!(cloned.count_matching(None, None, Some(TermId(101))), 1);
    }

    #[test]
    fn approx_bytes_scales_with_len() {
        let mut idx = TripleIndex::new();
        for i in 0..10 {
            idx.insert(t(i, i + 1, i + 2));
        }
        let ten = idx.approx_bytes();
        for i in 10..20 {
            idx.insert(t(i, i + 1, i + 2));
        }
        assert!(idx.approx_bytes() > ten);
    }

    #[test]
    fn flush_seals_pending_into_base_runs() {
        let mut idx = TripleIndex::new();
        for i in 0..100u32 {
            idx.insert(t(i, i % 7, i % 13));
        }
        let before: Vec<EncodedTriple> = idx.matching(None, None, None);
        assert_eq!(idx.pending_len(), 100);
        idx.flush_pending();
        assert_eq!(idx.pending_len(), 0);
        assert_eq!(idx.counters().base_builds, 1);
        assert_eq!(idx.matching(None, None, None), before);
        assert_eq!(idx.len(), 100);
        // Flushing an already sealed index is a no-op.
        idx.flush_pending();
        assert_eq!(idx.counters().base_builds, 1);
        assert_eq!(idx.counters().base_merges, 0);
    }

    #[test]
    fn small_append_merges_base_run_instead_of_rebuilding() {
        let mut idx = TripleIndex::new();
        for i in 0..1000u32 {
            idx.insert(t(i, i % 5, i % 11));
        }
        idx.flush_pending();
        assert_eq!(idx.counters().base_builds, 1);

        // A small append: keys go to the pending set, the sealed run is untouched
        // and shared by clones (snapshot semantics).
        let snapshot = idx.clone();
        idx.insert(t(5000, 1, 2));
        idx.insert(t(5001, 1, 3));
        assert_eq!(idx.pending_len(), 2);
        assert_eq!(snapshot.len(), 1000);
        assert_eq!(idx.len(), 1002);

        // Sealing the pending set merges, never rebuilds or re-sorts.
        idx.flush_pending();
        let counters = idx.counters();
        assert_eq!(counters.base_merges, 1);
        assert_eq!(counters.base_builds, 1);
        assert_eq!(idx.pending_len(), 0);
        assert_eq!(idx.count_matching(Some(TermId(5000)), None, None), 1);
        assert_eq!(idx.count_matching(None, Some(TermId(1)), None), 202);
    }

    #[test]
    fn mixed_base_and_pending_reads_are_merged_and_sorted() {
        let mut idx = TripleIndex::new();
        for i in (0..50u32).step_by(2) {
            idx.insert(t(i, 1, i));
        }
        idx.flush_pending();
        for i in (1..50u32).step_by(2) {
            idx.insert(t(i, 1, i));
        }
        // Reads see both sides, in sorted subject order.
        let subjects: Vec<u32> = idx
            .matching(None, Some(TermId(1)), None)
            .into_iter()
            .map(|tr| tr.subject.0)
            .collect();
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(subjects, expected);
        assert_eq!(idx.count_matching(None, Some(TermId(1)), None), 50);
    }

    #[test]
    fn nth_skips_like_repeated_next() {
        // Base and view interleave, the view runs on past the base, and
        // the slices below start and end on either side.
        let base: Vec<[u32; 3]> = (0..40u32)
            .filter(|i| i % 3 != 0)
            .map(|i| [i, 0, 0])
            .collect();
        let view: Vec<[u32; 3]> = (0..40u32)
            .filter(|i| i % 3 == 0)
            .chain(40..45)
            .map(|i| [i, 0, 0])
            .collect();
        let sides = [
            (&base[..], &view[..]),
            (&base[5..], &view[..3]),
            (&base[..4], &view[6..]),
            (&base[..], &view[..0]),
            (&base[..0], &view[..]),
        ];
        for (base, view) in sides {
            let len = base.len() + view.len();
            for k in 0..=len + 1 {
                let mut walked = MergedRange {
                    base,
                    pending: view,
                };
                for _ in 0..k {
                    walked.next();
                }
                let mut skipped = MergedRange {
                    base,
                    pending: view,
                };
                assert_eq!(skipped.nth(k), walked.next(), "nth({k}) of {len}");
                assert_eq!(skipped.len(), walked.len());
                assert!(skipped.eq(walked), "the rest after nth({k}) of {len}");
            }
        }

        // The same through a store scan with a pending view.
        let mut idx = TripleIndex::new();
        for i in (0..60u32).step_by(2) {
            idx.insert(t(i, 1, i));
        }
        idx.flush_pending();
        for i in (1..60u32).step_by(4) {
            idx.insert(t(i, 1, i));
        }
        let all = idx.matching(None, Some(TermId(1)), None);
        for k in 0..=all.len() {
            let mut scan =
                idx.iter_matching(None, Some(TermId(1)), None, &mut ScanCursor::default());
            assert_eq!(scan.len(), all.len());
            assert_eq!(scan.nth(k), all.get(k).copied());
            assert!(scan.eq(all.iter().copied().skip(k + 1)));
        }
    }

    #[test]
    fn partitions_cover_scan_exactly_in_order() {
        let mut idx = TripleIndex::new();
        for s in 0..200u32 {
            for p in 0..3u32 {
                idx.insert(t(s, 10 + p, s * 3 + p));
            }
        }
        idx.flush_pending();
        // Leave some keys in the pending set so partitions must merge both
        // sides.
        for s in 200..230u32 {
            idx.insert(t(s, 11, s));
        }

        let shapes: [(Option<u32>, Option<u32>, Option<u32>); 4] = [
            (None, None, None),
            (None, Some(11), None),
            (Some(5), None, None),
            (None, Some(10), Some(15)),
        ];
        for (s, p, o) in shapes {
            let s = s.map(TermId);
            let p = p.map(TermId);
            let o = o.map(TermId);
            let sequential = idx.matching(s, p, o);
            for n in [1usize, 2, 3, 8, 64] {
                let ranges = idx.partition_matching(s, p, o, n);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= n.max(1));
                let concatenated: Vec<EncodedTriple> = ranges
                    .iter()
                    .flat_map(|&r| idx.iter_matching_within(s, p, o, r))
                    .collect();
                assert_eq!(
                    concatenated,
                    sequential,
                    "pattern {:?} with {n} partitions",
                    (s, p, o)
                );
            }
        }
    }

    #[test]
    fn partitions_balance_over_the_base_run() {
        let mut idx = TripleIndex::new();
        for s in 0..1000u32 {
            idx.insert(t(s, 1, s));
        }
        idx.flush_pending();
        let ranges = idx.partition_matching(None, Some(TermId(1)), None, 4);
        assert_eq!(ranges.len(), 4);
        for r in &ranges {
            let count = idx
                .iter_matching_within(None, Some(TermId(1)), None, *r)
                .count();
            assert_eq!(count, 250);
        }
    }

    #[test]
    fn partitioning_an_empty_or_tiny_scan_degrades_to_one_range() {
        let idx = TripleIndex::new();
        let ranges = idx.partition_matching(None, None, None, 8);
        assert_eq!(ranges.len(), 1);

        let mut idx = TripleIndex::new();
        idx.insert(t(1, 2, 3));
        idx.flush_pending();
        let ranges = idx.partition_matching(None, None, None, 8);
        assert_eq!(ranges.len(), 1);
        assert_eq!(
            idx.iter_matching_within(None, None, None, ranges[0])
                .count(),
            1
        );
    }

    /// `n` keys `[0, 0, 0]`, `[2, 0, 0]`, …: every odd first component
    /// falls between two keys.
    fn even_keys(n: u32) -> Vec<[u32; 3]> {
        (0..n).map(|i| [2 * i, 0, 0]).collect()
    }

    #[test]
    fn gallop_finds_the_partition_point_from_every_start() {
        for n in 0..40u32 {
            let keys = even_keys(n);
            for target in 0..=2 * n + 1 {
                let before = |key: &[u32; 3]| key[0] < target;
                let expected = keys.partition_point(before);
                // Every start the precondition allows: at or before the
                // answer, from the first key to the answer itself.
                for from in 0..=expected {
                    assert_eq!(
                        gallop(&keys, from, before),
                        expected,
                        "{n} keys, target {target}, from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn gallop_edge_cases() {
        let keys = even_keys(16);
        // Empty slice, and a start at the end: nothing left to probe.
        assert_eq!(gallop(&[], 0, |_| true), 0);
        assert_eq!(gallop(&keys, 16, |_| true), 16);
        // The first probe fails: the answer is the start itself.
        assert_eq!(gallop(&keys, 5, |key| key[0] < 10), 5);
        // Answers on each probe (1, 2, 4, 8 keys on) and just past it.
        for offset in [1, 2, 3, 4, 7, 8, 9] {
            let target = 2 * (3 + offset);
            assert_eq!(gallop(&keys, 3, |key| key[0] < target), 3 + offset as usize);
        }
        // Every key passes: the answer is the end, reached by a doubling
        // that overshoots it.
        assert_eq!(gallop(&keys, 3, |_| true), 16);
    }

    #[test]
    fn a_seek_finds_the_same_keys_from_any_finger() {
        let keys = even_keys(24);
        let len = keys.len();
        let fingers = (0..=len + 2).chain([usize::MAX]);
        for finger in fingers {
            for lower in 0..50u32 {
                // Empty ranges (upper below lower, or between two keys),
                // one key, many keys, and ranges past either end.
                for upper in lower.saturating_sub(1)..52 {
                    let range = PartitionRange {
                        lower: [lower, 0, 0],
                        upper: [upper, u32::MAX, u32::MAX],
                    };
                    let lo = keys.partition_point(|key| key < &range.lower);
                    let hi = keys.partition_point(|key| key <= &range.upper).max(lo);
                    let mut at = finger;
                    assert_eq!(
                        range.seek(&keys, &mut at),
                        &keys[lo..hi],
                        "finger {finger}, range {lower}..={upper}"
                    );
                    assert_eq!(at, lo, "the finger is left where the range starts");
                }
            }
        }
    }

    #[test]
    fn a_cursor_moves_to_a_new_ordering_from_past_the_end() {
        let mut idx = TripleIndex::new();
        for s in 0..30u32 {
            idx.insert(t(s, 1 + s % 3, 100 + s));
        }
        idx.flush_pending();
        let mut cursor = ScanCursor::default();
        // (s, ?, ?) and then (?, p, ?): two orderings, one cursor.
        let by_subject: Vec<_> = idx
            .iter_matching(Some(TermId(29)), None, None, &mut cursor)
            .collect();
        assert_eq!(by_subject, vec![t(29, 3, 129)]);
        let spo = cursor;
        let by_predicate = idx
            .iter_matching(None, Some(TermId(2)), None, &mut cursor)
            .count();
        assert_eq!(by_predicate, 10);
        assert_ne!(cursor.order, spo.order);
        // Back on the first ordering, a lower key than the cursor's last.
        let back: Vec<_> = idx
            .iter_matching(Some(TermId(0)), None, None, &mut cursor)
            .collect();
        assert_eq!(back, vec![t(0, 1, 100)]);
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let mut idx = TripleIndex::new();
        idx.insert(t(1, 2, 3));
        let clone = idx.clone();
        idx.flush_pending();
        assert_eq!(clone.counters().base_builds, 1);
    }
}
