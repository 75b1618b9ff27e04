//! Live stores: batched ingestion with epoch-tagged, snapshot-isolated
//! reads.
//!
//! A [`LiveStore`] wraps a [`Store`] in a single-writer / many-reader
//! protocol built for KGs that change *under live question traffic*:
//!
//! * Readers call [`LiveStore::snapshot`] and get an `Arc`-shared
//!   [`StoreSnapshot`] — an immutable view of one **epoch** that owns the
//!   triple index runs, dictionary, text index and pre-installed
//!   [`crate::PlannerStats`].  A query planned and executed against a pinned
//!   snapshot observes exactly one epoch end-to-end; plan-time estimates and
//!   run-time scans can never disagree mid-query.
//! * The writer applies an [`IngestBatch`] of adds under [`LiveStore::ingest`]:
//!   duplicates are skipped, planner stats and the text index are maintained
//!   *incrementally* from the batch delta, the sorted index runs are merged
//!   (never rebuilt), and a new epoch is published atomically by swapping
//!   one `Arc` pointer.  Readers never block on the writer — at worst they
//!   keep answering against the previous epoch until the swap lands.
//!
//! The [`IngestReport`] returned per batch carries a [`TouchedScope`] — the
//! triples the batch actually added and the words of their literals —
//! which the endpoint layer uses for *scoped* semantic-cache invalidation
//! (evict only the cache entries the new triples could change, keep the
//! rest warm).

use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::error::RdfError;
use crate::hash::FxHashSet;
use crate::stats::StatsMaintenance;
use crate::store::Store;
use crate::term::Term;
use crate::text::tokenize;
use crate::triple::{EncodedTriple, Triple};
use crate::vocab;

/// An immutable, epoch-tagged view of a [`Store`].
///
/// Snapshots are cheap to publish (after a [`Store::compact`] the underlying
/// index runs, dictionary segments and text-index segments are `Arc`-shared
/// with the writer) and cheap to hold (cloning the `Arc<StoreSnapshot>`
/// handed out by [`LiveStore::snapshot`] is a reference-count bump).  The
/// snapshot derefs to [`Store`], so every read API works unchanged:
///
/// ```
/// use kgqan_rdf::{IngestBatch, LiveStore, Store, Term, Triple};
///
/// let live = LiveStore::new(Store::new());
/// live.ingest(IngestBatch::from_iter([Triple::new(
///     Term::iri("http://e/baltic"),
///     Term::iri("http://www.w3.org/2000/01/rdf-schema#label"),
///     Term::literal_str("Baltic Sea"),
/// )]))
/// .unwrap();
///
/// let snapshot = live.snapshot();
/// assert_eq!(snapshot.epoch(), 1);
/// assert_eq!(snapshot.len(), 1); // any &Store method, via deref
/// ```
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    epoch: u64,
    store: Store,
}

impl StoreSnapshot {
    /// The epoch this snapshot was published at.  Epoch 0 is the store a
    /// [`LiveStore`] was created with; every applied (non-no-op) ingest
    /// batch increments it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying immutable store view (also reachable via deref).
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Deref for StoreSnapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

/// A batch of triples to add in one atomic ingest step.
///
/// Batches are validated up front (one structurally invalid triple rejects
/// the whole batch before anything is applied) and deduplicated against the
/// store (re-adding an existing triple is counted, not an error).
///
/// ```
/// use kgqan_rdf::{IngestBatch, Term, Triple};
///
/// let mut batch = IngestBatch::new();
/// batch.push(Triple::new(
///     Term::iri("http://e/s"),
///     Term::iri("http://e/p"),
///     Term::iri("http://e/o"),
/// ));
/// assert_eq!(batch.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IngestBatch {
    triples: Vec<Triple>,
}

impl IngestBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one triple to the batch.
    pub fn push(&mut self, triple: Triple) {
        self.triples.push(triple);
    }

    /// Builder-style [`IngestBatch::push`].
    #[must_use]
    pub fn with(mut self, triple: Triple) -> Self {
        self.push(triple);
        self
    }

    /// Number of triples in the batch (duplicates included).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the batch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterate the batched triples.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }
}

impl FromIterator<Triple> for IngestBatch {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        IngestBatch {
            triples: iter.into_iter().collect(),
        }
    }
}

impl From<Vec<Triple>> for IngestBatch {
    fn from(triples: Vec<Triple>) -> Self {
        IngestBatch { triples }
    }
}

/// The data an applied ingest batch actually touched: the scope used for
/// targeted cache invalidation — the added triples, and the words of their
/// string literals for full-text searches.
///
/// An empty scope (a no-op batch of pure duplicates) touches nothing, so
/// nothing needs invalidating.
#[derive(Debug, Clone, Default)]
pub struct TouchedScope {
    literal_tokens: FxHashSet<String>,
    added: Vec<Triple>,
}

impl TouchedScope {
    fn observe(&mut self, triple: &Triple) {
        if triple.object.is_string_literal() {
            if let Some(literal) = triple.object.as_literal() {
                self.literal_tokens.extend(tokenize(&literal.lexical));
            }
        }
        self.added.push(triple.clone());
    }

    /// True if the batch added nothing (all duplicates).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
    }

    /// The lower-cased word tokens of every string-literal object added.
    pub fn literal_tokens(&self) -> &FxHashSet<String> {
        &self.literal_tokens
    }

    /// The triples actually added (duplicates excluded).
    pub fn added(&self) -> &[Triple] {
        &self.added
    }

    /// True if some added triple matches the given constant positions
    /// (`None` = unconstrained).  This is the pattern-level test the scoped
    /// cache invalidation runs against each cached query's triple patterns:
    /// a cached result can only have changed if an added triple matches one
    /// of its patterns.
    pub fn matches_constants(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> bool {
        self.added.iter().any(|t| {
            subject.is_none_or(|s| *s == t.subject)
                && predicate.is_none_or(|p| *p == t.predicate)
                && object.is_none_or(|o| *o == t.object)
        })
    }
}

/// What one [`LiveStore::ingest`] call did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    epoch: u64,
    added: usize,
    duplicates: usize,
    touched: TouchedScope,
}

impl IngestReport {
    /// The epoch the batch was published at (unchanged for no-op batches).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of genuinely new triples added.
    pub fn added(&self) -> usize {
        self.added
    }

    /// Number of batch triples that were already present.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// True if the batch added nothing: no new epoch was published and no
    /// cache needs invalidating.
    pub fn is_noop(&self) -> bool {
        self.added == 0
    }

    /// The scope the batch touched, for targeted cache invalidation.
    pub fn touched(&self) -> &TouchedScope {
        &self.touched
    }
}

#[derive(Debug)]
struct WriterState {
    store: Store,
    maintenance: StatsMaintenance,
    epoch: u64,
}

/// A mutable store publishing immutable epoch snapshots.
///
/// Single writer, many readers: [`LiveStore::ingest`] serialises writers on
/// an internal mutex, while [`LiveStore::snapshot`] only ever takes a
/// read-lock for the duration of one `Arc` clone — readers never wait for a
/// batch to apply, they just keep reading the previous epoch.
///
/// ```
/// use kgqan_rdf::{IngestBatch, LiveStore, Store, Term, Triple};
///
/// let live = LiveStore::new(Store::new());
/// let before = live.snapshot();
///
/// let report = live
///     .ingest(IngestBatch::from_iter([Triple::new(
///         Term::iri("http://e/s"),
///         Term::iri("http://e/p"),
///         Term::iri("http://e/o"),
///     )]))
///     .unwrap();
/// assert_eq!(report.added(), 1);
///
/// // The pinned snapshot still reads its own epoch; a fresh pin sees the
/// // new one.
/// assert_eq!(before.len(), 0);
/// assert_eq!(live.snapshot().len(), 1);
/// assert_eq!(live.snapshot().epoch(), before.epoch() + 1);
/// ```
#[derive(Debug)]
pub struct LiveStore {
    writer: Mutex<WriterState>,
    current: RwLock<Arc<StoreSnapshot>>,
}

impl Default for LiveStore {
    fn default() -> Self {
        Self::new(Store::new())
    }
}

impl LiveStore {
    /// Take over a loaded store as epoch 0.
    ///
    /// The store is compacted (sealing its write state into `Arc`-shared
    /// runs), planner-stat maintenance is seeded with one full scan, and the
    /// derived stats are pre-installed so every snapshot plans with zero
    /// stats compute.
    pub fn new(mut store: Store) -> Self {
        store.compact();
        let maintenance = StatsMaintenance::from_store(&store);
        store.install_planner_stats(Arc::new(maintenance.to_planner_stats()));
        let snapshot = Arc::new(StoreSnapshot {
            epoch: 0,
            store: store.clone(),
        });
        LiveStore {
            writer: Mutex::new(WriterState {
                store,
                maintenance,
                epoch: 0,
            }),
            current: RwLock::new(snapshot),
        }
    }

    /// Pin the current epoch.  This is the only reader entry point; it
    /// never blocks on an in-progress ingest beyond the final pointer swap.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Apply a batch of adds and, if anything was genuinely new, publish the
    /// next epoch.
    ///
    /// The whole batch is validated before any triple is applied, so a
    /// structurally invalid triple rejects the batch atomically.  Duplicate
    /// triples are counted and skipped.  A batch of pure duplicates is a
    /// **no-op**: the epoch does not advance, the published snapshot `Arc`
    /// is untouched (planner stats, sorted index runs and downstream caches
    /// all stay warm), and the returned report's scope is empty.
    ///
    /// For an effective batch, maintenance is incremental end-to-end:
    /// planner stats fold in the encoded delta (per-predicate counts and
    /// distinct-count sketches), the text index and dictionary append
    /// to their head segments, and [`Store::compact`] merges — never
    /// rebuilds — the sorted index runs before the new snapshot is swapped
    /// in.
    pub fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, RdfError> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);

        for triple in &batch.triples {
            if !triple.is_valid() {
                return Err(RdfError::InvalidTriple(triple.to_string()));
            }
        }

        let mut added_encoded: Vec<EncodedTriple> = Vec::new();
        let mut touched = TouchedScope::default();
        let mut duplicates = 0usize;
        for triple in batch.triples {
            match writer.store.try_insert_encoded(triple.clone())? {
                Some(encoded) => {
                    added_encoded.push(encoded);
                    touched.observe(&triple);
                }
                None => duplicates += 1,
            }
        }

        if added_encoded.is_empty() {
            return Ok(IngestReport {
                epoch: writer.epoch,
                added: 0,
                duplicates,
                touched: TouchedScope::default(),
            });
        }

        let rdf_type = writer.store.id_of(&Term::iri(vocab::RDF_TYPE));
        let added = added_encoded.len();
        writer.maintenance.apply(&added_encoded, rdf_type);
        writer.store.compact();
        let stats = Arc::new(writer.maintenance.to_planner_stats());
        writer.store.install_planner_stats(stats);
        writer.epoch += 1;

        let snapshot = Arc::new(StoreSnapshot {
            epoch: writer.epoch,
            store: writer.store.clone(),
        });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&snapshot);

        Ok(IngestReport {
            epoch: writer.epoch,
            added,
            duplicates,
            touched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PlannerStats;

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn labelled(s: &str, label: &str) -> Triple {
        Triple::new(
            Term::iri(s),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str(label),
        )
    }

    fn seeded_live_store(n: u32) -> LiveStore {
        let mut store = Store::new();
        for i in 0..n {
            store.insert(triple(
                &format!("http://e/s{i}"),
                "http://e/p",
                &format!("http://e/o{}", i % 10),
            ));
            store.insert(labelled(&format!("http://e/s{i}"), &format!("entity {i}")));
        }
        LiveStore::new(store)
    }

    #[test]
    fn ingest_publishes_a_new_epoch_while_pinned_snapshots_stay_consistent() {
        let live = seeded_live_store(100);
        let pinned = live.snapshot();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.len(), 200);

        let report = live
            .ingest(IngestBatch::from_iter([
                triple("http://e/new", "http://e/p", "http://e/o0"),
                labelled("http://e/new", "brand new entity"),
            ]))
            .unwrap();
        assert_eq!(report.added(), 2);
        assert_eq!(report.duplicates(), 0);
        assert_eq!(report.epoch(), 1);

        // The pinned snapshot is frozen in its epoch...
        assert_eq!(pinned.len(), 200);
        assert!(pinned.id_of(&Term::iri("http://e/new")).is_none());
        // ...while a fresh pin observes the new epoch.
        let fresh = live.snapshot();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.len(), 202);
        assert!(fresh.contains(&labelled("http://e/new", "brand new entity")));
        assert_eq!(fresh.text_index().search_any(&["brand"], 10).len(), 1);
    }

    #[test]
    fn ingest_maintains_stats_incrementally_not_by_rescan() {
        let live = seeded_live_store(200);
        let base = live.snapshot().maintenance_counters();
        assert_eq!(base.stats_full_scans, 0);

        for round in 0..5 {
            live.ingest(IngestBatch::from_iter([triple(
                &format!("http://e/r{round}"),
                "http://e/fresh",
                "http://e/o0",
            )]))
            .unwrap();
        }
        let snap = live.snapshot();
        let counters = snap.maintenance_counters();
        // Planner stats were derived incrementally every round; no lazy full
        // scan ever ran, and the sorted index runs were merged, not rebuilt.
        assert_eq!(counters.stats_full_scans, 0);
        assert_eq!(
            counters.stats_incremental_installs,
            base.stats_incremental_installs + 5
        );
        assert_eq!(counters.index_base_builds, 1);
        assert_eq!(counters.index_base_merges, base.index_base_merges + 5);

        // And the maintained stats agree with the from-scratch oracle.
        let oracle = PlannerStats::compute(&snap);
        let maintained = snap.planner_stats();
        assert_eq!(maintained.triples, oracle.triples);
        assert_eq!(maintained.distinct_subjects, oracle.distinct_subjects);
        assert_eq!(maintained.distinct_predicates, oracle.distinct_predicates);
        assert_eq!(maintained.distinct_objects, oracle.distinct_objects);
        // The stats were pre-installed: reading them off the snapshot did
        // not trigger a scan either.
        assert_eq!(snap.maintenance_counters().stats_full_scans, 0);
    }

    #[test]
    fn duplicate_only_batch_is_a_noop_and_keeps_everything_warm() {
        let live = seeded_live_store(50);
        let before = live.snapshot();
        let stats_before = before.planner_stats();
        let counters_before = before.maintenance_counters();

        let report = live
            .ingest(IngestBatch::from_iter([
                triple("http://e/s0", "http://e/p", "http://e/o0"),
                labelled("http://e/s1", "entity 1"),
            ]))
            .unwrap();
        assert!(report.is_noop());
        assert_eq!(report.duplicates(), 2);
        assert_eq!(report.epoch(), 0);
        assert!(report.touched().is_empty());

        // Same snapshot Arc: nothing was republished.
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        // Planner stats are the very same Arc: still warm.
        assert!(Arc::ptr_eq(&stats_before, &after.planner_stats()));
        // No maintenance ran: no merges, no installs, no scans.
        assert_eq!(after.maintenance_counters(), counters_before);
    }

    #[test]
    fn invalid_triple_rejects_the_whole_batch_atomically() {
        let live = seeded_live_store(10);
        let before = live.snapshot();
        let bad = Triple::new(
            Term::literal_str("literal subject"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        );
        let batch = IngestBatch::from_iter([triple("http://e/x", "http://e/p", "http://e/y"), bad]);
        assert!(live.ingest(batch).is_err());
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        assert!(after.id_of(&Term::iri("http://e/x")).is_none());
    }

    #[test]
    fn touched_scope_reports_added_triples_and_tokens() {
        let live = seeded_live_store(10);
        let report = live
            .ingest(
                IngestBatch::new()
                    .with(triple(
                        "http://e/berlin",
                        "http://e/capitalOf",
                        "http://e/germany",
                    ))
                    .with(labelled("http://e/berlin", "Berlin City")),
            )
            .unwrap();
        let scope = report.touched();
        assert!(scope.literal_tokens().contains("berlin"));
        assert!(scope.literal_tokens().contains("city"));
        assert_eq!(scope.literal_tokens().len(), 2);
        assert!(scope.matches_constants(None, Some(&Term::iri("http://e/capitalOf")), None));
        assert!(scope.matches_constants(None, None, Some(&Term::iri("http://e/germany"))));
        assert!(scope.matches_constants(Some(&Term::iri("http://e/berlin")), None, None));
        assert!(!scope.matches_constants(
            Some(&Term::iri("http://e/berlin")),
            Some(&Term::iri("http://e/p")),
            None
        ));
        assert_eq!(scope.added().len(), 2);
    }

    #[test]
    fn snapshot_planning_is_epoch_consistent_under_interleaved_ingest() {
        let live = seeded_live_store(20);
        let pinned = live.snapshot();
        let stats = pinned.planner_stats();
        // Interleave a write between planning (stats read) and scanning.
        live.ingest(IngestBatch::from_iter([triple(
            "http://e/s0",
            "http://e/p",
            "http://e/o_new",
        )]))
        .unwrap();
        // The pinned snapshot's stats and scans agree with each other.
        let p = pinned.id_of(&Term::iri("http://e/p")).unwrap();
        let card = stats.predicate(p).unwrap();
        assert_eq!(
            card.triples,
            pinned.scan_count(crate::triple::EncodedTriplePattern::any().with_predicate(p))
        );
    }
}
