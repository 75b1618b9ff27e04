//! The cross-request semantic cache: a bounded LRU over endpoint round-trips
//! and the [`CachingEndpoint`] decorator that applies it transparently.
//!
//! KGQAn's online phase is dominated by endpoint round-trips — linking
//! probes (`potentialRelevantVertices`, predicate fan-out, description
//! lookups) and candidate-query execution.  Those artifacts are highly
//! reusable across questions on the same KG: two questions mentioning
//! *Kaliningrad* issue the identical fan-out probes.  This module provides
//! the mechanism:
//!
//! * [`QueryCache`] — one KG's thread-safe cache *namespace*: one keyspace
//!   of queries in two bounded LRU segments — queries with a full-text
//!   pattern (the linker's vertex fetches) and every other query — with
//!   atomic hit/miss/eviction counters ([`CacheStats`]) and one staleness
//!   rule for ingests,
//! * [`CachingEndpoint`] — a [`SparqlEndpoint`] decorator that consults the
//!   namespace before forwarding to the wrapped endpoint.
//!
//! An entry is keyed by its query's *canonical bytes* (`cache/key.rs`): a
//! compact encoding of the AST, tag bytes and length-prefixed strings,
//! equal exactly when the queries are.  [`CachingEndpoint`] writes them
//! once per call into a reused per-thread buffer and hands them to both the
//! lookup and the insert.  The LRU maps a 64-bit *fingerprint* of the bytes
//! to the entry, the entry keeps one boxed copy of them, and a lookup hits
//! only when the copy equals the asked query's bytes.  Bytes rather than
//! the AST, because on a cold workload nearly every call misses: a
//! two-triple candidate's AST is ≈ 16 heap objects (every IRI and variable
//! is a `String`), which a stored copy would clone, hash field by field and
//! free again about a thousand inserts later — ≈ 70 µs of the Execute
//! stage's ≈ 180 µs a question on the benchmark's MAG questions (2-core
//! Xeon).  The bytes are one allocation.
//!
//! The fingerprint is std's SipHash (`DefaultHasher`), not an Fx-style
//! multiply hash: over the ≈ 21 k distinct candidate and probe ASTs of the
//! benchmark's 3 600 MAG questions, Fx gave 26 full 64-bit collisions
//! (two-triple candidates that differ in one entity id) and SipHash none.
//! SipHash over the canonical bytes gives none either, over the 20 764
//! distinct queries of the MAG questions, the 365 of the 64 hot DBpedia
//! questions and the 4 096 joins of `sparql_join`.  A collision is still
//! only a miss — the byte comparison rejects it and the insert that
//! follows replaces the entry — but it would move the eviction counts.
//!
//! The KG-scoping *policy* sits one level up: [`crate::EndpointRegistry`]
//! owns one namespace per registered KG and invalidates it when the KG is
//! re-registered; the `kgqan` core crate's `QaService` serves every
//! registered KG through it and reports its counters
//! (`QaService::cache_report`).
//!
//! Only successful results are cached — errors always propagate and are
//! retried on the next request.  Values are *shared*, not copied: a
//! [`QueryResults`] is an immutable table of dictionary ids behind an `Arc`
//! (`kgqan_sparql::results`), so a hit hands the caller the cached table for
//! the price of a reference count, a miss inserts the very table it
//! returns, and a cached cell costs 4 bytes whatever its term's text.
//! Because a hit is the very table the miss built, an entry also keeps
//! what a reader derived from it: the linker attaches its top-k ranking of
//! a vertex or predicate probe to the table (`ResultSet::attach`), so a
//! repeated probe saves the affinity scores (~400 for a vertex probe) as
//! well as the round-trip.  That costs the cache nothing to manage — no capacity, no
//! counter, no invalidation — since the ranking lives and dies with the
//! entry's table; it is not counted in `resident_bytes`.
//!
//! Linking probes are LIMIT-bounded and anything larger than
//! [`CacheConfig::max_result_rows`] rows (candidate queries carry no LIMIT)
//! is not inserted at all, so per-entry memory stays bounded; what the
//! entries add up to is reported as [`CacheStats::resident_bytes`].

mod key;

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use kgqan_rdf::{IngestBatch, IngestReport, TouchedScope};
use kgqan_sparql::{parse_query, Query, QueryResults};

use crate::dialect::EngineDialect;
use crate::error::EndpointError;
use crate::stats::RequestStats;
use crate::{SparqlEndpoint, TracedQuery};
use key::{EncodedScope, QueryKey};

/// Capacity configuration of one cache namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Max entries in the probe segment: queries with a full-text search
    /// pattern (the linker's `potentialRelevantVertices` vertex fetches).
    pub probe_capacity: usize,
    /// Max entries in the result segment: every other query (predicate
    /// fan-out probes, description lookups, generated candidate queries).
    pub result_capacity: usize,
    /// Largest result (in solution rows) worth caching.  Linking probes are
    /// LIMIT-bounded, but generated candidate queries carry no LIMIT, and a
    /// weakly-constrained candidate on a large KG can return an arbitrary
    /// number of rows — caching those would make per-entry memory
    /// unbounded.  Oversized results are simply not inserted (they still
    /// count as misses and are recomputed on repeat).
    pub max_result_rows: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            probe_capacity: 2048,
            result_capacity: 1024,
            max_result_rows: 4096,
        }
    }
}

impl CacheConfig {
    /// A configuration with the same capacity for both segments.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            probe_capacity: capacity,
            result_capacity: capacity,
            ..Default::default()
        }
    }
}

/// Counter snapshot of one cache (or an aggregate of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the wrapped endpoint.
    pub misses: u64,
    /// Entries written into the cache.
    pub insertions: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Explicit whole-namespace invalidations.
    pub invalidations: u64,
    /// Scoped (ingest-driven) invalidation passes run against the
    /// namespace.  A pass walks the cached queries and evicts only those
    /// with a triple pattern an added triple could match — untouched
    /// entries survive.
    pub scoped_invalidations: u64,
    /// Entries evicted by scoped invalidation passes (a subset of the
    /// namespace, unlike `invalidations` which flushes everything).
    pub scoped_evictions: u64,
    /// Approximate bytes the live entries keep alive of their own
    /// ([`ResultSet::approx_bytes`](kgqan_sparql::ResultSet::approx_bytes),
    /// taken once at insert): 4 bytes a cell plus the few terms a page
    /// holds outside the store's dictionary.  The text of dictionary terms
    /// is the store's and is not counted, though a page keeps the
    /// dictionary segments it was built against alive.  A gauge, not a
    /// counter: it falls when entries are evicted or invalidated.  Nothing
    /// is admitted or evicted by it.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Counter deltas accumulated since an `earlier` snapshot of the same
    /// cache (saturating, so snapshots taken across an invalidation that
    /// resets nothing — counters are monotonic — still behave).  The
    /// `resident_bytes` gauge is carried over as it stands now.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            scoped_invalidations: self
                .scoped_invalidations
                .saturating_sub(earlier.scoped_invalidations),
            scoped_evictions: self
                .scoped_evictions
                .saturating_sub(earlier.scoped_evictions),
            resident_bytes: self.resident_bytes,
        }
    }

    /// Merge another snapshot into this one (namespace aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.scoped_invalidations += other.scoped_invalidations;
        self.scoped_evictions += other.scoped_evictions;
        self.resident_bytes += other.resident_bytes;
    }
}

/// A bounded map with least-recently-used eviction.
///
/// Recency is tracked with a monotonic tick per entry and a tick-ordered
/// index, so `get`, `insert` and eviction are all `O(log n)`.  The cache is
/// not internally synchronised — [`QueryCache`] wraps it in a lock.  Its
/// keys are query fingerprints, so the map and the recency index each hold
/// a copy of a `u64`.
#[derive(Debug)]
struct LruCache<K, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.  A zero capacity
    /// is clamped to one so the type never divides by its own emptiness.
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Current number of entries (always `<= capacity`).
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up a key, marking it most-recently-used on a hit.  Refreshing
    /// recency *moves* the key between ticks in the recency index.
    fn get(&mut self, key: &K) -> Option<&V> {
        let tick = self.next_tick();
        let (value, entry_tick) = self.entries.get_mut(key)?;
        let old_tick = std::mem::replace(entry_tick, tick);
        let stored_key = self
            .recency
            .remove(&old_tick)
            .expect("recency index tracks every entry");
        self.recency.insert(tick, stored_key);
        Some(value)
    }

    /// Look up a key without touching recency.
    fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _)| v)
    }

    /// Insert a value, evicting the least-recently-used entry if the cache
    /// is full.  Returns the evicted `(key, value)` pair, if any.
    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let tick = self.next_tick();
        let evicted = match self.entries.remove(&key) {
            // Replacing an existing entry never evicts.
            Some((_, old_tick)) => {
                self.recency.remove(&old_tick);
                None
            }
            None if self.entries.len() >= self.capacity => {
                let (_, oldest_key) = self
                    .recency
                    .pop_first()
                    .expect("a full cache has a least-recent entry");
                let oldest = self.entries.remove(&oldest_key);
                oldest.map(|(v, _)| (oldest_key, v))
            }
            None => None,
        };
        self.entries.insert(key.clone(), (value, tick));
        self.recency.insert(tick, key);
        evicted
    }

    /// Keep only the entries for which `keep` returns true, preserving the
    /// recency order of the survivors.  Returns the number of entries
    /// dropped — the scoped-invalidation primitive.
    fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped_ticks = Vec::new();
        self.entries.retain(|key, (value, tick)| {
            let keep_it = keep(key, value);
            if !keep_it {
                dropped_ticks.push(*tick);
            }
            keep_it
        });
        for tick in &dropped_ticks {
            self.recency.remove(tick);
        }
        dropped_ticks.len()
    }
}

/// Lock one cache segment.  An `LruCache` is consistent between any two of
/// its calls, so a lock poisoned by a panicking holder is recovered, like
/// every other mutex in the workspace.
fn lock<T>(segment: &Mutex<T>) -> MutexGuard<'_, T> {
    segment.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cached round-trip: the canonical bytes of the query it answers, the
/// shared table and its size, measured once at insert so eviction can give
/// the bytes back without another pass.
#[derive(Debug)]
struct Entry {
    key: Box<[u8]>,
    results: QueryResults,
    approx_bytes: u64,
}

/// One LRU of the namespace, keyed by [`QueryKey::fingerprint`].
type Segment = Mutex<LruCache<u64, Entry>>;

/// One KG's cache namespace: thread-safe LRUs keyed by query fingerprint,
/// with atomic [`CacheStats`] counters.
///
/// Each entry holds the canonical bytes of the query it was stored for, and
/// a lookup returns it only when those equal the asked query's, so two
/// queries sharing a fingerprint can never be served each other's table:
/// the second misses, and its insert replaces the first (a replacement, not
/// an eviction).  Scoped invalidation reads the stored bytes.
///
/// The query picks its segment: one with a full-text pattern lives among
/// the `probe_capacity` probes, any other among the `result_capacity`
/// results, so the 400-row vertex fetches of linking and the candidate
/// queries of execution do not evict each other.
///
/// Namespaces are shared via `Arc` — every [`CachingEndpoint`] wrapping the
/// same namespace sees (and contributes) the same entries, which is how
/// concurrent and batched requests share hits.
#[derive(Debug)]
pub struct QueryCache {
    probes: Segment,
    results: Segment,
    max_result_rows: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    scoped_invalidations: AtomicU64,
    scoped_evictions: AtomicU64,
    resident_bytes: AtomicU64,
}

impl QueryCache {
    /// Create a namespace with the given capacities, ready for sharing.
    pub fn shared(config: CacheConfig) -> Arc<Self> {
        Arc::new(QueryCache {
            probes: Mutex::new(LruCache::new(config.probe_capacity)),
            results: Mutex::new(LruCache::new(config.result_capacity)),
            max_result_rows: config.max_result_rows,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            scoped_invalidations: AtomicU64::new(0),
            scoped_evictions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        })
    }

    /// The segment `key`'s query lives in: a full-text probe or anything
    /// else.
    fn segment(&self, key: &QueryKey) -> &Segment {
        if key.is_probe() {
            &self.probes
        } else {
            &self.results
        }
    }

    /// Look up `key` and count the hit or miss.  An entry under its
    /// fingerprint that holds other bytes is a miss.  A hit returns the
    /// cached table itself — shared, not copied (see [`QueryResults`]): the
    /// clone made under the lock is two reference-count bumps, whatever the
    /// table's size.
    fn get(&self, key: &QueryKey) -> Option<QueryResults> {
        // A colliding entry found here is refreshed, then replaced by the
        // insert that follows the miss.
        let found = lock(self.segment(key))
            .get(&key.fingerprint())
            .filter(|entry| *entry.key == *key.bytes())
            .map(|entry| entry.results.clone());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Cache the result of `key`'s query unless it is oversized (see
    /// [`CacheConfig::max_result_rows`]), keeping the byte gauge in step
    /// with whatever the insert replaced or evicted.  The entry copies the
    /// key's bytes and keeps a share of `results`; the caller's value is
    /// untouched.
    fn insert(&self, key: &QueryKey, results: &QueryResults) {
        if results.rows().len() > self.max_result_rows {
            return;
        }
        let approx_bytes = results.as_solutions().map_or(0, |s| s.approx_bytes()) as u64;
        let entry = Entry {
            key: Box::from(key.bytes()),
            results: results.clone(),
            approx_bytes,
        };
        // The gauge moves under the segment lock, so an entry's bytes are
        // always added before anything can take them off again.
        let mut segment = lock(self.segment(key));
        let replaced = segment
            .peek(&key.fingerprint())
            .map_or(0, |old| old.approx_bytes);
        let evicted = segment.insert(key.fingerprint(), entry);
        let freed = replaced + evicted.as_ref().map_or(0, |(_, old)| old.approx_bytes);
        self.resident_bytes
            .fetch_add(approx_bytes, Ordering::Relaxed);
        self.resident_bytes.fetch_sub(freed, Ordering::Relaxed);
        drop(segment);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop the entries whose query's bytes are `stale` from both segments;
    /// returns how many went and gives their bytes back to the gauge.
    fn evict_where(&self, stale: impl Fn(&[u8]) -> bool) -> usize {
        let mut dropped = 0;
        for segment in [&self.probes, &self.results] {
            let mut freed = 0;
            dropped += lock(segment).retain(|_, entry| {
                let keep = !stale(&entry.key);
                if !keep {
                    freed += entry.approx_bytes;
                }
                keep
            });
            self.resident_bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        dropped
    }

    /// Drop every cached entry in the namespace.  Counters are monotonic and
    /// survive (the `invalidations` counter records the flush).
    pub fn invalidate(&self) {
        self.evict_where(|_| true);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict only the entries an ingest batch could have changed, leaving
    /// the rest of the namespace warm.
    ///
    /// The batch's [`TouchedScope`] carries the added triples plus the word
    /// tokens of their literals, and every cached query, probe or candidate,
    /// is checked by one rule: it is evicted when one of its triple patterns
    /// could match an added triple — in its constant positions
    /// ([`TouchedScope::matches_constants`]), or, for a full-text pattern,
    /// by a search word among the touched literal tokens.  Additions are
    /// monotone, so a result can only change if some pattern gained a
    /// matching triple.
    ///
    /// Very large batches fall back to a whole-namespace flush (matching
    /// every cached key against thousands of added triples costs more than
    /// re-probing), recorded under `invalidations` rather than
    /// `scoped_invalidations`.  An empty scope (duplicate-only batch)
    /// evicts nothing and does not count as a pass.
    pub fn invalidate_scoped(&self, scope: &TouchedScope) {
        if scope.is_empty() {
            return;
        }
        if scope.added().len() > SCOPED_INVALIDATION_MAX_BATCH {
            self.invalidate();
            return;
        }
        let scope = EncodedScope::new(scope);
        let dropped = self.evict_where(|key| scope.touches(key));
        self.scoped_invalidations.fetch_add(1, Ordering::Relaxed);
        self.scoped_evictions
            .fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Number of live entries across both segments.
    pub fn len(&self) -> usize {
        lock(&self.probes).len() + lock(&self.results).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the namespace counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            scoped_invalidations: self.scoped_invalidations.load(Ordering::Relaxed),
            scoped_evictions: self.scoped_evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Above this many added triples a scoped pass degrades to a full flush:
/// the per-entry staleness test is linear in the batch, so a bulk load
/// would make invalidation cost `O(entries × batch)` for a cache that is
/// almost certainly all stale anyway.
const SCOPED_INVALIDATION_MAX_BATCH: usize = 256;

/// A [`SparqlEndpoint`] decorator that answers repeated queries from a
/// shared [`QueryCache`] namespace instead of re-probing the wrapped
/// endpoint.
///
/// * Every query is keyed by its canonical bytes, a compact encoding of
///   its AST written once per call into a reused per-thread buffer (not
///   its SPARQL text), and an entry keeps one copy of them.
///   [`SparqlEndpoint::query`] parses the text once and takes the
///   [`SparqlEndpoint::query_parsed`] path: a query sent as text and the
///   same query sent as an AST share one entry.  Text that does not parse
///   is forwarded uncached.
/// * [`SparqlEndpoint::stats`] forwards the wrapped endpoint's counters
///   unchanged; hits and misses are counted once, by the namespace
///   ([`QueryCache::stats`]).
///
/// Failed queries are never cached.
///
/// ```
/// use std::sync::Arc;
/// use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
/// use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
/// use kgqan_rdf::{Store, Term, Triple};
///
/// let mut store = Store::new();
/// store.insert(Triple::new(
///     Term::iri("http://e/s"), Term::iri("http://e/p"), Term::iri("http://e/o"),
/// ));
/// let namespace = QueryCache::shared(CacheConfig::default());
/// let cached = CachingEndpoint::new(
///     Arc::new(InProcessEndpoint::new("DBpedia", store)),
///     namespace.clone(),
/// );
///
/// let q = "SELECT ?s WHERE { ?s ?p ?o . }";
/// cached.query(q).unwrap();        // miss: forwarded to the store
/// cached.query(q).unwrap();        // hit: answered from the namespace
/// assert_eq!(namespace.stats().hits, 1);
/// assert_eq!(cached.stats().total_requests, 1); // the engine saw one request
/// ```
pub struct CachingEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    cache: Arc<QueryCache>,
}

impl CachingEndpoint {
    /// Decorate an endpoint with a cache namespace.
    pub fn new(inner: Arc<dyn SparqlEndpoint>, cache: Arc<QueryCache>) -> Self {
        CachingEndpoint { inner, cache }
    }

    /// The cache namespace this decorator consults.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// Answer `query` from the namespace, or `run` it on the wrapped
    /// endpoint and cache what came back.  The query is encoded and hashed
    /// once, for both the lookup and the insert.  A hit executed nothing,
    /// so it carries no plan and no scan work — the telemetry reflects what
    /// actually ran.  A deadline-truncated answer is a *prefix*, not the
    /// answer, so it is not cached: a later, less-hurried request must not
    /// be served the partial rows.
    fn lookup_or_run(
        &self,
        query: &Query,
        run: impl FnOnce(&dyn SparqlEndpoint) -> Result<TracedQuery, EndpointError>,
    ) -> Result<TracedQuery, EndpointError> {
        let key = QueryKey::of(query);
        if let Some(results) = self.cache.get(&key) {
            return Ok(untraced(results));
        }
        let traced = run(self.inner.as_ref())?;
        let partial = traced
            .metrics
            .as_ref()
            .is_some_and(|metrics| metrics.deadline_exceeded);
        if !partial {
            self.cache.insert(&key, &traced.results);
        }
        Ok(traced)
    }
}

/// Results with no execution telemetry.
fn untraced(results: QueryResults) -> TracedQuery {
    TracedQuery {
        results,
        plan: None,
        metrics: None,
    }
}

impl SparqlEndpoint for CachingEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dialect(&self) -> EngineDialect {
        self.inner.dialect()
    }

    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
        match parse_query(sparql) {
            Ok(query) => self.query_parsed(&query),
            // Nothing to key on: the engine rejects (and counts) it.
            Err(_) => self.inner.query(sparql),
        }
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
        self.lookup_or_run(query, |inner| inner.query_parsed(query).map(untraced))
            .map(|traced| traced.results)
    }

    fn query_traced(&self, query: &Query) -> Result<TracedQuery, EndpointError> {
        self.lookup_or_run(query, |inner| inner.query_traced(query))
    }

    fn query_traced_within(
        &self,
        query: &Query,
        deadline: Option<std::time::Instant>,
    ) -> Result<TracedQuery, EndpointError> {
        self.lookup_or_run(query, |inner| inner.query_traced_within(query, deadline))
    }

    fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, EndpointError> {
        let report = self.inner.ingest(batch)?;
        if report.added() > 0 {
            // Evict only what the new epoch could have changed; untouched
            // probes and candidate results stay warm across the ingest.
            self.cache.invalidate_scoped(report.touched());
        }
        Ok(report)
    }

    fn describe(&self) -> Option<crate::EndpointDescription> {
        self.inner.describe()
    }

    fn query_federated(
        &self,
        query: &Query,
        services: &dyn kgqan_sparql::ServiceResolver,
    ) -> Result<TracedQuery, EndpointError> {
        // A federated query's results depend on *other* KGs' epochs, which
        // this namespace's scoped invalidation cannot see — so federated
        // queries bypass the cache.  (The SERVICE groups themselves still
        // hit the per-target-KG caches through the resolver.)
        self.inner.query_federated(query, services)
    }

    fn stats(&self) -> RequestStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inprocess::InProcessEndpoint;
    use kgqan_rdf::{Store, Term, Triple};

    fn store() -> Store {
        let mut s = Store::new();
        s.insert(Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        ));
        s
    }

    #[test]
    fn lru_evicts_in_least_recently_used_order() {
        let mut lru: LruCache<u32, &str> = LruCache::new(3);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(3, "c");

        // Touching 1 makes 2 the eviction victim.
        assert_eq!(lru.get(&1), Some(&"a"));
        let evicted = lru.insert(4, "d");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(lru.len(), 3);
        assert!(lru.peek(&2).is_none());

        // Then 3 (oldest untouched), 1, 4: peeking does not refresh.
        assert_eq!(lru.peek(&3), Some(&"c"));
        assert_eq!(lru.insert(5, "e"), Some((3, "c")));
        assert_eq!(lru.insert(6, "f"), Some((1, "a")));
        assert_eq!(lru.insert(7, "g"), Some((4, "d")));
    }

    #[test]
    fn lru_capacity_is_a_hard_bound() {
        let mut lru: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..100 {
            lru.insert(i, i * 10);
            assert!(lru.len() <= 4, "len {} exceeded capacity", lru.len());
        }
        assert_eq!(lru.len(), 4);
        // Only the four most recent survive.
        for i in 96..100 {
            assert_eq!(lru.peek(&i), Some(&(i * 10)));
        }
        // Replacement of a live key neither grows nor evicts.
        assert!(lru.insert(99, 1).is_none());
        assert_eq!(lru.len(), 4);
        assert_eq!(lru.peek(&99), Some(&1));
    }

    #[test]
    fn lru_zero_capacity_is_clamped() {
        let mut lru: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(lru.len(), 0);
        lru.insert(1, 1);
        assert_eq!(lru.insert(2, 2), Some((1, 1)));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn caching_endpoint_serves_repeats_from_the_namespace() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        let q = "SELECT ?s WHERE { ?s ?p ?o . }";
        let first = ep.query(q).unwrap();
        let second = ep.query(q).unwrap();
        assert_eq!(first, second);
        // One engine round-trip, one hit.
        assert_eq!(ep.stats().total_requests, 1);
        assert_eq!(namespace.stats().hits, 1);
        assert_eq!(namespace.stats().misses, 1);
        assert!((namespace.stats().hit_rate() - 0.5).abs() < 1e-12);

        // The same query sent as an AST is the same entry.
        let parsed = parse_query(q).unwrap();
        assert_eq!(ep.query_parsed(&parsed).unwrap(), first);
        assert_eq!(ep.query_traced(&parsed).unwrap().results, first);
        assert_eq!(ep.stats().total_requests, 1);
        assert_eq!(namespace.stats().hits, 3);
        assert_eq!(namespace.stats().insertions, 1);
        assert_eq!(namespace.len(), 1);
    }

    #[test]
    fn text_probes_and_other_queries_fill_separate_segments() {
        let namespace = QueryCache::shared(CacheConfig {
            probe_capacity: 1,
            result_capacity: 1,
            ..Default::default()
        });
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        ep.query(r#"SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "'o'" . }"#)
            .unwrap();
        ep.query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        assert_eq!(namespace.len(), 2);
        assert_eq!(namespace.stats().evictions, 0);
        ep.query("SELECT ?o WHERE { ?s ?p ?o . }").unwrap();
        assert_eq!(namespace.len(), 2);
        assert_eq!(namespace.stats().evictions, 1);
    }

    #[test]
    fn caching_endpoint_does_not_cache_failures() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        assert!(ep.query("SELECT nonsense").is_err());
        assert!(ep.query("SELECT nonsense").is_err());
        // Both attempts reached the engine.
        assert_eq!(ep.stats().failed_requests, 2);
        assert_eq!(namespace.stats().hits, 0);
    }

    #[test]
    fn invalidation_flushes_entries_but_keeps_counters() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        let q = "SELECT ?s WHERE { ?s ?p ?o . }";
        ep.query(q).unwrap();
        assert_eq!(namespace.len(), 1);
        namespace.invalidate();
        assert!(namespace.is_empty());
        let stats = namespace.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.insertions, 1);
        // The next lookup misses again and repopulates.
        ep.query(q).unwrap();
        assert_eq!(namespace.stats().misses, 2);
        assert_eq!(namespace.len(), 1);
    }

    #[test]
    fn lru_retain_drops_matches_and_preserves_survivor_recency() {
        let mut lru: LruCache<u32, &str> = LruCache::new(4);
        for (k, v) in [(1, "a"), (2, "b"), (3, "c"), (4, "d")] {
            lru.insert(k, v);
        }
        lru.get(&1); // recency now 2, 3, 4, 1
        let dropped = lru.retain(|k, _| k % 2 != 0);
        assert_eq!(dropped, 2);
        assert_eq!(lru.len(), 2);
        assert!(lru.peek(&2).is_none());
        assert!(lru.peek(&4).is_none());
        // Survivors keep their order: 3 before 1 once the cache refills.
        lru.insert(5, "e");
        lru.insert(6, "f");
        assert_eq!(lru.insert(7, "g"), Some((3, "c")));
        assert_eq!(lru.insert(8, "h"), Some((1, "a")));
    }

    #[test]
    fn scoped_invalidation_evicts_touched_entries_and_keeps_the_rest_warm() {
        let mut s = Store::new();
        s.insert(Triple::new(
            Term::iri("http://e/s1"),
            Term::iri("http://e/p1"),
            Term::iri("http://e/o1"),
        ));
        s.insert(Triple::new(
            Term::iri("http://e/s2"),
            Term::iri("http://e/p2"),
            Term::iri("http://e/o2"),
        ));
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", s)),
            namespace.clone(),
        );
        let q_touched = "SELECT ?s WHERE { ?s <http://e/p1> ?o . }";
        let q_untouched = "SELECT ?s WHERE { ?s <http://e/p2> ?o . }";
        assert_eq!(ep.query(q_touched).unwrap().rows().len(), 1);
        ep.query(q_untouched).unwrap();
        assert_eq!(namespace.len(), 2);

        let report = ep
            .ingest(IngestBatch::from(vec![Triple::new(
                Term::iri("http://e/s3"),
                Term::iri("http://e/p1"),
                Term::iri("http://e/o3"),
            )]))
            .unwrap();
        assert_eq!(report.added(), 1);

        // Only the p1-touching entry was dropped.
        let stats = namespace.stats();
        assert_eq!(stats.scoped_invalidations, 1);
        assert_eq!(stats.scoped_evictions, 1);
        assert_eq!(stats.invalidations, 0, "no whole-namespace flush");
        assert_eq!(namespace.len(), 1);

        // The untouched query still hits, as text or as an AST; the touched
        // one re-executes and observes the new epoch.
        let hits_before = namespace.stats().hits;
        ep.query(q_untouched).unwrap();
        ep.query_parsed(&parse_query(q_untouched).unwrap()).unwrap();
        assert_eq!(namespace.stats().hits, hits_before + 2);
        assert_eq!(ep.query(q_touched).unwrap().rows().len(), 2);
    }

    #[test]
    fn scoped_invalidation_matches_text_probes_by_token() {
        const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
        let fact = |s: &str, p: &str, o: Term| {
            Triple::new(Term::iri(format!("http://e/{s}")), Term::iri(p), o)
        };
        let mut s = Store::new();
        s.insert(fact("baltic", LABEL, Term::literal_str("Baltic")));
        s.insert(fact("wind", LABEL, Term::literal_str("North wind")));
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", s)),
            namespace.clone(),
        );
        // The linker's vertex fetches, keyed by their ASTs: rows per word.
        let rows = || {
            ["north", "baltic", "sea"].map(|word| {
                let probe = format!(
                    r#"SELECT DISTINCT ?v ?d WHERE {{ ?v ?p ?d . ?d <bif:contains> "'{word}'" . }} LIMIT 400"#
                );
                ep.query_parsed(&parse_query(&probe).unwrap()).unwrap().rows().len()
            })
        };
        // Ingest, then re-run the probes: (entries evicted, rows, hits).
        let after = |batch: Vec<Triple>| {
            let before = namespace.stats();
            ep.ingest(IngestBatch::from(batch)).unwrap();
            let evicted = namespace.stats().since(&before).scoped_evictions;
            let rows = rows();
            (evicted, rows, namespace.stats().since(&before).hits)
        };
        assert_eq!(rows(), [1, 1, 0]);

        // Literals that share no word with any search keep every probe
        // warm, though `?v ?p ?d` matches each added triple.
        let gulf = vec![
            fact("gulf", LABEL, Term::literal_str("Gulf")),
            fact("gulf", "http://e/near", Term::iri("http://e/baltic")),
        ];
        assert_eq!(after(gulf), (0, [1, 1, 0], 3));
        // A new vertex whose label holds a word evicts that word's probes...
        let north_sea = fact("north_sea", LABEL, Term::literal_str("North Sea"));
        assert_eq!(after(vec![north_sea]), (2, [2, 1, 1], 1));
        // ...and so does a new vertex linked to an old literal holding it.
        let gust = fact("gust", "http://e/altLabel", Term::literal_str("North wind"));
        assert_eq!(after(vec![gust]), (1, [3, 1, 1], 2));
    }

    #[test]
    fn labelling_an_opaque_predicate_keeps_an_unrelated_vertex_probe_warm() {
        const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
        let entity = |name: &str| Term::iri(format!("http://www.wikidata.org/entity/{name}"));
        let mut s = Store::new();
        s.insert(Triple::new(
            entity("Q1829"),
            Term::iri(LABEL),
            Term::literal_str("Kaliningrad"),
        ));
        s.insert(Triple::new(
            entity("Q3000"),
            entity("P131"),
            entity("Q1829"),
        ));
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("Wikidata", s)),
            namespace.clone(),
        );
        let probe = parse_query(
            r#"SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "'kaliningrad'" } LIMIT 400"#,
        )
        .unwrap();
        assert_eq!(ep.query_parsed(&probe).unwrap().rows().len(), 1);

        // `?v ?p ?d` matches the new label triple, but its literal does not
        // hold the searched word: the probe stays a hit.
        let before = namespace.stats();
        ep.ingest(IngestBatch::from(vec![Triple::new(
            entity("P131"),
            Term::iri(LABEL),
            Term::literal_str("nearest city"),
        )]))
        .unwrap();
        assert_eq!(ep.query_parsed(&probe).unwrap().rows().len(), 1);
        let delta = namespace.stats().since(&before);
        assert_eq!(
            (delta.hits, delta.misses, delta.scoped_evictions),
            (1, 0, 0)
        );

        // A literal that holds the word evicts it, and the re-run sees it.
        let before = namespace.stats();
        ep.ingest(IngestBatch::from(vec![Triple::new(
            entity("Q1749"),
            Term::iri(LABEL),
            Term::literal_str("Kaliningrad Oblast"),
        )]))
        .unwrap();
        assert_eq!(ep.query_parsed(&probe).unwrap().rows().len(), 2);
        let delta = namespace.stats().since(&before);
        assert_eq!(
            (delta.hits, delta.misses, delta.scoped_evictions),
            (0, 1, 1)
        );
    }

    #[test]
    fn huge_ingest_batches_fall_back_to_a_full_flush() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        // This entry mentions nothing the batch touches, but a bulk load
        // flushes everything rather than run entries × batch staleness tests.
        ep.query("SELECT ?s WHERE { ?s <http://e/p> ?o . }")
            .unwrap();
        let batch: IngestBatch = (0..SCOPED_INVALIDATION_MAX_BATCH + 1)
            .map(|i| {
                Triple::new(
                    Term::iri(format!("http://e/bulk{i}")),
                    Term::iri("http://e/q"),
                    Term::iri("http://e/o"),
                )
            })
            .collect();
        ep.ingest(batch).unwrap();
        assert!(namespace.is_empty());
        let stats = namespace.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.scoped_invalidations, 0);
    }

    #[test]
    fn concurrent_threads_count_hits_exactly() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = Arc::new(CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        ));
        let q = "SELECT ?s WHERE { ?s ?p ?o . }";
        // Pre-warm so every concurrent lookup is a hit.
        let expected = ep.query(q).unwrap();

        const THREADS: usize = 4;
        const LOOKUPS: usize = 50;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let ep = Arc::clone(&ep);
                let expected = expected.clone();
                scope.spawn(move || {
                    for _ in 0..LOOKUPS {
                        assert_eq!(ep.query(q).unwrap(), expected);
                    }
                });
            }
        });
        let stats = namespace.stats();
        assert_eq!(stats.hits, (THREADS * LOOKUPS) as u64);
        assert_eq!(stats.misses, 1);
        assert_eq!(ep.stats().total_requests, 1);
    }

    #[test]
    fn query_traced_misses_carry_plans_and_hits_do_not() {
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", store())),
            namespace.clone(),
        );
        let parsed = parse_query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();

        let miss = ep.query_traced(&parsed).unwrap();
        assert!(miss.plan.is_some(), "a miss executes and exposes its plan");
        assert!(miss.metrics.is_some());

        let hit = ep.query_traced(&parsed).unwrap();
        assert_eq!(hit.results, miss.results);
        assert!(hit.plan.is_none(), "a hit executes nothing");
        assert!(hit.metrics.is_none());
        assert_eq!(namespace.stats().hits, 1);
        assert_eq!(ep.stats().total_requests, 1);
    }

    #[test]
    fn deadline_cut_join_is_flagged_and_not_cached() {
        // A cross product whose FILTER rejects every row emits nothing, so
        // the engine must notice the deadline from scan work alone; the
        // flagged (empty) prefix must then stay out of the cache.
        let mut s = Store::new();
        for i in 0..3_000 {
            for (side, pred) in [("l", "http://e/p"), ("r", "http://e/q")] {
                s.insert(Triple::new(
                    Term::iri(format!("http://e/{side}{i}")),
                    Term::iri(pred),
                    Term::iri("http://e/o"),
                ));
            }
        }
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", s)),
            namespace.clone(),
        );
        let query = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://e/p> ?a . ?y <http://e/q> ?b . FILTER (?x = ?y) }",
        )
        .unwrap();
        for _ in 0..2 {
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(2);
            let traced = ep.query_traced_within(&query, Some(deadline)).unwrap();
            let metrics = traced
                .metrics
                .expect("a miss reports the engine's counters");
            assert!(metrics.deadline_exceeded);
            assert!(
                metrics.rows_scanned < 100_000,
                "scanned {}",
                metrics.rows_scanned
            );
        }
        // Both requests reached the engine; nothing was stored.
        assert_eq!(ep.stats().total_requests, 2);
        assert_eq!(namespace.stats().insertions, 0);
        assert_eq!(namespace.stats().hits, 0);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let mut big = Store::new();
        for i in 0..8 {
            big.insert(Triple::new(
                Term::iri(format!("http://e/s{i}")),
                Term::iri("http://e/p"),
                Term::iri("http://e/o"),
            ));
        }
        let namespace = QueryCache::shared(CacheConfig {
            max_result_rows: 4,
            ..Default::default()
        });
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", big)),
            namespace.clone(),
        );
        let wide = "SELECT ?s WHERE { ?s ?p ?o . }"; // 8 rows > cap 4
        let narrow = "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 2";
        ep.query(wide).unwrap();
        ep.query(wide).unwrap();
        let parsed = parse_query(wide).unwrap();
        ep.query_parsed(&parsed).unwrap();
        ep.query(narrow).unwrap();
        ep.query(narrow).unwrap();
        let stats = namespace.stats();
        // The wide query is recomputed every time; the narrow one caches.
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(ep.stats().total_requests, 4);
        assert_eq!(namespace.len(), 1);
    }

    #[test]
    fn resident_bytes_follow_inserts_evictions_and_invalidation() {
        let mut s = Store::new();
        for i in 0..3 {
            s.insert(Triple::new(
                Term::iri(format!("http://e/s{i}")),
                Term::iri(format!("http://e/p{i}")),
                Term::iri("http://e/o"),
            ));
        }
        let namespace = QueryCache::shared(CacheConfig::with_capacity(2));
        let ep = CachingEndpoint::new(
            Arc::new(InProcessEndpoint::new("DBpedia", s)),
            namespace.clone(),
        );
        let probe = |i: usize| format!("SELECT ?s WHERE {{ ?s <http://e/p{i}> ?o . }}");
        let one_row = ep
            .query(&probe(0))
            .unwrap()
            .as_solutions()
            .unwrap()
            .approx_bytes() as u64;
        // One 4-byte code and the variable name: the IRI is the store's.
        assert_eq!(one_row, 4 + "s".len() as u64);
        assert_eq!(namespace.stats().resident_bytes, one_row);

        // Same-sized pages: a second entry doubles the gauge, a hit and a
        // re-insert of a live key leave it alone, an eviction swaps bytes.
        ep.query(&probe(1)).unwrap();
        assert_eq!(namespace.stats().resident_bytes, 2 * one_row);
        let cached = ep.query(&probe(1)).unwrap();
        let query = parse_query(&probe(1)).unwrap();
        namespace.insert(&QueryKey::of(&query), &cached);
        assert_eq!(namespace.stats().resident_bytes, 2 * one_row);
        ep.query(&probe(2)).unwrap();
        assert_eq!(namespace.stats().evictions, 1);
        assert_eq!(namespace.stats().resident_bytes, 2 * one_row);

        // Scoped invalidation gives back what it drops, a flush everything.
        ep.ingest(IngestBatch::from(vec![Triple::new(
            Term::iri("http://e/new"),
            Term::iri("http://e/p2"),
            Term::iri("http://e/o"),
        )]))
        .unwrap();
        assert_eq!(namespace.stats().scoped_evictions, 1);
        assert_eq!(namespace.stats().resident_bytes, one_row);
        namespace.invalidate();
        assert_eq!(namespace.stats().resident_bytes, 0);
    }

    #[test]
    fn a_shared_fingerprint_misses_and_its_insert_replaces_the_entry() {
        let mut s = Store::new();
        for (subject, predicate) in [("s1", "p1"), ("s2", "p2"), ("s3", "p2")] {
            s.insert(Triple::new(
                Term::iri(format!("http://e/{subject}")),
                Term::iri(format!("http://e/{predicate}")),
                Term::iri("http://e/o"),
            ));
        }
        let engine = Arc::new(InProcessEndpoint::new("DBpedia", s));
        let namespace = QueryCache::shared(CacheConfig::default());
        let ep = CachingEndpoint::new(engine.clone(), namespace.clone());
        let first = parse_query("SELECT ?s WHERE { ?s <http://e/p1> ?o . }").unwrap();
        let second = parse_query("SELECT ?s WHERE { ?s <http://e/p2> ?o . }").unwrap();
        let first_rows = engine.query_parsed(&first).unwrap();
        let second_rows = engine.query_parsed(&second).unwrap();
        let bytes = |rows: &QueryResults| rows.as_solutions().unwrap().approx_bytes() as u64;
        assert_ne!(bytes(&first_rows), bytes(&second_rows));

        // Both queries under one forced fingerprint: the second never sees
        // the first one's table.
        let key = |query| QueryKey::of(query).with_fingerprint(7);
        namespace.insert(&key(&first), &first_rows);
        assert_eq!(namespace.get(&key(&first)), Some(first_rows.clone()));
        assert_eq!(namespace.get(&key(&second)), None);
        let stats = namespace.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, bytes(&first_rows));

        // Its insert replaces the entry: no eviction, the gauge swaps bytes.
        namespace.insert(&key(&second), &second_rows);
        assert_eq!(namespace.get(&key(&second)), Some(second_rows.clone()));
        assert_eq!(namespace.get(&key(&first)), None);
        let stats = namespace.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!((stats.insertions, stats.evictions), (2, 0));
        assert_eq!(stats.resident_bytes, bytes(&second_rows));
        assert_eq!(namespace.len(), 1);

        // Scoped invalidation tests the stored bytes: an ingest only the
        // first query could see keeps the entry, one the second sees
        // evicts it.
        let ingest = |predicate: &str| {
            ep.ingest(IngestBatch::from(vec![Triple::new(
                Term::iri("http://e/new"),
                Term::iri(format!("http://e/{predicate}")),
                Term::iri("http://e/o"),
            )]))
            .unwrap();
        };
        ingest("p1");
        assert_eq!(namespace.stats().scoped_evictions, 0);
        assert_eq!(namespace.len(), 1);
        ingest("p2");
        assert_eq!(namespace.stats().scoped_evictions, 1);
        assert!(namespace.is_empty());
        assert_eq!(namespace.stats().resident_bytes, 0);
    }

    #[test]
    fn cache_stats_since_subtracts_counters() {
        let before = CacheStats {
            hits: 2,
            misses: 3,
            insertions: 3,
            evictions: 0,
            invalidations: 0,
            scoped_invalidations: 0,
            scoped_evictions: 0,
            resident_bytes: 0,
        };
        let after = CacheStats {
            hits: 7,
            misses: 4,
            insertions: 4,
            evictions: 1,
            invalidations: 1,
            scoped_invalidations: 2,
            scoped_evictions: 5,
            resident_bytes: 64,
        };
        let delta = after.since(&before);
        assert_eq!(delta.hits, 5);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.insertions, 1);
        assert_eq!(delta.evictions, 1);
        assert_eq!(delta.invalidations, 1);
        assert_eq!(delta.scoped_invalidations, 2);
        assert_eq!(delta.scoped_evictions, 5);
        assert!((delta.hit_rate() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);

        let mut merged = before;
        merged.merge(&after);
        assert_eq!(merged.hits, 9);
        assert_eq!(merged.misses, 7);
    }
}
