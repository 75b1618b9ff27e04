//! Graph statistics: sizes used by Table 2 and by the endpoint's
//! pre-processing accounting, plus the per-predicate/class cardinality
//! summaries the SPARQL query planner costs join orders with.

use std::collections::BTreeSet;
use std::hash::BuildHasher;

use crate::dictionary::TermId;
use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
use crate::store::Store;
use crate::term::Term;
use crate::triple::{EncodedTriple, EncodedTriplePattern};
use crate::vocab;

/// Summary statistics of a knowledge graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Total number of triples.
    pub triples: usize,
    /// Number of distinct subjects.
    pub distinct_subjects: usize,
    /// Number of distinct predicates.
    pub distinct_predicates: usize,
    /// Number of distinct objects.
    pub distinct_objects: usize,
    /// Number of string-literal objects (vertex descriptions).
    pub string_literals: usize,
    /// Number of `rdf:type` triples.
    pub type_triples: usize,
    /// Number of distinct classes (objects of `rdf:type`).
    pub distinct_classes: usize,
    /// Approximate in-memory size of the store in bytes.
    pub approx_bytes: usize,
}

impl GraphStats {
    /// Compute statistics by scanning the store once — entirely in id space.
    ///
    /// Every set probed per triple holds fixed-width [`TermId`]s instead of
    /// cloned [`Term`]s, and the string-literal test is an id lookup in the
    /// store's text index (which indexes exactly the string-literal
    /// objects), so the pass allocates nothing per triple.  That makes stats
    /// cheap enough to refresh whenever the query planner wants a current
    /// summary.
    pub fn compute(store: &Store) -> GraphStats {
        let mut subjects: FxHashSet<TermId> = FxHashSet::default();
        let mut predicates: FxHashSet<TermId> = FxHashSet::default();
        let mut objects: FxHashSet<TermId> = FxHashSet::default();
        let mut classes: FxHashSet<TermId> = FxHashSet::default();
        let mut string_literals = 0usize;
        let mut type_triples = 0usize;
        let rdf_type = store.id_of(&Term::iri(vocab::RDF_TYPE));
        let text = store.text_index();

        for triple in store.scan(EncodedTriplePattern::any()) {
            if text.contains_literal(triple.object) {
                string_literals += 1;
            }
            if rdf_type == Some(triple.predicate) {
                type_triples += 1;
                classes.insert(triple.object);
            }
            subjects.insert(triple.subject);
            predicates.insert(triple.predicate);
            objects.insert(triple.object);
        }

        GraphStats {
            triples: store.len(),
            distinct_subjects: subjects.len(),
            distinct_predicates: predicates.len(),
            distinct_objects: objects.len(),
            string_literals,
            type_triples,
            distinct_classes: classes.len(),
            approx_bytes: store.approx_bytes(),
        }
    }

    /// Average number of predicates per subject vertex, the statistic the
    /// paper uses to justify its "Number of Predicates = 20" default.
    pub fn avg_predicates_per_subject(&self) -> f64 {
        if self.distinct_subjects == 0 {
            return 0.0;
        }
        self.triples as f64 / self.distinct_subjects as f64
    }
}

/// Cardinality summary of one predicate, used by the query planner to turn
/// "this position is a join variable bound by an earlier step" into a
/// selectivity estimate: a pattern `⟨?s p ?o⟩` whose subject is already
/// bound is expected to yield `triples / distinct_subjects` rows per input
/// row (the predicate's average out-degree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredicateCard {
    /// Triples carrying this predicate.
    pub triples: usize,
    /// Distinct subjects among those triples.
    pub distinct_subjects: usize,
    /// Distinct objects among those triples.
    pub distinct_objects: usize,
}

impl PredicateCard {
    /// Expected matches per already-bound subject (average out-degree).
    pub fn per_subject(&self) -> f64 {
        self.triples as f64 / self.distinct_subjects.max(1) as f64
    }

    /// Expected matches per already-bound object (average in-degree).
    pub fn per_object(&self) -> f64 {
        self.triples as f64 / self.distinct_objects.max(1) as f64
    }
}

/// Per-predicate and per-class cardinality summaries over one store,
/// id-keyed so the planner never decodes a term while costing a join order.
///
/// Computed in a single id-space pass and cached on the [`Store`]
/// (see [`Store::planner_stats`]); mutations invalidate the cache.
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Total number of triples.
    pub triples: usize,
    /// Number of distinct subjects across the whole graph.
    pub distinct_subjects: usize,
    /// Number of distinct predicates across the whole graph.
    pub distinct_predicates: usize,
    /// Number of distinct objects across the whole graph.
    pub distinct_objects: usize,
    per_predicate: FxHashMap<TermId, PredicateCard>,
    class_instances: FxHashMap<TermId, usize>,
}

impl PlannerStats {
    /// Compute the summaries by scanning the store once, in id space.
    pub fn compute(store: &Store) -> PlannerStats {
        let mut subjects: FxHashSet<TermId> = FxHashSet::default();
        let mut objects: FxHashSet<TermId> = FxHashSet::default();
        let mut per_predicate: FxHashMap<TermId, PredicateCard> = FxHashMap::default();
        // Transient per-predicate distinct sets; collapsed to counts below.
        let mut pred_subjects: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        let mut pred_objects: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        let mut class_instances: FxHashMap<TermId, usize> = FxHashMap::default();
        let rdf_type = store.id_of(&Term::iri(vocab::RDF_TYPE));

        for triple in store.scan(EncodedTriplePattern::any()) {
            subjects.insert(triple.subject);
            objects.insert(triple.object);
            per_predicate.entry(triple.predicate).or_default().triples += 1;
            pred_subjects
                .entry(triple.predicate)
                .or_default()
                .insert(triple.subject);
            pred_objects
                .entry(triple.predicate)
                .or_default()
                .insert(triple.object);
            if rdf_type == Some(triple.predicate) {
                *class_instances.entry(triple.object).or_insert(0) += 1;
            }
        }
        for (predicate, card) in &mut per_predicate {
            card.distinct_subjects = pred_subjects.get(predicate).map_or(0, FxHashSet::len);
            card.distinct_objects = pred_objects.get(predicate).map_or(0, FxHashSet::len);
        }

        PlannerStats {
            triples: store.len(),
            distinct_subjects: subjects.len(),
            distinct_predicates: per_predicate.len(),
            distinct_objects: objects.len(),
            per_predicate,
            class_instances,
        }
    }

    /// The cardinality summary of one predicate, if it occurs in the graph.
    pub fn predicate(&self, predicate: TermId) -> Option<&PredicateCard> {
        self.per_predicate.get(&predicate)
    }

    /// Number of `rdf:type` instances of one class (zero for unknown ids).
    pub fn class_instances(&self, class: TermId) -> usize {
        self.class_instances.get(&class).copied().unwrap_or(0)
    }

    /// Number of distinct classes (objects of `rdf:type`).
    pub fn num_classes(&self) -> usize {
        self.class_instances.len()
    }
}

/// A distinct-count sketch: exact up to a limit, then a bottom-k
/// ("K minimum values") estimator.
///
/// While fewer than `exact_limit` distinct values have been seen the sketch
/// stores them in a hash set and [`DistinctSketch::estimate`] is exact —
/// planner stats over small and mid-size graphs lose nothing.  Past the
/// limit the sketch degrades to the `k` smallest 64-bit hashes of the values
/// seen; the k-th smallest hash then estimates the distinct count as
/// `(k − 1) · 2⁶⁴ / h_k` with a relative standard error of about
/// `1 / √k` (≈ 3% at the default `k = 1024`), in `O(k)` memory no matter
/// how many values stream past.  This is what keeps the live-ingest path's
/// per-batch stats maintenance bounded on graphs with millions of distinct
/// subjects.
#[derive(Debug, Clone)]
pub(crate) struct DistinctSketch {
    exact_limit: usize,
    k: usize,
    exact: FxHashSet<u64>,
    kmv: BTreeSet<u64>,
    degraded: bool,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctSketch {
    /// Default cap on the exact phase (65 536 distinct values).
    pub(crate) const DEFAULT_EXACT_LIMIT: usize = 1 << 16;
    /// Default number of minimum hashes kept once degraded.
    pub(crate) const DEFAULT_K: usize = 1024;

    /// Create a sketch with the default limits.
    pub(crate) fn new() -> Self {
        Self::with_limits(Self::DEFAULT_EXACT_LIMIT, Self::DEFAULT_K)
    }

    /// Create a sketch with explicit limits (primarily for tests that want
    /// to exercise the degraded phase cheaply).  `k` is clamped to at
    /// least 2.
    pub(crate) fn with_limits(exact_limit: usize, k: usize) -> Self {
        DistinctSketch {
            exact_limit,
            k: k.max(2),
            exact: FxHashSet::default(),
            kmv: BTreeSet::new(),
            degraded: false,
        }
    }

    fn hash(value: u64) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    /// Observe a value.  Duplicates never change the estimate.
    pub(crate) fn insert(&mut self, value: u64) {
        if !self.degraded {
            self.exact.insert(value);
            if self.exact.len() > self.exact_limit {
                self.degrade();
            }
            return;
        }
        self.insert_hash(Self::hash(value));
    }

    fn degrade(&mut self) {
        self.degraded = true;
        for value in std::mem::take(&mut self.exact) {
            self.insert_hash(Self::hash(value));
        }
    }

    fn insert_hash(&mut self, h: u64) {
        if self.kmv.len() < self.k {
            self.kmv.insert(h);
        } else if let Some(&max) = self.kmv.iter().next_back() {
            if h < max && self.kmv.insert(h) && self.kmv.len() > self.k {
                self.kmv.pop_last();
            }
        }
    }

    /// The number of distinct values observed: exact below the limit, a
    /// bottom-k estimate above it.
    pub(crate) fn estimate(&self) -> usize {
        if !self.degraded {
            return self.exact.len();
        }
        if self.kmv.len() < self.k {
            return self.kmv.len();
        }
        let kth = *self.kmv.iter().next_back().expect("k ≥ 2 hashes present");
        if kth == 0 {
            return self.k;
        }
        (((self.k - 1) as f64) * (u64::MAX as f64) / (kth as f64)) as usize
    }
}

#[derive(Debug, Clone, Default)]
struct PredicateMaintenance {
    triples: usize,
    subjects: DistinctSketch,
    objects: DistinctSketch,
}

/// Writer-side incremental maintenance state for [`PlannerStats`].
///
/// A live store keeps one of these next to its mutable [`Store`]: it is
/// seeded with a single full scan ([`StatsMaintenance::from_store`]) and
/// thereafter each ingest batch folds its *delta* of newly added triples in
/// with [`StatsMaintenance::apply`] — per-predicate triple counts are exact,
/// distinct counts come from [`DistinctSketch`]es — and derives a fresh
/// [`PlannerStats`] in `O(predicates)` via
/// [`StatsMaintenance::to_planner_stats`].  No full re-scan ever happens on
/// the ingest path; [`PlannerStats::compute`] remains the from-scratch
/// oracle the tests compare against.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsMaintenance {
    triples: usize,
    subjects: DistinctSketch,
    objects: DistinctSketch,
    per_predicate: FxHashMap<TermId, PredicateMaintenance>,
    class_instances: FxHashMap<TermId, usize>,
}

impl StatsMaintenance {
    /// Seed the maintenance state with one full id-space scan of a store.
    pub(crate) fn from_store(store: &Store) -> Self {
        let rdf_type = store.id_of(&Term::iri(vocab::RDF_TYPE));
        let mut maintenance = StatsMaintenance::default();
        for triple in store.scan(EncodedTriplePattern::any()) {
            maintenance.observe(triple, rdf_type);
        }
        maintenance
    }

    /// Fold a batch delta of newly added (never duplicate) triples in.
    ///
    /// `rdf_type` is the store's id for `rdf:type`, if interned — passing it
    /// in keeps this loop free of term lookups.
    pub(crate) fn apply(&mut self, added: &[EncodedTriple], rdf_type: Option<TermId>) {
        for &triple in added {
            self.observe(triple, rdf_type);
        }
    }

    fn observe(&mut self, triple: EncodedTriple, rdf_type: Option<TermId>) {
        self.triples += 1;
        self.subjects.insert(triple.subject.0 as u64);
        self.objects.insert(triple.object.0 as u64);
        let pred = self.per_predicate.entry(triple.predicate).or_default();
        pred.triples += 1;
        pred.subjects.insert(triple.subject.0 as u64);
        pred.objects.insert(triple.object.0 as u64);
        if rdf_type == Some(triple.predicate) {
            *self.class_instances.entry(triple.object).or_insert(0) += 1;
        }
    }

    /// Derive a fresh [`PlannerStats`] from the maintained summaries, in
    /// `O(predicates + classes)` — independent of the graph size.
    pub(crate) fn to_planner_stats(&self) -> PlannerStats {
        PlannerStats {
            triples: self.triples,
            distinct_subjects: self.subjects.estimate(),
            distinct_predicates: self.per_predicate.len(),
            distinct_objects: self.objects.estimate(),
            per_predicate: self
                .per_predicate
                .iter()
                .map(|(&predicate, m)| {
                    (
                        predicate,
                        PredicateCard {
                            triples: m.triples,
                            distinct_subjects: m.subjects.estimate(),
                            distinct_objects: m.objects.estimate(),
                        },
                    )
                })
                .collect(),
            class_instances: self.class_instances.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn small_graph() -> Store {
        let mut store = Store::new();
        let p1 = Term::iri("http://e/p1");
        let label = Term::iri(vocab::RDFS_LABEL);
        let rdf_type = Term::iri(vocab::RDF_TYPE);
        for i in 0..10 {
            let s = Term::iri(format!("http://e/s{i}"));
            store.insert(Triple::new(
                s.clone(),
                label.clone(),
                Term::literal_str(format!("entity {i}")),
            ));
            store.insert(Triple::new(
                s.clone(),
                p1.clone(),
                Term::iri(format!("http://e/o{}", i % 3)),
            ));
            store.insert(Triple::new(
                s,
                rdf_type.clone(),
                Term::iri(if i % 2 == 0 {
                    "http://e/ClassA"
                } else {
                    "http://e/ClassB"
                }),
            ));
        }
        store
    }

    #[test]
    fn stats_count_triples_and_distinct_terms() {
        let stats = small_graph().stats();
        assert_eq!(stats.triples, 30);
        assert_eq!(stats.distinct_subjects, 10);
        assert_eq!(stats.distinct_predicates, 3);
        assert_eq!(stats.string_literals, 10);
        assert_eq!(stats.type_triples, 10);
        assert_eq!(stats.distinct_classes, 2);
        // 10 labels + 3 shared objects + 2 classes = 15 distinct objects
        assert_eq!(stats.distinct_objects, 15);
        assert!(stats.approx_bytes > 0);
    }

    #[test]
    fn avg_predicates_per_subject() {
        let stats = small_graph().stats();
        assert!((stats.avg_predicates_per_subject() - 3.0).abs() < 1e-9);
        assert_eq!(GraphStats::default().avg_predicates_per_subject(), 0.0);
    }

    #[test]
    fn empty_store_has_zero_stats() {
        let stats = Store::new().stats();
        assert_eq!(stats.triples, 0);
        assert_eq!(stats.distinct_subjects, 0);
        assert_eq!(stats.distinct_classes, 0);
    }

    #[test]
    fn planner_stats_summarise_predicates_and_classes() {
        let store = small_graph();
        let stats = PlannerStats::compute(&store);
        assert_eq!(stats.triples, 30);
        assert_eq!(stats.distinct_subjects, 10);
        assert_eq!(stats.distinct_predicates, 3);
        assert_eq!(stats.num_classes(), 2);

        let p1 = store.id_of(&Term::iri("http://e/p1")).unwrap();
        let card = stats.predicate(p1).unwrap();
        assert_eq!(card.triples, 10);
        assert_eq!(card.distinct_subjects, 10);
        assert_eq!(card.distinct_objects, 3);
        // Out-degree 1 (each subject has one p1 edge); in-degree 10/3.
        assert!((card.per_subject() - 1.0).abs() < 1e-9);
        assert!((card.per_object() - 10.0 / 3.0).abs() < 1e-9);

        let class_a = store.id_of(&Term::iri("http://e/ClassA")).unwrap();
        let class_b = store.id_of(&Term::iri("http://e/ClassB")).unwrap();
        assert_eq!(stats.class_instances(class_a), 5);
        assert_eq!(stats.class_instances(class_b), 5);
        assert_eq!(stats.class_instances(p1), 0);
        assert!(stats.predicate(class_a).is_none());
    }

    #[test]
    fn store_caches_planner_stats_until_mutation() {
        let mut store = small_graph();
        let before = store.planner_stats();
        let again = store.planner_stats();
        // Same epoch: the cached Arc is reused, not recomputed.
        assert!(std::sync::Arc::ptr_eq(&before, &again));
        assert_eq!(before.triples, 30);

        store.insert(Triple::new(
            Term::iri("http://e/s0"),
            Term::iri("http://e/p2"),
            Term::iri("http://e/o99"),
        ));
        let after = store.planner_stats();
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        assert_eq!(after.triples, 31);
        assert_eq!(after.distinct_predicates, 4);

        // Re-inserting an existing triple keeps the cache.
        let unchanged = store.planner_stats();
        store.insert(Triple::new(
            Term::iri("http://e/s0"),
            Term::iri("http://e/p2"),
            Term::iri("http://e/o99"),
        ));
        assert!(std::sync::Arc::ptr_eq(&unchanged, &store.planner_stats()));
    }

    #[test]
    fn sketch_is_exact_below_the_limit() {
        let mut sketch = DistinctSketch::new();
        for v in 0..1000u64 {
            sketch.insert(v);
            sketch.insert(v); // duplicates are free
        }
        assert!(!sketch.degraded);
        assert_eq!(sketch.estimate(), 1000);
    }

    #[test]
    fn sketch_estimates_within_tolerance_once_degraded() {
        let mut sketch = DistinctSketch::with_limits(1000, 1024);
        let n = 100_000u64;
        for v in 0..n {
            sketch.insert(v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert!(sketch.degraded);
        let est = sketch.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.2, "estimate {est} off by {:.1}%", err * 100.0);
    }

    #[test]
    fn maintenance_matches_full_compute_on_small_graphs() {
        let store = small_graph();
        let maintained = StatsMaintenance::from_store(&store).to_planner_stats();
        let computed = PlannerStats::compute(&store);
        assert_eq!(maintained.triples, computed.triples);
        assert_eq!(maintained.distinct_subjects, computed.distinct_subjects);
        assert_eq!(maintained.distinct_predicates, computed.distinct_predicates);
        assert_eq!(maintained.distinct_objects, computed.distinct_objects);
        assert_eq!(maintained.num_classes(), computed.num_classes());
        let p1 = store.id_of(&Term::iri("http://e/p1")).unwrap();
        assert_eq!(maintained.predicate(p1), computed.predicate(p1));
    }

    #[test]
    fn applying_a_delta_equals_recomputing_from_scratch() {
        let mut store = small_graph();
        let mut maintenance = StatsMaintenance::from_store(&store);
        let rdf_type = store.id_of(&Term::iri(vocab::RDF_TYPE));

        // Ingest a delta: a new predicate and a new rdf:type instance.
        let mut added = Vec::new();
        for i in 0..5 {
            let triple = Triple::new(
                Term::iri(format!("http://e/new{i}")),
                Term::iri("http://e/fresh"),
                Term::iri("http://e/o0"),
            );
            assert!(store.insert(triple.clone()));
            let enc = EncodedTriple::new(
                store.id_of(&triple.subject).unwrap(),
                store.id_of(&triple.predicate).unwrap(),
                store.id_of(&triple.object).unwrap(),
            );
            added.push(enc);
        }
        let typed = Triple::new(
            Term::iri("http://e/new0"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://e/ClassC"),
        );
        assert!(store.insert(typed.clone()));
        added.push(EncodedTriple::new(
            store.id_of(&typed.subject).unwrap(),
            store.id_of(&typed.predicate).unwrap(),
            store.id_of(&typed.object).unwrap(),
        ));

        maintenance.apply(&added, rdf_type);
        let maintained = maintenance.to_planner_stats();
        let oracle = PlannerStats::compute(&store);
        assert_eq!(maintained.triples, oracle.triples);
        assert_eq!(maintained.distinct_subjects, oracle.distinct_subjects);
        assert_eq!(maintained.distinct_predicates, oracle.distinct_predicates);
        assert_eq!(maintained.distinct_objects, oracle.distinct_objects);
        assert_eq!(maintained.num_classes(), oracle.num_classes());
        let fresh = store.id_of(&Term::iri("http://e/fresh")).unwrap();
        assert_eq!(maintained.predicate(fresh), oracle.predicate(fresh));
        let class_c = store.id_of(&Term::iri("http://e/ClassC")).unwrap();
        assert_eq!(maintained.class_instances(class_c), 1);
    }
}
