//! The KG-scoped semantic cache, as seen from the serving layer.
//!
//! The paper's universality pitch — answer questions over *any* endpoint
//! with no per-KG preprocessing — is only viable under heavy traffic if the
//! work of one request helps the next.  The artifacts of KGQAn's online
//! phase are highly reusable across questions on the same KG: two questions
//! mentioning the same entity issue identical `potentialRelevantVertices`
//! and predicate fan-out probes, and overlapping questions generate
//! overlapping candidate queries.
//!
//! The subsystem is layered across two crates:
//!
//! * **Mechanism** (`kgqan-endpoint`, re-exported here): a bounded
//!   [`LruCache`], the thread-safe per-KG namespace [`QueryCache`] with
//!   [`CacheStats`] counters, and the [`CachingEndpoint`] decorator that
//!   consults a namespace before forwarding to the wrapped endpoint.  The
//!   mechanism lives beside the endpoints because the decorator *is* an
//!   endpoint and the registry owns the namespaces.
//! * **Policy** (`kgqan-endpoint`'s registry + this crate): one namespace
//!   per registered KG — cache entries never leak across KGs — created by
//!   `EndpointRegistry::with_cache`, shared by every request the
//!   `QaService` routes to that KG (including concurrent and batched
//!   requests), and invalidated when the KG is re-registered.  The service
//!   aggregates namespace counters into a [`CacheReport`]; one request's
//!   cache activity is [`CacheStats::since`] over two reports.
//!
//! Caching changes latency, never answers: `CachingEndpoint` returns the
//! exact results the wrapped endpoint returned for the same query, errors
//! are never cached, and the `cached ≡ uncached` equivalence is enforced by
//! a property test over random question/store pairs
//! (`tests/pipeline_cache.rs`).

pub use kgqan_endpoint::cache::{CacheConfig, CacheStats, CachingEndpoint, LruCache, QueryCache};

/// Aggregated cache statistics of a service: one entry per cached KG
/// namespace, sorted by KG name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Per-KG namespace counter snapshots.
    pub per_kg: Vec<(String, CacheStats)>,
}

impl CacheReport {
    /// A report over a set of per-KG snapshots.
    pub fn new(per_kg: Vec<(String, CacheStats)>) -> Self {
        CacheReport { per_kg }
    }

    /// The snapshot of one KG's namespace, if that KG is cached.
    pub fn kg(&self, name: &str) -> Option<&CacheStats> {
        self.per_kg
            .iter()
            .find(|(kg, _)| kg == name)
            .map(|(_, stats)| stats)
    }

    /// Counters summed across every namespace.
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, stats) in &self.per_kg {
            total.merge(stats);
        }
        total
    }

    /// True when the service runs uncached (no namespaces at all).
    pub fn is_uncached(&self) -> bool {
        self.per_kg.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            insertions: misses,
            ..CacheStats::default()
        }
    }

    #[test]
    fn report_aggregates_namespaces() {
        let report = CacheReport::new(vec![
            ("DBpedia".to_string(), stats(8, 2)),
            ("MAG".to_string(), stats(1, 3)),
        ]);
        assert!(!report.is_uncached());
        assert_eq!(report.kg("DBpedia").unwrap().hits, 8);
        assert!(report.kg("YAGO").is_none());
        let total = report.total();
        assert_eq!(total.hits, 9);
        assert_eq!(total.misses, 5);
        assert_eq!(total.insertions, 5);
        assert!((total.hit_rate() - 9.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_uncached() {
        let report = CacheReport::default();
        assert!(report.is_uncached());
        assert_eq!(report.total(), CacheStats::default());
    }
}
