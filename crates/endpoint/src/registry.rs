//! A registry of named endpoints, standing in for the set of SPARQL endpoint
//! URIs a user can point KGQAn at (Figure 2: "Question + Endpoint URI").
//!
//! The registry is the multi-KG half of the serving API: a `QaService` owns
//! one registry and routes each `AnswerRequest` to the endpoint named by the
//! request.  Lookups of unregistered names fail with an error that lists, in
//! sorted order, the names that *are* registered.
//!
//! A registry built with [`EndpointRegistry::with_cache`] additionally owns
//! one [`QueryCache`] namespace per registered KG: [`EndpointRegistry::get`]
//! then hands out [`CachingEndpoint`]-wrapped endpoints that share the KG's
//! namespace across requests and threads.  Re-registering a name replaces
//! the endpoint *and invalidates the old namespace* — the KG behind the name
//! changed, so every cached probe result for it is suspect.

use std::collections::BTreeMap;
use std::sync::Arc;

use kgqan_sparql::{Query, QueryResults, ServiceResolver, SparqlError};

use crate::cache::{CacheConfig, CacheStats, CachingEndpoint, QueryCache};
use crate::error::EndpointError;
use crate::{EndpointDescription, SparqlEndpoint};

/// One registered KG: the endpoint as served (possibly cache-wrapped), the
/// raw endpoint as registered, and the cache namespace, if caching is on.
#[derive(Clone)]
struct Registered {
    serving: Arc<dyn SparqlEndpoint>,
    raw: Arc<dyn SparqlEndpoint>,
    cache: Option<Arc<QueryCache>>,
}

/// A name → endpoint map, optionally fronted by per-KG semantic caches.
#[derive(Default, Clone)]
pub struct EndpointRegistry {
    endpoints: BTreeMap<String, Registered>,
    cache_config: Option<CacheConfig>,
}

impl EndpointRegistry {
    /// Create an empty, uncached registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty registry whose endpoints are served through per-KG
    /// [`QueryCache`] namespaces.
    pub fn with_cache(config: CacheConfig) -> Self {
        EndpointRegistry {
            endpoints: BTreeMap::new(),
            cache_config: Some(config),
        }
    }

    /// The cache configuration, if this registry caches.
    pub fn cache_config(&self) -> Option<CacheConfig> {
        self.cache_config
    }

    /// Register an endpoint under its own name.
    ///
    /// Registering a second endpoint with the same name replaces the first
    /// and returns it (last registration wins), mirroring map semantics; use
    /// [`EndpointRegistry::contains`] first if replacement must be an error.
    /// On a caching registry, replacement **invalidates the name's old cache
    /// namespace** — results probed from the replaced endpoint must not leak
    /// into answers from its successor — and the new endpoint starts with a
    /// fresh, empty namespace.
    pub fn register(
        &mut self,
        endpoint: Arc<dyn SparqlEndpoint>,
    ) -> Option<Arc<dyn SparqlEndpoint>> {
        let name = endpoint.name().to_string();
        let entry = match self.cache_config {
            Some(config) => {
                let namespace = QueryCache::shared(config);
                Registered {
                    serving: Arc::new(CachingEndpoint::new(
                        Arc::clone(&endpoint),
                        Arc::clone(&namespace),
                    )),
                    raw: endpoint,
                    cache: Some(namespace),
                }
            }
            None => Registered {
                serving: Arc::clone(&endpoint),
                raw: endpoint,
                cache: None,
            },
        };
        let replaced = self.endpoints.insert(name, entry)?;
        if let Some(old_namespace) = &replaced.cache {
            // Anyone still holding the old wrapped endpoint keeps talking to
            // the old KG, but never to stale cached rows.
            old_namespace.invalidate();
        }
        Some(replaced.raw)
    }

    /// Look up an endpoint by name; on a caching registry the returned
    /// endpoint is served through the KG's shared cache namespace.  The
    /// error of a failed lookup carries the sorted list of registered names.
    pub fn get(&self, name: &str) -> Result<Arc<dyn SparqlEndpoint>, EndpointError> {
        self.endpoints
            .get(name)
            .map(|entry| Arc::clone(&entry.serving))
            .ok_or_else(|| EndpointError::UnknownEndpoint {
                name: name.to_string(),
                available: self.names(),
            })
    }

    /// Look up the raw endpoint as registered, bypassing any cache.
    pub fn get_uncached(&self, name: &str) -> Result<Arc<dyn SparqlEndpoint>, EndpointError> {
        self.endpoints
            .get(name)
            .map(|entry| Arc::clone(&entry.raw))
            .ok_or_else(|| EndpointError::UnknownEndpoint {
                name: name.to_string(),
                available: self.names(),
            })
    }

    /// The cache namespace serving `name`, if this registry caches.
    pub fn cache_of(&self, name: &str) -> Option<Arc<QueryCache>> {
        self.endpoints.get(name)?.cache.clone()
    }

    /// Per-KG cache statistics, sorted by KG name (empty when uncached).
    pub fn cache_stats(&self) -> Vec<(String, CacheStats)> {
        self.endpoints
            .iter()
            .filter_map(|(name, entry)| {
                entry
                    .cache
                    .as_ref()
                    .map(|cache| (name.clone(), cache.stats()))
            })
            .collect()
    }

    /// Explicitly flush the cache namespace of one KG.  Returns true if the
    /// KG is registered and cached.
    pub fn invalidate_cache(&self, name: &str) -> bool {
        match self.endpoints.get(name).and_then(|e| e.cache.as_ref()) {
            Some(cache) => {
                cache.invalidate();
                true
            }
            None => false,
        }
    }

    /// Ingest a batch into the named KG's live store, publishing a new
    /// epoch.  On a caching registry the batch goes through the KG's
    /// [`CachingEndpoint`], so the namespace is scope-invalidated in the
    /// same call: only cached entries the added triples could have changed
    /// are evicted, the rest stay warm.  Endpoints that do not support
    /// writes fail with [`EndpointError::IngestUnsupported`].
    pub fn ingest(
        &self,
        name: &str,
        batch: kgqan_rdf::IngestBatch,
    ) -> Result<kgqan_rdf::IngestReport, EndpointError> {
        self.get(name)?.ingest(batch)
    }

    /// Describe every registered KG, sorted by name: the served epoch and
    /// triple count where the endpoint exposes them
    /// ([`SparqlEndpoint::describe`]), `None` for opaque remote endpoints.
    /// Backs the server's `GET /kg` listing, so clients no longer have to
    /// guess valid names out of 404 error bodies.
    pub fn describe(&self) -> Vec<(String, Option<EndpointDescription>)> {
        self.endpoints
            .iter()
            .map(|(name, entry)| (name.clone(), entry.raw.describe()))
            .collect()
    }

    /// True if an endpoint is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.endpoints.contains_key(name)
    }

    /// Names of all registered endpoints, sorted.  Registration order never
    /// shows through: the listing (and therefore the name list inside
    /// [`EndpointError::UnknownEndpoint`]) is deterministic.
    pub fn names(&self) -> Vec<String> {
        self.endpoints.keys().cloned().collect()
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True if no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

/// The registry resolves `SERVICE <kg:name>` groups to its own members, so
/// any registered KG can be a federation target.  Execution goes through
/// the *serving* endpoint — on a caching registry that is the KG's
/// [`CachingEndpoint`], so repeated SERVICE groups against the same target
/// are answered from that KG's semantic cache namespace.
impl ServiceResolver for EndpointRegistry {
    fn service_names(&self) -> Vec<String> {
        self.names()
    }

    fn execute_service(&self, kg: &str, query: &Query) -> Result<QueryResults, SparqlError> {
        let endpoint = self.get(kg).map_err(|err| match err {
            EndpointError::UnknownEndpoint { name, available } => SparqlError::UnknownService {
                kg: name,
                available,
            },
            other => SparqlError::Service {
                kg: kg.to_string(),
                message: other.to_string(),
            },
        })?;
        endpoint
            .query_parsed(query)
            .map_err(|err| SparqlError::Service {
                kg: kg.to_string(),
                message: err.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inprocess::InProcessEndpoint;
    use kgqan_rdf::{Store, Term, Triple};

    fn one_triple_store(object: &str) -> Store {
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::iri(object),
        ));
        store
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = EndpointRegistry::new();
        assert!(reg.is_empty());
        reg.register(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())));
        reg.register(Arc::new(InProcessEndpoint::new("MAG", Store::new())));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["DBpedia".to_string(), "MAG".to_string()]);
        assert_eq!(reg.get("DBpedia").unwrap().name(), "DBpedia");
        assert!(reg.contains("MAG"));
        assert!(!reg.contains("YAGO"));
        assert!(matches!(
            reg.get("YAGO"),
            Err(EndpointError::UnknownEndpoint { .. })
        ));
        // An uncached registry exposes no namespaces.
        assert!(reg.cache_config().is_none());
        assert!(reg.cache_of("DBpedia").is_none());
        assert!(reg.cache_stats().is_empty());
        assert!(!reg.invalidate_cache("DBpedia"));
    }

    #[test]
    fn lookup_error_lists_available_names_sorted() {
        let mut reg = EndpointRegistry::new();
        // Registered out of order: the listing must still be sorted.
        reg.register(Arc::new(InProcessEndpoint::new("MAG", Store::new())));
        reg.register(Arc::new(InProcessEndpoint::new("DBLP", Store::new())));
        reg.register(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())));
        let Err(err) = reg.get("YAGO") else {
            panic!("expected lookup failure");
        };
        let EndpointError::UnknownEndpoint { name, available } = &err else {
            panic!("expected UnknownEndpoint, got {err:?}");
        };
        assert_eq!(name, "YAGO");
        assert_eq!(
            available,
            &["DBLP".to_string(), "DBpedia".to_string(), "MAG".to_string()]
        );
        let mut sorted = available.clone();
        sorted.sort();
        assert_eq!(available, &sorted, "listing must be sorted");
        assert!(err.to_string().contains("DBLP, DBpedia, MAG"));
    }

    #[test]
    fn lookup_in_empty_registry_says_nothing_is_registered() {
        let reg = EndpointRegistry::new();
        let Err(err) = reg.get("DBpedia") else {
            panic!("expected lookup failure");
        };
        let EndpointError::UnknownEndpoint { available, .. } = &err else {
            panic!("expected UnknownEndpoint, got {err:?}");
        };
        assert!(available.is_empty());
        assert!(err.to_string().contains("no endpoints registered"));
    }

    #[test]
    fn duplicate_registration_replaces_and_returns_previous() {
        let mut reg = EndpointRegistry::new();
        let first = Arc::new(InProcessEndpoint::new("DBpedia", Store::new()));
        assert!(reg.register(first.clone()).is_none());

        let second = Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/o"),
        ));
        let replaced = reg.register(second).expect("first registration returned");
        assert_eq!(reg.len(), 1);
        // The registry now serves the replacement, not the original.
        let current = reg.get("DBpedia").unwrap();
        let rs = current.query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        assert_eq!(rs.rows().len(), 1);
        assert_eq!(replaced.name(), first.name());
    }

    #[test]
    fn caching_registry_shares_namespace_hits_across_lookups() {
        let mut reg = EndpointRegistry::with_cache(CacheConfig::default());
        assert!(reg.cache_config().is_some());
        reg.register(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/o"),
        )));

        let q = "SELECT ?s WHERE { ?s ?p ?o . }";
        reg.get("DBpedia").unwrap().query(q).unwrap();
        // A second `get` returns a wrapper over the *same* namespace.
        reg.get("DBpedia").unwrap().query(q).unwrap();
        let stats = reg.cache_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "DBpedia");
        assert_eq!(stats[0].1.hits, 1);
        assert_eq!(stats[0].1.misses, 1);
        // The raw endpoint saw exactly one request.
        assert_eq!(
            reg.get_uncached("DBpedia").unwrap().stats().total_requests,
            1
        );

        assert!(reg.invalidate_cache("DBpedia"));
        assert_eq!(reg.cache_of("DBpedia").unwrap().stats().invalidations, 1);
    }

    #[test]
    fn registry_ingest_routes_to_the_named_kg_and_scope_invalidates() {
        use kgqan_rdf::IngestBatch;

        let mut reg = EndpointRegistry::with_cache(CacheConfig::default());
        reg.register(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/o"),
        )));

        let q = "SELECT ?s WHERE { ?s <http://e/p> ?o . }";
        let other = "SELECT ?s WHERE { ?s <http://e/unrelated> ?o . }";
        reg.get("DBpedia").unwrap().query(q).unwrap();
        reg.get("DBpedia").unwrap().query(other).unwrap();

        let report = reg
            .ingest(
                "DBpedia",
                IngestBatch::from(vec![Triple::new(
                    Term::iri("http://e/s2"),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/o2"),
                )]),
            )
            .unwrap();
        assert_eq!(report.added(), 1);
        assert_eq!(report.epoch(), 1);

        let namespace = reg.cache_of("DBpedia").unwrap();
        assert_eq!(namespace.stats().scoped_invalidations, 1);
        assert_eq!(namespace.stats().scoped_evictions, 1);
        assert_eq!(
            reg.get("DBpedia").unwrap().query(q).unwrap().rows().len(),
            2
        );

        assert!(matches!(
            reg.ingest("YAGO", IngestBatch::new()),
            Err(EndpointError::UnknownEndpoint { .. })
        ));
    }

    #[test]
    fn describe_lists_every_kg_with_epoch_and_size() {
        let mut reg = EndpointRegistry::with_cache(CacheConfig::default());
        reg.register(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/o"),
        )));
        reg.register(Arc::new(InProcessEndpoint::new("MAG", Store::new())));

        let described = reg.describe();
        assert_eq!(described.len(), 2);
        assert_eq!(described[0].0, "DBpedia");
        let dbpedia = described[0].1.expect("in-process endpoints describe");
        assert_eq!(dbpedia.epoch, 0);
        assert_eq!(dbpedia.triples, 1);
        assert_eq!(described[1].0, "MAG");
        assert_eq!(described[1].1.unwrap().triples, 0);

        // Ingest bumps the described epoch.
        reg.ingest(
            "MAG",
            kgqan_rdf::IngestBatch::from(vec![Triple::new(
                Term::iri("http://e/s2"),
                Term::iri("http://e/p"),
                Term::iri("http://e/o2"),
            )]),
        )
        .unwrap();
        let described = reg.describe();
        assert_eq!(described[1].1.unwrap().epoch, 1);
        assert_eq!(described[1].1.unwrap().triples, 1);
    }

    #[test]
    fn registry_resolves_service_groups_through_the_kg_cache() {
        use kgqan_sparql::parse_query;

        let mut reg = EndpointRegistry::with_cache(CacheConfig::default());
        reg.register(Arc::new(InProcessEndpoint::new(
            "Wikidata",
            one_triple_store("http://e/o"),
        )));

        assert_eq!(reg.service_names(), vec!["Wikidata".to_string()]);

        let query = parse_query("SELECT ?s WHERE { ?s <http://e/p> ?o . }").unwrap();
        let first = reg.execute_service("Wikidata", &query).unwrap();
        assert_eq!(first.rows().len(), 1);
        // The second SERVICE execution is a semantic-cache hit for the
        // target KG's namespace.
        reg.execute_service("Wikidata", &query).unwrap();
        let stats = reg.cache_stats();
        assert_eq!(stats[0].1.hits, 1);
        assert_eq!(stats[0].1.misses, 1);

        // Unknown targets map to the plan-level error listing valid names.
        let err = reg.execute_service("YAGO", &query).unwrap_err();
        match err {
            kgqan_sparql::SparqlError::UnknownService { kg, available } => {
                assert_eq!(kg, "YAGO");
                assert_eq!(available, vec!["Wikidata".to_string()]);
            }
            other => panic!("expected UnknownService, got {other:?}"),
        }
    }

    #[test]
    fn re_registration_invalidates_the_old_namespace_and_serves_fresh_data() {
        let mut reg = EndpointRegistry::with_cache(CacheConfig::default());
        reg.register(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/old"),
        )));

        let q = "SELECT ?o WHERE { ?s ?p ?o . }";
        let old_serving = reg.get("DBpedia").unwrap();
        let old_namespace = reg.cache_of("DBpedia").unwrap();
        let old_rows = old_serving.query(q).unwrap();
        assert_eq!(
            old_rows.rows().first().unwrap().get("o"),
            Some(&Term::iri("http://e/old"))
        );
        assert_eq!(old_namespace.len(), 1);

        // Replace the KG behind the name.
        let replaced = reg.register(Arc::new(InProcessEndpoint::new(
            "DBpedia",
            one_triple_store("http://e/new"),
        )));
        assert!(replaced.is_some());

        // The old namespace was flushed: a holder of the old wrapper
        // re-queries the old store instead of serving stale cached rows...
        assert!(old_namespace.is_empty());
        assert_eq!(old_namespace.stats().invalidations, 1);
        // ...and the registry serves the new KG from a fresh namespace.
        let new_namespace = reg.cache_of("DBpedia").unwrap();
        assert!(new_namespace.is_empty());
        assert_eq!(new_namespace.stats().invalidations, 0);
        let new_rows = reg.get("DBpedia").unwrap().query(q).unwrap();
        assert_eq!(
            new_rows.rows().first().unwrap().get("o"),
            Some(&Term::iri("http://e/new"))
        );
    }
}
