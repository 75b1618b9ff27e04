//! An in-process SPARQL endpoint wrapping a [`Store`].
//!
//! Stands in for the remote Virtuoso/Stardog/Jena installations of the
//! paper's evaluation.  The endpoint can inject a fixed per-request latency
//! so that experiments which care about request round-trips (the linking
//! phase issues several) exhibit a realistic cost profile.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgqan_rdf::{GraphStats, IngestBatch, IngestReport, LiveStore, Store, StoreSnapshot};
use kgqan_sparql::{
    parse_query, ExecOptions, ParallelConfig, PlanSummary, Planner, Query, QueryResults,
};

use crate::dialect::EngineDialect;
use crate::error::EndpointError;
use crate::stats::RequestStats;
use crate::{EndpointDescription, SparqlEndpoint, TracedQuery};
use kgqan_sparql::ServiceResolver;

/// An endpoint answering queries from an in-memory [`LiveStore`].
///
/// Every request pins the live store's *current* epoch snapshot for its
/// whole planning-and-execution lifetime, so a query always sees one
/// consistent graph state even while a writer is concurrently publishing new
/// epochs via [`InProcessEndpoint::ingest`] (readers never block on
/// writers).
pub struct InProcessEndpoint {
    name: String,
    dialect: EngineDialect,
    live: Arc<LiveStore>,
    latency: Duration,
    /// Morsel-parallelism knobs handed to every planner this endpoint
    /// builds.  The default config keeps small queries on the sequential
    /// fast path and parallelises only large driving scans.
    parallel: ParallelConfig,
    stats: RequestCounters,
}

/// The endpoint's request counters, one atomic each: recording a request
/// takes no lock.  A read while requests are in flight may see one
/// request's counts in some fields and not yet in others; each field is
/// exact once they finish.
#[derive(Default)]
struct RequestCounters {
    total: AtomicUsize,
    text_search: AtomicUsize,
    ask: AtomicUsize,
    failed: AtomicUsize,
    nanos: AtomicU64,
}

impl InProcessEndpoint {
    /// Wrap a store in an endpoint with the given name, speaking the
    /// Virtuoso dialect and adding no artificial latency.
    pub fn new(name: impl Into<String>, store: Store) -> Self {
        InProcessEndpoint::from_live(name, Arc::new(LiveStore::new(store)))
    }

    /// Wrap an already-shared live store (e.g. one writer feeding several
    /// endpoints, or an external ingestion loop holding its own handle).
    pub fn from_live(name: impl Into<String>, live: Arc<LiveStore>) -> Self {
        InProcessEndpoint {
            name: name.into(),
            dialect: EngineDialect::Virtuoso,
            live,
            latency: Duration::ZERO,
            parallel: ParallelConfig::default(),
            stats: RequestCounters::default(),
        }
    }

    /// Select the engine dialect the endpoint advertises.
    pub fn with_dialect(mut self, dialect: EngineDialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Override the morsel-parallelism knobs (degree-of-parallelism cap,
    /// per-worker row threshold, morsel granularity).  Setting
    /// `max_dop: 1` pins every query to the sequential path.
    pub fn with_parallelism(mut self, config: ParallelConfig) -> Self {
        self.parallel = config;
        self
    }

    /// Inject a fixed latency per request, modelling network round-trip and
    /// engine overhead of a remote endpoint.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Pin and return the current epoch snapshot (read-only).  The harness
    /// uses this for gold-answer evaluation; KGQAn itself never calls it.
    /// The snapshot derefs to [`Store`], so existing `store().len()`-style
    /// call sites keep working unchanged.
    pub fn store(&self) -> Arc<StoreSnapshot> {
        self.live.snapshot()
    }

    /// A shared handle to the live store behind the endpoint, for callers
    /// that want to drive ingestion or pin snapshots themselves.
    pub fn live_store(&self) -> Arc<LiveStore> {
        Arc::clone(&self.live)
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Statistics of the underlying graph (size, distinct terms, …),
    /// computed over the current epoch snapshot.
    pub fn graph_stats(&self) -> GraphStats {
        self.live.snapshot().stats()
    }

    /// Record one served request in the endpoint statistics; the single
    /// bookkeeping point shared by the parsed and parse-failure paths.  The
    /// kind (text search, ASK) is read off the AST: text that did not parse
    /// has none and only counts as failed.
    fn record_request(&self, elapsed: Duration, query: Option<&Query>, failed: bool) {
        let stats = &self.stats;
        stats.total.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        if query.is_some_and(Query::has_text_search) {
            stats.text_search.fetch_add(1, Ordering::Relaxed);
        }
        if query.is_some_and(Query::is_ask) {
            stats.ask.fetch_add(1, Ordering::Relaxed);
        }
        if failed {
            stats.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The planner every request and every `EXPLAIN` of this endpoint goes
    /// through, so what `explain` shows is what the query paths run: the
    /// *shared* snapshot handle lets a plan run its driving scan as
    /// parallel morsels over the pinned epoch, under this endpoint's
    /// [`ParallelConfig`].
    fn planner<'s>(
        &self,
        snapshot: &'s Arc<StoreSnapshot>,
        services: Option<&'s dyn ServiceResolver>,
    ) -> Planner<'s> {
        let planner = Planner::for_shared_snapshot(snapshot).with_parallelism(self.parallel);
        match services {
            Some(services) => planner.with_services(services),
            None => planner,
        }
    }

    /// Evaluate a parsed query against the store, recording request stats.
    /// `services` resolves `SERVICE <kg:name>` groups; without a resolver
    /// (or with an unknown target) such a query fails at plan time.  The
    /// plan's `EXPLAIN` summary is rendered only when `want_plan` is set:
    /// `query_traced` and `query_federated` set it, the query paths the QA
    /// pipeline runs (`query_parsed`, `query_traced_within`) do not.
    ///
    /// Evaluation goes straight to the dictionary-encoded planner/executor
    /// — no SPARQL string exists on this path.
    fn execute_planned(
        &self,
        query: &Query,
        services: Option<&dyn ServiceResolver>,
        deadline: Option<Instant>,
        want_plan: bool,
    ) -> Result<TracedQuery, EndpointError> {
        let start = Instant::now();
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        // Pin one epoch for the whole request: planning statistics and
        // execution scans come from the same immutable snapshot, no matter
        // how many epochs a concurrent writer publishes meanwhile.
        let snapshot = self.live.snapshot();
        let outcome = self
            .planner(&snapshot, services)
            .plan_checked(query)
            .and_then(|plan| {
                let run = plan.execute_with(ExecOptions { deadline })?;
                Ok(TracedQuery {
                    results: run.results,
                    plan: want_plan.then(|| plan.summary().clone()),
                    metrics: Some(run.metrics),
                })
            })
            .map_err(EndpointError::from);
        self.record_request(start.elapsed(), Some(query), outcome.is_err());
        outcome
    }

    /// The physical plan this endpoint's engine would choose for a query,
    /// without executing it — the `EXPLAIN` entry point.  It plans on the
    /// snapshot current at the call, so for a query executed earlier on an
    /// unchanged epoch it renders the summary that execution used.
    pub fn explain(&self, query: &Query) -> PlanSummary {
        let snapshot = self.live.snapshot();
        self.planner(&snapshot, None).plan(query).summary().clone()
    }

    /// Parse a SPARQL string and return its `EXPLAIN` plan.
    pub fn explain_sparql(&self, sparql: &str) -> Result<PlanSummary, EndpointError> {
        let parsed = parse_query(sparql)?;
        Ok(self.explain(&parsed))
    }
}

impl SparqlEndpoint for InProcessEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn dialect(&self) -> EngineDialect {
        self.dialect
    }

    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
        match parse_query(sparql) {
            Ok(parsed) => self.query_parsed(&parsed),
            Err(err) => {
                let start = Instant::now();
                if !self.latency.is_zero() {
                    std::thread::sleep(self.latency);
                }
                self.record_request(start.elapsed(), None, true);
                Err(EndpointError::from(err))
            }
        }
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
        self.execute_planned(query, None, None, false)
            .map(|traced| traced.results)
    }

    fn query_traced(&self, query: &Query) -> Result<TracedQuery, EndpointError> {
        self.execute_planned(query, None, None, true)
    }

    /// The Execute stage's call: results and work counters, no plan.
    /// A reader who wants the plan of an executed candidate calls
    /// [`InProcessEndpoint::explain`], which re-plans at read time.
    fn query_traced_within(
        &self,
        query: &Query,
        deadline: Option<Instant>,
    ) -> Result<TracedQuery, EndpointError> {
        self.execute_planned(query, None, deadline, false)
    }

    fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, EndpointError> {
        self.live.ingest(batch).map_err(EndpointError::from)
    }

    fn describe(&self) -> Option<EndpointDescription> {
        // Epoch and triple count come from the same pinned snapshot, so the
        // pair is always consistent even under concurrent ingestion.
        let snapshot = self.live.snapshot();
        Some(EndpointDescription {
            epoch: snapshot.epoch(),
            triples: snapshot.len(),
        })
    }

    fn query_federated(
        &self,
        query: &Query,
        services: &dyn ServiceResolver,
    ) -> Result<TracedQuery, EndpointError> {
        self.execute_planned(query, Some(services), None, true)
    }

    fn stats(&self) -> RequestStats {
        let stats = &self.stats;
        RequestStats {
            total_requests: stats.total.load(Ordering::Relaxed),
            text_search_requests: stats.text_search.load(Ordering::Relaxed),
            ask_requests: stats.ask.load(Ordering::Relaxed),
            failed_requests: stats.failed.load(Ordering::Relaxed),
            total_time: Duration::from_nanos(stats.nanos.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_rdf::{vocab, Term, Triple};

    fn store() -> Store {
        let mut s = Store::new();
        s.insert(Triple::new(
            Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("Baltic Sea"),
        ));
        s.insert(Triple::new(
            Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ));
        s
    }

    #[test]
    fn endpoint_answers_select_and_ask() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        let rs = ep
            .query("SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }")
            .unwrap();
        assert_eq!(rs.rows().len(), 1);

        let ask = ep
            .query("ASK { <http://dbpedia.org/resource/Baltic_Sea> a <http://dbpedia.org/ontology/Sea> }")
            .unwrap();
        assert_eq!(ask.as_boolean(), Some(true));
    }

    #[test]
    fn endpoint_counts_requests_by_kind() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        ep.query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        ep.query("ASK { ?s ?p ?o }").unwrap();
        ep.query(r#"SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "'baltic'" . }"#)
            .unwrap();
        assert!(ep.query("SELECT nonsense").is_err());

        let stats = ep.stats();
        assert_eq!(stats.total_requests, 4);
        assert_eq!(stats.ask_requests, 1);
        assert_eq!(stats.text_search_requests, 1);
        assert_eq!(stats.failed_requests, 1);
    }

    #[test]
    fn unparseable_non_ascii_text_is_an_error_not_a_panic() {
        // Byte 3 of both strings falls inside a code point: nothing on the
        // parse-failure path may slice there.
        let ep = InProcessEndpoint::new("DBpedia", store());
        assert!(ep.query("ab€").is_err());
        assert!(ep.query("é").is_err());
        let stats = ep.stats();
        assert_eq!(stats.failed_requests, 2);
        assert_eq!(stats.ask_requests, 0);
    }

    #[test]
    fn query_parsed_skips_the_string_round_trip() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        let parsed =
            parse_query("SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }").unwrap();
        let rs = ep.query_parsed(&parsed).unwrap();
        assert_eq!(rs.rows().len(), 1);

        let ask = parse_query(
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> a <http://dbpedia.org/ontology/Sea> }",
        )
        .unwrap();
        assert_eq!(ep.query_parsed(&ask).unwrap().as_boolean(), Some(true));

        // The parsed path feeds the same stats as the text path.
        let stats = ep.stats();
        assert_eq!(stats.total_requests, 2);
        assert_eq!(stats.ask_requests, 1);
    }

    #[test]
    fn latency_injection_is_reflected_in_stats() {
        let ep = InProcessEndpoint::new("DBpedia", store()).with_latency(Duration::from_millis(5));
        ep.query("ASK { ?s ?p ?o }").unwrap();
        assert!(ep.stats().total_time >= Duration::from_millis(5));
    }

    #[test]
    fn dialect_selection() {
        let ep = InProcessEndpoint::new("X", Store::new()).with_dialect(EngineDialect::Stardog);
        assert_eq!(ep.dialect(), EngineDialect::Stardog);
        assert_eq!(ep.name(), "X");
    }

    #[test]
    fn graph_stats_are_exposed() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        assert_eq!(ep.graph_stats().triples, 2);
        assert_eq!(ep.store().len(), 2);
    }

    #[test]
    fn explain_exposes_the_physical_plan() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        let summary = ep
            .explain_sparql("SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }")
            .unwrap();
        let rendered = summary.to_string();
        assert!(rendered.contains("select ?s"), "{rendered}");
        assert!(rendered.contains("scan ?s"), "{rendered}");
        // EXPLAIN does not execute: no request was recorded.
        assert_eq!(ep.stats().total_requests, 0);
        assert!(ep.explain_sparql("SELECT nonsense").is_err());
    }

    #[test]
    fn ingest_publishes_a_new_epoch_and_updates_answers() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        let sparql = "SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }";
        assert_eq!(ep.query(sparql).unwrap().rows().len(), 1);
        assert_eq!(ep.epoch(), 0);

        // A reader that pinned the pre-ingest snapshot keeps its view.
        let pinned = ep.store();

        let report = ep
            .ingest(IngestBatch::from(vec![Triple::new(
                Term::iri("http://dbpedia.org/resource/North_Sea"),
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://dbpedia.org/ontology/Sea"),
            )]))
            .unwrap();
        assert_eq!(report.added(), 1);
        assert_eq!(report.epoch(), 1);
        assert_eq!(ep.epoch(), 1);

        assert_eq!(ep.query(sparql).unwrap().rows().len(), 2);
        assert_eq!(pinned.len(), 2, "pinned snapshot is immutable");
        assert_eq!(ep.store().len(), 3);
    }

    #[test]
    fn query_federated_joins_service_groups_across_kgs() {
        use crate::EndpointRegistry;

        let mut local_store = Store::new();
        local_store.insert(Triple::new(
            Term::iri("http://e/Alice"),
            Term::iri("http://e/spouse"),
            Term::iri("http://e/Bob"),
        ));
        let mut remote_store = Store::new();
        remote_store.insert(Triple::new(
            Term::iri("http://e/Bob"),
            Term::iri("http://e/birthPlace"),
            Term::iri("http://e/Berlin"),
        ));
        let local = InProcessEndpoint::new("DBpedia", local_store);
        let mut reg = EndpointRegistry::new();
        reg.register(Arc::new(InProcessEndpoint::new("Wikidata", remote_store)));

        let query = parse_query(
            "SELECT ?q ?c WHERE { <http://e/Alice> <http://e/spouse> ?q . \
             SERVICE <kg:Wikidata> { ?q <http://e/birthPlace> ?c . } }",
        )
        .unwrap();
        let traced = local.query_federated(&query, &reg).unwrap();
        assert_eq!(traced.results.rows().len(), 1);
        assert_eq!(
            traced.results.rows().first().unwrap().get("c"),
            Some(&Term::iri("http://e/Berlin"))
        );
        let plan = traced.plan.expect("federated path exposes its plan");
        assert!(plan.to_string().contains("service <kg:Wikidata>"), "{plan}");

        // An unregistered target fails at plan time, naming the valid KGs.
        let bad =
            parse_query("SELECT ?c WHERE { SERVICE <kg:Nope> { ?q <http://e/birthPlace> ?c . } }")
                .unwrap();
        let err = local.query_federated(&bad, &reg).unwrap_err();
        assert!(err.to_string().contains("Wikidata"), "{err}");
    }

    #[test]
    fn only_the_explain_paths_render_plans() {
        use crate::cache::{CacheConfig, CachingEndpoint, QueryCache};
        use crate::EndpointRegistry;

        let ep = Arc::new(InProcessEndpoint::new("DBpedia", store()));
        let cached = CachingEndpoint::new(ep.clone(), QueryCache::shared(CacheConfig::default()));
        let registry = EndpointRegistry::new();
        let parsed =
            parse_query("SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }").unwrap();
        let other = parse_query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        let deadline = Some(Instant::now() + Duration::from_secs(60));

        // The Execute stage's call: counters, no plan — on the engine
        // and through a cache miss alike.
        let within = ep.query_traced_within(&parsed, deadline).unwrap();
        let cached_within = cached.query_traced_within(&parsed, deadline).unwrap();
        for traced in [&within, &cached_within] {
            assert_eq!(traced.results.rows().len(), 1);
            assert!(traced.metrics.is_some());
            assert!(traced.plan.is_none());
        }

        // The EXPLAIN paths: the plan `explain` renders.
        let plan = ep.explain(&parsed);
        assert_eq!(ep.query_traced(&parsed).unwrap().plan, Some(plan.clone()));
        let federated = ep.query_federated(&parsed, &registry).unwrap();
        assert_eq!(federated.plan, Some(plan.clone()));
        assert_eq!(
            cached.query_federated(&parsed, &registry).unwrap().plan,
            Some(plan)
        );
        let cached_miss = cached.query_traced(&other).unwrap();
        assert_eq!(cached_miss.plan, Some(ep.explain(&other)));
        assert!(cached_miss.metrics.is_some());
    }

    #[test]
    fn query_traced_reports_plan_and_scan_work() {
        let ep = InProcessEndpoint::new("DBpedia", store());
        let parsed =
            parse_query("SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Sea> . }").unwrap();
        let traced = ep.query_traced(&parsed).unwrap();
        assert_eq!(traced.results.rows().len(), 1);
        let plan = traced.plan.expect("in-process endpoint exposes its plan");
        assert!(!plan.ops.is_empty());
        let metrics = traced.metrics.expect("executor reports work counters");
        assert_eq!(metrics.rows_emitted, 1);
        assert!(metrics.rows_scanned >= 1);
        // The traced path records requests like any other.
        assert_eq!(ep.stats().total_requests, 1);
    }
}
