//! # kgqan-endpoint
//!
//! The SPARQL-endpoint abstraction that sits between KGQAn and a knowledge
//! graph (Figure 2 of the paper).  KGQAn never touches a store directly — it
//! only sees the *public endpoint API*: submit a SPARQL string, get results
//! back.  This crate provides:
//!
//! * the [`SparqlEndpoint`] trait — the only interface the KGQAn core and the
//!   baselines are allowed to use,
//! * [`InProcessEndpoint`] — an endpoint wrapping a [`kgqan_rdf::Store`],
//!   standing in for a remote Virtuoso/Stardog/Jena installation, with
//!   configurable per-request latency injection and request accounting,
//! * [`EngineDialect`] — the engine-specific full-text predicate
//!   (`bif:contains` vs `textMatch` vs `text:query`) that KGQAn adapts its
//!   linking queries to, exactly as described in Section 5.1,
//! * [`EndpointRegistry`] — a name → endpoint map standing in for the set of
//!   SPARQL endpoint URIs users may target, optionally fronted by per-KG
//!   [`cache::QueryCache`] namespaces,
//! * [`CachingEndpoint`] — a decorator that answers repeated probe and
//!   candidate queries from a shared, bounded LRU cache instead of
//!   re-probing the engine ([`cache`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dialect;
pub mod error;
pub mod inprocess;
pub mod json;
pub mod registry;
pub mod stats;

pub use cache::{CacheConfig, CacheStats, CachingEndpoint, QueryCache};
pub use dialect::EngineDialect;
pub use error::EndpointError;
pub use inprocess::InProcessEndpoint;
pub use registry::EndpointRegistry;
pub use stats::RequestStats;

// Re-exported so federation callers can name the resolver trait without
// depending on `kgqan-sparql` directly.
pub use kgqan_sparql::ServiceResolver;

use kgqan_rdf::{IngestBatch, IngestReport};
use kgqan_sparql::{ExecMetrics, PlanSummary, Query, QueryResults};

/// A coarse description of the KG behind an endpoint: the epoch it is
/// serving and the triple count of that epoch's snapshot, as surfaced by
/// `GET /kg` and the provenance of federated answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointDescription {
    /// The epoch currently served (0 for a store that never ingested).
    pub epoch: u64,
    /// Triples in the served snapshot.
    pub triples: usize,
}

/// The results of one executed query plus the engine's execution telemetry,
/// returned by [`SparqlEndpoint::query_traced`].
///
/// `plan` and `metrics` are populated when the serving engine exposes its
/// physical plan — today that is [`InProcessEndpoint`], whose cost-based
/// planner reports the chosen join order and the rows it scanned.  Remote
/// wire-protocol endpoints (and cache hits, which execute nothing) return
/// `None` for both, and [`SparqlEndpoint::query_traced_within`] returns
/// `metrics` without a `plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedQuery {
    /// The query results.
    pub results: QueryResults,
    /// The physical plan the engine chose, when it exposes one.
    pub plan: Option<PlanSummary>,
    /// Executor work counters (rows scanned / emitted), when exposed.
    pub metrics: Option<ExecMetrics>,
}

/// The public API of a SPARQL endpoint, as seen by KGQAn and the baselines.
///
/// Implementations must be shareable across threads: KGQAn's execution
/// manager issues the top-k candidate queries in parallel.
pub trait SparqlEndpoint: Send + Sync {
    /// A short human-readable name, e.g. `"DBpedia"` or `"MAG"`.
    fn name(&self) -> &str;

    /// The engine dialect the endpoint speaks (decides which full-text
    /// predicate KGQAn uses when composing linking queries).
    fn dialect(&self) -> EngineDialect;

    /// Execute a SPARQL query and return its results.
    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError>;

    /// Execute an already-parsed query.
    ///
    /// KGQAn builds its candidate queries as ASTs; handing the AST over
    /// keeps the whole execution path dictionary-encoded for in-process
    /// endpoints.  The default implementation serializes back to SPARQL
    /// text for endpoints that only speak the wire protocol (a remote
    /// engine necessarily re-parses); [`InProcessEndpoint`] overrides it to
    /// evaluate the AST directly against its store.
    fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
        self.query(&query.to_sparql())
    }

    /// Execute an already-parsed query and return execution telemetry with
    /// the results.
    ///
    /// The default implementation wraps [`SparqlEndpoint::query_parsed`]
    /// with no telemetry; [`InProcessEndpoint`] overrides it to report the
    /// physical plan its cost-based planner chose (the `?explain=1` route
    /// serializes it) and the rows the streaming executor scanned.
    fn query_traced(&self, query: &Query) -> Result<TracedQuery, EndpointError> {
        Ok(TracedQuery {
            results: self.query_parsed(query)?,
            plan: None,
            metrics: None,
        })
    }

    /// Like [`SparqlEndpoint::query_traced`], but with a deadline and
    /// without the plan: the engine should stop executing at `deadline` and
    /// return the rows produced so far with `metrics.deadline_exceeded`
    /// set.  This is the Execute stage's call for every candidate
    /// query; the work counters it returns land in `QueryStat`, and `plan`
    /// is `None` because nothing on that path reads one.
    ///
    /// The default implementation ignores the deadline (a stock remote
    /// endpoint has no mid-query cancellation); [`InProcessEndpoint`]
    /// overrides it — its executor checks the deadline per morsel on the
    /// parallel path and every few hundred rows sequentially, and it
    /// renders no plan — and [`CachingEndpoint`] forwards to its inner
    /// endpoint.
    fn query_traced_within(
        &self,
        query: &Query,
        deadline: Option<std::time::Instant>,
    ) -> Result<TracedQuery, EndpointError> {
        let _ = deadline;
        self.query_traced(query)
    }

    /// Apply a batch of triple additions to the endpoint's live knowledge
    /// graph, publishing a new epoch snapshot for subsequent queries.
    ///
    /// The default implementation rejects the batch with
    /// [`EndpointError::IngestUnsupported`]: a stock remote endpoint is
    /// read-only from KGQAn's point of view.  [`InProcessEndpoint`] overrides
    /// it to forward the batch to its [`kgqan_rdf::LiveStore`] writer, and
    /// [`CachingEndpoint`] additionally performs scoped cache invalidation
    /// from the returned [`kgqan_rdf::TouchedScope`].
    fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, EndpointError> {
        let _ = batch;
        Err(EndpointError::IngestUnsupported {
            name: self.name().to_string(),
        })
    }

    /// Describe the KG behind this endpoint (served epoch + triple count).
    ///
    /// The default returns `None`: a remote wire-protocol endpoint has no
    /// cheap way to know its size.  [`InProcessEndpoint`] overrides it with
    /// the live store's current snapshot, and [`CachingEndpoint`] forwards
    /// to its inner endpoint.
    fn describe(&self) -> Option<EndpointDescription> {
        None
    }

    /// Execute a query that may contain `SERVICE <kg:name>` groups, using
    /// `services` to resolve the remote KGs.
    ///
    /// The resolver is passed per call rather than stored on the endpoint so
    /// that a registry can resolve SERVICE targets to its own members
    /// without creating reference cycles.  The default implementation
    /// rejects queries that actually contain SERVICE groups (the plain
    /// query path cannot execute them) and otherwise forwards to
    /// [`SparqlEndpoint::query_traced`]; [`InProcessEndpoint`] overrides it
    /// to plan with the resolver installed.
    fn query_federated(
        &self,
        query: &Query,
        services: &dyn ServiceResolver,
    ) -> Result<TracedQuery, EndpointError> {
        if let Some(kg) = query.pattern.service_targets().first() {
            let _ = services;
            return Err(EndpointError::Query(kgqan_sparql::SparqlError::Service {
                kg: (*kg).to_string(),
                message: format!("endpoint {} cannot execute SERVICE groups", self.name()),
            }));
        }
        self.query_traced(query)
    }

    /// Cumulative request statistics for this endpoint.
    fn stats(&self) -> RequestStats;
}
