//! Every Rust item of the repository the benchmark compiles against, in one
//! place.
//!
//! The rest of `benchmark/src` imports repository items only through this
//! module, so a change that renames or collapses one of these signatures
//! (the ROADMAP API-collapse item) breaks the build here and nowhere else,
//! and this list is what a benchmark follow-up has to track.  The same list
//! is written out in `benchmark/README.md`.

// crates/core — the service, the staged pipeline and its stage traits (the
// tracing decorators implement the four stage traits and `SemanticAffinity`).
pub use kgqan::pipeline::{JitLinkStage, ManagedExecution, TypeFiltration};
pub use kgqan::{
    AnswerRequest, Execute, ExecutionOutcome, Filter, FilteredAnswers, KgqanConfig, KgqanError,
    Link, LinkedQuestion, Pipeline, QaService, QaServiceBuilder, QuestionUnderstanding,
    SemanticAffinity, StageContext, Understand, Understanding,
};

// crates/endpoint — the endpoint trait (decorated outside and inside the
// semantic cache), the in-process engine, the JSON reader/writer.
pub use kgqan_endpoint::json::{write_json_number, write_json_string, Json};
pub use kgqan_endpoint::{
    CacheStats, EndpointDescription, EndpointError, EngineDialect, InProcessEndpoint, RequestStats,
    ServiceResolver, SparqlEndpoint, TracedQuery,
};

// crates/federate — the fan-out entry point the federate replay calls.
pub use kgqan_federate::FederatedEndpoint;

// crates/rdf — stores, terms, ingest batches, N-Triples, tokenizer.
pub use kgqan_rdf::text::tokenize;
pub use kgqan_rdf::{
    parse_ntriples, serialize_ntriples, vocab, IngestBatch, IngestReport, LiveStore, Store,
    StoreSnapshot, Term, Triple, TriplePattern,
};

// crates/sparql — the parse → plan → execute path the SPARQL replay times.
pub use kgqan_sparql::{parse_query, ExecOptions, ParallelConfig, Planner, Query, QueryResults};

// crates/server — the HTTP front-end under test, its client, its wire format.
pub use kgqan_server::wire::{
    answer_response_to_json, federated_response_to_json, parse_ask_request, parse_federate_request,
    query_results_to_json,
};
pub use kgqan_server::{serve, HttpClient, ServerConfig, ServerHandle};

// crates/benchmarks — generated KGs, questions with gold answers, QALD scoring.
pub use kgqan_benchmarks::eval::score_question;
pub use kgqan_benchmarks::kg::PredicateVocabulary;
pub use kgqan_benchmarks::questions::questions_for;
pub use kgqan_benchmarks::{BenchmarkQuestion, GeneratedKg, KgFlavor, KgScale, SystemAnswer};

// crates/bench — the seeded Zipf KG generator of the `scale` area.
pub use kgqan_bench::kggen::{ZipfKg, ZipfKgConfig, CATEGORY, LINKS};
