//! # kgqan-sparql
//!
//! A SPARQL subset — lexer, parser, algebra, cost-based planner
//! ([`plan`]) and depth-first executor ([`exec`]) — sufficient to run every
//! query the KGQAn pipeline and its baselines issue against an RDF endpoint:
//!
//! * `SELECT [DISTINCT] ?v … | * WHERE { … } [LIMIT n] [OFFSET n]`
//! * `ASK { … }`
//! * basic graph patterns with IRIs, prefixed names, literals and variables,
//! * `OPTIONAL { … }` (used by KGQAn to fetch the `rdf:type` of the main
//!   unknown for post-filtering, Section 6),
//! * `FILTER` expressions (comparisons, `CONTAINS`, `REGEX`, `LANG`, boolean
//!   connectives),
//! * the full-text extension predicates of the engines the paper targets:
//!   Virtuoso's `bif:contains`, Stardog's `textMatch` and Jena's
//!   `text:query`, all answered by the store's built-in text index
//!   (the `potentialRelevantVertices` query of Section 5.1).
//!
//! ## Example
//!
//! ```
//! use kgqan_rdf::{Store, Term, Triple};
//! use kgqan_sparql::execute_query;
//!
//! let mut store = Store::new();
//! store.insert(Triple::new(
//!     Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
//!     Term::iri("http://dbpedia.org/property/outflow"),
//!     Term::iri("http://dbpedia.org/resource/Danish_straits"),
//! ));
//!
//! let results = execute_query(
//!     &store,
//!     "SELECT ?sea WHERE { ?sea <http://dbpedia.org/property/outflow> \
//!      <http://dbpedia.org/resource/Danish_straits> . }",
//! ).unwrap();
//! assert_eq!(results.rows().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod exec;
mod explain;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod pool;
mod reference;
pub mod results;

pub use ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
pub use error::SparqlError;
pub use eval::{execute, execute_query};
pub use exec::{ExecMetrics, ExecOptions, ParallelMetrics, PlannedExecution};
pub use explain::{explain, PlanOp, PlanSummary};
pub use parser::parse_query;
pub use plan::{ParallelConfig, PhysicalPlan, Planner, ServiceResolver};
pub use pool::{PoolStats, SubmitError, WorkerPool};
pub use reference::execute_naive;
pub use results::{QueryResults, ResultSet, Row, Rows};
