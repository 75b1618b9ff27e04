//! # kgqan-rdf
//!
//! An in-memory RDF data management substrate, modelled after the RDF engines
//! used as SPARQL endpoints in the KGQAn paper (Virtuoso, Stardog, Apache
//! Jena).  The store provides everything the KGQAn just-in-time linker relies
//! on from a *stock* RDF engine:
//!
//! * a dictionary-encoded triple table with **six-way indices**
//!   (SPO, SOP, PSO, POS, OSP, OPS — "hexastore"-style sextuple indexing),
//!   so that every triple-pattern access path is a range scan,
//! * a **built-in full-text index** over string literals, the counterpart of
//!   Virtuoso's `bif:contains` / Stardog's `textMatch` that answers the
//!   `potentialRelevantVertices` query of Section 5.1 of the paper,
//! * an N-Triples loader/serializer and graph statistics.
//!
//! The store is deliberately engine-agnostic: no KGQAn-specific logic lives
//! here.  Higher layers (the SPARQL executor and the endpoint crate) expose it
//! through the standard query API, exactly the way KGQAn talks to a remote
//! endpoint it has never seen before.
//!
//! ## Example
//!
//! ```
//! use kgqan_rdf::{Store, Term, Triple};
//!
//! let mut store = Store::new();
//! store.insert(Triple::new(
//!     Term::iri("http://dbpedia.org/resource/Baltic_Sea"),
//!     Term::iri("http://www.w3.org/2000/01/rdf-schema#label"),
//!     Term::literal_str("Baltic Sea"),
//! ));
//! assert_eq!(store.len(), 1);
//!
//! // Full-text search over literals: the backbone of JIT entity linking.
//! let hits = store.text_index().search_any(&["baltic"], 10);
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dictionary;
pub mod error;
pub mod hash;
mod index;
pub mod live;
pub mod ntriples;
mod segments;
pub mod stats;
pub mod store;
pub mod term;
pub mod text;
pub mod triple;
pub mod vocab;

pub use dictionary::{Dictionary, FrozenDictionary, TermId};
pub use error::RdfError;
pub use index::{PartitionRange, ScanCursor};
pub use live::{IngestBatch, IngestReport, LiveStore, StoreSnapshot, TouchedScope};
pub use ntriples::{parse_ntriples, serialize_ntriples};
pub use stats::{GraphStats, PlannerStats, PredicateCard};
pub use store::{MaintenanceCounters, Store, TriplePattern};
pub use term::{Literal, Term};
pub use text::{TextIndex, TextMatch};
pub use triple::{EncodedTriple, EncodedTriplePattern, Triple};
