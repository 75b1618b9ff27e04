//! # kgqan-baselines
//!
//! Behaviour-model reimplementations of the two open-source comparison
//! systems of the paper's evaluation — **gAnswer** \[27, 64] and **EDGQA**
//! \[28] — plus a thin adapter that exposes KGQAn's staged pipeline through
//! the same [`QaSystem`] interface so the experiment harness can run the
//! three systems side by side.
//!
//! The baselines capture the *mechanisms* the paper holds responsible for
//! the experimental gaps (Table 1–3, Figure 8–9):
//!
//! * both baselines require a **per-KG pre-processing phase** that scans the
//!   whole graph and builds linking indices (Table 2's hours-and-gigabytes
//!   column; here: measurable milliseconds and bytes),
//! * **gAnswer** understands questions with dependency-parse-style curated
//!   rules tuned to QALD-9 phrasing and links entities through an inverted
//!   index over *URI text*, which finds nothing on KGs with opaque URIs
//!   (MAG) — reproducing its 0.0 F1 there,
//! * **EDGQA** decomposes questions with constituency-style rules tuned to
//!   LC-QuAD templates, links through a Falcon-like label n-gram index
//!   (which needs manual per-KG configuration of the description predicate)
//!   and cannot extract entities with long phrases such as paper titles —
//!   reproducing its collapse on DBLP/MAG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edgqa;
pub mod ganswer;
pub mod kgqan_adapter;
pub mod rules;

pub use edgqa::EdgqaSystem;
pub use ganswer::GAnswerSystem;
pub use kgqan_adapter::PipelineSystem;

use std::time::Duration;

use kgqan_endpoint::SparqlEndpoint;
use kgqan_rdf::Term;

/// Cost of a system's per-KG pre-processing phase (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessingStats {
    /// Wall-clock time spent building the indices.
    pub duration: Duration,
    /// Approximate size of the indices in bytes.
    pub index_bytes: usize,
    /// Number of indexed items (vertices, labels, predicates).
    pub indexed_items: usize,
}

/// A system's response to one question, in the shape the evaluator expects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemResponse {
    /// Returned answers.
    pub answers: Vec<Term>,
    /// Returned Boolean verdict.
    pub boolean: Option<bool>,
    /// Whether question understanding produced anything usable.
    pub understanding_ok: bool,
    /// Seconds spent in (question understanding, linking, execution &
    /// filtration).
    pub phase_seconds: (f64, f64, f64),
}

/// The interface shared by KGQAn and the baselines in the harness.
pub trait QaSystem {
    /// The system's display name ("KGQAn", "gAnswer", "EDGQA").
    fn name(&self) -> &str;

    /// Per-KG pre-processing.  KGQAn returns an all-zero record — it needs
    /// none; the baselines scan the KG and build their indices.
    fn preprocess(&mut self, endpoint: &dyn SparqlEndpoint) -> PreprocessingStats;

    /// Answer a question against an endpoint (after `preprocess` was called
    /// for that endpoint, for systems that need it).
    fn answer(&self, question: &str, endpoint: &dyn SparqlEndpoint) -> SystemResponse;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocessing_stats_default_is_zero() {
        let stats = PreprocessingStats::default();
        assert_eq!(stats.duration, Duration::ZERO);
        assert_eq!(stats.index_bytes, 0);
        assert_eq!(stats.indexed_items, 0);
    }

    #[test]
    fn system_response_default_is_empty_failure() {
        let r = SystemResponse::default();
        assert!(r.answers.is_empty());
        assert!(r.boolean.is_none());
        assert!(!r.understanding_ok);
    }
}
