//! What a request runs under: the tuning configuration and the time budget.
//!
//! This module is a leaf — the stages ([`crate::linker`],
//! [`crate::execution`], [`crate::pipeline`]) and the serving layer
//! ([`crate::service`]) all import from here, and it imports from none of
//! them.

use std::time::{Duration, Instant};

use kgqan_nlp::Seq2SeqVariant;

use crate::affinity::AffinityModel;

/// Tuning knobs of the linker (the first three of the four KGQAn parameters
/// of §7.1.6; the fourth — max candidate queries — lives in
/// [`KgqanConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkerConfig {
    /// *Max Fetched Vertices*: LIMIT of the `potentialRelevantVertices`
    /// query.  Paper default: 400.
    pub max_fetched_vertices: usize,
    /// *Number of Vertices*: how many relevant vertices annotate each PGP
    /// node.  Paper default: 1.
    pub num_vertices: usize,
    /// *Number of Predicates*: how many relevant predicates annotate each
    /// PGP edge.  Paper default: 20 (the average predicates-per-vertex).
    pub num_predicates: usize,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            max_fetched_vertices: 400,
            num_vertices: 1,
            num_predicates: 20,
        }
    }
}

/// KGQAn configuration: the four tuning parameters of §7.1.6 plus the model
/// ablation axes of Table 4 and the filtration toggle of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KgqanConfig {
    /// Linking knobs (max fetched vertices, vertices per node, predicates per
    /// edge).
    pub linker: LinkerConfig,
    /// *Max number of Queries*: how many candidate SPARQL queries may be
    /// generated per question.  Paper default: 40.
    pub max_candidate_queries: usize,
    /// How many of the candidate queries may contribute answers before the
    /// Execute stage stops.
    pub max_productive_queries: usize,
    /// Which semantic-affinity model to use (Table 4).
    pub affinity: AffinityModel,
    /// Which Seq2Seq variant the question-understanding model emulates
    /// (Table 4).
    pub seq2seq: Seq2SeqVariant,
    /// Whether post-filtration is applied (Figure 10 ablation).
    pub filtration_enabled: bool,
}

impl Default for KgqanConfig {
    fn default() -> Self {
        KgqanConfig {
            linker: LinkerConfig::default(),
            max_candidate_queries: 40,
            max_productive_queries: 3,
            affinity: AffinityModel::FineGrained,
            seq2seq: Seq2SeqVariant::BartLike,
            filtration_enabled: true,
        }
    }
}

/// A request's time budget: a start instant plus an optional deadline.
///
/// The budget is threaded through the linking and execution phases, which
/// check it between endpoint round-trips; `Budget::unbounded()` never
/// expires.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    deadline: Option<Duration>,
}

impl Budget {
    /// A budget that never expires.
    pub fn unbounded() -> Self {
        Self::start(None)
    }

    /// A budget expiring `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self::start(Some(deadline))
    }

    /// Start a budget from an optional deadline.
    pub fn start(deadline: Option<Duration>) -> Self {
        Budget {
            started: Instant::now(),
            deadline,
        }
    }

    /// The deadline this budget enforces, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Time elapsed since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time left before the deadline (`None` for unbounded budgets, zero
    /// once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(self.elapsed()))
    }

    /// True once the deadline has passed.  Unbounded budgets never expire.
    pub fn expired(&self) -> bool {
        match self.deadline {
            Some(deadline) => self.elapsed() >= deadline,
            None => false,
        }
    }

    /// The smallest per-branch share [`Budget::split`] hands out: below
    /// this a sub-request cannot even complete its linking probes, so the
    /// share would buy nothing but a guaranteed `Partial`.
    pub const MIN_SPLIT_SHARE: Duration = Duration::from_millis(25);

    /// Carve a per-branch budget for fanning this request out `n` ways.
    ///
    /// Each share is an *independent* budget of `remaining / n`, floored at
    /// [`Budget::MIN_SPLIT_SHARE`] (but never beyond what actually remains),
    /// starting from now.  Fan-out paths — the federation layer — stamp
    /// every branch's request with its own share instead of the whole
    /// deadline, so one stalled KG exhausts only its slice while its
    /// siblings still finish within theirs.  Splitting an unbounded budget
    /// yields unbounded shares; splitting an expired budget yields shares
    /// that are born expired.
    pub fn split(&self, n: usize) -> Budget {
        let n = n.max(1) as u32;
        match self.remaining() {
            None => Budget::unbounded(),
            Some(remaining) => {
                let share = (remaining / n).max(Self::MIN_SPLIT_SHARE).min(remaining);
                Budget::with_deadline(share)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = KgqanConfig::default();
        assert_eq!(c.max_candidate_queries, 40);
        assert_eq!(c.linker.max_fetched_vertices, 400);
        assert_eq!(c.linker.num_vertices, 1);
        assert_eq!(c.linker.num_predicates, 20);
        assert!(c.filtration_enabled);
    }

    #[test]
    fn budget_expiry() {
        let unbounded = Budget::unbounded();
        assert!(!unbounded.expired());
        assert_eq!(unbounded.remaining(), None);
        assert_eq!(unbounded.deadline(), None);

        let expired = Budget::with_deadline(Duration::ZERO);
        assert!(expired.expired());
        assert_eq!(expired.remaining(), Some(Duration::ZERO));

        let generous = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!generous.expired());
        assert!(generous.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn budget_split_floors_and_caps_shares() {
        // Unbounded budgets split into unbounded shares.
        assert_eq!(Budget::unbounded().split(4).deadline(), None);

        // A generous budget splits evenly.
        let share = Budget::with_deadline(Duration::from_secs(8))
            .split(4)
            .deadline()
            .unwrap();
        assert!(share <= Duration::from_secs(2));
        assert!(share > Duration::from_millis(1900));

        // A tight budget keeps the floor so a share is still usable…
        let floored = Budget::with_deadline(Duration::from_millis(40))
            .split(16)
            .deadline()
            .unwrap();
        assert_eq!(floored, Budget::MIN_SPLIT_SHARE);

        // …but the floor never exceeds what actually remains.
        let exhausted = Budget::with_deadline(Duration::ZERO).split(4);
        assert!(exhausted.expired());

        // n = 0 is treated as 1 rather than dividing by zero.
        assert!(Budget::with_deadline(Duration::from_secs(1))
            .split(0)
            .deadline()
            .is_some());
    }
}
