//! Answer equivalence and provenance-merged ranking.
//!
//! Different KGs name the same real-world entity differently: DBpedia says
//! `dbr:Michelle_Obama`, another graph may return the literal
//! `"Michelle Obama"`.  The federation layer deduplicates per-KG answers by
//! a normalised *equivalence key* ([`answer_key`]) and re-ranks the merged
//! set with an agreement-boosted combined score: answers that several KGs
//! independently produced outrank single-source answers of the same base
//! score.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use kgqan_rdf::Term;

/// Relative boost per *additional* agreeing KG: the combined score of a
/// merged answer is `mean(per-KG best scores) × (1 + BOOST × (k − 1))`
/// where `k` is the number of distinct KGs that produced the answer.
pub const AGREEMENT_BOOST: f64 = 0.25;

/// One KG's vote for one answer term, carrying the KG's own ranking score
/// (the best Equation-2 query score that produced the term on that KG).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredAnswer {
    /// The registered KG name that produced the term.
    pub kg: String,
    /// The answer term as that KG returned it.
    pub term: Term,
    /// The KG-local ranking score of the term.
    pub score: f64,
}

/// A merged, provenance-tagged answer: the representative term (from the
/// highest-scoring contribution), the agreement-boosted combined score, and
/// the sorted list of KGs that agreed on it.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedAnswer {
    /// The representative term, taken from the highest-scoring vote.
    pub term: Term,
    /// Combined score: mean of per-KG best scores, boosted by agreement
    /// (see [`AGREEMENT_BOOST`]).
    pub score: f64,
    /// The distinct KGs that produced an equivalent term, sorted by name.
    pub kgs: Vec<String>,
}

impl FederatedAnswer {
    /// Number of distinct KGs that agreed on this answer.
    pub fn agreement(&self) -> usize {
        self.kgs.len()
    }
}

/// The equivalence key under which per-KG answers are deduplicated.
///
/// * Literals compare by trimmed, lowercased lexical form (datatype and
///   language tag are ignored — `"Berlin"@en` and `"berlin"` merge).
/// * IRIs compare by their last path segment (after the final `/` or `#`)
///   with `_` mapped to space and lowercased, so `dbr:Michelle_Obama`
///   merges with the literal `"Michelle Obama"`.
/// * Blank nodes compare by label; cross-KG blank labels are coincidental,
///   but blank answers are rare enough that a deterministic key beats a
///   per-KG unique one.
pub fn answer_key(term: &Term) -> String {
    match term {
        Term::Iri(iri) => {
            let tail = iri.trim_end_matches(['/', '#']);
            let segment = tail.rsplit(['/', '#']).next().unwrap_or(tail);
            segment.replace('_', " ").to_lowercase()
        }
        Term::Literal(lit) => lit.lexical.trim().to_lowercase(),
        Term::Blank(label) => format!("_:{}", label.to_lowercase()),
    }
}

struct Group<'a> {
    /// Highest single-vote score seen so far, electing the representative.
    best: f64,
    term: &'a Term,
    /// Best score per contributing KG.
    per_kg: BTreeMap<&'a str, f64>,
}

/// Merge per-KG answer votes into a deduplicated, re-ranked answer list.
///
/// Votes whose terms share an [`answer_key`] collapse into one
/// [`FederatedAnswer`]; within one KG only its best score for the key
/// counts.  The result is sorted by combined score descending (ties broken
/// by key, ascending, for determinism).
pub fn merge_answers(votes: &[ScoredAnswer]) -> Vec<FederatedAnswer> {
    let mut groups: BTreeMap<String, Group<'_>> = BTreeMap::new();
    for vote in votes {
        let group = groups.entry(answer_key(&vote.term)).or_insert(Group {
            best: f64::NEG_INFINITY,
            term: &vote.term,
            per_kg: BTreeMap::new(),
        });
        if vote.score > group.best {
            group.best = vote.score;
            group.term = &vote.term;
        }
        let kg_best = group.per_kg.entry(&vote.kg).or_insert(vote.score);
        if vote.score > *kg_best {
            *kg_best = vote.score;
        }
    }

    // The groups leave the map in key order and the sort is stable, so
    // equal scores stay ordered by key without the comparator ever
    // building one.
    let mut merged: Vec<FederatedAnswer> = groups
        .into_values()
        .map(|group| {
            let agreement = group.per_kg.len() as f64;
            let mean = group.per_kg.values().sum::<f64>() / agreement;
            FederatedAnswer {
                term: group.term.clone(),
                score: mean * (1.0 + AGREEMENT_BOOST * (agreement - 1.0)),
                kgs: group.per_kg.into_keys().map(str::to_owned).collect(),
            }
        })
        .collect();
    merged.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(kg: &str, term: Term, score: f64) -> ScoredAnswer {
        ScoredAnswer {
            kg: kg.to_string(),
            term,
            score,
        }
    }

    #[test]
    fn key_normalises_iris_and_literals_to_the_same_form() {
        let iri = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        let lit = Term::literal_str("  Michelle OBAMA ");
        assert_eq!(answer_key(&iri), "michelle obama");
        assert_eq!(answer_key(&iri), answer_key(&lit));
        // Fragment IRIs key by the fragment.
        assert_eq!(answer_key(&Term::iri("http://ex.org/ont#Berlin")), "berlin");
        // Trailing separators do not produce an empty key.
        assert_eq!(answer_key(&Term::iri("http://ex.org/Berlin/")), "berlin");
    }

    #[test]
    fn agreement_boosts_the_combined_score() {
        let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        let merged = merge_answers(&[
            vote("DBpedia", michelle.clone(), 0.8),
            vote("Wikidata", Term::literal_str("Michelle Obama"), 0.6),
            vote(
                "DBpedia",
                Term::iri("http://dbpedia.org/resource/Other"),
                0.9,
            ),
        ]);
        assert_eq!(merged.len(), 2);
        // Single-source 0.9 stays 0.9; the agreed answer scores
        // mean(0.8, 0.6) × 1.25 = 0.875.
        assert_eq!(merged[0].score, 0.9);
        assert_eq!(merged[0].kgs, vec!["DBpedia".to_string()]);
        assert!((merged[1].score - 0.875).abs() < 1e-9);
        assert_eq!(
            merged[1].kgs,
            vec!["DBpedia".to_string(), "Wikidata".to_string()]
        );
        // The representative term comes from the highest-scoring vote.
        assert_eq!(merged[1].term, michelle);
    }

    #[test]
    fn within_one_kg_only_the_best_score_counts() {
        let term = Term::literal_str("Berlin");
        let merged = merge_answers(&[
            vote("DBpedia", term.clone(), 0.4),
            vote("DBpedia", term.clone(), 0.7),
        ]);
        assert_eq!(merged.len(), 1);
        // One KG, two votes: no agreement boost, best score wins the mean.
        assert_eq!(merged[0].score, 0.7);
        assert_eq!(merged[0].agreement(), 1);
    }

    #[test]
    fn ties_order_deterministically_by_key() {
        let merged = merge_answers(&[
            vote("A", Term::literal_str("zebra"), 0.5),
            vote("A", Term::literal_str("aardvark"), 0.5),
        ]);
        assert_eq!(merged[0].term, Term::literal_str("aardvark"));
        assert_eq!(merged[1].term, Term::literal_str("zebra"));
    }

    #[test]
    fn empty_votes_merge_to_no_answers() {
        assert!(merge_answers(&[]).is_empty());
    }
}
