//! Candidate query generation (Section 6, Algorithm 3).
//!
//! From the annotated graph pattern KGQAn enumerates all valid combinations
//! of relevant vertices and predicates (Definition 6.1), scores each
//! resulting basic graph pattern with Equation 2, ranks them, and converts
//! the top-k into SPARQL queries — SELECT queries with an OPTIONAL
//! `rdf:type` clause for the main unknown (used later by post-filtering), or
//! ASK queries for Boolean questions.

use std::sync::Arc;

use kgqan_rdf::vocab;
use kgqan_sparql::ast::{GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};

use crate::agp::AnnotatedGraphPattern;

/// A fully instantiated basic graph pattern: one concrete triple per PGP
/// edge, plus its Equation-2 score.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicGraphPattern {
    /// The instantiated triple patterns.
    pub triples: Vec<TriplePatternAst>,
    /// The Equation-2 score (mean of vertex + predicate + vertex scores).
    pub score: f32,
}

/// A ranked candidate SPARQL query generated from a BGP.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateQuery {
    /// The query AST.  The Execute stage hands this to
    /// [`kgqan_endpoint::SparqlEndpoint::query_traced_within`] (with the
    /// pipeline's deadline) so in-process endpoints evaluate it directly on
    /// dictionary ids, and shares it with the candidate's
    /// [`crate::QueryStat`]: one refcount, no copy.
    pub query: Arc<Query>,
    /// The BGP the query was generated from.
    pub bgp: BasicGraphPattern,
    /// True if this is an ASK query (Boolean question).
    pub is_ask: bool,
}

impl CandidateQuery {
    /// The SPARQL text of the query — what a remote endpoint would receive.
    /// Rendered from the AST on every call; nothing on the serving path
    /// reads it.
    pub fn sparql(&self) -> String {
        self.query.to_sparql()
    }
}

/// Upper bound on the number of vertex/predicate combinations enumerated per
/// question, guarding against pathological AGPs.
const MAX_COMBINATIONS: usize = 2_000;

/// The SPARQL variable KGQAn binds the class of the main unknown to.
pub(crate) const TYPE_VARIABLE: &str = "type";

/// Generate the ranked top-k candidate queries for an AGP (Algorithm 3).
pub(crate) fn generate_candidate_queries(
    agp: &AnnotatedGraphPattern,
    max_queries: usize,
) -> Vec<CandidateQuery> {
    let bgps = enumerate_bgps(agp);
    let mut ranked = bgps;
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked.truncate(max_queries);
    let is_ask = agp.pgp.is_boolean();
    ranked
        .into_iter()
        .map(|bgp| CandidateQuery {
            query: Arc::new(bgp_to_query(&bgp, is_ask)),
            bgp,
            is_ask,
        })
        .collect()
}

/// Enumerate all valid BGPs of an AGP (`getBGPs` of Algorithm 3).
pub(crate) fn enumerate_bgps(agp: &AnnotatedGraphPattern) -> Vec<BasicGraphPattern> {
    if agp.pgp.is_empty() {
        return Vec::new();
    }
    // Per-edge options: each option fixes the predicate, its direction, the
    // anchor vertex and the term used for the opposite endpoint.
    struct EdgeOption {
        triple: TriplePatternAst,
        score_contribution: f32,
    }

    let mut per_edge: Vec<Vec<EdgeOption>> = Vec::with_capacity(agp.pgp.edges().len());

    for (edge_index, edge) in agp.pgp.edges().iter().enumerate() {
        let mut options = Vec::new();
        for rp in agp.predicates_of(edge_index) {
            // The opposite endpoint of the edge, relative to the anchor node.
            let other_node_id = if rp.anchor_node == edge.source {
                edge.target
            } else {
                edge.source
            };
            let other_node = &agp.pgp.nodes()[other_node_id];
            let anchor_score = agp
                .vertices_of(rp.anchor_node)
                .iter()
                .find(|rv| rv.vertex == rp.anchor_vertex)
                .map(|rv| rv.score)
                .unwrap_or(0.0);

            // Candidate terms for the opposite endpoint: the variable if it
            // is an unknown, otherwise each of its relevant vertices.
            let other_terms: Vec<(VarOrTerm, f32)> = if let Some(var) = other_node.variable_name() {
                vec![(VarOrTerm::Var(var), 0.0)]
            } else {
                agp.vertices_of(other_node_id)
                    .iter()
                    .map(|rv| (VarOrTerm::Term(rv.vertex.clone()), rv.score))
                    .collect()
            };

            for (other_term, other_score) in other_terms {
                let anchor_term = VarOrTerm::Term(rp.anchor_vertex.clone());
                // Definition 6.1: orientation follows flag o — if the anchor
                // vertex was the *object* of the probed triple, it stays the
                // object here.
                let (subject, object) = if rp.vertex_is_object {
                    (other_term.clone(), anchor_term)
                } else {
                    (anchor_term, other_term.clone())
                };
                options.push(EdgeOption {
                    triple: TriplePatternAst::new(
                        subject,
                        VarOrTerm::Term(rp.predicate.clone()),
                        object,
                    ),
                    score_contribution: anchor_score + rp.score + other_score,
                });
            }
        }
        if options.is_empty() {
            // An edge with no candidate predicates cannot produce any BGP.
            return Vec::new();
        }
        per_edge.push(options);
    }

    // Cartesian product across edges, bounded by MAX_COMBINATIONS.
    let mut bgps: Vec<BasicGraphPattern> = vec![BasicGraphPattern {
        triples: Vec::new(),
        score: 0.0,
    }];
    for options in &per_edge {
        let mut next = Vec::with_capacity(bgps.len() * options.len());
        'outer: for partial in &bgps {
            for option in options {
                let mut triples = partial.triples.clone();
                triples.push(option.triple.clone());
                next.push(BasicGraphPattern {
                    triples,
                    score: partial.score + option.score_contribution,
                });
                if next.len() >= MAX_COMBINATIONS {
                    break 'outer;
                }
            }
        }
        bgps = next;
    }
    // Equation 2: normalise by the number of triple patterns.
    let num_triples = agp.pgp.edges().len() as f32;
    for bgp in &mut bgps {
        bgp.score /= num_triples;
    }
    bgps
}

/// Convert a BGP into a SPARQL query AST.
///
/// For SELECT queries the main unknown and its optional `rdf:type` are
/// projected, exactly as in Figure 6.  Building the AST (rather than text)
/// lets the Execute stage skip the parse step entirely when the target
/// endpoint is in-process.
pub fn bgp_to_query(bgp: &BasicGraphPattern, is_ask: bool) -> Query {
    let body = GraphPattern::Bgp(bgp.triples.clone());
    if is_ask {
        return Query {
            form: QueryForm::Ask,
            pattern: body,
            limit: None,
            offset: None,
        };
    }
    let main_var = "unknown1";
    let type_clause = GraphPattern::Bgp(vec![TriplePatternAst::new(
        VarOrTerm::var(main_var),
        VarOrTerm::iri(vocab::RDF_TYPE),
        VarOrTerm::var(TYPE_VARIABLE),
    )]);
    Query {
        form: QueryForm::Select {
            variables: vec![main_var.to_string(), TYPE_VARIABLE.to_string()],
            distinct: true,
        },
        pattern: GraphPattern::Optional(Box::new(body), Box::new(type_clause)),
        limit: None,
        offset: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::{RelevantPredicate, RelevantVertex};
    use crate::pgp::PhraseGraphPattern;
    use kgqan_nlp::{PhraseNode, PhraseTriplePattern as Tp};
    use kgqan_rdf::Term;

    /// Build a hand-annotated AGP for the running example, mirroring the
    /// annotations shown in Figure 4.
    fn figure4_agp() -> AnnotatedGraphPattern {
        let pgp = PhraseGraphPattern::from_triples(&[
            Tp::unknown_to_entity("flow", "Danish Straits"),
            Tp::unknown_to_entity("city on shore", "Kaliningrad"),
        ]);
        let mut agp = AnnotatedGraphPattern::new(pgp);

        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let straits_node = agp
            .pgp
            .nodes()
            .iter()
            .find(|n| n.label == "Danish Straits")
            .unwrap()
            .id;
        let kali_node = agp
            .pgp
            .nodes()
            .iter()
            .find(|n| n.label == "Kaliningrad")
            .unwrap()
            .id;

        agp.node_annotations[straits_node] = vec![RelevantVertex {
            vertex: straits.clone(),
            description: "Danish straits".into(),
            score: 0.60,
        }];
        agp.node_annotations[kali_node] = vec![RelevantVertex {
            vertex: kali.clone(),
            description: "Kaliningrad".into(),
            score: 1.00,
        }];

        // Edge 0: "flow" → dbp:outflow, incoming at Danish_straits.
        agp.edge_annotations[0] = vec![RelevantPredicate {
            predicate: Term::iri("http://dbpedia.org/property/outflow"),
            description: "outflow".into(),
            score: 0.59,
            anchor_vertex: straits,
            anchor_node: straits_node,
            vertex_is_object: true,
        }];
        // Edge 1: "city on shore" → dbo:nearestCity (0.51) and dbp:cities (0.50),
        // both incoming at Kaliningrad.
        agp.edge_annotations[1] = vec![
            RelevantPredicate {
                predicate: Term::iri("http://dbpedia.org/ontology/nearestCity"),
                description: "nearest city".into(),
                score: 0.51,
                anchor_vertex: kali.clone(),
                anchor_node: kali_node,
                vertex_is_object: true,
            },
            RelevantPredicate {
                predicate: Term::iri("http://dbpedia.org/property/cities"),
                description: "cities".into(),
                score: 0.50,
                anchor_vertex: kali,
                anchor_node: kali_node,
                vertex_is_object: true,
            },
        ];
        agp
    }

    #[test]
    fn enumerates_all_combinations() {
        let agp = figure4_agp();
        let bgps = enumerate_bgps(&agp);
        // 1 option for edge 0 × 2 options for edge 1.
        assert_eq!(bgps.len(), 2);
        for bgp in &bgps {
            assert_eq!(bgp.triples.len(), 2);
        }
    }

    #[test]
    fn best_bgp_matches_figure1_query() {
        let agp = figure4_agp();
        let queries = generate_candidate_queries(&agp, 40);
        assert_eq!(queries.len(), 2);
        // The top query must use dbp:outflow and dbo:nearestCity with
        // ?unknown1 as subject (flag o = true ⇒ anchor stays object… here the
        // anchors are the *objects*, so the unknown is the subject).
        let top = &queries[0];
        let text = top.sparql();
        assert!(text.contains("<http://dbpedia.org/property/outflow>"));
        assert!(text.contains("<http://dbpedia.org/ontology/nearestCity>"));
        assert!(text.contains("?unknown1 <http://dbpedia.org/property/outflow> <http://dbpedia.org/resource/Danish_straits>"));
        assert!(text.contains("OPTIONAL"));
        assert!(text.contains(vocab::RDF_TYPE));
        assert!(!top.is_ask);
        // Ranking: nearestCity (0.51) beats cities (0.50).
        assert!(queries[0].bgp.score >= queries[1].bgp.score);
        assert!(queries[1].sparql().contains("cities"));
    }

    #[test]
    fn equation2_scores_are_mean_over_triples() {
        let agp = figure4_agp();
        let bgps = enumerate_bgps(&agp);
        let best = bgps
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        // ((0.60 + 0.59 + 0) + (1.00 + 0.51 + 0)) / 2 = 1.35
        assert!((best.score - 1.35).abs() < 1e-5);
    }

    #[test]
    fn max_queries_caps_output() {
        let agp = figure4_agp();
        let queries = generate_candidate_queries(&agp, 1);
        assert_eq!(queries.len(), 1);
    }

    #[test]
    fn boolean_pgp_generates_ask_query() {
        let pgp = PhraseGraphPattern::from_triples(&[Tp::new(
            PhraseNode::Phrase("Albert Einstein".into()),
            "work at",
            PhraseNode::Phrase("Princeton University".into()),
        )]);
        let mut agp = AnnotatedGraphPattern::new(pgp);
        let einstein = Term::iri("http://dbpedia.org/resource/Albert_Einstein");
        let princeton = Term::iri("http://dbpedia.org/resource/Princeton_University");
        agp.node_annotations[0] = vec![RelevantVertex {
            vertex: einstein.clone(),
            description: "Albert Einstein".into(),
            score: 1.0,
        }];
        agp.node_annotations[1] = vec![RelevantVertex {
            vertex: princeton.clone(),
            description: "Princeton University".into(),
            score: 1.0,
        }];
        agp.edge_annotations[0] = vec![RelevantPredicate {
            predicate: Term::iri("http://dbpedia.org/ontology/employer"),
            description: "employer".into(),
            score: 0.7,
            anchor_vertex: einstein,
            anchor_node: 0,
            vertex_is_object: false,
        }];
        let queries = generate_candidate_queries(&agp, 10);
        assert_eq!(queries.len(), 1);
        assert!(queries[0].is_ask);
        let text = queries[0].sparql();
        assert!(text.trim_start().starts_with("ASK"));
        assert!(text.contains("Princeton_University"));
    }

    #[test]
    fn edge_without_predicates_yields_no_queries() {
        let pgp =
            PhraseGraphPattern::from_triples(&[Tp::unknown_to_entity("flow", "Danish Straits")]);
        let agp = AnnotatedGraphPattern::new(pgp);
        assert!(enumerate_bgps(&agp).is_empty());
        assert!(generate_candidate_queries(&agp, 10).is_empty());
    }

    #[test]
    fn empty_agp_yields_no_queries() {
        let agp = AnnotatedGraphPattern::new(PhraseGraphPattern::from_triples(&[]));
        assert!(enumerate_bgps(&agp).is_empty());
    }
}
