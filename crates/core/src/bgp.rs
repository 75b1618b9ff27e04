//! Candidate query generation (Section 6, Algorithm 3).
//!
//! From the annotated graph pattern KGQAn enumerates the valid combinations
//! of relevant vertices and predicates (Definition 6.1), scores each
//! resulting basic graph pattern with Equation 2, ranks them, and converts
//! the top-k into SPARQL queries — SELECT queries with an OPTIONAL
//! `rdf:type` clause for the main unknown (used later by post-filtering), or
//! ASK queries for Boolean questions.
//!
//! Only the top-k are materialised.  Each edge's options (one triple
//! pattern and its score contribution apiece) are built once; the product
//! over edges is then enumerated as scores alone (in lexicographic order,
//! cut at `MAX_COMBINATIONS`) and ranked by a stable sort.  The
//! triples and the query of a combination are built only after it made the
//! top-k, so a question pays for `max_candidate_queries` BGPs, not for the
//! up to 2 000 the enumeration scores.  The `#[cfg(test)]` `oracle` module
//! keeps the materialise-everything version as the reference the ranking
//! is checked against.

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
    let per_edge = edge_options(agp);
    let mut ranked: Vec<(usize, f32)> = combination_scores(&per_edge)
        .into_iter()
        .enumerate()
        .collect();
    ranked.sort_by(|(_, a), (_, b)| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    ranked.truncate(max_queries);
    let is_ask = agp.pgp.is_boolean();
    ranked
        .into_iter()
        .map(|(index, score)| {
            let bgp = BasicGraphPattern {
                triples: combination(&per_edge, index)
                    .map(|option| option.triple.clone())
                    .collect(),
                score,
            };
            CandidateQuery {
                query: Arc::new(bgp_to_query(&bgp, is_ask)),
                bgp,
                is_ask,
            }
        })
        .collect()
}

/// One way to instantiate a PGP edge: the predicate, its direction, the
/// anchor vertex and the term used for the opposite endpoint.
struct EdgeOption {
    triple: TriplePatternAst,
    score_contribution: f32,
}

/// The options of every PGP edge, in edge order (`getBGPs` of Algorithm 3
/// before the product).  Empty when the PGP has no edge or some edge has no
/// option: such an AGP has no valid BGP.
fn edge_options(agp: &AnnotatedGraphPattern) -> Vec<Vec<EdgeOption>> {
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
                    (other_term, anchor_term)
                } else {
                    (anchor_term, other_term)
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
    per_edge
}

/// The Equation-2 score of every combination of one option per edge, in
/// lexicographic order (the first edge varies slowest), cut after
/// [`MAX_COMBINATIONS`].  A score is summed edge by edge from `0.0`, then
/// divided by the number of triple patterns.
fn combination_scores(per_edge: &[Vec<EdgeOption>]) -> Vec<f32> {
    if per_edge.is_empty() {
        return Vec::new();
    }
    let mut scores = vec![0.0_f32];
    for options in per_edge {
        let mut next = Vec::with_capacity((scores.len() * options.len()).min(MAX_COMBINATIONS));
        'outer: for partial in &scores {
            for option in options {
                next.push(partial + option.score_contribution);
                if next.len() >= MAX_COMBINATIONS {
                    break 'outer;
                }
            }
        }
        scores = next;
    }
    let num_triples = per_edge.len() as f32;
    for score in &mut scores {
        *score /= num_triples;
    }
    scores
}

/// The options of the combination at `index` in [`combination_scores`]'s
/// order, in edge order: `index` read as a mixed-radix number whose first
/// digit is the first edge's option.
fn combination(
    per_edge: &[Vec<EdgeOption>],
    mut index: usize,
) -> impl Iterator<Item = &EdgeOption> {
    let mut digits = vec![0; per_edge.len()];
    for (digit, options) in digits.iter_mut().zip(per_edge).rev() {
        *digit = index % options.len();
        index /= options.len();
    }
    per_edge
        .iter()
        .zip(digits)
        .map(|(options, digit)| &options[digit])
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

/// The ranking as first written, kept as the reference
/// [`generate_candidate_queries`] must reproduce to the bit: every
/// combination materialised as a BGP, each partial product's triples
/// cloned into the next, then all of them sorted and cut to the top-k.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Every valid BGP of an AGP, in enumeration order.
    pub(super) fn enumerate_bgps(agp: &AnnotatedGraphPattern) -> Vec<BasicGraphPattern> {
        let per_edge = edge_options(agp);
        if per_edge.is_empty() {
            return Vec::new();
        }
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
        let num_triples = agp.pgp.edges().len() as f32;
        for bgp in &mut bgps {
            bgp.score /= num_triples;
        }
        bgps
    }

    pub(super) fn generate_candidate_queries(
        agp: &AnnotatedGraphPattern,
        max_queries: usize,
    ) -> Vec<CandidateQuery> {
        let mut ranked = enumerate_bgps(agp);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agp::{RelevantPredicate, RelevantVertex};
    use crate::pgp::PhraseGraphPattern;
    use kgqan_nlp::{PhraseNode, PhraseTriplePattern as Tp};
    use kgqan_rdf::Term;
    use proptest::prelude::*;

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
        let queries = generate_candidate_queries(&agp, usize::MAX);
        // 1 option for edge 0 × 2 options for edge 1.
        assert_eq!(queries.len(), 2);
        for query in &queries {
            assert_eq!(query.bgp.triples.len(), 2);
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
        let best = &generate_candidate_queries(&agp, 1)[0].bgp;
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
        assert!(generate_candidate_queries(&agp, 10).is_empty());
    }

    #[test]
    fn empty_agp_yields_no_queries() {
        let agp = AnnotatedGraphPattern::new(PhraseGraphPattern::from_triples(&[]));
        assert!(generate_candidate_queries(&agp, 10).is_empty());
    }

    /// Scores drawn from a few values so that ties are everywhere: inside
    /// the top-k, at its edge and across the `MAX_COMBINATIONS` cut.  The
    /// thirds and tenths are not exact in `f32`, so a different summation
    /// order would show in the bits.
    const SCORES: [f32; 7] = [0.0, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.7, -0.2];

    /// Node slots: two unknowns, then three entity phrases.
    fn slot_node(slot: usize) -> PhraseNode {
        match slot {
            0 | 1 => PhraseNode::Unknown(slot as u32 + 1),
            _ => PhraseNode::Phrase(["A", "B", "C"][slot - 2].to_string()),
        }
    }

    /// A predicate annotation: score, anchor at the edge's second node,
    /// anchor vertex pick, flag o, predicate id.
    type PredicateSpec = (usize, bool, usize, bool, usize);

    /// An AGP of 1–3 edges over the node slots, up to six vertices per
    /// entity node and up to twenty predicates per edge (few distinct
    /// predicate IRIs, so equal triples recur too).
    fn random_agp(
        edges: &[(usize, usize)],
        vertex_scores: &[Vec<usize>],
        predicates: &[Vec<PredicateSpec>],
    ) -> AnnotatedGraphPattern {
        let triples: Vec<Tp> = edges
            .iter()
            .map(|&(s, o)| {
                let o = if o == s { (o + 1) % 5 } else { o };
                Tp::new(slot_node(s), "relation", slot_node(o))
            })
            .collect();
        let mut agp = AnnotatedGraphPattern::new(PhraseGraphPattern::from_triples(&triples));
        for (node, annotations) in agp.node_annotations.iter_mut().enumerate() {
            if agp.pgp.nodes()[node].is_unknown() {
                continue;
            }
            *annotations = vertex_scores[node]
                .iter()
                .enumerate()
                .map(|(i, &score)| RelevantVertex {
                    vertex: Term::iri(format!("http://e/entity/{node}/{i}")),
                    description: String::new(),
                    score: SCORES[score],
                })
                .collect();
        }
        for (index, edge) in agp.pgp.edges().to_vec().into_iter().enumerate() {
            agp.edge_annotations[index] = predicates[index]
                .iter()
                .map(|&(score, at_target, pick, is_object, predicate)| {
                    let anchor_node = if at_target { edge.target } else { edge.source };
                    let anchor_vertex = match agp.vertices_of(anchor_node) {
                        [] => Term::iri("http://e/unlinked"),
                        vertices => vertices[pick % vertices.len()].vertex.clone(),
                    };
                    RelevantPredicate {
                        predicate: Term::iri(format!("http://e/p{predicate}")),
                        description: String::new(),
                        score: SCORES[score],
                        anchor_vertex,
                        anchor_node,
                        vertex_is_object: is_object,
                    }
                })
                .collect();
        }
        agp
    }

    proptest::proptest! {
        #[test]
        fn top_k_ranking_equals_the_materialise_all_oracle(
            edges in prop::collection::vec((0usize..5, 0usize..5), 1..4),
            vertex_scores in prop::collection::vec(prop::collection::vec(0usize..7, 1..7), 5..6),
            predicates in prop::collection::vec(
                prop::collection::vec((0usize..7, any::<bool>(), 0usize..8, any::<bool>(), 0usize..6), 1..21),
                3..4,
            ),
            k in prop_oneof![0usize..3, 0usize..60, 0usize..2_100],
        ) {
            let agp = random_agp(&edges, &vertex_scores, &predicates);
            let fast = generate_candidate_queries(&agp, k);
            let reference = oracle::generate_candidate_queries(&agp, k);
            prop_assert_eq!(fast.len(), reference.len());
            for (rank, (got, want)) in fast.iter().zip(&reference).enumerate() {
                prop_assert!(
                    got.bgp.score.to_bits() == want.bgp.score.to_bits(),
                    "rank {rank}: score {} vs {}",
                    got.bgp.score,
                    want.bgp.score
                );
                prop_assert_eq!(&got.bgp.triples, &want.bgp.triples);
                prop_assert_eq!(&got.query, &want.query);
                prop_assert_eq!(got.is_ask, want.is_ask);
            }
        }
    }
}
