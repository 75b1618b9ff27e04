//! Phase 2: just-in-time entity and relation linking (Section 5).
//!
//! The linker talks to the target KG **only** through its public SPARQL
//! endpoint API and built-in text index — no pre-processing, no per-KG
//! indices — which is what makes KGQAn applicable to arbitrary endpoints.
//!
//! * `JitLinker::link_entities` implements Algorithm 1: for every PGP
//!   entity node it issues the `potentialRelevantVertices` query and keeps
//!   the `k` vertices with the highest semantic affinity.
//! * `JitLinker::link_relations` implements Algorithm 2: for every PGP
//!   edge it probes the predicates incident to the already-linked vertices
//!   (`outgoingPredicate` / `incomingPredicate`), resolves descriptions for
//!   non-human-readable predicate URIs, and keeps the top-k by affinity.
//!
//! # A vertex probe is ranked once
//!
//! Ranking a vertex probe scores the node label against every description
//! it fetched (up to maxVR = 400), and the endpoint cache hands the same
//! probe table to every question whose node has the same content words.
//! So the linker keeps its decision on the table
//! ([`ResultSet::attach`]): the top-`k` vertices, keyed by the linker's
//! identity, `k` and the exact node label — everything the ranking depends
//! on besides the rows.  A later node that finds a ranking under its own
//! key copies the `k` vertices out and scores nothing; any other key ranks
//! as usual and leaves the first ranking in place.  The identity is a
//! process-unique number drawn when a [`JitLinkStage`] (or a bare
//! [`JitLinker`]) is built, and it stands for the affinity model the stage
//! holds.  The memo needs no bound and no invalidation: it is `k` vertices
//! on a table the cache already bounds, it goes when the cache drops the
//! table, and an ingest that could change the probe's rows evicts the
//! table and its ranking together.  A probe answered by an uncached
//! endpoint is a fresh table, so its ranking is simply dropped with it.
//! Relation linking scores batches built per edge, and keeps no memo.
//!
//! [`JitLinkStage`]: crate::pipeline::JitLinkStage

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use kgqan_endpoint::{EngineDialect, SparqlEndpoint};
use kgqan_nlp::tokenizer::content_words;
use kgqan_rdf::{vocab, Term};
use kgqan_sparql::ast::{GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use kgqan_sparql::{QueryResults, ResultSet};

use crate::affinity::SemanticAffinity;
use crate::agp::{AnnotatedGraphPattern, RelevantPredicate, RelevantVertex};
use crate::config::{Budget, LinkerConfig};
use crate::error::KgqanError;
use crate::pgp::PhraseGraphPattern;

/// The result of budget-aware linking: the annotated graph pattern plus a
/// flag saying whether every node and edge was actually probed, or the
/// request's deadline cut the annotation pass short.
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// The (possibly partially) annotated graph pattern.
    pub agp: AnnotatedGraphPattern,
    /// True if every node and edge was probed within the budget.
    pub completed: bool,
}

/// Entity linking's decision on one vertex probe, attached to the probe's
/// table under the key it was made with (see the module docs).
struct RankedProbe {
    linker: u64,
    num_vertices: usize,
    label: String,
    vertices: Vec<RelevantVertex>,
}

/// The source of linker identities: never reused within a process.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(0);

/// A fresh linker identity.
pub(crate) fn fresh_identity() -> u64 {
    NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed)
}

/// One predicate candidate of an edge while it is being ranked: a row of a
/// probe result (by position, the rows stay in the shared table) and the
/// description it is scored by.
struct PredicateCandidate {
    probe: usize,
    row: usize,
    description: String,
    /// Position in the edge's anchor-vertex list.
    anchor: usize,
    vertex_is_object: bool,
}

/// The just-in-time linker.
pub struct JitLinker<'a> {
    affinity: &'a dyn SemanticAffinity,
    config: LinkerConfig,
    /// Whose vertex rankings this linker may reuse (see the module docs).
    identity: u64,
}

impl<'a> JitLinker<'a> {
    /// Create a linker using the given affinity model and configuration.
    /// It reuses only the vertex rankings it made itself.
    pub fn new(affinity: &'a dyn SemanticAffinity, config: LinkerConfig) -> Self {
        Self::with_identity(affinity, config, fresh_identity())
    }

    /// A linker that shares its vertex rankings with every other linker of
    /// the same `identity`, which must stand for the same affinity model.
    pub(crate) fn with_identity(
        affinity: &'a dyn SemanticAffinity,
        config: LinkerConfig,
        identity: u64,
    ) -> Self {
        JitLinker {
            affinity,
            config,
            identity,
        }
    }

    /// The linker configuration.
    pub fn config(&self) -> LinkerConfig {
        self.config
    }

    /// Run both linking algorithms within a time budget.
    ///
    /// The budget is checked between endpoint probes: once it expires the
    /// remaining nodes/edges keep their (empty) annotations and the outcome
    /// is flagged incomplete, so a slow KG yields a partial AGP instead of
    /// an unbounded linking phase.
    pub fn link(
        &self,
        pgp: &PhraseGraphPattern,
        endpoint: &dyn SparqlEndpoint,
        budget: &Budget,
    ) -> Result<LinkOutcome, KgqanError> {
        let mut agp = AnnotatedGraphPattern::new(pgp.clone());
        let entities_done = self.link_entities(&mut agp, endpoint, budget)?;
        let relations_done = self.link_relations(&mut agp, endpoint, budget)?;
        Ok(LinkOutcome {
            agp,
            completed: entities_done && relations_done,
        })
    }

    /// Algorithm 1 — KGQAnEntityLink, applied to every PGP node.  Returns
    /// `false` if the budget expired before every node was probed.
    pub(crate) fn link_entities(
        &self,
        agp: &mut AnnotatedGraphPattern,
        endpoint: &dyn SparqlEndpoint,
        budget: &Budget,
    ) -> Result<bool, KgqanError> {
        for node in agp.pgp.nodes().to_vec() {
            if node.is_unknown() {
                continue; // line 1-3: unknowns get no relevant vertices here
            }
            if budget.expired() {
                return Ok(false);
            }
            let words = content_words(&node.label);
            if words.is_empty() {
                continue;
            }
            let QueryResults::Solutions(fetched) =
                self.potential_relevant_vertices(&words, endpoint)?
            else {
                continue;
            };
            agp.node_annotations[node.id] = self.relevant_vertices(&node.label, &fetched);
        }
        Ok(true)
    }

    /// The `num_vertices` best vertices of a vertex probe for a node
    /// `label`: the ranking attached to the probe's table under this
    /// linker's key, or a fresh one that is then attached for the next
    /// reader (see the module docs).
    fn relevant_vertices(&self, label: &str, fetched: &ResultSet) -> Vec<RelevantVertex> {
        let k = self.config.num_vertices;
        let memo = fetched
            .attached()
            .and_then(|memo| memo.downcast_ref::<RankedProbe>())
            .filter(|memo| {
                memo.linker == self.identity && memo.num_vertices == k && memo.label == label
            });
        if let Some(memo) = memo {
            return memo.vertices.clone();
        }
        let (Some(v), Some(d)) = (fetched.column_index("v"), fetched.column_index("d")) else {
            return Vec::new();
        };
        // The probe's rows are shared with the endpoint cache, so the
        // ≤ maxVR candidates are scored and ranked where they sit; only
        // the `num_vertices` winners are copied out.
        let candidates: Vec<(&Term, Cow<'_, str>)> = fetched
            .rows()
            .filter_map(|row| {
                let (v, d) = (row.cell(v)?, row.cell(d)?);
                v.is_iri().then(|| (v, d.readable_form()))
            })
            .collect();
        let descriptions: Vec<&str> = candidates.iter().map(|(_, d)| d.as_ref()).collect();
        let scores = self.affinity.score_many(label, &descriptions);
        let mut ranked: Vec<usize> = (0..candidates.len()).collect();
        ranked.sort_by(|&a, &b| descending(scores[a], scores[b]));
        let vertices = best_per_vertex(
            ranked
                .into_iter()
                .map(|i| (candidates[i].0, descriptions[i], scores[i])),
            k,
        );
        fetched.attach(RankedProbe {
            linker: self.identity,
            num_vertices: k,
            label: label.to_string(),
            vertices: vertices.clone(),
        });
        vertices
    }

    /// The `potentialRelevantVertices(l_n, maxVR)` query of §5.1, phrased
    /// in the dialect of the target endpoint: `(?v, ?d)` rows.
    fn potential_relevant_vertices(
        &self,
        words: &[String],
        endpoint: &dyn SparqlEndpoint,
    ) -> Result<QueryResults, KgqanError> {
        let query = potential_relevant_vertices_query(
            endpoint.dialect(),
            words,
            self.config.max_fetched_vertices,
        );
        Ok(endpoint.query_parsed(&query)?)
    }

    /// Algorithm 2 — KGQAnRelationLink, applied to every PGP edge.  Returns
    /// `false` if the budget expired before every edge was probed.  An edge
    /// whose probes were cut mid-way still keeps the candidates scored so
    /// far (best-effort annotation).
    pub(crate) fn link_relations(
        &self,
        agp: &mut AnnotatedGraphPattern,
        endpoint: &dyn SparqlEndpoint,
        budget: &Budget,
    ) -> Result<bool, KgqanError> {
        let mut completed = true;
        let edges = agp.pgp.edges().to_vec();
        for (edge_index, edge) in edges.iter().enumerate() {
            if budget.expired() {
                return Ok(false);
            }
            // Line 2: union of the relevant vertices of both endpoints,
            // remembering which node each vertex annotates.
            let mut anchor_vertices: Vec<(usize, Term)> = Vec::new();
            for node_id in [edge.source, edge.target] {
                for rv in &agp.node_annotations[node_id] {
                    if !anchor_vertices.iter().any(|(_, v)| v == &rv.vertex) {
                        anchor_vertices.push((node_id, rv.vertex.clone()));
                    }
                }
            }

            // A candidate is a row of a shared probe result plus where it
            // came from; the predicate and anchor terms are copied only for
            // the `num_predicates` that survive the ranking.
            let mut probes: Vec<(ResultSet, usize)> = Vec::new();
            let mut candidates: Vec<PredicateCandidate> = Vec::new();
            for (anchor, (_, vertex)) in anchor_vertices.iter().enumerate() {
                if budget.expired() {
                    completed = false;
                    break;
                }
                // Lines 4-7: outgoing and incoming predicate probes, built
                // as ASTs and handed over parsed — like the generated
                // candidate queries, they never round-trip through SPARQL
                // text on in-process endpoints.
                for (vertex_is_object, query) in [
                    (false, outgoing_predicate_query(vertex)),
                    (true, incoming_predicate_query(vertex)),
                ] {
                    let QueryResults::Solutions(results) = endpoint.query_parsed(&query)? else {
                        continue;
                    };
                    let Some(column) = results.column_index("p") else {
                        continue;
                    };
                    for (position, row) in results.rows().enumerate() {
                        let Some(p) = row.cell(column) else { continue };
                        if !p.is_iri() {
                            continue;
                        }
                        // Lines 10-12: resolve a description for opaque URIs.
                        let description = if p.is_human_readable() {
                            p.readable_form().into_owned()
                        } else {
                            self.predicate_description(p, endpoint)?
                                .unwrap_or_else(|| p.readable_form().into_owned())
                        };
                        candidates.push(PredicateCandidate {
                            probe: probes.len(),
                            row: position,
                            description,
                            anchor,
                            vertex_is_object,
                        });
                    }
                    probes.push((results, column));
                }
            }
            let predicate_of = |c: &PredicateCandidate| {
                let (results, column) = &probes[c.probe];
                let row = results.rows().nth(c.row);
                row.and_then(|row| row.cell(*column))
                    .expect("candidates are made from rows that bind ?p")
            };

            // The whole edge is scored in one batch.
            let descriptions: Vec<&str> =
                candidates.iter().map(|c| c.description.as_str()).collect();
            let scores = self.affinity.score_many(&edge.relation, &descriptions);

            // Line 15: keep the top-k by affinity.  Deduplicate on
            // (predicate, anchor, direction) first so one predicate does not
            // crowd out the rest.  Anchor vertices are distinct, so equal
            // anchors are equal positions.
            let mut ranked: Vec<usize> = (0..candidates.len()).collect();
            ranked.sort_by(|&a, &b| descending(scores[a], scores[b]));
            ranked.dedup_by(|a, b| {
                let (a, b) = (&candidates[*a], &candidates[*b]);
                a.anchor == b.anchor
                    && a.vertex_is_object == b.vertex_is_object
                    && predicate_of(a) == predicate_of(b)
            });
            ranked.truncate(self.config.num_predicates);
            let kept = ranked.into_iter().map(|i| {
                let candidate = &candidates[i];
                let (anchor_node, anchor_vertex) = &anchor_vertices[candidate.anchor];
                RelevantPredicate {
                    predicate: predicate_of(candidate).clone(),
                    description: candidate.description.clone(),
                    score: scores[i],
                    anchor_vertex: anchor_vertex.clone(),
                    anchor_node: *anchor_node,
                    vertex_is_object: candidate.vertex_is_object,
                }
            });
            agp.edge_annotations[edge_index] = kept.collect();
        }
        Ok(completed)
    }

    /// Fetch the description of a predicate whose URI is an opaque
    /// identifier (e.g. `wdg:P227`), by asking the KG for a string literal
    /// attached to the predicate itself.
    fn predicate_description(
        &self,
        predicate: &Term,
        endpoint: &dyn SparqlEndpoint,
    ) -> Result<Option<String>, KgqanError> {
        if predicate.as_iri().is_none() {
            return Ok(None);
        }
        // Prefer rdfs:label, fall back to any literal.  Both lookups are
        // built as ASTs and issued through the parsed path, like every
        // other probe.
        let labelled = description_query(predicate, VarOrTerm::iri(vocab::RDFS_LABEL), 1);
        let results = endpoint.query_parsed(&labelled)?;
        if let Some(first) = results.rows().first() {
            if let Some(Term::Literal(lit)) = first.get("d") {
                return Ok(Some(lit.lexical.clone()));
            }
        }
        let any = description_query(predicate, VarOrTerm::var("p"), 5);
        let results = endpoint.query_parsed(&any)?;
        for row in results.rows() {
            if let Some(Term::Literal(lit)) = row.get("d") {
                if lit.is_string() {
                    return Ok(Some(lit.lexical.clone()));
                }
            }
        }
        Ok(None)
    }
}

/// The ranking both linking algorithms sort by: higher affinity first.
/// Used with the stable `sort_by`, so equal scores keep their fetch order.
fn descending(a: f32, b: f32) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal)
}

/// The first `k` distinct vertices of `(vertex, description, score)`
/// candidates ranked by descending score: a vertex fetched under several
/// descriptions (label and alternative label) keeps its best-scoring entry
/// and takes one slot, wherever its other entries landed in the order.
/// Only the kept candidates are copied.
fn best_per_vertex<'a>(
    ranked: impl Iterator<Item = (&'a Term, &'a str, f32)>,
    k: usize,
) -> Vec<RelevantVertex> {
    let mut kept: Vec<RelevantVertex> = Vec::new();
    for (vertex, description, score) in ranked {
        if kept.len() == k {
            break;
        }
        if !kept.iter().any(|best| &best.vertex == vertex) {
            kept.push(RelevantVertex {
                vertex: vertex.clone(),
                description: description.to_string(),
                score,
            });
        }
    }
    kept
}

/// `SELECT [DISTINCT] ?variables WHERE { bgp } [LIMIT n]`: the shape of
/// every linking probe.  Probes are built as ASTs and ride the parsed path
/// (and cache) like the generated candidate queries; a remote endpoint
/// receives [`Query::to_sparql`], which re-parses to the same query.
fn select(
    variables: &[&str],
    distinct: bool,
    bgp: Vec<TriplePatternAst>,
    limit: Option<usize>,
) -> Query {
    Query {
        form: QueryForm::Select {
            variables: variables.iter().map(|v| v.to_string()).collect(),
            distinct,
        },
        pattern: GraphPattern::Bgp(bgp),
        limit,
        offset: None,
    }
}

/// The `potentialRelevantVertices(l_n, maxVR)` query of §5.1:
/// `SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <text> "words" . } LIMIT
/// maxVR`, with the dialect's full-text predicate and containment
/// expression (double quotes stripped from the words).
fn potential_relevant_vertices_query(
    dialect: EngineDialect,
    words: &[String],
    limit: usize,
) -> Query {
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    let expression = dialect.containment_expression(&words).replace('"', "");
    let (v, d) = (VarOrTerm::var("v"), VarOrTerm::var("d"));
    let text = VarOrTerm::iri(dialect.text_search_predicate());
    let search = VarOrTerm::term(Term::literal_str(expression));
    let bgp = vec![
        TriplePatternAst::new(v, VarOrTerm::var("p"), d.clone()),
        TriplePatternAst::new(d, text, search),
    ];
    select(&["v", "d"], true, bgp, Some(limit))
}

/// The `outgoingPredicate(v)` query of §5.2: `SELECT DISTINCT ?p WHERE {
/// <v> ?p ?obj }`.
pub(crate) fn outgoing_predicate_query(vertex: &Term) -> Query {
    let (vertex, p) = (VarOrTerm::term(vertex.clone()), VarOrTerm::var("p"));
    let pattern = TriplePatternAst::new(vertex, p, VarOrTerm::var("obj"));
    select(&["p"], true, vec![pattern], None)
}

/// The `incomingPredicate(v)` query of §5.2: `SELECT DISTINCT ?p WHERE {
/// ?sub ?p <v> }`.
pub(crate) fn incoming_predicate_query(vertex: &Term) -> Query {
    let (vertex, p) = (VarOrTerm::term(vertex.clone()), VarOrTerm::var("p"));
    let pattern = TriplePatternAst::new(VarOrTerm::var("sub"), p, vertex);
    select(&["p"], true, vec![pattern], None)
}

/// A `SELECT ?d WHERE { <predicate> <via> ?d } LIMIT n` description lookup.
fn description_query(predicate: &Term, via: VarOrTerm, limit: usize) -> Query {
    let pattern =
        TriplePatternAst::new(VarOrTerm::term(predicate.clone()), via, VarOrTerm::var("d"));
    select(&["d"], false, vec![pattern], Some(limit))
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::affinity::FineGrainedAffinity;
    use crate::pgp::PgpNode;
    use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_nlp::PhraseTriplePattern as Tp;
    use kgqan_rdf::{IngestBatch, Store, Triple};
    use proptest::prelude::*;

    /// The running-example DBpedia fragment of Figure 4.
    fn dbpedia_fragment() -> InProcessEndpoint {
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let straits2 = Term::iri("http://dbpedia.org/resource/Danish_Straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");

        store.insert_all([
            Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
            Triple::new(
                straits.clone(),
                label.clone(),
                Term::literal_str("Danish straits"),
            ),
            Triple::new(
                straits2.clone(),
                label.clone(),
                Term::literal_str("Danish Straits"),
            ),
            Triple::new(
                kali.clone(),
                label.clone(),
                Term::literal_str("Kaliningrad"),
            ),
            Triple::new(
                yantar.clone(),
                label.clone(),
                Term::literal_str("Yantar, Kaliningrad"),
            ),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/property/outflow"),
                straits.clone(),
            ),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/ontology/nearestCity"),
                kali.clone(),
            ),
            Triple::new(
                Term::iri("http://dbpedia.org/resource/Poland"),
                Term::iri("http://dbpedia.org/property/cities"),
                kali.clone(),
            ),
            Triple::new(
                sea.clone(),
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://dbpedia.org/ontology/Sea"),
            ),
        ]);
        InProcessEndpoint::new("DBpedia", store)
    }

    fn running_example_pgp() -> PhraseGraphPattern {
        PhraseGraphPattern::from_triples(&[
            Tp::unknown_to_entity("flow", "Danish Straits"),
            Tp::unknown_to_entity("city on the shore", "Kaliningrad"),
        ])
    }

    #[test]
    fn entity_linking_finds_figure4_vertices() {
        let endpoint = dbpedia_fragment();
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(
            &affinity,
            LinkerConfig {
                num_vertices: 2,
                ..Default::default()
            },
        );
        let mut agp = AnnotatedGraphPattern::new(running_example_pgp());
        linker
            .link_entities(&mut agp, &endpoint, &Budget::unbounded())
            .unwrap();

        // "Danish Straits" node should be annotated with a Danish straits vertex.
        let straits_node = agp
            .pgp
            .nodes()
            .iter()
            .find(|n| n.label == "Danish Straits")
            .unwrap();
        let vertices = agp.vertices_of(straits_node.id);
        assert!(!vertices.is_empty());
        assert!(vertices[0].vertex.as_iri().unwrap().contains("Danish"));

        // "Kaliningrad" must rank dbv:Kaliningrad above dbv:Yantar,_Kaliningrad
        // (Figure 4: scores 1.00 vs 0.83).
        let kali_node = agp
            .pgp
            .nodes()
            .iter()
            .find(|n| n.label == "Kaliningrad")
            .unwrap();
        let vertices = agp.vertices_of(kali_node.id);
        assert_eq!(vertices.len(), 2);
        assert_eq!(
            vertices[0].vertex.as_iri().unwrap(),
            "http://dbpedia.org/resource/Kaliningrad"
        );
        assert!(vertices[0].score > vertices[1].score);

        // The unknown node has no relevant vertices (Algorithm 1, lines 1-3).
        let unknown = agp.pgp.main_unknown().unwrap();
        assert!(agp.vertices_of(unknown.id).is_empty());
    }

    #[test]
    fn a_vertex_fetched_under_two_descriptions_takes_one_slot() {
        // `straits` is fetched under its label and a longer alternative
        // label; `sound` scores between the two, so the duplicate is not
        // adjacent after the sort.
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let alt_label = Term::iri("http://www.w3.org/2004/02/skos/core#altLabel");
        let straits = Term::iri("http://e/straits");
        let sound = Term::iri("http://e/sound");
        let lanes = Term::iri("http://e/lanes");
        store.insert_all([
            Triple::new(
                straits.clone(),
                label.clone(),
                Term::literal_str("Danish straits"),
            ),
            Triple::new(
                straits.clone(),
                alt_label,
                Term::literal_str("Danish straits sea channels"),
            ),
            Triple::new(
                sound.clone(),
                label.clone(),
                Term::literal_str("Danish straits sound"),
            ),
            Triple::new(
                lanes.clone(),
                label,
                Term::literal_str("Danish straits old shipping lanes route"),
            ),
        ]);
        let endpoint = InProcessEndpoint::new("Straits", store);
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(
            &affinity,
            LinkerConfig {
                num_vertices: 3,
                ..Default::default()
            },
        );
        let mut agp =
            AnnotatedGraphPattern::new(PhraseGraphPattern::from_triples(&[Tp::unknown_to_entity(
                "flow",
                "Danish Straits",
            )]));
        linker
            .link_entities(&mut agp, &endpoint, &Budget::unbounded())
            .unwrap();

        let node = agp.pgp.nodes().iter().find(|n| !n.is_unknown()).unwrap();
        let linked = agp.vertices_of(node.id);
        let vertices: Vec<&Term> = linked.iter().map(|rv| &rv.vertex).collect();
        assert_eq!(vertices, [&straits, &sound, &lanes]);
        assert_eq!(linked[0].description, "Danish straits");
    }

    #[test]
    fn relation_linking_finds_outflow_and_nearest_city() {
        let endpoint = dbpedia_fragment();
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(&affinity, LinkerConfig::default());
        let agp = linker
            .link(&running_example_pgp(), &endpoint, &Budget::unbounded())
            .unwrap()
            .agp;
        assert!(agp.is_fully_annotated());

        // Edge "flow" should include dbp:outflow among its top candidates.
        let flow_edge = agp
            .pgp
            .edges()
            .iter()
            .position(|e| e.relation == "flow")
            .unwrap();
        let preds: Vec<&str> = agp
            .predicates_of(flow_edge)
            .iter()
            .filter_map(|p| p.predicate.as_iri())
            .collect();
        assert!(
            preds.contains(&"http://dbpedia.org/property/outflow"),
            "outflow not among candidates: {preds:?}"
        );

        // Edge "city on the shore" should rank dbo:nearestCity highly.
        let shore_edge = agp
            .pgp
            .edges()
            .iter()
            .position(|e| e.relation == "city on the shore")
            .unwrap();
        let shore_preds = agp.predicates_of(shore_edge);
        assert!(!shore_preds.is_empty());
        let best = &shore_preds[0];
        assert!(
            best.predicate.as_iri().unwrap().contains("nearestCity")
                || best.predicate.as_iri().unwrap().contains("cities"),
            "unexpected top predicate {:?}",
            best.predicate
        );
    }

    #[test]
    fn relation_linking_records_direction_flag() {
        let endpoint = dbpedia_fragment();
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(&affinity, LinkerConfig::default());
        let agp = linker
            .link(&running_example_pgp(), &endpoint, &Budget::unbounded())
            .unwrap()
            .agp;
        // dbp:outflow connects Baltic_Sea → Danish_straits, so from the
        // anchor (Danish_straits) it is an *incoming* predicate: the flag
        // must be true.
        let flow_edge = agp
            .pgp
            .edges()
            .iter()
            .position(|e| e.relation == "flow")
            .unwrap();
        let outflow = agp
            .predicates_of(flow_edge)
            .iter()
            .find(|p| p.predicate.as_iri() == Some("http://dbpedia.org/property/outflow"))
            .unwrap();
        assert!(outflow.vertex_is_object);
    }

    #[test]
    fn linking_against_empty_endpoint_yields_unannotated_agp() {
        let endpoint = InProcessEndpoint::new("Empty", Store::new());
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(&affinity, LinkerConfig::default());
        let agp = linker
            .link(&running_example_pgp(), &endpoint, &Budget::unbounded())
            .unwrap()
            .agp;
        assert!(!agp.is_fully_annotated());
        assert_eq!(agp.total_vertex_candidates(), 0);
    }

    #[test]
    fn predicate_probe_queries_are_constructed_asts() {
        let v = Term::iri("http://e/v");
        let outgoing = outgoing_predicate_query(&v);
        let incoming = incoming_predicate_query(&v);

        for (query, vertex_position) in [(&outgoing, 0usize), (&incoming, 2usize)] {
            assert!(!query.is_ask());
            assert_eq!(query.projected_variables(), vec!["p".to_string()]);
            let QueryForm::Select { distinct, .. } = &query.form else {
                panic!("probe must be a SELECT");
            };
            assert!(distinct);
            let tps = query.pattern.all_triple_patterns();
            assert_eq!(tps.len(), 1);
            let positions = [&tps[0].subject, &tps[0].predicate, &tps[0].object];
            assert_eq!(positions[vertex_position].as_term(), Some(&v));
            assert_eq!(positions[1].as_var(), Some("p"));
        }

        // The AST serializes to the classic probe text and round-trips.
        let rendered = outgoing.to_sparql();
        assert!(rendered.contains("SELECT DISTINCT ?p"));
        assert!(rendered.contains("<http://e/v> ?p ?obj ."));
        assert_eq!(
            kgqan_sparql::parse_query(&rendered).expect("probe text re-parses"),
            outgoing
        );
        assert!(incoming.to_sparql().contains("?sub ?p <http://e/v> ."));
    }

    #[test]
    fn vertex_probe_ast_is_the_formatted_text_in_every_dialect() {
        let words = ["danish", "o'brien", "quo\"te"];
        let owned: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        for dialect in [
            EngineDialect::Virtuoso,
            EngineDialect::Stardog,
            EngineDialect::Jena,
        ] {
            let query = potential_relevant_vertices_query(dialect, &owned, 400);
            // The SPARQL text the linker used to format...
            let formatted = format!(
                "SELECT DISTINCT ?v ?d WHERE {{ ?v ?p ?d . ?d <{}> \"{}\" . }} LIMIT 400",
                dialect.text_search_predicate(),
                dialect.containment_expression(&words).replace('"', ""),
            );
            let parse = |text: &str| kgqan_sparql::parse_query(text).expect("probe text parses");
            assert_eq!(parse(&formatted), query, "{dialect:?}");
            // ...and the text a remote endpoint now receives are this query.
            assert_eq!(parse(&query.to_sparql()), query, "{dialect:?}");
            assert!(query.has_text_search());
        }
    }

    /// The vertices `linker` links the one entity node `label` to.
    fn linked_vertices(
        linker: &JitLinker<'_>,
        label: &str,
        endpoint: &dyn SparqlEndpoint,
    ) -> Vec<RelevantVertex> {
        let pgp = PhraseGraphPattern::from_triples(&[Tp::unknown_to_entity("flow", label)]);
        let mut agp = AnnotatedGraphPattern::new(pgp);
        linker
            .link_entities(&mut agp, endpoint, &Budget::unbounded())
            .unwrap();
        let node = agp.pgp.nodes().iter().find(|n| !n.is_unknown()).unwrap();
        agp.vertices_of(node.id).to_vec()
    }

    /// The ranking attached to a probe table, if it is a linker's.
    fn ranking_on(table: &QueryResults) -> Option<&RankedProbe> {
        table.as_solutions()?.attached()?.downcast_ref()
    }

    #[test]
    fn three_spellings_share_one_probe_and_each_links_as_without_a_cache() {
        let engine = Arc::new(dbpedia_fragment());
        let cached =
            CachingEndpoint::new(engine.clone(), QueryCache::shared(CacheConfig::default()));
        let affinity = FineGrainedAffinity::new();
        let config = LinkerConfig {
            num_vertices: 2,
            ..Default::default()
        };
        let linker = JitLinker::new(&affinity, config);
        let labels = ["Danish Straits", "danish straits", "the Danish Straits"];
        for round in 0..2 {
            for label in labels {
                let alone = linked_vertices(&linker, label, engine.as_ref());
                assert_eq!(alone.len(), 2, "{label}");
                let through_cache = linked_vertices(&linker, label, &cached);
                assert_eq!(through_cache, alone, "{label:?}, round {round}");
            }
        }
        // One probe served all six nodes; the first label's ranking stayed.
        let stats = cached.cache().stats();
        assert_eq!((stats.misses, stats.hits), (1, 5));
        let words = content_words("the Danish Straits");
        let probe = potential_relevant_vertices_query(engine.dialect(), &words, 400);
        let table = cached.query_parsed(&probe).unwrap();
        let ranking = ranking_on(&table).expect("the probe carries a ranking");
        assert_eq!(ranking.label, "Danish Straits");
        assert_eq!(ranking.num_vertices, 2);
        assert_eq!(ranking.linker, linker.identity);
        // An uncached endpoint's table is fresh on every call.
        assert!(ranking_on(&engine.query_parsed(&probe).unwrap()).is_none());
    }

    #[test]
    fn another_linker_or_width_ranks_for_itself_and_leaves_the_first_ranking() {
        let engine = Arc::new(dbpedia_fragment());
        let cached =
            CachingEndpoint::new(engine.clone(), QueryCache::shared(CacheConfig::default()));
        let affinity = Counting::default();
        let width = |num_vertices| LinkerConfig {
            num_vertices,
            ..Default::default()
        };
        let first = JitLinker::new(&affinity, width(1));
        let wider = JitLinker::with_identity(&affinity, width(3), first.identity);
        let other = JitLinker::new(&affinity, width(1));
        assert_ne!(first.identity, other.identity);
        for linker in [&first, &wider, &other, &first, &wider, &other] {
            let alone = linked_vertices(linker, "Kaliningrad", engine.as_ref());
            assert_eq!(linked_vertices(linker, "Kaliningrad", &cached), alone);
        }
        // Alone: six batches.  Through the cache: the first linker's second
        // pass read its ranking, the other two scored every time.
        assert_eq!(affinity.batches("Kaliningrad"), 6 + 5);
        let probe =
            potential_relevant_vertices_query(engine.dialect(), &content_words("Kaliningrad"), 400);
        let table = cached.query_parsed(&probe).unwrap();
        let ranking = ranking_on(&table).unwrap();
        assert_eq!((ranking.linker, ranking.num_vertices), (first.identity, 1));
    }

    /// The fine-grained model, recording the phrase of every batch.
    #[derive(Default)]
    struct Counting {
        model: FineGrainedAffinity,
        phrases: Mutex<Vec<String>>,
    }

    impl Counting {
        /// How many batches scored `phrase`.
        fn batches(&self, phrase: &str) -> usize {
            let phrases = self.phrases.lock().unwrap();
            phrases.iter().filter(|p| *p == phrase).count()
        }
    }

    impl SemanticAffinity for Counting {
        fn score(&self, a: &str, b: &str) -> f32 {
            self.model.score(a, b)
        }

        fn score_many(&self, phrase: &str, candidates: &[&str]) -> Vec<f32> {
            self.phrases.lock().unwrap().push(phrase.to_string());
            self.model.score_many(phrase, candidates)
        }

        fn label(&self) -> &'static str {
            "counting"
        }
    }

    /// Words the KG labels and the node labels are drawn from, so probes
    /// overlap; the relation phrases share none of them.
    const WORDS: &[&str] = &[
        "danish", "straits", "baltic", "sea", "river", "port", "canal", "bay",
    ];
    const RELATIONS: &[&str] = &["flow", "located in", "capital of"];
    const PREDICATES: &[&str] = &["outflow", "location", "capital", "nearestCity"];

    /// A node label over one or two pool words, spelled as `form` says:
    /// lower case, capitalised, or capitalised after "the".
    fn node_label(words: &[usize], form: usize) -> String {
        let words = words.iter().map(|&w| {
            let word = WORDS[w % WORDS.len()];
            match form % 3 {
                0 => word.to_string(),
                _ => word[..1].to_uppercase() + &word[1..],
            }
        });
        let label = words.collect::<Vec<_>>().join(" ");
        if form % 3 == 2 {
            format!("the {label}")
        } else {
            label
        }
    }

    /// Every vertex and predicate annotation of a linked AGP.
    type Annotations = (Vec<Vec<RelevantVertex>>, Vec<Vec<RelevantPredicate>>);

    fn annotations(outcome: LinkOutcome) -> Annotations {
        assert!(outcome.completed);
        (outcome.agp.node_annotations, outcome.agp.edge_annotations)
    }

    proptest::proptest! {
        #[test]
        fn linking_over_a_warm_cache_equals_linking_with_none(
            kg_labels in prop::collection::vec((0usize..8, 1usize..8, 0usize..8), 1..9),
            kg_edges in prop::collection::vec((0usize..9, 0usize..4, 0usize..9), 0..8),
            first in (0usize..8, 0usize..3, 0usize..3),
            others in prop::collection::vec(
                (prop::collection::vec(0usize..8, 1..3), 0usize..3, 0usize..3),
                0..3,
            ),
            num_vertices in 1usize..4,
        ) {
            // Every KG label has two distinct pool words (and a third that
            // may repeat one), so none of them equals a one-word label.
            let mut store = Store::new();
            let label = Term::iri(vocab::RDFS_LABEL);
            let vertex = |i: usize| Term::iri(format!("http://e/v{}", i % kg_labels.len()));
            for (i, &(a, step, c)) in kg_labels.iter().enumerate() {
                let (a, b) = (a % WORDS.len(), (a + step) % WORDS.len());
                let text = format!("{} {} {}", WORDS[a], WORDS[b], WORDS[c % WORDS.len()]);
                store.insert(Triple::new(vertex(i), label.clone(), Term::literal_str(text)));
            }
            for &(s, p, o) in &kg_edges {
                let predicate = Term::iri(format!("http://e/{}", PREDICATES[p]));
                store.insert(Triple::new(vertex(s), predicate, vertex(o)));
            }
            let engine = Arc::new(InProcessEndpoint::new("KG", store));
            let cached =
                CachingEndpoint::new(engine.clone(), QueryCache::shared(CacheConfig::default()));

            // The first node is one word: a vertex labelled with exactly that
            // word, ingested later, outranks every vertex linked before.
            let (word, form, relation) = first;
            let triples: Vec<Tp> = std::iter::once((vec![word], form, relation))
                .chain(others)
                .map(|(words, form, relation)| {
                    Tp::unknown_to_entity(RELATIONS[relation], node_label(&words, form))
                })
                .collect();
            let pgp = PhraseGraphPattern::from_triples(&triples);
            let entities: Vec<&PgpNode> = pgp.nodes().iter().filter(|n| !n.is_unknown()).collect();
            let node_labels: Vec<&str> = entities.iter().map(|n| n.label.as_str()).collect();
            let entity_batches = |affinity: &Counting| {
                node_labels.iter().map(|l| affinity.batches(l)).sum::<usize>()
            };

            let affinity = Counting::default();
            let config = LinkerConfig { num_vertices, ..Default::default() };
            let linker = JitLinker::new(&affinity, config);
            let budget = Budget::unbounded();
            let link = |endpoint: &dyn SparqlEndpoint| {
                annotations(linker.link(&pgp, endpoint, &budget).unwrap())
            };

            let alone = link(engine.as_ref());
            let before = entity_batches(&affinity);
            let cold = link(&cached);
            let after_cold = entity_batches(&affinity);
            let warm = link(&cached);
            let after_warm = entity_batches(&affinity);
            prop_assert_eq!(&cold, &alone);
            prop_assert_eq!(&warm, &alone);
            // Every node scored on the cold pass; the first node of each
            // probe read its own ranking on the warm one.
            prop_assert_eq!(after_cold - before, before);
            prop_assert!(after_warm - after_cold < after_cold - before || before == 0);

            // An ingest evicts the probes it could change, and their
            // rankings with them.
            let newcomer = Term::iri("http://e/newcomer");
            let exact = content_words(node_labels[0]).join(" ");
            cached
                .ingest(IngestBatch::from_iter([Triple::new(
                    newcomer.clone(),
                    label.clone(),
                    Term::literal_str(exact),
                )]))
                .unwrap();
            let alone = link(engine.as_ref());
            prop_assert_eq!(&alone.0[entities[0].id][0].vertex, &newcomer);
            prop_assert_eq!(&link(&cached), &alone);
            prop_assert_eq!(&link(&cached), &alone);
        }
    }
}
