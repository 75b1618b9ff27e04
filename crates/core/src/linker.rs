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
//! # One rule ranks every probe, once
//!
//! Both algorithms rank a probe alike: score each row's description
//! against a phrase (node label or relation phrase), sort stably by
//! descending affinity, and keep the first `k` rows with distinct key terms
//! (`?v` of a vertex probe, `?p` of a predicate probe).  An edge's
//! annotation is the first `num_predicates` entries of its probes' rankings
//! merged by score, ties to the earlier probe, then the earlier row: what
//! one stable sort over all the edge's rows keeps, since a row in the
//! edge's top `k` is in its own probe's top `k`.
//!
//! The endpoint cache hands one probe table to every question that asks
//! the probe, so the ranking stays on the table ([`ResultSet::attach`]):
//! `(row, score)` pairs keyed by the linker's identity, `k` and the exact
//! phrase — all it depends on besides the rows.  A probe that finds a
//! ranking under its own key scores nothing; another key ranks afresh and
//! leaves the first ranking in place.  The identity is a process-unique
//! number drawn when a [`JitLinkStage`] (or a bare [`JitLinker`]) is built;
//! it stands for the stage's affinity model.  The memo needs no bound and
//! no invalidation: the cache bounds the table, and an ingest that could
//! change the rows evicts the table and its ranking together (an uncached
//! endpoint's table is fresh on every call).  One ranking is never
//! attached: a predicate probe's with an opaque predicate, whose
//! description comes from *another* query's rows that an ingest may change
//! without evicting this table.
//!
//! [`JitLinkStage`]: crate::pipeline::JitLinkStage

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use kgqan_endpoint::{EngineDialect, SparqlEndpoint};
use kgqan_nlp::tokenizer::content_words;
use kgqan_rdf::{vocab, Term};
use kgqan_sparql::ast::{GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use kgqan_sparql::{QueryResults, ResultSet, Row};

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

/// A linker's ranking of one probe, attached to the probe's table under
/// the key it was made with (see the module docs): the kept rows, best
/// first, by position in the table, with their scores.
struct RankedProbe {
    linker: u64,
    k: usize,
    phrase: String,
    rows: Vec<(usize, f32)>,
}

/// The source of linker identities: never reused within a process.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(0);

/// A fresh linker identity.
pub(crate) fn fresh_identity() -> u64 {
    NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed)
}

/// One predicate probe of an edge: the shared table, its `?p` column, and
/// the anchor (by position in the edge's anchor list) and direction it was
/// asked for.
struct PredicateProbe {
    table: ResultSet,
    column: usize,
    anchor: usize,
    vertex_is_object: bool,
}

/// The just-in-time linker.
pub struct JitLinker<'a> {
    affinity: &'a dyn SemanticAffinity,
    config: LinkerConfig,
    /// Whose rankings this linker may reuse (see the module docs).
    identity: u64,
}

impl<'a> JitLinker<'a> {
    /// Create a linker using the given affinity model and configuration.
    /// It reuses only the rankings it made itself.
    pub fn new(affinity: &'a dyn SemanticAffinity, config: LinkerConfig) -> Self {
        Self::with_identity(affinity, config, fresh_identity())
    }

    /// A linker that shares its rankings with every other linker of the
    /// same `identity`, which must stand for the same affinity model.
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
        for node in agp.pgp.nodes() {
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
    /// `label`, copied out of the probe's ranking.
    fn relevant_vertices(&self, label: &str, fetched: &ResultSet) -> Vec<RelevantVertex> {
        let (Some(v), Some(d)) = (fetched.column_index("v"), fetched.column_index("d")) else {
            return Vec::new();
        };
        let describe = |_: &mut bool, row| Ok(vertex_description(row, v, d));
        let ranking = self.ranking(fetched, v, label, self.config.num_vertices, describe);
        let (kept, _) = ranking.expect("a vertex row is described without a query");
        let rows = fetched.rows();
        let kept = kept.iter().map(|&(position, score)| {
            let row = rows.clone().nth(position).expect("a ranked row");
            RelevantVertex {
                vertex: row.cell(v).expect("a ranked row binds ?v").clone(),
                description: vertex_description(row, v, d).expect("ranked").into_owned(),
                score,
            }
        });
        kept.collect()
    }

    /// The ranking of a probe `table` for `phrase` under the rule of the
    /// module docs: the one attached under this linker's key, or a fresh
    /// one, attached for the next reader unless `describe` flagged it
    /// foreign.  `describe` gives the text a row is scored by (`None`
    /// skips the row); column `key` holds the terms kept once each.
    fn ranking<'t>(
        &self,
        table: &'t ResultSet,
        key: usize,
        phrase: &str,
        k: usize,
        mut describe: impl FnMut(&mut bool, Row<'t>) -> Result<Option<Cow<'t, str>>, KgqanError>,
    ) -> Result<Ranking<'t>, KgqanError> {
        let memo = table
            .attached()
            .and_then(|memo| memo.downcast_ref::<RankedProbe>());
        let ours = (self.identity, k, phrase);
        if let Some(memo) = memo.filter(|m| (m.linker, m.k, m.phrase.as_str()) == ours) {
            return Ok((Cow::Borrowed(&memo.rows), Vec::new()));
        }
        // The rows stay in the shared table: they are scored and ranked
        // where they sit, and only the kept positions are recorded.
        let (mut foreign, mut described) = (false, Vec::new());
        for (position, row) in table.rows().enumerate() {
            if let Some(description) = describe(&mut foreign, row)? {
                described.push((position, description));
            }
        }
        let descriptions: Vec<&str> = described.iter().map(|(_, d)| d.as_ref()).collect();
        let scores = self.affinity.score_many(phrase, &descriptions);
        let mut order: Vec<usize> = (0..described.len()).collect();
        order.sort_by(|&a, &b| descending(scores[a], scores[b]));
        let rows = table.rows();
        let key_of = |position: usize| rows.clone().nth(position).and_then(|row| row.cell(key));
        let mut kept: Vec<(usize, f32)> = Vec::new();
        for (position, score) in order.into_iter().map(|i| (described[i].0, scores[i])) {
            if kept.len() == k {
                break;
            }
            let term = key_of(position);
            if !kept.iter().any(|&(at, _)| key_of(at) == term) {
                kept.push((position, score));
            }
        }
        if !foreign {
            table.attach(RankedProbe {
                linker: self.identity,
                k,
                phrase: phrase.to_string(),
                rows: kept.clone(),
            });
        }
        Ok((Cow::Owned(kept), described))
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
    /// whose probes were cut mid-way still keeps the candidates ranked so
    /// far (best-effort annotation).
    pub(crate) fn link_relations(
        &self,
        agp: &mut AnnotatedGraphPattern,
        endpoint: &dyn SparqlEndpoint,
        budget: &Budget,
    ) -> Result<bool, KgqanError> {
        let mut completed = true;
        for (edge_index, edge) in agp.pgp.edges().iter().enumerate() {
            if budget.expired() {
                return Ok(false);
            }
            // Line 2: union of the relevant vertices of both endpoints,
            // remembering which node each vertex annotates.
            let mut anchor_vertices: Vec<(usize, &Term)> = Vec::new();
            for node_id in [edge.source, edge.target] {
                for rv in &agp.node_annotations[node_id] {
                    if !anchor_vertices.iter().any(|(_, v)| *v == &rv.vertex) {
                        anchor_vertices.push((node_id, &rv.vertex));
                    }
                }
            }

            let mut probes: Vec<PredicateProbe> = Vec::new();
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
                    let QueryResults::Solutions(table) = endpoint.query_parsed(&query)? else {
                        continue;
                    };
                    if let Some(column) = table.column_index("p") {
                        probes.push(PredicateProbe {
                            table,
                            column,
                            anchor,
                            vertex_is_object,
                        });
                    }
                }
            }

            // Lines 10-12: an opaque URI is described by the KG's text about
            // the predicate, a foreign description.
            let k = self.config.num_predicates;
            let rankings = probes.iter().map(|PredicateProbe { table, column, .. }| {
                self.ranking(table, *column, &edge.relation, k, |foreign, row| {
                    let Some(p) = row.cell(*column).filter(|p| p.is_iri()) else {
                        return Ok(None);
                    };
                    if p.is_human_readable() {
                        return Ok(Some(p.readable_form()));
                    }
                    *foreign = true;
                    let fetched = self.predicate_description(p, endpoint)?;
                    Ok(Some(fetched.map_or_else(|| p.readable_form(), Cow::Owned)))
                })
            });
            let rankings = rankings.collect::<Result<Vec<_>, _>>()?;

            // Line 15: keep the top-k by affinity.  The probes' own top-k,
            // concatenated in probe order and stably sorted, are in the
            // order of one stable sort over every row of the edge.
            let mut merged: Vec<(usize, usize, f32)> = Vec::new();
            for (index, (kept, _)) in rankings.iter().enumerate() {
                merged.extend(kept.iter().map(|&(row, score)| (index, row, score)));
            }
            merged.sort_by(|a, b| descending(a.2, b.2));
            merged.truncate(k);
            let kept = merged.into_iter().map(|(index, position, score)| {
                let (probe, (_, described)) = (&probes[index], &rankings[index]);
                let row = probe.table.rows().nth(position).expect("a ranked row");
                let predicate = row.cell(probe.column).expect("a ranked row binds ?p");
                // A kept ranking's descriptions are the rows' own.
                let description = match described.binary_search_by_key(&position, |(at, _)| *at) {
                    Ok(at) => described[at].1.to_string(),
                    Err(_) => predicate.readable_form().into_owned(),
                };
                let (anchor_node, anchor_vertex) = anchor_vertices[probe.anchor];
                RelevantPredicate {
                    predicate: predicate.clone(),
                    description,
                    score,
                    anchor_vertex: anchor_vertex.clone(),
                    anchor_node,
                    vertex_is_object: probe.vertex_is_object,
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
        // Prefer rdfs:label, fall back to any literal.  Both lookups are
        // built as ASTs and issued through the parsed path, like every
        // other probe.
        let labelled = description_query(predicate, VarOrTerm::iri(vocab::RDFS_LABEL), 1);
        let results = endpoint.query_parsed(&labelled)?;
        if let Some(Term::Literal(lit)) = results.rows().first().and_then(|row| row.get("d")) {
            return Ok(Some(lit.lexical.clone()));
        }
        let any = description_query(predicate, VarOrTerm::var("p"), 5);
        let results = endpoint.query_parsed(&any)?;
        let literal = results.rows().find_map(|row| match row.get("d") {
            Some(Term::Literal(lit)) if lit.is_string() => Some(lit.lexical.clone()),
            _ => None,
        });
        Ok(literal)
    }
}

/// The description a vertex probe row is scored by: the text of its `?d`,
/// for a row whose `?v` is an IRI.
fn vertex_description(row: Row<'_>, v: usize, d: usize) -> Option<Cow<'_, str>> {
    let (v, d) = (row.cell(v)?, row.cell(d)?);
    v.is_iri().then(|| d.readable_form())
}

/// A probe's ranking as a caller reads it: the kept `(row, score)` pairs,
/// best first, and — if it was just made — every ranked row's description,
/// by row.
type Ranking<'t> = (Cow<'t, [(usize, f32)]>, Vec<(usize, Cow<'t, str>)>);

/// The ranking both linking algorithms sort by: higher affinity first.
/// Used with the stable `sort_by`, so equal scores keep their fetch order.
fn descending(a: f32, b: f32) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal)
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

/// Relation linking as first written, kept as the reference the merged
/// per-probe rankings must reproduce: every predicate row of every probe of
/// an edge described and scored in one batch, stably sorted, deduplicated
/// on (anchor, direction, predicate) and cut to the top `num_predicates`.
#[cfg(test)]
mod oracle {
    use super::*;

    struct Candidate {
        probe: usize,
        row: usize,
        description: String,
        anchor: usize,
        vertex_is_object: bool,
    }

    pub(super) fn link_relations(
        linker: &JitLinker<'_>,
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
            let mut anchor_vertices: Vec<(usize, Term)> = Vec::new();
            for node_id in [edge.source, edge.target] {
                for rv in &agp.node_annotations[node_id] {
                    if !anchor_vertices.iter().any(|(_, v)| v == &rv.vertex) {
                        anchor_vertices.push((node_id, rv.vertex.clone()));
                    }
                }
            }
            let mut probes: Vec<(ResultSet, usize)> = Vec::new();
            let mut candidates: Vec<Candidate> = Vec::new();
            for (anchor, (_, vertex)) in anchor_vertices.iter().enumerate() {
                if budget.expired() {
                    completed = false;
                    break;
                }
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
                        let description = if p.is_human_readable() {
                            p.readable_form().into_owned()
                        } else {
                            linker
                                .predicate_description(p, endpoint)?
                                .unwrap_or_else(|| p.readable_form().into_owned())
                        };
                        candidates.push(Candidate {
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
            let predicate_of = |c: &Candidate| {
                let (results, column) = &probes[c.probe];
                let row = results.rows().nth(c.row);
                row.and_then(|row| row.cell(*column))
                    .expect("candidates are made from rows that bind ?p")
            };
            let descriptions: Vec<&str> =
                candidates.iter().map(|c| c.description.as_str()).collect();
            let scores = linker.affinity.score_many(&edge.relation, &descriptions);
            let mut ranked: Vec<usize> = (0..candidates.len()).collect();
            ranked.sort_by(|&a, &b| descending(scores[a], scores[b]));
            ranked.dedup_by(|a, b| {
                let (a, b) = (&candidates[*a], &candidates[*b]);
                a.anchor == b.anchor
                    && a.vertex_is_object == b.vertex_is_object
                    && predicate_of(a) == predicate_of(b)
            });
            ranked.truncate(linker.config.num_predicates);
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
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use super::*;
    use crate::affinity::FineGrainedAffinity;
    use crate::pgp::PgpNode;
    use kgqan_endpoint::cache::{CacheConfig, CachingEndpoint, QueryCache};
    use kgqan_endpoint::EndpointError;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_nlp::{PhraseNode, PhraseTriplePattern as Tp};
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
        assert_eq!(ranking.phrase, "Danish Straits");
        assert_eq!(ranking.k, 2);
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
        assert_eq!((ranking.linker, ranking.k), (first.identity, 1));
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
            let relation_batches = |affinity: &Counting| {
                RELATIONS.iter().map(|r| affinity.batches(r)).sum::<usize>()
            };

            let affinity = Counting::default();
            let config = LinkerConfig { num_vertices, ..Default::default() };
            let linker = JitLinker::new(&affinity, config);
            let budget = Budget::unbounded();
            let link = |endpoint: &dyn SparqlEndpoint| {
                annotations(linker.link(&pgp, endpoint, &budget).unwrap())
            };

            let alone = link(engine.as_ref());
            let before = (entity_batches(&affinity), relation_batches(&affinity));
            let cold = link(&cached);
            let after_cold = (entity_batches(&affinity), relation_batches(&affinity));
            let warm = link(&cached);
            let after_warm = (entity_batches(&affinity), relation_batches(&affinity));
            // Vertex and predicate annotations alike.
            prop_assert_eq!(&cold, &alone);
            prop_assert_eq!(&warm, &alone);
            // Every node and every probe scored on the cold pass; the first
            // node or edge of each probe read its own ranking on the warm one.
            let cold_batches = (after_cold.0 - before.0, after_cold.1 - before.1);
            let warm_batches = (after_warm.0 - after_cold.0, after_warm.1 - after_cold.1);
            // (Two edges of one phrase may share a probe in a pass.)
            prop_assert_eq!(cold_batches.0, before.0);
            prop_assert!(cold_batches.1 <= before.1);
            prop_assert!(warm_batches.0 < cold_batches.0 || before.0 == 0);
            prop_assert!(warm_batches.1 < cold_batches.1 || cold_batches.1 == 0);

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

            // The newcomer anchors the first edge; an edge triple ingested
            // at it evicts its outgoing probe, and the ranking with it.
            let outgoing = outgoing_predicate_query(&newcomer);
            let probe = cached.query_parsed(&outgoing).unwrap();
            prop_assert!(ranking_on(&probe).is_some_and(|r| r.phrase == RELATIONS[relation]));
            let predicate = Term::iri(format!("http://e/{}", PREDICATES[relation]));
            cached
                .ingest(IngestBatch::from_iter([Triple::new(newcomer, predicate, vertex(0))]))
                .unwrap();
            prop_assert!(ranking_on(&cached.query_parsed(&outgoing).unwrap()).is_none());
            let alone = link(engine.as_ref());
            prop_assert_eq!(&link(&cached), &alone);
            prop_assert_eq!(&link(&cached), &alone);
        }

        #[test]
        fn merged_probe_rankings_equal_the_per_edge_oracle(
            edges in prop::collection::vec((0usize..3, any::<bool>(), 0usize..TIED_PREDICATES.len()), 0..40),
            labels in prop::collection::vec((0usize..TIED_PREDICATES.len(), 0usize..4), 0..4),
            anchors in (1usize..3, 0usize..3),
            second_edge in any::<bool>(),
            relations in (0usize..RELATIONS.len(), 0usize..RELATIONS.len()),
            num_predicates in 0usize..26,
            cut in prop::option::of(1usize..8),
        ) {
            // Anchors v0..v2 with predicates from a pool of readable and
            // opaque IRIs, some of the opaque ones labelled.
            let vertex = |i: usize| Term::iri(format!("http://e/v{i}"));
            let mut store = Store::new();
            for (i, &(at, incoming, p)) in edges.iter().enumerate() {
                let (p, other) = (Term::iri(TIED_PREDICATES[p]), Term::iri(format!("http://e/o{i}")));
                let (s, o) = if incoming { (other, vertex(at)) } else { (vertex(at), other) };
                store.insert(Triple::new(s, p, o));
            }
            for &(p, label) in &labels {
                let text = ["nearest city", "flow", "capital", "x"][label];
                store.insert(Triple::new(Term::iri(TIED_PREDICATES[p]), Term::iri(vocab::RDFS_LABEL), Term::literal_str(text)));
            }
            let engine = InProcessEndpoint::new("KG", store);

            // A–B, and B–C: node A takes one or two anchors, B none, v0
            // (shared with A) or v2, and C v2.
            let phrase = |label: &str| PhraseNode::Phrase(label.to_string());
            let mut triples = vec![Tp::new(phrase("A"), RELATIONS[relations.0], phrase("B"))];
            if second_edge {
                triples.push(Tp::new(phrase("B"), RELATIONS[relations.1], phrase("C")));
            }
            let mut agp = AnnotatedGraphPattern::new(PhraseGraphPattern::from_triples(&triples));
            let linked = |vertices: &[usize]| -> Vec<RelevantVertex> {
                vertices.iter().map(|&i| RelevantVertex { vertex: vertex(i), description: String::new(), score: 1.0 }).collect()
            };
            for node in agp.pgp.nodes().to_vec() {
                agp.node_annotations[node.id] = match node.label.as_str() {
                    "A" => linked(&[0, 1][..anchors.0]),
                    "B" => linked([[].as_slice(), &[0], &[2]][anchors.1]),
                    _ => linked(&[2]),
                };
            }

            let affinity = Tied;
            let config = LinkerConfig { num_predicates, ..Default::default() };
            let linker = JitLinker::new(&affinity, config);
            let run = |oracle: bool| {
                // The budget expires at the `cut`-th predicate probe, the
                // same place in both runs.
                for _attempt in 0..5 {
                    let budget = match cut {
                        Some(_) => Budget::with_deadline(Duration::from_millis(2)),
                        None => Budget::unbounded(),
                    };
                    let stalling = Stalling { inner: &engine, budget: &budget, cut, probes: AtomicUsize::new(0), early: AtomicUsize::new(0) };
                    let mut agp = agp.clone();
                    let completed = if oracle {
                        oracle::link_relations(&linker, &mut agp, &stalling, &budget)
                    } else {
                        linker.link_relations(&mut agp, &stalling, &budget)
                    };
                    if stalling.early.load(Ordering::Relaxed) == 0 {
                        return (completed.unwrap(), agp.edge_annotations);
                    }
                }
                panic!("the budget expired before its cut five times");
            };
            let merged = run(false);
            prop_assert_eq!(&merged, &run(true));
            prop_assert!(merged.1.iter().all(|kept| kept.len() <= num_predicates));
        }
    }

    /// A model with few distinct scores, so ties are everywhere: a
    /// description scores by its length modulo three.
    struct Tied;

    impl SemanticAffinity for Tied {
        fn score(&self, _: &str, description: &str) -> f32 {
            (description.len() % 3) as f32 * 0.25
        }

        fn label(&self) -> &'static str {
            "tied"
        }
    }

    /// Readable and opaque predicates; the readable forms of several share
    /// a length modulo three.
    const TIED_PREDICATES: &[&str] = &[
        "http://e/outflow",
        "http://e/nearestCity",
        "http://e/cities",
        "http://e/capital",
        "http://e/location",
        "http://e/P131",
        "http://e/P17",
        "http://e/Q5",
        "http://e/flowsInto",
        "http://e/P2279569217",
    ];

    /// An endpoint that lets `budget` expire while it answers the `cut`-th
    /// predicate probe, and counts probes that found it expired earlier.
    struct Stalling<'a> {
        inner: &'a InProcessEndpoint,
        budget: &'a Budget,
        cut: Option<usize>,
        probes: AtomicUsize,
        early: AtomicUsize,
    }

    impl SparqlEndpoint for Stalling<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn dialect(&self) -> EngineDialect {
            self.inner.dialect()
        }

        fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
            self.inner.query(sparql)
        }

        fn stats(&self) -> kgqan_endpoint::RequestStats {
            self.inner.stats()
        }

        fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
            if query.projected_variables() == ["p"] {
                let probe = self.probes.fetch_add(1, Ordering::Relaxed) + 1;
                if self.cut.is_some_and(|cut| probe < cut) && self.budget.expired() {
                    self.early.fetch_add(1, Ordering::Relaxed);
                }
                if Some(probe) == self.cut {
                    while !self.budget.expired() {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            self.inner.query_parsed(query)
        }
    }

    #[test]
    fn labelling_an_opaque_predicate_relinks_warm_as_uncached() {
        // Kaliningrad's one predicate is opaque: its ranking depends on the
        // predicate's label, another query's rows, so it is never kept.
        let mut store = Store::new();
        let kali = Term::iri("http://e/Kaliningrad");
        let p131 = Term::iri("http://e/P131");
        store.insert_all([
            Triple::new(
                kali.clone(),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str("Kaliningrad"),
            ),
            Triple::new(Term::iri("http://e/Baltic_Sea"), p131.clone(), kali.clone()),
        ]);
        let engine = Arc::new(InProcessEndpoint::new("Opaque", store));
        let cached =
            CachingEndpoint::new(engine.clone(), QueryCache::shared(CacheConfig::default()));
        let affinity = FineGrainedAffinity::new();
        let linker = JitLinker::new(&affinity, LinkerConfig::default());
        let pgp = PhraseGraphPattern::from_triples(&[Tp::unknown_to_entity(
            "city on the shore",
            "Kaliningrad",
        )]);
        let link = |endpoint: &dyn SparqlEndpoint| {
            let outcome = linker.link(&pgp, endpoint, &Budget::unbounded()).unwrap();
            annotations(outcome).1
        };
        let incoming = incoming_predicate_query(&kali);

        let opaque = |annotations: &[Vec<RelevantPredicate>]| {
            let kept = annotations[0].iter().find(|p| p.predicate == p131);
            kept.expect("P131 is linked").clone()
        };

        let before = link(engine.as_ref());
        assert_eq!(opaque(&before).description, "p131");
        assert_eq!(link(&cached), before);
        assert_eq!(link(&cached), before);
        assert!(ranking_on(&cached.query_parsed(&incoming).unwrap()).is_none());
        // Kaliningrad's outgoing probe (its label) is all readable: kept.
        let outgoing = cached.query_parsed(&outgoing_predicate_query(&kali));
        assert!(ranking_on(&outgoing.unwrap()).is_some());

        // The label touches no probe of Kaliningrad, only the lookup.
        let label = Triple::new(
            p131.clone(),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("nearest city"),
        );
        cached.ingest(IngestBatch::from_iter([label])).unwrap();
        let misses = cached.cache().stats().misses;
        assert!(cached.query_parsed(&incoming).unwrap().rows().len() == 1);
        assert_eq!(cached.cache().stats().misses, misses, "the probe stayed");
        let after = link(engine.as_ref());
        assert_eq!(opaque(&after).description, "nearest city");
        assert!(opaque(&after).score > opaque(&before).score);
        assert_eq!(link(&cached), after);
        assert_eq!(link(&cached), after);
    }
}
