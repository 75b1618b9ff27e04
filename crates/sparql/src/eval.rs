//! Id-space evaluation primitives shared by every evaluator of the crate,
//! plus the [`execute`] / [`execute_query`] entry points.
//!
//! # The dictionary-encoded pipeline
//!
//! The store is dictionary-encoded: every [`Term`] is interned once into a
//! fixed-width [`TermId`] and the triple indices operate purely on ids.
//! Evaluation stays in id space end-to-end:
//!
//! 1. **Plan** — [`crate::plan::Planner`] numbers the variables into a dense
//!    `VarRegistry`, resolves each triple pattern's constant terms in the
//!    dictionary once (an absent constant proves the pattern matches
//!    nothing), and chooses a cardinality-ordered join order with `FILTER`
//!    pushdown from the store's statistics.
//! 2. **Join** — a solution row is a `Vec<Option<TermId>>` indexed by
//!    variable number.  The executor ([`crate::exec`]) walks the planned
//!    operators depth-first as nested index loops over [`Store::scan`],
//!    extending *one* row in place: join compatibility is a `u32`
//!    comparison and binding a variable is a slot write that is undone on
//!    the way back.  `OPTIONAL` is a left outer join, `UNION` runs both
//!    branches in turn; a full `LIMIT` page stops every enclosing scan.
//! 3. **Decode** — terms are materialised in one place: `FILTER`
//!    expressions, which need lexical values and decode the variables they
//!    reference on demand.  The rows that survive `DISTINCT`/`OFFSET`/`LIMIT`
//!    (all applied while the rows are still ids) are *flattened*, not
//!    decoded: their ids become the codes of one
//!    [`crate::results::ResultSet`], which resolves them through the
//!    store's sealed dictionary when a caller reads a row.
//!
//! The full-text predicates (`bif:contains`, Stardog `textMatch`, Jena
//! `text:query`) bind their subject to the string literals matched by the
//! store's built-in text index — which already yields `TermId`s, so the text
//! path never decodes at all.
//!
//! What lives here is what both the executor and the reference evaluator
//! (`execute_naive`) need: the variable numbering, pattern compilation,
//! `FILTER` expression evaluation and row flattening.

use kgqan_rdf::text::tokenize;
use kgqan_rdf::{EncodedTriplePattern, Store, Term, TermId};

use crate::ast::{Expression, GraphPattern, Query, TriplePatternAst, VarOrTerm};
use crate::error::SparqlError;
use crate::parser::parse_query;
use crate::plan::Planner;
use crate::results::{is_side_code, side_code, QueryResults, ResultSet, TermSource, UNBOUND};

/// The IRIs accepted as full-text search predicates.  The first is Virtuoso's
/// (used verbatim in the paper's `potentialRelevantVertices` query); the
/// others are the equivalents the paper mentions for Stardog and Jena.
pub const TEXT_SEARCH_PREDICATES: &[&str] = &[
    "bif:contains",
    "http://www.openlinksw.com/schemas/bif#contains",
    "tag:stardog:api:property:textMatch",
    "stardog:textMatch",
    "http://jena.apache.org/text#query",
    "text:query",
];

/// Maximum number of literals a single text-search pattern may bind when the
/// query carries no LIMIT — a safety valve mirroring the engines' own caps.
const DEFAULT_TEXT_SEARCH_CAP: usize = 10_000;

/// Evaluate a parsed [`Query`] against a store through the cost-based
/// planner ([`crate::plan`]) and the executor ([`crate::exec`]).
pub fn execute(store: &Store, query: &Query) -> Result<QueryResults, SparqlError> {
    Ok(Planner::new(store).plan(query).execute()?.results)
}

/// Parse and evaluate a SPARQL string against a store.
pub fn execute_query(store: &Store, query: &str) -> Result<QueryResults, SparqlError> {
    let parsed = parse_query(query)?;
    execute(store, &parsed)
}

/// A dense numbering of the variables of one query.
///
/// Id-level solution rows are flat vectors indexed by variable number, so
/// looking a variable up during a join is an array access instead of a
/// string-keyed map probe.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarRegistry {
    names: Vec<String>,
}

impl VarRegistry {
    /// Number every variable appearing in the query's graph pattern, in
    /// first-seen order.  One walk of the pattern; the only allocations are
    /// the list and the names it keeps.
    pub(crate) fn from_pattern(pattern: &GraphPattern) -> Self {
        let mut vars = VarRegistry::default();
        pattern.any_bgp(|tps| {
            for tp in tps {
                for position in [&tp.subject, &tp.predicate, &tp.object] {
                    if let Some(name) = position.as_var() {
                        vars.register(name);
                    }
                }
            }
            false
        });
        vars
    }

    /// The slot of `name`, numbering it next if it is new.
    pub(crate) fn register(&mut self, name: &str) -> usize {
        self.id_of(name).unwrap_or_else(|| {
            self.names.push(name.to_string());
            self.names.len() - 1
        })
    }

    pub(crate) fn id_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The name of a slot.
    pub(crate) fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// An id-level solution row: one `Option<TermId>` slot per registered
/// variable.  Cloning is a flat memcpy — the unit of work of the join loops.
pub(crate) type IdRow = Vec<Option<TermId>>;

/// One position of a compiled triple pattern: a dictionary id for constant
/// terms, a variable slot otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Const(TermId),
    Var(usize),
}

/// A triple pattern with its constants resolved to dictionary ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledTriplePattern {
    pub(crate) subject: Slot,
    pub(crate) predicate: Slot,
    pub(crate) object: Slot,
}

impl CompiledTriplePattern {
    /// The index pattern to scan for: constants as they are, each variable
    /// position as `bound` resolves it (`None` = unbound, matches anything).
    pub(crate) fn encoded(&self, bound: impl Fn(usize) -> Option<TermId>) -> EncodedTriplePattern {
        let resolve = |slot: Slot| match slot {
            Slot::Const(id) => Some(id),
            Slot::Var(v) => bound(v),
        };
        EncodedTriplePattern::new(
            resolve(self.subject),
            resolve(self.predicate),
            resolve(self.object),
        )
    }
}

/// Resolve the constants of a triple pattern against the store's dictionary
/// under a variable numbering.  `None` means a constant is not interned, so
/// the pattern can never match in this store.
pub(crate) fn compile_triple_pattern(
    store: &Store,
    vars: &VarRegistry,
    tp: &TriplePatternAst,
) -> Option<CompiledTriplePattern> {
    let slot = |vot: &VarOrTerm| -> Option<Slot> {
        match vot {
            VarOrTerm::Term(t) => store.id_of(t).map(Slot::Const),
            VarOrTerm::Var(v) => Some(Slot::Var(
                vars.id_of(v).expect("pattern variables are all registered"),
            )),
        }
    };
    Some(CompiledTriplePattern {
        subject: slot(&tp.subject)?,
        predicate: slot(&tp.predicate)?,
        object: slot(&tp.object)?,
    })
}

/// Flatten the projected id rows of a finished run (`rows` rows of
/// `variables.len()` cells, row-major) into the result table — the point
/// where query evaluation hands its ids over.  A cell keeps its
/// id as its code, resolved later through the store's sealed dictionary;
/// `foreign` (the run's `SERVICE` terms, already coded by [`side_code`])
/// starts the table's side table, and an id of the store's unsealed head
/// (a bare, never-compacted `Store`) is copied there once per table.
pub(crate) fn flatten_rows(
    variables: Vec<String>,
    cells: &[Option<TermId>],
    rows: usize,
    store: &Store,
    foreign: Vec<Term>,
) -> ResultSet {
    let dictionary = store.dictionary().frozen();
    let sealed = dictionary.len();
    let mut side = foreign;
    let mut unsealed = std::collections::HashMap::new();
    // An exact-size iterator: `collect` allocates the code array once,
    // with no intermediate vector.
    let codes: Box<[u32]> = cells
        .iter()
        .map(|&cell| match cell {
            None => UNBOUND,
            Some(id) if id.index() < sealed || is_side_code(id.0) => id.0,
            Some(id) => *unsealed
                .entry(id)
                .or_insert_with(|| match store.term_of(id) {
                    Some(term) => {
                        side.push(term.clone());
                        side_code(side.len() - 1)
                    }
                    None => UNBOUND,
                }),
        })
        .collect();
    ResultSet::from_codes(variables, rows, codes, TermSource::new(dictionary, side))
}

/// The text-search query words of a `?lit <bif:contains> …` pattern under a
/// row: a constant literal object is used as-is, a variable object must be
/// bound to a literal.
pub(crate) fn text_query_words(
    store: &Store,
    vars: &VarRegistry,
    tp: &TriplePatternAst,
    row: &IdRow,
) -> Result<Vec<String>, SparqlError> {
    let query_text = match &tp.object {
        VarOrTerm::Term(Term::Literal(lit)) => lit.lexical.clone(),
        VarOrTerm::Var(v) => {
            let bound = vars
                .id_of(v)
                .and_then(|slot| row[slot])
                .and_then(|id| store.term_of(id));
            match bound {
                Some(Term::Literal(lit)) => lit.lexical.clone(),
                _ => {
                    return Err(SparqlError::Evaluation(
                        "text-search pattern requires a literal query string".into(),
                    ))
                }
            }
        }
        _ => {
            return Err(SparqlError::Evaluation(
                "text-search pattern requires a literal query string".into(),
            ))
        }
    };
    Ok(parse_text_query(&query_text))
}

/// The text-search fan-out cap of one query: LIMIT + OFFSET, mirroring the
/// `LIMIT maxVR` clause of `potentialRelevantVertices`.  OFFSET must count
/// too: `LIMIT 10 OFFSET 4` consumes 14 candidates before truncation, so
/// capping at the bare LIMIT would starve the tail rows.  The default cap
/// stays a ceiling either way.
pub(crate) fn effective_text_cap(query: &Query) -> usize {
    match query.limit {
        Some(limit) => limit
            .saturating_add(query.offset.unwrap_or(0))
            .min(DEFAULT_TEXT_SEARCH_CAP),
        None => DEFAULT_TEXT_SEARCH_CAP,
    }
}

/// True if a triple pattern's predicate is one of the full-text extension
/// predicates.
pub fn is_text_search_pattern(tp: &TriplePatternAst) -> bool {
    match &tp.predicate {
        VarOrTerm::Term(Term::Iri(iri)) => TEXT_SEARCH_PREDICATES.contains(&iri.as_str()),
        _ => false,
    }
}

/// Extract search words from a Virtuoso-style containment expression, e.g.
/// `'danish' OR 'straits'` → `["danish", "straits"]`.
pub fn parse_text_query(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|w| w != "or" && w != "and" && w != "not")
        .collect()
}

/// SPARQL effective boolean value of a term.
pub(crate) fn term_truthiness(term: Term) -> bool {
    match term {
        Term::Literal(lit) => {
            if lit.is_boolean() {
                lit.lexical == "true" || lit.lexical == "1"
            } else if lit.is_numeric() {
                lit.lexical
                    .parse::<f64>()
                    .map(|v| v != 0.0)
                    .unwrap_or(false)
            } else {
                !lit.lexical.is_empty()
            }
        }
        _ => true,
    }
}

/// Evaluate a filter expression under an id row.  `Ok(None)` means the
/// expression is an error for this row (e.g. unbound variable), which
/// SPARQL treats as false at the FILTER level.
///
/// This is one of the two decode points of the pipeline: variables the
/// expression references are resolved from `TermId` to [`Term`] on demand,
/// because filters compare lexical values.  Shared by the naive evaluator
/// and the planned executor's pushed-down filters.
pub(crate) fn eval_expression(
    store: &Store,
    vars: &VarRegistry,
    expr: &Expression,
    row: &IdRow,
) -> Result<Option<Term>, SparqlError> {
    let boolean = |b: bool| Some(Term::boolean(b));
    let var_term = |v: &str| -> Option<Term> {
        vars.id_of(v)
            .and_then(|slot| row[slot])
            .and_then(|id| store.term_of(id))
            .cloned()
    };
    let compare = |a: &Expression,
                   b: &Expression,
                   accept: &dyn Fn(std::cmp::Ordering) -> bool|
     -> Result<Option<Term>, SparqlError> {
        let (Some(ta), Some(tb)) = (
            eval_expression(store, vars, a, row)?,
            eval_expression(store, vars, b, row)?,
        ) else {
            return Ok(None);
        };
        let ordering = term_compare(&ta, &tb);
        Ok(Some(Term::boolean(accept(ordering))))
    };
    match expr {
        Expression::Var(v) => Ok(var_term(v)),
        Expression::Constant(t) => Ok(Some(t.clone())),
        Expression::Bound(v) => Ok(boolean(
            vars.id_of(v).is_some_and(|slot| row[slot].is_some()),
        )),
        Expression::Not(inner) => {
            let value = eval_expression(store, vars, inner, row)?;
            Ok(boolean(!value.map(term_truthiness).unwrap_or(false)))
        }
        Expression::And(a, b) => {
            let left = eval_expression(store, vars, a, row)?
                .map(term_truthiness)
                .unwrap_or(false);
            if !left {
                return Ok(boolean(false));
            }
            let right = eval_expression(store, vars, b, row)?
                .map(term_truthiness)
                .unwrap_or(false);
            Ok(boolean(right))
        }
        Expression::Or(a, b) => {
            let left = eval_expression(store, vars, a, row)?
                .map(term_truthiness)
                .unwrap_or(false);
            if left {
                return Ok(boolean(true));
            }
            let right = eval_expression(store, vars, b, row)?
                .map(term_truthiness)
                .unwrap_or(false);
            Ok(boolean(right))
        }
        Expression::Eq(a, b) => compare(a, b, &|o| o == std::cmp::Ordering::Equal),
        Expression::Neq(a, b) => compare(a, b, &|o| o != std::cmp::Ordering::Equal),
        Expression::Lt(a, b) => compare(a, b, &|o| o == std::cmp::Ordering::Less),
        Expression::Gt(a, b) => compare(a, b, &|o| o == std::cmp::Ordering::Greater),
        Expression::Le(a, b) => compare(a, b, &|o| o != std::cmp::Ordering::Greater),
        Expression::Ge(a, b) => compare(a, b, &|o| o != std::cmp::Ordering::Less),
        Expression::Contains(a, b) => {
            let (Some(ta), Some(tb)) = (
                eval_expression(store, vars, a, row)?,
                eval_expression(store, vars, b, row)?,
            ) else {
                return Ok(None);
            };
            let hay = term_text(&ta).to_lowercase();
            let needle = term_text(&tb).to_lowercase();
            Ok(boolean(hay.contains(&needle)))
        }
        Expression::Regex(a, b) => {
            let (Some(ta), Some(tb)) = (
                eval_expression(store, vars, a, row)?,
                eval_expression(store, vars, b, row)?,
            ) else {
                return Ok(None);
            };
            let hay = term_text(&ta).to_lowercase();
            let pattern = term_text(&tb).to_lowercase();
            Ok(boolean(regex_lite(&hay, &pattern)))
        }
        Expression::Lang(inner) => {
            let Some(t) = eval_expression(store, vars, inner, row)? else {
                return Ok(None);
            };
            let lang = t
                .as_literal()
                .and_then(|l| l.language.clone())
                .unwrap_or_default();
            Ok(Some(Term::literal_str(lang)))
        }
        Expression::Str(inner) => {
            let Some(t) = eval_expression(store, vars, inner, row)? else {
                return Ok(None);
            };
            Ok(Some(Term::literal_str(term_text(&t).to_string())))
        }
    }
}

/// Compare two terms: numerically when both parse as numbers, otherwise by
/// their textual form.
fn term_compare(a: &Term, b: &Term) -> std::cmp::Ordering {
    let num =
        |t: &Term| -> Option<f64> { t.as_literal().and_then(|l| l.lexical.parse::<f64>().ok()) };
    if let (Some(x), Some(y)) = (num(a), num(b)) {
        return x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
    }
    term_text(a).cmp(term_text(b))
}

/// The comparable / searchable text of a term.
fn term_text(t: &Term) -> &str {
    match t {
        Term::Iri(iri) => iri,
        Term::Blank(b) => b,
        Term::Literal(l) => &l.lexical,
    }
}

/// A tiny regex evaluator supporting the anchors `^`/`$` and plain substring
/// patterns — enough for the benchmark queries, without a regex dependency.
///
/// Only the **first** leading `^` and the **last** trailing `$` are anchors;
/// any further `^`/`$` characters are part of the pattern text.  (The
/// previous implementation used `trim_start_matches`/`trim_end_matches`,
/// which strip *every* repeated anchor character, so `^^a` silently matched
/// like `^a` instead of requiring a literal `^`.)
fn regex_lite(text: &str, pattern: &str) -> bool {
    let starts = pattern.starts_with('^');
    let core = if starts { &pattern[1..] } else { pattern };
    let ends = core.ends_with('$');
    let core = if ends { &core[..core.len() - 1] } else { core };
    match (starts, ends) {
        (true, true) => text == core,
        (true, false) => text.starts_with(core),
        (false, true) => text.ends_with(core),
        (false, false) => text.contains(core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::execute_naive;
    use kgqan_rdf::{vocab, Triple};

    /// The DBpedia fragment of the paper's running example 𝑞_E plus a few
    /// distractors.
    fn running_example_store() -> Store {
        let mut store = Store::new();
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let north_sea = Term::iri("http://dbpedia.org/resource/North_Sea");
        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");
        let label = Term::iri(vocab::RDFS_LABEL);

        store.insert_all([
            Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
            Triple::new(
                north_sea.clone(),
                label.clone(),
                Term::literal_str("North Sea"),
            ),
            Triple::new(
                straits.clone(),
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
                north_sea.clone(),
                Term::iri("http://dbpedia.org/property/outflow"),
                Term::iri("http://dbpedia.org/resource/English_Channel"),
            ),
            Triple::new(
                sea.clone(),
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://dbpedia.org/ontology/Sea"),
            ),
            Triple::new(
                kali.clone(),
                Term::iri("http://dbpedia.org/ontology/populationTotal"),
                Term::integer(431000),
            ),
            Triple::new(
                kali,
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://dbpedia.org/ontology/City"),
            ),
        ]);
        store
    }

    #[test]
    fn figure1_query_returns_baltic_sea() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            r#"PREFIX dbv: <http://dbpedia.org/resource/>
               SELECT ?sea WHERE {
                 ?sea <http://dbpedia.org/property/outflow> dbv:Danish_straits .
                 ?sea <http://dbpedia.org/ontology/nearestCity> dbv:Kaliningrad . }"#,
        )
        .unwrap();
        let rows = results.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows.first().unwrap().get("sea"),
            Some(&Term::iri("http://dbpedia.org/resource/Baltic_Sea"))
        );
    }

    #[test]
    fn select_star_returns_all_variables() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT * WHERE { ?s <http://dbpedia.org/property/outflow> ?o . }",
        )
        .unwrap();
        assert_eq!(results.rows().len(), 2);
        assert!(results.rows().first().unwrap().is_bound("s"));
        assert!(results.rows().first().unwrap().is_bound("o"));
    }

    #[test]
    fn ask_query_answers_presence() {
        let store = running_example_store();
        let yes = execute_query(
            &store,
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> a <http://dbpedia.org/ontology/Sea> }",
        )
        .unwrap();
        assert_eq!(yes.as_boolean(), Some(true));
        let no = execute_query(
            &store,
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> a <http://dbpedia.org/ontology/River> }",
        )
        .unwrap();
        assert_eq!(no.as_boolean(), Some(false));
    }

    #[test]
    fn optional_keeps_rows_without_match() {
        let store = running_example_store();
        // North Sea has an outflow but no rdf:type in the store.
        let results = execute_query(
            &store,
            "SELECT ?sea ?type WHERE { ?sea <http://dbpedia.org/property/outflow> ?x . \
             OPTIONAL { ?sea a ?type . } }",
        )
        .unwrap();
        let rs = results.as_solutions().unwrap();
        assert_eq!(rs.len(), 2);
        let with_type = rs.rows().iter().filter(|b| b.is_bound("type")).count();
        let without_type = rs.rows().iter().filter(|b| !b.is_bound("type")).count();
        assert_eq!(with_type, 1);
        assert_eq!(without_type, 1);
    }

    #[test]
    fn distinct_and_limit_and_offset() {
        let store = running_example_store();
        let all = execute_query(&store, "SELECT ?p WHERE { ?s ?p ?o . }").unwrap();
        let distinct = execute_query(&store, "SELECT DISTINCT ?p WHERE { ?s ?p ?o . }").unwrap();
        assert!(distinct.rows().len() < all.rows().len());
        assert_eq!(distinct.rows().len(), 5);

        let limited = execute_query(&store, "SELECT ?p WHERE { ?s ?p ?o . } LIMIT 3").unwrap();
        assert_eq!(limited.rows().len(), 3);

        let offset = execute_query(
            &store,
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o . } LIMIT 10 OFFSET 4",
        )
        .unwrap();
        assert_eq!(offset.rows().len(), 1);
    }

    #[test]
    fn bif_contains_finds_potential_relevant_vertices() {
        let store = running_example_store();
        // The paper's potentialRelevantVertices query for "Danish Straits".
        let results = execute_query(
            &store,
            r#"SELECT DISTINCT ?v ?d WHERE {
                 ?v ?p ?d .
                 ?d <bif:contains> "'danish' OR 'straits'" . } LIMIT 400"#,
        )
        .unwrap();
        let rs = results.as_solutions().unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            rs.rows().first().unwrap().get("v"),
            Some(&Term::iri("http://dbpedia.org/resource/Danish_straits"))
        );

        // "Kaliningrad" must return both Kaliningrad and Yantar,_Kaliningrad.
        let results = execute_query(
            &store,
            r#"SELECT DISTINCT ?v WHERE {
                 ?v ?p ?d .
                 ?d <bif:contains> "'kaliningrad'" . } LIMIT 400"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 2);
    }

    #[test]
    fn stardog_dialect_predicate_also_works() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            r#"SELECT ?v WHERE { ?v ?p ?d . ?d <tag:stardog:api:property:textMatch> "baltic" . }"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 1);
    }

    #[test]
    fn filter_numeric_comparison() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT ?city WHERE { ?city <http://dbpedia.org/ontology/populationTotal> ?pop . \
             FILTER (?pop > 100000) }",
        )
        .unwrap();
        assert_eq!(results.rows().len(), 1);
        let none = execute_query(
            &store,
            "SELECT ?city WHERE { ?city <http://dbpedia.org/ontology/populationTotal> ?pop . \
             FILTER (?pop > 1000000) }",
        )
        .unwrap();
        assert!(none.rows().is_empty());
    }

    #[test]
    fn filter_contains_and_regex_and_bound() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            r#"SELECT ?s WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l .
                FILTER (CONTAINS(?l, "sea")) }"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 2);

        let anchored = execute_query(
            &store,
            r#"SELECT ?s WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l .
                FILTER (REGEX(?l, "^baltic")) }"#,
        )
        .unwrap();
        assert_eq!(anchored.rows().len(), 1);

        let bound = execute_query(
            &store,
            r#"SELECT ?s ?t WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l .
                OPTIONAL { ?s a ?t . } FILTER (BOUND(?t)) }"#,
        )
        .unwrap();
        assert_eq!(bound.rows().len(), 2);
    }

    #[test]
    fn union_combines_branches() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT ?x WHERE { { ?x <http://dbpedia.org/property/outflow> ?y . } UNION \
             { ?x <http://dbpedia.org/ontology/nearestCity> ?y . } }",
        )
        .unwrap();
        assert_eq!(results.rows().len(), 3);
    }

    #[test]
    fn join_across_shared_variable() {
        let store = running_example_store();
        // Which class does the thing nearest to Kaliningrad belong to?
        let results = execute_query(
            &store,
            "SELECT ?type WHERE { ?sea <http://dbpedia.org/ontology/nearestCity> \
             <http://dbpedia.org/resource/Kaliningrad> . ?sea a ?type . }",
        )
        .unwrap();
        assert_eq!(results.rows().len(), 1);
        assert_eq!(
            results.rows().first().unwrap().get("type"),
            Some(&Term::iri("http://dbpedia.org/ontology/Sea"))
        );
    }

    #[test]
    fn empty_pattern_select_returns_single_empty_row_for_ask() {
        let store = running_example_store();
        let results = execute_query(&store, "ASK { }").unwrap();
        assert_eq!(results.as_boolean(), Some(true));
    }

    #[test]
    fn unbound_filter_variable_is_false_not_error() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT ?s WHERE { ?s <http://dbpedia.org/property/outflow> ?o . FILTER (?missing > 3) }",
        )
        .unwrap();
        assert!(results.rows().is_empty());
    }

    #[test]
    fn text_search_cap_accounts_for_offset() {
        // 20 literals all containing "city".  `LIMIT 10 OFFSET 4` must fetch
        // at least 14 text-search candidates so that after skipping 4 rows a
        // full page of 10 remains; capping fan-out at the bare LIMIT (the old
        // behaviour) starved the page down to 6 rows.
        let mut store = Store::new();
        for i in 0..20 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/c{i}")),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str(format!("city number {i}")),
            ));
        }
        let results = execute_query(
            &store,
            r#"SELECT ?d WHERE { ?d <bif:contains> "'city'" . } LIMIT 10 OFFSET 4"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 10);

        // Without OFFSET the LIMIT alone still caps the fan-out.
        let results = execute_query(
            &store,
            r#"SELECT ?d WHERE { ?d <bif:contains> "'city'" . } LIMIT 10"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 10);
    }

    #[test]
    fn repeated_variable_in_pattern_requires_equal_ids() {
        // ?x ?p ?x only matches triples whose subject and object coincide.
        let mut store = Store::new();
        let node = Term::iri("http://e/self");
        store.insert(Triple::new(
            node.clone(),
            Term::iri("http://e/loop"),
            node.clone(),
        ));
        store.insert(Triple::new(
            node.clone(),
            Term::iri("http://e/other"),
            Term::iri("http://e/elsewhere"),
        ));
        let results = execute_query(&store, "SELECT ?x WHERE { ?x ?p ?x . }").unwrap();
        assert_eq!(results.rows().len(), 1);
        assert_eq!(results.rows().first().unwrap().get("x"), Some(&node));
    }

    #[test]
    fn constant_absent_from_dictionary_yields_no_rows_not_an_error() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT ?s WHERE { ?s <http://never/interned> ?o . }",
        )
        .unwrap();
        assert!(results.rows().is_empty());
    }

    #[test]
    fn text_query_parsing_strips_connectives_and_quotes() {
        assert_eq!(
            parse_text_query("'danish' OR 'straits'"),
            vec!["danish", "straits"]
        );
        assert_eq!(parse_text_query("Jim AND Gray"), vec!["jim", "gray"]);
        assert_eq!(parse_text_query(""), Vec::<String>::new());
    }

    #[test]
    fn regex_lite_treats_only_one_anchor_as_meta() {
        // Single anchors behave as anchors.
        assert!(regex_lite("baltic sea", "^baltic"));
        assert!(regex_lite("baltic sea", "sea$"));
        assert!(regex_lite("baltic", "^baltic$"));
        assert!(!regex_lite("north baltic", "^baltic"));

        // A doubled anchor is one anchor + one literal character.  The old
        // trim_*_matches implementation stripped both, so `^^a` matched any
        // string starting with "a".
        assert!(!regex_lite("abc", "^^a"));
        assert!(regex_lite("^abc", "^^a"));
        assert!(!regex_lite("xa", "a$$"));
        assert!(regex_lite("xa$", "a$$"));
        assert!(regex_lite("a$", "^a$$"));
        assert!(!regex_lite("a", "^a$$"));

        // Interior anchors are plain characters.
        assert!(regex_lite("a^b", "a^b"));
        assert!(regex_lite("a$b", "a$b"));

        // Degenerate patterns.
        assert!(regex_lite("anything", "^"));
        assert!(regex_lite("anything", "$"));
        assert!(regex_lite("", "^$"));
        assert!(!regex_lite("x", "^$"));
    }

    #[test]
    fn regex_filter_with_doubled_anchor_matches_literal_caret() {
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/a"),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("^marked"),
        ));
        store.insert(Triple::new(
            Term::iri("http://e/b"),
            Term::iri(vocab::RDFS_LABEL),
            Term::literal_str("marked"),
        ));
        // `^^marked` = anchored literal "^marked": only http://e/a matches.
        let results = execute_query(
            &store,
            r#"SELECT ?s WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l .
                FILTER (REGEX(?l, "^^marked")) }"#,
        )
        .unwrap();
        assert_eq!(results.rows().len(), 1);
        assert_eq!(
            results.rows().first().unwrap().get("s"),
            Some(&Term::iri("http://e/a"))
        );
    }

    #[test]
    fn naive_evaluator_agrees_with_planned_execution() {
        let store = running_example_store();
        let queries = [
            "SELECT ?sea ?type WHERE { ?sea <http://dbpedia.org/property/outflow> ?x . \
             OPTIONAL { ?sea a ?type . } }",
            "SELECT ?x WHERE { { ?x <http://dbpedia.org/property/outflow> ?y . } UNION \
             { ?x <http://dbpedia.org/ontology/nearestCity> ?y . } }",
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o . }",
            r#"SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "'danish'" . }"#,
            "SELECT ?city WHERE { ?city <http://dbpedia.org/ontology/populationTotal> ?pop . \
             FILTER (?pop > 100000) }",
            "ASK { <http://dbpedia.org/resource/Baltic_Sea> a <http://dbpedia.org/ontology/Sea> }",
        ];
        for q in queries {
            let parsed = parse_query(q).unwrap();
            let planned = execute(&store, &parsed).unwrap();
            let naive = execute_naive(&store, &parsed).unwrap();
            match (planned, naive) {
                (QueryResults::Boolean(a), QueryResults::Boolean(b)) => assert_eq!(a, b, "{q}"),
                (QueryResults::Solutions(a), QueryResults::Solutions(b)) => {
                    let mut a: Vec<_> = a.rows().collect();
                    let mut b: Vec<_> = b.rows().collect();
                    let key = |r: &crate::results::Row| format!("{r:?}");
                    a.sort_by_key(key);
                    b.sort_by_key(key);
                    assert_eq!(a, b, "{q}");
                }
                _ => panic!("result kinds diverged for {q}"),
            }
        }
    }

    #[test]
    fn variable_predicate_patterns_work() {
        let store = running_example_store();
        let results = execute_query(
            &store,
            "SELECT ?p ?o WHERE { <http://dbpedia.org/resource/Baltic_Sea> ?p ?o . }",
        )
        .unwrap();
        assert_eq!(results.rows().len(), 4);
    }
}
