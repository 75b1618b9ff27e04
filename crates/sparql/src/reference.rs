//! The reference evaluator: the semantics oracle the planner and executor
//! are property-tested against.
//!
//! [`execute_naive`] is deliberately simple — it joins each basic graph
//! pattern's triple patterns in the exact order the AST lists them,
//! materialises every intermediate row set, and applies `DISTINCT`/
//! `OFFSET`/`LIMIT` to the finished rows.  It shares only the id-level
//! primitives of [`crate::eval`] (variable numbering, pattern compilation,
//! `FILTER` expressions, row flattening) with the production path; nothing in
//! [`crate::plan`] or [`crate::exec`] depends on this module.

use kgqan_rdf::Store;

use crate::ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use crate::error::SparqlError;
use crate::eval::{
    compile_triple_pattern, effective_text_cap, eval_expression, flatten_rows,
    is_text_search_pattern, term_truthiness, text_query_words, CompiledTriplePattern, IdRow, Slot,
    VarRegistry,
};
use crate::results::QueryResults;

/// Evaluate a parsed [`Query`] with the naive reference evaluator: triple
/// patterns are joined in the exact order the AST lists them, every
/// intermediate row set is fully materialised, and `DISTINCT`/`OFFSET`/
/// `LIMIT` truncate the final rows post-hoc.
///
/// This is **not** the production path — [`crate::execute`] plans and stops
/// early — but the semantics oracle the planner is property-tested
/// against, and the baseline the `sparql_planner` bench measures the
/// planner's win over.
/// The two paths return the same row multiset for every query; row *order*
/// (and therefore which rows a bare `LIMIT`/`OFFSET` page selects) may
/// differ, as SPARQL permits without `ORDER BY`.  The planned path may also
/// skip evaluation errors the naive order would hit (and vice versa) when a
/// reordered step proves the result empty before the erroring step runs.
pub fn execute_naive(store: &Store, query: &Query) -> Result<QueryResults, SparqlError> {
    let run = QueryRun::new(store, query);
    let compiled = run.compile_pattern(&query.pattern);
    let rows = run.eval_pattern(&compiled, vec![vec![None; run.vars.len()]])?;

    match &query.form {
        QueryForm::Ask => Ok(QueryResults::Boolean(!rows.is_empty())),
        QueryForm::Select {
            variables,
            distinct,
        } => {
            let projected: Vec<String> = if variables.is_empty() {
                query.pattern.variables()
            } else {
                variables.clone()
            };
            // Project, deduplicate and page while the rows are still
            // ids; only the surviving rows are flattened into the table.
            let slots: Vec<Option<usize>> = projected.iter().map(|v| run.vars.id_of(v)).collect();
            let mut id_rows: Vec<IdRow> = rows
                .into_iter()
                .map(|row| slots.iter().map(|slot| slot.and_then(|i| row[i])).collect())
                .collect();
            if *distinct {
                let mut seen = std::collections::HashSet::new();
                id_rows.retain(|row| seen.insert(row.clone()));
            }
            if let Some(offset) = query.offset {
                id_rows.drain(..offset.min(id_rows.len()));
            }
            if let Some(limit) = query.limit {
                id_rows.truncate(limit);
            }
            let cells = id_rows.concat();
            let table = flatten_rows(projected, &cells, id_rows.len(), run.store, Vec::new());
            Ok(QueryResults::Solutions(table))
        }
    }
}

/// One join step of a compiled basic graph pattern.
#[derive(Debug, Clone, Copy)]
enum CompiledStep<'q> {
    /// An index scan of an id-compiled pattern.
    Scan(CompiledTriplePattern),
    /// A full-text probe; kept as AST because the query string may come
    /// from a variable binding and is resolved per row.
    TextSearch(&'q TriplePatternAst),
    /// A constant term of the pattern is absent from the dictionary, so the
    /// pattern provably matches nothing in this store.
    NeverMatches,
}

/// A graph pattern compiled against the store: variables numbered, constant
/// terms resolved to dictionary ids and basic graph patterns join-ordered.
///
/// Built **once** per query run, so per-row re-evaluation (every left row of
/// an `OPTIONAL`, for instance) re-uses the resolved ids instead of
/// re-probing the dictionary and re-sorting the join order.
#[derive(Debug)]
enum CompiledPattern<'q> {
    Bgp(Vec<CompiledStep<'q>>),
    Join(Box<CompiledPattern<'q>>, Box<CompiledPattern<'q>>),
    Optional(Box<CompiledPattern<'q>>, Box<CompiledPattern<'q>>),
    Union(Box<CompiledPattern<'q>>, Box<CompiledPattern<'q>>),
    Filter(Box<CompiledPattern<'q>>, &'q Expression),
    /// A `SERVICE <kg:name>` group.  The naive evaluator has no resolver for
    /// other KGs, so this compiles to a deferred error (raised only if the
    /// group is actually evaluated): federated queries go through the
    /// planner (`Planner::with_services`).
    Service(&'q str),
}

/// The per-query evaluation state: the store, the variable numbering and the
/// effective text-search fan-out cap.
struct QueryRun<'a> {
    store: &'a Store,
    vars: VarRegistry,
    text_cap: usize,
}

impl<'a> QueryRun<'a> {
    fn new(store: &'a Store, query: &Query) -> Self {
        QueryRun {
            store,
            vars: VarRegistry::from_pattern(&query.pattern),
            text_cap: effective_text_cap(query),
        }
    }
}

impl QueryRun<'_> {
    /// Compile a graph pattern for the naive evaluator: resolve every
    /// constant term to its dictionary id, exactly once per query run,
    /// keeping each BGP's triple patterns in AST order.
    fn compile_pattern<'q>(&self, pattern: &'q GraphPattern) -> CompiledPattern<'q> {
        match pattern {
            GraphPattern::Bgp(tps) => CompiledPattern::Bgp(
                tps.iter()
                    .map(|tp| {
                        if is_text_search_pattern(tp) {
                            CompiledStep::TextSearch(tp)
                        } else {
                            match compile_triple_pattern(self.store, &self.vars, tp) {
                                Some(compiled) => CompiledStep::Scan(compiled),
                                None => CompiledStep::NeverMatches,
                            }
                        }
                    })
                    .collect(),
            ),
            GraphPattern::Join(a, b) => CompiledPattern::Join(
                Box::new(self.compile_pattern(a)),
                Box::new(self.compile_pattern(b)),
            ),
            GraphPattern::Optional(a, b) => CompiledPattern::Optional(
                Box::new(self.compile_pattern(a)),
                Box::new(self.compile_pattern(b)),
            ),
            GraphPattern::Union(a, b) => CompiledPattern::Union(
                Box::new(self.compile_pattern(a)),
                Box::new(self.compile_pattern(b)),
            ),
            GraphPattern::Filter(inner, expr) => {
                CompiledPattern::Filter(Box::new(self.compile_pattern(inner)), expr)
            }
            GraphPattern::Service { kg, .. } => CompiledPattern::Service(kg),
        }
    }

    fn eval_pattern(
        &self,
        pattern: &CompiledPattern<'_>,
        input: Vec<IdRow>,
    ) -> Result<Vec<IdRow>, SparqlError> {
        match pattern {
            CompiledPattern::Bgp(steps) => self.eval_bgp(steps, input),
            CompiledPattern::Join(a, b) => {
                let left = self.eval_pattern(a, input)?;
                self.eval_pattern(b, left)
            }
            CompiledPattern::Optional(a, b) => {
                let left = self.eval_pattern(a, input)?;
                let mut out = Vec::with_capacity(left.len());
                for row in left {
                    let extended = self.eval_pattern(b, vec![row.clone()])?;
                    if extended.is_empty() {
                        out.push(row);
                    } else {
                        out.extend(extended);
                    }
                }
                Ok(out)
            }
            CompiledPattern::Union(a, b) => {
                let mut left = self.eval_pattern(a, input.clone())?;
                let right = self.eval_pattern(b, input)?;
                left.extend(right);
                Ok(left)
            }
            CompiledPattern::Filter(inner, expr) => {
                let rows = self.eval_pattern(inner, input)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if eval_expression(self.store, &self.vars, expr, &row)?
                        .map(term_truthiness)
                        .unwrap_or(false)
                    {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            CompiledPattern::Service(kg) => Err(SparqlError::Service {
                kg: (*kg).to_string(),
                message: "the naive evaluator cannot execute SERVICE groups; \
                          plan the query with Planner::with_services"
                    .to_string(),
            }),
        }
    }

    fn eval_bgp(
        &self,
        steps: &[CompiledStep<'_>],
        input: Vec<IdRow>,
    ) -> Result<Vec<IdRow>, SparqlError> {
        if steps.is_empty() {
            return Ok(input);
        }
        let mut current = input;
        for step in steps {
            let mut next = Vec::new();
            match step {
                CompiledStep::Scan(tp) => {
                    for row in &current {
                        self.extend_row(tp, row, &mut next);
                    }
                }
                CompiledStep::TextSearch(tp) => {
                    for row in &current {
                        self.extend_with_text_search(tp, row, &mut next)?;
                    }
                }
                // A constant absent from the dictionary matches nothing:
                // `next` stays empty.
                CompiledStep::NeverMatches => {}
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Ok(current)
    }

    /// Extend one id row with all matches of one compiled triple pattern —
    /// the innermost join loop.  All comparisons are `TermId` equalities and
    /// no term is decoded.
    fn extend_row(&self, tp: &CompiledTriplePattern, row: &IdRow, out: &mut Vec<IdRow>) {
        for matched in self.store.scan(tp.encoded(|v| row[v])) {
            let mut extended = row.clone();
            let mut compatible = true;
            for (slot, id) in [
                (tp.subject, matched.subject),
                (tp.predicate, matched.predicate),
                (tp.object, matched.object),
            ] {
                if let Slot::Var(v) = slot {
                    match extended[v] {
                        Some(existing) if existing != id => {
                            // A variable repeated within the pattern matched
                            // two different ids.
                            compatible = false;
                            break;
                        }
                        _ => extended[v] = Some(id),
                    }
                }
            }
            if compatible {
                out.push(extended);
            }
        }
    }

    /// Evaluate a `?lit <bif:contains> "words"` pattern: bind the subject to
    /// every string literal containing any of the query words.  The text
    /// index yields literal `TermId`s directly, so this path stays entirely
    /// in id space.
    fn extend_with_text_search(
        &self,
        tp: &TriplePatternAst,
        row: &IdRow,
        out: &mut Vec<IdRow>,
    ) -> Result<(), SparqlError> {
        let words = text_query_words(self.store, &self.vars, tp, row)?;
        let word_refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let matches = self
            .store
            .text_index()
            .search_any(&word_refs, self.text_cap);

        match &tp.subject {
            VarOrTerm::Var(var) => {
                let slot = self
                    .vars
                    .id_of(var)
                    .expect("pattern variables are all registered");
                for m in matches {
                    match row[slot] {
                        Some(existing) if existing != m.literal => continue,
                        _ => {}
                    }
                    let mut extended = row.clone();
                    extended[slot] = Some(m.literal);
                    out.push(extended);
                }
            }
            VarOrTerm::Term(term) => {
                // Bound subject: keep the row iff that literal matches.
                let keeps = self
                    .store
                    .id_of(term)
                    .is_some_and(|id| matches.iter().any(|m| m.literal == id));
                if keeps {
                    out.push(row.clone());
                }
            }
        }
        Ok(())
    }
}
