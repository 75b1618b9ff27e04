//! Generators and fixtures shared by the integration suites of this crate:
//! random stores and queries over small closed alphabets (so joins, repeated
//! variables and text-search hits all occur frequently), and the skewed
//! store the ordered golden test runs over.

#![allow(dead_code)] // each suite uses its own subset

use kgqan_rdf::{vocab, Store, Term, Triple};
use kgqan_sparql::ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use kgqan_sparql::QueryResults;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

// ---------------------------------------------------------------------------
// Store generation.
// ---------------------------------------------------------------------------

fn arb_node() -> impl Strategy<Value = Term> {
    (0u32..20).prop_map(|i| Term::iri(format!("http://g/n{i}")))
}

fn arb_predicate() -> impl Strategy<Value = Term> {
    (0u32..5).prop_map(|i| Term::iri(format!("http://g/p{i}")))
}

/// String literals drawn from a tiny word pool, so `bif:contains` probes
/// and `CONTAINS` filters actually match.
fn arb_label() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just("baltic sea"),
        Just("north sea shore"),
        Just("danish straits"),
        Just("kaliningrad city"),
        Just("city on the shore"),
    ]
    .prop_map(Term::literal_str)
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![arb_node(), arb_label(), (0i64..400).prop_map(Term::integer),]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_node(), arb_predicate(), arb_object()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// A random store of fewer than `max_triples` triples.
pub fn arb_store(max_triples: usize) -> impl Strategy<Value = Store> {
    prop::collection::vec(arb_triple(), 0..max_triples).prop_map(|triples| {
        let mut store = Store::new();
        store.insert_all(triples);
        store
    })
}

/// A random store of fewer than `max_triples` triples, a third of them
/// self-loops (`n p n`, the entries `?x p ?x` keeps), with a random prefix
/// compacted into the base runs and the rest left pending, so scans merge a
/// base run with a pending view.
pub fn arb_partly_sealed_store(max_triples: usize) -> impl Strategy<Value = Store> {
    let self_loop =
        || (arb_node(), arb_predicate()).prop_map(|(n, p)| Triple::new(n.clone(), p, n));
    let triple = prop_oneof![arb_triple(), arb_triple(), self_loop()];
    (
        prop::collection::vec(triple, 0..max_triples),
        0..max_triples,
    )
        .prop_map(|(triples, sealed)| {
            let mut store = Store::new();
            store.insert_all(triples.iter().take(sealed).cloned());
            store.compact();
            store.insert_all(triples.into_iter().skip(sealed));
            store
        })
}

// ---------------------------------------------------------------------------
// Pattern generation: variables from a 4-name pool (repeats guaranteed),
// every position independently var-or-term, plus text search, and
// OPTIONAL / UNION / FILTER / join shapes nested up to three levels deep.
// ---------------------------------------------------------------------------

fn arb_var() -> impl Strategy<Value = String> {
    (0u32..4).prop_map(|i| format!("v{i}"))
}

fn arb_subject_pos() -> impl Strategy<Value = VarOrTerm> {
    prop_oneof![
        arb_var().prop_map(VarOrTerm::Var),
        arb_var().prop_map(VarOrTerm::Var),
        arb_node().prop_map(VarOrTerm::Term),
    ]
}

fn arb_predicate_pos() -> impl Strategy<Value = VarOrTerm> {
    prop_oneof![
        arb_var().prop_map(VarOrTerm::Var),
        arb_predicate().prop_map(VarOrTerm::Term),
        arb_predicate().prop_map(VarOrTerm::Term),
        arb_predicate().prop_map(VarOrTerm::Term),
    ]
}

fn arb_object_pos() -> impl Strategy<Value = VarOrTerm> {
    prop_oneof![
        arb_var().prop_map(VarOrTerm::Var),
        arb_var().prop_map(VarOrTerm::Var),
        arb_object().prop_map(VarOrTerm::Term),
    ]
}

fn arb_tp() -> impl Strategy<Value = TriplePatternAst> {
    (arb_subject_pos(), arb_predicate_pos(), arb_object_pos())
        .prop_map(|(s, p, o)| TriplePatternAst::new(s, p, o))
}

/// A valid text-search pattern: variable subject, `bif:contains` predicate,
/// constant literal query string.
fn arb_text_tp() -> impl Strategy<Value = TriplePatternAst> {
    (
        arb_var(),
        prop_oneof![Just("'sea'"), Just("'danish' OR 'city'"), Just("'shore'")],
    )
        .prop_map(|(v, words)| {
            TriplePatternAst::new(
                VarOrTerm::Var(v),
                VarOrTerm::Term(Term::iri("bif:contains")),
                VarOrTerm::Term(Term::literal_str(words)),
            )
        })
}

/// A BGP of 1–3 ordinary patterns, optionally carrying a text-search
/// pattern as its first or last pattern.
pub fn arb_bgp() -> impl Strategy<Value = GraphPattern> {
    (
        prop::collection::vec(arb_tp(), 1..4),
        prop::option::of(arb_text_tp()),
        any::<bool>(),
    )
        .prop_map(|(mut tps, text, front)| {
            if let Some(text) = text {
                if front {
                    tps.insert(0, text);
                } else {
                    tps.push(text);
                }
            }
            GraphPattern::Bgp(tps)
        })
}

pub fn arb_filter_expr() -> impl Strategy<Value = Expression> {
    let var = || arb_var().prop_map(|v| Box::new(Expression::Var(v)));
    prop_oneof![
        (var(), var()).prop_map(|(a, b)| Expression::Neq(a, b)),
        arb_var().prop_map(Expression::Bound),
        (var(), 0i64..400)
            .prop_map(|(a, n)| Expression::Gt(a, Box::new(Expression::Constant(Term::integer(n))))),
        (var(), prop_oneof![Just("sea"), Just("city"), Just("n1")]).prop_map(|(a, w)| {
            Expression::Contains(a, Box::new(Expression::Constant(Term::literal_str(w))))
        }),
    ]
}

/// Composite patterns up to three operators deep: BGPs joined, made
/// OPTIONAL, UNIONed and FILTERed in every nesting — `OPTIONAL { {A} UNION
/// {B} }`, nested OPTIONALs, a FILTER under a UNION branch, joins of
/// non-BGPs — on top of the flat shapes KGQAn's candidate queries take.
pub fn arb_pattern() -> BoxedStrategy<GraphPattern> {
    arb_pattern_at(3)
}

fn arb_pattern_at(depth: u32) -> BoxedStrategy<GraphPattern> {
    if depth == 0 {
        return arb_bgp().boxed();
    }
    let sub = || arb_pattern_at(depth - 1);
    let pair = |make: fn(Box<GraphPattern>, Box<GraphPattern>) -> GraphPattern| {
        (sub(), sub()).prop_map(move |(a, b)| make(Box::new(a), Box::new(b)))
    };
    prop_oneof![
        arb_bgp(),
        arb_bgp(),
        pair(GraphPattern::Join),
        pair(GraphPattern::Optional),
        pair(GraphPattern::Union),
        (sub(), arb_filter_expr()).prop_map(|(inner, e)| GraphPattern::Filter(Box::new(inner), e)),
    ]
    .boxed()
}

/// `SELECT [DISTINCT] * WHERE { pattern }`.
pub fn select_query(pattern: GraphPattern, distinct: bool) -> Query {
    Query {
        form: QueryForm::Select {
            variables: Vec::new(),
            distinct,
        },
        pattern,
        limit: None,
        offset: None,
    }
}

/// Canonical multiset representation of a solution sequence.
pub fn row_multiset(results: &QueryResults) -> Vec<String> {
    let mut rows: Vec<String> = results.rows().iter().map(|b| format!("{b:?}")).collect();
    rows.sort();
    rows
}

// ---------------------------------------------------------------------------
// The skewed store (the same one the in-crate planner tests use).
// ---------------------------------------------------------------------------

/// A store where join order matters: 200 people born in 4 cities, one
/// person also a member of a tiny club.
pub fn skewed_store() -> Store {
    let mut store = Store::new();
    let born = Term::iri("http://e/bornIn");
    let member = Term::iri("http://e/memberOf");
    let label = Term::iri(vocab::RDFS_LABEL);
    for i in 0..200 {
        let person = Term::iri(format!("http://e/person{i}"));
        let city = Term::iri(format!("http://e/city{}", i % 4));
        store.insert(Triple::new(person.clone(), born.clone(), city));
        store.insert(Triple::new(
            person,
            label.clone(),
            Term::literal_str(format!("person number {i}")),
        ));
    }
    store.insert(Triple::new(
        Term::iri("http://e/person7"),
        member,
        Term::iri("http://e/club"),
    ));
    store
}
