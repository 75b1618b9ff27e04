//! Property-based tests for the cost-based planner: reordering joins,
//! pushing filters down and streaming with early termination must be
//! *semantically transparent*.  Every query is executed twice — through the
//! planner ([`execute`]) and through the naive AST-order reference
//! evaluator ([`execute_naive`]) — and the row multisets must coincide.

mod common;

use common::{
    arb_bgp, arb_filter_expr, arb_partly_sealed_store, arb_pattern, arb_store, row_multiset,
    select_query,
};
use kgqan_rdf::{Store, Term, Triple, TriplePattern};
use kgqan_sparql::ast::{GraphPattern, Query, QueryForm};
use kgqan_sparql::{execute, execute_naive, parse_query, Planner, QueryResults};
use proptest::prelude::*;

proptest! {
    /// Planned (reordered, filter-pushed, streaming) execution returns
    /// exactly the naive AST-order evaluator's row multiset, over random
    /// stores and patterns including OPTIONAL/UNION/FILTER and repeated
    /// variables.
    #[test]
    fn planned_equals_naive(store in arb_store(36), pattern in arb_pattern(), distinct in any::<bool>()) {
        let query = select_query(pattern, distinct);
        let planned = execute(&store, &query).expect("planned execution succeeds");
        let naive = execute_naive(&store, &query).expect("naive execution succeeds");
        prop_assert_eq!(row_multiset(&planned), row_multiset(&naive));
    }

    /// ASK queries agree between the two evaluators.
    #[test]
    fn planned_ask_equals_naive(store in arb_store(36), pattern in arb_pattern()) {
        let query = Query { form: QueryForm::Ask, pattern, limit: None, offset: None };
        let planned = execute(&store, &query).expect("planned execution succeeds");
        let naive = execute_naive(&store, &query).expect("naive execution succeeds");
        prop_assert_eq!(planned.as_boolean(), naive.as_boolean());
    }

    /// With LIMIT/OFFSET the planned page has the right length and every
    /// row it contains is a row of the unrestricted naive result.  (Which
    /// rows land on the page is order-dependent, and SPARQL fixes no order
    /// without ORDER BY.)
    #[test]
    fn planned_page_is_subset_of_naive_rows(
        store in arb_store(36),
        pattern in arb_pattern(),
        distinct in any::<bool>(),
        limit in 0usize..8,
        offset in 0usize..4,
    ) {
        let mut query = select_query(pattern, distinct);
        let full_naive = execute_naive(&store, &query).expect("naive execution succeeds");
        let full_rows = row_multiset(&full_naive);

        query.limit = Some(limit);
        query.offset = Some(offset);
        let page = execute(&store, &query).expect("planned execution succeeds");

        // Text-search fan-out is capped at LIMIT+OFFSET, so a paged query
        // may legitimately see fewer text matches than the uncapped run;
        // the page can only ever be *shorter* than the clamp, never longer,
        // and never invent rows.  Without a text pattern the page length is
        // exact.
        let expected = full_rows.len().saturating_sub(offset).min(limit);
        if query.has_text_search() {
            prop_assert!(
                page.rows().len() <= expected,
                "page of {} rows exceeds clamp {expected} (limit {limit} offset {offset})\nquery:\n{}",
                page.rows().len(), query.to_sparql()
            );
        } else {
            prop_assert_eq!(page.rows().len(), expected);
        }
        for row in page.rows() {
            let key = format!("{row:?}");
            prop_assert!(full_rows.contains(&key), "page row {key} not in full result\nquery:\n{}", query.to_sparql());
        }
    }

    /// `LIMIT n OFFSET k` returns rows `k..k + n`, in order, of the same
    /// query run with `LIMIT k + n` and no `OFFSET` (a run with nothing to
    /// skip walks every row it keeps), and touches no more index entries.
    /// A plan whose root BGP ends in a plain scan counts the offset off
    /// that step's ranges by their length; every other shape (`DISTINCT`
    /// over a narrow projection, a filter pushed after the last step,
    /// `?x p ?x`, `OPTIONAL`/`UNION` roots, text steps) walks it.  Root
    /// BGPs, half of them filtered, are drawn three times as often as every
    /// other shape, and stores mix sealed and pending triples.
    #[test]
    fn an_offset_page_is_a_slice_of_the_unskipped_run(
        store in arb_partly_sealed_store(48),
        pattern in prop_oneof![arb_pattern(), arb_bgp(), filtered_bgp(), filtered_bgp()],
        projection in prop::collection::vec(0u32..4, 0..3),
        distinct in any::<bool>(),
        limit in 0usize..8,
        offset in 0usize..12,
    ) {
        let rows = |results: &QueryResults| -> Vec<String> {
            results.rows().iter().map(|row| format!("{row:?}")).collect()
        };
        let variables = projection.iter().map(|v| format!("v{v}")).collect();
        let mut query = select_query(pattern, distinct);
        query.form = QueryForm::Select { variables, distinct };
        query.limit = Some(offset + limit);
        let unskipped = Planner::new(&store).plan(&query).execute().expect("planned execution succeeds");
        query.limit = Some(limit);
        query.offset = Some(offset);
        let page = Planner::new(&store).plan(&query).execute().expect("planned execution succeeds");

        let expected: Vec<String> = rows(&unskipped.results).into_iter().skip(offset).collect();
        prop_assert!(
            rows(&page.results) == expected,
            "page {:?} is not rows {offset}.. of {:?}\nquery:\n{}",
            rows(&page.results), rows(&unskipped.results), query.to_sparql()
        );
        prop_assert!(
            page.metrics.rows_scanned <= unskipped.metrics.rows_scanned,
            "the page scanned {}, the unskipped run {}\nquery:\n{}",
            page.metrics.rows_scanned, unskipped.metrics.rows_scanned, query.to_sparql()
        );
    }

    /// Serialising a generated query and parsing the text back yields the
    /// same AST, however OPTIONAL / UNION / FILTER / joins are nested.
    #[test]
    fn to_sparql_round_trips_through_the_parser(
        pattern in arb_pattern(),
        distinct in any::<bool>(),
        page in prop::option::of((0usize..8, 0usize..4)),
    ) {
        let mut query = select_query(pattern, distinct);
        if let Some((limit, offset)) = page {
            query.limit = Some(limit);
            query.offset = Some(offset);
        }
        let text = query.to_sparql();
        let reparsed = parse_query(&text);
        prop_assert!(
            reparsed.as_ref() == Ok(&query),
            "round trip changed the query\ntext:\n{text}\nreparsed: {reparsed:?}"
        );
    }

    /// A `LIMIT k` scan over a store with many matches stops after ~k index
    /// entries instead of materialising all of them.
    #[test]
    fn limit_bounds_rows_scanned(total in 50usize..300, k in 1usize..20) {
        let mut store = Store::new();
        for i in 0..total {
            store.insert(Triple::new(
                Term::iri(format!("http://g/e{i}")),
                Term::iri("http://g/p0"),
                Term::iri(format!("http://g/n{}", i % 7)),
            ));
        }
        let query = parse_query(&format!(
            "SELECT ?s WHERE {{ ?s <http://g/p0> ?o . }} LIMIT {k}"
        ))
        .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        prop_assert_eq!(run.results.rows().len(), k.min(total));
        prop_assert!(
            run.metrics.rows_scanned <= k as u64,
            "LIMIT {} scanned {} of {} rows",
            k, run.metrics.rows_scanned, total
        );
    }
}

/// A BGP under one `FILTER`, which the planner pushes down to the step
/// that binds the filter's last variable: often the last step.
fn filtered_bgp() -> impl Strategy<Value = GraphPattern> {
    (arb_bgp(), arb_filter_expr()).prop_map(|(bgp, expr)| GraphPattern::Filter(Box::new(bgp), expr))
}

/// A store of directed edges `n{from} p{hop} n{to}`: a few on hop 0, many
/// on every later hop, so the planner drives a join from hop 0.  The later
/// hops are inserted first and so number the nodes.  Edges past `sealed`
/// are inserted after a compaction and wait in the pending view, so seeks
/// run over a base run and a view at once.
fn hop_store(first_hop: &[(u32, u32)], later_hops: &[(u32, u32, u32)], sealed: usize) -> Store {
    let edge = |from: u32, hop: u32, to: u32| {
        Triple::new(
            Term::iri(format!("http://g/n{from}")),
            Term::iri(format!("http://g/p{hop}")),
            Term::iri(format!("http://g/n{to}")),
        )
    };
    let edges: Vec<Triple> = later_hops
        .iter()
        .map(|&(from, hop, to)| edge(from, hop, to))
        .chain(first_hop.iter().map(|&(from, to)| edge(from, 0, to)))
        .collect();
    let mut store = Store::new();
    store.insert_all(edges.iter().take(sealed).cloned());
    store.compact();
    store.insert_all(edges.into_iter().skip(sealed));
    store
}

/// `SELECT * WHERE { ?x0 <p0> ?x1 . ?xa <p1> ?x2 . ?xb <p2> ?x3 … }`: hop
/// `i` (from 1) leaves from the variable `attach[i - 1] % (i + 1)`, so the
/// query is a chain, a star on `?x0`, or a tree between the two.
fn hop_query(attach: &[usize]) -> Query {
    let patterns: String = attach
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let hop = i + 1;
            format!("?x{} <http://g/p{hop}> ?x{} . ", a % (hop + 1), hop + 1)
        })
        .collect();
    parse_query(&format!(
        "SELECT * WHERE {{ ?x0 <http://g/p0> ?x1 . {patterns}}}"
    ))
    .unwrap()
}

proptest! {
    /// Multi-step joins whose inner seeks are not monotone.  The driver
    /// scans `?x0 <p0> ?x1` in (p, o, s) order: `?x1` rises, `?x0` jumps, so
    /// a hop leaving `?x0` seeks falling keys; a hop leaving `?x1` gets
    /// rising keys, and the hop after it gets keys that rise within one
    /// `?x1` and fall back at the next.  Each step threads one index cursor
    /// through its seeks (forward gallops and backward searches, over a
    /// base run and a pending view); the planned rows, in full and paged,
    /// equal the naive evaluator's.
    #[test]
    fn joins_with_non_monotone_inner_seeks_equal_naive(
        first_hop in prop::collection::vec((0u32..30, 0u32..30), 1..12),
        later_hops in prop::collection::vec((0u32..30, 1u32..4, 0u32..30), 40..160),
        sealed in 0usize..200,
        attach in prop::collection::vec(0usize..4, 1..4),
        limit in 0usize..12,
    ) {
        let store = hop_store(&first_hop, &later_hops, sealed);
        let mut query = hop_query(&attach);
        let full = Planner::new(&store).plan(&query).execute().unwrap();
        let naive = execute_naive(&store, &query).unwrap();
        let naive_rows = row_multiset(&naive);
        prop_assert_eq!(row_multiset(&full.results), naive_rows.clone());

        query.limit = Some(limit);
        let page = execute(&store, &query).unwrap();
        prop_assert_eq!(page.rows().len(), limit.min(naive_rows.len()));
        for row in page.rows() {
            let key = format!("{row:?}");
            prop_assert!(naive_rows.contains(&key), "page row {key} not in the naive rows");
        }
    }
}

/// The star shape above does seek backwards: in a fixed store, the driver
/// scan hands the hop leaving `?x0` ids that fall twice, and the planned
/// run still equals the naive one.
#[test]
fn a_star_driver_hands_its_inner_step_falling_keys() {
    let later_hops: Vec<(u32, u32, u32)> = (0..30).map(|i| (i % 10, 1, (i * 7) % 10)).collect();
    let first_hop = [(0, 3), (0, 7), (1, 1), (1, 5), (2, 2)];
    let store = hop_store(&first_hop, &later_hops, 3);
    let query = hop_query(&[0]);

    let plan = Planner::new(&store).plan(&query);
    let summary = plan.summary();
    let driver = &summary
        .ops
        .iter()
        .find(|op| op.label.starts_with("scan"))
        .unwrap()
        .label;
    assert!(
        driver.contains("<http://g/p0>"),
        "hop 0 must drive:\n{summary}"
    );
    let hop0 = store
        .encode_pattern(&TriplePattern::any().with_predicate(Term::iri("http://g/p0")))
        .unwrap();
    let seeks: Vec<u32> = store.scan(hop0).map(|t| t.subject.0).collect();
    let falls = seeks.windows(2).filter(|pair| pair[1] < pair[0]).count();
    assert_eq!(falls, 2, "driver subjects in scan order: {seeks:?}");

    let run = plan.execute().unwrap();
    let naive = execute_naive(&store, &query).unwrap();
    assert_eq!(row_multiset(&run.results), row_multiset(&naive));
    assert!(!naive.rows().is_empty());
}

/// A deterministic two-hop join: planned and naive execution agree, and the
/// executor reports its scan work.
#[test]
fn two_hop_join_agrees_with_naive_and_reports_work() {
    let mut store = Store::new();
    for i in 0..40 {
        store.insert(Triple::new(
            Term::iri(format!("http://g/n{}", i % 10)),
            Term::iri(format!("http://g/p{}", i % 3)),
            Term::iri(format!("http://g/n{}", (i + 1) % 10)),
        ));
    }
    let query =
        parse_query("SELECT ?a ?b ?c WHERE { ?a <http://g/p0> ?b . ?b <http://g/p1> ?c . }")
            .unwrap();
    let run = Planner::new(&store).plan(&query).execute().unwrap();
    let naive = execute_naive(&store, &query).unwrap();
    assert_eq!(row_multiset(&run.results), row_multiset(&naive));
    assert!(run.metrics.rows_scanned >= run.metrics.rows_emitted);
}
