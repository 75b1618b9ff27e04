//! The SPARQL-JSON page writer writes the very bytes of the plain
//! term-by-term writer it replaced, over tables whose cells resolve through
//! a result's own side table (`ResultSet::new`) and through a sealed store
//! dictionary (a query over a published snapshot).
//!
//! The generated text holds what a writer can get wrong: `"`, `\`, control
//! bytes and multibyte UTF-8 in IRIs, literals, language tags, datatypes,
//! blank-node labels and variable names.  The tables hold unbound cells, a
//! variable projected twice, one term in several columns, and columns with
//! more distinct terms than a column memo has slots, so slots are taken
//! over while a page is written.  CI runs
//! `PROPTEST_CASES=2000 cargo test --release -p kgqan-server --test wire_properties`.

use kgqan_endpoint::json::{write_json_string, Json};
use kgqan_rdf::{Literal, LiveStore, Store, Term, Triple};
use kgqan_server::wire::{query_results_to_json, write_term};
use kgqan_sparql::{parse_query, ExecOptions, Planner, QueryResults, ResultSet};
use proptest::prelude::*;

/// The writer the page writer replaced: every cell written term by term
/// through `write_json_string`.
mod oracle {
    use super::*;

    fn write_term(out: &mut String, term: &Term) {
        out.push_str("{\"type\":");
        match term {
            Term::Iri(iri) => {
                out.push_str("\"uri\",\"value\":");
                write_json_string(out, iri);
            }
            Term::Blank(label) => {
                out.push_str("\"bnode\",\"value\":");
                write_json_string(out, label);
            }
            Term::Literal(lit) => {
                out.push_str("\"literal\",\"value\":");
                write_json_string(out, &lit.lexical);
                if let Some(dt) = &lit.datatype {
                    out.push_str(",\"datatype\":");
                    write_json_string(out, dt);
                }
                if let Some(lang) = &lit.language {
                    out.push_str(",\"xml:lang\":");
                    write_json_string(out, lang);
                }
            }
        }
        out.push('}');
    }

    pub fn term_to_json(term: &Term) -> String {
        let mut out = String::new();
        write_term(&mut out, term);
        out
    }

    pub fn query_results_to_json(results: &QueryResults) -> String {
        let rs = match results {
            QueryResults::Boolean(b) => return format!("{{\"head\":{{}},\"boolean\":{b}}}"),
            QueryResults::Solutions(rs) => rs,
        };
        let variables = rs.variables();
        let mut by_name: Vec<usize> = (0..variables.len()).collect();
        by_name.sort_by_key(|&column| &variables[column]);
        by_name.dedup_by_key(|column| &variables[*column]);
        let names: Vec<String> = variables
            .iter()
            .map(|var| {
                let mut name = String::new();
                write_json_string(&mut name, var);
                name
            })
            .collect();
        let mut out = String::from("{\"head\":{\"vars\":[");
        out.push_str(&names.join(","));
        out.push_str("]},\"results\":{\"bindings\":[");
        for (i, row) in rs.rows().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let cells = by_name
                .iter()
                .filter_map(|&column| Some((column, row.cell(column)?)));
            for (j, (column, term)) in cells.enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&names[column]);
                out.push(':');
                write_term(&mut out, term);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// Characters of generated text: plain ASCII, the three kinds JSON
/// escapes, DEL (which it does not), and two-, three- and four-byte UTF-8.
const ALPHABET: [char; 16] = [
    'a', 'b', 'Z', '0', '/', ':', '#', '"', '\\', '\u{0}', '\u{1}', '\n', '\t', '\u{1f}', '\u{7f}',
    'é',
];
const WIDE: [char; 2] = ['日', '😀'];

/// Up to 11 generated characters; one text in three is an IRI that holds
/// them twice, long enough that a word-at-a-time scan sees more than a
/// tail.
fn text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0usize..ALPHABET.len() + WIDE.len(), 0..12),
        0usize..3,
    )
        .prop_map(|(chars, long)| {
            let piece: String = chars
                .iter()
                .map(|&c| ALPHABET.get(c).copied().unwrap_or(WIDE[c % WIDE.len()]))
                .collect();
            if long == 0 {
                format!("http://example.org/resource/{piece}{piece}")
            } else {
                piece
            }
        })
}

/// Any term: IRIs, blank nodes, and literals plain, language-tagged,
/// typed, or (as the struct allows) both.
fn term() -> impl Strategy<Value = Term> {
    (0usize..6, text(), text(), text()).prop_map(|(kind, value, lang, datatype)| match kind {
        0 | 1 => Term::iri(value),
        2 => Term::blank(value),
        3 => Term::literal_str(value),
        4 => Term::literal_lang(value, lang),
        _ => Term::Literal(Literal {
            lexical: value,
            datatype: Some(datatype),
            language: (lang.len() % 2 == 0).then_some(lang),
        }),
    })
}

/// Variable names, one of them in need of escaping.
const NAMES: [&str; 5] = ["x", "a", "long_name", "b", "w\"e\\ird\u{1}é"];

/// The page writer's bytes equal the oracle's, and parse as JSON.
fn check(results: &QueryResults) -> Result<(), TestCaseError> {
    let written = query_results_to_json(results);
    prop_assert_eq!(&written, &oracle::query_results_to_json(results));
    prop_assert!(Json::parse(&written).is_ok(), "not JSON: {written}");
    Ok(())
}

/// `query` over a store of `triples`, published as a sealed snapshot, so
/// the result's cells are dictionary ids.
fn run(triples: Vec<Triple>, query: &str) -> QueryResults {
    let mut store = Store::new();
    store.insert_all(triples);
    let snapshot = LiveStore::new(store).snapshot();
    let query = parse_query(query).expect("a valid query");
    let run = Planner::for_shared_snapshot(&snapshot)
        .plan(&query)
        .execute_with(ExecOptions::default())
        .expect("the query runs");
    run.results
}

const P: &str = "http://example.org/p";
const Q: &str = "http://example.org/q";

proptest! {
    #[test]
    fn side_table_pages_equal_the_oracle(
        vars in prop::collection::vec(0usize..NAMES.len(), 0..5),
        cells in prop::collection::vec(prop::option::of(term()), 0..60),
        bare_rows in 0usize..4,
    ) {
        // Names may repeat: `SELECT ?x ?x` binds one name in two columns.
        let variables: Vec<String> = vars.iter().map(|&v| NAMES[v].to_string()).collect();
        let width = variables.len();
        let rows = cells.len().checked_div(width).unwrap_or(bare_rows);
        let cells = cells.into_iter().take(rows * width);
        check(&QueryResults::Solutions(ResultSet::new(variables, rows, cells)))?;
    }

    #[test]
    fn dictionary_pages_equal_the_oracle(
        nodes in prop::collection::vec(term(), 1..12),
        edges in prop::collection::vec((0usize..64, 0usize..64, 0usize..3), 1..60),
    ) {
        // Objects are any term of the pool, subjects the pool with each
        // literal read as a blank node, so one term can sit in several
        // columns.
        let subjects: Vec<Term> = nodes
            .iter()
            .map(|term| match term {
                Term::Literal(lit) => Term::blank(lit.lexical.clone()),
                other => other.clone(),
            })
            .collect();
        let triples: Vec<Triple> = edges
            .iter()
            .map(|&(s, o, p)| {
                let predicate = Term::iri(if p == 0 { Q } else { P });
                let s = subjects[s % subjects.len()].clone();
                Triple::new(s, predicate, nodes[o % nodes.len()].clone())
            })
            .collect();
        for query in [
            format!("SELECT ?s ?o WHERE {{ ?s <{P}> ?o . }}"),
            format!("SELECT ?o ?s ?o WHERE {{ ?s <{P}> ?o . }}"),
            format!("SELECT ?s ?o ?z WHERE {{ ?s <{P}> ?o . OPTIONAL {{ ?o <{Q}> ?z . }} }}"),
            format!("SELECT ?o ?z ?s WHERE {{ ?s ?p ?o . OPTIONAL {{ ?z <{Q}> ?s . }} }}"),
        ] {
            check(&run(triples.clone(), &query))?;
        }
    }

    #[test]
    fn columns_with_more_terms_than_memo_slots_equal_the_oracle(
        distinct in 257usize..700,
        picks in prop::collection::vec(0usize..1 << 20, 300..1500),
        weird in text(),
    ) {
        // Every object is drawn from `distinct` terms, one in eight of them
        // holding escaped text, and repeats in no particular order.
        let object = |i: usize| match i % 8 {
            0 => Term::iri(format!("http://example.org/o/{i}/{weird}")),
            1 => Term::literal_lang(format!("{weird}{i}"), "en"),
            _ => Term::iri(format!("http://example.org/o/{i}")),
        };
        let triples: Vec<Triple> = picks
            .iter()
            .enumerate()
            .map(|(n, &pick)| {
                Triple::new(
                    Term::iri(format!("http://example.org/s/{}", n % 37)),
                    Term::iri(P),
                    object(pick % distinct),
                )
            })
            .collect();
        check(&run(triples, &format!("SELECT ?o ?s WHERE {{ ?s <{P}> ?o . }}")))?;
    }

    #[test]
    fn terms_equal_the_oracle(term in term()) {
        let mut written = String::new();
        write_term(&mut written, &term);
        prop_assert_eq!(written, oracle::term_to_json(&term));
    }
}

#[test]
fn booleans_equal_the_oracle() {
    for b in [true, false] {
        let results = QueryResults::Boolean(b);
        assert_eq!(
            query_results_to_json(&results),
            oracle::query_results_to_json(&results)
        );
    }
}
