//! Ordered golden outputs of the engine over the skewed store.
//!
//! SPARQL fixes no row order without `ORDER BY`, so the property suites
//! compare multisets — which would not notice an executor rewrite that
//! reorders rows (and thereby changes what every `LIMIT`/`OFFSET` page
//! holds).  This test pins the exact row *sequence* and the exact
//! `rows_scanned` of a fixed set of queries.  The expectations were recorded
//! from the boxed-iterator executor that preceded the depth-first one; the
//! entries whose count differs from that recording say so.  The entries
//! added since pin rows the executor produced before it learned to count
//! an `OFFSET` off by index range length, and the counts it makes now; the
//! four batched-count entries pin the rows and counts the executor made
//! before it counted a batch of ranges in one call.

mod common;

use common::skewed_store;
use kgqan_rdf::Term;
use kgqan_sparql::{parse_query, Planner, QueryResults};

const PREFIXES: &str =
    "PREFIX e: <http://e/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> ";

/// One golden entry: query text (after [`PREFIXES`]), the index and
/// text-index entries the run must touch, and the rows in order.  A row is
/// its projected values separated by spaces: IRIs without the `http://e/`
/// prefix, literals quoted, `-` for unbound; an ASK verdict is one row.
struct Golden {
    query: &'static str,
    rows_scanned: u64,
    rows: &'static [&'static str],
}

const GOLDEN: &[Golden] = &[
    Golden {
        query: "SELECT ?p WHERE { ?p e:bornIn e:city1 . }",
        rows_scanned: 50,
        rows: &["person1", "person5", "person9", "person13", "person17", "person21", "person25", "person29", "person33", "person37", "person41", "person45", "person49", "person53", "person57", "person61", "person65", "person69", "person73", "person77", "person81", "person85", "person89", "person93", "person97", "person101", "person105", "person109", "person113", "person117", "person121", "person125", "person129", "person133", "person137", "person141", "person145", "person149", "person153", "person157", "person161", "person165", "person169", "person173", "person177", "person181", "person185", "person189", "person193", "person197"],
    },
    Golden {
        query: "SELECT DISTINCT ?c WHERE { ?p e:bornIn ?c . }",
        rows_scanned: 200,
        rows: &["city0", "city1", "city2", "city3"],
    },
    Golden {
        query: "SELECT ?p ?c WHERE { ?p e:bornIn ?c . } LIMIT 5",
        rows_scanned: 5,
        rows: &["person0 city0", "person4 city0", "person8 city0", "person12 city0", "person16 city0"],
    },
    Golden {
        query: "SELECT ?p ?c WHERE { ?p e:bornIn ?c . } LIMIT 5 OFFSET 5",
        // The recording scanned 10: it walked the five offset rows.  The
        // one scan is the root BGP's last step, so it skips them by count.
        rows_scanned: 5,
        rows: &["person20 city0", "person24 city0", "person28 city0", "person32 city0", "person36 city0"],
    },
    // Each city3 person has a range of 2 outgoing edges, person7 one of 3.
    // OFFSET 9 counts off four whole inner ranges (3, 7, 11, 15).
    Golden {
        query: "SELECT ?p ?r ?o WHERE { ?p e:bornIn e:city3 . ?p ?r ?o . } LIMIT 3 OFFSET 9",
        rows_scanned: 9,
        rows: &["person19 bornIn city3", "person19 http://www.w3.org/2000/01/rdf-schema#label \"person number 19\"", "person23 bornIn city3"],
    },
    // OFFSET 6 ends inside person11's range: one of its entries is skipped.
    Golden {
        query: "SELECT ?p ?r ?o WHERE { ?p e:bornIn e:city3 . ?p ?r ?o . } LIMIT 3 OFFSET 6",
        rows_scanned: 7,
        rows: &["person11 http://www.w3.org/2000/01/rdf-schema#label \"person number 11\"", "person15 bornIn city3", "person15 http://www.w3.org/2000/01/rdf-schema#label \"person number 15\""],
    },
    // The offset is counted off the last step's ranges a batch of the
    // first step's entries at a time.  Here it crosses two full batches
    // (37 whole ranges) and ends inside the 38th, person151's.
    Golden {
        query: "SELECT ?p ?r ?o WHERE { ?p e:bornIn e:city3 . ?p ?r ?o . } LIMIT 3 OFFSET 76",
        rows_scanned: 42,
        rows: &["person151 http://www.w3.org/2000/01/rdf-schema#label \"person number 151\"", "person155 bornIn city3", "person155 http://www.w3.org/2000/01/rdf-schema#label \"person number 155\""],
    },
    // The first step's entries come in city order, so a batch seeks one
    // last-step pattern (`?x bornIn city0`) over and over: 24 ranges of
    // 50 are skipped, and the offset ends 34 rows into the 25th.
    Golden {
        query: "SELECT ?p ?x WHERE { ?p e:bornIn ?c . ?x e:bornIn ?c . } LIMIT 3 OFFSET 1234",
        rows_scanned: 28,
        rows: &["person96 person136", "person96 person140", "person96 person144"],
    },
    // The step before the last repeats a variable, and its one entry
    // (person7 memberOf club) does not bind: it yields no rows to skip.
    Golden {
        query: "SELECT ?s ?c WHERE { ?s e:memberOf ?s . ?s e:bornIn ?c . } LIMIT 3 OFFSET 1",
        rows_scanned: 1,
        rows: &[],
    },
    // A filter on the step before the last: the 50 city0 entries are
    // dropped there and yield no rows to skip, then 20 city1 ranges are
    // skipped and the offset ends inside the 21st.
    Golden {
        query: "SELECT ?p ?r ?o WHERE { ?p e:bornIn ?c . ?p ?r ?o . FILTER (?c != e:city0) } LIMIT 3 OFFSET 41",
        rows_scanned: 75,
        rows: &["person81 http://www.w3.org/2000/01/rdf-schema#label \"person number 81\"", "person85 bornIn city1", "person85 http://www.w3.org/2000/01/rdf-schema#label \"person number 85\""],
    },
    // Where an entry need not be one row the offset is walked: DISTINCT,
    // a filter after the last step, and a variable twice in one pattern
    // (no entry of this store is a self-loop, so all 401 are touched).
    Golden {
        query: "SELECT DISTINCT ?p ?r ?o WHERE { ?p e:bornIn e:city3 . ?p ?r ?o . } LIMIT 3 OFFSET 6",
        rows_scanned: 13,
        rows: &["person11 http://www.w3.org/2000/01/rdf-schema#label \"person number 11\"", "person15 bornIn city3", "person15 http://www.w3.org/2000/01/rdf-schema#label \"person number 15\""],
    },
    Golden {
        query: "SELECT ?p ?r ?o WHERE { ?p e:bornIn e:city3 . ?p ?r ?o . FILTER (?r != e:memberOf) } LIMIT 3 OFFSET 6",
        rows_scanned: 15,
        rows: &["person15 bornIn city3", "person15 http://www.w3.org/2000/01/rdf-schema#label \"person number 15\"", "person19 bornIn city3"],
    },
    Golden {
        query: "SELECT ?s ?r WHERE { ?s ?r ?s . } LIMIT 3 OFFSET 6",
        rows_scanned: 401,
        rows: &[],
    },
    Golden {
        query: "SELECT DISTINCT ?c WHERE { ?p e:bornIn ?c . } LIMIT 2 OFFSET 1",
        rows_scanned: 101,
        rows: &["city1", "city2"],
    },
    Golden {
        query: "SELECT ?p ?c WHERE { ?p e:bornIn ?c . ?p e:memberOf e:club . }",
        rows_scanned: 2,
        rows: &["person7 city3"],
    },
    Golden {
        query: "SELECT ?p ?club WHERE { ?p e:bornIn e:city3 . OPTIONAL { ?p e:memberOf ?club . } } LIMIT 4",
        rows_scanned: 5,
        rows: &["person3 -", "person7 club", "person11 -", "person15 -"],
    },
    Golden {
        query: "SELECT ?c ?p WHERE { ?x e:memberOf e:club . ?x e:bornIn ?c . OPTIONAL { ?p e:bornIn ?c . } } LIMIT 7",
        // The recording scanned 52: it materialised all 50 right-side rows
        // of the OPTIONAL before emitting the first.  The page now ends
        // the right-side scan at its seventh entry.
        rows_scanned: 9,
        rows: &["city3 person3", "city3 person7", "city3 person11", "city3 person15", "city3 person19", "city3 person23", "city3 person27"],
    },
    Golden {
        query: "SELECT ?x ?y WHERE { ?x e:memberOf e:club . OPTIONAL { { ?x e:bornIn ?y . } UNION { ?x rdfs:label ?y . } } }",
        rows_scanned: 3,
        rows: &["person7 city3", "person7 \"person number 7\""],
    },
    Golden {
        query: "SELECT ?x WHERE { { ?x e:memberOf e:club . } UNION { ?x e:bornIn e:city2 . } } LIMIT 6",
        rows_scanned: 6,
        rows: &["person7", "person2", "person6", "person10", "person14", "person18"],
    },
    Golden {
        query: "SELECT ?v ?d WHERE { ?d <bif:contains> \"'number'\" . ?v ?p ?d . } LIMIT 4",
        rows_scanned: 8,
        rows: &["person0 \"person number 0\"", "person1 \"person number 1\"", "person2 \"person number 2\"", "person3 \"person number 3\""],
    },
    Golden {
        query: "SELECT ?p ?l WHERE { ?p e:memberOf e:club . ?p rdfs:label ?l . ?l <bif:contains> \"'person'\" . }",
        rows_scanned: 202,
        rows: &["person7 \"person number 7\""],
    },
    Golden {
        query: "SELECT ?p ?club WHERE { ?p e:bornIn e:city3 . OPTIONAL { ?p e:memberOf ?club . } FILTER (BOUND(?club)) }",
        rows_scanned: 51,
        rows: &["person7 club"],
    },
    Golden {
        query: "SELECT ?p WHERE { ?p e:bornIn ?c . FILTER (?c = e:city2) } LIMIT 3",
        rows_scanned: 103,
        rows: &["person2", "person6", "person10"],
    },
    Golden {
        query: "ASK { ?p e:memberOf e:club . ?p e:bornIn ?c . }",
        rows_scanned: 2,
        rows: &["true"],
    },
    Golden {
        query: "ASK { ?p e:memberOf e:club . ?p e:bornIn e:city0 . }",
        rows_scanned: 1,
        rows: &["false"],
    },
];

fn render(results: &QueryResults) -> Vec<String> {
    let QueryResults::Solutions(solutions) = results else {
        return vec![format!("{:?}", results.as_boolean().unwrap())];
    };
    let cell = |term: Option<&Term>| match term {
        None => "-".to_string(),
        Some(Term::Literal(lit)) => format!("{:?}", lit.lexical),
        Some(Term::Iri(iri)) => iri.strip_prefix("http://e/").unwrap_or(iri).to_string(),
        Some(other) => other.to_string(),
    };
    solutions
        .rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = solutions
                .variables()
                .iter()
                .map(|v| cell(row.get(v)))
                .collect();
            cells.join(" ")
        })
        .collect()
}

#[test]
fn row_order_and_scan_work_match_the_recording() {
    let store = skewed_store();
    assert!(GOLDEN.len() >= 12);
    for golden in GOLDEN {
        let query =
            parse_query(&format!("{PREFIXES}{}", golden.query)).expect("golden query parses");
        let run = Planner::new(&store)
            .plan(&query)
            .execute()
            .expect("golden query runs");
        let rows = render(&run.results);
        assert!(
            rows == golden.rows && run.metrics.rows_scanned == golden.rows_scanned,
            "{}\nrows_scanned: {},\nrows: &{rows:?},",
            golden.query,
            run.metrics.rows_scanned
        );
    }
}
