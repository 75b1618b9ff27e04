//! Property-based tests for the RDF store's core invariants.

use std::collections::BTreeSet;

use kgqan_rdf::{
    parse_ntriples, serialize_ntriples, EncodedTriple, EncodedTriplePattern, ScanCursor, Store,
    Term, TermId, Triple, TriplePattern,
};
use proptest::prelude::*;

/// The term-level, decode-everything match the store used to export: encode
/// once, scan on ids, decode every result.
trait Matching {
    fn matching(&self, pattern: &TriplePattern) -> Vec<Triple>;
}

impl Matching for Store {
    fn matching(&self, pattern: &TriplePattern) -> Vec<Triple> {
        match self.encode_pattern(pattern) {
            Some(encoded) => self.scan(encoded).map(|t| self.decode(t)).collect(),
            None => Vec::new(),
        }
    }
}

/// Strategy producing simple IRIs from a small closed alphabet so that
/// duplicates and overlaps occur frequently.
fn arb_iri() -> impl Strategy<Value = Term> {
    (0u32..50).prop_map(|i| Term::iri(format!("http://example.org/node/{i}")))
}

fn arb_predicate() -> impl Strategy<Value = Term> {
    (0u32..10).prop_map(|i| Term::iri(format!("http://example.org/pred/{i}")))
}

/// String literals biased towards the characters that exercise the
/// N-Triples escaping rules: backslashes, quotes, control characters and
/// non-ASCII code points.
fn arb_tricky_literal() -> impl Strategy<Value = Term> {
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('z'),
            Just(' '),
            Just('\\'),
            Just('"'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('é'),
            Just('Ü'),
            Just('🌊'),
        ],
        0..12,
    )
    .prop_map(|chars| Term::literal_str(chars.into_iter().collect::<String>()))
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri(),
        "[a-z ]{1,20}".prop_map(Term::literal_str),
        arb_tricky_literal(),
        any::<i64>().prop_map(Term::integer),
        any::<bool>().prop_map(Term::boolean),
    ]
}

/// A random triple pattern: each position is independently unbound or bound
/// to a term drawn from the same distributions as the triples, so probes hit
/// both present and absent terms.
fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    (
        prop::option::of(arb_iri()),
        prop::option::of(arb_predicate()),
        prop::option::of(arb_object()),
    )
        .prop_map(|(subject, predicate, object)| TriplePattern {
            subject,
            predicate,
            object,
        })
}

/// Does a triple satisfy a term-level pattern?  The naive oracle the encoded
/// scan is checked against.
fn naive_matches(pattern: &TriplePattern, t: &Triple) -> bool {
    pattern.subject.as_ref().is_none_or(|s| *s == t.subject)
        && pattern.predicate.as_ref().is_none_or(|p| *p == t.predicate)
        && pattern.object.as_ref().is_none_or(|o| *o == t.object)
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_iri(), arb_predicate(), arb_object()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// One step of an interleaved store history.
#[derive(Debug, Clone)]
enum Op {
    Insert(Triple),
    /// Insert again the n-th (mod the count) triple the written store holds.
    InsertAgain(usize),
    Compact,
    /// Clone the written store.  One copy is frozen and checked by every
    /// later read; `true` keeps writing to the clone, `false` to the original.
    Clone(bool),
    Scan(TriplePattern),
    Count(TriplePattern),
    /// `scan_partitions` into at most n ranges, then `scan_within` each.
    Partitions(TriplePattern, usize),
    Contains(Triple),
    Len,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_triple().prop_map(Op::Insert),
        arb_triple().prop_map(Op::Insert),
        any::<usize>().prop_map(Op::InsertAgain),
        Just(Op::Compact),
        any::<bool>().prop_map(Op::Clone),
        arb_pattern().prop_map(Op::Scan),
        arb_pattern().prop_map(Op::Count),
        (arb_pattern(), 1usize..6).prop_map(|(pattern, n)| Op::Partitions(pattern, n)),
        arb_triple().prop_map(Op::Contains),
        Just(Op::Len),
    ]
}

/// True if the stream is strictly increasing under one of the six (s, p, o)
/// permutations: globally sorted, with no triple repeated.
fn sorted_in_some_ordering(stream: &[EncodedTriple]) -> bool {
    const ORDERINGS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    ORDERINGS.iter().any(|ordering| {
        let key = |t: &EncodedTriple| {
            let spo = [t.subject.0, t.predicate.0, t.object.0];
            ordering.map(|i| spo[i])
        };
        stream.windows(2).all(|pair| key(&pair[0]) < key(&pair[1]))
    })
}

/// Check one read against a store's naive oracle.
fn check_read(store: &Store, oracle: &BTreeSet<Triple>, op: &Op) -> Result<(), TestCaseError> {
    let matches = |pattern: &TriplePattern| -> BTreeSet<Triple> {
        oracle
            .iter()
            .filter(|t| naive_matches(pattern, t))
            .cloned()
            .collect()
    };
    match op {
        Op::Scan(pattern) => {
            let expected = matches(pattern);
            let Some(encoded) = store.encode_pattern(pattern) else {
                prop_assert!(expected.is_empty());
                return Ok(());
            };
            let got: Vec<EncodedTriple> = store.scan(encoded).collect();
            prop_assert!(sorted_in_some_ordering(&got), "{pattern:?} is not sorted");
            let decoded: BTreeSet<Triple> = got.iter().map(|&t| store.decode(t)).collect();
            prop_assert_eq!(decoded, expected);
        }
        Op::Count(pattern) => {
            let expected = matches(pattern).len();
            prop_assert_eq!(store.count_matching(pattern), expected);
            if let Some(encoded) = store.encode_pattern(pattern) {
                prop_assert_eq!(store.scan_count(encoded), expected);
            }
        }
        Op::Partitions(pattern, n) => {
            if let Some(encoded) = store.encode_pattern(pattern) {
                let sequential: Vec<_> = store.scan(encoded).collect();
                let ranges = store.scan_partitions(encoded, *n);
                prop_assert!(!ranges.is_empty() && ranges.len() <= *n);
                let concatenated: Vec<_> = ranges
                    .iter()
                    .flat_map(|&range| store.scan_within(encoded, range))
                    .collect();
                prop_assert_eq!(concatenated, sequential);
            } else {
                prop_assert!(matches(pattern).is_empty());
            }
        }
        Op::Contains(triple) => {
            prop_assert_eq!(store.contains(triple), oracle.contains(triple));
        }
        Op::Len => {
            prop_assert_eq!(store.len(), oracle.len());
            check_read(store, oracle, &Op::Scan(TriplePattern::any()))?;
        }
        Op::Insert(_) | Op::InsertAgain(_) | Op::Compact | Op::Clone(_) => {}
    }
    Ok(())
}

/// A triple over a small closed set of IRIs, so that subjects reappear as
/// objects and most id-level seeks find a range.
fn arb_dense_triple() -> impl Strategy<Value = Triple> {
    (0u32..24, 0u32..4, 0u32..24).prop_map(|(s, p, o)| {
        Triple::new(
            Term::iri(format!("http://example.org/node/{s}")),
            Term::iri(format!("http://example.org/pred/{p}")),
            Term::iri(format!("http://example.org/node/{o}")),
        )
    })
}

/// The ids seeks are made with: a little past the 28 terms a dense store
/// interns at most, so some seeks land past the end of every run.
const SEEK_IDS: u32 = 32;

/// How one run of seeks orders its keys.
#[derive(Debug, Clone, Copy)]
enum SeekOrder {
    Ascending,
    Descending,
    AsDrawn,
}

/// One run of seeks threaded through the cursor: a pattern shape (which
/// positions are bound), the keys it is sought with in one order, and the
/// store it runs on.
#[derive(Debug, Clone)]
struct SeekRun {
    bound: (bool, bool, bool),
    keys: Vec<(u32, u32, u32)>,
    order: SeekOrder,
    on_small_store: bool,
}

fn arb_seek_run() -> impl Strategy<Value = SeekRun> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::collection::vec((0..SEEK_IDS, 0..SEEK_IDS, 0..SEEK_IDS), 1..24),
        prop_oneof![
            Just(SeekOrder::Ascending),
            Just(SeekOrder::Descending),
            Just(SeekOrder::AsDrawn),
        ],
        any::<bool>(),
    )
        .prop_map(|(bound, keys, order, on_small_store)| SeekRun {
            bound,
            keys,
            order,
            on_small_store,
        })
}

impl SeekRun {
    /// The run's patterns in seek order.  Keys are ordered on (o, p, s),
    /// which for every shape is the order of its bound positions in the
    /// index ordering the store scans it from today (`Ops` or `Osp` for a
    /// bound object, `Pos` or `Pso` for a bound predicate, `Sop` for a
    /// bound subject alone); were that choice to change, the runs would
    /// still be sorted, only no longer in the scan's key order.
    fn patterns(&self) -> Vec<EncodedTriplePattern> {
        let (s, p, o) = self.bound;
        let bind = |on: bool, id: u32| on.then_some(TermId(id));
        let mut patterns: Vec<EncodedTriplePattern> = self
            .keys
            .iter()
            .map(|&(a, b, c)| EncodedTriplePattern::new(bind(s, a), bind(p, b), bind(o, c)))
            .collect();
        let key = |t: &EncodedTriplePattern| (t.object, t.predicate, t.subject);
        match self.order {
            SeekOrder::Ascending => patterns.sort_by_key(key),
            SeekOrder::Descending => patterns.sort_by_key(|t| std::cmp::Reverse(key(t))),
            SeekOrder::AsDrawn => {}
        }
        patterns
    }
}

proptest! {
    /// Scans threaded through one cursor yield exactly what the same scans
    /// from fresh cursors yield, and `scan_count` agrees with both: over
    /// ascending, descending and unordered key runs, switches between
    /// shapes (and so index orderings), empty ranges and ranges at either
    /// end of a run, seeks past the end of every run, a store with a
    /// pending view, and a cursor carried over from a larger store, which
    /// points past the end of the smaller one's runs.
    #[test]
    fn scans_threaded_through_one_cursor_equal_scans_from_fresh_cursors(
        sealed in prop::collection::vec(arb_dense_triple(), 0..150),
        pending in prop::collection::vec(arb_dense_triple(), 0..16),
        small_len in 0usize..40,
        compact_small in any::<bool>(),
        runs in prop::collection::vec(arb_seek_run(), 1..8),
    ) {
        let mut large = Store::new();
        large.insert_all(sealed.clone());
        large.compact();
        large.insert_all(pending);
        let mut small = Store::new();
        small.insert_all(sealed.into_iter().take(small_len));
        if compact_small {
            small.compact();
        }

        let mut cursor = ScanCursor::default();
        for run in &runs {
            let store = if run.on_small_store { &small } else { &large };
            for pattern in run.patterns() {
                let fresh: Vec<EncodedTriple> = store.scan(pattern).collect();
                let threaded: Vec<EncodedTriple> = store.scan_from(pattern, &mut cursor).collect();
                prop_assert!(
                    threaded == fresh,
                    "{pattern:?} on {run:?}: threaded {threaded:?}, fresh {fresh:?}"
                );
                prop_assert_eq!(store.scan_count(pattern), fresh.len());
            }
        }
    }

    /// Inserting any set of triples yields a store whose length equals the
    /// number of distinct triples, and every inserted triple is found again.
    #[test]
    fn insert_then_contains(triples in prop::collection::vec(arb_triple(), 0..60)) {
        let mut store = Store::new();
        store.insert_all(triples.clone());
        let distinct: std::collections::BTreeSet<_> = triples.iter().cloned().collect();
        prop_assert_eq!(store.len(), distinct.len());
        for t in &triples {
            prop_assert!(store.contains(t));
        }
    }

    /// Pattern matching with a bound subject returns exactly the triples
    /// whose subject equals the bound term (cross-checked against a naive
    /// scan).
    #[test]
    fn subject_pattern_agrees_with_naive_scan(
        triples in prop::collection::vec(arb_triple(), 1..60),
        probe in arb_iri(),
    ) {
        let mut store = Store::new();
        store.insert_all(triples.clone());
        let expected: std::collections::BTreeSet<_> = triples
            .iter()
            .filter(|t| t.subject == probe)
            .cloned()
            .collect();
        let got: std::collections::BTreeSet<_> = store
            .matching(&TriplePattern::any().with_subject(probe.clone()))
            .into_iter()
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The encoded-pattern scan returns exactly the same triples as both the
    /// legacy term-level `matching` path and a naive full-store filter, for
    /// every pattern shape (including patterns over absent terms).
    #[test]
    fn encoded_scan_agrees_with_legacy_and_naive(
        triples in prop::collection::vec(arb_triple(), 0..60),
        pattern in arb_pattern(),
    ) {
        let mut store = Store::new();
        store.insert_all(triples);

        let naive: std::collections::BTreeSet<Triple> =
            store.iter().filter(|t| naive_matches(&pattern, t)).collect();
        let legacy: std::collections::BTreeSet<Triple> =
            store.matching(&pattern).into_iter().collect();
        let encoded: std::collections::BTreeSet<Triple> = match store.encode_pattern(&pattern) {
            Some(ep) => store.scan(ep).map(|t| store.decode(t)).collect(),
            // A bound term absent from the dictionary matches nothing.
            None => std::collections::BTreeSet::new(),
        };

        prop_assert_eq!(&encoded, &naive);
        prop_assert_eq!(&encoded, &legacy);
        let count = store
            .encode_pattern(&pattern)
            .map(|ep| store.scan_count(ep))
            .unwrap_or(0);
        prop_assert_eq!(count, naive.len());
        prop_assert_eq!(store.count_matching(&pattern), naive.len());
    }

    /// Random interleavings of inserts (new and duplicate), compactions,
    /// clones and every read path agree with a naive set after every step,
    /// on the written store and on every clone frozen along the way.  The
    /// failure this guards against is a read served from a sorted view that
    /// an insert should have dropped.
    #[test]
    fn interleaved_writes_reads_clones_and_compactions_agree_with_a_naive_set(
        ops in prop::collection::vec(arb_op(), 1..80),
    ) {
        let mut store = Store::new();
        let mut oracle = BTreeSet::new();
        let mut frozen: Vec<(Store, BTreeSet<Triple>)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(triple) => {
                    let new = oracle.insert(triple.clone());
                    prop_assert_eq!(store.insert(triple.clone()), new);
                }
                Op::InsertAgain(n) => {
                    if let Some(triple) = oracle.iter().nth(n % oracle.len().max(1)) {
                        prop_assert!(!store.insert(triple.clone()));
                    }
                }
                Op::Compact => store.compact(),
                Op::Clone(write_to_clone) => {
                    let clone = store.clone();
                    let kept = if *write_to_clone {
                        std::mem::replace(&mut store, clone)
                    } else {
                        clone
                    };
                    frozen.push((kept, oracle.clone()));
                }
                read => {
                    check_read(&store, &oracle, read)?;
                    for (copy, copy_oracle) in &frozen {
                        check_read(copy, copy_oracle, read)?;
                    }
                }
            }
        }
        check_read(&store, &oracle, &Op::Len)?;
        for (copy, copy_oracle) in &frozen {
            check_read(copy, copy_oracle, &Op::Len)?;
        }
    }

    /// Any string literal — including backslashes, quotes, control
    /// characters and non-ASCII — survives Display → parse of a single term.
    #[test]
    fn term_escape_round_trip(term in arb_tricky_literal()) {
        let rendered = term.to_string();
        let parsed = Term::parse_ntriples(&rendered).expect("rendered term must parse");
        prop_assert_eq!(parsed, term);
    }

    /// Serializing any store to N-Triples and parsing it back yields the
    /// same set of triples (dictionary ids may differ, terms may not).
    #[test]
    fn ntriples_roundtrip(triples in prop::collection::vec(arb_triple(), 0..40)) {
        let mut store = Store::new();
        store.insert_all(triples);
        let original: std::collections::BTreeSet<_> = store.iter().collect();
        let doc = serialize_ntriples(original.iter());
        let reparsed = parse_ntriples(&doc).expect("serialized output must reparse");
        let roundtripped: std::collections::BTreeSet<_> = reparsed.into_iter().collect();
        prop_assert_eq!(original, roundtripped);
    }

    /// Full-text search never returns more results than the requested limit
    /// and only returns literals that actually contain a query word.
    #[test]
    fn text_search_respects_limit(
        labels in prop::collection::vec("[a-z]{2,8}( [a-z]{2,8}){0,3}", 1..40),
        limit in 1usize..20,
    ) {
        let mut store = Store::new();
        for (i, label) in labels.iter().enumerate() {
            store.insert(Triple::new(
                Term::iri(format!("http://example.org/e{i}")),
                Term::iri("http://www.w3.org/2000/01/rdf-schema#label"),
                Term::literal_str(label.clone()),
            ));
        }
        let probe_word = labels[0].split(' ').next().unwrap().to_string();
        let hits = store.vertices_with_description_containing(&[&probe_word], limit);
        prop_assert!(hits.len() <= limit);
        for (_, lit) in hits {
            let text = lit.as_literal().unwrap().lexical.to_lowercase();
            prop_assert!(text.contains(&probe_word));
        }
    }
}
