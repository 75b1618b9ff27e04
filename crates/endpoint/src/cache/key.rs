//! The cache key: a query's canonical bytes.
//!
//! A cached entry is keyed by one byte string per query, written by
//! [`QueryKey::of`] into a per-thread scratch buffer.  Every node is a tag
//! byte followed by its fields in declaration order, every string is its
//! length (LEB128) followed by its UTF-8 bytes, and every count and
//! `Option` is written before what it counts.  A decoder that knows which
//! node comes next therefore always knows where it ends, so no encoding is
//! a prefix of another and **equal bytes ⇔ equal queries**.  The encoder
//! destructures every AST struct and matches every AST enum without a
//! wildcard arm: a new field or variant fails to compile here instead of
//! silently giving two queries one key.  (std's `Hash` byte stream is not
//! reused: its prefix-freedom is a convention of each impl, not a
//! guarantee.)
//!
//! A position of a triple pattern is a variable or a term, and both are
//! written in one tag space, so the bytes of a constant position are
//! exactly [`encode_term`] of that term.  That is what lets scoped
//! invalidation ([`EncodedScope`]) test a stored key against an ingest by
//! comparing byte slices, without rebuilding the query.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use kgqan_rdf::{Literal, Term, TouchedScope};
use kgqan_sparql::eval::{parse_text_query, TEXT_SEARCH_PREDICATES};
use kgqan_sparql::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};

thread_local! {
    /// The buffer the next [`QueryKey`] on this thread encodes into.  A key
    /// takes it and gives it back when dropped, so a hit allocates nothing
    /// for its key, and a nested call (a `SERVICE` group served by another
    /// namespace while this key is alive) encodes into a buffer of its own.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// One call's cache key: the query's canonical bytes, borrowed from the
/// thread's scratch buffer, their SipHash fingerprint (the LRU's map key)
/// and the segment the query lives in.
pub(super) struct QueryKey {
    bytes: Vec<u8>,
    fingerprint: u64,
    probe: bool,
}

impl QueryKey {
    /// Encode `query` and fingerprint the bytes.
    pub(super) fn of(query: &Query) -> Self {
        let mut bytes = SCRATCH.take();
        bytes.clear();
        encode_query(query, &mut bytes);
        let mut hasher = DefaultHasher::new();
        hasher.write(&bytes);
        QueryKey {
            fingerprint: hasher.finish(),
            bytes,
            probe: query.has_text_search(),
        }
    }

    /// The canonical bytes; an entry stores a copy.
    pub(super) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// One SipHash pass over [`QueryKey::bytes`].
    pub(super) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True if the query has a full-text pattern (a linking probe).
    pub(super) fn is_probe(&self) -> bool {
        self.probe
    }

    /// The same key under another fingerprint, to force a collision.
    #[cfg(test)]
    pub(super) fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }
}

impl Drop for QueryKey {
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        // Gone only while the thread itself is being torn down.
        let _ = SCRATCH.try_with(|scratch| scratch.set(bytes));
    }
}

// Tags.  Each node kind has its own tag space except positions and terms,
// which share one (see the module docs).
const ASK: u8 = 0;
const SELECT: u8 = 1;

const BGP: u8 = 0;
const JOIN: u8 = 1;
const OPTIONAL: u8 = 2;
const FILTER: u8 = 3;
const UNION: u8 = 4;
const SERVICE: u8 = 5;

const VAR: u8 = 0;
const IRI: u8 = 1;
const BLANK: u8 = 2;
const LITERAL: u8 = 3;

const E_VAR: u8 = 0;
const E_CONSTANT: u8 = 1;
const E_EQ: u8 = 2;
const E_NEQ: u8 = 3;
const E_LT: u8 = 4;
const E_GT: u8 = 5;
const E_LE: u8 = 6;
const E_GE: u8 = 7;
const E_AND: u8 = 8;
const E_OR: u8 = 9;
const E_NOT: u8 = 10;
const E_CONTAINS: u8 = 11;
const E_REGEX: u8 = 12;
const E_LANG: u8 = 13;
const E_STR: u8 = 14;
const E_BOUND: u8 = 15;

const NONE: u8 = 0;
const SOME: u8 = 1;

fn write_len(mut n: usize, out: &mut Vec<u8>) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    write_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

fn write_option<T>(value: Option<T>, out: &mut Vec<u8>, write: impl FnOnce(T, &mut Vec<u8>)) {
    match value {
        None => out.push(NONE),
        Some(value) => {
            out.push(SOME);
            write(value, out);
        }
    }
}

/// Append the canonical bytes of `query`.
fn encode_query(query: &Query, out: &mut Vec<u8>) {
    let Query {
        form,
        pattern,
        limit,
        offset,
    } = query;
    match form {
        QueryForm::Ask => out.push(ASK),
        QueryForm::Select {
            variables,
            distinct,
        } => {
            out.push(SELECT);
            out.push(u8::from(*distinct));
            write_len(variables.len(), out);
            for variable in variables {
                write_str(variable, out);
            }
        }
    }
    encode_pattern(pattern, out);
    write_option(*limit, out, write_len);
    write_option(*offset, out, write_len);
}

fn encode_pattern(pattern: &GraphPattern, out: &mut Vec<u8>) {
    let pair = |tag, a: &GraphPattern, b: &GraphPattern, out: &mut Vec<u8>| {
        out.push(tag);
        encode_pattern(a, out);
        encode_pattern(b, out);
    };
    match pattern {
        GraphPattern::Bgp(triples) => {
            out.push(BGP);
            write_len(triples.len(), out);
            for triple in triples {
                let TriplePatternAst {
                    subject,
                    predicate,
                    object,
                } = triple;
                for position in [subject, predicate, object] {
                    encode_position(position, out);
                }
            }
        }
        GraphPattern::Join(a, b) => pair(JOIN, a, b, out),
        GraphPattern::Optional(a, b) => pair(OPTIONAL, a, b, out),
        GraphPattern::Union(a, b) => pair(UNION, a, b, out),
        GraphPattern::Filter(inner, expression) => {
            out.push(FILTER);
            encode_pattern(inner, out);
            encode_expression(expression, out);
        }
        GraphPattern::Service { kg, pattern } => {
            out.push(SERVICE);
            write_str(kg, out);
            encode_pattern(pattern, out);
        }
    }
}

fn encode_position(position: &VarOrTerm, out: &mut Vec<u8>) {
    match position {
        VarOrTerm::Var(name) => {
            out.push(VAR);
            write_str(name, out);
        }
        VarOrTerm::Term(term) => encode_term(term, out),
    }
}

/// Append the bytes of `term`: in a key, those of a constant position.
fn encode_term(term: &Term, out: &mut Vec<u8>) {
    match term {
        Term::Iri(iri) => {
            out.push(IRI);
            write_str(iri, out);
        }
        Term::Blank(label) => {
            out.push(BLANK);
            write_str(label, out);
        }
        Term::Literal(literal) => {
            let Literal {
                lexical,
                datatype,
                language,
            } = literal;
            out.push(LITERAL);
            write_str(lexical, out);
            write_option(datatype.as_deref(), out, write_str);
            write_option(language.as_deref(), out, write_str);
        }
    }
}

fn encode_expression(expression: &Expression, out: &mut Vec<u8>) {
    let unary = |tag, a: &Expression, out: &mut Vec<u8>| {
        out.push(tag);
        encode_expression(a, out);
    };
    let binary = |tag, a: &Expression, b: &Expression, out: &mut Vec<u8>| {
        out.push(tag);
        encode_expression(a, out);
        encode_expression(b, out);
    };
    match expression {
        Expression::Var(name) => {
            out.push(E_VAR);
            write_str(name, out);
        }
        Expression::Bound(name) => {
            out.push(E_BOUND);
            write_str(name, out);
        }
        Expression::Constant(term) => {
            out.push(E_CONSTANT);
            encode_term(term, out);
        }
        Expression::Eq(a, b) => binary(E_EQ, a, b, out),
        Expression::Neq(a, b) => binary(E_NEQ, a, b, out),
        Expression::Lt(a, b) => binary(E_LT, a, b, out),
        Expression::Gt(a, b) => binary(E_GT, a, b, out),
        Expression::Le(a, b) => binary(E_LE, a, b, out),
        Expression::Ge(a, b) => binary(E_GE, a, b, out),
        Expression::And(a, b) => binary(E_AND, a, b, out),
        Expression::Or(a, b) => binary(E_OR, a, b, out),
        Expression::Contains(a, b) => binary(E_CONTAINS, a, b, out),
        Expression::Regex(a, b) => binary(E_REGEX, a, b, out),
        Expression::Not(a) => unary(E_NOT, a, out),
        Expression::Lang(a) => unary(E_LANG, a, out),
        Expression::Str(a) => unary(E_STR, a, out),
    }
}

/// A cursor over bytes [`encode_query`] wrote.  The bytes are the cache's
/// own, so a malformed key is a bug and panics.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> u8 {
        let byte = self.bytes[self.at];
        self.at += 1;
        byte
    }

    fn count(&mut self) -> usize {
        let (mut n, mut shift) = (0, 0);
        loop {
            let byte = self.byte();
            n |= usize::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return n;
            }
            shift += 7;
        }
    }

    fn str(&mut self) -> &'a [u8] {
        let len = self.count();
        self.at += len;
        &self.bytes[self.at - len..self.at]
    }

    /// The whole encoding of the next position, tag included.
    fn position(&mut self) -> &'a [u8] {
        let start = self.at;
        match self.byte() {
            LITERAL => {
                self.str();
                // Datatype and language, each `NONE` or `SOME` and a string.
                for _ in 0..2 {
                    if self.byte() == SOME {
                        self.str();
                    }
                }
            }
            VAR | IRI | BLANK => {
                self.str();
            }
            tag => unreachable!("position tag {tag}"),
        }
        &self.bytes[start..self.at]
    }

    fn skip_expression(&mut self) {
        match self.byte() {
            E_VAR | E_BOUND => {
                self.str();
            }
            E_CONSTANT => {
                self.position();
            }
            E_NOT | E_LANG | E_STR => self.skip_expression(),
            E_EQ | E_NEQ | E_LT | E_GT | E_LE | E_GE | E_AND | E_OR | E_CONTAINS | E_REGEX => {
                self.skip_expression();
                self.skip_expression();
            }
            tag => unreachable!("expression tag {tag}"),
        }
    }

    /// True if `test` holds for some basic graph pattern of the query, tried
    /// in pattern order, like [`GraphPattern::any_bgp`].
    fn any_bgp(bytes: &'a [u8], test: &mut impl FnMut(Bgp<'a>) -> bool) -> bool {
        let mut reader = Reader { bytes, at: 0 };
        if reader.byte() == SELECT {
            reader.at += 1; // DISTINCT
            for _ in 0..reader.count() {
                reader.str();
            }
        }
        reader.pattern(test)
    }

    fn pattern(&mut self, test: &mut impl FnMut(Bgp<'a>) -> bool) -> bool {
        match self.byte() {
            BGP => {
                let triples = self.count();
                let start = self.at;
                for _ in 0..3 * triples {
                    self.position();
                }
                test(Bgp {
                    triples,
                    bytes: &self.bytes[start..self.at],
                })
            }
            // A walk that found its pattern stops where it is, mid-key.
            FILTER => {
                self.pattern(test) || {
                    self.skip_expression();
                    false
                }
            }
            SERVICE => {
                self.str();
                self.pattern(test)
            }
            JOIN | OPTIONAL | UNION => self.pattern(test) || self.pattern(test),
            tag => unreachable!("pattern tag {tag}"),
        }
    }
}

/// The triple patterns of one basic graph pattern inside a key.
#[derive(Clone, Copy)]
struct Bgp<'a> {
    triples: usize,
    bytes: &'a [u8],
}

impl<'a> Bgp<'a> {
    /// Subject, predicate and object of each triple pattern, each the whole
    /// encoding of its position.
    fn iter(self) -> impl Iterator<Item = [&'a [u8]; 3]> {
        let mut reader = Reader {
            bytes: self.bytes,
            at: 0,
        };
        (0..self.triples).map(move |_| [reader.position(), reader.position(), reader.position()])
    }
}

fn is_var(position: &[u8]) -> bool {
    position[0] == VAR
}

/// The string of an IRI, blank node or variable position, or a literal's
/// lexical form.
fn text(position: &[u8]) -> &[u8] {
    Reader {
        bytes: position,
        at: 1,
    }
    .str()
}

/// [`kgqan_sparql::eval::is_text_search_pattern`], on a predicate's bytes.
fn is_text_search(predicate: &[u8]) -> bool {
    predicate[0] == IRI
        && TEXT_SEARCH_PREDICATES
            .iter()
            .any(|iri| iri.as_bytes() == text(predicate))
}

/// An ingest's [`TouchedScope`] with the added triples' terms encoded once,
/// so that every stored key is tested by comparing bytes.
pub(super) struct EncodedScope<'s> {
    scope: &'s TouchedScope,
    added: Vec<[Vec<u8>; 3]>,
}

impl<'s> EncodedScope<'s> {
    pub(super) fn new(scope: &'s TouchedScope) -> Self {
        let encoded = |term| {
            let mut out = Vec::new();
            encode_term(term, &mut out);
            out
        };
        let added = scope
            .added()
            .iter()
            .map(|t| {
                [
                    encoded(&t.subject),
                    encoded(&t.predicate),
                    encoded(&t.object),
                ]
            })
            .collect();
        EncodedScope { scope, added }
    }

    /// Could the ingest change the result of the query whose key is
    /// `bytes`?
    ///
    /// Additions are monotone: a SELECT/ASK over basic graph patterns can
    /// only change if at least one of its triple patterns gained a matching
    /// triple.  Each pattern is therefore tested on its own — constant
    /// positions against the added triples, full-text search patterns
    /// token-wise against the added literals' words.
    ///
    /// A pattern whose object is the subject of a full-text pattern in the
    /// same BGP — `?v ?p ?d` in `?v ?p ?d . ?d <bif:contains> "'baltic'"` —
    /// is left to that pattern's test: `?d` only binds literals the search
    /// matches, so a new row needs an added triple whose literal holds a
    /// search word.  On its constants alone it would match every added
    /// triple, and every ingest would evict every linking probe.
    ///
    /// The tests check this walk over the bytes against the same rule over
    /// the AST (`tests::query_touches`).
    pub(super) fn touches(&self, bytes: &[u8]) -> bool {
        Reader::any_bgp(bytes, &mut |bgp| {
            let searched = |var: &[u8]| {
                bgp.iter()
                    .any(|[subject, predicate, _]| is_text_search(predicate) && subject == var)
            };
            bgp.iter().any(|[subject, predicate, object]| {
                if is_text_search(predicate) {
                    // A variable search string is unbounded, treat it as touched.
                    return match object[0] {
                        VAR => true,
                        LITERAL => {
                            let lexical = std::str::from_utf8(text(object))
                                .expect("a key holds the literal's UTF-8 text");
                            parse_text_query(lexical)
                                .iter()
                                .any(|word| self.scope.literal_tokens().contains(word))
                        }
                        _ => false,
                    };
                }
                let fits = |position: &[u8], term: &[u8]| is_var(position) || position == term;
                !(is_var(object) && searched(object))
                    && self
                        .added
                        .iter()
                        .any(|[s, p, o]| fits(subject, s) && fits(predicate, p) && fits(object, o))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_rdf::{IngestBatch, LiveStore, Store, Triple};
    use kgqan_sparql::eval::is_text_search_pattern;
    use kgqan_sparql::parse_query;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The staleness rule over the AST, the oracle of
    /// [`EncodedScope::touches`].
    fn query_touches(query: &Query, scope: &TouchedScope) -> bool {
        query.pattern.any_bgp(|bgp| {
            let searched = |var: &str| {
                bgp.iter()
                    .any(|tp| is_text_search_pattern(tp) && tp.subject.as_var() == Some(var))
            };
            bgp.iter().any(|tp| {
                if is_text_search_pattern(tp) {
                    return match tp.object.as_term() {
                        Some(Term::Literal(lit)) => parse_text_query(&lit.lexical)
                            .iter()
                            .any(|word| scope.literal_tokens().contains(word)),
                        Some(_) => false,
                        None => true,
                    };
                }
                !tp.object.as_var().is_some_and(searched)
                    && scope.matches_constants(
                        tp.subject.as_term(),
                        tp.predicate.as_term(),
                        tp.object.as_term(),
                    )
            })
        })
    }

    fn encode(query: &Query) -> Vec<u8> {
        let mut out = Vec::new();
        encode_query(query, &mut out);
        out
    }

    /// Strings whose encodings would alias under a careless format: empty,
    /// one a prefix of another, tag and length bytes as text, non-ASCII,
    /// and two long strings (two-byte lengths) differing in the last byte.
    fn string(rng: &mut TestRng) -> String {
        const SHORT: [&str; 10] = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "\0",
            "\u{1}a",
            "é",
            "日本語",
            "sea",
        ];
        match rng.usize_in(0, 12) {
            10 => "x".repeat(200) + "a",
            11 => "x".repeat(200) + "b",
            i => SHORT[i].to_string(),
        }
    }

    const WORDS: [&str; 4] = ["sea", "north", "baltic", "gulf"];

    /// One to three search words, the way the linker and the added labels
    /// spell them.
    fn words(rng: &mut TestRng, separator: &str, quote: &str) -> String {
        let n = rng.usize_in(1, 4);
        (0..n)
            .map(|_| format!("{quote}{}{quote}", WORDS[rng.usize_in(0, WORDS.len())]))
            .collect::<Vec<_>>()
            .join(separator)
    }

    fn iri(rng: &mut TestRng) -> String {
        ["http://e/a", "http://e/b", "http://e/p", "http://e/q", ""][rng.usize_in(0, 5)].into()
    }

    fn literal(rng: &mut TestRng) -> Term {
        let lexical = if rng.bool_with(0.5) {
            words(rng, " ", "")
        } else {
            string(rng)
        };
        match rng.usize_in(0, 4) {
            0 => Term::literal_typed(lexical, iri(rng)),
            1 => Term::literal_lang(lexical, string(rng)),
            _ => Term::literal_str(lexical),
        }
    }

    fn term(rng: &mut TestRng) -> Term {
        match rng.usize_in(0, 5) {
            0 => Term::blank(string(rng)),
            1 | 2 => literal(rng),
            _ => Term::iri(iri(rng)),
        }
    }

    fn var(rng: &mut TestRng) -> String {
        if rng.bool_with(0.8) {
            ["v", "d", "p"][rng.usize_in(0, 3)].into()
        } else {
            string(rng)
        }
    }

    fn position(rng: &mut TestRng) -> VarOrTerm {
        if rng.bool_with(0.5) {
            VarOrTerm::Var(var(rng))
        } else {
            VarOrTerm::Term(term(rng))
        }
    }

    /// A triple pattern; a third are full-text patterns, most of them over a
    /// variable that another pattern of the BGP can bind as its object.
    fn triple(rng: &mut TestRng) -> TriplePatternAst {
        if rng.bool_with(0.33) {
            let predicate = TEXT_SEARCH_PREDICATES[rng.usize_in(0, TEXT_SEARCH_PREDICATES.len())];
            let subject = if rng.bool_with(0.8) {
                VarOrTerm::var("d")
            } else {
                position(rng)
            };
            let object = match rng.usize_in(0, 6) {
                0 => VarOrTerm::var("d"),
                1 => VarOrTerm::Term(term(rng)),
                _ => VarOrTerm::Term(Term::literal_str(words(rng, " OR ", "'"))),
            };
            return TriplePatternAst::new(subject, VarOrTerm::iri(predicate), object);
        }
        let predicate = if rng.bool_with(0.7) {
            VarOrTerm::iri(iri(rng))
        } else {
            position(rng)
        };
        TriplePatternAst::new(position(rng), predicate, position(rng))
    }

    fn expression(rng: &mut TestRng, depth: usize) -> Expression {
        let leaf = depth == 0 || rng.bool_with(0.3);
        let sub = |rng: &mut TestRng| Box::new(expression(rng, depth.saturating_sub(1)));
        match rng.usize_in(0, if leaf { 3 } else { 16 }) {
            0 => Expression::Var(var(rng)),
            1 => Expression::Constant(term(rng)),
            2 => Expression::Bound(var(rng)),
            3 => Expression::Eq(sub(rng), sub(rng)),
            4 => Expression::Neq(sub(rng), sub(rng)),
            5 => Expression::Lt(sub(rng), sub(rng)),
            6 => Expression::Gt(sub(rng), sub(rng)),
            7 => Expression::Le(sub(rng), sub(rng)),
            8 => Expression::Ge(sub(rng), sub(rng)),
            9 => Expression::And(sub(rng), sub(rng)),
            10 => Expression::Or(sub(rng), sub(rng)),
            11 => Expression::Not(sub(rng)),
            12 => Expression::Contains(sub(rng), sub(rng)),
            13 => Expression::Regex(sub(rng), sub(rng)),
            14 => Expression::Lang(sub(rng)),
            _ => Expression::Str(sub(rng)),
        }
    }

    fn pattern(rng: &mut TestRng, depth: usize) -> GraphPattern {
        let sub = |rng: &mut TestRng| Box::new(pattern(rng, depth.saturating_sub(1)));
        if depth == 0 || rng.bool_with(0.4) {
            let n = rng.usize_in(0, 4);
            return GraphPattern::Bgp((0..n).map(|_| triple(rng)).collect());
        }
        match rng.usize_in(0, 5) {
            0 => GraphPattern::Join(sub(rng), sub(rng)),
            1 => GraphPattern::Optional(sub(rng), sub(rng)),
            2 => GraphPattern::Union(sub(rng), sub(rng)),
            3 => GraphPattern::Filter(sub(rng), expression(rng, 3)),
            _ => GraphPattern::Service {
                kg: string(rng),
                pattern: sub(rng),
            },
        }
    }

    fn count(rng: &mut TestRng) -> Option<usize> {
        match rng.usize_in(0, 4) {
            0 => Some(rng.usize_in(0, 3)),
            1 => Some(rng.usize_in(100, 100_000)),
            _ => None,
        }
    }

    fn query(rng: &mut TestRng) -> Query {
        let form = if rng.bool_with(0.2) {
            QueryForm::Ask
        } else {
            QueryForm::Select {
                variables: (0..rng.usize_in(0, 3)).map(|_| var(rng)).collect(),
                distinct: rng.bool_with(0.5),
            }
        };
        Query {
            form,
            pattern: pattern(rng, 3),
            limit: count(rng),
            offset: count(rng),
        }
    }

    /// Replace a random few nodes of `query` with fresh ones, so that a
    /// pair often differs in one leaf only (and sometimes not at all).
    fn mutate(query: &mut Query, rng: &mut TestRng) {
        const P: f64 = 0.08;
        fn mutate_position(x: &mut VarOrTerm, rng: &mut TestRng) {
            if !rng.bool_with(P) {
                return;
            }
            match x {
                // One field of a literal: lexical, datatype or language.
                VarOrTerm::Term(Term::Literal(literal)) if rng.bool_with(0.5) => {
                    let other = Some(string(rng));
                    match rng.usize_in(0, 3) {
                        0 => literal.lexical = string(rng),
                        1 => literal.datatype = literal.datatype.take().xor(other),
                        _ => literal.language = literal.language.take().xor(other),
                    }
                }
                _ => *x = position(rng),
            }
        }
        fn mutate_expression(x: &mut Expression, rng: &mut TestRng) {
            if rng.bool_with(P) {
                *x = expression(rng, 2);
                return;
            }
            match x {
                Expression::Var(_) | Expression::Bound(_) | Expression::Constant(_) => {}
                Expression::Eq(a, b)
                | Expression::Neq(a, b)
                | Expression::Lt(a, b)
                | Expression::Gt(a, b)
                | Expression::Le(a, b)
                | Expression::Ge(a, b)
                | Expression::And(a, b)
                | Expression::Or(a, b)
                | Expression::Contains(a, b)
                | Expression::Regex(a, b) => {
                    mutate_expression(a, rng);
                    mutate_expression(b, rng);
                }
                Expression::Not(a) | Expression::Lang(a) | Expression::Str(a) => {
                    mutate_expression(a, rng)
                }
            }
        }
        fn mutate_pattern(x: &mut GraphPattern, rng: &mut TestRng) {
            if rng.bool_with(P) {
                *x = pattern(rng, 2);
                return;
            }
            match x {
                GraphPattern::Bgp(triples) => {
                    if rng.bool_with(P) {
                        triples.push(triple(rng));
                    }
                    for tp in triples {
                        mutate_position(&mut tp.subject, rng);
                        mutate_position(&mut tp.predicate, rng);
                        mutate_position(&mut tp.object, rng);
                    }
                }
                GraphPattern::Join(a, b)
                | GraphPattern::Optional(a, b)
                | GraphPattern::Union(a, b) => {
                    mutate_pattern(a, rng);
                    mutate_pattern(b, rng);
                }
                GraphPattern::Filter(inner, e) => {
                    mutate_pattern(inner, rng);
                    mutate_expression(e, rng);
                }
                GraphPattern::Service { kg, pattern: inner } => {
                    if rng.bool_with(P) {
                        *kg = string(rng);
                    }
                    mutate_pattern(inner, rng);
                }
            }
        }
        mutate_pattern(&mut query.pattern, rng);
        if rng.bool_with(P) {
            query.limit = count(rng);
        }
        if rng.bool_with(P) {
            query.offset = count(rng);
        }
        if rng.bool_with(P) {
            if let QueryForm::Select { distinct, .. } = &mut query.form {
                *distinct = !*distinct;
            }
        }
    }

    /// The inverse of [`encode_query`]: a query decodes back from its key
    /// and consumes all of it, which proves the key of every generated
    /// query determines it (and that no key is a prefix of another).
    mod decode {
        use super::*;

        fn string(r: &mut Reader) -> String {
            String::from_utf8(r.str().to_vec()).expect("keys hold UTF-8 text")
        }

        fn option<T>(r: &mut Reader, read: impl FnOnce(&mut Reader) -> T) -> Option<T> {
            match r.byte() {
                NONE => None,
                SOME => Some(read(r)),
                tag => panic!("option tag {tag}"),
            }
        }

        fn term(r: &mut Reader) -> Term {
            match r.byte() {
                IRI => Term::Iri(string(r)),
                BLANK => Term::Blank(string(r)),
                LITERAL => Term::Literal(Literal {
                    lexical: string(r),
                    datatype: option(r, string),
                    language: option(r, string),
                }),
                tag => panic!("term tag {tag}"),
            }
        }

        fn position(r: &mut Reader) -> VarOrTerm {
            if r.bytes[r.at] == VAR {
                r.at += 1;
                VarOrTerm::Var(string(r))
            } else {
                VarOrTerm::Term(term(r))
            }
        }

        fn expression(r: &mut Reader) -> Expression {
            let sub = |r: &mut Reader| Box::new(expression(r));
            match r.byte() {
                E_VAR => Expression::Var(string(r)),
                E_BOUND => Expression::Bound(string(r)),
                E_CONSTANT => Expression::Constant(term(r)),
                E_EQ => Expression::Eq(sub(r), sub(r)),
                E_NEQ => Expression::Neq(sub(r), sub(r)),
                E_LT => Expression::Lt(sub(r), sub(r)),
                E_GT => Expression::Gt(sub(r), sub(r)),
                E_LE => Expression::Le(sub(r), sub(r)),
                E_GE => Expression::Ge(sub(r), sub(r)),
                E_AND => Expression::And(sub(r), sub(r)),
                E_OR => Expression::Or(sub(r), sub(r)),
                E_CONTAINS => Expression::Contains(sub(r), sub(r)),
                E_REGEX => Expression::Regex(sub(r), sub(r)),
                E_NOT => Expression::Not(sub(r)),
                E_LANG => Expression::Lang(sub(r)),
                E_STR => Expression::Str(sub(r)),
                tag => panic!("expression tag {tag}"),
            }
        }

        fn pattern(r: &mut Reader) -> GraphPattern {
            let sub = |r: &mut Reader| Box::new(pattern(r));
            match r.byte() {
                BGP => GraphPattern::Bgp(
                    (0..r.count())
                        .map(|_| TriplePatternAst::new(position(r), position(r), position(r)))
                        .collect(),
                ),
                JOIN => GraphPattern::Join(sub(r), sub(r)),
                OPTIONAL => GraphPattern::Optional(sub(r), sub(r)),
                UNION => GraphPattern::Union(sub(r), sub(r)),
                FILTER => GraphPattern::Filter(sub(r), expression(r)),
                SERVICE => GraphPattern::Service {
                    kg: string(r),
                    pattern: sub(r),
                },
                tag => panic!("pattern tag {tag}"),
            }
        }

        pub(super) fn query(bytes: &[u8]) -> Query {
            let mut r = Reader { bytes, at: 0 };
            let form = match r.byte() {
                ASK => QueryForm::Ask,
                SELECT => {
                    let distinct = r.byte() == 1;
                    QueryForm::Select {
                        variables: (0..r.count()).map(|_| string(&mut r)).collect(),
                        distinct,
                    }
                }
                tag => panic!("form tag {tag}"),
            };
            let query = Query {
                form,
                pattern: pattern(&mut r),
                limit: option(&mut r, |r| r.count()),
                offset: option(&mut r, |r| r.count()),
            };
            assert_eq!(r.at, bytes.len(), "the query ends where its key does");
            query
        }
    }

    /// Two queries: equal (built apart), one a mutation of the other, or
    /// drawn independently.
    struct QueryPairs;

    impl Strategy for QueryPairs {
        type Value = (Query, Query);

        fn generate(&self, rng: &mut TestRng) -> (Query, Query) {
            let a = query(rng);
            let b = match rng.usize_in(0, 4) {
                0 => a.clone(),
                3 => query(rng),
                _ => {
                    let mut b = a.clone();
                    mutate(&mut b, rng);
                    b
                }
            };
            (a, b)
        }
    }

    /// The scope of ingesting 1–5 random triples into an empty store: the
    /// same IRIs the queries use, literals whose words the queries search,
    /// and the text predicates themselves.
    struct Scopes;

    impl Strategy for Scopes {
        type Value = TouchedScope;

        fn generate(&self, rng: &mut TestRng) -> TouchedScope {
            let batch: IngestBatch = (0..rng.usize_in(1, 6))
                .map(|_| {
                    let predicate = if rng.bool_with(0.1) {
                        TEXT_SEARCH_PREDICATES[0].to_string()
                    } else {
                        iri(rng)
                    };
                    let object = if rng.bool_with(0.5) {
                        literal(rng)
                    } else {
                        term(rng)
                    };
                    Triple::new(Term::iri(iri(rng)), Term::iri(predicate), object)
                })
                .collect();
            let report = LiveStore::new(Store::new())
                .ingest(batch)
                .expect("an in-memory ingest succeeds");
            report.touched().clone()
        }
    }

    proptest! {
        #[test]
        fn equal_keys_are_equal_queries((a, b) in QueryPairs) {
            prop_assert_eq!(&decode::query(&encode(&a)), &a);
            prop_assert!(
                (a == b) == (encode(&a) == encode(&b)),
                "equal: {}\n{:?}\n{:?}", a == b, a, b
            );
            // The scratch buffer is reused: a key is the fresh encoding.
            let (key_a, key_b) = (QueryKey::of(&a).bytes().to_vec(), QueryKey::of(&b).bytes().to_vec());
            prop_assert_eq!(key_a, encode(&a));
            prop_assert_eq!(key_b, encode(&b));
            prop_assert_eq!(QueryKey::of(&a).is_probe(), a.has_text_search());
        }

        #[test]
        fn staleness_over_the_bytes_is_staleness_over_the_ast(
            (a, b) in QueryPairs,
            scope in Scopes,
        ) {
            let encoded = EncodedScope::new(&scope);
            for q in [&a, &b] {
                let touched = query_touches(q, &scope);
                prop_assert!(
                    encoded.touches(&encode(q)) == touched,
                    "oracle: {}\n{:?}\n{:?}", touched, q, scope.added()
                );
            }
        }
    }

    #[test]
    fn boundaries_inside_strings_do_not_alias() {
        let var_pair = |a: &str, b: &str| Query {
            form: QueryForm::Select {
                variables: vec![a.into(), b.into()],
                distinct: false,
            },
            pattern: GraphPattern::empty(),
            limit: None,
            offset: None,
        };
        assert_ne!(encode(&var_pair("ab", "c")), encode(&var_pair("a", "bc")));
        assert_ne!(encode(&var_pair("", "a")), encode(&var_pair("a", "")));
        let typed = Term::literal_typed("1", "http://e/t");
        let tagged = Term::literal_lang("1", "http://e/t");
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_term(&typed, &mut a);
        encode_term(&tagged, &mut b);
        assert_ne!(a, b);
        // A string past 127 bytes takes a two-byte length.
        let long = "x".repeat(300);
        let mut out = Vec::new();
        write_str(&long, &mut out);
        assert_eq!(out.len(), 2 + 300);
        assert_eq!(Reader { bytes: &out, at: 0 }.str(), long.as_bytes());
    }

    #[test]
    fn a_searched_variable_is_left_to_its_text_pattern() {
        let probe = parse_query(
            r#"SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "'baltic' OR 'sea'" . } LIMIT 400"#,
        )
        .unwrap();
        let scope = |object: Term| {
            let batch = IngestBatch::from(vec![Triple::new(
                Term::iri("http://e/x"),
                Term::iri("http://e/label"),
                object,
            )]);
            LiveStore::new(Store::new())
                .ingest(batch)
                .unwrap()
                .touched()
                .clone()
        };
        for (object, touched) in [
            (Term::literal_str("Gulf"), false),
            (Term::iri("http://e/sea"), false),
            (Term::literal_str("North Sea"), true),
        ] {
            let scope = scope(object);
            assert_eq!(query_touches(&probe, &scope), touched);
            assert_eq!(EncodedScope::new(&scope).touches(&encode(&probe)), touched);
        }
    }

    #[test]
    fn a_nested_key_does_not_clobber_the_outer_one() {
        let outer = parse_query("SELECT ?s WHERE { ?s <http://e/p> ?o . }").unwrap();
        let inner = parse_query("ASK { <http://e/s> <http://e/q> ?o . }").unwrap();
        let outer_key = QueryKey::of(&outer);
        let inner_key = QueryKey::of(&inner);
        assert_eq!(inner_key.bytes(), encode(&inner));
        drop(inner_key);
        assert_eq!(outer_key.bytes(), encode(&outer));
    }
}
