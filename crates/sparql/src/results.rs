//! Query results: one immutable, shared row table per SELECT, or a boolean
//! for ASK.
//!
//! # Layout
//!
//! A [`ResultSet`] is one `Arc` holding a header, one flat array of 4-byte
//! codes and the term source the codes resolve through:
//!
//! ```text
//! header  variables   ["v", "d"]          projection order (the JSON "head")
//!         by_name     [1, 0]              columns sorted by variable name
//! codes   [v₀, d₀, v₁, d₁, …]             rows × width u32, u32::MAX = unbound
//! source  dictionary  FrozenDictionary    code < 2³¹: the store's term id
//!         side        [Term, …]           code ≥ 2³¹: side[code − 2³¹]
//! derived OnceLock<Arc<dyn Any>>          one value a reader derived from
//!                                         these rows, written once
//! ```
//!
//! The engine evaluates over dictionary ids, and a result stays in the
//! dictionary: a cell *is* the id, and text is borrowed from the pinned
//! snapshot's sealed dictionary only when a row is read ([`Row::get`],
//! [`Row::iter`], the wire writers).  Every served snapshot is sealed
//! (`LiveStore` compacts the store it publishes) and ids are append-only,
//! never re-used, so a table stays valid across every later epoch with no
//! bookkeeping: its dictionary handle keeps the segments it was built
//! against alive even after the live store has merged them away.  The side
//! table holds what the sealed dictionary cannot: terms returned by a
//! `SERVICE` endpoint, the cells handed to [`ResultSet::new`], and the terms
//! of a table built over a bare `Store` whose dictionary head was never
//! sealed.
//!
//! Nothing is stored per row — no map, no copy of the variable names, no
//! text — and nothing is mutable after construction, so cloning a
//! [`QueryResults`] is one reference-count bump.  That is what lets the
//! endpoint cache hand the very table it stores to every caller
//! (`kgqan_endpoint::cache`), and keep a page for 4 bytes a cell.
//!
//! # The derived slot
//!
//! The cache hands every hit the very table it stores, so what a reader
//! computes from a table's rows can live on the table: the linker keeps
//! its top-k ranking of a vertex or predicate probe there, as `(row,
//! score)` pairs ([`ResultSet::attach`], [`ResultSet::attached`]), and the
//! next question that hits the probe reads it instead of scoring the rows
//! again.
//! The slot is written once and never waited on — the first attach wins, a
//! concurrent reader that finds it empty computes for itself — and the
//! value must identify what it was derived with, since any reader may find
//! it.  It needs no bound and no invalidation: it lives and dies with the
//! table, so a table the cache evicts drops its value too.  The slot never
//! shows: equality, `Debug`, [`ResultSet::approx_bytes`] and the wire
//! writers see only the rows.
//!
//! # Equality
//!
//! Two tables are equal when they bind the same variables to the same
//! *terms*: codes are compared through their sources, because two tables
//! may come from different dictionaries (two KGs of a federation, or an
//! engine page against one built with [`ResultSet::new`]).
//!
//! # Why iteration is name-ordered
//!
//! [`Row::iter`] yields the bound `(variable, term)` pairs in variable-*name*
//! order, not projection order: that is the key order of each binding
//! object in the `/sparql` JSON body, and response bytes are pinned.  The
//! permutation is computed once per table (`by_name`), so iterating a row
//! costs no comparison.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, LazyLock, OnceLock};

use kgqan_rdf::{FrozenDictionary, Term, TermId};

/// The code of an unbound cell.
pub(crate) const UNBOUND: u32 = u32::MAX;

/// First side-table code: codes from here on index the table's own terms,
/// codes below it are dictionary ids (a store would need two billion terms
/// to reach it).  The executor interns `SERVICE` terms at the same base, so
/// a foreign id is already its result code.
const SIDE_BASE: u32 = 1 << 31;

/// The code of the `index`-th side-table term.
///
/// # Panics
/// If `index` would reach [`UNBOUND`]: a table holds fewer than 2³¹ − 1
/// terms of its own.
pub(crate) fn side_code(index: usize) -> u32 {
    u32::try_from(index)
        .ok()
        .and_then(|index| SIDE_BASE.checked_add(index))
        .filter(|&code| code != UNBOUND)
        .expect("a result table holds fewer than 2^31 - 1 terms of its own")
}

/// True for a code that [`side_code`] made, i.e. not a dictionary id.
pub(crate) fn is_side_code(code: u32) -> bool {
    code >= SIDE_BASE
}

/// What every row of a table shares: the projection and its name order.
struct Header {
    variables: Vec<String>,
    /// Column indices sorted by variable name, one per *distinct* name (a
    /// variable projected twice is the same binding).
    by_name: Vec<usize>,
}

impl Header {
    fn new(variables: Vec<String>) -> Self {
        let mut by_name: Vec<usize> = (0..variables.len()).collect();
        by_name.sort_by_key(|&column| &variables[column]);
        by_name.dedup_by_key(|column| &variables[*column]);
        Header { variables, by_name }
    }

    /// The column a variable is projected into.
    fn column_index(&self, var: &str) -> Option<usize> {
        self.variables.iter().position(|name| name == var)
    }
}

/// Where a table's codes resolve: the sealed dictionary of the snapshot it
/// was evaluated against, plus the terms that dictionary does not hold.
#[derive(Default)]
pub(crate) struct TermSource {
    dictionary: FrozenDictionary,
    side: Vec<Term>,
}

impl TermSource {
    pub(crate) fn new(dictionary: FrozenDictionary, side: Vec<Term>) -> Self {
        TermSource { dictionary, side }
    }

    /// The term behind a code; `None` for [`UNBOUND`].
    fn resolve(&self, code: u32) -> Option<&Term> {
        match code.checked_sub(SIDE_BASE) {
            // `UNBOUND` lands here, far past any side table.
            Some(index) => self.side.get(index as usize),
            None => self.dictionary.term_of(TermId(code)),
        }
    }
}

/// Everything a [`ResultSet`] shares, in one allocation.
struct Table {
    header: Header,
    codes: Box<[u32]>,
    source: TermSource,
    /// Kept beside the codes because a table over the empty projection
    /// still has a row count.
    rows: usize,
    /// The value a reader derived from these rows (see the module docs).
    derived: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Table {
    fn rows(&self) -> Rows<'_> {
        Rows {
            table: self,
            range: 0..self.rows,
        }
    }
}

/// The empty table behind the rows [`QueryResults::rows`] returns for ASK.
static NO_ROWS: LazyLock<Table> = LazyLock::new(|| Table {
    header: Header::new(Vec::new()),
    codes: Box::default(),
    source: TermSource::default(),
    rows: 0,
    derived: OnceLock::new(),
});

/// An ordered sequence of solutions with a projection header — see the
/// [module docs](self) for the layout.
#[derive(Clone)]
pub struct ResultSet {
    table: Arc<Table>,
}

impl ResultSet {
    /// Build a table of `rows` rows from its cells in row-major order
    /// (`None` = unbound).  The terms are kept in the table's own side
    /// table; the engine builds its tables over the store's dictionary
    /// instead.
    ///
    /// # Panics
    /// If `cells` does not hold exactly `rows × variables.len()` cells.
    pub fn new(
        variables: Vec<String>,
        rows: usize,
        cells: impl IntoIterator<Item = Option<Term>>,
    ) -> Self {
        let mut side = Vec::new();
        let codes: Vec<u32> = cells
            .into_iter()
            .map(|cell| match cell {
                None => UNBOUND,
                Some(term) => {
                    side.push(term);
                    side_code(side.len() - 1)
                }
            })
            .collect();
        let source = TermSource::new(FrozenDictionary::default(), side);
        ResultSet::from_codes(variables, rows, codes.into(), source)
    }

    /// Build a table from codes that resolve through `source`.
    ///
    /// # Panics
    /// If `codes` does not hold exactly `rows × variables.len()` codes.
    pub(crate) fn from_codes(
        variables: Vec<String>,
        rows: usize,
        codes: Box<[u32]>,
        source: TermSource,
    ) -> Self {
        assert_eq!(
            codes.len(),
            rows * variables.len(),
            "a result table holds rows × width cells"
        );
        let table = Table {
            header: Header::new(variables),
            codes,
            source,
            rows,
            derived: OnceLock::new(),
        };
        ResultSet {
            table: Arc::new(table),
        }
    }

    /// The projected variable names.
    pub fn variables(&self) -> &[String] {
        &self.table.header.variables
    }

    /// The solution rows.
    pub fn rows(&self) -> Rows<'_> {
        self.table.rows()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.table.rows == 0
    }

    /// The column a variable is projected into, for callers that read it
    /// from many rows ([`Row::cell`]).
    pub fn column_index(&self, var: &str) -> Option<usize> {
        self.table.header.column_index(var)
    }

    /// All terms bound to `var` across the rows, in row order, skipping
    /// unbound rows.  This is how KGQAn collects candidate answers.
    pub fn column(&self, var: &str) -> Vec<Term> {
        let Some(column) = self.column_index(var) else {
            return Vec::new();
        };
        self.rows()
            .filter_map(|row| row.cell(column).cloned())
            .collect()
    }

    /// The value [`attach`](Self::attach)ed to this table, if any.  It is
    /// shared by every clone of the table; downcast it to the type the
    /// attaching reader used.
    pub fn attached(&self) -> Option<&(dyn Any + Send + Sync)> {
        self.table.derived.get().map(|value| &**value)
    }

    /// Keep `value`, derived from this table's rows, on the table for every
    /// later reader of any clone of it.  The first value attached stays:
    /// returns false, dropping `value`, if the slot is already taken.
    pub fn attach<T: Any + Send + Sync>(&self, value: T) -> bool {
        self.table.derived.set(Arc::new(value)).is_ok()
    }

    /// Roughly how many bytes the table keeps alive of its own: 4 per cell,
    /// the terms of its side table and the variable names.  Text borrowed
    /// from the store's dictionary is the store's, and is not counted.
    pub fn approx_bytes(&self) -> usize {
        let text = |s: &Option<String>| s.as_ref().map_or(0, String::len);
        let side: usize = self
            .table
            .source
            .side
            .iter()
            .map(|term| {
                std::mem::size_of::<Term>()
                    + match term {
                        Term::Iri(s) | Term::Blank(s) => s.len(),
                        Term::Literal(lit) => {
                            lit.lexical.len() + text(&lit.datatype) + text(&lit.language)
                        }
                    }
            })
            .sum();
        let names: usize = self.table.header.variables.iter().map(String::len).sum();
        std::mem::size_of_val(&*self.table.codes) + side + names
    }
}

/// Tables are equal when they project the same variables and their rows
/// bind them to the same terms, whatever dictionaries the codes come from.
impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) {
            return true;
        }
        let (a, b) = (&*self.table, &*other.table);
        a.header.variables == b.header.variables
            && a.rows == b.rows
            && (a.codes.iter().zip(b.codes.iter()))
                .all(|(&x, &y)| a.source.resolve(x) == b.source.resolve(y))
    }
}

impl Eq for ResultSet {}

/// The variables and the rows, never the dictionary behind them.
impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultSet")
            .field("variables", &self.table.header.variables)
            .field("rows", &self.rows())
            .finish()
    }
}

/// The rows of a table, in order: a borrowed view that is its own iterator.
#[derive(Clone)]
pub struct Rows<'a> {
    table: &'a Table,
    range: Range<usize>,
}

impl<'a> Rows<'a> {
    /// True if there are no rows (`len()` is [`ExactSizeIterator`]'s).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// An iterator over the rows; the view itself is left untouched.
    pub fn iter(&self) -> Rows<'a> {
        self.clone()
    }

    /// The first row (the `n`-th is `nth(n)`, in constant time).
    pub fn first(&self) -> Option<Row<'a>> {
        self.iter().next()
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        self.nth(0)
    }

    fn nth(&mut self, n: usize) -> Option<Row<'a>> {
        let width = self.table.header.variables.len();
        let row = self.range.nth(n)?;
        Some(Row {
            table: self.table,
            codes: &self.table.codes[row * width..(row + 1) * width],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A single solution: a view of one table row, mapping variable names to
/// terms.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    table: &'a Table,
    /// This row's slice of the table's codes.
    codes: &'a [u32],
}

impl<'a> Row<'a> {
    /// The term bound to `var`, if any (`None` too for a variable outside
    /// the projection).
    pub fn get(&self, var: &str) -> Option<&'a Term> {
        self.cell(self.table.header.column_index(var)?)
    }

    /// The term in a column resolved once with
    /// [`ResultSet::column_index`].
    pub fn cell(&self, column: usize) -> Option<&'a Term> {
        self.table.source.resolve(self.codes[column])
    }

    /// True if `var` is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.get(var).is_some()
    }

    /// Iterate over the bound `(variable, term)` pairs in variable-name
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a Term)> + 'a {
        let Row { table, codes } = *self;
        table.header.by_name.iter().filter_map(move |&column| {
            let term = table.source.resolve(codes[column])?;
            Some((table.header.variables[column].as_str(), term))
        })
    }
}

/// Rows are equal when they bind the same variables to the same terms,
/// whatever tables (and projection orders) they are read from.
impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, term)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{var} = {term}")?;
        }
        write!(f, "}}")
    }
}

/// The result of executing a query: a solution sequence for SELECT, or a
/// boolean for ASK.  Cloning shares the table, it does not copy it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResults {
    /// SELECT results.
    Solutions(ResultSet),
    /// ASK result.
    Boolean(bool),
}

impl QueryResults {
    /// The solution sequence, if this is a SELECT result.
    pub fn as_solutions(&self) -> Option<&ResultSet> {
        match self {
            QueryResults::Solutions(rs) => Some(rs),
            QueryResults::Boolean(_) => None,
        }
    }

    /// The boolean, if this is an ASK result.
    pub fn as_boolean(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            QueryResults::Solutions(_) => None,
        }
    }

    /// Convenience accessor used throughout the harness: the rows of a
    /// SELECT result, or no rows for ASK.
    pub fn rows(&self) -> Rows<'_> {
        match self {
            QueryResults::Solutions(rs) => rs.rows(),
            QueryResults::Boolean(_) => NO_ROWS.rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_query;
    use kgqan_rdf::{Store, Triple};

    fn int(value: i64) -> Option<Term> {
        Some(Term::integer(value))
    }

    /// `?b ?a` projected in that order: row 0 binds both, row 1 only `?b`.
    fn table() -> ResultSet {
        ResultSet::new(
            vec!["b".into(), "a".into()],
            2,
            vec![int(1), int(2), int(3), None],
        )
    }

    #[test]
    fn row_iterates_bound_cells_in_variable_name_order() {
        let rs = table();
        let rows: Vec<Vec<(&str, &Term)>> = rs.rows().map(|row| row.iter().collect()).collect();
        assert_eq!(
            rows,
            [
                vec![("a", &Term::integer(2)), ("b", &Term::integer(1))],
                vec![("b", &Term::integer(3))],
            ]
        );
        let first = rs.rows().first().unwrap();
        assert_eq!(
            first.to_string(),
            format!("{{?a = {}, ?b = {}}}", Term::integer(2), Term::integer(1))
        );
        let second = rs.rows().nth(1).unwrap();
        assert!(second.is_bound("b"));
        assert!(!second.is_bound("a"));
        assert!(rs.rows().nth(2).is_none());
    }

    #[test]
    fn a_variable_projected_twice_is_one_binding() {
        let rs = ResultSet::new(vec!["x".into(), "x".into()], 1, vec![int(7), int(7)]);
        assert_eq!(rs.variables().len(), 2);
        assert_eq!(rs.rows().first().unwrap().iter().count(), 1);
    }

    #[test]
    fn get_outside_the_projection_is_none() {
        let rs = table();
        let row = rs.rows().first().unwrap();
        assert_eq!(row.get("a"), Some(&Term::integer(2)));
        assert_eq!(row.get("missing"), None);
        assert_eq!(rs.column_index("a"), Some(1));
        assert_eq!(row.cell(1), Some(&Term::integer(2)));
        assert_eq!(rs.column_index("missing"), None);
    }

    #[test]
    fn equality_looks_through_the_arcs() {
        let (one, other) = (table(), table());
        assert_eq!(one, other);
        assert_eq!(one, one.clone());
        let unbound_elsewhere = ResultSet::new(
            vec!["b".into(), "a".into()],
            2,
            vec![int(1), None, int(3), int(2)],
        );
        assert_ne!(one, unbound_elsewhere);
        // Rows compare by what they bind, not by where their columns sit.
        let swapped = ResultSet::new(vec!["a".into(), "b".into()], 1, vec![int(2), int(1)]);
        assert_eq!(one.rows().first(), swapped.rows().first());
        assert_ne!(one, swapped);
    }

    #[test]
    fn zero_width_and_zero_row_tables() {
        // Three solutions over the empty projection: rows, but no cells.
        let unit = ResultSet::new(Vec::new(), 3, Vec::new());
        assert_eq!(unit.len(), 3);
        assert_eq!(unit.rows().len(), 3);
        assert!(unit.rows().all(|row| row.iter().next().is_none()));
        assert_eq!(unit.rows().first().unwrap().to_string(), "{}");

        let none = ResultSet::new(vec!["x".into()], 0, Vec::new());
        assert!(none.is_empty());
        assert!(none.rows().is_empty());
        assert!(none.rows().first().is_none());
        assert!(none.column("x").is_empty());
        assert_ne!(none, ResultSet::new(vec!["y".into()], 0, Vec::new()));
    }

    #[test]
    fn result_set_column_extraction() {
        let rs = ResultSet::new(
            vec!["a".into(), "b".into()],
            3,
            vec![int(1), None, int(2), int(3), None, int(4)],
        );
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.column("a"), [Term::integer(1), Term::integer(2)]);
        assert_eq!(rs.column("b").len(), 2);
        assert_eq!(rs.column("c").len(), 0);
    }

    #[test]
    fn approx_bytes_counts_codes_and_only_the_text_the_table_owns() {
        // `ResultSet::new` keeps its terms in the table's side table.
        let rs = ResultSet::new(
            vec!["v".into()],
            2,
            vec![Some(Term::iri("http://e/abc")), None],
        );
        let term = std::mem::size_of::<Term>();
        assert_eq!(rs.approx_bytes(), 2 * 4 + term + "http://e/abc".len() + 1);

        // An engine-built table over a sealed store borrows its text from
        // the dictionary: 4 bytes a cell and the variable name.
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/abc"),
            Term::iri("http://e/p"),
            Term::literal_str("a long label the dictionary owns"),
        ));
        store.compact();
        let engine = execute_query(&store, "SELECT ?v WHERE { ?v ?p ?o . }").unwrap();
        assert_eq!(engine.as_solutions().unwrap().approx_bytes(), 4 + 1);
    }

    #[test]
    fn a_table_of_terms_equals_an_engine_table_of_ids() {
        let mut store = Store::new();
        for (s, o) in [("a", "x"), ("b", "y")] {
            store.insert(Triple::new(
                Term::iri(format!("http://e/{s}")),
                Term::iri("http://e/p"),
                Term::literal_str(o),
            ));
        }
        let query =
            "SELECT ?s ?o ?none WHERE { ?s <http://e/p> ?o . OPTIONAL { ?s <http://e/q> ?none } }";
        let by_terms = QueryResults::Solutions(ResultSet::new(
            vec!["s".into(), "o".into(), "none".into()],
            2,
            vec![
                Some(Term::iri("http://e/a")),
                Some(Term::literal_str("x")),
                None,
                Some(Term::iri("http://e/b")),
                Some(Term::literal_str("y")),
                None,
            ],
        ));
        // Over the unsealed head the engine copies its terms into the side
        // table; over the sealed dictionary it keeps bare ids.  Both equal
        // the table of terms, and print the same.
        let unsealed = execute_query(&store, query).unwrap();
        store.compact();
        let sealed = execute_query(&store, query).unwrap();
        for engine in [&unsealed, &sealed] {
            assert_eq!(engine, &by_terms);
            assert_eq!(format!("{engine:?}"), format!("{by_terms:?}"));
        }
        assert_eq!(
            format!("{by_terms:?}"),
            format!(
                "Solutions(ResultSet {{ variables: [\"s\", \"o\", \"none\"], rows: [{{\"o\": {:?}, \"s\": {:?}}}, {{\"o\": {:?}, \"s\": {:?}}}] }})",
                Term::literal_str("x"),
                Term::iri("http://e/a"),
                Term::literal_str("y"),
                Term::iri("http://e/b"),
            )
        );
        let other = ResultSet::new(
            vec!["s".into(), "o".into(), "none".into()],
            2,
            vec![
                Some(Term::iri("http://e/a")),
                Some(Term::literal_str("x")),
                None,
                Some(Term::iri("http://e/b")),
                Some(Term::literal_str("z")),
                None,
            ],
        );
        assert_ne!(sealed.as_solutions().unwrap(), &other);
    }

    #[test]
    fn an_attached_value_is_shared_written_once_and_never_shows() {
        let (plain, marked) = (table(), table());
        let before = (marked.approx_bytes(), format!("{marked:?}"));
        assert!(marked.attached().is_none());
        assert!(marked.clone().attach(7u32));
        assert!(!marked.attach(8u32), "the first value stays");
        assert!(!marked.attach("another type"));
        assert_eq!(marked.attached().unwrap().downcast_ref::<u32>(), Some(&7));
        assert!(marked.attached().unwrap().downcast_ref::<u64>().is_none());
        assert!(plain.attached().is_none());

        assert_eq!(marked, plain);
        assert_eq!(plain, marked);
        assert_eq!((marked.approx_bytes(), format!("{marked:?}")), before);
        assert_eq!(format!("{marked:?}"), format!("{plain:?}"));
    }

    #[test]
    fn side_codes_stop_short_of_unbound() {
        assert_eq!(side_code(0), 1 << 31);
        assert!(is_side_code(side_code(5)) && !is_side_code(5));
        assert_eq!(side_code((1 << 31) - 2), UNBOUND - 1);
        assert!(std::panic::catch_unwind(|| side_code((1 << 31) - 1)).is_err());
    }

    #[test]
    fn query_results_accessors() {
        let rs = QueryResults::Solutions(ResultSet::new(vec!["x".into()], 0, Vec::new()));
        assert!(rs.as_solutions().is_some());
        assert!(rs.as_boolean().is_none());
        assert!(rs.rows().is_empty());

        let b = QueryResults::Boolean(true);
        assert_eq!(b.as_boolean(), Some(true));
        assert!(b.as_solutions().is_none());
        assert_eq!(b.rows().len(), 0);
        assert!(b.rows().next().is_none());
    }
}
