//! Query results: one immutable, shared row table per SELECT, or a boolean
//! for ASK.
//!
//! # Layout
//!
//! A [`ResultSet`] is a header plus one flat cell array, each behind an
//! `Arc`:
//!
//! ```text
//! header ─► variables  ["v", "d"]          projection order (the JSON "head")
//!           by_name    [1, 0]              columns sorted by variable name
//! cells  ─► [v₀, d₀, v₁, d₁, …]            rows × width, `None` = unbound
//! ```
//!
//! Nothing is stored per row — no map, no copy of the variable names — and
//! nothing is mutable after construction, so cloning a [`QueryResults`] is
//! two reference-count bumps.  That is what lets the endpoint cache hand
//! the very table it stores to every caller (`kgqan_endpoint::cache`).
//!
//! # Why iteration is name-ordered
//!
//! [`Row::iter`] yields the bound `(variable, term)` pairs in variable-*name*
//! order, not projection order: that is the key order of each binding
//! object in the `/sparql` JSON body, and response bytes are pinned.  The
//! permutation is computed once per table (`by_name`), so iterating a row
//! costs no comparison.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use kgqan_rdf::Term;

/// What every row of a table shares: the projection and its name order.
#[derive(Debug, PartialEq, Eq)]
struct Header {
    variables: Vec<String>,
    /// Column indices sorted by variable name, one per *distinct* name (a
    /// variable projected twice is the same binding).
    by_name: Vec<usize>,
}

impl Header {
    /// The column a variable is projected into.
    fn column_index(&self, var: &str) -> Option<usize> {
        self.variables.iter().position(|name| name == var)
    }
}

/// The header of the empty view [`QueryResults::rows`] returns for ASK.
static NO_COLUMNS: Header = Header {
    variables: Vec::new(),
    by_name: Vec::new(),
};

/// An ordered sequence of solutions with a projection header — see the
/// [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    header: Arc<Header>,
    cells: Arc<[Option<Term>]>,
    /// Kept beside the cells because a table over the empty projection
    /// still has a row count.
    rows: usize,
}

impl ResultSet {
    /// Build a table of `rows` rows from its cells in row-major order
    /// (`None` = unbound).
    ///
    /// # Panics
    /// If `cells` does not hold exactly `rows × variables.len()` cells.
    pub fn new(variables: Vec<String>, rows: usize, cells: impl Into<Arc<[Option<Term>]>>) -> Self {
        let cells = cells.into();
        assert_eq!(
            cells.len(),
            rows * variables.len(),
            "a result table holds rows × width cells"
        );
        let mut by_name: Vec<usize> = (0..variables.len()).collect();
        by_name.sort_by_key(|&column| &variables[column]);
        by_name.dedup_by_key(|column| &variables[*column]);
        ResultSet {
            header: Arc::new(Header { variables, by_name }),
            cells,
            rows,
        }
    }

    /// The projected variable names.
    pub fn variables(&self) -> &[String] {
        &self.header.variables
    }

    /// The solution rows.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            header: &self.header,
            cells: &self.cells,
            range: 0..self.rows,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column a variable is projected into, for callers that read it
    /// from many rows ([`Row::cell`]).
    pub fn column_index(&self, var: &str) -> Option<usize> {
        self.header.column_index(var)
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

    /// Roughly how many bytes the table keeps alive: the cell array plus
    /// the text of every term and variable name.  One pass over the cells.
    pub fn approx_bytes(&self) -> usize {
        let text = |s: &Option<String>| s.as_ref().map_or(0, String::len);
        let cells: usize = self
            .cells
            .iter()
            .flatten()
            .map(|term| match term {
                Term::Iri(s) | Term::Blank(s) => s.len(),
                Term::Literal(lit) => lit.lexical.len() + text(&lit.datatype) + text(&lit.language),
            })
            .sum();
        let names: usize = self.header.variables.iter().map(String::len).sum();
        std::mem::size_of_val(&*self.cells) + cells + names
    }
}

/// The rows of a table, in order: a borrowed view that is its own iterator.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    header: &'a Header,
    cells: &'a [Option<Term>],
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
        let width = self.header.variables.len();
        let row = self.range.nth(n)?;
        Some(Row {
            header: self.header,
            cells: &self.cells[row * width..(row + 1) * width],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// A single solution: a view of one table row, mapping variable names to
/// terms.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    header: &'a Header,
    cells: &'a [Option<Term>],
}

impl<'a> Row<'a> {
    /// The term bound to `var`, if any (`None` too for a variable outside
    /// the projection).
    pub fn get(&self, var: &str) -> Option<&'a Term> {
        self.cell(self.header.column_index(var)?)
    }

    /// The term in a column resolved once with
    /// [`ResultSet::column_index`].
    pub fn cell(&self, column: usize) -> Option<&'a Term> {
        self.cells[column].as_ref()
    }

    /// True if `var` is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.get(var).is_some()
    }

    /// Iterate over the bound `(variable, term)` pairs in variable-name
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a Term)> + 'a {
        let Row { header, cells } = *self;
        header.by_name.iter().filter_map(move |&column| {
            let term = cells[column].as_ref()?;
            Some((header.variables[column].as_str(), term))
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
            QueryResults::Boolean(_) => Rows {
                header: &NO_COLUMNS,
                cells: &[],
                range: 0..0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn approx_bytes_counts_cells_and_text() {
        let rs = ResultSet::new(
            vec!["v".into()],
            2,
            vec![Some(Term::iri("http://e/abc")), None],
        );
        let cell = std::mem::size_of::<Option<Term>>();
        assert_eq!(rs.approx_bytes(), 2 * cell + "http://e/abc".len() + 1);
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
