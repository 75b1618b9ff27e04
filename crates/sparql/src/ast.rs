//! Abstract syntax tree for the supported SPARQL subset.

use kgqan_rdf::Term;

/// Either a variable or a concrete RDF term — the possible values of a
/// triple-pattern position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VarOrTerm {
    /// A named variable (`?sea`), stored without the question mark.
    Var(String),
    /// A concrete term.
    Term(Term),
}

impl VarOrTerm {
    /// Construct a variable.
    pub fn var(name: impl Into<String>) -> Self {
        VarOrTerm::Var(name.into())
    }

    /// Construct a term.
    pub fn term(term: Term) -> Self {
        VarOrTerm::Term(term)
    }

    /// Construct an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        VarOrTerm::Term(Term::iri(iri))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            VarOrTerm::Var(v) => Some(v),
            VarOrTerm::Term(_) => None,
        }
    }

    /// The term, if this is a term.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            VarOrTerm::Var(_) => None,
            VarOrTerm::Term(t) => Some(t),
        }
    }

    /// True if this position is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, VarOrTerm::Var(_))
    }
}

impl std::fmt::Display for VarOrTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarOrTerm::Var(v) => write!(f, "?{v}"),
            VarOrTerm::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern inside a WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePatternAst {
    /// Subject position.
    pub subject: VarOrTerm,
    /// Predicate position.
    pub predicate: VarOrTerm,
    /// Object position.
    pub object: VarOrTerm,
}

impl TriplePatternAst {
    /// Construct a triple pattern.
    pub fn new(subject: VarOrTerm, predicate: VarOrTerm, object: VarOrTerm) -> Self {
        TriplePatternAst {
            subject,
            predicate,
            object,
        }
    }

    /// Variables mentioned in this pattern.
    pub fn variables(&self) -> Vec<&str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|x| x.as_var())
            .collect()
    }

    /// Number of non-variable positions — a crude selectivity proxy used for
    /// join ordering.
    pub fn bound_positions(&self) -> usize {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter(|x| !x.is_var())
            .count()
    }
}

impl std::fmt::Display for TriplePatternAst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A filter / value expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expression {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Constant(Term),
    /// Equality.
    Eq(Box<Expression>, Box<Expression>),
    /// Inequality.
    Neq(Box<Expression>, Box<Expression>),
    /// Numeric/string less-than.
    Lt(Box<Expression>, Box<Expression>),
    /// Numeric/string greater-than.
    Gt(Box<Expression>, Box<Expression>),
    /// Numeric/string less-or-equal.
    Le(Box<Expression>, Box<Expression>),
    /// Numeric/string greater-or-equal.
    Ge(Box<Expression>, Box<Expression>),
    /// Logical conjunction.
    And(Box<Expression>, Box<Expression>),
    /// Logical disjunction.
    Or(Box<Expression>, Box<Expression>),
    /// Logical negation.
    Not(Box<Expression>),
    /// `CONTAINS(haystack, needle)` — case-insensitive substring test.
    Contains(Box<Expression>, Box<Expression>),
    /// `REGEX(text, pattern)` — substring / anchored-lite matching.
    Regex(Box<Expression>, Box<Expression>),
    /// `LANG(?x)` — language tag of a literal.
    Lang(Box<Expression>),
    /// `STR(?x)` — lexical form of a term.
    Str(Box<Expression>),
    /// `BOUND(?x)` — whether the variable is bound.
    Bound(String),
}

impl Expression {
    /// All variable names referenced anywhere in the expression (including
    /// inside `BOUND`), in first-seen order with duplicates removed.  The
    /// query planner uses this to decide how early a `FILTER` can run.
    pub fn variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables<'a>(&'a self, out: &mut Vec<&'a str>) {
        let mut push = |v: &'a str| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        match self {
            Expression::Var(v) | Expression::Bound(v) => push(v),
            Expression::Constant(_) => {}
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
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Expression::Not(inner) | Expression::Lang(inner) | Expression::Str(inner) => {
                inner.collect_variables(out)
            }
        }
    }
}

impl std::fmt::Display for Expression {
    /// Renders the expression in re-parseable SPARQL syntax.  Binary
    /// operators are always parenthesised so precedence survives the
    /// round-trip.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expression::Var(v) => write!(f, "?{v}"),
            Expression::Constant(t) => write!(f, "{t}"),
            Expression::Eq(a, b) => write!(f, "({a} = {b})"),
            Expression::Neq(a, b) => write!(f, "({a} != {b})"),
            Expression::Lt(a, b) => write!(f, "({a} < {b})"),
            Expression::Gt(a, b) => write!(f, "({a} > {b})"),
            Expression::Le(a, b) => write!(f, "({a} <= {b})"),
            Expression::Ge(a, b) => write!(f, "({a} >= {b})"),
            Expression::And(a, b) => write!(f, "({a} && {b})"),
            Expression::Or(a, b) => write!(f, "({a} || {b})"),
            Expression::Not(inner) => write!(f, "!{inner}"),
            Expression::Contains(a, b) => write!(f, "CONTAINS({a}, {b})"),
            Expression::Regex(a, b) => write!(f, "REGEX({a}, {b})"),
            Expression::Lang(inner) => write!(f, "LANG({inner})"),
            Expression::Str(inner) => write!(f, "STR({inner})"),
            Expression::Bound(v) => write!(f, "BOUND(?{v})"),
        }
    }
}

/// A graph pattern: the contents of a `{ ... }` group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GraphPattern {
    /// A basic graph pattern: a conjunction of triple patterns.
    Bgp(Vec<TriplePatternAst>),
    /// Sequential join of two patterns.
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// `OPTIONAL` — left outer join.
    Optional(Box<GraphPattern>, Box<GraphPattern>),
    /// `FILTER` applied to an inner pattern.
    Filter(Box<GraphPattern>, Expression),
    /// `UNION` of two patterns.
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `SERVICE <kg:name> { ... }` — evaluate the inner pattern against
    /// another registered KG and join the rows back into this query.  The
    /// target is the registry name of the remote KG (the `name` in
    /// `<kg:name>`), resolved at plan time through a
    /// [`plan::ServiceResolver`](crate::plan::ServiceResolver).
    Service {
        /// Registry name of the remote KG.
        kg: String,
        /// The group evaluated remotely.
        pattern: Box<GraphPattern>,
    },
}

impl GraphPattern {
    /// An empty basic graph pattern.
    pub fn empty() -> Self {
        GraphPattern::Bgp(Vec::new())
    }

    /// All triple patterns reachable in this graph pattern (used by query
    /// analysis and the benchmark taxonomy).
    pub fn all_triple_patterns(&self) -> Vec<&TriplePatternAst> {
        let mut out = Vec::new();
        self.any_bgp(|bgp| {
            out.extend(bgp);
            false
        });
        out
    }

    /// True if `test` holds for some basic graph pattern in the tree, tried
    /// in pattern order.  One walk, no allocation.
    pub fn any_bgp<'a>(&'a self, mut test: impl FnMut(&'a [TriplePatternAst]) -> bool) -> bool {
        type Test<'t, 'a> = &'t mut dyn FnMut(&'a [TriplePatternAst]) -> bool;
        fn walk<'a>(pattern: &'a GraphPattern, test: Test<'_, 'a>) -> bool {
            match pattern {
                GraphPattern::Bgp(tps) => test(tps),
                GraphPattern::Join(a, b)
                | GraphPattern::Optional(a, b)
                | GraphPattern::Union(a, b) => walk(a, test) || walk(b, test),
                GraphPattern::Filter(inner, _) | GraphPattern::Service { pattern: inner, .. } => {
                    walk(inner, test)
                }
            }
        }
        walk(self, &mut test)
    }

    /// True if a `SERVICE` group appears anywhere in the pattern — such a
    /// query needs a service resolver to execute (see
    /// [`plan::Planner::with_services`](crate::plan::Planner::with_services)).
    pub fn has_service(&self) -> bool {
        match self {
            GraphPattern::Bgp(_) => false,
            GraphPattern::Join(a, b) | GraphPattern::Optional(a, b) | GraphPattern::Union(a, b) => {
                a.has_service() || b.has_service()
            }
            GraphPattern::Filter(inner, _) => inner.has_service(),
            GraphPattern::Service { .. } => true,
        }
    }

    /// Registry names of every `SERVICE` target in the pattern, in
    /// first-seen order with duplicates removed.
    pub fn service_targets(&self) -> Vec<&str> {
        fn walk<'a>(pattern: &'a GraphPattern, out: &mut Vec<&'a str>) {
            match pattern {
                GraphPattern::Bgp(_) => {}
                GraphPattern::Join(a, b)
                | GraphPattern::Optional(a, b)
                | GraphPattern::Union(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                GraphPattern::Filter(inner, _) => walk(inner, out),
                GraphPattern::Service { kg, pattern } => {
                    if !out.contains(&kg.as_str()) {
                        out.push(kg);
                    }
                    walk(pattern, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// All variables mentioned anywhere in the pattern, in first-seen order.
    pub fn variables(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for tp in self.all_triple_patterns() {
            for v in tp.variables() {
                if !seen.iter().any(|s| s == v) {
                    seen.push(v.to_string());
                }
            }
        }
        seen
    }
}

/// The query form: SELECT or ASK.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryForm {
    /// `SELECT` with an explicit projection (empty = `SELECT *`).
    Select {
        /// Projected variable names; empty means all.
        variables: Vec<String>,
        /// Whether `DISTINCT` was specified.
        distinct: bool,
    },
    /// `ASK`.
    Ask,
}

/// A parsed SPARQL query.
///
/// The AST is `Eq + Hash`, so a built query can key a map directly without
/// a detour through its serialized text.  (`kgqan-endpoint`'s
/// `CachingEndpoint` keys its entries by a compact byte encoding of the
/// AST instead, one allocation an entry rather than a deep copy.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// SELECT or ASK.
    pub form: QueryForm,
    /// The WHERE clause.
    pub pattern: GraphPattern,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
    /// `OFFSET`, if present.
    pub offset: Option<usize>,
}

impl Query {
    /// The variables this query projects (explicit list, or every variable in
    /// the pattern for `SELECT *` / ASK).
    pub fn projected_variables(&self) -> Vec<String> {
        match &self.form {
            QueryForm::Select { variables, .. } if !variables.is_empty() => variables.clone(),
            _ => self.pattern.variables(),
        }
    }

    /// True if this is an ASK query.
    pub fn is_ask(&self) -> bool {
        matches!(self.form, QueryForm::Ask)
    }

    /// True if the query has a full-text search pattern
    /// ([`is_text_search_pattern`](crate::eval::is_text_search_pattern))
    /// anywhere, found without allocating.
    pub fn has_text_search(&self) -> bool {
        self.pattern
            .any_bgp(|bgp| bgp.iter().any(crate::eval::is_text_search_pattern))
    }

    /// Serialize the query back to SPARQL text.
    ///
    /// The output re-parses to an equal AST, so a [`Query`] built
    /// programmatically (e.g. KGQAn's candidate-query generator) can be
    /// shipped to a remote endpoint, while in-process endpoints execute the
    /// AST directly and skip the text round-trip entirely.
    pub fn to_sparql(&self) -> String {
        let mut out = String::new();
        match &self.form {
            QueryForm::Ask => out.push_str("ASK {\n"),
            QueryForm::Select {
                variables,
                distinct,
            } => {
                out.push_str("SELECT ");
                if *distinct {
                    out.push_str("DISTINCT ");
                }
                if variables.is_empty() {
                    out.push('*');
                } else {
                    for (i, v) in variables.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        out.push('?');
                        out.push_str(v);
                    }
                }
                out.push_str(" WHERE {\n");
            }
        }
        write_pattern(&self.pattern, &mut out, 1);
        out.push('}');
        if let Some(limit) = self.limit {
            out.push_str(&format!(" LIMIT {limit}"));
        }
        if let Some(offset) = self.offset {
            out.push_str(&format!(" OFFSET {offset}"));
        }
        out
    }
}

/// Append the body of a graph pattern to `out`, one clause per line.
fn write_pattern(pattern: &GraphPattern, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    match pattern {
        GraphPattern::Bgp(tps) => {
            for tp in tps {
                out.push_str(&pad);
                out.push_str(&tp.to_string());
                out.push('\n');
            }
        }
        GraphPattern::Join(a, b) => {
            // Brace both sides: the parser folds a nested `{ ... }` group
            // into a Join with whatever precedes it, so this shape re-parses
            // to an equal Join node whatever the children are (bare triple
            // lines would merge into the surrounding BGP, and a child's
            // FILTER would get hoisted out of its group).
            for side in [a, b] {
                write_group(side, out, indent);
            }
        }
        GraphPattern::Optional(a, b) => {
            // A FILTER scopes over its whole group, so a filtered left side
            // needs a group of its own: written bare, the parser would hoist
            // the filter above the OPTIONAL.
            match **a {
                GraphPattern::Filter(..) => write_group(a, out, indent),
                _ => write_pattern(a, out, indent),
            }
            out.push_str(&format!("{pad}OPTIONAL {{\n"));
            write_pattern(b, out, indent + 1);
            out.push_str(&format!("{pad}}}\n"));
        }
        GraphPattern::Union(a, b) => {
            out.push_str(&format!("{pad}{{\n"));
            write_pattern(a, out, indent + 1);
            out.push_str(&format!("{pad}}} UNION {{\n"));
            write_pattern(b, out, indent + 1);
            out.push_str(&format!("{pad}}}\n"));
        }
        GraphPattern::Filter(inner, expr) => {
            write_pattern(inner, out, indent);
            out.push_str(&format!("{pad}FILTER ({expr})\n"));
        }
        GraphPattern::Service { kg, pattern } => {
            out.push_str(&format!("{pad}SERVICE <kg:{kg}> {{\n"));
            write_pattern(pattern, out, indent + 1);
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

/// Append a pattern as a braced group of its own.
fn write_group(pattern: &GraphPattern, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&format!("{pad}{{\n"));
    write_pattern(pattern, out, indent + 1);
    out.push_str(&format!("{pad}}}\n"));
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_sparql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_or_term_accessors() {
        let v = VarOrTerm::var("sea");
        assert!(v.is_var());
        assert_eq!(v.as_var(), Some("sea"));
        assert!(v.as_term().is_none());
        assert_eq!(v.to_string(), "?sea");

        let t = VarOrTerm::iri("http://e/x");
        assert!(!t.is_var());
        assert_eq!(t.as_term(), Some(&Term::iri("http://e/x")));
        assert_eq!(t.to_string(), "<http://e/x>");
    }

    #[test]
    fn triple_pattern_variables_and_selectivity() {
        let tp = TriplePatternAst::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://e/p"),
            VarOrTerm::var("o"),
        );
        assert_eq!(tp.variables(), vec!["s", "o"]);
        assert_eq!(tp.bound_positions(), 1);
        assert_eq!(tp.to_string(), "?s <http://e/p> ?o .");
    }

    #[test]
    fn graph_pattern_collects_all_triples_and_vars() {
        let bgp1 = GraphPattern::Bgp(vec![TriplePatternAst::new(
            VarOrTerm::var("s"),
            VarOrTerm::iri("http://e/p"),
            VarOrTerm::var("o"),
        )]);
        let bgp2 = GraphPattern::Bgp(vec![TriplePatternAst::new(
            VarOrTerm::var("o"),
            VarOrTerm::iri("http://e/q"),
            VarOrTerm::var("z"),
        )]);
        let joined = GraphPattern::Optional(Box::new(bgp1), Box::new(bgp2));
        assert_eq!(joined.all_triple_patterns().len(), 2);
        assert_eq!(joined.variables(), vec!["s", "o", "z"]);
    }

    #[test]
    fn to_sparql_round_trips_through_parser() {
        let queries = [
            "SELECT DISTINCT ?sea ?type WHERE { \
               ?sea <http://dbpedia.org/property/outflow> <http://e/straits> . \
               OPTIONAL { ?sea a ?type . } } LIMIT 40 OFFSET 2",
            "ASK { <http://e/s> <http://e/p> <http://e/o> }",
            "SELECT * WHERE { { ?x <http://e/p> ?y . } UNION { ?x <http://e/q> ?y . } }",
            r#"SELECT ?s WHERE { ?s <http://e/p> ?l .
                FILTER (CONTAINS(?l, "sea") && (?pop > 100 || !BOUND(?t))) }"#,
            r#"SELECT ?s WHERE { ?s <http://e/p> ?l . FILTER (REGEX(STR(?l), "^x") || LANG(?l) != "en") }"#,
            // Nested groups parse to Join nodes; both sides must stay
            // distinct groups through serialization.
            "SELECT * WHERE { ?a <http://e/p> ?c . { ?d <http://e/q> ?f . } }",
            r#"SELECT * WHERE { { ?a <http://e/p> ?c . FILTER (?a != ?c) } { ?d <http://e/q> ?f . } }"#,
            // A federated group: the SERVICE target and inner pattern must
            // survive serialization unchanged.
            "SELECT ?p ?c WHERE { ?p <http://e/spouse> ?q . \
               SERVICE <kg:Wikidata> { ?q <http://e/birthPlace> ?c . } }",
        ];
        for q in queries {
            let parsed = crate::parser::parse_query(q).expect("test query parses");
            let rendered = parsed.to_sparql();
            let reparsed = crate::parser::parse_query(&rendered)
                .unwrap_or_else(|e| panic!("serialized query must re-parse: {e}\n{rendered}"));
            assert_eq!(parsed, reparsed, "round-trip changed the AST:\n{rendered}");
        }
    }

    #[test]
    fn text_search_is_found_at_any_depth() {
        let text = |q: &str| crate::parser::parse_query(q).unwrap().has_text_search();
        assert!(text(
            r#"SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "'sea'" . }"#
        ));
        assert!(text(
            r#"SELECT * WHERE { ?v ?p ?d OPTIONAL { ?d <text:query> "sea" } }"#
        ));
        assert!(!text("SELECT ?v WHERE { ?v <http://e/contains> ?d . }"));
    }

    #[test]
    fn expression_variables_are_collected_once_each() {
        let expr = Expression::And(
            Box::new(Expression::Gt(
                Box::new(Expression::Var("pop".into())),
                Box::new(Expression::Constant(Term::integer(5))),
            )),
            Box::new(Expression::Or(
                Box::new(Expression::Bound("t".into())),
                Box::new(Expression::Contains(
                    Box::new(Expression::Str(Box::new(Expression::Var("pop".into())))),
                    Box::new(Expression::Var("name".into())),
                )),
            )),
        );
        assert_eq!(expr.variables(), vec!["pop", "t", "name"]);
        assert!(Expression::Constant(Term::integer(1))
            .variables()
            .is_empty());
    }

    #[test]
    fn projected_variables_default_to_pattern_vars() {
        let q = Query {
            form: QueryForm::Select {
                variables: vec![],
                distinct: false,
            },
            pattern: GraphPattern::Bgp(vec![TriplePatternAst::new(
                VarOrTerm::var("a"),
                VarOrTerm::var("p"),
                VarOrTerm::var("b"),
            )]),
            limit: None,
            offset: None,
        };
        assert_eq!(q.projected_variables(), vec!["a", "p", "b"]);
        assert!(!q.is_ask());
    }
}
