//! Recursive-descent parser for the supported SPARQL subset.

use kgqan_rdf::{vocab, Term};

use crate::ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use crate::error::SparqlError;
use crate::lexer::{tokenize, DatatypeRef, Token};

/// Levels `Parser::depth` may reach.  Query text comes from the network,
/// and the parser, the planner, the executor and `Drop` all recurse once
/// per level of the tree: one that would grow taller is an ordinary parse
/// error instead of a stack overflow, which no `catch_unwind` contains.
const MAX_DEPTH: usize = 128;

/// Parse a SPARQL query string into a [`Query`].
///
/// `{ … }` groups and `FILTER` sub-expressions nest at most 128 deep, and a
/// group chains at most that many operators (`OPTIONAL`, `UNION`, `FILTER`,
/// `||`, …) on one level.
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: Vec::new(),
        depth: 0,
    };
    parser.parse()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: Vec<(String, String)>,
    /// Levels of the tree being built above the parse position: open
    /// groups and sub-expressions, plus the operators already chained onto
    /// each (chains are left-deep, so every link is a level).  The one
    /// link not counted is the join of a BGP written between two
    /// operators, so a pattern tree is at most twice this tall.
    depth: usize,
}

impl Parser {
    fn parse(&mut self) -> Result<Query, SparqlError> {
        // PREFIX declarations.
        while self.peek_keyword("PREFIX") {
            self.advance();
            self.parse_prefix_decl()?;
        }

        let form = if self.peek_keyword("SELECT") {
            self.advance();
            let distinct = if self.peek_keyword("DISTINCT") {
                self.advance();
                true
            } else {
                false
            };
            let mut variables = Vec::new();
            loop {
                match self.peek() {
                    Some(Token::Variable(v)) => {
                        variables.push(v.clone());
                        self.advance();
                    }
                    Some(Token::Star) => {
                        self.advance();
                        break;
                    }
                    _ => break,
                }
            }
            QueryForm::Select {
                variables,
                distinct,
            }
        } else if self.peek_keyword("ASK") {
            self.advance();
            QueryForm::Ask
        } else {
            return Err(SparqlError::Parse {
                message: "expected SELECT or ASK".into(),
            });
        };

        // WHERE is optional before the group.
        if self.peek_keyword("WHERE") {
            self.advance();
        }
        let pattern = self.parse_group()?;

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.peek_keyword("LIMIT") {
                self.advance();
                limit = Some(self.parse_usize()?);
            } else if self.peek_keyword("OFFSET") {
                self.advance();
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }

        if self.pos < self.tokens.len() {
            return Err(SparqlError::Parse {
                message: format!("unexpected trailing tokens: {:?}", self.tokens[self.pos]),
            });
        }

        Ok(Query {
            form,
            pattern,
            limit,
            offset,
        })
    }

    fn parse_prefix_decl(&mut self) -> Result<(), SparqlError> {
        // PREFIX name: <iri>
        let (prefix, empty_local) = match self.next_token()? {
            Token::PrefixedName(prefix, local) => (prefix, local),
            other => {
                return Err(SparqlError::Parse {
                    message: format!("expected prefix name in PREFIX declaration, found {other:?}"),
                })
            }
        };
        if !empty_local.is_empty() {
            return Err(SparqlError::Parse {
                message: "prefix declaration must end with ':'".into(),
            });
        }
        let iri = match self.next_token()? {
            Token::Iri(iri) => iri,
            other => {
                return Err(SparqlError::Parse {
                    message: format!("expected IRI in PREFIX declaration, found {other:?}"),
                })
            }
        };
        self.prefixes.push((prefix, iri));
        Ok(())
    }

    fn parse_usize(&mut self) -> Result<usize, SparqlError> {
        match self.next_token()? {
            Token::Numeric(n) => n.parse().map_err(|_| SparqlError::Parse {
                message: format!("invalid number {n}"),
            }),
            other => Err(SparqlError::Parse {
                message: format!("expected number, found {other:?}"),
            }),
        }
    }

    /// One level further down the tree.
    fn descend(&mut self) -> Result<(), SparqlError> {
        if self.depth == MAX_DEPTH {
            return Err(SparqlError::Parse {
                message: format!("query nests or chains more than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one level down and comes back up by however many
    /// levels it added.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SparqlError>,
    ) -> Result<T, SparqlError> {
        let outer = self.depth;
        self.descend()?;
        let parsed = parse(self);
        self.depth = outer;
        parsed
    }

    /// Parse a `{ ... }` group: triple patterns, OPTIONAL groups, FILTER
    /// expressions and UNIONs, combined left-to-right.
    fn parse_group(&mut self) -> Result<GraphPattern, SparqlError> {
        self.nested(Self::parse_group_body)
    }

    fn parse_group_body(&mut self) -> Result<GraphPattern, SparqlError> {
        self.expect(Token::LBrace)?;
        let mut current_bgp: Vec<TriplePatternAst> = Vec::new();
        let mut pattern: Option<GraphPattern> = None;
        let mut filters: Vec<Expression> = Vec::new();

        let flush_bgp = |bgp: &mut Vec<TriplePatternAst>, pattern: &mut Option<GraphPattern>| {
            if bgp.is_empty() {
                return;
            }
            let new = GraphPattern::Bgp(std::mem::take(bgp));
            *pattern = Some(match pattern.take() {
                None => new,
                Some(existing) => GraphPattern::Join(Box::new(existing), Box::new(new)),
            });
        };

        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.advance();
                    break;
                }
                Some(Token::Keyword(k)) if k == "OPTIONAL" => {
                    self.advance();
                    flush_bgp(&mut current_bgp, &mut pattern);
                    let inner = self.parse_group()?;
                    let left = pattern.take().unwrap_or_else(GraphPattern::empty);
                    pattern = Some(GraphPattern::Optional(Box::new(left), Box::new(inner)));
                    self.descend()?;
                }
                Some(Token::Keyword(k)) if k == "FILTER" => {
                    self.advance();
                    let expr = self.parse_filter_expression()?;
                    filters.push(expr);
                    self.descend()?;
                }
                Some(Token::Keyword(k)) if k == "SERVICE" => {
                    self.advance();
                    let kg = self.parse_service_target()?;
                    flush_bgp(&mut current_bgp, &mut pattern);
                    let inner = self.parse_group()?;
                    let service = GraphPattern::Service {
                        kg,
                        pattern: Box::new(inner),
                    };
                    pattern = Some(match pattern.take() {
                        None => service,
                        Some(existing) => GraphPattern::Join(Box::new(existing), Box::new(service)),
                    });
                    self.descend()?;
                }
                Some(Token::Keyword(k)) if k == "UNION" => {
                    self.advance();
                    flush_bgp(&mut current_bgp, &mut pattern);
                    let right = self.parse_group()?;
                    let left = pattern.take().unwrap_or_else(GraphPattern::empty);
                    pattern = Some(GraphPattern::Union(Box::new(left), Box::new(right)));
                    self.descend()?;
                }
                Some(Token::LBrace) => {
                    // Nested group (commonly the left side of a UNION).
                    flush_bgp(&mut current_bgp, &mut pattern);
                    let inner = self.parse_group()?;
                    pattern = Some(match pattern.take() {
                        None => inner,
                        Some(existing) => GraphPattern::Join(Box::new(existing), Box::new(inner)),
                    });
                    self.descend()?;
                }
                Some(Token::Dot) => {
                    self.advance();
                }
                None => {
                    return Err(SparqlError::Parse {
                        message: "unexpected end of input inside group".into(),
                    })
                }
                _ => {
                    let tp = self.parse_triple_pattern()?;
                    current_bgp.push(tp);
                }
            }
        }

        flush_bgp(&mut current_bgp, &mut pattern);
        let mut result = pattern.unwrap_or_else(GraphPattern::empty);
        for f in filters {
            result = GraphPattern::Filter(Box::new(result), f);
        }
        Ok(result)
    }

    /// Parse the target of a `SERVICE` clause: a `<kg:name>` IRI or a bare
    /// `kg:name` prefixed name naming a registered KG.
    fn parse_service_target(&mut self) -> Result<String, SparqlError> {
        match self.next_token()? {
            Token::Iri(iri) => match iri.strip_prefix("kg:") {
                Some(name) if !name.is_empty() => Ok(name.to_string()),
                _ => Err(SparqlError::Parse {
                    message: format!("SERVICE target must be <kg:name>, found <{iri}>"),
                }),
            },
            Token::PrefixedName(prefix, local) if prefix == "kg" && !local.is_empty() => Ok(local),
            other => Err(SparqlError::Parse {
                message: format!("SERVICE target must be <kg:name>, found {other:?}"),
            }),
        }
    }

    fn parse_triple_pattern(&mut self) -> Result<TriplePatternAst, SparqlError> {
        let subject = self.parse_var_or_term()?;
        let predicate = self.parse_var_or_term()?;
        let object = self.parse_var_or_term()?;
        Ok(TriplePatternAst::new(subject, predicate, object))
    }

    fn parse_var_or_term(&mut self) -> Result<VarOrTerm, SparqlError> {
        let token = self.next_token()?;
        self.token_to_var_or_term(token)
    }

    fn token_to_var_or_term(&self, token: Token) -> Result<VarOrTerm, SparqlError> {
        match token {
            Token::Variable(v) => Ok(VarOrTerm::Var(v)),
            Token::Iri(iri) => Ok(VarOrTerm::Term(Term::iri(iri))),
            Token::A => Ok(VarOrTerm::Term(Term::iri(vocab::RDF_TYPE))),
            Token::PrefixedName(prefix, local) => {
                let iri = self.resolve_prefix(&prefix, &local)?;
                Ok(VarOrTerm::Term(Term::iri(iri)))
            }
            Token::Literal {
                value,
                language,
                datatype,
            } => {
                let term = match (language, datatype) {
                    (Some(lang), _) => Term::literal_lang(value, lang),
                    (None, Some(DatatypeRef::Iri(dt))) => Term::literal_typed(value, dt),
                    (None, Some(DatatypeRef::Prefixed(prefix, local))) => {
                        let dt = self.resolve_prefix(&prefix, &local)?;
                        Term::literal_typed(value, dt)
                    }
                    (None, None) => Term::literal_str(value),
                };
                Ok(VarOrTerm::Term(term))
            }
            Token::Numeric(n) => {
                let datatype = if n.contains('.') {
                    vocab::XSD_DECIMAL
                } else {
                    vocab::XSD_INTEGER
                };
                Ok(VarOrTerm::Term(Term::literal_typed(n, datatype)))
            }
            Token::Keyword(k) if k == "TRUE" || k == "FALSE" => {
                Ok(VarOrTerm::Term(Term::boolean(k == "TRUE")))
            }
            other => Err(SparqlError::Parse {
                message: format!("expected variable or term, found {other:?}"),
            }),
        }
    }

    fn resolve_prefix(&self, prefix: &str, local: &str) -> Result<String, SparqlError> {
        // Explicit declarations take precedence; otherwise fall back to the
        // workspace-wide well-known prefixes so generated queries stay short.
        if let Some((_, ns)) = self.prefixes.iter().rev().find(|(p, _)| p == prefix) {
            return Ok(format!("{ns}{local}"));
        }
        let expanded = vocab::expand_curie(&format!("{prefix}:{local}"));
        if expanded != format!("{prefix}:{local}") {
            return Ok(expanded);
        }
        Err(SparqlError::UnknownPrefix(prefix.to_string()))
    }

    /// Parse `FILTER` followed by a parenthesised or function-style expression.
    fn parse_filter_expression(&mut self) -> Result<Expression, SparqlError> {
        self.nested(Self::parse_or_expression)
    }

    fn parse_or_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_and_expression()?;
        while matches!(self.peek(), Some(Token::Or)) {
            self.advance();
            let right = self.parse_and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
            self.descend()?;
        }
        Ok(left)
    }

    fn parse_and_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_comparison()?;
        while matches!(self.peek(), Some(Token::And)) {
            self.advance();
            let right = self.parse_comparison()?;
            left = Expression::And(Box::new(left), Box::new(right));
            self.descend()?;
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> Result<Expression, SparqlError> {
        let left = self.parse_unary()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some("="),
            Some(Token::Neq) => Some("!="),
            Some(Token::Lt) => Some("<"),
            Some(Token::Gt) => Some(">"),
            Some(Token::Le) => Some("<="),
            Some(Token::Ge) => Some(">="),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_unary()?;
            let boxed = (Box::new(left), Box::new(right));
            return Ok(match op {
                "=" => Expression::Eq(boxed.0, boxed.1),
                "!=" => Expression::Neq(boxed.0, boxed.1),
                "<" => Expression::Lt(boxed.0, boxed.1),
                ">" => Expression::Gt(boxed.0, boxed.1),
                "<=" => Expression::Le(boxed.0, boxed.1),
                _ => Expression::Ge(boxed.0, boxed.1),
            });
        }
        Ok(left)
    }

    /// An operand, `!`, a parenthesis or a function call: every way one
    /// expression holds another comes through here.
    fn parse_unary(&mut self) -> Result<Expression, SparqlError> {
        self.nested(Self::parse_unary_body)
    }

    fn parse_unary_body(&mut self) -> Result<Expression, SparqlError> {
        match self.peek() {
            Some(Token::Not) => {
                self.advance();
                let inner = self.parse_unary()?;
                Ok(Expression::Not(Box::new(inner)))
            }
            Some(Token::LParen) => {
                self.advance();
                let inner = self.parse_or_expression()?;
                self.expect(Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Keyword(k)) => {
                let keyword = k.clone();
                match keyword.as_str() {
                    "CONTAINS" | "REGEX" => {
                        self.advance();
                        self.expect(Token::LParen)?;
                        let a = self.parse_or_expression()?;
                        self.expect(Token::Comma)?;
                        let b = self.parse_or_expression()?;
                        self.expect(Token::RParen)?;
                        Ok(if keyword == "CONTAINS" {
                            Expression::Contains(Box::new(a), Box::new(b))
                        } else {
                            Expression::Regex(Box::new(a), Box::new(b))
                        })
                    }
                    "LANG" | "STR" | "LANGMATCHES" => {
                        self.advance();
                        self.expect(Token::LParen)?;
                        let a = self.parse_or_expression()?;
                        let result = if keyword == "LANGMATCHES" {
                            self.expect(Token::Comma)?;
                            let b = self.parse_or_expression()?;
                            // LANGMATCHES(LANG(?x), "en") ≈ CONTAINS on the tag.
                            Expression::Contains(Box::new(a), Box::new(b))
                        } else if keyword == "LANG" {
                            Expression::Lang(Box::new(a))
                        } else {
                            Expression::Str(Box::new(a))
                        };
                        self.expect(Token::RParen)?;
                        Ok(result)
                    }
                    "BOUND" => {
                        self.advance();
                        self.expect(Token::LParen)?;
                        let var = match self.next_token()? {
                            Token::Variable(v) => v,
                            other => {
                                return Err(SparqlError::Parse {
                                    message: format!("BOUND expects a variable, found {other:?}"),
                                })
                            }
                        };
                        self.expect(Token::RParen)?;
                        Ok(Expression::Bound(var))
                    }
                    "TRUE" | "FALSE" => {
                        self.advance();
                        Ok(Expression::Constant(Term::boolean(keyword == "TRUE")))
                    }
                    other => Err(SparqlError::Parse {
                        message: format!("unexpected keyword {other} in expression"),
                    }),
                }
            }
            Some(Token::Variable(_))
            | Some(Token::Iri(_))
            | Some(Token::PrefixedName(_, _))
            | Some(Token::Literal { .. })
            | Some(Token::Numeric(_)) => {
                let token = self.next_token()?;
                match self.token_to_var_or_term(token)? {
                    VarOrTerm::Var(v) => Ok(Expression::Var(v)),
                    VarOrTerm::Term(t) => Ok(Expression::Constant(t)),
                }
            }
            other => Err(SparqlError::Parse {
                message: format!("unexpected token in expression: {other:?}"),
            }),
        }
    }

    // -- token plumbing -----------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn next_token(&mut self) -> Result<Token, SparqlError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or(SparqlError::Parse {
                message: "unexpected end of input".into(),
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, expected: Token) -> Result<(), SparqlError> {
        let t = self.next_token()?;
        if t == expected {
            Ok(())
        } else {
            Err(SparqlError::Parse {
                message: format!("expected {expected:?}, found {t:?}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_query() {
        let q = parse_query(
            r#"PREFIX dbv: <http://dbpedia.org/resource/>
            SELECT ?sea WHERE {
              ?sea <http://dbpedia.org/property/outflow> dbv:Danish_straits .
              ?sea <http://dbpedia.org/ontology/nearestCity> dbv:Kaliningrad . }"#,
        )
        .unwrap();
        assert_eq!(q.projected_variables(), vec!["sea"]);
        let tps = q.pattern.all_triple_patterns();
        assert_eq!(tps.len(), 2);
        assert_eq!(
            tps[0].object,
            VarOrTerm::Term(Term::iri("http://dbpedia.org/resource/Danish_straits"))
        );
    }

    #[test]
    fn parses_select_star_distinct_limit() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o . } LIMIT 10 OFFSET 5").unwrap();
        match q.form {
            QueryForm::Select {
                distinct,
                ref variables,
            } => {
                assert!(distinct);
                assert!(variables.is_empty());
            }
            _ => panic!("expected select"),
        }
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
        assert_eq!(q.projected_variables(), vec!["s", "p", "o"]);
    }

    #[test]
    fn parses_ask_query() {
        let q = parse_query("ASK { <http://e/a> <http://e/b> <http://e/c> }").unwrap();
        assert!(q.is_ask());
        assert_eq!(q.pattern.all_triple_patterns().len(), 1);
    }

    #[test]
    fn parses_optional_group() {
        let q = parse_query(
            "SELECT ?u ?type WHERE { ?u <http://e/p> <http://e/o> . OPTIONAL { ?u a ?type . } }",
        )
        .unwrap();
        match q.pattern {
            GraphPattern::Optional(_, _) => {}
            other => panic!("expected optional, got {other:?}"),
        }
    }

    #[test]
    fn parses_filter_expressions() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://e/age> ?age . FILTER (?age >= 18 && CONTAINS(?name, "gray")) }"#,
        )
        .unwrap();
        match q.pattern {
            GraphPattern::Filter(_, Expression::And(_, _)) => {}
            other => panic!("expected filter(and), got {other:?}"),
        }
    }

    #[test]
    fn parses_bif_contains_pattern() {
        let q = parse_query(
            r#"SELECT DISTINCT ?v ?d WHERE { ?v ?p ?d . ?d <bif:contains> "'danish' OR 'straits'" . } LIMIT 400"#,
        )
        .unwrap();
        let tps = q.pattern.all_triple_patterns();
        assert_eq!(tps.len(), 2);
        assert_eq!(tps[1].predicate, VarOrTerm::Term(Term::iri("bif:contains")));
        assert_eq!(q.limit, Some(400));
    }

    #[test]
    fn parses_union() {
        let q = parse_query(
            "SELECT ?x WHERE { { ?x <http://e/a> ?y . } UNION { ?x <http://e/b> ?y . } }",
        )
        .unwrap();
        match q.pattern {
            GraphPattern::Union(_, _) => {}
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn parses_service_group() {
        let q = parse_query(
            "SELECT ?x ?c WHERE { ?x <http://e/a> ?y . \
             SERVICE <kg:Wikidata> { ?y <http://e/b> ?c . } }",
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Join(_, service) => match service.as_ref() {
                GraphPattern::Service { kg, pattern } => {
                    assert_eq!(kg, "Wikidata");
                    assert_eq!(pattern.all_triple_patterns().len(), 1);
                }
                other => panic!("expected service, got {other:?}"),
            },
            other => panic!("expected join, got {other:?}"),
        }
        assert!(q.pattern.has_service());
        assert_eq!(q.pattern.service_targets(), vec!["Wikidata"]);

        // A bare prefixed-name target works too, and a leading SERVICE
        // group needs no preceding pattern.
        let q =
            parse_query("SELECT ?c WHERE { SERVICE kg:YAGO { ?y <http://e/b> ?c . } }").unwrap();
        assert!(matches!(q.pattern, GraphPattern::Service { .. }));
    }

    #[test]
    fn service_target_must_name_a_kg() {
        assert!(
            parse_query("SELECT ?c WHERE { SERVICE <http://remote/sparql> { ?y ?p ?c . } }")
                .is_err()
        );
        assert!(parse_query("SELECT ?c WHERE { SERVICE ?target { ?y ?p ?c . } }").is_err());
        assert!(parse_query("SELECT ?c WHERE { SERVICE <kg:> { ?y ?p ?c . } }").is_err());
    }

    #[test]
    fn well_known_prefixes_resolve_without_declaration() {
        let q = parse_query("SELECT ?x WHERE { ?x rdf:type dbo:Sea . }").unwrap();
        let tps = q.pattern.all_triple_patterns();
        assert_eq!(
            tps[0].predicate,
            VarOrTerm::Term(Term::iri(vocab::RDF_TYPE))
        );
        assert_eq!(
            tps[0].object,
            VarOrTerm::Term(Term::iri("http://dbpedia.org/ontology/Sea"))
        );
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = parse_query("SELECT ?x WHERE { ?x zzz:thing ?y . }").unwrap_err();
        assert!(matches!(err, SparqlError::UnknownPrefix(_)));
    }

    #[test]
    fn missing_where_group_is_an_error() {
        assert!(parse_query("SELECT ?x").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <http://e/p>").is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 5 garbage").is_err());
    }

    #[test]
    fn numeric_and_boolean_objects_parse() {
        let q =
            parse_query("SELECT ?x WHERE { ?x <http://e/pop> 431000 . ?x <http://e/eu> true . }")
                .unwrap();
        let tps = q.pattern.all_triple_patterns();
        assert!(tps[0]
            .object
            .as_term()
            .unwrap()
            .as_literal()
            .unwrap()
            .is_numeric());
        assert!(tps[1]
            .object
            .as_term()
            .unwrap()
            .as_literal()
            .unwrap()
            .is_boolean());
    }

    #[test]
    fn explicit_prefix_overrides_builtin() {
        let q = parse_query(
            "PREFIX dbo: <http://example.org/other/> SELECT ?x WHERE { ?x dbo:thing ?y . }",
        )
        .unwrap();
        let tps = q.pattern.all_triple_patterns();
        assert_eq!(
            tps[0].predicate,
            VarOrTerm::Term(Term::iri("http://example.org/other/thing"))
        );
    }

    /// `n` levels (or chain links) of each way a query grows a taller tree.
    fn tall_queries(n: usize) -> Vec<String> {
        let tp = "?s ?p ?o";
        vec![
            format!(
                "SELECT ?s WHERE {{ {tp} {}{}}}",
                format!("OPTIONAL {{ {tp} ").repeat(n),
                "} ".repeat(n)
            ),
            format!("SELECT ?s WHERE {{ {{}} {} }}", "UNION {} ".repeat(n)),
            format!("SELECT ?s WHERE {{ {} }}", "{} ".repeat(n)),
            format!("SELECT ?s WHERE {{ {tp} {} }}", "FILTER(?o) ".repeat(n)),
            format!(
                "SELECT ?s WHERE {{ {tp} FILTER({}?o{}) }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!("SELECT ?s WHERE {{ {tp} FILTER({}?o) }}", "!".repeat(n)),
            format!(
                "SELECT ?s WHERE {{ {tp} FILTER(?o {}) }}",
                "|| ?o ".repeat(n)
            ),
            format!(
                "SELECT ?s WHERE {{ {tp} FILTER(?o {}) }}",
                "&& ?o ".repeat(n)
            ),
            format!(
                "SELECT ?s WHERE {{ {tp} FILTER({}?o{}) }}",
                "STR(".repeat(n),
                ")".repeat(n)
            ),
        ]
    }

    #[test]
    fn groups_nest_128_deep_and_no_deeper() {
        let braces = |n: usize| format!("SELECT ?s WHERE {}{}", "{".repeat(n), "}".repeat(n));
        let deepest = parse_query(&braces(MAX_DEPTH)).expect("128 groups parse");
        // Everything that walks the tree does so on a handler's stack.
        let rows = crate::execute(&kgqan_rdf::Store::new(), &deepest).expect("and run");
        assert_eq!(rows.rows().len(), 1);
        let err = parse_query(&braces(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("more than 128 levels"), "{err}");
    }

    #[test]
    fn tall_trees_are_parse_errors_not_stack_overflows() {
        for query in tall_queries(100) {
            let parsed = parse_query(&query).unwrap_or_else(|e| panic!("{e}: {query}"));
            assert!(crate::execute(&kgqan_rdf::Store::new(), &parsed).is_ok());
        }
        // Unclosed, as a hostile client would send it; each of these killed
        // the process before the cap.
        let mut hostile = tall_queries(100_000);
        hostile.push(format!("SELECT ?s WHERE {}", "{".repeat(100_000)));
        for query in tall_queries(MAX_DEPTH).into_iter().chain(hostile) {
            let err = parse_query(&query).expect_err("taller than the cap");
            assert!(err.to_string().contains("more than 128 levels"), "{err}");
        }
    }
}
