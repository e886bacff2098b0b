//! A small SQL-ish predicate parser, so examples, tests and interactive
//! use can write `"age >= 30 AND name = 'Tim' AND x IN (1, 2, 3)"` instead
//! of building [`Predicate`] lists by hand.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! disjunction := conjunction ( OR conjunction )*
//! conjunction := predicate ( AND predicate )*
//! predicate   := column op literal | column IN '(' literal (',' literal)* ')'
//! op          := = | != | <> | < | <= | > | >=
//! literal     := integer | 'string' | "string"
//! ```

use uae_data::{Table, Value};

use crate::predicate::{PredOp, Predicate, Query};

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unknown column name.
    UnknownColumn(String),
    /// Malformed token stream.
    Unexpected {
        /// What was found.
        found: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Input ended early.
    UnexpectedEnd(&'static str),
    /// The expression contains `OR`; use [`parse_disjunction`].
    DisjunctionNotAllowed,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            ParseError::Unexpected { found, expected } => {
                write!(f, "unexpected `{found}`, expected {expected}")
            }
            ParseError::UnexpectedEnd(expected) => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::DisjunctionNotAllowed => {
                write!(f, "expression contains OR; use parse_disjunction")
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Op(PredOp),
    And,
    Or,
    In,
    LParen,
    RParen,
    Comma,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            ',' => {
                chars.next();
                out.push(Tok::Comma);
            }
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some(ch) if ch == quote => break,
                        Some(ch) => s.push(ch),
                        None => return Err(ParseError::UnexpectedEnd("closing quote")),
                    }
                }
                out.push(Tok::Str(s));
            }
            '=' => {
                chars.next();
                out.push(Tok::Op(PredOp::Eq));
            }
            '!' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(ParseError::Unexpected { found: "!".into(), expected: "`!=`" });
                }
                out.push(Tok::Op(PredOp::Ne));
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        out.push(Tok::Op(PredOp::Le));
                    }
                    Some('>') => {
                        chars.next();
                        out.push(Tok::Op(PredOp::Ne));
                    }
                    _ => out.push(Tok::Op(PredOp::Lt)),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Op(PredOp::Ge));
                } else {
                    out.push(Tok::Op(PredOp::Gt));
                }
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v = s.parse().map_err(|_| ParseError::Unexpected {
                    found: s.clone(),
                    expected: "integer",
                })?;
                out.push(Tok::Int(v));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match s.to_ascii_uppercase().as_str() {
                    "AND" => out.push(Tok::And),
                    "OR" => out.push(Tok::Or),
                    "IN" => out.push(Tok::In),
                    _ => out.push(Tok::Ident(s)),
                }
            }
            other => {
                return Err(ParseError::Unexpected {
                    found: other.to_string(),
                    expected: "a predicate",
                })
            }
        }
    }
    Ok(out)
}

/// Parse a conjunctive predicate expression into a [`Query`].
///
/// ```
/// use uae_data::{Table, Value};
/// use uae_query::{parse_query, Executor};
///
/// let table = Table::from_columns(
///     "people",
///     vec![("age".into(), (0..50i64).map(Value::Int).collect())],
/// );
/// let q = parse_query(&table, "age >= 10 AND age < 20").unwrap();
/// assert_eq!(Executor::new(&table).cardinality(&q), 10);
/// ```
pub fn parse_query(table: &Table, input: &str) -> Result<Query, ParseError> {
    match <[Query; 1]>::try_from(parse_disjunction(table, input)?) {
        Ok([query]) => Ok(query),
        Err(_) => Err(ParseError::DisjunctionNotAllowed),
    }
}

/// Parse an expression that may contain top-level `OR`s into its
/// disjuncts (feed to `Uae::estimate_disjunction_card`).
pub fn parse_disjunction(table: &Table, input: &str) -> Result<Vec<Query>, ParseError> {
    let toks = tokenize(input)?;
    let mut pos = 0usize;
    let mut disjuncts = Vec::new();
    loop {
        let (query, next) = parse_conjunction(table, &toks, pos)?;
        disjuncts.push(query);
        match toks.get(next) {
            Some(Tok::Or) => pos = next + 1,
            None => break,
            Some(t) => {
                return Err(ParseError::Unexpected {
                    found: format!("{t:?}"),
                    expected: "OR or end of input",
                })
            }
        }
    }
    Ok(disjuncts)
}

fn parse_conjunction(
    table: &Table,
    toks: &[Tok],
    mut pos: usize,
) -> Result<(Query, usize), ParseError> {
    let mut predicates = Vec::new();
    loop {
        let (pred, next) = parse_predicate(table, toks, pos)?;
        predicates.push(pred);
        pos = next;
        match toks.get(pos) {
            Some(Tok::And) => pos += 1,
            _ => break,
        }
    }
    Ok((Query::new(predicates), pos))
}

fn parse_predicate(
    table: &Table,
    toks: &[Tok],
    pos: usize,
) -> Result<(Predicate, usize), ParseError> {
    let Some(Tok::Ident(col_name)) = toks.get(pos) else {
        return Err(match toks.get(pos) {
            Some(t) => {
                ParseError::Unexpected { found: format!("{t:?}"), expected: "a column name" }
            }
            None => ParseError::UnexpectedEnd("a column name"),
        });
    };
    let column =
        table.column_index(col_name).ok_or_else(|| ParseError::UnknownColumn(col_name.clone()))?;
    match toks.get(pos + 1) {
        Some(Tok::Op(op)) => {
            let value = parse_literal(toks, pos + 2)?;
            Ok((Predicate::new(column, op.clone(), value), pos + 3))
        }
        Some(Tok::In) => {
            if toks.get(pos + 2) != Some(&Tok::LParen) {
                return Err(ParseError::Unexpected { found: "IN".into(), expected: "`IN (`" });
            }
            let mut values = Vec::new();
            let mut p = pos + 3;
            loop {
                values.push(parse_literal(toks, p)?);
                p += 1;
                match toks.get(p) {
                    Some(Tok::Comma) => p += 1,
                    Some(Tok::RParen) => {
                        p += 1;
                        break;
                    }
                    Some(t) => {
                        return Err(ParseError::Unexpected {
                            found: format!("{t:?}"),
                            expected: "`,` or `)`",
                        })
                    }
                    None => return Err(ParseError::UnexpectedEnd("`)`")),
                }
            }
            Ok((Predicate::is_in(column, values), p))
        }
        Some(t) => Err(ParseError::Unexpected {
            found: format!("{t:?}"),
            expected: "a comparison operator or IN",
        }),
        None => Err(ParseError::UnexpectedEnd("a comparison operator")),
    }
}

fn parse_literal(toks: &[Tok], pos: usize) -> Result<Value, ParseError> {
    match toks.get(pos) {
        Some(Tok::Int(v)) => Ok(Value::Int(*v)),
        Some(Tok::Str(s)) => Ok(Value::Str(s.clone())),
        Some(t) => Err(ParseError::Unexpected { found: format!("{t:?}"), expected: "a literal" }),
        None => Err(ParseError::UnexpectedEnd("a literal")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use proptest::prelude::*;

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![
                ("age".into(), (0..100i64).map(Value::Int).collect()),
                (
                    "name".into(),
                    (0..100).map(|i| Value::from(["James", "Paul", "Tim"][i % 3])).collect(),
                ),
            ],
        )
    }

    #[test]
    fn parses_conjunctions_with_all_ops() {
        let t = table();
        let q = parse_query(&t, "age >= 10 AND age < 50 AND name != 'Tim'").unwrap();
        assert_eq!(q.predicates.len(), 3);
        let exec = Executor::new(&t);
        // ages 10..49 excluding every third name (Tim at i % 3 == 2)
        let truth = (10..50).filter(|i| i % 3 != 2).count() as u64;
        assert_eq!(exec.cardinality(&q), truth);
    }

    #[test]
    fn parses_in_lists_and_strings() {
        let t = table();
        let q = parse_query(&t, "name IN ('James', 'Paul') AND age <= 8").unwrap();
        let exec = Executor::new(&t);
        let truth = (0..=8).filter(|i| i % 3 != 2).count() as u64;
        assert_eq!(exec.cardinality(&q), truth);
    }

    #[test]
    fn parses_disjunctions() {
        let t = table();
        let ds = parse_disjunction(&t, "age < 5 OR age > 94 AND name = 'Tim'").unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].predicates.len(), 1);
        assert_eq!(ds[1].predicates.len(), 2);
    }

    #[test]
    fn ne_spellings() {
        let t = table();
        let a = parse_query(&t, "age != 3").unwrap();
        let b = parse_query(&t, "age <> 3").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_reporting() {
        let t = table();
        assert!(matches!(
            parse_query(&t, "bogus = 1"),
            Err(ParseError::UnknownColumn(c)) if c == "bogus"
        ));
        assert!(matches!(parse_query(&t, "age >"), Err(ParseError::UnexpectedEnd(_))));
        assert!(matches!(
            parse_query(&t, "age < 5 OR age > 90"),
            Err(ParseError::DisjunctionNotAllowed)
        ));
        assert!(parse_query(&t, "age IN (1, 2").is_err());
        assert!(parse_query(&t, "name = 'unterminated").is_err());
    }

    #[test]
    fn malformed_inputs_return_errors_not_panics() {
        let t = table();
        // Each shape must produce Err — never a panic, never a silent Ok.
        let cases: &[(&str, &str)] = &[
            ("", "empty input"),
            ("age", "bare column, no operator"),
            ("age 5", "missing operator"),
            ("age = = 5", "doubled operator"),
            ("age =", "operator with no literal"),
            ("5 = age", "literal where a column belongs"),
            ("age = 1 2", "trailing literal after predicate"),
            ("age = 1 AND", "dangling AND"),
            ("age = 1 OR", "dangling OR"),
            ("AND age = 1", "leading AND"),
            ("age IN ()", "empty IN list"),
            ("age IN (1", "unterminated IN list"),
            ("age IN (1,", "IN list ending on comma"),
            ("age IN 1", "IN without parens"),
            ("age IN (1 2)", "IN list missing comma"),
            ("!", "lone bang"),
            ("age ! 5", "bang without equals"),
            ("age @ 5", "unknown operator character"),
            ("name = 'unterminated", "unterminated string"),
            ("age = 99999999999999999999999", "integer overflow"),
            ("age = 'x' AND bogus = 1", "unknown column mid-conjunction"),
        ];
        for (input, what) in cases {
            let res = parse_disjunction(&t, input);
            assert!(res.is_err(), "{what}: `{input}` must be rejected, got {res:?}");
        }
        // And the specific diagnoses clients branch on:
        assert_eq!(parse_query(&t, ""), Err(ParseError::UnexpectedEnd("a column name")));
        assert_eq!(parse_query(&t, "age"), Err(ParseError::UnexpectedEnd("a comparison operator")));
        assert!(matches!(
            parse_query(&t, "age @ 5"),
            Err(ParseError::Unexpected { found, .. }) if found == "@"
        ));
        assert!(matches!(
            parse_query(&t, "age = 99999999999999999999999"),
            Err(ParseError::Unexpected { expected: "integer", .. })
        ));
    }

    /// The grammar's alphabet by role (column, operator, literal,
    /// connective), weighted towards valid fragments and with characters
    /// outside it mixed in. Fragments are separated by single spaces.
    const ROLES: [&str; 4] = [
        "age name age name age Age bogus 名前",
        "= != <> < <= > >= = < > IN !",
        "0 7 42 -3 'Tim' \"Paul\" '' 7 - ' 99999999999999999999 (1,2) ('James',-4) é",
        "AND and OR or AND OR ß ;",
    ];
    const SEPARATORS: [&str; 6] = [" ", " ", " ", "", "\t", "\n"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Token soup from the grammar's alphabet. Token `i` mostly takes
        /// role `i % 4` and half the inputs end on a literal, so
        /// well-formed expressions come up often; one token in sixteen
        /// takes a random role. Both entry points return `Ok` or `Err`
        /// without panicking, and every accepted predicate names a real
        /// column.
        #[test]
        fn parser_survives_token_soup(
            mut picks in proptest::collection::vec(
                (0u8..16, 0usize..4, 0usize..64, 0..SEPARATORS.len()),
                0..=24,
            ),
            end_on_literal in any::<bool>(),
        ) {
            if end_on_literal {
                picks.truncate(((picks.len() + 1) / 4 * 4).saturating_sub(1));
            }
            let t = table();
            let mut input = String::new();
            for (i, &(noise, role, f, sep)) in picks.iter().enumerate() {
                let role = if noise == 0 { role } else { i % 4 };
                let fragments: Vec<&str> = ROLES[role].split(' ').collect();
                input += fragments[f % fragments.len()];
                input += SEPARATORS[sep];
            }
            let single = parse_query(&t, &input).map(|q| vec![q]);
            for queries in [single, parse_disjunction(&t, &input)].into_iter().flatten() {
                for p in queries.iter().flat_map(|q| &q.predicates) {
                    prop_assert!(p.column < t.num_cols(), "`{}` gave column {}", input, p.column);
                }
            }
        }
    }

    #[test]
    fn negative_integers() {
        let t = table();
        let q = parse_query(&t, "age >= -5").unwrap();
        let exec = Executor::new(&t);
        assert_eq!(exec.cardinality(&q), 100);
    }
}
