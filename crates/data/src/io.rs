//! CSV ingestion — the adoption path for real datasets (the paper's DMV,
//! Census and Kddcup98 are all CSV exports).
//!
//! A deliberately small, dependency-free reader: comma separation,
//! double-quote quoting with `""` escapes, optional header row, automatic
//! integer/string typing per column (a column is integer-typed only if
//! *every* non-empty cell parses as `i64`). Empty cells become the string
//! `""` or integer-typed columns' sentinel `i64::MIN` — dictionary-encoded
//! like any other value, they never collide with real data silently.

use std::io::BufRead;

use crate::table::Table;
use crate::value::Value;

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Whether the first row is a header with column names.
    pub has_header: bool,
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Maximum number of rows to read (`usize::MAX` = all).
    pub max_rows: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { has_header: true, delimiter: ',', max_rows: usize::MAX }
    }
}

/// Errors from CSV ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A row had a different number of fields than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected.
        expected: usize,
    },
    /// Unterminated quoted field at end of input.
    UnterminatedQuote {
        /// 1-based line number where the field started.
        line: usize,
    },
    /// The input contained no data rows.
    Empty,
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow { line, found, expected } => {
                write!(f, "line {line}: {found} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::Empty => write!(f, "no data rows"),
            CsvError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Read a table from CSV text.
///
/// ```
/// use uae_data::{table_from_csv, CsvOptions, Value};
///
/// let csv = "city,pop\nOslo,700\nBergen,280\n";
/// let t = table_from_csv("no", std::io::Cursor::new(csv), &CsvOptions::default()).unwrap();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.column(1).value(0), &Value::Int(700));
/// ```
pub fn table_from_csv(
    name: &str,
    input: impl BufRead,
    opts: &CsvOptions,
) -> Result<Table, CsvError> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header: Option<Vec<String>> = None;
    for (lineno, line) in input.lines().enumerate() {
        // The cap comes first, so `max_rows: 0` reads no row and no line
        // past the cap is parsed.
        if rows.len() >= opts.max_rows {
            break;
        }
        let line = line.map_err(|e| CsvError::Io(e.to_string()))?;
        if line.is_empty() {
            continue;
        }
        let fields = split_csv_line(&line, opts.delimiter)
            .ok_or(CsvError::UnterminatedQuote { line: lineno + 1 })?;
        if opts.has_header && header.is_none() {
            header = Some(fields);
            continue;
        }
        if let Some(first) = rows.first() {
            if fields.len() != first.len() {
                return Err(CsvError::RaggedRow {
                    line: lineno + 1,
                    found: fields.len(),
                    expected: first.len(),
                });
            }
        } else if let Some(h) = &header {
            if fields.len() != h.len() {
                return Err(CsvError::RaggedRow {
                    line: lineno + 1,
                    found: fields.len(),
                    expected: h.len(),
                });
            }
        }
        rows.push(fields);
    }
    if rows.is_empty() {
        return Err(CsvError::Empty);
    }
    let ncols = rows[0].len();
    let names: Vec<String> = match header {
        Some(h) => h,
        None => (0..ncols).map(|c| format!("col{c}")).collect(),
    };

    // Type inference and conversion in one pass: parse optimistically as
    // integers, and fall back to strings on the first cell that refuses —
    // no second parse that could disagree with the first.
    let columns = (0..ncols)
        .map(|c| {
            let mut ints: Option<Vec<i64>> = Some(Vec::with_capacity(rows.len()));
            for r in &rows {
                let Some(parsed) = ints.as_mut() else { break };
                if r[c].is_empty() {
                    parsed.push(i64::MIN);
                } else if let Ok(v) = r[c].trim().parse::<i64>() {
                    parsed.push(v);
                } else {
                    ints = None;
                }
            }
            let values: Vec<Value> = match ints {
                Some(parsed) => parsed.into_iter().map(Value::Int).collect(),
                None => rows.iter().map(|r| Value::Str(r[c].trim().to_owned())).collect(),
            };
            (names[c].clone(), values)
        })
        .collect();
    Ok(Table::from_columns(name, columns))
}

/// Split one CSV record; `None` on an unterminated quote.
fn split_csv_line(line: &str, delim: char) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' && field.is_empty() {
            in_quotes = true;
        } else if c == delim {
            out.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return None;
    }
    out.push(field);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn typed_columns_and_header() {
        let csv = "age,name,score\n34,Alice,10\n28,Bob,20\n34,\"Chen, Wei\",15\n";
        let t = table_from_csv("people", Cursor::new(csv), &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.column(0).name(), "age");
        assert_eq!(t.column(0).value(0), &Value::Int(34));
        assert_eq!(t.column(1).value(2), &Value::from("Chen, Wei"));
        assert_eq!(t.column(0).domain_size(), 2); // 34 appears twice
    }

    #[test]
    fn no_header_and_custom_delimiter() {
        let csv = "1|x\n2|y\n";
        let opts = CsvOptions { has_header: false, delimiter: '|', ..CsvOptions::default() };
        let t = table_from_csv("t", Cursor::new(csv), &opts).unwrap();
        assert_eq!(t.column(0).name(), "col0");
        assert_eq!(t.column(1).value(1), &Value::from("y"));
    }

    #[test]
    fn quoted_quotes_round_trip() {
        let csv = "s\n\"he said \"\"hi\"\"\"\n";
        let t = table_from_csv("t", Cursor::new(csv), &CsvOptions::default()).unwrap();
        assert_eq!(t.column(0).value(0), &Value::from("he said \"hi\""));
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let csv = "a,b\n1,2\n3\n";
        let err = table_from_csv("t", Cursor::new(csv), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { line: 3, found: 1, expected: 2 }));
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let csv = "a\n\"oops\n";
        let err = table_from_csv("t", Cursor::new(csv), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn mixed_column_falls_back_to_string() {
        let csv = "v\n1\ntwo\n3\n";
        let t = table_from_csv("t", Cursor::new(csv), &CsvOptions::default()).unwrap();
        assert_eq!(t.column(0).value(0), &Value::from("1"));
        assert_eq!(t.column(0).domain_size(), 3);
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = table_from_csv("t", Cursor::new("a,b\n"), &CsvOptions::default()).unwrap_err();
        assert_eq!(err, CsvError::Empty);
    }

    #[test]
    fn max_rows_truncates() {
        let csv = "v\n1\n2\n3\n4\n";
        let opts = CsvOptions { max_rows: 2, ..CsvOptions::default() };
        let t = table_from_csv("t", Cursor::new(csv), &opts).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn max_rows_zero_reads_no_rows() {
        let opts = CsvOptions { max_rows: 0, ..CsvOptions::default() };
        let err = table_from_csv("t", Cursor::new("v\n1\n2\n"), &opts).unwrap_err();
        assert_eq!(err, CsvError::Empty);
    }

    /// A valid CSV with a header, quoted fields, an escaped quote, an
    /// empty cell and mixed column types.
    const VALID: &str =
        "id,name,score\n1,\"Oslo, NO\",10\n2,Bergen,\n3,\"say \"\"hi\"\"\",-7\n4,Tromsø,x\n";
    /// The bytes mutations write: the reader's syntax, plain text and
    /// bytes that break UTF-8.
    const BYTES: &[u8] = b"\",\n\r|a1- \xff\xc3";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutation fuzz of the reader: overwrite, truncate or insert bytes
        /// of a valid CSV. It returns a table or a typed [`CsvError`] (a
        /// panic fails the test), and every table it returns has equal
        /// column lengths and at most `max_rows` rows.
        #[test]
        fn reader_survives_mutated_input(
            edits in proptest::collection::vec((0u8..3, any::<u32>(), 0..BYTES.len()), 1..=8),
            has_header in any::<bool>(),
            cap in 0usize..8,
        ) {
            let mut csv = VALID.as_bytes().to_vec();
            for &(kind, pos, pick) in &edits {
                let at = pos as usize % (csv.len() + 1);
                match kind {
                    0 if at < csv.len() => csv[at] = BYTES[pick],
                    1 => csv.truncate(at),
                    _ => csv.insert(at, BYTES[pick]),
                }
            }
            // `cap` 7 stands for "no cap".
            let max_rows = if cap == 7 { usize::MAX } else { cap };
            let opts = CsvOptions { has_header, max_rows, ..CsvOptions::default() };
            if let Ok(t) = table_from_csv("fuzz", Cursor::new(csv), &opts) {
                prop_assert!(t.num_rows() <= max_rows);
                for c in t.columns() {
                    prop_assert_eq!(c.codes().len(), t.num_rows());
                }
            }
        }
    }
}
