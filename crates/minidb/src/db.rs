//! The database object: catalog + storage + CSV exchange.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use pdgf_schema::value::Date;
use pdgf_schema::{SqlType, Value};

use crate::catalog::TableDef;
use crate::table::TableData;

/// Database-level error.
#[derive(Debug)]
pub enum DbError {
    /// Table name not found.
    NoSuchTable(String),
    /// Table already exists.
    DuplicateTable(String),
    /// Constraint violation on insert/load.
    Constraint(String),
    /// SQL parse/execution failure.
    Sql(String),
    /// I/O failure (CSV exchange).
    Io(io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::DuplicateTable(t) => write!(f, "table exists: {t}"),
            DbError::Constraint(m) => write!(f, "{m}"),
            DbError::Sql(m) => write!(f, "sql error: {m}"),
            DbError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

/// An in-memory relational database.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, TableData>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table from its definition.
    pub fn create_table(&mut self, def: TableDef) -> Result<(), DbError> {
        let key = def.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::DuplicateTable(def.name));
        }
        self.tables.insert(key, TableData::new(def));
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables
            .values()
            .map(|t| t.def().name.as_str())
            .collect()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&TableData, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableData, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Insert one row.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        self.table_mut(table)?
            .insert(row)
            .map_err(|e| DbError::Constraint(e.to_string()))
    }

    /// Bulk load rows (the paper's "bulk load option, if featured by the
    /// target database").
    pub fn bulk_load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        self.table_mut(table)?
            .bulk_load(rows)
            .map_err(|e| DbError::Constraint(e.to_string()))
    }

    /// Parse a CSV cell into the column's type. Empty text means NULL.
    pub fn parse_cell(text: &str, ty: SqlType) -> Result<Value, DbError> {
        if text.is_empty() {
            return Ok(Value::Null);
        }
        let bad = |t: &str| DbError::Constraint(format!("cannot parse {t:?} as {ty}"));
        Ok(match ty {
            SqlType::Boolean => Value::Bool(match text {
                "true" | "TRUE" | "t" | "1" => true,
                "false" | "FALSE" | "f" | "0" => false,
                _ => return Err(bad(text)),
            }),
            SqlType::SmallInt | SqlType::Integer | SqlType::BigInt => {
                Value::Long(text.parse().map_err(|_| bad(text))?)
            }
            SqlType::Real | SqlType::Double => Value::Double(text.parse().map_err(|_| bad(text))?),
            SqlType::Decimal(_, s) => {
                let (int_part, frac_part) = match text.split_once('.') {
                    Some((i, f)) => (i, f),
                    None => (text, ""),
                };
                let negative = int_part.starts_with('-');
                let int: i64 = int_part.parse().map_err(|_| bad(text))?;
                let mut frac_digits = frac_part.to_string();
                while frac_digits.len() < usize::from(s) {
                    frac_digits.push('0');
                }
                if frac_digits.len() > usize::from(s) {
                    return Err(bad(text));
                }
                let frac: i64 = if frac_digits.is_empty() {
                    0
                } else {
                    frac_digits.parse().map_err(|_| bad(text))?
                };
                let pow = 10i64.pow(u32::from(s));
                let unscaled = if negative {
                    int * pow - frac
                } else {
                    int * pow + frac
                };
                Value::Decimal { unscaled, scale: s }
            }
            SqlType::Char(_) | SqlType::Varchar(_) => Value::text(text),
            SqlType::Date => Value::Date(Date::parse_iso(text).ok_or_else(|| bad(text))?),
            SqlType::Time | SqlType::Timestamp => {
                // `YYYY-MM-DD HH:MM:SS` or epoch seconds.
                if let Ok(secs) = text.parse::<i64>() {
                    Value::Timestamp(secs)
                } else {
                    let (d, t) = text.split_once(' ').ok_or_else(|| bad(text))?;
                    let date = Date::parse_iso(d).ok_or_else(|| bad(text))?;
                    let mut hms = t.splitn(3, ':');
                    let h: i64 = hms
                        .next()
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| bad(text))?;
                    let m: i64 = hms
                        .next()
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| bad(text))?;
                    let s2: i64 = hms.next().and_then(|x| x.parse().ok()).unwrap_or(0);
                    Value::Timestamp(i64::from(date.0) * 86_400 + h * 3600 + m * 60 + s2)
                }
            }
        })
    }

    /// Load `table` from CSV text (no header, RFC-4180 quoting).
    pub fn load_csv_str(&mut self, table: &str, csv: &str) -> Result<usize, DbError> {
        let types: Vec<SqlType> = self
            .table(table)?
            .def()
            .columns
            .iter()
            .map(|c| c.sql_type)
            .collect();
        let mut rows = Vec::new();
        for (lineno, record) in parse_csv(csv).into_iter().enumerate() {
            if record.len() != types.len() {
                return Err(DbError::Constraint(format!(
                    "line {}: expected {} fields, got {}",
                    lineno + 1,
                    types.len(),
                    record.len()
                )));
            }
            let row = record
                .iter()
                .zip(&types)
                .map(|(cell, ty)| Self::parse_cell(cell, *ty))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| DbError::Constraint(format!("line {}: {e}", lineno + 1)))?;
            rows.push(row);
        }
        self.bulk_load(table, rows)
    }

    /// Export `table` to CSV text.
    pub fn export_csv(&self, table: &str) -> Result<String, DbError> {
        let t = self.table(table)?;
        let mut out = String::new();
        for row in t.rows() {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let text = v.to_string();
                if text.contains(',')
                    || text.contains('"')
                    || text.contains('\n')
                    || text.contains('\r')
                {
                    out.push('"');
                    for c in text.chars() {
                        if c == '"' {
                            out.push('"');
                        }
                        out.push(c);
                    }
                    out.push('"');
                } else {
                    out.push_str(&text);
                }
            }
            out.push('\n');
        }
        Ok(out)
    }
}

/// Minimal RFC-4180 CSV record parser (quoted fields, doubled quotes).
pub fn parse_csv(input: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                any = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' => {}
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                any = false;
            }
            other => {
                field.push(other);
                any = true;
            }
        }
    }
    if any || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableDef::new("people")
                .column(ColumnDef::new("id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("name", SqlType::Varchar(20)))
                .column(ColumnDef::new("score", SqlType::Decimal(8, 2)))
                .column(ColumnDef::new("born", SqlType::Date)),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_drop() {
        let mut d = db();
        assert_eq!(d.table_names(), vec!["people"]);
        assert!(matches!(
            d.create_table(TableDef::new("PEOPLE")),
            Err(DbError::DuplicateTable(_))
        ));
        d.drop_table("People").unwrap();
        assert!(d.table("people").is_err());
        assert!(d.drop_table("people").is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let mut d = db();
        let csv = "1,Ann,12.50,1990-01-02\n2,\"B,ob\",3.00,1985-12-31\n3,,,\n";
        assert_eq!(d.load_csv_str("people", csv).unwrap(), 3);
        let t = d.table("people").unwrap();
        assert_eq!(t.rows()[1][1], Value::text("B,ob"));
        assert_eq!(t.rows()[0][2], Value::decimal(1250, 2));
        assert_eq!(t.rows()[2][1], Value::Null);
        let out = d.export_csv("people").unwrap();
        let mut d2 = db();
        d2.load_csv_str("people", &out).unwrap();
        assert_eq!(d2.table("people").unwrap().rows(), t.rows());
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let mut d = db();
        let err = d.load_csv_str("people", "1,Ann,12.50\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err2 = d
            .load_csv_str("people", "1,Ann,12.50,1990-01-02\nx,B,1.00,1990-01-01\n")
            .unwrap_err();
        assert!(err2.to_string().contains("line 2"), "{err2}");
    }

    #[test]
    fn parse_cell_covers_types() {
        use Database as D;
        assert_eq!(D::parse_cell("", SqlType::BigInt).unwrap(), Value::Null);
        assert_eq!(
            D::parse_cell("42", SqlType::BigInt).unwrap(),
            Value::Long(42)
        );
        assert_eq!(
            D::parse_cell("-1.50", SqlType::Decimal(8, 2)).unwrap(),
            Value::decimal(-150, 2)
        );
        assert_eq!(
            D::parse_cell("7", SqlType::Decimal(8, 2)).unwrap(),
            Value::decimal(700, 2)
        );
        assert_eq!(
            D::parse_cell("true", SqlType::Boolean).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            D::parse_cell("1970-01-02 00:00:01", SqlType::Timestamp).unwrap(),
            Value::Timestamp(86_401)
        );
        assert!(D::parse_cell("1.234", SqlType::Decimal(8, 2)).is_err());
        assert!(D::parse_cell("abc", SqlType::BigInt).is_err());
    }

    #[test]
    fn csv_parser_handles_quotes_and_crlf() {
        let rows = parse_csv("a,\"b\"\"x\",c\r\n1,2,3");
        assert_eq!(
            rows,
            vec![
                vec!["a".to_string(), "b\"x".to_string(), "c".to_string()],
                vec!["1".to_string(), "2".to_string(), "3".to_string()],
            ]
        );
        assert!(parse_csv("").is_empty());
        assert_eq!(parse_csv("x"), vec![vec!["x".to_string()]]);
        // Trailing newline does not add an empty record.
        assert_eq!(parse_csv("x\n").len(), 1);
    }

    #[test]
    fn bulk_load_via_db() {
        let mut d = db();
        let n = d
            .bulk_load(
                "people",
                vec![
                    vec![Value::Long(1), Value::text("A"), Value::Null, Value::Null],
                    vec![Value::Long(2), Value::text("B"), Value::Null, Value::Null],
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert!(d.bulk_load("ghost", vec![]).is_err());
    }
}
