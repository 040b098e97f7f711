//! Row storage with constraint-checked inserts.

use pdgf_schema::value::Date;
use pdgf_schema::{SqlType, Value};

use crate::catalog::TableDef;

/// Insert/constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintError(pub String);

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "constraint violation: {}", self.0)
    }
}

impl std::error::Error for ConstraintError {}

/// A table's rows plus its definition.
#[derive(Debug, Clone)]
pub struct TableData {
    def: TableDef,
    rows: Vec<Vec<Value>>,
}

/// Is `value` storable in a column of type `ty`?
pub fn value_fits(value: &Value, ty: SqlType) -> bool {
    match value {
        Value::Null => true, // nullability checked separately
        Value::Bool(_) => matches!(ty, SqlType::Boolean),
        Value::Long(v) => match ty {
            SqlType::SmallInt => i16::try_from(*v).is_ok(),
            SqlType::Integer => i32::try_from(*v).is_ok(),
            SqlType::BigInt => true,
            SqlType::Decimal(..) | SqlType::Real | SqlType::Double => true,
            _ => false,
        },
        Value::Double(_) => matches!(ty, SqlType::Real | SqlType::Double),
        Value::Decimal { .. } => {
            matches!(ty, SqlType::Decimal(..) | SqlType::Real | SqlType::Double)
        }
        Value::Date(_) => matches!(ty, SqlType::Date),
        Value::Timestamp(_) => matches!(ty, SqlType::Timestamp | SqlType::Time),
        Value::Text(s) => match ty {
            SqlType::Char(n) | SqlType::Varchar(n) => s.chars().count() <= n as usize,
            _ => false,
        },
    }
}

/// Coerce `value` toward the column type where SQL would (numeric literals
/// into DECIMAL/REAL columns, ISO `YYYY-MM-DD` text into DATE). Returns the value unchanged when no
/// coercion applies; type errors surface later in [`value_fits`].
pub fn coerce_value(value: Value, ty: SqlType) -> Value {
    match (&value, ty) {
        (Value::Long(v), SqlType::Decimal(_, s)) => match v.checked_mul(10i64.pow(u32::from(s))) {
            Some(unscaled) => Value::Decimal { unscaled, scale: s },
            None => value,
        },
        (Value::Double(v), SqlType::Decimal(_, s)) => {
            let scaled = v * 10f64.powi(i32::from(s));
            if scaled.is_finite() && scaled.abs() < 9e18 {
                Value::Decimal {
                    unscaled: scaled.round() as i64,
                    scale: s,
                }
            } else {
                value
            }
        }
        (Value::Decimal { unscaled, scale }, SqlType::Decimal(_, s)) if *scale != s => {
            if s > *scale {
                match unscaled.checked_mul(10i64.pow(u32::from(s - *scale))) {
                    Some(u) => Value::Decimal {
                        unscaled: u,
                        scale: s,
                    },
                    None => value,
                }
            } else {
                Value::Decimal {
                    unscaled: unscaled / 10i64.pow(u32::from(*scale - s)),
                    scale: s,
                }
            }
        }
        (Value::Long(v), SqlType::Real | SqlType::Double) => Value::Double(*v as f64),
        (Value::Text(t), SqlType::Date) => match Date::parse_iso(t) {
            Some(d) => Value::Date(d),
            None => value,
        },
        _ => value,
    }
}

impl TableData {
    /// Empty table with the given definition.
    pub fn new(def: TableDef) -> Self {
        Self {
            def,
            rows: Vec::new(),
        }
    }

    fn coerce_row(&self, row: Vec<Value>) -> Vec<Value> {
        if row.len() != self.def.columns.len() {
            return row; // arity error reported by check_row
        }
        row.into_iter()
            .zip(&self.def.columns)
            .map(|(v, c)| coerce_value(v, c.sql_type))
            .collect()
    }

    /// The table definition.
    pub fn def(&self) -> &TableDef {
        &self.def
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Column values by index (iterator over one column).
    pub fn column(&self, index: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r[index])
    }

    /// Validate a row against arity, types, and nullability.
    pub fn check_row(&self, row: &[Value]) -> Result<(), ConstraintError> {
        if row.len() != self.def.columns.len() {
            return Err(ConstraintError(format!(
                "{}: expected {} values, got {}",
                self.def.name,
                self.def.columns.len(),
                row.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.def.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(ConstraintError(format!(
                        "{}.{}: NULL in NOT NULL column",
                        self.def.name, col.name
                    )));
                }
                continue;
            }
            if !value_fits(value, col.sql_type) {
                return Err(ConstraintError(format!(
                    "{}.{}: {value} does not fit {}",
                    self.def.name, col.name, col.sql_type
                )));
            }
        }
        Ok(())
    }

    /// Insert one row, coercing numeric literals to the column types and
    /// validating constraints.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), ConstraintError> {
        let row = self.coerce_row(row);
        self.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Insert many rows; stops at the first violation, reporting its
    /// position.
    pub fn bulk_load(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, ConstraintError> {
        self.rows.reserve(rows.len());
        for (i, row) in rows.into_iter().enumerate() {
            let row = self.coerce_row(row);
            self.check_row(&row)
                .map_err(|e| ConstraintError(format!("row {i}: {e}")))?;
            self.rows.push(row);
        }
        Ok(self.rows.len())
    }

    /// Delete all rows (TRUNCATE).
    pub fn truncate(&mut self) {
        self.rows.clear();
    }

    /// Keep only rows whose flag in `keep` is true (`keep.len()` must
    /// equal the row count). Used by SQL DELETE.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.rows.len(), "flag vector length mismatch");
        let mut i = 0;
        self.rows.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Assign `columns` (index, new value) on every row whose flag in
    /// `matches` is true, validating types/nullability first. Returns the
    /// number of rows modified. Used by SQL UPDATE.
    pub fn update_rows(
        &mut self,
        matches: &[bool],
        columns: &[(usize, Value)],
    ) -> Result<usize, ConstraintError> {
        assert_eq!(
            matches.len(),
            self.rows.len(),
            "flag vector length mismatch"
        );
        // Validate assignments once against the column definitions.
        for (idx, value) in columns {
            let col = self
                .def
                .columns
                .get(*idx)
                .ok_or_else(|| ConstraintError(format!("column index {idx} out of range")))?;
            if value.is_null() {
                if !col.nullable {
                    return Err(ConstraintError(format!(
                        "{}.{}: NULL in NOT NULL column",
                        self.def.name, col.name
                    )));
                }
            } else {
                let coerced = coerce_value(value.clone(), col.sql_type);
                if !value_fits(&coerced, col.sql_type) {
                    return Err(ConstraintError(format!(
                        "{}.{}: {value} does not fit {}",
                        self.def.name, col.name, col.sql_type
                    )));
                }
            }
        }
        let mut modified = 0;
        for (row, hit) in self.rows.iter_mut().zip(matches) {
            if !hit {
                continue;
            }
            for (idx, value) in columns {
                let ty = self.def.columns[*idx].sql_type;
                row[*idx] = coerce_value(value.clone(), ty);
            }
            modified += 1;
        }
        Ok(modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use pdgf_schema::value::Date;

    fn table() -> TableData {
        TableData::new(
            TableDef::new("t")
                .column(ColumnDef::new("id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("name", SqlType::Varchar(5)))
                .column(ColumnDef::new("score", SqlType::Decimal(6, 2)))
                .column(ColumnDef::new("born", SqlType::Date)),
        )
    }

    fn ok_row() -> Vec<Value> {
        vec![
            Value::Long(1),
            Value::text("abc"),
            Value::decimal(12_345, 2),
            Value::Date(Date::from_ymd(1990, 5, 1)),
        ]
    }

    #[test]
    fn valid_rows_are_stored() {
        let mut t = table();
        t.insert(ok_row()).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.rows()[0][1], Value::text("abc"));
        assert_eq!(t.column(0).next(), Some(&Value::Long(1)));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut t = table();
        assert!(t.insert(vec![Value::Long(1)]).is_err());
    }

    #[test]
    fn null_in_not_null_column_is_rejected() {
        let mut t = table();
        let mut row = ok_row();
        row[0] = Value::Null;
        assert!(t.insert(row).is_err());
        let mut row2 = ok_row();
        row2[1] = Value::Null; // nullable column
        t.insert(row2).unwrap();
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let mut t = table();
        let mut row = ok_row();
        row[0] = Value::text("not a number");
        assert!(t.insert(row).is_err());
        let mut row2 = ok_row();
        row2[3] = Value::Long(5);
        assert!(t.insert(row2).is_err());
    }

    #[test]
    fn iso_text_is_assigned_to_date_columns() {
        let mut t = table();
        let mut row = ok_row();
        row[3] = Value::text("1990-05-01");
        t.insert(row).unwrap();
        assert_eq!(t.rows()[0], ok_row());
        let mut bad = ok_row();
        bad[3] = Value::text("May 1st");
        assert!(t.insert(bad).is_err());
        t.update_rows(&[true], &[(3, Value::text("1999-12-31"))])
            .unwrap();
        assert_eq!(t.rows()[0][3], Value::Date(Date::from_ymd(1999, 12, 31)));
    }

    #[test]
    fn varchar_length_is_enforced() {
        let mut t = table();
        let mut row = ok_row();
        row[1] = Value::text("toolong");
        assert!(t.insert(row).is_err());
    }

    #[test]
    fn integer_width_is_enforced() {
        assert!(value_fits(&Value::Long(40_000), SqlType::Integer));
        assert!(!value_fits(&Value::Long(40_000), SqlType::SmallInt));
        assert!(!value_fits(
            &Value::Long(i64::from(i32::MAX) + 1),
            SqlType::Integer
        ));
        assert!(value_fits(&Value::Long(i64::MAX), SqlType::BigInt));
    }

    #[test]
    fn bulk_load_reports_failing_row() {
        let mut t = table();
        let mut bad = ok_row();
        bad[0] = Value::Null;
        let err = t.bulk_load(vec![ok_row(), bad, ok_row()]).unwrap_err();
        assert!(err.0.contains("row 1"), "{err}");
        // Successful prefix is kept (bulk load is not atomic, like COPY).
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn truncate_empties() {
        let mut t = table();
        t.insert(ok_row()).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
    }
}
