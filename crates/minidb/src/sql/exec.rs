//! SQL execution.

use std::cmp::Ordering;
use std::collections::HashMap;

use pdgf_schema::{SqlType, Value};

use crate::db::{Database, DbError};
use crate::table::coerce_value;

use super::ast::{AggFunc, BinOp, ColRef, Expr, OrderKey, SelectItem, SelectStmt, Stmt};

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by DML.
    pub affected: usize,
}

impl QueryResult {
    fn ddl() -> Self {
        Self {
            columns: Vec::new(),
            rows: Vec::new(),
            affected: 0,
        }
    }

    /// Single scalar convenience accessor (first row, first column).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as aligned text for demos and debugging.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{c:<width$}  ", width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{cell:<width$}  ", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Statement executor bound to a mutable database.
pub struct SqlEngine<'db> {
    db: &'db mut Database,
}

impl<'db> SqlEngine<'db> {
    /// Engine over `db`.
    pub fn new(db: &'db mut Database) -> Self {
        Self { db }
    }

    /// Execute any statement.
    pub fn execute(&mut self, stmt: Stmt) -> Result<QueryResult, DbError> {
        match stmt {
            Stmt::Select(s) => run_select(self.db, &s),
            Stmt::CreateTable(def) => {
                self.db.create_table(def)?;
                Ok(QueryResult::ddl())
            }
            Stmt::Insert { table, rows } => {
                let n = rows.len();
                self.db.bulk_load(&table, rows)?;
                Ok(QueryResult {
                    affected: n,
                    ..QueryResult::ddl()
                })
            }
            Stmt::Drop(name) => {
                self.db.drop_table(&name)?;
                Ok(QueryResult::ddl())
            }
            Stmt::Delete { table, predicate } => {
                let affected = run_delete(self.db, &table, predicate.as_ref())?;
                Ok(QueryResult {
                    affected,
                    ..QueryResult::ddl()
                })
            }
            Stmt::Update {
                table,
                assignments,
                predicate,
            } => {
                let affected = run_update(self.db, &table, &assignments, predicate.as_ref())?;
                Ok(QueryResult {
                    affected,
                    ..QueryResult::ddl()
                })
            }
        }
    }
}

/// Execute a DELETE, returning the number of removed rows.
fn run_delete(db: &mut Database, table: &str, predicate: Option<&Expr>) -> Result<usize, DbError> {
    let scope = {
        let t = db.table(table)?;
        Scope {
            names: t
                .def()
                .columns
                .iter()
                .map(|c| (t.def().name.clone(), c.name.clone()))
                .collect(),
        }
    };
    // Evaluate the predicate against a snapshot, then retain survivors.
    let keep: Vec<bool> = {
        let t = db.table(table)?;
        t.rows()
            .iter()
            .map(|row| match predicate {
                Some(p) => eval(p, &scope, row).map(|v| !truthy(&v)),
                None => Ok(false),
            })
            .collect::<Result<_, _>>()?
    };
    let t = db.table_mut(table)?;
    let before = t.row_count();
    t.retain_rows(&keep);
    Ok(before - t.row_count())
}

/// Execute an UPDATE, returning the number of modified rows.
fn run_update(
    db: &mut Database,
    table: &str,
    assignments: &[(String, Value)],
    predicate: Option<&Expr>,
) -> Result<usize, DbError> {
    let (scope, columns) = {
        let t = db.table(table)?;
        let scope = Scope {
            names: t
                .def()
                .columns
                .iter()
                .map(|c| (t.def().name.clone(), c.name.clone()))
                .collect(),
        };
        let columns = assignments
            .iter()
            .map(|(name, value)| {
                let idx = t
                    .def()
                    .column_index(name)
                    .ok_or_else(|| DbError::Sql(format!("unknown column {name:?}")))?;
                Ok((idx, value.clone()))
            })
            .collect::<Result<Vec<_>, DbError>>()?;
        (scope, columns)
    };
    let matches: Vec<bool> = {
        let t = db.table(table)?;
        t.rows()
            .iter()
            .map(|row| match predicate {
                Some(p) => eval(p, &scope, row).map(|v| truthy(&v)),
                None => Ok(true),
            })
            .collect::<Result<_, _>>()?
    };
    db.table_mut(table)?
        .update_rows(&matches, &columns)
        .map_err(|e| DbError::Constraint(e.to_string()))
}

/// Column binding for the FROM/JOIN row: `(table_name, column_name)` per
/// position.
struct Scope {
    names: Vec<(String, String)>,
}

impl Scope {
    fn resolve(&self, col: &ColRef) -> Result<usize, DbError> {
        let matches: Vec<usize> = self
            .names
            .iter()
            .enumerate()
            .filter(|(_, (t, c))| {
                c.eq_ignore_ascii_case(&col.column)
                    && col.table.as_ref().is_none_or(|q| t.eq_ignore_ascii_case(q))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(DbError::Sql(format!("unknown column {:?}", col.column))),
            1 => Ok(matches[0]),
            _ => Err(DbError::Sql(format!("ambiguous column {:?}", col.column))),
        }
    }
}

/// Run a SELECT against `db`.
pub fn run_select(db: &Database, stmt: &SelectStmt) -> Result<QueryResult, DbError> {
    // FROM and JOINs → scope + working rows.
    let base = db.table(&stmt.from)?;
    let mut scope = Scope {
        names: base
            .def()
            .columns
            .iter()
            .map(|c| (base.def().name.clone(), c.name.clone()))
            .collect(),
    };
    let mut rows: Vec<Vec<Value>> = base.rows().to_vec();

    for join in &stmt.joins {
        let right_table = db.table(&join.table)?;
        // Resolve the join keys: one side must refer to the new table.
        let right_scope_names: Vec<(String, String)> = right_table
            .def()
            .columns
            .iter()
            .map(|c| (right_table.def().name.clone(), c.name.clone()))
            .collect();
        let right_scope = Scope {
            names: right_scope_names.clone(),
        };
        let (left_key, right_key) =
            match (scope.resolve(&join.left), right_scope.resolve(&join.right)) {
                (Ok(l), Ok(r)) => (l, r),
                _ => {
                    // Keys may be written in either order.
                    let l = scope.resolve(&join.right)?;
                    let r = right_scope.resolve(&join.left)?;
                    (l, r)
                }
            };
        // Hash join: build on the (usually smaller) right side.
        let mut index: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
        for r in right_table.rows() {
            if !r[right_key].is_null() {
                index.entry(r[right_key].to_string()).or_default().push(r);
            }
        }
        let mut joined = Vec::new();
        for left_row in &rows {
            let key = &left_row[left_key];
            if key.is_null() {
                continue;
            }
            if let Some(matches) = index.get(&key.to_string()) {
                for m in matches {
                    let mut combined = left_row.clone();
                    combined.extend_from_slice(m);
                    joined.push(combined);
                }
            }
        }
        rows = joined;
        scope.names.extend(right_scope_names);
    }

    // WHERE.
    if let Some(pred) = &stmt.where_ {
        let mut kept = Vec::new();
        for row in rows {
            if truthy(&eval(pred, &scope, &row)?) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // Expand SELECT * into column expressions.
    let mut items: Vec<(Expr, String)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Star => {
                for (i, (_, c)) in scope.names.iter().enumerate() {
                    items.push((
                        Expr::Col(ColRef {
                            table: Some(scope.names[i].0.clone()),
                            column: c.clone(),
                        }),
                        c.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| display_name(expr));
                items.push((expr.clone(), name));
            }
        }
    }

    let has_agg = items.iter().any(|(e, _)| e.has_aggregate());

    // ORDER BY may name columns that are not projected (standard SQL for
    // non-aggregate queries): append them as hidden sort keys, dropped
    // after sorting.
    let visible = items.len();
    if !has_agg && stmt.group_by.is_empty() {
        for (key, _) in &stmt.order_by {
            if let OrderKey::Name(name) = key {
                let known = items.iter().any(|(_, n)| n.eq_ignore_ascii_case(name))
                    || items.iter().any(|(_, n)| {
                        name.rsplit('.')
                            .next()
                            .is_some_and(|bare| n.eq_ignore_ascii_case(bare))
                    });
                if !known {
                    let (table, column) = match name.split_once('.') {
                        Some((t, c)) => (Some(t.to_string()), c.to_string()),
                        None => (None, name.clone()),
                    };
                    let col = ColRef { table, column };
                    if scope.resolve(&col).is_ok() {
                        items.push((Expr::Col(col), name.clone()));
                    }
                }
            }
        }
    }

    let mut output: Vec<Vec<Value>> = if has_agg || !stmt.group_by.is_empty() {
        aggregate(&items, &stmt.group_by, &scope, &rows)?
    } else {
        rows.iter()
            .map(|row| {
                items
                    .iter()
                    .map(|(e, _)| eval(e, &scope, row))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?
    };

    // DISTINCT: stable dedup on the full output row.
    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        output.retain(|row| {
            let key = row
                .iter()
                .map(|v| format!("{}:{v}", if v.is_null() { "n" } else { "v" }))
                .collect::<Vec<_>>()
                .join("\u{1}");
            seen.insert(key)
        });
    }

    // ORDER BY.
    if !stmt.order_by.is_empty() {
        let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
        let mut keys = Vec::new();
        for (key, desc) in &stmt.order_by {
            let idx = match key {
                OrderKey::Ordinal(n) => {
                    if *n == 0 || *n > columns.len() {
                        return Err(DbError::Sql(format!("ORDER BY ordinal {n} out of range")));
                    }
                    n - 1
                }
                OrderKey::Name(name) => columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(name))
                    .or_else(|| {
                        // Fall back to the bare column name of qualified refs.
                        columns.iter().position(|c| {
                            name.rsplit('.')
                                .next()
                                .is_some_and(|bare| c.eq_ignore_ascii_case(bare))
                        })
                    })
                    .ok_or_else(|| DbError::Sql(format!("unknown ORDER BY key {name:?}")))?,
            };
            keys.push((idx, *desc));
        }
        output.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a[*idx].sql_cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    if let Some(limit) = stmt.limit {
        output.truncate(limit);
    }

    // Drop hidden sort keys.
    if items.len() > visible {
        for row in &mut output {
            row.truncate(visible);
        }
        items.truncate(visible);
    }

    Ok(QueryResult {
        columns: items.into_iter().map(|(_, n)| n).collect(),
        rows: output,
        affected: 0,
    })
}

fn display_name(expr: &Expr) -> String {
    match expr {
        Expr::Col(c) => c.column.clone(),
        Expr::Agg(f, arg) => {
            let fname = match f {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg {
                None => format!("{fname}(*)"),
                Some(a) => format!("{fname}({})", display_name(a)),
            }
        }
        _ => "?column?".to_string(),
    }
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn eval(expr: &Expr, scope: &Scope, row: &[Value]) -> Result<Value, DbError> {
    Ok(match expr {
        Expr::Lit(v) => v.clone(),
        Expr::Col(c) => row[scope.resolve(c)?].clone(),
        Expr::Neg(e) => match eval(e, scope, row)? {
            Value::Null => Value::Null,
            Value::Long(v) => Value::Long(-v),
            Value::Double(v) => Value::Double(-v),
            Value::Decimal { unscaled, scale } => Value::Decimal {
                unscaled: -unscaled,
                scale,
            },
            other => return Err(DbError::Sql(format!("cannot negate {other}"))),
        },
        Expr::Not(e) => match eval(e, scope, row)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Bool(false),
            other => return Err(DbError::Sql(format!("NOT of non-boolean {other}"))),
        },
        Expr::IsNull { expr, negated } => {
            let isnull = eval(expr, scope, row)?.is_null();
            Value::Bool(isnull != *negated)
        }
        Expr::Like { expr, pattern } => match eval(expr, scope, row)? {
            Value::Null => Value::Bool(false),
            v => {
                let text = v.to_string();
                Value::Bool(like_match(pattern, &text))
            }
        },
        Expr::Agg(..) => return Err(DbError::Sql("aggregate outside aggregation context".into())),
        Expr::Bin(op, a, b) => {
            let (x, y) = (eval(a, scope, row)?, eval(b, scope, row)?);
            match op {
                BinOp::And => Value::Bool(truthy(&x) && truthy(&y)),
                BinOp::Or => Value::Bool(truthy(&x) || truthy(&y)),
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if x.is_null() || y.is_null() {
                        return Ok(Value::Bool(false));
                    }
                    let (x, y) = coerce_comparison(x, y);
                    let ord = x.sql_cmp(&y);
                    Value::Bool(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    })
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    if x.is_null() || y.is_null() {
                        return Ok(Value::Null);
                    }
                    arith(*op, &x, &y)?
                }
            }
        }
    })
}

/// SQL literal coercion for comparisons: a text literal compared against
/// a DATE column is coerced as if assigned to it
/// (`o_orderdate >= '1995-01-01'`).
fn coerce_comparison(x: Value, y: Value) -> (Value, Value) {
    match (&x, &y) {
        (Value::Date(_), Value::Text(_)) => (x, coerce_value(y, SqlType::Date)),
        (Value::Text(_), Value::Date(_)) => (coerce_value(x, SqlType::Date), y),
        _ => (x, y),
    }
}

fn arith(op: BinOp, x: &Value, y: &Value) -> Result<Value, DbError> {
    // Integer arithmetic stays integral except division.
    if let (Some(a), Some(b), BinOp::Add | BinOp::Sub | BinOp::Mul) = (x.as_i64(), y.as_i64(), op) {
        return Ok(Value::Long(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            _ => unreachable!(),
        }));
    }
    let (a, b) = match (x.as_f64(), y.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(DbError::Sql(format!("non-numeric arithmetic: {x} and {y}"))),
    };
    Ok(match op {
        BinOp::Add => Value::Double(a + b),
        BinOp::Sub => Value::Double(a - b),
        BinOp::Mul => Value::Double(a * b),
        BinOp::Div => {
            if b == 0.0 {
                return Err(DbError::Sql("division by zero".into()));
            }
            Value::Double(a / b)
        }
        _ => unreachable!(),
    })
}

/// SQL LIKE with `%` (any run) and `_` (any char), case-sensitive.
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|skip| rec(rest, &t[skip..])),
            Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && rec(rest, &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

struct AggState {
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn accumulate(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        match &self.min {
            Some(m) if v.sql_cmp(m).is_ge() => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v.sql_cmp(m).is_le() => {}
            _ => self.max = Some(v.clone()),
        }
    }
}

/// Grouped / global aggregation.
fn aggregate(
    items: &[(Expr, String)],
    group_by: &[ColRef],
    scope: &Scope,
    rows: &[Vec<Value>],
) -> Result<Vec<Vec<Value>>, DbError> {
    let key_indices: Vec<usize> = group_by
        .iter()
        .map(|c| scope.resolve(c))
        .collect::<Result<_, _>>()?;

    // Group rows (single global group when no GROUP BY).
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for row in rows {
        let key_values: Vec<Value> = key_indices.iter().map(|&i| row[i].clone()).collect();
        let key_str = key_values
            .iter()
            .map(|v| format!("{}:{v}", if v.is_null() { "n" } else { "v" }))
            .collect::<Vec<_>>()
            .join("\u{1}");
        let slot = *index.entry(key_str).or_insert_with(|| {
            groups.push((key_values.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(row);
    }
    if groups.is_empty() && key_indices.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut out = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        let row_out = items
            .iter()
            .map(|(expr, _)| eval_agg(expr, scope, members))
            .collect::<Result<Vec<_>, _>>()?;
        out.push(row_out);
    }
    Ok(out)
}

/// Evaluate an expression in aggregation context: aggregates fold the
/// group's rows, non-aggregate subexpressions use the first row (valid
/// for grouping keys, which are constant within a group).
fn eval_agg(expr: &Expr, scope: &Scope, rows: &[&Vec<Value>]) -> Result<Value, DbError> {
    match expr {
        Expr::Agg(func, arg) => {
            if *func == AggFunc::Count && arg.is_none() {
                return Ok(Value::Long(rows.len() as i64));
            }
            let mut state = AggState::new();
            for row in rows {
                let v = match arg {
                    Some(a) => eval(a, scope, row)?,
                    None => Value::Long(1),
                };
                state.accumulate(&v);
            }
            Ok(match func {
                AggFunc::Count => Value::Long(state.count as i64),
                AggFunc::Sum => {
                    if state.count == 0 {
                        Value::Null
                    } else {
                        Value::Double(state.sum)
                    }
                }
                AggFunc::Avg => {
                    if state.count == 0 {
                        Value::Null
                    } else {
                        Value::Double(state.sum / state.count as f64)
                    }
                }
                AggFunc::Min => state.min.unwrap_or(Value::Null),
                AggFunc::Max => state.max.unwrap_or(Value::Null),
            })
        }
        Expr::Bin(op, a, b) => {
            let ea = eval_agg(a, scope, rows)?;
            let eb = eval_agg(b, scope, rows)?;
            // Re-evaluate through the scalar path with literals.
            eval(
                &Expr::Bin(*op, Box::new(Expr::Lit(ea)), Box::new(Expr::Lit(eb))),
                scope,
                &[],
            )
        }
        Expr::Neg(e) => {
            let v = eval_agg(e, scope, rows)?;
            eval(&Expr::Neg(Box::new(Expr::Lit(v))), scope, &[])
        }
        other => match rows.first() {
            Some(row) => eval(other, scope, row),
            None => Ok(Value::Null),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::super::{execute, query};
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        execute(
            &mut db,
            "CREATE TABLE customer (c_id BIGINT PRIMARY KEY, c_name VARCHAR(20), \
             c_nation VARCHAR(10))",
        )
        .unwrap();
        execute(
            &mut db,
            "CREATE TABLE orders (o_id BIGINT PRIMARY KEY, o_cust BIGINT NOT NULL, \
             o_total DECIMAL(10,2), o_comment VARCHAR(40))",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO customer VALUES \
             (1, 'Ann', 'DE'), (2, 'Bob', 'US'), (3, 'Cat', 'DE')",
        )
        .unwrap();
        execute(
            &mut db,
            "INSERT INTO orders VALUES \
             (10, 1, 100.00, 'quick deposits'), \
             (11, 1, 50.50, 'final request'), \
             (12, 2, 75.25, NULL), \
             (13, 3, 20.00, 'quick foxes')",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star_and_where() {
        let db = sample_db();
        let r = query(&db, "SELECT * FROM customer WHERE c_nation = 'DE'").unwrap();
        assert_eq!(r.columns, vec!["c_id", "c_name", "c_nation"]);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn arithmetic_and_projection() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT o_id, o_total * 2 AS dbl FROM orders WHERE o_id = 11",
        )
        .unwrap();
        assert_eq!(r.columns[1], "dbl");
        assert_eq!(r.rows[0][1], Value::Double(101.0));
    }

    #[test]
    fn global_aggregates() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT COUNT(*), COUNT(o_comment), SUM(o_total), AVG(o_total), \
             MIN(o_total), MAX(o_total) FROM orders",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Long(4));
        assert_eq!(r.rows[0][1], Value::Long(3), "COUNT skips NULLs");
        assert_eq!(r.rows[0][2], Value::Double(245.75));
        assert_eq!(r.rows[0][3], Value::Double(61.4375));
        assert_eq!(r.rows[0][4], Value::decimal(2000, 2));
        assert_eq!(r.rows[0][5], Value::decimal(10_000, 2));
    }

    #[test]
    fn group_by_with_order_and_limit() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT o_cust, COUNT(*) AS n, SUM(o_total) AS total FROM orders \
             GROUP BY o_cust ORDER BY total DESC LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Long(1));
        assert_eq!(r.rows[0][1], Value::Long(2));
        assert_eq!(r.rows[0][2], Value::Double(150.5));
        assert_eq!(r.rows[1][0], Value::Long(2));
    }

    #[test]
    fn join_two_tables() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT c_name, COUNT(*) AS orders_n FROM customer \
             JOIN orders ON customer.c_id = orders.o_cust \
             GROUP BY c_name ORDER BY c_name",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("Ann"), Value::Long(2)],
                vec![Value::text("Bob"), Value::Long(1)],
                vec![Value::text("Cat"), Value::Long(1)],
            ]
        );
    }

    #[test]
    fn like_and_null_predicates() {
        let db = sample_db();
        let r = query(&db, "SELECT o_id FROM orders WHERE o_comment LIKE 'quick%'").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = query(&db, "SELECT o_id FROM orders WHERE o_comment IS NULL").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Long(12)]]);
        let r = query(
            &db,
            "SELECT COUNT(*) FROM orders WHERE o_comment IS NOT NULL AND o_total > 30",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Long(2));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%", ""));
        assert!(like_match("a%", "abc"));
        assert!(!like_match("a%", "xbc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abxc"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("", "x"));
    }

    #[test]
    fn order_by_ordinal_and_desc() {
        let db = sample_db();
        let r = query(&db, "SELECT o_id, o_total FROM orders ORDER BY 2 DESC").unwrap();
        assert_eq!(r.rows[0][0], Value::Long(10));
        let r = query(&db, "SELECT o_id FROM orders ORDER BY o_id DESC LIMIT 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Long(13));
    }

    #[test]
    fn ddl_and_dml_through_engine() {
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE t (a INTEGER)").unwrap();
        let r = execute(&mut db, "INSERT INTO t VALUES (1), (2)").unwrap();
        assert_eq!(r.affected, 2);
        execute(&mut db, "DROP TABLE t").unwrap();
        assert!(execute(&mut db, "DROP TABLE t").is_err());
    }

    #[test]
    fn error_paths() {
        let db = sample_db();
        assert!(query(&db, "SELECT nocol FROM orders").is_err());
        assert!(query(&db, "SELECT * FROM ghost").is_err());
        assert!(query(&db, "SELECT o_total / 0 FROM orders").is_err());
        assert!(query(&db, "SELECT o_id FROM orders ORDER BY 9").is_err());
        assert!(query(&db, "SELECT o_id FROM orders ORDER BY nope").is_err());
        let mut db2 = sample_db();
        assert!(execute(&mut db2, "INSERT INTO orders VALUES (1)").is_err());
    }

    #[test]
    fn empty_table_aggregates() {
        let mut db = Database::new();
        execute(&mut db, "CREATE TABLE e (x INTEGER)").unwrap();
        let r = query(&db, "SELECT COUNT(*), SUM(x), AVG(x), MIN(x) FROM e").unwrap();
        assert_eq!(r.rows[0][0], Value::Long(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
        assert!(r.rows[0][3].is_null());
    }

    #[test]
    fn null_group_keys_form_their_own_group() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT o_comment, COUNT(*) FROM orders GROUP BY o_comment ORDER BY 2 DESC",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn select_distinct_dedups() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT DISTINCT c_nation FROM customer ORDER BY c_nation",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::text("DE")], vec![Value::text("US")]]
        );
        // Without DISTINCT there are three rows.
        let all = query(&db, "SELECT c_nation FROM customer").unwrap();
        assert_eq!(all.rows.len(), 3);
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = sample_db();
        let r = execute(&mut db, "DELETE FROM orders WHERE o_total < 60").unwrap();
        assert_eq!(r.affected, 2);
        let left = query(&db, "SELECT COUNT(*) FROM orders").unwrap();
        assert_eq!(left.rows[0][0], Value::Long(2));
        // Unconditional delete empties the table.
        let r = execute(&mut db, "DELETE FROM orders").unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(
            query(&db, "SELECT COUNT(*) FROM orders").unwrap().rows[0][0],
            Value::Long(0)
        );
    }

    #[test]
    fn update_with_predicate_and_coercion() {
        let mut db = sample_db();
        let r = execute(
            &mut db,
            "UPDATE orders SET o_total = 1.50, o_comment = 'patched' WHERE o_cust = 1",
        )
        .unwrap();
        assert_eq!(r.affected, 2);
        let rows = query(
            &db,
            "SELECT o_total, o_comment FROM orders WHERE o_cust = 1",
        )
        .unwrap();
        for row in &rows.rows {
            assert_eq!(row[0], Value::decimal(150, 2), "literal coerced to DECIMAL");
            assert_eq!(row[1], Value::text("patched"));
        }
        // Constraint violations reject the whole statement.
        assert!(execute(&mut db, "UPDATE orders SET o_cust = NULL").is_err());
        assert!(execute(&mut db, "UPDATE orders SET nosuch = 1").is_err());
    }

    #[test]
    fn result_table_rendering() {
        let db = sample_db();
        let r = query(
            &db,
            "SELECT c_id, c_name FROM customer ORDER BY c_id LIMIT 1",
        )
        .unwrap();
        let text = r.to_table_string();
        assert!(text.contains("c_id"));
        assert!(text.contains("Ann"));
        assert_eq!(r.scalar(), Some(&Value::Long(1)));
    }
}
