//! Deep static analysis of schema models.
//!
//! [`Schema::analyze`] runs every model check the system knows in one
//! multi-pass sweep and reports *all* findings as [`Diagnostic`]s with
//! stable codes and a warning/error severity split, instead of stopping
//! at the first problem the way plain validation does. The passes:
//!
//! 1. **Structure** — duplicate table/field names, tables with no fields.
//! 2. **Spec domains** — distribution parameters of every generator
//!    (zipf theta, probabilities, string/word lengths, date and
//!    timestamp ranges, histogram shapes, numeric bounds).
//! 3. **References** — unknown targets, self-references, and multi-table
//!    reference cycles found by topological sort. The same toposort
//!    derives the *generation order* (parents before children) that the
//!    runtime scheduler reuses to order table jobs.
//! 4. **Reachability** — generator subtrees that can never be sampled
//!    (zero-probability branches, always-NULL wrappers), including the
//!    dictionary/Markov resources they would have loaded.
//!
//! [`Schema::validate`] is a thin wrapper: the first error-severity
//! diagnostic, if any, becomes the [`SchemaError`](crate::model::SchemaError).

use crate::expr::Expr;
use crate::model::{
    DictSource, Field, GeneratorSpec, MarkovSource, RefDistribution, Schema, Table,
};
use std::fmt;

/// How severe a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but generable: the model builds and runs.
    Warning,
    /// The model is rejected by validation and cannot be built.
    Error,
}

impl Severity {
    /// Lower-case name, as used in `pdgf validate --format json`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding, with a stable machine-readable code.
///
/// Codes are part of the tool's interface (asserted by the `models/bad`
/// corpus tests) and never change meaning:
///
/// | code   | meaning                                             |
/// |--------|-----------------------------------------------------|
/// | `E001` | duplicate table name                                |
/// | `E002` | table has no fields                                 |
/// | `E003` | duplicate field name within a table                 |
/// | `E010` | reference to an unknown table                       |
/// | `E011` | reference to an unknown field                       |
/// | `E012` | table references itself                             |
/// | `E013` | multi-table reference cycle                         |
/// | `E020` | zipf theta outside `[0, 1)`                         |
/// | `E021` | NULL probability outside `[0, 1]`                   |
/// | `E022` | probability branches empty or not summing to 1      |
/// | `E023` | string length bounds inverted                       |
/// | `E024` | Markov word bounds inverted                         |
/// | `E025` | date range inverted                                 |
/// | `E026` | sequential generator with no parts                  |
/// | `E027` | histogram bounds/weights malformed                  |
/// | `E028` | timestamp range inverted or outside date range      |
/// | `E029` | numeric bounds inverted                             |
/// | `E030` | table size unresolvable or not a row count          |
/// | `E031` | schema properties do not resolve                    |
/// | `W001` | table size resolves to zero rows                    |
/// | `W002` | generator subtree (and its resources) unreachable   |
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable diagnostic code (`E0xx` error, `W0xx` warning).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Table the finding is about, if any.
    pub table: Option<String>,
    /// Field the finding is about, if any.
    pub field: Option<String>,
    /// Human-readable description (includes the location).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.name(),
            self.code,
            self.message
        )
    }
}

/// Result of a full model analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every finding, in pass order (structure, domains, references,
    /// reachability).
    pub diagnostics: Vec<Diagnostic>,
    /// Table indices in dependency order: every referenced parent table
    /// appears before the tables referencing it. Falls back to schema
    /// order when the reference graph is cyclic (which is an `E013`).
    pub generation_order: Vec<u32>,
}

impl Analysis {
    /// First error-severity diagnostic, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// True when any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }
}

/// Internal collector threading the schema through the passes.
struct Analyzer<'s> {
    schema: &'s Schema,
    diagnostics: Vec<Diagnostic>,
}

impl Schema {
    /// Run every analysis pass and collect all findings.
    pub fn analyze(&self) -> Analysis {
        let mut a = Analyzer {
            schema: self,
            diagnostics: Vec::new(),
        };
        a.structure_and_domains();
        a.reachability();
        let generation_order = a.reference_graph();
        Analysis {
            diagnostics: a.diagnostics,
            generation_order,
        }
    }
}

impl Analyzer<'_> {
    fn table_diag(
        &mut self,
        code: &'static str,
        severity: Severity,
        table: &Table,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            table: Some(table.name.clone()),
            field: None,
            message,
        });
    }

    fn field_diag(
        &mut self,
        code: &'static str,
        severity: Severity,
        table: &Table,
        field: &Field,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            table: Some(table.name.clone()),
            field: Some(field.name.clone()),
            message,
        });
    }

    /// Pass 1 + 2: structural checks and per-spec domain checks, in the
    /// same order plain validation historically reported them.
    fn structure_and_domains(&mut self) {
        let schema = self.schema;
        let props = match schema.properties.resolve_all() {
            Ok(props) => Some(props),
            Err(e) => {
                self.diagnostics.push(Diagnostic {
                    code: "E031",
                    severity: Severity::Error,
                    table: None,
                    field: None,
                    message: e.to_string(),
                });
                None
            }
        };
        for (i, t) in schema.tables.iter().enumerate() {
            if schema.tables[..i].iter().any(|o| o.name == t.name) {
                self.table_diag(
                    "E001",
                    Severity::Error,
                    t,
                    format!("duplicate table {:?}", t.name),
                );
            }
            if t.fields.is_empty() {
                self.table_diag(
                    "E002",
                    Severity::Error,
                    t,
                    format!("table {:?} has no fields", t.name),
                );
            }
            for (j, f) in t.fields.iter().enumerate() {
                if t.fields[..j].iter().any(|o| o.name == f.name) {
                    self.field_diag(
                        "E003",
                        Severity::Error,
                        t,
                        f,
                        format!("duplicate field {:?} in table {:?}", f.name, t.name),
                    );
                }
                let mut specs = Vec::new();
                f.generator.walk(&mut |g| specs.push(g.clone()));
                for g in &specs {
                    self.check_spec(g, t, f, props.as_ref());
                }
            }
            if let Some(props) = props.as_ref() {
                match eval_size(t, props) {
                    Err(msg) => self.table_diag("E030", Severity::Error, t, msg),
                    Ok(0) => self.table_diag(
                        "W001",
                        Severity::Warning,
                        t,
                        format!("table {:?} resolves to zero rows", t.name),
                    ),
                    Ok(_) => {}
                }
            }
        }
    }

    /// Domain checks for one generator spec.
    fn check_spec(
        &mut self,
        g: &GeneratorSpec,
        t: &Table,
        f: &Field,
        props: Option<&std::collections::BTreeMap<String, f64>>,
    ) {
        let schema = self.schema;
        let at = format!("{}.{}", t.name, f.name);
        match g {
            GeneratorSpec::Reference {
                table,
                field,
                distribution,
            } => {
                let Some(target) = schema.table_by_name(table) else {
                    self.field_diag(
                        "E010",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: reference to unknown table {table:?}"),
                    );
                    return;
                };
                if target.field_index(field).is_none() {
                    self.field_diag(
                        "E011",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: reference to unknown field {table}.{field}"),
                    );
                }
                if target.name == t.name {
                    self.field_diag(
                        "E012",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: self-referencing table"),
                    );
                }
                if let RefDistribution::Zipf { theta } = distribution {
                    if !(0.0..1.0).contains(theta) {
                        self.field_diag(
                            "E020",
                            Severity::Error,
                            t,
                            f,
                            format!("{at}: zipf theta {theta} out of [0,1)"),
                        );
                    }
                }
            }
            GeneratorSpec::Null { probability, .. } if !(0.0..=1.0).contains(probability) => {
                self.field_diag(
                    "E021",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: NULL probability {probability} out of [0,1]"),
                );
            }
            GeneratorSpec::Probability { branches } => {
                if branches.is_empty() {
                    self.field_diag(
                        "E022",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: probability generator with no branches"),
                    );
                    return;
                }
                let total: f64 = branches.iter().map(|(p, _)| *p).sum();
                if (total - 1.0).abs() > 1e-6 {
                    self.field_diag(
                        "E022",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: branch probabilities sum to {total}, expected 1"),
                    );
                }
            }
            GeneratorSpec::RandomString { min_len, max_len } if min_len > max_len => {
                self.field_diag(
                    "E023",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: min_len > max_len"),
                );
            }
            GeneratorSpec::Markov {
                min_words,
                max_words,
                ..
            } if min_words > max_words => {
                self.field_diag(
                    "E024",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: min_words > max_words"),
                );
            }
            GeneratorSpec::DateRange { min, max, .. } if min > max => {
                self.field_diag(
                    "E025",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: date min after max"),
                );
            }
            GeneratorSpec::Sequential { parts, .. } if parts.is_empty() => {
                self.field_diag(
                    "E026",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: sequential generator with no parts"),
                );
            }
            GeneratorSpec::HistogramNumeric {
                bounds, weights, ..
            } => {
                if bounds.len() != weights.len() + 1 {
                    self.field_diag(
                        "E027",
                        Severity::Error,
                        t,
                        f,
                        format!(
                            "{at}: histogram needs {} bounds for {} buckets",
                            weights.len() + 1,
                            weights.len()
                        ),
                    );
                    return;
                }
                if weights.is_empty() {
                    self.field_diag(
                        "E027",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: histogram with no buckets"),
                    );
                    return;
                }
                if bounds.windows(2).any(|w| w[0] >= w[1]) || bounds.iter().any(|b| !b.is_finite())
                {
                    self.field_diag(
                        "E027",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: histogram bounds must strictly increase"),
                    );
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0)
                    || weights.iter().sum::<f64>() <= 0.0
                {
                    self.field_diag(
                        "E027",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: histogram weights must be non-negative with positive sum"),
                    );
                }
            }
            GeneratorSpec::TimestampRange { min, max } => {
                if min > max {
                    self.field_diag(
                        "E028",
                        Severity::Error,
                        t,
                        f,
                        format!("{at}: timestamp min after max"),
                    );
                }
                // The output path renders timestamps through the day-count
                // date kernel; bounds whose day count leaves i32 cannot be
                // formatted faithfully.
                for bound in [min, max] {
                    if i32::try_from(bound.div_euclid(86_400)).is_err() {
                        self.field_diag(
                            "E028",
                            Severity::Error,
                            t,
                            f,
                            format!("{at}: timestamp {bound} outside the representable date range"),
                        );
                        break;
                    }
                }
            }
            GeneratorSpec::Long { min, max } | GeneratorSpec::Double { min, max, .. } => {
                self.check_bounds(&at, min, max, t, f, props);
            }
            GeneratorSpec::Decimal { min, max, .. } => {
                self.check_bounds(&at, min, max, t, f, props);
            }
            _ => {}
        }
    }

    /// Numeric bounds that resolve under the current properties must not
    /// be inverted. Bounds that fail to resolve are left for build time
    /// (they may legitimately depend on overridden properties).
    fn check_bounds(
        &mut self,
        at: &str,
        min: &Expr,
        max: &Expr,
        t: &Table,
        f: &Field,
        props: Option<&std::collections::BTreeMap<String, f64>>,
    ) {
        let Some(props) = props else { return };
        let lookup = |n: &str| props.get(n).copied();
        if let (Ok(lo), Ok(hi)) = (min.eval(&lookup), max.eval(&lookup)) {
            if lo > hi {
                self.field_diag(
                    "E029",
                    Severity::Error,
                    t,
                    f,
                    format!("{at}: numeric min {lo} greater than max {hi}"),
                );
            }
        }
    }

    /// Pass 4: generator subtrees that can never produce a value.
    fn reachability(&mut self) {
        let schema = self.schema;
        for t in &schema.tables {
            for f in &t.fields {
                let mut findings = Vec::new();
                collect_unreachable(&f.generator, &t.name, &f.name, &mut findings);
                for message in findings {
                    self.field_diag("W002", Severity::Warning, t, f, message);
                }
            }
        }
    }

    /// Pass 3: reference graph. Emits `E013` on cycles and returns the
    /// dependency (generation) order via Kahn's algorithm, stable with
    /// respect to schema declaration order.
    fn reference_graph(&mut self) -> Vec<u32> {
        let schema = self.schema;
        let n = schema.tables.len();
        // parents[c] = unique referenced table indices (excluding self and
        // unknown targets, which earlier passes already reported).
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, t) in schema.tables.iter().enumerate() {
            for f in &t.fields {
                f.generator.walk(&mut |g| {
                    if let GeneratorSpec::Reference { table, .. } = g {
                        if let Some(p) = schema.table_index(table) {
                            if p != c && !parents[c].contains(&p) {
                                parents[c].push(p);
                            }
                        }
                    }
                });
            }
        }
        let mut indegree: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, ps) in parents.iter().enumerate() {
            for &p in ps {
                children[p].push(c);
            }
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        // Smallest-index ready table first: with no references the
        // generation order equals the declaration order.
        while let Some(next) = (0..n).find(|&v| !placed[v] && indegree[v] == 0) {
            placed[next] = true;
            order.push(next as u32);
            for &c in &children[next] {
                indegree[c] -= 1;
            }
        }
        if order.len() < n {
            let cycle = describe_cycle(&parents, &placed, schema);
            self.diagnostics.push(Diagnostic {
                code: "E013",
                severity: Severity::Error,
                table: cycle.first().cloned(),
                field: None,
                message: format!("reference cycle: {}", cycle.join(" -> ")),
            });
            return (0..n as u32).collect();
        }
        order
    }
}

/// Resolve a table's size expression to a row count, mirroring
/// [`Schema::table_size`]'s error text.
fn eval_size(t: &Table, props: &std::collections::BTreeMap<String, f64>) -> Result<u64, String> {
    let v = t
        .size
        .eval(&|n| props.get(n).copied())
        .map_err(|e| format!("table {}: {e}", t.name))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("table {}: size {v} is not a row count", t.name));
    }
    Ok(v.round() as u64)
}

/// Walk one unplaced node's parent edges until a node repeats, producing
/// `a -> b -> a` style cycle member names.
fn describe_cycle(parents: &[Vec<usize>], placed: &[bool], schema: &Schema) -> Vec<String> {
    let Some(start) = (0..placed.len()).find(|&v| !placed[v] && !parents[v].is_empty()) else {
        return Vec::new();
    };
    let mut path = vec![start];
    let mut cur = start;
    loop {
        let Some(&next) = parents[cur].iter().find(|&&p| !placed[p]) else {
            return path
                .iter()
                .map(|&v| schema.tables[v].name.clone())
                .collect();
        };
        if let Some(pos) = path.iter().position(|&v| v == next) {
            path.push(next);
            return path[pos..]
                .iter()
                .map(|&v| schema.tables[v].name.clone())
                .collect();
        }
        path.push(next);
        cur = next;
    }
}

/// Collect warnings for subtrees of `g` that can never be sampled,
/// naming any external resources they would have pulled in.
fn collect_unreachable(g: &GeneratorSpec, table: &str, field: &str, out: &mut Vec<String>) {
    let at = format!("{table}.{field}");
    match g {
        GeneratorSpec::Null { probability, inner } => {
            if *probability >= 1.0 {
                out.push(format!(
                    "{at}: always-NULL wrapper makes its inner {} unreachable{}",
                    inner.xml_name(),
                    describe_resources(inner)
                ));
            } else {
                collect_unreachable(inner, table, field, out);
            }
        }
        GeneratorSpec::Sequential { parts, .. } => {
            for p in parts {
                collect_unreachable(p, table, field, out);
            }
        }
        GeneratorSpec::Probability { branches } => {
            // Branch selection draws a uniform in [0, 1) and walks the
            // cumulative distribution, so a branch whose predecessors
            // already cover the whole unit interval is dead at any scale
            // (reachable within E022's sum tolerance, never at runtime).
            let mut cumulative = 0.0f64;
            for (p, branch) in branches {
                let exhausted = cumulative >= 1.0;
                cumulative += p.max(0.0);
                if *p <= 0.0 {
                    out.push(format!(
                        "{at}: probability-0 branch makes its {} unreachable{}",
                        branch.xml_name(),
                        describe_resources(branch)
                    ));
                } else if exhausted {
                    out.push(format!(
                        "{at}: earlier branches already cover probability 1, \
                         making this {} unreachable{}",
                        branch.xml_name(),
                        describe_resources(branch)
                    ));
                } else {
                    collect_unreachable(branch, table, field, out);
                }
            }
        }
        _ => {}
    }
}

/// `"; external resource(s) a, b are never read"` for a subtree, or "".
fn describe_resources(g: &GeneratorSpec) -> String {
    let mut files = Vec::new();
    g.walk(&mut |s| match s {
        GeneratorSpec::Dict {
            source: DictSource::File(path),
            ..
        }
        | GeneratorSpec::DictByRow {
            source: DictSource::File(path),
        }
        | GeneratorSpec::Markov {
            source: MarkovSource::File(path),
            ..
        } => files.push(path.clone()),
        _ => {}
    });
    if files.is_empty() {
        String::new()
    } else {
        format!("; external resource(s) {} never read", files.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Field, GeneratorSpec, Schema, Table};
    use crate::types::SqlType;

    fn id_field(name: &str) -> Field {
        Field::new(name, SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary()
    }

    fn reference(table: &str, field: &str) -> GeneratorSpec {
        GeneratorSpec::Reference {
            table: table.to_string(),
            field: field.to_string(),
            distribution: RefDistribution::Uniform,
        }
    }

    fn two_table_schema() -> Schema {
        Schema::new("a2", 7)
            .table(Table::new("parent", "10").field(id_field("id")))
            .table(
                Table::new("child", "20")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("parent", "id"))),
            )
    }

    #[test]
    fn clean_schema_has_no_diagnostics() {
        let a = two_table_schema().analyze();
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(!a.has_errors());
        assert_eq!(a.error_count(), 0);
        assert_eq!(a.warning_count(), 0);
    }

    #[test]
    fn generation_order_puts_parents_first() {
        // child declared *before* parent: the order must flip them.
        let s = Schema::new("ord", 7)
            .table(
                Table::new("child", "20")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("parent", "id"))),
            )
            .table(Table::new("parent", "10").field(id_field("id")));
        let a = s.analyze();
        assert!(!a.has_errors());
        assert_eq!(a.generation_order, vec![1, 0]);
        // No references: declaration order.
        let b = Schema::new("flat", 7)
            .table(Table::new("x", "1").field(id_field("id")))
            .table(Table::new("y", "1").field(id_field("id")))
            .analyze();
        assert_eq!(b.generation_order, vec![0, 1]);
    }

    #[test]
    fn mutual_cycle_is_an_error_with_the_cycle_path() {
        let s = Schema::new("cyc", 7)
            .table(
                Table::new("a", "10")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("b", "id"))),
            )
            .table(
                Table::new("b", "10")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("a", "id"))),
            );
        let a = s.analyze();
        let err = a.first_error().expect("cycle must be an error");
        assert_eq!(err.code, "E013");
        assert!(err.message.contains("cycle"), "{}", err.message);
        assert!(err.message.contains("a") && err.message.contains("b"));
    }

    #[test]
    fn three_table_cycle_through_a_nested_spec_is_found() {
        // a -> b -> c -> a, with c's reference hidden inside a Null meta.
        let s = Schema::new("cyc3", 7)
            .table(
                Table::new("a", "10")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("b", "id"))),
            )
            .table(
                Table::new("b", "10")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("c", "id"))),
            )
            .table(
                Table::new("c", "10")
                    .field(id_field("id"))
                    .field(Field::new(
                        "fk",
                        SqlType::BigInt,
                        GeneratorSpec::Null {
                            probability: 0.5,
                            inner: Box::new(reference("a", "id")),
                        },
                    )),
            );
        let a = s.analyze();
        assert!(a.diagnostics.iter().any(|d| d.code == "E013"));
    }

    #[test]
    fn all_domain_errors_are_reported_not_just_the_first() {
        let s = Schema::new("multi", 7).table(
            Table::new("t", "10")
                .field(Field::new(
                    "bad_string",
                    SqlType::Varchar(10),
                    GeneratorSpec::RandomString {
                        min_len: 9,
                        max_len: 2,
                    },
                ))
                .field(Field::new(
                    "bad_null",
                    SqlType::Integer,
                    GeneratorSpec::Null {
                        probability: 2.0,
                        inner: Box::new(GeneratorSpec::Id { permute: false }),
                    },
                )),
        );
        let a = s.analyze();
        let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E023"), "{codes:?}");
        assert!(codes.contains(&"E021"), "{codes:?}");
    }

    #[test]
    fn zipf_theta_out_of_range_is_e020() {
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::Reference {
            table: "parent".into(),
            field: "id".into(),
            distribution: RefDistribution::Zipf { theta: 1.5 },
        };
        let a = s.analyze();
        assert_eq!(a.first_error().map(|d| d.code), Some("E020"));
    }

    #[test]
    fn timestamp_domain_is_checked() {
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::TimestampRange { min: 10, max: 5 };
        assert_eq!(s.analyze().first_error().map(|d| d.code), Some("E028"));
        s.tables[1].fields[1].generator = GeneratorSpec::TimestampRange {
            min: 0,
            max: i64::MAX,
        };
        assert_eq!(s.analyze().first_error().map(|d| d.code), Some("E028"));
    }

    #[test]
    fn inverted_numeric_bounds_are_e029() {
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::Long {
            min: Expr::parse("10").unwrap(),
            max: Expr::parse("2").unwrap(),
        };
        assert_eq!(s.analyze().first_error().map(|d| d.code), Some("E029"));
    }

    #[test]
    fn unreachable_subtrees_warn_with_their_resources() {
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::Null {
            probability: 1.0,
            inner: Box::new(GeneratorSpec::Markov {
                source: MarkovSource::File("markov/m.bin".into()),
                min_words: 1,
                max_words: 3,
            }),
        };
        let a = s.analyze();
        assert!(!a.has_errors());
        let w = &a.diagnostics[0];
        assert_eq!(w.code, "W002");
        assert!(w.message.contains("markov/m.bin"), "{}", w.message);

        s.tables[1].fields[1].generator = GeneratorSpec::Probability {
            branches: vec![
                (1.0, GeneratorSpec::Id { permute: false }),
                (
                    0.0,
                    GeneratorSpec::Dict {
                        source: DictSource::File("colors.dict".into()),
                        weighted: false,
                    },
                ),
            ],
        };
        let a = s.analyze();
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == "W002" && d.message.contains("colors.dict")));
    }

    #[test]
    fn prefix_sum_dead_branches_warn_w002() {
        // Sums to 1.0000004 — inside E022's tolerance — but the first two
        // branches already cover [0, 1), so the dictionary branch is dead.
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::Probability {
            branches: vec![
                (0.5, GeneratorSpec::Id { permute: false }),
                (0.5, GeneratorSpec::Id { permute: false }),
                (
                    0.000_000_4,
                    GeneratorSpec::Dict {
                        source: DictSource::File("colors.dict".into()),
                        weighted: false,
                    },
                ),
            ],
        };
        let a = s.analyze();
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == "W002" && d.message.contains("colors.dict")),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn duplicate_seed_paths_are_accepted() {
        // Repeated aux-seed consumers in one field tree get distinct keys
        // at build time, so the analyzer has nothing to flag.
        let mut s = two_table_schema();
        let perm_ref = GeneratorSpec::Reference {
            table: "parent".into(),
            field: "id".into(),
            distribution: RefDistribution::Permutation,
        };
        for part in [GeneratorSpec::Id { permute: true }, perm_ref] {
            s.tables[1].fields[1].generator = GeneratorSpec::Sequential {
                parts: vec![part.clone(), part],
                separator: "-".into(),
            };
            let a = s.analyze();
            assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        }
    }

    #[test]
    fn zero_size_table_is_a_warning_only() {
        let s = Schema::new("z", 7).table(Table::new("t", "0").field(id_field("id")));
        let a = s.analyze();
        assert!(!a.has_errors());
        assert_eq!(a.diagnostics[0].code, "W001");
        assert!(s.validate().is_ok(), "warnings must not fail validate");
    }

    #[test]
    fn diagnostic_display_includes_code_and_severity() {
        let s = Schema::new("d", 7).table(Table::new("t", "1"));
        let a = s.analyze();
        let shown = format!("{}", a.diagnostics[0]);
        assert!(shown.starts_with("error[E002]"), "{shown}");
    }
}
