//! The `explain` report: what a generation run will do, proven statically.
//!
//! [`Pdgf::explain`](crate::Pdgf::explain) folds the abstract interpreter
//! over the model at its current property values and combines the
//! per-column [`StaticProfile`]s with each output formatter's
//! byte-bound transfer function. The result is a pre-run plan — table
//! order, package counts, worker count — together with *proven upper
//! bounds* on output size: per row, per table, and for the whole data
//! set, per format. Generating the model can never exceed these bounds
//! (the integration suite generates every shipped model and checks).
//!
//! All report fields derive from the model and the configuration alone —
//! no clocks, no RNG draws — so rendering the same model twice yields
//! byte-identical JSON.

use pdgf_output::json_escape;
use pdgf_schema::absint::{Cardinality, StaticProfile, Width};
use pdgf_schema::Diagnostic;

use crate::project::OutputFormat;

/// One value per supported output format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerFormat<T> {
    /// Value for CSV output.
    pub csv: T,
    /// Value for newline-delimited JSON output.
    pub json: T,
    /// Value for XML output.
    pub xml: T,
    /// Value for SQL INSERT output.
    pub sql: T,
}

impl<T> PerFormat<T> {
    /// Build by evaluating `f` once per format.
    pub fn build(mut f: impl FnMut(OutputFormat) -> T) -> Self {
        Self {
            csv: f(OutputFormat::Csv),
            json: f(OutputFormat::Json),
            xml: f(OutputFormat::Xml),
            sql: f(OutputFormat::Sql),
        }
    }

    /// The value for `format`.
    pub fn get(&self, format: OutputFormat) -> &T {
        match format {
            OutputFormat::Csv => &self.csv,
            OutputFormat::Json => &self.json,
            OutputFormat::Xml => &self.xml,
            OutputFormat::Sql => &self.sql,
        }
    }
}

/// Per-column entry of an [`ExplainReport`] table.
#[derive(Debug, Clone)]
pub struct ColumnExplain {
    /// Field name.
    pub name: String,
    /// The column's abstract-interpretation profile.
    pub profile: StaticProfile,
}

/// Per-table entry of an [`ExplainReport`].
#[derive(Debug, Clone)]
pub struct TableExplain {
    /// Table name.
    pub name: String,
    /// Row count at the explained scale.
    pub rows: u64,
    /// Work packages the scheduler will split this table into.
    pub packages: u64,
    /// Proven upper bound on the bytes of one formatted row, per format.
    /// `None` when a column's width is unbounded.
    pub max_row_bytes: PerFormat<Option<u64>>,
    /// Proven upper bound on the table's total output (framing included),
    /// per format.
    pub max_total_bytes: PerFormat<Option<u64>>,
    /// Column profiles in declaration order.
    pub columns: Vec<ColumnExplain>,
}

/// Result of [`Pdgf::explain`](crate::Pdgf::explain): the static plan and
/// proven output-size bounds for a generation run.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// False when the model has error-severity diagnostics; `tables` is
    /// then empty because sizes and profiles would be unreliable.
    pub ok: bool,
    /// Every diagnostic: structural analysis plus abstract interpretation.
    pub diagnostics: Vec<Diagnostic>,
    /// Table names in dependency (generation) order.
    pub generation_order: Vec<String>,
    /// Configured worker threads (0 = inline).
    pub workers: usize,
    /// Configured rows per work package.
    pub package_rows: u64,
    /// Per-table plans in schema declaration order.
    pub tables: Vec<TableExplain>,
    /// Proven upper bound on the whole data set's output, per format.
    pub total_bytes: PerFormat<Option<u64>>,
}

impl ExplainReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == pdgf_schema::Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == pdgf_schema::Severity::Warning)
            .count()
    }

    /// Look up a table plan by name.
    pub fn table(&self, name: &str) -> Option<&TableExplain> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Render the report as one machine-readable JSON object.
    ///
    /// `model` is echoed verbatim into the `"model"` key. The encoding is
    /// deterministic — fixed key order, shortest-roundtrip floats, no
    /// timestamps — so identical models produce byte-identical output.
    pub fn to_json(&self, model: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"model\":\"{}\",\"ok\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            json_escape(model),
            self.ok,
            self.errors(),
            self.warnings(),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"severity\":\"{}\",\"code\":\"{}\",\"table\":{},\"field\":{},\"message\":\"{}\"}}",
                d.severity.name(),
                d.code,
                opt_str(&d.table),
                opt_str(&d.field),
                json_escape(&d.message),
            ));
        }
        s.push_str("],\"generation_order\":[");
        for (i, name) in self.generation_order.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", json_escape(name)));
        }
        s.push_str(&format!(
            "],\"workers\":{},\"package_rows\":{},\"tables\":[",
            self.workers, self.package_rows
        ));
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"rows\":{},\"packages\":{},\"max_row_bytes\":{},\"max_total_bytes\":{},\"columns\":[",
                json_escape(&t.name),
                t.rows,
                t.packages,
                per_format_json(&t.max_row_bytes),
                per_format_json(&t.max_total_bytes),
            ));
            for (j, c) in t.columns.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"name\":\"{}\",{}}}",
                    json_escape(&c.name),
                    profile_json(&c.profile)
                ));
            }
            s.push_str("]}");
        }
        s.push_str(&format!(
            "],\"total_bytes\":{}}}",
            per_format_json(&self.total_bytes)
        ));
        s
    }
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn per_format_json(p: &PerFormat<Option<u64>>) -> String {
    format!(
        "{{\"csv\":{},\"json\":{},\"xml\":{},\"sql\":{}}}",
        opt_u64(p.csv),
        opt_u64(p.json),
        opt_u64(p.xml),
        opt_u64(p.sql)
    )
}

/// The body (no braces) of a profile's JSON encoding.
fn profile_json(p: &StaticProfile) -> String {
    let kinds: Vec<String> = p.kinds.names().iter().map(|n| format!("\"{n}\"")).collect();
    let interval = match p.interval {
        Some(iv) => format!("[{:?},{:?}]", iv.lo, iv.hi),
        None => "null".to_string(),
    };
    let width = match p.width {
        Width::Exact(w) => format!("{{\"exact\":{w}}}"),
        Width::AtMost(w) => format!("{{\"at_most\":{w}}}"),
        Width::Unbounded => "\"unbounded\"".to_string(),
    };
    let cardinality = match p.cardinality {
        Cardinality::Unique => "\"unique\"".to_string(),
        Cardinality::AtMost(n) => format!("{{\"at_most\":{n}}}"),
        Cardinality::Unbounded => "\"unbounded\"".to_string(),
    };
    format!(
        "\"kinds\":[{}],\"interval\":{interval},\"width\":{width},\"ascii\":{},\
         \"null_prob\":{:?},\"cardinality\":{cardinality},\"draws\":[{},{}]",
        kinds.join(","),
        p.ascii,
        p.null_prob,
        p.draws.min,
        p.draws.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_schema::absint;

    #[test]
    fn per_format_build_and_get_agree() {
        let p = PerFormat::build(|f| f.extension().to_string());
        assert_eq!(p.get(OutputFormat::Csv), "csv");
        assert_eq!(p.get(OutputFormat::Json), "json");
        assert_eq!(p.get(OutputFormat::Xml), "xml");
        assert_eq!(p.get(OutputFormat::Sql), "sql");
    }

    #[test]
    fn profile_json_is_plain_and_stable() {
        let p = absint::long_profile(0, 9999);
        let a = profile_json(&p);
        let b = profile_json(&p);
        assert_eq!(a, b);
        assert!(a.contains("\"kinds\":["));
        assert!(a.contains("\"width\":{\"at_most\":"));
        assert!(a.contains("\"cardinality\":{\"at_most\":10000}"));
    }
}
