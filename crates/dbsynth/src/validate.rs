//! Fidelity validation: compare original and synthetic databases.
//!
//! The paper's demo "verifies the quality by running SQL queries on the
//! original data and the generated data and compares the results".
//! This module automates that check: per-table row-count ratios and
//! per-column statistical deltas (NULL fraction, mean, min/max span,
//! distinct counts), summarized in a [`FidelityReport`].

use minidb::{Database, DbError, TableStats};
#[cfg(test)]
use pdgf_schema::Value;

/// Per-column fidelity deltas.
#[derive(Debug, Clone)]
pub struct ColumnFidelity {
    /// Column name.
    pub column: String,
    /// |null_fraction(orig) - null_fraction(synth)|.
    pub null_fraction_delta: f64,
    /// Relative mean error for numeric columns (None for text).
    pub mean_rel_error: Option<f64>,
    /// Does the synthetic min/max stay within (or equal) a small margin
    /// of the original range?
    pub range_contained: bool,
    /// distinct(synth) / distinct(orig), when original has any.
    pub distinct_ratio: Option<f64>,
}

/// Per-table fidelity summary.
#[derive(Debug, Clone)]
pub struct TableFidelity {
    /// Table name.
    pub table: String,
    /// rows(synth) / rows(orig) — should approximate the scale factor.
    pub row_ratio: f64,
    /// Column summaries.
    pub columns: Vec<ColumnFidelity>,
}

/// Whole-database fidelity report.
#[derive(Debug, Clone)]
pub struct FidelityReport {
    /// Per-table summaries.
    pub tables: Vec<TableFidelity>,
}

impl FidelityReport {
    /// The largest NULL-fraction deviation across all columns.
    pub fn max_null_delta(&self) -> f64 {
        self.tables
            .iter()
            .flat_map(|t| t.columns.iter().map(|c| c.null_fraction_delta))
            .fold(0.0, f64::max)
    }

    /// The largest relative mean error across numeric columns.
    pub fn max_mean_rel_error(&self) -> f64 {
        self.tables
            .iter()
            .flat_map(|t| t.columns.iter().filter_map(|c| c.mean_rel_error))
            .fold(0.0, f64::max)
    }

    /// Are all synthetic value ranges contained in the originals'?
    pub fn all_ranges_contained(&self) -> bool {
        self.tables
            .iter()
            .all(|t| t.columns.iter().all(|c| c.range_contained))
    }

    /// Human-readable summary table.
    pub fn to_summary_string(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("{}  row_ratio={:.3}\n", t.table, t.row_ratio));
            for c in &t.columns {
                out.push_str(&format!(
                    "  {:<24} null_delta={:.4} mean_err={} range_ok={} distinct_ratio={}\n",
                    c.column,
                    c.null_fraction_delta,
                    c.mean_rel_error
                        .map(|e| format!("{e:.4}"))
                        .unwrap_or_else(|| "-".into()),
                    c.range_contained,
                    c.distinct_ratio
                        .map(|r| format!("{r:.3}"))
                        .unwrap_or_else(|| "-".into()),
                ));
            }
        }
        out
    }
}

fn numeric_mean(db: &Database, table: &str, col: usize) -> Result<Option<f64>, DbError> {
    let t = db.table(table)?;
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in t.column(col) {
        if let Some(x) = v.as_f64() {
            sum += x;
            n += 1;
        }
    }
    Ok(if n == 0 { None } else { Some(sum / n as f64) })
}

/// Compare every table present in `original` against `synthetic`.
/// `expected_scale` is the SF the synthetic data was generated at.
pub fn compare_databases(
    original: &Database,
    synthetic: &Database,
    expected_scale: f64,
) -> Result<FidelityReport, DbError> {
    let _ = expected_scale;
    let mut tables = Vec::new();
    for name in original.table_names() {
        let orig = original.table(name)?;
        let synth = synthetic.table(name)?;
        let orig_stats = TableStats::analyze(orig);
        let synth_stats = TableStats::analyze(synth);
        let row_ratio = if orig.row_count() == 0 {
            0.0
        } else {
            synth.row_count() as f64 / orig.row_count() as f64
        };
        let mut columns = Vec::new();
        for (c_idx, (o, s)) in orig_stats
            .columns
            .iter()
            .zip(&synth_stats.columns)
            .enumerate()
        {
            let null_fraction_delta = (o.null_fraction() - s.null_fraction()).abs();
            // Normalize the mean error by whichever is larger: the mean's
            // magnitude or the column's value span. Plain relative error
            // explodes for columns whose mean sits near zero (e.g. dates
            // around the 1970 epoch) even when the distributions match.
            let span = match (
                o.min.as_ref().and_then(|v| v.as_f64()),
                o.max.as_ref().and_then(|v| v.as_f64()),
            ) {
                (Some(lo), Some(hi)) => (hi - lo).abs(),
                _ => 0.0,
            };
            let mean_rel_error = match (
                numeric_mean(original, name, c_idx)?,
                numeric_mean(synthetic, name, c_idx)?,
            ) {
                (Some(om), Some(sm)) => {
                    let denom = om.abs().max(span).max(1e-12);
                    Some((om - sm).abs() / denom)
                }
                _ => None,
            };
            let range_contained = match (&o.min, &o.max, &s.min, &s.max) {
                (Some(omin), Some(omax), Some(smin), Some(smax)) => {
                    // Text columns: containment by lexicographic range is
                    // meaningless for synthesized strings; only check
                    // numerics.
                    match (omin.as_f64(), omax.as_f64(), smin.as_f64(), smax.as_f64()) {
                        (Some(a), Some(b), Some(x), Some(y)) => {
                            let span = (b - a).abs().max(1.0);
                            x >= a - 0.01 * span && y <= b + 0.01 * span
                        }
                        _ => true,
                    }
                }
                _ => true,
            };
            let distinct_ratio = if o.distinct > 0 {
                Some(s.distinct as f64 / o.distinct as f64)
            } else {
                None
            };
            columns.push(ColumnFidelity {
                column: o.name.clone(),
                null_fraction_delta,
                mean_rel_error,
                range_contained,
                distinct_ratio,
            });
        }
        tables.push(TableFidelity {
            table: name.to_string(),
            row_ratio,
            columns,
        });
    }
    Ok(FidelityReport { tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{ExtractionOptions, Extractor, SamplingOptions};
    use crate::workflow::generate_into;
    use minidb::{ColumnDef, SampleStrategy, TableDef};
    use pdgf_schema::SqlType;

    fn source_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableDef::new("m")
                .column(ColumnDef::new("id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("amount", SqlType::Decimal(8, 2)))
                .column(ColumnDef::new("tag", SqlType::Varchar(8)).not_null()),
        )
        .unwrap();
        for i in 0..400i64 {
            db.insert(
                "m",
                vec![
                    Value::Long(i + 1),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::decimal(1000 + i * 10, 2)
                    },
                    Value::text(["red", "blue", "green"][(i % 3) as usize]),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn roundtrip_fidelity_is_high() {
        let original = source_db();
        let model = Extractor::new(
            &original,
            ExtractionOptions {
                sampling: Some(SamplingOptions {
                    strategy: SampleStrategy::Full,
                    dict_max_distinct: 16,
                }),
                ..ExtractionOptions::default()
            },
        )
        .extract("m")
        .unwrap();
        let mut synthetic = Database::new();
        generate_into(&mut synthetic, &model, 1.0).unwrap();

        let report = compare_databases(&original, &synthetic, 1.0).unwrap();
        assert_eq!(report.tables.len(), 1);
        let t = &report.tables[0];
        assert!((t.row_ratio - 1.0).abs() < 1e-9);
        assert!(
            report.max_null_delta() < 0.05,
            "{}",
            report.to_summary_string()
        );
        assert!(
            report.max_mean_rel_error() < 0.10,
            "{}",
            report.to_summary_string()
        );
        assert!(
            report.all_ranges_contained(),
            "{}",
            report.to_summary_string()
        );
        // Dictionary columns reproduce the full categorical domain.
        let tag = t.columns.iter().find(|c| c.column == "tag").unwrap();
        assert_eq!(tag.distinct_ratio, Some(1.0));
    }

    #[test]
    fn scale_out_doubles_rows_but_keeps_stats() {
        let original = source_db();
        let model = Extractor::new(&original, ExtractionOptions::default())
            .extract("m")
            .unwrap();
        let mut synthetic = Database::new();
        generate_into(&mut synthetic, &model, 2.0).unwrap();
        let report = compare_databases(&original, &synthetic, 2.0).unwrap();
        assert!((report.tables[0].row_ratio - 2.0).abs() < 1e-9);
        assert!(report.max_null_delta() < 0.05);
    }

    #[test]
    fn mismatched_synthetic_is_detected() {
        let original = source_db();
        // "Synthetic" data that is wildly off: constant amounts, no NULLs.
        let mut synthetic = Database::new();
        synthetic
            .create_table(
                TableDef::new("m")
                    .column(ColumnDef::new("id", SqlType::BigInt).primary_key())
                    .column(ColumnDef::new("amount", SqlType::Decimal(8, 2)))
                    .column(ColumnDef::new("tag", SqlType::Varchar(8)).not_null()),
            )
            .unwrap();
        for i in 0..400i64 {
            synthetic
                .insert(
                    "m",
                    vec![
                        Value::Long(i + 1),
                        Value::decimal(99, 2),
                        Value::text("red"),
                    ],
                )
                .unwrap();
        }
        let report = compare_databases(&original, &synthetic, 1.0).unwrap();
        assert!(report.max_null_delta() > 0.15, "missing NULLs not flagged");
        assert!(report.max_mean_rel_error() > 0.5, "wrong mean not flagged");
        let tag = report.tables[0]
            .columns
            .iter()
            .find(|c| c.column == "tag")
            .unwrap();
        assert!(tag.distinct_ratio.unwrap() < 0.5);
    }
}
