//! The `prove` report: seed-lineage verdicts across every layer.
//!
//! [`Pdgf::prove`](crate::Pdgf::prove) runs the static lineage pass
//! (`pdgf_schema::lineage`, which rejects a contract with no finite draw
//! bound as `E053`), then checks its spec-derived [`DrawContract`]s
//! against the abstract interpreter's draw profiles (`E056`) and — by
//! sampling cells — the three seed-derivation routes the engines use (`E055`):
//! the cached tree walk of point lookups, the hoisted `update_seed` route
//! of the columnar kernels, and the from-scratch derivation. Both engines
//! run one kernel per generator kind, so equal seeds mean equal draw
//! streams; when every check passes, the point path, the columnar path
//! and `pdgf serve` provably agree for every cell of the model.
//!
//! Like `explain`, the report renders to deterministic JSON: same model,
//! same bytes.

use pdgf_output::json_escape;
use pdgf_schema::lineage::{DrawContract, LineageGraph};
use pdgf_schema::{absint, Diagnostic};

/// The cross-layer verdicts of one [`ProveReport`].
#[derive(Debug, Clone, Default)]
pub struct ProveVerdicts {
    /// Every column's spec-derived contract has a finite per-cell draw
    /// bound (no `E053`).
    pub draws_bounded: bool,
    /// Every sampled cell derives the same seed through the point-lookup
    /// route, the hoisted bulk route, and the from-scratch derivation
    /// (no `E055`).
    pub seed_routes_agree: bool,
    /// The abstract interpreter's draw profiles match the lineage
    /// contracts (no `E056`).
    pub absint_agrees: bool,
    /// Columns covered by the cross-checks.
    pub columns_checked: usize,
    /// Cells sampled for the seed-route check.
    pub cells_sampled: u64,
}

impl ProveVerdicts {
    /// The row and columnar engines provably consume identical draw
    /// streams: contracts are bounded and the interpreter agrees.
    pub fn engines_equivalent(&self) -> bool {
        self.draws_bounded && self.absint_agrees
    }

    /// `pdgf serve` point lookups land on the same lineage nodes as bulk
    /// generation.
    pub fn serve_consistent(&self) -> bool {
        self.seed_routes_agree
    }
}

/// Result of [`Pdgf::prove`](crate::Pdgf::prove): the seed-lineage graph
/// and the cross-layer equivalence verdicts.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// False when any error-severity diagnostic was emitted; the graph
    /// and verdicts are then empty/false.
    pub ok: bool,
    /// Every diagnostic: structural, abstract interpretation, static
    /// lineage, and the prove-time cross-checks (E055, E056).
    pub diagnostics: Vec<Diagnostic>,
    /// The project → table → column → update → cell derivation graph.
    pub graph: LineageGraph,
    /// The cross-layer verdicts.
    pub verdicts: ProveVerdicts,
}

impl ProveReport {
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

    /// Render the report as one machine-readable JSON object.
    ///
    /// `model` is echoed verbatim into the `"model"` key. The encoding is
    /// deterministic — fixed key order, no timestamps — so identical
    /// models produce byte-identical output.
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
        s.push_str(&format!(
            "],\"root\":\"{}\",\"columns\":[",
            json_escape(&self.graph.root)
        ));
        for (i, c) in self.graph.columns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"table\":\"{}\",\"field\":\"{}\",\"path\":\"{}\",\"aux\":[{}],\"reads\":[{}],{}}}",
                json_escape(&c.table),
                json_escape(&c.field),
                json_escape(&c.path),
                string_list(&c.aux),
                string_list(&c.reads),
                contract_json(&c.contract),
            ));
        }
        s.push_str(&format!(
            "],\"verdicts\":{{\"engines_equivalent\":{},\"serve_consistent\":{},\
             \"draws_bounded\":{},\"seed_routes_agree\":{},\
             \"absint_agrees\":{},\"columns_checked\":{},\"cells_sampled\":{}}}}}",
            self.verdicts.engines_equivalent(),
            self.verdicts.serve_consistent(),
            self.verdicts.draws_bounded,
            self.verdicts.seed_routes_agree,
            self.verdicts.absint_agrees,
            self.verdicts.columns_checked,
            self.verdicts.cells_sampled,
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

fn string_list(items: &[String]) -> String {
    items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect::<Vec<_>>()
        .join(",")
}

fn draws_json(d: absint::Draws) -> String {
    let max = if d.max == u64::MAX {
        "null".to_string()
    } else {
        d.max.to_string()
    };
    format!("[{},{max}]", d.min)
}

/// The body (no braces) of a contract's JSON encoding.
fn contract_json(c: &DrawContract) -> String {
    format!(
        "\"draws\":{},\"permuted_ids\":{},\"perm_refs\":{},\"closure_reads\":{}",
        draws_json(c.draws),
        c.permuted_ids,
        c.perm_refs.values().sum::<u64>(),
        c.closure_reads.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_schema::absint::Draws;

    #[test]
    fn contract_json_is_plain_and_stable() {
        let mut c = DrawContract::exact(2);
        c.permuted_ids = 1;
        c.perm_refs.insert((0, 0), 1);
        c.closure_reads.insert((0, 0));
        let a = contract_json(&c);
        assert_eq!(a, contract_json(&c));
        assert_eq!(
            a,
            "\"draws\":[2,2],\"permuted_ids\":1,\"perm_refs\":1,\"closure_reads\":1"
        );
        assert_eq!(
            draws_json(Draws {
                min: 0,
                max: u64::MAX
            }),
            "[0,null]"
        );
    }

    #[test]
    fn default_verdicts_prove_nothing() {
        let v = ProveVerdicts::default();
        assert!(!v.engines_equivalent());
        assert!(!v.serve_consistent());
    }
}
