//! Seed-lineage prover: static draw-count contracts over the seeding tree.
//!
//! The paper's repeatability guarantee rests on the hierarchical seeding
//! tree: every cell's generator seeds a fresh PRNG from
//! `field_seed = mix64_pair(update_seed(table, column, update), row)`, so
//! any two consumers that derive from the *same* seed path produce
//! correlated (usually identical) streams, and any disagreement about how
//! many values a generator draws per cell silently desynchronizes nothing
//! — each cell has its own stream — but *does* break the declared
//! equivalence between the row engine, the columnar kernels, and `pdgf
//! serve` point lookups, which all re-derive that stream independently.
//!
//! This module turns those properties into a static analysis. Every
//! generator description folds to a [`DrawContract`]: bounds on PRNG draws
//! per cell, the auxiliary permutation-key seed paths it consumes, and the
//! reference-closure reads it performs into other tables. The lineage pass
//! ([`analyze_lineage`]) folds contracts over the schema in generation
//! order, builds the project → table → column → update → cell derivation
//! graph ([`LineageGraph`]), and proves the absence of seed-path
//! collisions. `pdgf prove` adds the cross-layer verdicts on top: the
//! abstract interpreter's draw profiles and the serve point-lookup seed
//! route must agree with the spec-derived contract.
//!
//! # Diagnostic registry (lineage codes)
//!
//! | code | meaning |
//! |------|---------|
//! | `E050` | two always-evaluated permuted Id generators in one column tree consume the same permutation-key seed path |
//! | `E051` | two always-evaluated permutation references in one column tree target the same parent column, colliding on the reference permutation-key seed path |
//! | `E052` | reference into a provably empty parent table (the closure read has no row to land on) |
//! | `E053` | per-cell draw count has no finite bound, so draw-stream equivalence cannot be proven |
//! | `E055` | serve point-lookup seed route and the bulk (hoisted) seed route disagree on a sampled cell |
//! | `E056` | lineage draw contract disagrees with the abstract interpreter's draw profile (cross-layer drift) |
//! | `W020` | per-cell draw bound exceeds the draw budget (extremely deep seed-stream consumption) |
//! | `W021` | reference closure depth of two or more: a reference targets a column that itself performs closure reads |

use crate::absint::Draws;
use crate::analyze::{Analysis, Diagnostic, Severity};
use crate::model::{GeneratorSpec, RefDistribution, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// Soft ceiling on per-cell draws: beyond this a single cell consumes so
/// much of its seed stream that generation cost is dominated by PRNG
/// mixing. Exceeding it is [`W020`](self), not an error.
pub const DRAW_BUDGET: u64 = 4096;

// ---------------------------------------------------------------------------
// DrawContract
// ---------------------------------------------------------------------------

/// Static contract of one generator (tree) over its per-cell seed stream:
/// how many values it draws, which auxiliary permutation-key seed paths it
/// consumes, and which other columns it reads through the reference
/// closure.
///
/// Contracts compose like the generator trees they describe:
/// [`DrawContract::plus`] for sequential evaluation (both run in the same
/// cell) and [`DrawContract::join`] for alternatives (at most one runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawContract {
    /// PRNG draws consumed from the cell's seed stream.
    pub draws: Draws,
    /// Always-evaluated permuted-Id consumers of the column's Id
    /// permutation key (`mix64_pair(column_seed, 0x1D)`). Two such
    /// consumers in one cell collide on that seed path.
    pub permuted_ids: u64,
    /// Always-evaluated permutation-reference consumers of the column's
    /// reference permutation key (`mix64_pair(column_seed, 0x2E)`), by
    /// `(parent table index, parent column index)` target. Two consumers
    /// with the same target in one cell collide.
    pub perm_refs: BTreeMap<(u32, u32), u64>,
    /// Columns read through the reference closure, by
    /// `(table index, column index)` — reachable reads under any
    /// evaluation condition. Closure reads consume zero draws from the
    /// child's stream: the runtime derives a fresh context at the parent's
    /// own lineage node.
    pub closure_reads: BTreeSet<(u32, u32)>,
}

impl DrawContract {
    /// Contract that draws exactly `n` values and touches nothing else.
    pub fn exact(n: u64) -> Self {
        Self::from_draws(Draws::exact(n))
    }

    /// Contract with the given draw bounds and no auxiliary consumption.
    pub fn from_draws(draws: Draws) -> Self {
        DrawContract {
            draws,
            permuted_ids: 0,
            perm_refs: BTreeMap::new(),
            closure_reads: BTreeSet::new(),
        }
    }

    /// The top element: nothing is known. Sound for any generator, but
    /// unprovable — `pdgf prove` reports it as [`E053`](self).
    pub fn unbounded() -> Self {
        Self::from_draws(Draws {
            min: 0,
            max: u64::MAX,
        })
    }

    /// True when the per-cell draw count has a finite upper bound.
    pub fn is_bounded(&self) -> bool {
        self.draws.max != u64::MAX
    }

    /// Sequential composition: both parts evaluate in the same cell, so
    /// draws add and auxiliary consumers co-occur.
    pub fn plus(mut self, other: DrawContract) -> Self {
        self.draws = self.draws.plus(other.draws);
        self.permuted_ids += other.permuted_ids;
        for (target, n) in other.perm_refs {
            *self.perm_refs.entry(target).or_insert(0) += n;
        }
        self.closure_reads.extend(other.closure_reads);
        self
    }

    /// Alternative composition: at most one part evaluates per cell, so
    /// draws join and auxiliary consumers cannot co-occur (per-path
    /// maximum, not sum). Closure reads stay reachable from either side.
    pub fn join(mut self, other: DrawContract) -> Self {
        self.draws = self.draws.join(other.draws);
        self.permuted_ids = self.permuted_ids.max(other.permuted_ids);
        for (target, n) in other.perm_refs {
            let slot = self.perm_refs.entry(target).or_insert(0);
            *slot = (*slot).max(n);
        }
        self.closure_reads.extend(other.closure_reads);
        self
    }
}

/// Render draw bounds for diagnostics: `exactly N` or `N..M`.
pub fn fmt_draws(d: Draws) -> String {
    if d.max == u64::MAX {
        format!("{}..unbounded", d.min)
    } else if d.min == d.max {
        format!("exactly {}", d.min)
    } else {
        format!("{}..{}", d.min, d.max)
    }
}

/// Compose the NULL-wrapper contract: one coin draw always happens, the
/// inner stream is consumed only when the coin picks the wrapped value.
pub fn null_wrap_contract(p: f64, inner: DrawContract) -> DrawContract {
    let coin = DrawContract::exact(1);
    if p >= 1.0 {
        // Always NULL: the inner generator never runs, but its closure
        // reads stay visible for reachability (the runtime still builds
        // the referenced generator).
        let mut out = coin;
        out.closure_reads = inner.closure_reads;
        out
    } else if p <= 0.0 {
        inner.plus(coin)
    } else {
        coin.clone().join(inner.plus(coin))
    }
}

/// Per-cell draw count of Markov text with exactly `words` words: one
/// length draw, then for a non-empty body one start draw plus exactly one
/// draw per emitted word (a transition, or a dead-end restart).
pub fn markov_draw_count(words: u32) -> u64 {
    if words == 0 {
        1
    } else {
        2 + u64::from(words)
    }
}

/// Derive the draw contract of a generator description. This is the
/// ground truth `pdgf prove` checks the abstract interpreter's draw
/// profile against (E056), and the per-cell draw counts measured by
/// `SchemaRuntime::value_counting` must stay inside it.
///
/// Unresolvable reference targets contribute no closure read — the
/// structural analyzer has already rejected them (`E010`/`E011`).
pub fn contract_of_spec(spec: &GeneratorSpec, schema: &Schema) -> DrawContract {
    match spec {
        GeneratorSpec::Id { permute } => {
            let mut c = DrawContract::exact(0);
            if *permute {
                c.permuted_ids = 1;
            }
            c
        }
        GeneratorSpec::Long { .. }
        | GeneratorSpec::Double { .. }
        | GeneratorSpec::Decimal { .. }
        | GeneratorSpec::DateRange { .. }
        | GeneratorSpec::TimestampRange { .. } => DrawContract::exact(1),
        GeneratorSpec::RandomString { min_len, max_len } => DrawContract::from_draws(Draws {
            min: 1 + u64::from(min_len.div_ceil(10)),
            max: 1 + u64::from(max_len.div_ceil(10)),
        }),
        GeneratorSpec::RandomBool { true_prob } => {
            // `next_bool` short-circuits degenerate probabilities without
            // touching the stream.
            DrawContract::exact(u64::from(*true_prob > 0.0 && *true_prob < 1.0))
        }
        GeneratorSpec::Dict { .. } => DrawContract::exact(1),
        GeneratorSpec::DictByRow { .. } => DrawContract::exact(0),
        GeneratorSpec::Markov {
            min_words,
            max_words,
            ..
        } => DrawContract::from_draws(Draws {
            min: markov_draw_count(*min_words),
            max: markov_draw_count(*max_words),
        }),
        GeneratorSpec::Reference {
            table,
            field,
            distribution,
        } => {
            let target = schema.table_index(table).and_then(|ti| {
                schema.tables[ti]
                    .field_index(field)
                    .map(|fi| (ti as u32, fi as u32))
            });
            let mut c = match distribution {
                RefDistribution::Permutation => DrawContract::exact(0),
                RefDistribution::Uniform | RefDistribution::Zipf { .. } => DrawContract::exact(1),
            };
            if let Some(tc) = target {
                c.closure_reads.insert(tc);
                if *distribution == RefDistribution::Permutation {
                    c.perm_refs.insert(tc, 1);
                }
            }
            c
        }
        GeneratorSpec::Null { probability, inner } => {
            null_wrap_contract(*probability, contract_of_spec(inner, schema))
        }
        GeneratorSpec::Static { .. } | GeneratorSpec::Formula { .. } => DrawContract::exact(0),
        GeneratorSpec::Sequential { parts, .. } => parts
            .iter()
            .map(|p| contract_of_spec(p, schema))
            .fold(DrawContract::exact(0), DrawContract::plus),
        GeneratorSpec::Probability { branches } => {
            // One draw selects the branch, then the branch draws.
            let joined = branches
                .iter()
                .map(|(_, g)| contract_of_spec(g, schema))
                .reduce(DrawContract::join)
                .unwrap_or_else(|| DrawContract::exact(0));
            DrawContract::exact(1).plus(joined)
        }
        GeneratorSpec::HistogramNumeric { .. } => DrawContract::exact(2),
    }
}

// ---------------------------------------------------------------------------
// Lineage graph
// ---------------------------------------------------------------------------

/// One column's node in the seed-derivation graph.
#[derive(Debug, Clone)]
pub struct ColumnLineage {
    /// Owning table name.
    pub table: String,
    /// Field name.
    pub field: String,
    /// Symbolic derivation of the per-cell seed, shared by every consumer
    /// (row engine, columnar kernels via the hoisted `update_seed`, and
    /// serve point lookups).
    pub path: String,
    /// Auxiliary permutation-key seed paths consumed by this column tree.
    pub aux: Vec<String>,
    /// Reference-closure reads as `table.field` names.
    pub reads: Vec<String>,
    /// The spec-derived draw contract.
    pub contract: DrawContract,
}

/// The project → table → column → update → cell seed-derivation graph.
#[derive(Debug, Clone, Default)]
pub struct LineageGraph {
    /// Derivation of the root seed from the project seed.
    pub root: String,
    /// One node per column, tables in generation order.
    pub columns: Vec<ColumnLineage>,
}

/// Result of the static lineage pass.
#[derive(Debug, Clone, Default)]
pub struct LineageReport {
    /// The derivation graph (empty when the structural analysis failed).
    pub graph: LineageGraph,
    /// Findings from the lineage checks (E050–E053, W020–W021).
    pub diagnostics: Vec<Diagnostic>,
}

fn diag(
    code: &'static str,
    severity: Severity,
    table: &str,
    field: &str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code,
        severity,
        table: Some(table.to_string()),
        field: Some(field.to_string()),
        message,
    }
}

/// Run the seed-lineage pass over `schema`. Requires the structural
/// [`Analysis`]: when that already has errors the pass bails out with an
/// empty graph, since table sizes and reference targets are unreliable.
pub fn analyze_lineage(schema: &Schema, analysis: &Analysis) -> LineageReport {
    if analysis.has_errors() {
        return LineageReport::default();
    }
    let sizes: Vec<Option<u64>> = schema
        .tables
        .iter()
        .map(|t| schema.table_size(t).ok())
        .collect();
    let mut diagnostics = Vec::new();
    let mut contracts: BTreeMap<(u32, u32), DrawContract> = BTreeMap::new();
    let mut columns = Vec::new();

    for &ti in &analysis.generation_order {
        let table = &schema.tables[ti as usize];
        for (fi, f) in table.fields.iter().enumerate() {
            let c = contract_of_spec(&f.generator, schema);
            let loc = format!("{}.{}", table.name, f.name);
            if c.permuted_ids >= 2 {
                diagnostics.push(diag(
                    "E050",
                    Severity::Error,
                    &table.name,
                    &f.name,
                    format!(
                        "{} permuted Id generators in the column tree of {loc} all derive \
                         from the same permutation-key seed path mix64_pair(column_seed, 0x1D) \
                         and emit identical key streams",
                        c.permuted_ids
                    ),
                ));
            }
            for (&(pt, pf), &n) in &c.perm_refs {
                if n >= 2 {
                    let target = &schema.tables[pt as usize];
                    diagnostics.push(diag(
                        "E051",
                        Severity::Error,
                        &table.name,
                        &f.name,
                        format!(
                            "{n} permutation references in the column tree of {loc} target \
                             {}.{} and all derive from the same permutation-key seed path \
                             mix64_pair(column_seed, 0x2E)",
                            target.name, target.fields[pf as usize].name
                        ),
                    ));
                }
            }
            for &(pt, pf) in &c.closure_reads {
                if sizes[pt as usize] == Some(0) {
                    let target = &schema.tables[pt as usize];
                    diagnostics.push(diag(
                        "E052",
                        Severity::Error,
                        &table.name,
                        &f.name,
                        format!(
                            "{loc} references {}.{} but table {} has zero rows at the \
                             current scale — the closure read has no row to land on",
                            target.name, target.fields[pf as usize].name, target.name
                        ),
                    ));
                }
            }
            if !c.is_bounded() {
                diagnostics.push(unbounded_contract(&table.name, &f.name));
            } else if c.draws.max > DRAW_BUDGET {
                diagnostics.push(diag(
                    "W020",
                    Severity::Warning,
                    &table.name,
                    &f.name,
                    format!(
                        "{loc} may draw up to {} values per cell, exceeding the draw \
                         budget of {DRAW_BUDGET}",
                        c.draws.max
                    ),
                ));
            }
            contracts.insert((ti, fi as u32), c);
        }
    }

    // Closure depth: a reference that targets a column which itself reads
    // through the closure re-enters generation one level deeper; flag
    // chains so the cost is visible.
    for (&(ti, fi), c) in &contracts {
        for &(pt, pf) in &c.closure_reads {
            let parent = &contracts[&(pt, pf)];
            if !parent.closure_reads.is_empty() {
                let table = &schema.tables[ti as usize];
                let target = &schema.tables[pt as usize];
                let grand = parent
                    .closure_reads
                    .iter()
                    .map(|&(gt, gf)| {
                        let g = &schema.tables[gt as usize];
                        format!("{}.{}", g.name, g.fields[gf as usize].name)
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                diagnostics.push(diag(
                    "W021",
                    Severity::Warning,
                    &table.name,
                    &table.fields[fi as usize].name,
                    format!(
                        "reference closure depth >= 2: {}.{} reads {}.{}, which itself \
                         reads {grand} — every cell pays the whole chain",
                        table.name,
                        table.fields[fi as usize].name,
                        target.name,
                        target.fields[pf as usize].name
                    ),
                ));
            }
        }
    }

    for &ti in &analysis.generation_order {
        let table = &schema.tables[ti as usize];
        for (fi, f) in table.fields.iter().enumerate() {
            let c = contracts[&(ti, fi as u32)].clone();
            let mut aux = Vec::new();
            if c.permuted_ids > 0 {
                aux.push(format!(
                    "mix64_pair(column[{fi}], 0x1D) -> id permutation key"
                ));
            }
            for &(pt, pf) in c.perm_refs.keys() {
                let target = &schema.tables[pt as usize];
                aux.push(format!(
                    "mix64_pair(column[{fi}], 0x2E) -> reference permutation key ({}.{})",
                    target.name, target.fields[pf as usize].name
                ));
            }
            let reads = c
                .closure_reads
                .iter()
                .map(|&(pt, pf)| {
                    let target = &schema.tables[pt as usize];
                    format!("{}.{}", target.name, target.fields[pf as usize].name)
                })
                .collect();
            columns.push(ColumnLineage {
                table: table.name.clone(),
                field: f.name.clone(),
                path: format!(
                    "mix64_pair(mix64_pair(mix64_pair(mix64_pair(root, {ti}), {fi}), update), row)"
                ),
                aux,
                reads,
                contract: c,
            });
        }
    }

    LineageReport {
        graph: LineageGraph {
            root: "mix64(project_seed)".to_string(),
            columns,
        },
        diagnostics,
    }
}

// ---------------------------------------------------------------------------
// Prove-time diagnostic constructors (E053, E055, E056)
// ---------------------------------------------------------------------------

/// [`E053`](self): a contract with no finite draw bound — equivalence of
/// the row and columnar engines cannot be proven for this column.
pub fn unbounded_contract(table: &str, field: &str) -> Diagnostic {
    diag(
        "E053",
        Severity::Error,
        table,
        field,
        format!(
            "{table}.{field} has no finite per-cell draw bound; draw-stream \
             equivalence of the row and columnar engines cannot be proven"
        ),
    )
}

/// [`E055`](self): the serve point-lookup seed route
/// (`field_seed(table, column, update, row)`) and the bulk hoisted route
/// (`mix64_pair(update_seed(table, column, update), row)`) disagree.
pub fn serve_divergence(table: &str, field: &str, update: u32, row: u64) -> Diagnostic {
    diag(
        "E055",
        Severity::Error,
        table,
        field,
        format!(
            "{table}.{field}: serve point-lookup seed route diverges from the bulk \
             hoisted route at update {update}, row {row} — point lookups would \
             return different bytes than bulk generation"
        ),
    )
}

/// [`E056`](self): the lineage contract and the abstract interpreter
/// disagree about per-cell draws — two static layers have drifted apart.
pub fn absint_drift(table: &str, field: &str, contract: Draws, profile: Draws) -> Diagnostic {
    diag(
        "E056",
        Severity::Error,
        table,
        field,
        format!(
            "{table}.{field}: lineage contract proves {} draws per cell but the \
             abstract interpreter profiles {} — the static layers disagree",
            fmt_draws(contract),
            fmt_draws(profile)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DictSource, Field, MarkovSource, Table};
    use crate::types::SqlType;
    use crate::value::Value;

    fn schema_with(gen: GeneratorSpec) -> Schema {
        Schema::new("t", 7)
            .table(Table::new("parent", "50").field(
                Field::new("pk", SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary(),
            ))
            .table(
                Table::new("child", "500")
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new("x", SqlType::Varchar(64), gen)),
            )
    }

    fn lineage_codes(s: &Schema) -> Vec<&'static str> {
        let analysis = s.analyze();
        assert!(!analysis.has_errors(), "{:?}", analysis.first_error());
        analyze_lineage(s, &analysis)
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    fn reference(dist: RefDistribution) -> GeneratorSpec {
        GeneratorSpec::Reference {
            table: "parent".to_string(),
            field: "pk".to_string(),
            distribution: dist,
        }
    }

    #[test]
    fn simple_contracts_match_runtime_draws() {
        let s = schema_with(GeneratorSpec::Static { value: Value::Null });
        let exact = |spec: &GeneratorSpec| contract_of_spec(spec, &s).draws;
        assert_eq!(exact(&GeneratorSpec::Id { permute: true }), Draws::exact(0));
        assert_eq!(
            exact(&GeneratorSpec::Long {
                min: crate::Expr::parse("1").unwrap(),
                max: crate::Expr::parse("1").unwrap(),
            }),
            Draws::exact(1),
            "degenerate ranges still draw"
        );
        assert_eq!(
            exact(&GeneratorSpec::RandomBool { true_prob: 1.0 }),
            Draws::exact(0),
            "next_bool short-circuits certainty"
        );
        assert_eq!(
            exact(&GeneratorSpec::RandomBool { true_prob: 0.5 }),
            Draws::exact(1)
        );
        assert_eq!(
            exact(&GeneratorSpec::RandomString {
                min_len: 5,
                max_len: 25
            }),
            Draws { min: 2, max: 4 }
        );
        assert_eq!(
            exact(&GeneratorSpec::Markov {
                source: MarkovSource::File("m.bin".to_string()),
                min_words: 0,
                max_words: 3,
            }),
            Draws { min: 1, max: 5 },
            "length draw, then start + one per word"
        );
        assert_eq!(
            exact(&GeneratorSpec::DictByRow {
                source: DictSource::File("d.dict".to_string())
            }),
            Draws::exact(0)
        );
        assert_eq!(
            exact(&GeneratorSpec::HistogramNumeric {
                bounds: vec![0.0, 1.0],
                weights: vec![1.0],
                output: crate::model::HistogramOutput::Long,
            }),
            Draws::exact(2)
        );
    }

    #[test]
    fn null_wrap_contract_short_circuits() {
        let inner = DrawContract::exact(3);
        assert_eq!(
            null_wrap_contract(0.0, inner.clone()).draws,
            Draws::exact(4)
        );
        assert_eq!(
            null_wrap_contract(1.0, inner.clone()).draws,
            Draws::exact(1)
        );
        assert_eq!(
            null_wrap_contract(0.5, inner).draws,
            Draws { min: 1, max: 4 }
        );
    }

    #[test]
    fn probability_adds_selector_draw_and_joins_branches() {
        let s = schema_with(GeneratorSpec::Static { value: Value::Null });
        let spec = GeneratorSpec::Probability {
            branches: vec![
                (0.5, GeneratorSpec::Static { value: Value::Null }),
                (
                    0.5,
                    GeneratorSpec::RandomString {
                        min_len: 10,
                        max_len: 10,
                    },
                ),
            ],
        };
        assert_eq!(contract_of_spec(&spec, &s).draws, Draws { min: 1, max: 3 });
    }

    #[test]
    fn duplicate_permuted_ids_collide() {
        let seq = GeneratorSpec::Sequential {
            parts: vec![
                GeneratorSpec::Id { permute: true },
                GeneratorSpec::Id { permute: true },
            ],
            separator: "-".to_string(),
        };
        assert!(lineage_codes(&schema_with(seq)).contains(&"E050"));
    }

    #[test]
    fn conditional_permuted_ids_do_not_collide() {
        // Mutually exclusive branches can never co-occur in one cell.
        let prob = GeneratorSpec::Probability {
            branches: vec![
                (0.5, GeneratorSpec::Id { permute: true }),
                (0.5, GeneratorSpec::Id { permute: true }),
            ],
        };
        assert!(!lineage_codes(&schema_with(prob)).contains(&"E050"));
    }

    #[test]
    fn duplicate_permutation_references_collide() {
        let seq = GeneratorSpec::Sequential {
            parts: vec![
                reference(RefDistribution::Permutation),
                reference(RefDistribution::Permutation),
            ],
            separator: "-".to_string(),
        };
        assert!(lineage_codes(&schema_with(seq)).contains(&"E051"));
        // Uniform references draw independent values — no collision.
        let seq = GeneratorSpec::Sequential {
            parts: vec![
                reference(RefDistribution::Uniform),
                reference(RefDistribution::Uniform),
            ],
            separator: "-".to_string(),
        };
        assert!(!lineage_codes(&schema_with(seq)).contains(&"E051"));
    }

    #[test]
    fn reference_into_empty_table_is_flagged() {
        let mut s = schema_with(reference(RefDistribution::Uniform));
        s.tables[0].size = crate::Expr::parse("0").unwrap();
        assert!(lineage_codes(&s).contains(&"E052"));
    }

    #[test]
    fn draw_budget_overflow_warns() {
        let s = schema_with(GeneratorSpec::Markov {
            source: MarkovSource::File("m.bin".to_string()),
            min_words: 1,
            max_words: 8000,
        });
        assert!(lineage_codes(&s).contains(&"W020"));
    }

    #[test]
    fn closure_depth_two_warns() {
        let s = Schema::new("deep", 7)
            .table(Table::new("a", "10").field(
                Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary(),
            ))
            .table(
                Table::new("b", "10")
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new(
                        "fk",
                        SqlType::BigInt,
                        GeneratorSpec::Reference {
                            table: "a".to_string(),
                            field: "id".to_string(),
                            distribution: RefDistribution::Uniform,
                        },
                    )),
            )
            .table(Table::new("c", "10").field(Field::new(
                "fkfk",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "b".to_string(),
                    field: "fk".to_string(),
                    distribution: RefDistribution::Uniform,
                },
            )));
        let codes = lineage_codes(&s);
        assert!(codes.contains(&"W021"), "{codes:?}");
    }

    #[test]
    fn clean_schema_builds_full_graph() {
        let s = schema_with(reference(RefDistribution::Permutation));
        let analysis = s.analyze();
        let report = analyze_lineage(&s, &analysis);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.graph.root, "mix64(project_seed)");
        assert_eq!(report.graph.columns.len(), 3);
        let x = report
            .graph
            .columns
            .iter()
            .find(|c| c.field == "x")
            .unwrap();
        assert_eq!(x.reads, vec!["parent.pk".to_string()]);
        assert_eq!(x.aux.len(), 1, "{:?}", x.aux);
        assert!(x.path.contains("update"), "{}", x.path);
    }

    #[test]
    fn bailout_on_structural_errors() {
        let mut s = schema_with(reference(RefDistribution::Uniform));
        s.tables[1].fields[1].generator = GeneratorSpec::Reference {
            table: "nope".to_string(),
            field: "x".to_string(),
            distribution: RefDistribution::Uniform,
        };
        let analysis = s.analyze();
        assert!(analysis.has_errors());
        let report = analyze_lineage(&s, &analysis);
        assert!(report.diagnostics.is_empty());
        assert!(report.graph.columns.is_empty());
    }

    #[test]
    fn prove_time_constructors_carry_pinned_codes() {
        assert_eq!(unbounded_contract("t", "f").code, "E053");
        assert_eq!(serve_divergence("t", "f", 1, 42).code, "E055");
        assert_eq!(
            absint_drift("t", "f", Draws::exact(1), Draws::exact(2)).code,
            "E056"
        );
        assert!(!DrawContract::unbounded().is_bounded());
        assert_eq!(fmt_draws(Draws::exact(2)), "exactly 2");
        assert_eq!(fmt_draws(Draws { min: 1, max: 3 }), "1..3");
        assert_eq!(
            fmt_draws(Draws {
                min: 0,
                max: u64::MAX
            }),
            "0..unbounded"
        );
    }
}
