//! Reference generators: consistent foreign keys by *recomputation*.
//!
//! PDGF's defining design choice (Section 6 groups generators into "no
//! reference generation", "reference tracking", and "reference
//! computation"): instead of re-reading previously generated data — which
//! the paper measures at ~10 ms per random disk read versus ≤2 µs to
//! compute even a complex value, a ~5000× difference — a reference
//! generator derives the referenced *row number* from its own stream and
//! recomputes that cell through the schema runtime.

use std::ops::Range;

use pdgf_prng::{FeistelPermutation, PdgfDefaultRandom, PdgfRng, Zipf};
use pdgf_schema::ColumnVec;

use crate::generator::{Cell, CellOut, ColumnCtx, Emit, Fill, GenScratch, Generator, Longs};
use crate::runtime::SchemaRuntime;

/// How the parent row is chosen.
pub enum RefStrategy {
    /// Uniform over all parent rows.
    Uniform,
    /// Zipf-skewed: low parent row numbers are referenced most.
    Zipf(Zipf),
    /// Bijective: child row `i` maps to parent `perm(i mod parent_size)`,
    /// so fan-in differs by at most one across parents.
    Permutation(FeistelPermutation),
}

/// Generates values of another table's column for consistent references.
pub struct ReferenceGenerator {
    target_table: u32,
    target_column: u32,
    parent_size: u64,
    strategy: RefStrategy,
}

impl ReferenceGenerator {
    /// Reference into `target_table.target_column`, which has
    /// `parent_size` rows.
    pub fn new(
        target_table: u32,
        target_column: u32,
        parent_size: u64,
        strategy: RefStrategy,
    ) -> Self {
        assert!(parent_size > 0, "cannot reference an empty table");
        Self {
            target_table,
            target_column,
            parent_size,
            strategy,
        }
    }

    /// The parent row child `row` references, drawn from the child cell's
    /// stream `rng` (permutations draw nothing) — the kernel both paths
    /// share.
    #[inline]
    pub fn parent_row(&self, rng: &mut PdgfDefaultRandom, row: u64) -> u64 {
        match &self.strategy {
            RefStrategy::Uniform => rng.next_bounded(self.parent_size),
            RefStrategy::Zipf(z) => z.sample_rank(&mut || rng.next_u64()) - 1,
            RefStrategy::Permutation(p) => p.permute(row % self.parent_size),
        }
    }

    /// The referenced column's generator.
    fn parent<'rt>(&self, runtime: &'rt SchemaRuntime) -> &'rt dyn Generator {
        runtime.tables()[self.target_table as usize].columns[self.target_column as usize]
            .generator
            .as_ref()
    }
}

impl Generator for ReferenceGenerator {
    /// Foreign keys into an Id column — the TPC-H shape — need no parent
    /// RNG at all: the parent's pure row→key map recomputes the key, and
    /// the column stays a typed Long vector end to end. Any other parent
    /// is recomputed cell by cell through [`emit_cell`](Self::emit_cell).
    fn fill_column(
        &self,
        ctx: &ColumnCtx<'_>,
        rows: Range<u64>,
        out: &mut ColumnVec,
        _scratch: &mut GenScratch,
    ) {
        if let Some(id) = self.parent(ctx.runtime).as_id() {
            let fill = Fill { ctx, rows, out };
            return fill.typed(Longs, |rng, row| id.key_for(self.parent_row(rng, row)));
        }
        out.clear();
        for row in rows {
            self.emit_cell(Cell {
                rng: &mut ctx.cell_rng(row),
                row,
                runtime: ctx.runtime,
                out: CellOut::Column(&mut *out),
            });
        }
    }

    /// The parent cell recomputed through the parent's own entry point,
    /// from the parent column's cell RNG: a pure function of coordinates,
    /// with no reads of generated data and no cross-thread coordination.
    /// References always target the parent's initial load (update 0), so
    /// each cell is bit-identical to
    /// `runtime.value(target_table, target_column, 0, parent_row)`.
    fn emit_cell(&self, cell: Cell<'_, '_>) {
        let Cell {
            rng,
            row,
            runtime,
            out,
        } = cell;
        let parent_row = self.parent_row(rng, row);
        let tree = runtime.seed_tree();
        // audit:allow(seed-discipline) declared reference closure: the
        // parent column's own seed, pinned by tests/fingerprints.rs
        let update_seed = tree.update_seed(self.target_table, self.target_column, 0);
        let parent = ColumnCtx {
            runtime,
            update_seed,
            width_hint: None,
        };
        self.parent(runtime).emit_cell(Cell {
            rng: &mut parent.cell_rng(parent_row),
            row: parent_row,
            runtime,
            out,
        });
    }

    fn name(&self) -> &'static str {
        "DefaultReferenceGenerator"
    }
}

#[cfg(test)]
mod tests {
    use pdgf_schema::{ColumnBatch, Field, GeneratorSpec, Schema, SqlType, Table};

    use crate::generator::GenScratch;
    use crate::resolver::MapResolver;
    use crate::runtime::SchemaRuntime;

    /// parent(p_id ID) <- child(c_ref REF(parent.p_id)).
    fn two_table_runtime(dist: &str) -> SchemaRuntime {
        let dist_spec = match dist {
            "uniform" => pdgf_schema::model::RefDistribution::Uniform,
            "permutation" => pdgf_schema::model::RefDistribution::Permutation,
            _ => pdgf_schema::model::RefDistribution::Zipf { theta: 0.7 },
        };
        let schema = Schema::new("reftest", 99)
            .table(
                Table::new("parent", "50").field(
                    Field::new(
                        "p_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                ),
            )
            .table(Table::new("child", "500").field(Field::new(
                "c_ref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "parent".into(),
                    field: "p_id".into(),
                    distribution: dist_spec,
                },
            )));
        SchemaRuntime::build(&schema, &MapResolver::default()).unwrap()
    }

    #[test]
    fn references_land_on_existing_parent_keys() {
        let rt = two_table_runtime("uniform");
        for row in 0..500u64 {
            let v = rt.value(1, 0, 0, row);
            let id = v.as_i64().unwrap();
            assert!((1..=50).contains(&id), "dangling reference {id}");
        }
    }

    #[test]
    fn uniform_references_cover_all_parents() {
        let rt = two_table_runtime("uniform");
        let mut seen = std::collections::HashSet::new();
        for row in 0..500u64 {
            seen.insert(rt.value(1, 0, 0, row).as_i64().unwrap());
        }
        assert!(
            seen.len() >= 45,
            "only {} of 50 parents referenced",
            seen.len()
        );
    }

    #[test]
    fn permutation_references_balance_fan_in() {
        let rt = two_table_runtime("permutation");
        let mut counts = std::collections::HashMap::new();
        for row in 0..500u64 {
            *counts
                .entry(rt.value(1, 0, 0, row).as_i64().unwrap())
                .or_insert(0u32) += 1;
        }
        // 500 children over 50 parents via a bijection per cycle: each
        // parent referenced exactly 10 times.
        assert_eq!(counts.len(), 50);
        assert!(counts.values().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn zipf_references_are_skewed() {
        let rt = two_table_runtime("zipf");
        let mut counts = std::collections::HashMap::new();
        for row in 0..2000u64 {
            *counts
                .entry(rt.value(1, 0, 0, row).as_i64().unwrap())
                .or_insert(0u32) += 1;
        }
        let top = counts.get(&1).copied().unwrap_or(0);
        let avg = 2000 / 50;
        assert!(top as u64 > 3 * avg, "rank-1 parent not hot: {top}");
    }

    #[test]
    fn references_are_deterministic() {
        let a = two_table_runtime("uniform");
        let b = two_table_runtime("uniform");
        for row in 0..200u64 {
            assert_eq!(a.value(1, 0, 0, row), b.value(1, 0, 0, row));
        }
    }

    /// References to a text parent and, inside a concatenation, to a text
    /// and a number column — both declared narrow, so both carry the
    /// truncate wrapper, which cuts only the text — fill exactly what point
    /// reads return, with the plain reference in a text arena.
    #[test]
    fn references_to_non_id_parents_fill_like_point_reads() {
        let reference = |field: &str| GeneratorSpec::Reference {
            table: "parent".into(),
            field: field.into(),
            distribution: pdgf_schema::model::RefDistribution::Uniform,
        };
        let schema = Schema::new("reftext", 7)
            .table(
                Table::new("parent", "40")
                    .field(Field::new(
                        "p_name",
                        SqlType::Varchar(6),
                        GeneratorSpec::RandomString {
                            min_len: 1,
                            max_len: 12,
                        },
                    ))
                    .field(Field::new(
                        "p_code",
                        SqlType::Varchar(3),
                        GeneratorSpec::Long {
                            min: pdgf_schema::Expr::parse("10000").unwrap(),
                            max: pdgf_schema::Expr::parse("99999").unwrap(),
                        },
                    )),
            )
            .table(
                Table::new("child", "300")
                    .field(Field::new(
                        "c_name",
                        SqlType::Varchar(6),
                        reference("p_name"),
                    ))
                    .field(Field::new(
                        "c_pair",
                        SqlType::Varchar(40),
                        GeneratorSpec::Sequential {
                            parts: vec![reference("p_name"), reference("p_code")],
                            separator: "-".into(),
                        },
                    )),
            );
        let rt = SchemaRuntime::build(&schema, &MapResolver::default()).unwrap();
        let mut batch = ColumnBatch::new();
        rt.fill_batch(1, 0, 0..300, &mut batch, &mut GenScratch::default());
        for (c, column) in batch.columns().iter().enumerate() {
            for row in 0..300u64 {
                assert_eq!(
                    column.value(row as usize),
                    rt.value(1, c as u32, 0, row),
                    "column {c} row {row}"
                );
            }
        }
        assert!(batch.columns()[0].as_text().is_some());
        let pair = rt.value(1, 1, 0, 0).to_string();
        let code = pair.rsplit('-').next().unwrap();
        assert_eq!(code.len(), 5, "a number is never cut: {pair}");
    }
}
