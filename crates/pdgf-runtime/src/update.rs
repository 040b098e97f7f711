//! The update black box: deterministic data evolution over abstract time.
//!
//! PDGF's seeding hierarchy has an update level between column and row
//! (Figure 1, "Update RNG"), and update generation is one of PDGF's
//! distinguishing features over Myriad (Section 6; it is the mechanism
//! behind the TPC-DI data generator). An [`UpdateBlackBox`] turns a table
//! into a stream of per-epoch batches:
//!
//! * **inserts** — new rows appended past the current logical size,
//!   generated at the epoch's seed level;
//! * **updates** — existing rows whose non-key columns are regenerated at
//!   the epoch's seed level (so re-running any epoch reproduces it);
//! * **deletes** — existing rows removed from the logical table.
//!
//! Every batch is a pure function of `(schema seed, table, epoch)`:
//! batches can be generated out of order, on different nodes, and always
//! agree.

use pdgf_gen::SchemaRuntime;
use pdgf_output::SqlFormatter;
use pdgf_prng::{PdgfDefaultRandom, PdgfRng};
use pdgf_schema::{Value, ValueRef};

/// Fractions of the table's current logical size affected per epoch.
#[derive(Debug, Clone, Copy)]
pub struct UpdateConfig {
    /// New rows per epoch, as a fraction of the current size.
    pub insert_fraction: f64,
    /// Updated rows per epoch, as a fraction of the current size.
    pub update_fraction: f64,
    /// Deleted rows per epoch, as a fraction of the current size.
    pub delete_fraction: f64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            insert_fraction: 0.05,
            update_fraction: 0.05,
            delete_fraction: 0.01,
        }
    }
}

/// One row-level operation within a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// A new row: global row number and its values.
    Insert {
        /// Global row number of the inserted row.
        row: u64,
        /// Generated values (epoch-seeded).
        values: Vec<Value>,
    },
    /// An existing row with regenerated non-key values.
    Update {
        /// Global row number of the updated row.
        row: u64,
        /// New values for all columns; key columns keep their original
        /// (epoch-0) values so identity is stable.
        values: Vec<Value>,
    },
    /// An existing row removed from the logical table.
    Delete {
        /// Global row number of the deleted row.
        row: u64,
    },
}

/// A deterministic batch of operations for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    /// The epoch this batch belongs to (1-based; epoch 0 is the initial
    /// load).
    pub epoch: u32,
    /// Operations in application order (deletes, then updates, then
    /// inserts).
    pub ops: Vec<UpdateOp>,
    /// Logical row-number high-water mark after applying this batch.
    pub high_water: u64,
}

impl UpdateBatch {
    /// Render the batch as executable SQL DML — the change-data-capture
    /// form an ETL benchmark (TPC-DI-style) feeds to the target system.
    /// `columns` are the table's column names; `key_column` indexes the
    /// identity column used in UPDATE/DELETE predicates. Every literal is
    /// written by [`SqlFormatter::literal`], as the SQL output format
    /// writes it.
    ///
    /// Note: deletes/updates address rows by *key value*; because key
    /// columns keep their epoch-0 identity, the key of row `r` is
    /// recomputable and stable across epochs.
    pub fn to_sql(
        &self,
        table: &str,
        columns: &[String],
        key_column: usize,
        key_of: &dyn Fn(u64) -> Value,
    ) -> Vec<String> {
        let literal = |v: &Value| {
            let mut out = Vec::new();
            SqlFormatter.literal(&mut out, ValueRef::from(v));
            String::from_utf8_lossy(&out).into_owned()
        };
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                UpdateOp::Delete { row } => out.push(format!(
                    "DELETE FROM {table} WHERE {} = {}",
                    columns[key_column],
                    literal(&key_of(*row))
                )),
                UpdateOp::Update { row, values } => {
                    let sets: Vec<String> = columns
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != key_column)
                        .map(|(i, c)| format!("{c} = {}", literal(&values[i])))
                        .collect();
                    out.push(format!(
                        "UPDATE {table} SET {} WHERE {} = {}",
                        sets.join(", "),
                        columns[key_column],
                        literal(&key_of(*row))
                    ));
                }
                UpdateOp::Insert { values, .. } => {
                    let vals: Vec<String> = values.iter().map(literal).collect();
                    out.push(format!(
                        "INSERT INTO {table} ({}) VALUES ({})",
                        columns.join(", "),
                        vals.join(", ")
                    ));
                }
            }
        }
        out
    }
}

/// Generates per-epoch update batches for one table.
#[derive(Debug, Clone)]
pub struct UpdateBlackBox {
    table: u32,
    config: UpdateConfig,
}

impl UpdateBlackBox {
    /// Black box for `table` under `config`.
    pub fn new(table: u32, config: UpdateConfig) -> Self {
        Self { table, config }
    }

    /// Row-count bookkeeping: `(live_estimate, high_water)` entering
    /// `epoch`. Deterministic closed-form recursion over epochs.
    fn sizes_before(&self, rt: &SchemaRuntime, epoch: u32) -> (u64, u64) {
        let base = rt.tables()[self.table as usize].size;
        let mut live = base;
        let mut high_water = base;
        for _ in 1..epoch {
            let inserts = (live as f64 * self.config.insert_fraction).round() as u64;
            let deletes = ((live as f64 * self.config.delete_fraction).round() as u64).min(live);
            live = live + inserts - deletes;
            high_water += inserts;
        }
        (live, high_water)
    }

    /// The batch for `epoch` (>= 1). Pure in `(rt.seed, table, epoch)`.
    pub fn batch(&self, rt: &SchemaRuntime, epoch: u32) -> UpdateBatch {
        assert!(epoch >= 1, "epoch 0 is the initial load");
        let (live, high_water) = self.sizes_before(rt, epoch);
        let n_inserts = (live as f64 * self.config.insert_fraction).round() as u64;
        let n_updates = ((live as f64 * self.config.update_fraction).round() as u64).min(live);
        let n_deletes = ((live as f64 * self.config.delete_fraction).round() as u64).min(live);

        // The operation stream is seeded from the table's auxiliary seed
        // and the epoch, independent of any column stream.
        let seed = rt.seed_tree().table_aux_seed(self.table, u64::from(epoch));
        let mut rng = PdgfDefaultRandom::seed_from(seed);

        let n_cols = rt.tables()[self.table as usize].columns.len() as u32;
        let key_cols: Vec<bool> = rt.tables()[self.table as usize]
            .columns
            .iter()
            .map(|c| c.primary)
            .collect();

        let mut ops = Vec::with_capacity((n_deletes + n_updates + n_inserts) as usize);

        // Deletes: distinct existing row numbers below the high-water mark.
        // (BTreeSet, not HashSet: only membership is queried, but the
        // deterministic path stays hash-free by policy — see clippy.toml.)
        let mut deleted = std::collections::BTreeSet::new();
        while (deleted.len() as u64) < n_deletes.min(high_water) {
            let row = rng.next_bounded(high_water);
            if deleted.insert(row) {
                ops.push(UpdateOp::Delete { row });
            }
        }

        // Updates: distinct rows, not deleted this epoch, values
        // regenerated at this epoch's seed level (key columns keep their
        // epoch-0 identity).
        let mut updated = std::collections::BTreeSet::new();
        while (updated.len() as u64) < n_updates.min(high_water - deleted.len() as u64) {
            let row = rng.next_bounded(high_water);
            if deleted.contains(&row) || !updated.insert(row) {
                continue;
            }
            let values = (0..n_cols)
                .map(|c| {
                    if key_cols[c as usize] {
                        rt.value(self.table, c, 0, row)
                    } else {
                        rt.value(self.table, c, epoch, row)
                    }
                })
                .collect();
            ops.push(UpdateOp::Update { row, values });
        }

        // Inserts: fresh rows above the high-water mark, generated at the
        // epoch's seed level so each epoch's inserts are distinct data.
        let inserted = rt.rows(self.table, epoch, high_water..high_water + n_inserts);
        ops.extend(
            (high_water..)
                .zip(inserted)
                .map(|(row, values)| UpdateOp::Insert { row, values }),
        );

        UpdateBatch {
            epoch,
            ops,
            high_water: high_water + n_inserts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_gen::MapResolver;
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

    fn runtime() -> SchemaRuntime {
        let schema = Schema::new("upd", 5).table(
            Table::new("t", "1000")
                .field(
                    Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                        .primary(),
                )
                .field(Field::new(
                    "v",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("1000000").unwrap(),
                    },
                )),
        );
        SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
    }

    fn bb() -> UpdateBlackBox {
        UpdateBlackBox::new(
            0,
            UpdateConfig {
                insert_fraction: 0.10,
                update_fraction: 0.05,
                delete_fraction: 0.02,
            },
        )
    }

    #[test]
    fn batches_are_deterministic() {
        let rt = runtime();
        for epoch in 1..=3 {
            assert_eq!(bb().batch(&rt, epoch), bb().batch(&rt, epoch));
        }
    }

    #[test]
    fn epoch_one_counts_match_fractions() {
        let rt = runtime();
        let batch = bb().batch(&rt, 1);
        let inserts = batch
            .ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Insert { .. }))
            .count();
        let updates = batch
            .ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Update { .. }))
            .count();
        let deletes = batch
            .ops
            .iter()
            .filter(|o| matches!(o, UpdateOp::Delete { .. }))
            .count();
        assert_eq!(inserts, 100);
        assert_eq!(updates, 50);
        assert_eq!(deletes, 20);
        assert_eq!(batch.high_water, 1100);
    }

    #[test]
    fn inserted_rows_extend_the_id_space() {
        let rt = runtime();
        let batch = bb().batch(&rt, 1);
        for op in &batch.ops {
            if let UpdateOp::Insert { row, values } = op {
                assert!(*row >= 1000, "insert below high water");
                assert_eq!(values[0], Value::Long(*row as i64 + 1));
            }
        }
    }

    #[test]
    fn updates_keep_key_columns_stable() {
        let rt = runtime();
        let batch = bb().batch(&rt, 2);
        for op in &batch.ops {
            if let UpdateOp::Update { row, values } = op {
                // Key column regenerated at epoch 0 == original identity.
                assert_eq!(values[0], rt.value(0, 0, 0, *row));
                // Non-key column differs from the original with high
                // probability; spot-check at least one difference exists
                // across the batch below.
                let _ = &values[1];
            }
        }
        let changed = batch
            .ops
            .iter()
            .filter(|o| {
                matches!(o, UpdateOp::Update { row, values }
                    if values[1] != rt.value(0, 1, 0, *row))
            })
            .count();
        assert!(changed > 40, "updates barely change values: {changed}");
    }

    #[test]
    fn deletes_and_updates_are_disjoint() {
        let rt = runtime();
        let batch = bb().batch(&rt, 1);
        let deleted: std::collections::HashSet<u64> = batch
            .ops
            .iter()
            .filter_map(|o| match o {
                UpdateOp::Delete { row } => Some(*row),
                _ => None,
            })
            .collect();
        for op in &batch.ops {
            if let UpdateOp::Update { row, .. } = op {
                assert!(!deleted.contains(row), "row {row} deleted and updated");
            }
        }
        assert_eq!(deleted.len(), 20, "deletes must be distinct rows");
    }

    #[test]
    fn later_epochs_grow_the_high_water_mark() {
        let rt = runtime();
        let b1 = bb().batch(&rt, 1);
        let b2 = bb().batch(&rt, 2);
        let b3 = bb().batch(&rt, 3);
        assert!(b1.high_water < b2.high_water);
        assert!(b2.high_water < b3.high_water);
        // Epoch 2 inserts start exactly at epoch 1's high-water mark.
        let min_insert_row = b2
            .ops
            .iter()
            .filter_map(|o| match o {
                UpdateOp::Insert { row, .. } => Some(*row),
                _ => None,
            })
            .min()
            .unwrap();
        assert_eq!(min_insert_row, b1.high_water);
    }

    #[test]
    fn different_epochs_produce_different_batches() {
        let rt = runtime();
        assert_ne!(bb().batch(&rt, 1).ops, bb().batch(&rt, 2).ops);
    }

    #[test]
    fn batches_render_as_sql_dml() {
        let rt = runtime();
        let batch = bb().batch(&rt, 1);
        let columns = vec!["id".to_string(), "v".to_string()];
        let stmts = batch.to_sql("t", &columns, 0, &|row| rt.value(0, 0, 0, row));
        assert_eq!(stmts.len(), batch.ops.len());
        assert!(stmts
            .iter()
            .any(|s| s.starts_with("DELETE FROM t WHERE id = ")));
        assert!(stmts.iter().any(|s| s.starts_with("UPDATE t SET v = ")));
        assert!(stmts
            .iter()
            .any(|s| s.starts_with("INSERT INTO t (id, v) VALUES (")));
        // Updates never assign the key column.
        assert!(stmts
            .iter()
            .filter(|s| s.starts_with("UPDATE"))
            .all(|s| !s.contains("SET id")));
    }
}
