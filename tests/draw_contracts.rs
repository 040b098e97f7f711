//! Dynamic enforcement of the static draw contracts (`pdgf prove`'s
//! ground truth) over the full generator zoo: every generator kind's
//! actual PRNG consumption, measured through
//! [`SchemaRuntime::value_counting`], must land inside the contract
//! `lineage::contract_of_spec` derives from its schema description — per
//! cell, per update epoch. The columnar engine has no per-cell counter,
//! so its side of the proof is value identity: every batch cell must
//! equal the counted row-path cell, which pins both engines to the same
//! lineage node.

mod zoo;

use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::lineage::{contract_of_spec, fmt_draws};
use pdgf_schema::ColumnBatch;
use zoo::generator_zoo;

/// Every cell of every zoo column, across update epochs: the measured
/// draw count must fall inside the spec-derived contract. Exact
/// contracts (min == max) therefore pin consumption exactly.
#[test]
fn measured_draws_stay_inside_spec_derived_contracts() {
    let schema = generator_zoo();
    let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("zoo builds");
    for (ti, (table, spec)) in rt.tables().iter().zip(&schema.tables).enumerate() {
        for (ci, field) in spec.fields.iter().enumerate() {
            let contract = contract_of_spec(&field.generator, &schema);
            assert!(
                contract.is_bounded(),
                "{}.{}: zoo generator has no finite draw bound",
                table.name,
                field.name
            );
            let draws = contract.draws;
            for update in [0u32, 1, 2] {
                for row in 0..table.size {
                    let (_, n) = rt.value_counting(ti as u32, ci as u32, update, row);
                    assert!(
                        draws.min <= n && n <= draws.max,
                        "{}[{ci}] update={update} row={row}: measured {n} draws, \
                         contract says {}",
                        table.name,
                        fmt_draws(draws)
                    );
                }
            }
        }
    }
}

/// The columnar engine's cells must equal the counted row-path cells
/// across update epochs — with `measured_draws_stay_inside_declared_contracts`
/// this extends the contract proof to both engines: same values, same
/// lineage nodes, row-side consumption within bounds.
#[test]
fn columnar_cells_match_counted_row_cells() {
    let schema = generator_zoo();
    let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("zoo builds");
    let mut batch = ColumnBatch::new();
    let mut scratch = pdgf_gen::GenScratch::default();
    for (ti, table) in rt.tables().iter().enumerate() {
        for update in [0u32, 1, 2] {
            rt.fill_batch(ti as u32, update, 0..table.size, &mut batch, &mut scratch);
            for (ci, col) in batch.columns().iter().enumerate() {
                for row in 0..table.size {
                    let (row_value, _) = rt.value_counting(ti as u32, ci as u32, update, row);
                    assert_eq!(
                        col.value(row as usize),
                        row_value,
                        "{}[{ci}] update={update} row={row}: columnar cell \
                         diverged from counted row cell",
                        table.name
                    );
                }
            }
        }
    }
}
