//! Update-stream generation with the update black box — the PDGF feature
//! behind the TPC-DI data generator (the paper: PDGF "is the basis for
//! the data generator of the new industry standard ETL benchmark
//! TPC-DI"), exercised as a streaming scenario: an initial load followed
//! by deterministic insert/update/delete batches per abstract time unit.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```

use dbsynth_suite::pdgf::gen::{MapResolver, SchemaRuntime};
use dbsynth_suite::pdgf::runtime::{UpdateBlackBox, UpdateConfig, UpdateOp};
use dbsynth_suite::pdgf::schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

fn main() {
    // An account-balance table that evolves over time.
    let schema = Schema::new("stream", 2_718).table(
        Table::new("accounts", "1000")
            .field(
                Field::new(
                    "a_id",
                    SqlType::BigInt,
                    GeneratorSpec::Id { permute: false },
                )
                .primary(),
            )
            .field(Field::new(
                "a_balance",
                SqlType::Decimal(12, 2),
                GeneratorSpec::Decimal {
                    min: Expr::parse("0").expect("literal"),
                    max: Expr::parse("1000000").expect("literal"),
                    scale: 2,
                },
            )),
    );
    let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("model validates");

    // Initial load: epoch 0.
    let mut live: std::collections::BTreeMap<u64, Vec<dbsynth_suite::pdgf::schema::Value>> =
        (0..).zip(rt.rows(0, 0, 0..rt.tables()[0].size)).collect();
    println!("initial load: {} accounts", live.len());

    // Stream five epochs of changes: 5% inserts, 5% updates, 1% deletes.
    let bb = UpdateBlackBox::new(0, UpdateConfig::default());
    for epoch in 1..=5 {
        let batch = bb.batch(&rt, epoch);
        let (mut ins, mut upd, mut del) = (0, 0, 0);
        for op in &batch.ops {
            match op {
                UpdateOp::Insert { row, values } => {
                    live.insert(*row, values.clone());
                    ins += 1;
                }
                UpdateOp::Update { row, values } => {
                    if live.contains_key(row) {
                        live.insert(*row, values.clone());
                    }
                    upd += 1;
                }
                UpdateOp::Delete { row } => {
                    live.remove(row);
                    del += 1;
                }
            }
        }
        println!(
            "epoch {epoch}: +{ins} inserts ~{upd} updates -{del} deletes → {} live rows \
             (high water {})",
            live.len(),
            batch.high_water
        );
    }

    // Replayability: regenerating epoch 3 gives the identical batch — a
    // consumer can recover any point of the stream without state.
    let replay = bb.batch(&rt, 3);
    let again = bb.batch(&rt, 3);
    assert_eq!(replay, again);
    println!(
        "\nepoch 3 replays identically ✓ ({} operations, pure function of (seed, table, epoch))",
        replay.ops.len()
    );

    // Keys survive updates: pick one updated row and show its identity.
    if let Some(UpdateOp::Update { row, values }) = replay
        .ops
        .iter()
        .find(|o| matches!(o, UpdateOp::Update { .. }))
    {
        println!(
            "example: account row {row} keeps key {} while its balance becomes {}",
            values[0], values[1]
        );
    }
}
