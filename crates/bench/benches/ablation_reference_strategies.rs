//! Ablation A3 — cost of the reference-selection strategies.
//!
//! PDGF's reference generator supports three parent-selection strategies
//! (uniform draw, keyed Feistel permutation, Zipf skew). All three
//! recompute the parent cell afterwards, so this bench isolates the
//! *selection* overhead each adds on top of a baseline ID column —
//! quantifying that consistent references stay cheap regardless of the
//! distribution DBSynth or a skewed benchmark (e.g. the Star Schema
//! Benchmark skew variants) asks for.
//!
//! The permutation strategy runs twice: into a 100k-row parent, whose
//! Feistel rounds come from a precomputed table, and into a 2^25-row
//! parent, past the table's cap, where every round runs the mix.

use std::hint::black_box;

use bench::{banner, ns_row};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::model::RefDistribution;
use pdgf_schema::{Field, GeneratorSpec, Schema, SqlType, Table};

fn runtime_with(dist: Option<RefDistribution>, parent_rows: u64) -> SchemaRuntime {
    let child_gen = match dist {
        None => GeneratorSpec::Id { permute: false },
        Some(distribution) => GeneratorSpec::Reference {
            table: "parent".into(),
            field: "p_id".into(),
            distribution,
        },
    };
    let schema = Schema::new("refbench", 12_456_789)
        .table(
            Table::new("parent", &parent_rows.to_string()).field(
                Field::new(
                    "p_id",
                    SqlType::BigInt,
                    GeneratorSpec::Id { permute: false },
                )
                .primary(),
            ),
        )
        .table(Table::new("child", "1000000000").field(Field::new(
            "c_ref",
            SqlType::BigInt,
            child_gen,
        )));
    SchemaRuntime::build(&schema, &MapResolver::new()).expect("bench model builds")
}

fn bench_strategy(name: &str, rt: &SchemaRuntime) {
    let mut row = 0u64;
    ns_row(name, || {
        row = row.wrapping_add(1);
        black_box(rt.value(1, 0, 0, black_box(row)));
    });
}

fn main() {
    banner(
        "Ablation A3: cost of the reference-selection strategies (ns/value)",
        "references are recomputed, not tracked, so every strategy stays cheap",
    );
    const PARENT: u64 = 100_000;
    bench_strategy(
        "ablation_ref/baseline_id_no_reference",
        &runtime_with(None, PARENT),
    );
    bench_strategy(
        "ablation_ref/uniform",
        &runtime_with(Some(RefDistribution::Uniform), PARENT),
    );
    bench_strategy(
        "ablation_ref/permutation",
        &runtime_with(Some(RefDistribution::Permutation), PARENT),
    );
    bench_strategy(
        "ablation_ref/permutation_2pow25",
        &runtime_with(Some(RefDistribution::Permutation), 1 << 25),
    );
    bench_strategy(
        "ablation_ref/zipf_0_8",
        &runtime_with(Some(RefDistribution::Zipf { theta: 0.8 }), PARENT),
    );
}
