//! Ablation A2 — the seed-cache design choice.
//!
//! Paper (Section 2): "Although the seeding hierarchy and meta generator
//! stacking seems expensive, most of the seeds can be cached and the cost
//! for generating single values is very low."
//!
//! We measure field-seed derivation with the cached [`SeedTree`] against
//! recomputing the whole chain from the project seed, and the end-to-end
//! effect on a TPC-H lineitem row.

use std::hint::black_box;

use bench::{banner, ns_row};
use pdgf_prng::{FieldCoord, SeedTree};
use workloads::tpch;

fn seed_paths() {
    let tree = SeedTree::new(12_456_789, &[16, 8, 4, 4, 9, 5, 9, 16]);
    let mut row = 0u64;
    ns_row("ablation_seed_cache/cached_tree", || {
        row = row.wrapping_add(1);
        black_box(tree.field_seed(FieldCoord {
            table: 7,
            column: (row % 16) as u32,
            update: 0,
            row,
        }));
    });
    let mut row2 = 0u64;
    ns_row("ablation_seed_cache/uncached_full_chain", || {
        row2 = row2.wrapping_add(1);
        black_box(SeedTree::field_seed_uncached(
            12_456_789,
            FieldCoord {
                table: 7,
                column: (row2 % 16) as u32,
                update: 0,
                row: row2,
            },
        ));
    });
}

fn row_generation() {
    let project = tpch::project(0.001)
        .workers(0)
        .build()
        .expect("tpch builds");
    let rt = project.runtime();
    let (li_idx, li) = rt.table_by_name("lineitem").expect("lineitem exists");
    let size = li.size;
    let mut row = 0u64;
    let mut buf = Vec::new();
    ns_row("ablation_seed_cache/lineitem_full_row", || {
        row = (row + 1) % size;
        rt.row_into(li_idx, 0, black_box(row), &mut buf);
        black_box(buf.len());
    });
}

fn main() {
    banner(
        "Ablation A2: cached seed tree vs recomputing the seed chain (ns/value)",
        "most of the seeds can be cached and the cost for generating single values is very low",
    );
    seed_paths();
    row_generation();
}
