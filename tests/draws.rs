//! Measured PRNG draws against the static profile: every generator kind's
//! actual consumption over the full generator zoo, counted through
//! [`SchemaRuntime::value_counting`], must land inside the draw bounds of
//! `SchemaRuntime::profiles()` — the abstract interpretation that `W020`
//! and `pdgf explain` read — per cell, per update epoch.

mod zoo;

use pdgf_gen::{MapResolver, SchemaRuntime};
use zoo::generator_zoo;

/// Every cell of every zoo column, across update epochs: the measured
/// draw count must fall inside the profiled bounds. Exact bounds
/// (min == max) therefore pin consumption exactly.
#[test]
fn measured_draws_stay_inside_profiled_bounds() {
    let rt = SchemaRuntime::build(&generator_zoo(), &MapResolver::new()).expect("zoo builds");
    let profiles = rt.profiles();
    for (ti, table) in rt.tables().iter().enumerate() {
        for (ci, column) in table.columns.iter().enumerate() {
            let draws = profiles[ti][ci].draws;
            assert_ne!(
                draws.max,
                u64::MAX,
                "{}.{}: zoo generator has no finite draw bound",
                table.name,
                column.name
            );
            for update in [0u32, 1, 2] {
                for row in 0..table.size {
                    let (_, n) = rt.value_counting(ti as u32, ci as u32, update, row);
                    assert!(
                        draws.min <= n && n <= draws.max,
                        "{}.{} update={update} row={row}: measured {n} draws, \
                         profile says {}..={}",
                        table.name,
                        column.name,
                        draws.min,
                        draws.max
                    );
                }
            }
        }
    }
}
