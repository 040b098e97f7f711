//! The determinism audit rules.
//!
//! Each rule bans a set of substrings (matched against lexer-blanked code,
//! so strings and comments cannot trip it) within a path scope. Test code
//! (`#[cfg(test)]`) is always exempt; everything else needs an explicit
//! `// audit:allow(<rule>) <reason>` escape hatch on — or on a comment
//! line directly above — the offending line.
//!
//! | rule | bans | where |
//! |------|------|-------|
//! | `hash-collections` | `HashMap`, `HashSet` | deterministic crates (prng/gen/output/runtime) |
//! | `wall-clock` | `Instant::now`, `SystemTime`, `thread_rng` | everywhere except the telemetry clock (pdgf-runtime/telemetry) and dbsynth extract/workflow |
//! | `std-fmt` | `format!`, `.to_string(`, `write!` | pdgf-output hot-path modules (formatter, fmtfast) |
//! | `unwrap` | `.unwrap()`, `.expect(` | pdgf-runtime and pdgf-output library code, the pdgf serve front ends (`serve.rs`, `serve/*`) |
//! | `columnar-cell-alloc` | `String::`, `format!`, `.to_vec()` | generator kernel modules (pdgf-gen except runtime and resolver) and pdgf-schema/column |
//! | `seed-discipline` | `.field_seed(`, `.update_seed(` | pdgf-gen generator kernels (every module but runtime) |
//! | `sync-facade` | `Mutex`, `Condvar`, `RwLock`, `PoisonError` (so `MutexGuard` too) | everywhere except the lock facade (pdgf-schema/sync) |

/// One audit rule: a named ban list with a path scope.
pub struct Rule {
    /// Stable rule id, used in diagnostics and `audit:allow(<id>)`.
    pub id: &'static str,
    /// What the rule protects, for the diagnostic message.
    pub summary: &'static str,
    /// Shown as a `help:` line under each violation.
    pub help: &'static str,
    /// Substrings banned in (blanked) non-test code.
    pub needles: &'static [&'static str],
    /// Whether the rule covers this workspace-relative path (`/`-separated).
    pub applies: fn(&str) -> bool,
}

/// Crates whose output bytes must be a pure function of (seed, position):
/// the seeding/PRNG tree, the generator stack, formatting, and the
/// scheduler. `HashMap`/`HashSet` iteration order is randomized per
/// process, so any use in these crates is a latent reproducibility bug.
fn deterministic_crate(path: &str) -> bool {
    ["pdgf-prng", "pdgf-gen", "pdgf-output", "pdgf-runtime"]
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Wall-clock reads are confined to explicitly observational code: the
/// one runtime file that defines the telemetry clock (`now_ns`, which
/// every progress, metrics, event and run-statistics value is read from)
/// and the dbsynth extraction/workflow timers. Everywhere else they
/// threaten byte-reproducibility — the figure targets of `crates/bench`
/// included, which take every timing from the `benchmark` package
/// (outside the audited workspace).
fn wall_clock_scope(path: &str) -> bool {
    !(path == "crates/pdgf-runtime/src/telemetry.rs"
        || path == "crates/dbsynth/src/extract.rs"
        || path == "crates/dbsynth/src/workflow.rs")
}

/// The zero-allocation formatting hot path: every row of every table runs
/// through these modules, so `core::fmt` machinery (which allocates and
/// defeats the byte-kernel design) is banned outright.
fn hot_fmt_module(path: &str) -> bool {
    path == "crates/pdgf-output/src/formatter.rs" || path == "crates/pdgf-output/src/fmtfast.rs"
}

/// Library code that runs inside worker threads, where a panic tears down
/// a generation run instead of returning an io::Error, and the serve
/// front ends, where it kills a connection thread instead of answering
/// with an error frame or status.
fn panic_free_scope(path: &str) -> bool {
    path.starts_with("crates/pdgf-runtime/src/")
        || path.starts_with("crates/pdgf-output/src/")
        || path == "crates/pdgf/src/serve.rs"
        || path.starts_with("crates/pdgf/src/serve/")
}

/// The generator kernels and the column storage they fill: per-cell
/// allocation (fresh `String`s, `format!` temporaries, `Vec` clones) is
/// exactly what the columnar path exists to eliminate, so these modules
/// ban the constructors outright — text lands in the `TextColumn` arena,
/// numbers in typed vectors. Every `pdgf-gen` module but the runtime
/// builder and the resource resolver holds kernels.
fn columnar_kernel_scope(path: &str) -> bool {
    (path.starts_with("crates/pdgf-gen/src/")
        && path != "crates/pdgf-gen/src/runtime.rs"
        && path != "crates/pdgf-gen/src/resolver.rs")
        || path == "crates/pdgf-schema/src/column.rs"
}

/// The generator kernels (`fill_column` and `emit_cell`
/// implementations): cell seeds must come from the runtime-provided
/// context (a `ColumnCtx`, or the RNG of a `Cell`), never re-derived from
/// the seed tree, so every route to a cell walks the one seeding hierarchy
/// that `tests/fingerprints.rs` pins. `runtime.rs` is the one sanctioned
/// derivation point and stays out of scope.
fn seed_discipline_scope(path: &str) -> bool {
    path.starts_with("crates/pdgf-gen/src/") && path != "crates/pdgf-gen/src/runtime.rs"
}

/// Locks are taken only through `pdgf_schema::sync`, whose locks are
/// leaves by construction (a nested acquisition panics in debug and loom
/// builds) and recover from poison; a raw std lock would bypass both.
fn sync_facade_scope(path: &str) -> bool {
    path != "crates/pdgf-schema/src/sync.rs"
}

/// All audit rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hash-collections",
        summary: "randomized-order collection in a deterministic crate",
        help: "use BTreeMap/BTreeSet (or a Vec) so iteration order is reproducible",
        needles: &["HashMap", "HashSet"],
        applies: deterministic_crate,
    },
    Rule {
        id: "wall-clock",
        summary: "wall-clock or OS-entropy read outside the observational allowlist",
        needles: &["Instant::now", "SystemTime", "thread_rng"],
        help: "generated bytes must be a pure function of (seed, position); \
               if this value provably never reaches output, annotate \
               `// audit:allow(wall-clock) <reason>`",
        applies: wall_clock_scope,
    },
    Rule {
        id: "std-fmt",
        summary: "std formatting machinery in a zero-allocation hot-path module",
        needles: &["format!", ".to_string(", "write!"],
        help: "use the fmtfast byte kernels; for one-time setup code annotate \
               `// audit:allow(std-fmt) <reason>`",
        applies: hot_fmt_module,
    },
    Rule {
        id: "unwrap",
        summary: "panicking unwrap/expect in worker-facing library code",
        needles: &[".unwrap()", ".expect("],
        help: "propagate an io::Error (or recover) instead; for invariants \
               that genuinely cannot fail annotate `// audit:allow(unwrap) <reason>`",
        applies: panic_free_scope,
    },
    Rule {
        id: "columnar-cell-alloc",
        summary: "per-cell allocation in a generator kernel module",
        needles: &["String::", "format!", ".to_vec()"],
        help: "write text into the TextColumn arena and numbers into typed \
               vectors; for genuinely amortized setup annotate \
               `// audit:allow(columnar-cell-alloc) <reason>`",
        applies: columnar_kernel_scope,
    },
    Rule {
        id: "seed-discipline",
        summary: "direct seed-tree derivation inside a generator kernel",
        needles: &[".field_seed(", ".update_seed("],
        help: "take the cell seed from the runtime-provided context so every \
               route to a cell derives the seed the fingerprints pin; for a \
               derivation of another column's seed (e.g. a declared reference \
               closure) annotate `// audit:allow(seed-discipline) <reason>`",
        applies: seed_discipline_scope,
    },
    Rule {
        id: "sync-facade",
        summary: "raw std lock outside the lock facade",
        needles: &["Mutex", "Condvar", "RwLock", "PoisonError"],
        help: "use `pdgf_schema::sync::{Lock, Cond}`: every lock a leaf, poison \
               recovered, waits on a predicate",
        applies: sync_facade_scope,
    },
];

/// Look up a rule by id (used to validate `audit:allow(...)` annotations).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_cover_the_intended_paths() {
        assert!(deterministic_crate("crates/pdgf-gen/src/runtime.rs"));
        assert!(!deterministic_crate("crates/dbsynth/src/extract.rs"));
        assert!(wall_clock_scope("crates/pdgf-gen/src/runtime.rs"));
        assert!(!wall_clock_scope("crates/pdgf-runtime/src/telemetry.rs"));
        assert!(wall_clock_scope("crates/pdgf-runtime/src/events.rs"));
        assert!(wall_clock_scope("crates/pdgf-runtime/src/scheduler.rs"));
        assert!(wall_clock_scope("crates/pdgf-runtime/src/driver.rs"));
        assert!(wall_clock_scope("crates/pdgf-runtime/src/package.rs"));
        assert!(wall_clock_scope("crates/pdgf/src/project.rs"));
        assert!(wall_clock_scope("crates/pdgf-runtime/src/engine.rs"));
        // The whole HTTP data plane is clock-free by design (no Date
        // header, Duration-only socket timeouts, clock-free cursors).
        assert!(wall_clock_scope("crates/pdgf/src/serve/http.rs"));
        assert!(wall_clock_scope("crates/pdgf/src/serve/cursor.rs"));
        assert!(!wall_clock_scope("crates/dbsynth/src/workflow.rs"));
        assert!(wall_clock_scope("crates/bench/src/lib.rs"));
        assert!(wall_clock_scope("crates/bench/src/bin/fig5_scaleup.rs"));
        assert!(hot_fmt_module("crates/pdgf-output/src/fmtfast.rs"));
        assert!(!hot_fmt_module("crates/pdgf-output/src/sink.rs"));
        assert!(panic_free_scope("crates/pdgf-output/src/sink.rs"));
        assert!(panic_free_scope("crates/pdgf-runtime/src/engine.rs"));
        assert!(!panic_free_scope("crates/pdgf-schema/src/model.rs"));
        for kernels in ["basic", "text", "meta", "reference", "generator"] {
            assert!(columnar_kernel_scope(&format!(
                "crates/pdgf-gen/src/{kernels}.rs"
            )));
        }
        assert!(columnar_kernel_scope("crates/pdgf-schema/src/column.rs"));
        assert!(!columnar_kernel_scope("crates/pdgf-gen/src/runtime.rs"));
        assert!(!columnar_kernel_scope("crates/pdgf-gen/src/resolver.rs"));
        assert!(!columnar_kernel_scope("crates/pdgf-schema/src/model.rs"));
        assert!(seed_discipline_scope("crates/pdgf-gen/src/basic.rs"));
        assert!(seed_discipline_scope("crates/pdgf-gen/src/reference.rs"));
        assert!(!seed_discipline_scope("crates/pdgf-gen/src/runtime.rs"));
        assert!(!seed_discipline_scope("crates/pdgf-runtime/src/serve.rs"));
        assert!(panic_free_scope("crates/pdgf/src/serve.rs"));
        assert!(panic_free_scope("crates/pdgf/src/serve/tcp.rs"));
        assert!(!panic_free_scope("crates/pdgf/src/project.rs"));
        assert!(sync_facade_scope("crates/pdgf-runtime/src/engine.rs"));
        assert!(sync_facade_scope("crates/pdgf-gen/src/resolver.rs"));
        assert!(sync_facade_scope("src/lib.rs"));
        assert!(!sync_facade_scope("crates/pdgf-schema/src/sync.rs"));
    }

    #[test]
    fn every_rule_id_resolves() {
        for r in RULES {
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("no-such-rule").is_none());
    }
}
