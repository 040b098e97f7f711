//! Steady-state allocation test for the formatting hot path.
//!
//! A counting global allocator measures how many heap allocations a
//! generation run performs. The CSV path over non-text columns must not
//! allocate per row or per package in the steady state: generating 5×
//! the rows (and 5× the packages) may only add a small constant number
//! of allocations (buffer growth doublings, thread spawns), never a
//! count proportional to the row or package count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::{CsvFormatter, Formatter, JsonFormatter, NullSink, SqlFormatter, XmlFormatter};
use pdgf_runtime::{generate_table_range, RowService, RunConfig, ServeConfig, Telemetry};
use pdgf_schema::model::DateFormat;
use pdgf_schema::{Date, Expr, Field, GeneratorSpec, Schema, SqlType, Table};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counter is process-wide, so the tests below must not overlap:
/// each holds this lock from its warm-up to its last measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Every non-text value kind, plus a TPC-H-style line-number formula, on
/// one table: none of them may allocate.
fn runtime(rows: u64) -> SchemaRuntime {
    let schema = Schema::new("zeroalloc", 77).table(
        Table::new("t", &format!("{rows}"))
            .field(
                Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary(),
            )
            .field(Field::new(
                "qty",
                SqlType::Integer,
                GeneratorSpec::Long {
                    min: Expr::parse("1").unwrap(),
                    max: Expr::parse("50").unwrap(),
                },
            ))
            .field(Field::new(
                "ratio",
                SqlType::Double,
                GeneratorSpec::Double {
                    min: Expr::parse("0").unwrap(),
                    max: Expr::parse("1000").unwrap(),
                    decimals: Some(2),
                },
            ))
            .field(Field::new(
                "price",
                SqlType::Decimal(12, 2),
                GeneratorSpec::Decimal {
                    min: Expr::parse("100").unwrap(),
                    max: Expr::parse("999999").unwrap(),
                    scale: 2,
                },
            ))
            .field(Field::new(
                "shipped",
                SqlType::Date,
                GeneratorSpec::DateRange {
                    min: Date::from_ymd(1992, 1, 1),
                    max: Date::from_ymd(1998, 12, 31),
                    format: DateFormat::Iso,
                },
            ))
            .field(Field::new(
                "flag",
                SqlType::Boolean,
                GeneratorSpec::RandomBool { true_prob: 0.5 },
            ))
            .field(Field::new(
                "linenumber",
                SqlType::Integer,
                GeneratorSpec::Formula {
                    expr: Expr::parse("${ROW} % 4 + 1").unwrap(),
                    as_long: true,
                },
            )),
    );
    SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
}

fn generate_csv(rt: &SchemaRuntime, workers: usize, package_rows: u64) -> u64 {
    generate_with(rt, workers, package_rows, &CsvFormatter::new(), None)
}

fn generate_with(
    rt: &SchemaRuntime,
    workers: usize,
    package_rows: u64,
    formatter: &dyn Formatter,
    telemetry: Option<&Telemetry>,
) -> u64 {
    let mut sink = NullSink::new();
    let stats = generate_table_range(
        rt,
        0,
        0,
        0..rt.tables()[0].size,
        formatter,
        &mut sink,
        &RunConfig::new().workers(workers).package_rows(package_rows),
        telemetry,
    )
    .unwrap();
    stats.rows
}

#[test]
fn csv_inline_path_does_not_allocate_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let small = runtime(8_000);
    let large = runtime(40_000);
    // Warm-up pass absorbs one-time lazy initialization (TLS, stdio).
    generate_csv(&small, 0, 10_000);

    let base = allocations_during(|| assert_eq!(generate_csv(&small, 0, 10_000), 8_000));
    let grown = allocations_during(|| assert_eq!(generate_csv(&large, 0, 10_000), 40_000));

    // 32,000 extra rows and 4 extra packages may only cost a handful of
    // extra allocations (output-buffer growth doublings). The pre-change
    // code allocated a scratch `String` per row, i.e. tens of thousands.
    let delta = grown.saturating_sub(base);
    assert!(
        delta < 64,
        "inline CSV path allocates per row/package: {base} allocs for 8k rows, \
         {grown} for 40k (delta {delta})"
    );
}

#[test]
fn csv_parallel_path_does_not_allocate_per_package() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let small = runtime(8_000);
    let large = runtime(40_000);
    generate_csv(&small, 2, 500);

    let base = allocations_during(|| assert_eq!(generate_csv(&small, 2, 500), 8_000));
    let grown = allocations_during(|| assert_eq!(generate_csv(&large, 2, 500), 40_000));

    // 64 extra packages flow through the pool/channel/reorder pipeline;
    // with buffer recycling they must not cost an allocation each. The
    // bound leaves room for thread spawning and ring growth, which both
    // runs pay equally, plus a few one-time doublings.
    let delta = grown.saturating_sub(base);
    assert!(
        delta < 128,
        "parallel CSV path allocates per package: {base} allocs for 16 packages, \
         {grown} for 80 (delta {delta})"
    );
}

/// The least of three counts: the counter is process-wide and the test
/// harness's own thread may allocate meanwhile, which can only add.
fn least_allocations_during(mut f: impl FnMut()) -> u64 {
    (0..3).map(|_| allocations_during(&mut f)).min().unwrap()
}

/// No format allocates per package: 80 and 400 inline packages of 100
/// rows cost exactly the same in CSV, JSON, XML and SQL (the CSV
/// formatter's per-package clean-column `Vec` once made that 107 vs 427;
/// the lane views are a stack array).
#[test]
fn inline_packages_allocate_nothing_each() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let small = runtime(8_000);
    let large = runtime(40_000);
    let formats: [&dyn Formatter; 4] = [
        &CsvFormatter::new(),
        &JsonFormatter,
        &XmlFormatter,
        &SqlFormatter::new(),
    ];
    for f in formats {
        let name = f.name();
        generate_with(&small, 0, 100, f, None);
        let few =
            least_allocations_during(|| assert_eq!(generate_with(&small, 0, 100, f, None), 8_000));
        let many =
            least_allocations_during(|| assert_eq!(generate_with(&large, 0, 100, f, None), 40_000));
        assert_eq!(
            few, many,
            "{name}: 80 inline packages cost {few} allocations, 400 cost {many}"
        );
    }
}

/// `--progress` rides on a `Telemetry` nobody subscribes to: progress
/// counters, histograms and the watchdog stamp are atomics, and an event
/// is not built without a subscriber, so attaching the handle to a
/// 400-package run may only add the scope's set-up (registry, worker
/// slots, the watchdog thread) — never an allocation per package (it
/// used to: one table-name `String` per `PackageCompleted`).
#[test]
fn unsubscribed_telemetry_does_not_allocate_per_package() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let rt = runtime(40_000);
    let telemetry = Telemetry::new();
    generate_with(&rt, 0, 100, &CsvFormatter::new(), Some(&telemetry));

    let bare = allocations_during(|| assert_eq!(generate_csv(&rt, 0, 100), 40_000));
    let observed = allocations_during(|| {
        assert_eq!(
            generate_with(&rt, 0, 100, &CsvFormatter::new(), Some(&telemetry)),
            40_000
        )
    });

    let delta = observed.saturating_sub(bare);
    assert!(
        delta < 64,
        "unsubscribed telemetry allocates per package: {bare} allocs for 400 packages \
         without it, {observed} with it (delta {delta})"
    );
    assert_eq!(telemetry.progress().rows, 2 * 40_000);
    assert_eq!(telemetry.dropped_events(), 0, "nothing was published");
}

/// A point lookup is rendered on the calling thread into that thread's
/// reused column batch, so its cost is a fixed set of allocations —
/// whatever the row number and however many lookups came before. Of the
/// 11, 9 are the request's table metadata (the name, the column list and
/// one string per column of this seven-column table), 1 is the request
/// itself and 1 the returned row's buffer. The stream, the formatter, the
/// formula's compiled tape and the column profiles (computed once, when
/// the runtime is built) add none.
#[test]
fn point_lookups_allocate_a_constant_per_lookup() {
    const PER_LOOKUP: u64 = 11;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let service = RowService::new(
        Arc::new(runtime(1 << 40)),
        ServeConfig::new().workers(1),
        None,
    );
    let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
    let lookups = |n: u64| {
        least_allocations_during(|| {
            for i in 0..n {
                let row = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
                let bytes = service.row_bytes(0, 0, row, Arc::clone(&csv)).unwrap();
                assert!(!bytes.is_empty());
            }
        })
    };
    lookups(10);

    assert_eq!(
        lookups(100),
        100 * PER_LOOKUP,
        "allocations for 100 lookups"
    );
    assert_eq!(
        lookups(1_000),
        1_000 * PER_LOOKUP,
        "allocations for 1,000 lookups"
    );
}
