//! Wrapper columns stay on the batch path: TPC-H allocates nothing per
//! package, in every output format.
//!
//! `lineitem.l_comment` is a NULL wrapper over Markov text (the paper's
//! Listing 1) and `orders.o_clerk` a concatenation. A wrapper column that
//! fell back to boxed per-cell `Value`s would allocate per row, so a
//! counting global allocator checks that 80 and 400 inline packages of 100
//! rows cost exactly the same number of allocations. Every formatter runs,
//! so each one's per-package lane resolution — the text-arena scan over
//! clean and dirty arenas included — sits under the same rule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use dbsynth_suite::pdgf::Pdgf;
use pdgf_output::{CsvFormatter, Formatter, JsonFormatter, NullSink, SqlFormatter, XmlFormatter};
use pdgf_runtime::{generate_table_range, RunConfig};

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

/// The least of three counts: the counter is process-wide and the test
/// harness's own thread may allocate meanwhile, which can only add.
fn least_allocations_during(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            f();
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

#[test]
fn tpch_wrapper_columns_allocate_nothing_per_package() {
    let project =
        Pdgf::from_xml_file(Path::new(env!("CARGO_MANIFEST_DIR")).join("models/tpch.xml"))
            .expect("shipped model parses")
            .set_property("SF", "0.01")
            .build()
            .expect("builds");
    let rt = project.runtime();
    let config = RunConfig::new().workers(0).package_rows(100);
    // Rows past a table's size are as computable as any other, so 400
    // packages fit even the 15,000-row `orders`.
    let generate = |table: u32, packages: u64, f: &dyn Formatter| {
        let mut sink = NullSink::new();
        let stats =
            generate_table_range(rt, table, 0, 0..packages * 100, f, &mut sink, &config, None)
                .expect("generate");
        assert_eq!(stats.rows, packages * 100);
    };
    let formats: [&dyn Formatter; 4] = [
        &CsvFormatter::new(),
        &JsonFormatter,
        &XmlFormatter,
        &SqlFormatter::new(),
    ];
    for f in formats {
        for name in ["lineitem", "orders"] {
            let (table, _) = rt.table_by_name(name).expect("a TPC-H table");
            generate(table, 80, f);
            let few = least_allocations_during(|| generate(table, 80, f));
            let many = least_allocations_during(|| generate(table, 400, f));
            assert_eq!(
                few,
                many,
                "{} {name}: 80 inline packages cost {few} allocations, 400 cost {many}",
                f.name()
            );
        }
    }
}
