//! Live progress counters.
//!
//! The paper's demo monitors generation through Java Mission Control /
//! JMX; the equivalent observability surface here is a cheap shared
//! counter set that workers bump and a UI (or test) can snapshot at any
//! time: "the progress of single tables and the complete data set as well
//! as general performance parameters can be visualized". The monitor
//! tracks both the aggregate run and each table's own progress, and its
//! throughput clock starts at the *first recorded package* — a monitor
//! created long before the run starts does not understate MB/s.
//!
//! Recording is designed for the output stage's per-package cadence: a
//! run pre-registers its tables once ([`Monitor::register_table`]) and
//! records through the returned [`TableHandle`] with a handful of relaxed
//! atomic adds — no name lookup, no lock. The name-keyed
//! [`record_table_package`](Monitor::record_table_package) entry point
//! remains for callers without a handle; it pays a registry lock plus a
//! linear scan per call and is not meant for hot paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Shared progress counters for one generation run.
#[derive(Debug, Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

#[derive(Debug)]
struct MonitorInner {
    rows: AtomicU64,
    bytes: AtomicU64,
    packages: AtomicU64,
    /// Set when the first package is recorded; the
    /// throughput clock measures from here, not from `Monitor::new()`.
    started: OnceLock<Instant>,
    /// Per-table counter cells, in first-registered order. The lock only
    /// guards the registry vector; the cells themselves are atomic.
    tables: Mutex<Vec<Arc<TableCell>>>,
}

impl MonitorInner {
    fn start_clock(&self) {
        self.started.get_or_init(Instant::now);
    }
}

#[derive(Debug)]
struct TableCell {
    name: String,
    rows: AtomicU64,
    bytes: AtomicU64,
    packages: AtomicU64,
}

impl TableCell {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            packages: AtomicU64::new(0),
        }
    }
}

/// A pre-registered table's recording handle: bumps its table's and the
/// aggregate counters with relaxed atomics only — the per-package fast
/// path ([`Monitor::register_table`]).
#[derive(Debug, Clone)]
pub struct TableHandle {
    inner: Arc<MonitorInner>,
    cell: Arc<TableCell>,
}

impl TableHandle {
    /// Record a completed package of this table.
    #[inline]
    pub fn record_package(&self, rows: u64, bytes: u64) {
        self.inner.start_clock();
        self.inner.rows.fetch_add(rows, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.packages.fetch_add(1, Ordering::Relaxed);
        self.cell.rows.fetch_add(rows, Ordering::Relaxed);
        self.cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.cell.packages.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time view of a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Rows generated so far.
    pub rows: u64,
    /// Output bytes produced so far.
    pub bytes: u64,
    /// Work packages completed so far.
    pub packages: u64,
    /// Seconds since the first recorded package (0 before any).
    pub elapsed_secs: f64,
    /// Megabytes per second since the first recorded package.
    pub throughput_mb_s: f64,
}

/// A point-in-time view of one table's progress.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub table: String,
    /// Rows generated so far for this table.
    pub rows: u64,
    /// Output bytes produced so far for this table.
    pub bytes: u64,
    /// Work packages completed so far for this table.
    pub packages: u64,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// Fresh counters. The throughput clock starts lazily at the first
    /// recorded package, so creating the monitor early costs nothing.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(MonitorInner {
                rows: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                packages: AtomicU64::new(0),
                started: OnceLock::new(),
                tables: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Record a completed package of `rows` rows and `bytes` output bytes
    /// (aggregate counters only).
    #[inline]
    pub fn record_package(&self, rows: u64, bytes: u64) {
        self.inner.start_clock();
        self.inner.rows.fetch_add(rows, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.packages.fetch_add(1, Ordering::Relaxed);
    }

    /// A poisoned monitor lock only risks slightly stale counters — the
    /// run's correctness never depends on them — so recover the guard
    /// instead of propagating the panic.
    fn tables(&self) -> MutexGuard<'_, Vec<Arc<TableCell>>> {
        self.inner
            .tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Register `table` (idempotently) and return its lock-free recording
    /// handle. A run registers every table once up front; per-package
    /// recording through the handle then never takes the registry lock.
    /// First-registered order is the order [`table_snapshots`]
    /// (Self::table_snapshots) reports.
    pub fn register_table(&self, table: &str) -> TableHandle {
        let mut tables = self.tables();
        let cell = match tables.iter().find(|c| c.name == table) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(TableCell::new(table));
                tables.push(Arc::clone(&cell));
                cell
            }
        };
        drop(tables);
        TableHandle {
            inner: Arc::clone(&self.inner),
            cell,
        }
    }

    /// Record a completed package of `table`, updating both the aggregate
    /// and the table's own counters. Convenience path: resolves the name
    /// on every call — hot loops should hold a [`TableHandle`] instead.
    pub fn record_table_package(&self, table: &str, rows: u64, bytes: u64) {
        self.register_table(table).record_package(rows, bytes);
    }

    /// Current aggregate totals and derived throughput.
    pub fn snapshot(&self) -> Snapshot {
        let elapsed = self
            .inner
            .started
            .get()
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        let bytes = self.inner.bytes.load(Ordering::Relaxed);
        Snapshot {
            rows: self.inner.rows.load(Ordering::Relaxed),
            bytes,
            packages: self.inner.packages.load(Ordering::Relaxed),
            elapsed_secs: elapsed,
            throughput_mb_s: if elapsed > 0.0 {
                bytes as f64 / 1e6 / elapsed
            } else {
                0.0
            },
        }
    }

    /// Per-table progress, in first-registered order. Tables registered
    /// but not yet producing output appear with zero counts.
    pub fn table_snapshots(&self) -> Vec<TableSnapshot> {
        // Clone the cell list (cheap Arc bumps) so the registry guard is
        // released before the per-table snapshot work — string clones
        // never happen under the lock writers contend on.
        let cells: Vec<Arc<TableCell>> = self.tables().clone();
        cells
            .iter()
            .map(|c| TableSnapshot {
                table: c.name.clone(),
                rows: c.rows.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                packages: c.packages.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Progress of one table, if it has been registered.
    pub fn table_snapshot(&self, table: &str) -> Option<TableSnapshot> {
        self.table_snapshots()
            .into_iter()
            .find(|t| t.table == table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Monitor::new();
        m.record_package(100, 4096);
        m.record_package(50, 1024);
        let s = m.snapshot();
        assert_eq!(s.rows, 150);
        assert_eq!(s.bytes, 5120);
        assert_eq!(s.packages, 2);
        assert!(s.elapsed_secs >= 0.0);
    }

    #[test]
    fn clones_share_counters() {
        let m = Monitor::new();
        let m2 = m.clone();
        m.record_package(1, 10);
        m2.record_package(2, 20);
        assert_eq!(m.snapshot().rows, 3);
        assert_eq!(m2.snapshot().bytes, 30);
    }

    #[test]
    fn counters_are_thread_safe() {
        let m = Monitor::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record_package(1, 2);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.rows, 8000);
        assert_eq!(snap.bytes, 16_000);
        assert_eq!(snap.packages, 8000);
    }

    #[test]
    fn clock_starts_at_first_package_not_construction() {
        let m = Monitor::new();
        assert_eq!(m.snapshot().elapsed_secs, 0.0, "no packages, no clock");
        assert_eq!(m.snapshot().throughput_mb_s, 0.0);
        std::thread::sleep(std::time::Duration::from_millis(60));
        m.record_package(10, 1_000_000);
        let s = m.snapshot();
        // The 60 ms spent idle before the run must not count: a delayed
        // run's throughput is measured from its own first package.
        assert!(
            s.elapsed_secs < 0.05,
            "clock includes pre-run idle time: {}s",
            s.elapsed_secs
        );
    }

    #[test]
    fn per_table_counters_track_each_table() {
        let m = Monitor::new();
        m.record_table_package("a", 10, 100);
        m.record_table_package("b", 20, 200);
        m.record_table_package("a", 5, 50);

        let a = m.table_snapshot("a").expect("table a recorded");
        assert_eq!(a.rows, 15);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.packages, 2);
        let b = m.table_snapshot("b").expect("table b recorded");
        assert_eq!(b.rows, 20);
        assert_eq!(b.bytes, 200);
        assert_eq!(b.packages, 1);
        assert!(m.table_snapshot("c").is_none());

        // Aggregate view includes both tables.
        let s = m.snapshot();
        assert_eq!(s.rows, 35);
        assert_eq!(s.bytes, 350);
        assert_eq!(s.packages, 3);

        let all = m.table_snapshots();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].table, "a", "first-seen order");
    }

    #[test]
    fn handles_record_without_the_registry_lock() {
        let m = Monitor::new();
        let a = m.register_table("a");
        let a2 = m.register_table("a");
        let b = m.register_table("b");
        // Pre-registered tables appear immediately, with zero counts, in
        // registration order — the shape a progress UI wants up front.
        let all = m.table_snapshots();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].table.as_str(), all[0].rows), ("a", 0));

        std::thread::scope(|s| {
            for handle in [&a, &a2] {
                s.spawn(move || {
                    for _ in 0..500 {
                        handle.record_package(2, 10);
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..100 {
                    b.record_package(1, 1);
                }
            });
        });
        let sa = m.table_snapshot("a").expect("a");
        assert_eq!(sa.rows, 2000, "both handles hit the same cell");
        assert_eq!(sa.packages, 1000);
        let sb = m.table_snapshot("b").expect("b");
        assert_eq!(sb.bytes, 100);
        let total = m.snapshot();
        assert_eq!(total.rows, 2100);
        assert_eq!(total.bytes, 10_100);
    }

    #[test]
    fn poisoned_registry_recovers_with_honest_counters() {
        // A worker panicking while it holds the registry guard poisons
        // the mutex; surviving workers keep recording and the final
        // snapshot must count every completed package exactly once.
        let m = Monitor::new();
        let lineitem = m.register_table("lineitem");
        lineitem.record_package(10, 100);
        {
            let m = m.clone();
            let handle = std::thread::spawn(move || {
                let _guard = m.tables();
                panic!("worker dies holding the registry lock");
            });
            assert!(handle.join().is_err(), "the panic must reach join");
        }
        assert!(
            m.inner.tables.lock().is_err(),
            "the lock really was poisoned"
        );
        // Registration, handle recording, and snapshots all run through
        // the recovery helper and must still work.
        let orders = m.register_table("orders");
        orders.record_package(5, 50);
        lineitem.record_package(10, 100);
        let tables = m.table_snapshots();
        assert_eq!(tables.len(), 2);
        assert_eq!((tables[0].rows, tables[0].bytes), (20, 200));
        assert_eq!((tables[1].rows, tables[1].bytes), (5, 50));
        let total = m.snapshot();
        assert_eq!((total.rows, total.bytes, total.packages), (25, 250, 3));
    }
}
