//! Offline stand-in for the `loom` model checker.
//!
//! The build environment has no registry access, so this shim vendors the
//! narrow `loom` API the workspace's concurrency tests use: [`model`],
//! `loom::thread`, and `loom::sync::{Arc, Mutex, MutexGuard, Condvar,
//! atomic}`. The
//! real loom exhaustively enumerates thread interleavings with DPOR; this
//! stand-in is honest about being weaker — it *stress-tests* instead,
//! running the model closure many times while injecting deterministic
//! pseudo-random preemption points (`thread::yield_now`) at every
//! synchronization-primitive touch. Each iteration uses a different
//! SplitMix64-derived preemption schedule, so repeated runs explore many
//! distinct interleavings, reproducibly.
//!
//! Code under test is written once against `loom::sync` via a `cfg(loom)`
//! facade and runs unmodified against the real loom if one is ever
//! available: the types here delegate to `std::sync` and expose std's
//! signatures (`lock()` returns `LockResult`, atomics take `Ordering`).
//!
//! The iteration count defaults to 64 and can be raised with the
//! `LOOM_MAX_ITERS` environment variable, mirroring loom's own knob.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(clippy::disallowed_types, reason = "it delegates to the std locks")]

use core::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};

/// Per-iteration schedule state: a SplitMix64 stream deciding, at every
/// synchronization touch point, whether to yield the OS scheduler.
static SCHEDULE: StdAtomicU64 = StdAtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Preemption point: called by every shim primitive. Advances the
/// schedule stream and yields the OS scheduler on a pseudo-random subset
/// of calls, perturbing thread interleavings between iterations.
fn preempt() {
    let n = SCHEDULE.fetch_add(1, StdOrdering::Relaxed);
    // Yield on roughly 1 in 4 touches; which touches yield differs per
    // iteration because `model` reseeds the counter's high bits.
    if splitmix64(n).is_multiple_of(4) {
        std::thread::yield_now();
    }
}

/// Run `f` under the model checker: many iterations, each with a distinct
/// deterministic preemption schedule. Panics propagate, failing the test.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_MAX_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for iter in 0..iters {
        // Seed the schedule stream for this iteration: the high bits make
        // every iteration's yield pattern distinct.
        SCHEDULE.store(splitmix64(iter) << 20, StdOrdering::Relaxed);
        f();
    }
}

/// Threads whose creation and joining are preemption points.
pub mod thread {
    /// Handle to a spawned model thread.
    pub struct JoinHandle<T>(std::thread::JoinHandle<T>);

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish.
        pub fn join(self) -> std::thread::Result<T> {
            super::preempt();
            self.0.join()
        }
    }

    /// Spawn a thread inside the model.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        super::preempt();
        JoinHandle(std::thread::spawn(f))
    }

    /// Explicit preemption point, as in loom.
    pub fn yield_now() {
        std::thread::yield_now();
    }
}

/// Synchronization primitives that inject preemption points around the
/// std primitives they delegate to.
pub mod sync {
    pub use std::sync::{Arc, MutexGuard};

    use std::fmt;
    use std::sync::{LockResult, WaitTimeoutResult};

    /// Mutex delegating to [`std::sync::Mutex`] with preemption points
    /// before and after acquisition.
    #[derive(Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// New mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        /// Acquire the lock (std signature: poison-aware).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            super::preempt();
            let g = self.0.lock();
            super::preempt();
            g
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.fmt(f)
        }
    }

    /// Condvar delegating to [`std::sync::Condvar`] with preemption
    /// points around waits and notifications.
    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// New condition variable.
        pub const fn new() -> Self {
            Self(std::sync::Condvar::new())
        }

        /// Block until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            super::preempt();
            self.0.wait(guard)
        }

        /// Block until notified or `dur` elapsed.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: std::time::Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            super::preempt();
            self.0.wait_timeout(guard, dur)
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            super::preempt();
            self.0.notify_one();
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            super::preempt();
            self.0.notify_all();
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Condvar")
        }
    }

    /// Atomics whose every access is a preemption point.
    pub mod atomic {
        pub use core::sync::atomic::Ordering;

        macro_rules! atomic_shim {
            ($(#[$doc:meta])* $name:ident, $std:ident, $int:ty) => {
                $(#[$doc])*
                #[derive(Debug, Default)]
                pub struct $name(core::sync::atomic::$std);

                impl $name {
                    /// New atomic holding `value`.
                    pub const fn new(value: $int) -> Self {
                        Self(core::sync::atomic::$std::new(value))
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $int {
                        crate::preempt();
                        self.0.load(order)
                    }

                    /// Atomic store.
                    pub fn store(&self, value: $int, order: Ordering) {
                        crate::preempt();
                        self.0.store(value, order);
                    }

                    /// Atomic fetch-add, returning the previous value.
                    pub fn fetch_add(&self, value: $int, order: Ordering) -> $int {
                        crate::preempt();
                        let prev = self.0.fetch_add(value, order);
                        crate::preempt();
                        prev
                    }

                    /// Atomic compare-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $int,
                        new: $int,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$int, $int> {
                        crate::preempt();
                        self.0.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        atomic_shim!(
            /// `AtomicU64` with preemption points.
            AtomicU64,
            AtomicU64,
            u64
        );
        atomic_shim!(
            /// `AtomicUsize` with preemption points.
            AtomicUsize,
            AtomicUsize,
            usize
        );

        /// `AtomicBool` with preemption points.
        #[derive(Debug, Default)]
        pub struct AtomicBool(core::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// New atomic holding `value`.
            pub const fn new(value: bool) -> Self {
                Self(core::sync::atomic::AtomicBool::new(value))
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> bool {
                crate::preempt();
                self.0.load(order)
            }

            /// Atomic store.
            pub fn store(&self, value: bool, order: Ordering) {
                crate::preempt();
                self.0.store(value, order);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Condvar, Mutex};

    #[test]
    fn model_runs_many_iterations() {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        super::model(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert!(count.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn primitives_behave_like_std() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u32));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (m.clone(), cv.clone());
            let t = super::thread::spawn(move || {
                *m2.lock().unwrap() = 7;
                cv2.notify_all();
            });
            let mut g = m.lock().unwrap();
            while *g != 7 {
                g = cv.wait(g).unwrap();
            }
            drop(g);
            t.join().unwrap();
        });
    }
}
