//! Locks that are leaves by construction.
//!
//! The workspace's shared state is small — the execution core's ticket
//! queue and per-request hand-off, the buffer pool, the event bus, the
//! watchdog's stop flag and two caches — and no code path needs two of
//! those at once. This module turns that shape into a rule: **a thread
//! holds at most one lock**. With no nesting there is no lock order to
//! get wrong, no re-entrant self-deadlock, and no condvar wait while a
//! second lock is held. Library code takes every lock through here; the
//! `sync-facade` audit rule bans the std names everywhere else.
//!
//! * [`Lock`] is a mutex whose [`lock`](Lock::lock) recovers from
//!   poison: every value guarded in this workspace (a stack of empty
//!   buffers, a queue, a cache of whole entries, a flag) is valid after
//!   any panic, so a panicking peer must not take the survivors down.
//! * In debug and `loom` builds a thread-local depth counter makes taking
//!   a second lock while one is held panic *before* it blocks, so every
//!   debug test and every loom model enforces the leaf rule. If that
//!   panic unwinds through the guard already held, the process aborts
//!   with the same message: the critical section it cut short may owe
//!   other threads a wake-up, and a test would hang instead of failing.
//!   A release build compiles the check away.
//! * [`Cond`] only waits on a predicate ([`Cond::wait_until`] and
//!   [`Cond::wait_timeout_until`]), checked before parking and after
//!   every wake-up, so a wait outside a re-check loop cannot be written.
//!
//! Building with `RUSTFLAGS="--cfg loom"` swaps in `loom`'s primitives,
//! so the `tests/loom.rs` models run the real code unmodified.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

#[cfg(loom)]
use loom::sync as imp;
#[cfg(not(loom))]
use std::sync as imp;

pub use imp::atomic::{AtomicBool, Ordering};

/// A mutual-exclusion lock that is the only one its holder holds.
pub struct Lock<T>(imp::Mutex<T>);

impl<T> Lock<T> {
    /// A lock guarding `value`.
    pub fn new(value: T) -> Self {
        Self(imp::Mutex::new(value))
    }

    /// Block until the lock is free and take it. A lock poisoned by a
    /// holder's panic is taken all the same.
    ///
    /// # Panics
    ///
    /// In debug and `loom` builds, when this thread already holds a
    /// [`Lock`] — this one or any other.
    pub fn lock(&self) -> Guard<'_, T> {
        let leaf = Leaf::enter();
        Guard {
            inner: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            _leaf: leaf,
        }
    }
}

impl<T: Default> Default for Lock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> fmt::Debug for Lock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lock").finish_non_exhaustive()
    }
}

/// Access to a [`Lock`]'s value; releases the lock when dropped.
pub struct Guard<'a, T> {
    inner: imp::MutexGuard<'a, T>,
    // Declared after `inner`, so the lock is released before the thread's
    // leaf flag is cleared.
    _leaf: Leaf,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable whose waits end only on a predicate (or a
/// timeout).
#[derive(Default)]
pub struct Cond(imp::Condvar);

impl Cond {
    /// A condition variable nobody waits on yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Release `guard`'s lock and park until `done` holds for the guarded
    /// value; `done` is checked before parking and after every wake-up.
    /// Returns with the lock held again.
    pub fn wait_until<'a, T>(
        &self,
        guard: Guard<'a, T>,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> Guard<'a, T> {
        let Guard { mut inner, _leaf } = guard;
        while !done(&mut inner) {
            inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        Guard { inner, _leaf }
    }

    /// [`wait_until`](Self::wait_until), giving up once `timeout` has
    /// passed; the caller tells the two endings apart by looking at the
    /// guarded value.
    pub fn wait_timeout_until<'a, T>(
        &self,
        guard: Guard<'a, T>,
        timeout: Duration,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> Guard<'a, T> {
        let Guard { mut inner, _leaf } = guard;
        #[cfg(not(loom))]
        {
            inner = self
                .0
                .wait_timeout_while(inner, timeout, |v| !done(v))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        // loom models no clock: each wait is one timeout's worth.
        #[cfg(loom)]
        while !done(&mut inner) {
            let (woken, waited) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = woken;
            if waited.timed_out() {
                break;
            }
        }
        Guard { inner, _leaf }
    }

    /// Wake one waiter, which re-checks its predicate.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter, each of which re-checks its predicate.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// This thread's claim on the one lock it may hold.
#[cfg(any(debug_assertions, loom))]
struct Leaf(());

#[cfg(any(debug_assertions, loom))]
const NESTED: &str = "nested lock: this thread already holds a `pdgf_schema::sync::Lock`; \
                      every lock must be a leaf";

#[cfg(any(debug_assertions, loom))]
thread_local! {
    /// Locks this thread holds, plus the refused attempt to take another.
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(any(debug_assertions, loom))]
impl Leaf {
    fn enter() -> Self {
        if DEPTH.with(|depth| depth.replace(depth.get() + 1)) > 0 {
            panic!("{NESTED}");
        }
        Leaf(())
    }
}

#[cfg(any(debug_assertions, loom))]
impl Drop for Leaf {
    fn drop(&mut self) {
        let refused = DEPTH.with(|depth| depth.replace(0)) > 1;
        if refused && std::thread::panicking() {
            // Straight to the terminal: a test harness would swallow a
            // captured message along with the aborted process.
            let _ = std::io::Write::write_all(
                &mut std::io::stderr(),
                format!("{NESTED} (aborting)\n").as_bytes(),
            );
            std::process::abort();
        }
    }
}

#[cfg(not(any(debug_assertions, loom)))]
struct Leaf;

#[cfg(not(any(debug_assertions, loom)))]
impl Leaf {
    #[inline(always)]
    fn enter() -> Self {
        Leaf
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    /// Long enough that reaching it means the wait missed its wake-up.
    const NEVER: Duration = Duration::from_secs(10);

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_second_lock_on_one_thread_panics() {
        let (a, b) = (Lock::new(1), Lock::new(2));
        let held = a.lock();
        let nested = catch_unwind(AssertUnwindSafe(|| drop(b.lock())));
        let message = panic_message(nested.expect_err("a nested lock must panic"));
        assert!(message.contains("nested lock"), "{message}");
        // Re-entry panics too, instead of deadlocking.
        assert!(catch_unwind(AssertUnwindSafe(|| drop(a.lock()))).is_err());
        drop(held);
        // The refused attempts left nothing behind: one at a time is fine.
        assert_eq!(*b.lock(), 2);
        assert_eq!(*a.lock(), 1);
    }

    #[test]
    fn poison_is_recovered() {
        let lock = Lock::new(vec![1]);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let mut held = lock.lock();
                held.push(2);
                panic!("dies holding the lock");
            });
            assert!(holder.join().is_err(), "the panic must reach join");
        });
        assert!(lock.0.is_poisoned(), "the lock really was poisoned");
        assert_eq!(*lock.lock(), [1, 2], "the value survives the poison");
        lock.lock().push(3);
        assert_eq!(lock.lock().len(), 3);
    }

    #[test]
    fn predicate_waits_return_on_notify_and_on_timeout() {
        let (count, cond) = (Lock::new(0u32), Cond::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    *count.lock() += 1;
                    cond.notify_all();
                }
            });
            assert_eq!(*cond.wait_until(count.lock(), |n| *n == 3), 3);
        });
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                *count.lock() = 4;
                cond.notify_one();
            });
            assert_eq!(
                *cond.wait_timeout_until(count.lock(), NEVER, |n| *n == 4),
                4
            );
        });
        assert!(started.elapsed() < NEVER / 2, "the notify was missed");
        let started = Instant::now();
        let timeout = Duration::from_millis(20);
        let n = cond.wait_timeout_until(count.lock(), timeout, |n| *n == 5);
        assert_eq!(*n, 4, "nobody writes 5: the wait gives up");
        assert!(started.elapsed() >= timeout);
    }

    /// A stop flag raised before the waiter first parks — nobody will
    /// notify again — must still end the wait at once.
    #[test]
    fn a_flag_set_before_the_waiter_parks_is_seen() {
        let (stop, cond) = (Lock::new(false), Cond::new());
        *stop.lock() = true;
        cond.notify_all();
        let started = Instant::now();
        assert!(*cond.wait_timeout_until(stop.lock(), NEVER, |stop| *stop));
        assert!(*cond.wait_until(stop.lock(), |stop| *stop));
        assert!(started.elapsed() < NEVER / 2, "parked despite the flag");
    }
}
