//! Synchronization facade for loom model checking.
//!
//! The execution core ([`crate::engine`]) imports its synchronization
//! types from here instead of `std::sync`. A normal build re-exports the
//! std types unchanged; building with `RUSTFLAGS="--cfg loom"` swaps in
//! `loom`'s instrumented equivalents so `tests/loom.rs` can model-check
//! the queue/worker/reader handoff. Both expose std's signatures
//! (`lock()` returns a `LockResult`, atomics take an `Ordering`), so call
//! sites compile identically under either cfg.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex};
