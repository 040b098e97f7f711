//! Package-buffer recycling.
//!
//! The parallel scheduler formats each work package into a `Vec<u8>` and
//! ships it to the output stage. Without recycling, every package pays
//! one large allocation (and its eventual free) plus the growth doublings
//! to reach steady-state package size. The [`BufferPool`] closes the
//! loop: the output stage returns written buffers to the pool and workers
//! take them back out, so after warm-up every package reuses a buffer
//! that is already at full capacity — the formatting hot path performs no
//! heap allocation at all.

use pdgf_schema::sync::Lock;

#[derive(Debug)]
struct Shelf {
    idle: Vec<Vec<u8>>,
    /// Takes minus puts: a statistic, never consulted for recycling.
    outstanding: i64,
}

/// A bounded stack of recycled byte buffers, shared across threads.
///
/// `take` pops a cleared buffer (or creates an empty one when the pool
/// has been drained); `put` clears and returns a buffer, dropping it
/// instead if the pool is already full, so a burst of in-flight packages
/// cannot pin memory forever.
#[derive(Debug)]
pub struct BufferPool {
    bufs: Lock<Shelf>,
    max: usize,
}

impl BufferPool {
    /// Pool retaining at most `max` idle buffers.
    pub fn new(max: usize) -> Self {
        Self {
            bufs: Lock::new(Shelf {
                idle: Vec::with_capacity(max),
                outstanding: 0,
            }),
            max,
        }
    }

    /// Pop a cleared buffer, or a fresh empty one if none is idle.
    pub fn take(&self) -> Vec<u8> {
        let mut shelf = self.bufs.lock();
        shelf.outstanding += 1;
        shelf.idle.pop().unwrap_or_default()
    }

    /// [`take`](Self::take) with at least `capacity` bytes reserved.
    ///
    /// Used with a statically proven package-size bound, this moves the
    /// buffer's growth doublings from the first formatted rows to a
    /// single up-front reservation; recycled buffers that already reached
    /// the bound reserve nothing.
    pub fn take_with_capacity(&self, capacity: usize) -> Vec<u8> {
        let mut buf = self.take();
        if buf.capacity() < capacity {
            buf.reserve(capacity - buf.capacity());
        }
        buf
    }

    /// Clear `buf` (keeping its capacity) and park it for reuse; drops it
    /// when `max` buffers are already idle.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut shelf = self.bufs.lock();
        shelf.outstanding -= 1;
        if shelf.idle.len() < self.max {
            shelf.idle.push(buf);
        }
    }

    /// Number of idle buffers currently parked.
    pub fn idle(&self) -> usize {
        self.bufs.lock().idle.len()
    }

    /// Buffers taken and not put back. A pipeline that recycles every
    /// buffer reads zero once it is quiet; one whose readers keep their
    /// buffers (the row service) only ever counts up.
    pub fn outstanding(&self) -> i64 {
        self.bufs.lock().outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_empty_pool_allocates_fresh() {
        let pool = BufferPool::new(2);
        assert_eq!(pool.idle(), 0);
        let buf = pool.take();
        assert!(buf.is_empty());
    }

    #[test]
    fn put_then_take_recycles_capacity() {
        let pool = BufferPool::new(2);
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(b"payload");
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let reused = pool.take();
        assert!(reused.is_empty(), "returned buffers are cleared");
        assert!(reused.capacity() >= 4096, "capacity is retained");
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.outstanding(), 0, "one donated put, one take");
        pool.put(reused);
        assert_eq!(pool.outstanding(), -1);
    }

    #[test]
    fn take_with_capacity_reserves_up_front() {
        let pool = BufferPool::new(2);
        let buf = pool.take_with_capacity(4096);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 4096);
        // A recycled buffer already at capacity is returned as-is.
        pool.put(buf);
        let reused = pool.take_with_capacity(1024);
        assert!(reused.capacity() >= 4096, "capacity is retained");
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.idle(), 2, "excess buffers are dropped");
    }

    #[test]
    fn poisoned_pool_recovers_and_stays_bounded() {
        // A worker dying mid-guard poisons the pool's lock; the pool
        // must keep serving the surviving workers — recycling, clearing,
        // and the idle bound all intact.
        let pool = BufferPool::new(2);
        pool.put(Vec::with_capacity(512));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = pool.bufs.lock();
                panic!("worker dies holding the pool lock");
            });
            assert!(handle.join().is_err(), "the panic must reach join");
        });
        let buf = pool.take();
        assert!(buf.is_empty(), "recycled buffer still arrives cleared");
        assert!(
            buf.capacity() >= 512,
            "pre-panic buffer survived the poison"
        );
        for _ in 0..5 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.idle(), 2, "idle bound honest after recovery");
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = std::sync::Arc::new(BufferPool::new(8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let mut b = pool.take();
                        b.extend_from_slice(b"x");
                        pool.put(b);
                    }
                });
            }
        });
        assert!(pool.idle() <= 8);
    }
}
