//! Sequence reordering for sorted parallel output.
//!
//! Work packages complete out of order under parallel generation, but
//! "PDGF writes sorted output into a single file" (Section 4's DBGen
//! comparison). The [`ReorderBuffer`] holds early arrivals and releases
//! them in sequence, so the downstream sink sees packages in order
//! regardless of worker scheduling.
//!
//! The buffer is a ring of `Option<T>` slots indexed relative to the next
//! expected sequence number. Compared to the previous `BTreeMap`-backed
//! version this allocates nothing per push (no tree nodes, no returned
//! `Vec`): the in-order fast path hands the payload straight back, and
//! out-of-order arrivals land in a slot of a `VecDeque` whose capacity
//! stabilizes at the worker channel depth after warm-up.

use std::collections::VecDeque;

/// Reorders out-of-order `(sequence, payload)` arrivals into sequence
/// order. Sequences start at 0 and must be dense and unique.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    /// `ring[i]` holds the payload for sequence `next + i`, if arrived.
    ring: VecDeque<Option<T>>,
    parked: usize,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// Empty buffer expecting sequence 0 first.
    pub fn new() -> Self {
        Self {
            next: 0,
            ring: VecDeque::new(),
            parked: 0,
        }
    }

    /// Offer a completed package. If `seq` is the next expected sequence
    /// the payload comes straight back (the allocation-free fast path);
    /// otherwise it is parked. After a `Some` return, drain any newly
    /// unblocked successors with [`pop_ready`](Self::pop_ready).
    ///
    /// # Panics
    /// Panics on duplicate or stale sequence numbers.
    pub fn push(&mut self, seq: u64, payload: T) -> Option<T> {
        assert!(
            seq >= self.next,
            "duplicate or stale sequence {seq} (next expected {})",
            self.next
        );
        let idx = (seq - self.next) as usize;
        if idx == 0 && self.ring.is_empty() {
            self.next += 1;
            return Some(payload);
        }
        if idx >= self.ring.len() {
            // Grow to cover the new high-water slot; bounded in practice
            // by the worker channel capacity.
            self.ring.resize_with(idx + 1, || None);
        }
        assert!(
            self.ring[idx].is_none(),
            "duplicate or stale sequence {seq} (next expected {})",
            self.next
        );
        if idx == 0 {
            self.next += 1;
            self.ring.pop_front();
            return Some(payload);
        }
        self.ring[idx] = Some(payload);
        self.parked += 1;
        None
    }

    /// Release the next in-sequence payload, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<T> {
        match self.ring.front_mut() {
            Some(slot @ Some(_)) => {
                let payload = slot.take();
                self.ring.pop_front();
                self.next += 1;
                self.parked -= 1;
                payload
            }
            _ => None,
        }
    }

    /// Remove every parked payload, in sequence order, abandoning the
    /// gaps before them — how a cancelled stream recovers its buffers.
    pub fn drain_parked(&mut self) -> impl Iterator<Item = T> + '_ {
        self.parked = 0;
        self.ring.drain(..).flatten()
    }

    /// Number of packages parked waiting for their predecessors.
    pub fn pending(&self) -> usize {
        self.parked
    }

    /// The sequence number the buffer is waiting for.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// True when nothing is parked.
    pub fn is_drained(&self) -> bool {
        self.parked == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push and collect everything releasable, old-API style.
    fn push_all<T>(b: &mut ReorderBuffer<T>, seq: u64, payload: T) -> Vec<T> {
        let mut out = Vec::new();
        if let Some(p) = b.push(seq, payload) {
            out.push(p);
            while let Some(p) = b.pop_ready() {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn in_order_passthrough() {
        let mut b = ReorderBuffer::new();
        assert_eq!(b.push(0, "a"), Some("a"));
        assert_eq!(b.push(1, "b"), Some("b"));
        assert!(b.is_drained());
        assert_eq!(b.next_expected(), 2);
        assert!(b.pop_ready().is_none());
    }

    #[test]
    fn out_of_order_is_held_and_released_in_runs() {
        let mut b = ReorderBuffer::new();
        assert!(b.push(2, "c").is_none());
        assert!(b.push(1, "b").is_none());
        assert_eq!(b.pending(), 2);
        assert!(b.pop_ready().is_none(), "nothing ready before seq 0");
        assert_eq!(push_all(&mut b, 0, "a"), vec!["a", "b", "c"]);
        assert!(b.is_drained());
        assert_eq!(b.next_expected(), 3);
    }

    #[test]
    fn random_permutation_drains_in_order() {
        // Deterministic scramble of 0..100.
        let mut order: Vec<u64> = (0..100).collect();
        for i in 0..order.len() {
            let j = (i * 37 + 11) % order.len();
            order.swap(i, j);
        }
        let mut b = ReorderBuffer::new();
        let mut released = Vec::new();
        for seq in order {
            released.extend(push_all(&mut b, seq, seq));
        }
        assert_eq!(released, (0..100).collect::<Vec<u64>>());
        assert!(b.is_drained());
    }

    #[test]
    fn gap_then_fill_releases_through_the_ring() {
        let mut b = ReorderBuffer::new();
        assert_eq!(b.push(0, 0), Some(0));
        assert!(b.push(3, 3).is_none());
        assert!(b.push(2, 2).is_none());
        // Seq 1 arrives with parked successors: delivered via the ring.
        assert_eq!(push_all(&mut b, 1, 1), vec![1, 2, 3]);
        assert_eq!(b.next_expected(), 4);
        assert!(b.is_drained());
    }

    #[test]
    fn drain_parked_returns_everything_held_in_order() {
        let mut b = ReorderBuffer::new();
        assert_eq!(b.push(0, 0), Some(0));
        assert!(b.push(4, 4).is_none());
        assert!(b.push(2, 2).is_none());
        assert_eq!(b.drain_parked().collect::<Vec<_>>(), vec![2, 4]);
        assert!(b.is_drained());
        assert_eq!(b.drain_parked().count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate or stale")]
    fn duplicate_sequences_panic() {
        let mut b = ReorderBuffer::new();
        b.push(0, ());
        b.push(0, ());
    }

    #[test]
    #[should_panic(expected = "duplicate or stale")]
    fn pending_duplicate_panics() {
        let mut b = ReorderBuffer::new();
        b.push(5, ());
        b.push(5, ());
    }
}
