//! LCRQ — the List of Concurrent Ring Queues (Morrison & Afek, PPoPP 2013),
//! with hazard-pointer reclamation.
//!
//! LCRQ is the paper's strongest baseline: like MS-Queue it is a linked
//! list with head/tail pointers, but each node is a whole [`Crq`] ring, so
//! the hot-path synchronization is one FAA (index claim) plus one CAS2
//! (cell settle) instead of a contended CAS retry loop. The paper's queue
//! matches LCRQ's throughput while adding wait-freedom and shedding the
//! CAS2 requirement (Figure 2 has no LCRQ line on Xeon Phi or Power7 for
//! exactly that reason).
//!
//! The list management mirrors MS-Queue: a closed, drained CRQ at the head
//! is unlinked and retired through the hazard-pointer domain; enqueues that
//! find the tail CRQ closed append a fresh CRQ seeded with their value.

use core::sync::atomic::{AtomicPtr, Ordering};

use wfq_reclaim::{Domain, HazardThread};
use wfq_sync::{inject, CachePadded};

use crate::crq::{Crq, CrqPush, DEFAULT_RING_ORDER};
use crate::{BenchQueue, QueueHandle};

fn crq_alloc(order: u32) -> *mut Crq {
    Box::into_raw(Box::new(Crq::new(order)))
}

unsafe fn crq_deleter(p: *mut u8) {
    // SAFETY: only invoked on pointers produced by crq_alloc.
    unsafe { drop(Box::from_raw(p as *mut Crq)) };
}

/// The LCRQ queue: a list of ring queues.
///
/// ```
/// use wfq_baselines::{BenchQueue, QueueHandle, Lcrq};
/// let q = Lcrq::new();
/// let mut h = q.register();
/// h.enqueue(5);
/// assert_eq!(h.dequeue(), Some(5));
/// ```
pub struct Lcrq {
    head: CachePadded<AtomicPtr<Crq>>,
    tail: CachePadded<AtomicPtr<Crq>>,
    domain: Domain,
    ring_order: u32,
}

// SAFETY: CRQs are shared via atomics under hazard protection.
unsafe impl Send for Lcrq {}
unsafe impl Sync for Lcrq {}

/// Per-thread handle for [`Lcrq`].
pub struct LcrqHandle<'q> {
    q: &'q Lcrq,
    hazard: HazardThread<'q>,
}

impl Lcrq {
    /// Creates an empty queue with the paper's ring size (2^12).
    pub fn new() -> Self {
        Self::with_ring_order(DEFAULT_RING_ORDER)
    }

    /// Creates an empty queue with `2^order` cells per ring.
    pub fn with_ring_order(order: u32) -> Self {
        let first = crq_alloc(order);
        Self {
            head: CachePadded::new(AtomicPtr::new(first)),
            tail: CachePadded::new(AtomicPtr::new(first)),
            domain: Domain::new(),
            ring_order: order,
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> LcrqHandle<'_> {
        LcrqHandle {
            q: self,
            hazard: self.domain.register(),
        }
    }
}

impl Default for Lcrq {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Lcrq {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; CRQs were Box-allocated.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

impl LcrqHandle<'_> {
    /// Enqueues `v`.
    pub fn enqueue(&mut self, v: u64) {
        loop {
            let crq = self.hazard.protect(0, &self.q.tail);
            inject!("lcrq::enq::tail_protected");
            // SAFETY: protected.
            let next = unsafe { (*crq).next.load(Ordering::Acquire) };
            if !next.is_null() {
                // Tail lags: help swing it forward and retry.
                let _ =
                    self.q
                        .tail
                        .compare_exchange(crq, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            // SAFETY: protected.
            if unsafe { (*crq).enqueue(v) } == CrqPush::Ok {
                self.hazard.clear(0);
                return;
            }
            // Ring closed: append a fresh CRQ seeded with our value.
            inject!("lcrq::enq::ring_closed");
            let fresh = crq_alloc(self.q.ring_order);
            // SAFETY: fresh is exclusively ours; seeding cannot fail on an
            // empty open ring.
            let seeded = unsafe { (*fresh).enqueue(v) };
            debug_assert_eq!(seeded, CrqPush::Ok);
            // SAFETY: crq protected.
            if unsafe {
                (*crq)
                    .next
                    .compare_exchange(
                        core::ptr::null_mut(),
                        fresh,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
            } {
                let _ =
                    self.q
                        .tail
                        .compare_exchange(crq, fresh, Ordering::SeqCst, Ordering::SeqCst);
                self.hazard.clear(0);
                return;
            }
            // Lost the append race; discard ours and retry on the winner.
            // SAFETY: never published.
            unsafe { drop(Box::from_raw(fresh)) };
        }
    }

    /// Dequeues the oldest value.
    pub fn dequeue(&mut self) -> Option<u64> {
        loop {
            let crq = self.hazard.protect(0, &self.q.head);
            // SAFETY: protected.
            if let Some(v) = unsafe { (*crq).dequeue() } {
                self.hazard.clear(0);
                return Some(v);
            }
            // This ring observed empty. If it has no successor the whole
            // queue is empty; otherwise the ring is closed and drained, so
            // unlink and retire it.
            // SAFETY: protected.
            let next = unsafe { (*crq).next.load(Ordering::Acquire) };
            if next.is_null() {
                self.hazard.clear(0);
                return None;
            }
            // A closed ring can still receive no new values; but a value
            // enqueued concurrently before the close must not be skipped —
            // re-check emptiness now that we know a successor exists.
            // SAFETY: protected.
            if let Some(v) = unsafe { (*crq).dequeue() } {
                self.hazard.clear(0);
                return Some(v);
            }
            inject!("lcrq::deq::pre_unlink");
            if self
                .q
                .head
                .compare_exchange(crq, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: unlinked by our CAS; unreachable to new readers.
                unsafe { self.hazard.retire(crq as *mut u8, crq_deleter) };
            }
        }
    }
}

impl QueueHandle for LcrqHandle<'_> {
    fn enqueue(&mut self, v: u64) {
        LcrqHandle::enqueue(self, v);
    }
    fn dequeue(&mut self) -> Option<u64> {
        LcrqHandle::dequeue(self)
    }
}

impl BenchQueue for Lcrq {
    type Handle<'q> = LcrqHandle<'q>;
    const NAME: &'static str = "LCRQ";
    fn new() -> Self {
        Lcrq::new()
    }
    fn register(&self) -> Self::Handle<'_> {
        Lcrq::register(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use wfq_sync::Deadline;

    #[test]
    fn fifo_single_thread() {
        conformance::fifo_single_thread::<Lcrq>();
    }

    #[test]
    fn interleaved() {
        conformance::interleaved_single_thread::<Lcrq>();
    }

    #[test]
    fn batch_roundtrip() {
        conformance::batch_roundtrip::<Lcrq>();
    }

    #[test]
    fn mpmc_conservation() {
        conformance::mpmc_conservation::<Lcrq>(2, 2, 3_000);
    }

    #[test]
    fn survives_ring_transitions() {
        // Tiny rings force frequent close-and-append.
        let q = Lcrq::with_ring_order(3);
        let mut h = q.register();
        for v in 1..=5_000u64 {
            h.enqueue(v);
        }
        for v in 1..=5_000u64 {
            assert_eq!(h.dequeue(), Some(v), "lost order at {v}");
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn ring_transitions_under_concurrency() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q = Lcrq::with_ring_order(4);
        let sum = AtomicU64::new(0);
        const TOTAL: u64 = 8_000;
        let deadline = Deadline::new();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..TOTAL / 2 {
                        h.enqueue(t * (TOTAL / 2) + v + 1);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum = &sum;
                s.spawn(move || {
                    let mut h = q.register();
                    let mut got = 0;
                    while got < TOTAL / 2 {
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got += 1;
                        } else {
                            deadline
                                .check(|| format!("a consumer's {got} of {} values", TOTAL / 2));
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=TOTAL).sum::<u64>());
    }

    #[test]
    fn drop_with_leftovers() {
        let q = Lcrq::with_ring_order(3);
        let mut h = q.register();
        for v in 1..=1_000 {
            h.enqueue(v);
        }
        drop(h);
        drop(q);
    }
}
