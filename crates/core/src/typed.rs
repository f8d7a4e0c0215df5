//! Typed, owning wrapper over the raw queue.
//!
//! The paper's queue transfers `void*` payloads; [`WfQueue<T>`] recovers a
//! safe Rust API by boxing each value and shipping the pointer through the
//! raw queue (a box pointer is never `0` or `u64::MAX`, the two reserved
//! patterns). Leftover values are drained and dropped when the queue drops.

use core::marker::PhantomData;

use crate::config::Config;
use crate::full::Full;
use crate::raw::{Handle, RawQueue};
use crate::stats::{Gauges, QueueStats};
use crate::DEFAULT_SEGMENT_SIZE;

/// A wait-free MPMC FIFO queue of `T`.
///
/// Operations go through per-thread [`LocalHandle`]s obtained with
/// [`WfQueue::handle`]:
///
/// ```
/// use wfqueue::WfQueue;
/// let q: WfQueue<String> = WfQueue::new();
/// let mut h = q.handle();
/// h.enqueue("hello".to_string());
/// assert_eq!(h.dequeue().as_deref(), Some("hello"));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct WfQueue<T, const N: usize = DEFAULT_SEGMENT_SIZE> {
    raw: RawQueue<N>,
    _values: PhantomData<T>,
}

// SAFETY: values cross threads through the queue, hence `T: Send`; the
// queue adds no shared mutable access to any individual `T`.
unsafe impl<T: Send, const N: usize> Send for WfQueue<T, N> {}
unsafe impl<T: Send, const N: usize> Sync for WfQueue<T, N> {}

/// A registered per-thread handle to a [`WfQueue`].
pub struct LocalHandle<'q, T, const N: usize = DEFAULT_SEGMENT_SIZE> {
    raw: Handle<'q, N>,
    _values: PhantomData<&'q WfQueue<T, N>>,
}

impl<T: Send> WfQueue<T> {
    /// Creates an empty queue with the default configuration (the paper's
    /// WF-10: segment size 2^10, patience 10).
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }
}

impl<T: Send> Default for WfQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, const N: usize> WfQueue<T, N> {
    /// Creates an empty queue with an explicit configuration.
    pub fn with_config(config: Config) -> Self {
        Self {
            raw: RawQueue::with_config(config),
            _values: PhantomData,
        }
    }

    /// Registers the calling context. One handle per thread; see
    /// [`RawQueue::register`] for the (non-wait-free) registration caveat.
    pub fn handle(&self) -> LocalHandle<'_, T, N> {
        LocalHandle {
            raw: self.raw.register(),
            _values: PhantomData,
        }
    }

    /// Advisory emptiness check (exact only under external quiescence).
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Aggregated execution-path statistics (paper Table 2).
    pub fn stats(&self) -> QueueStats {
        self.raw.stats()
    }

    /// Instantaneous gauge snapshot (see [`RawQueue::gauges`]); includes
    /// the bounded-mode pool occupancy and ceiling headroom.
    pub fn gauges(&self) -> Gauges {
        self.raw.gauges()
    }

    /// This queue's configuration.
    pub fn config(&self) -> Config {
        self.raw.config()
    }

    /// Approximate number of enqueued-but-unconsumed values (see
    /// [`RawQueue::len_hint`] for the precise meaning).
    pub fn len_hint(&self) -> u64 {
        self.raw.len_hint()
    }

    /// Access to the underlying raw queue (used by the owned-handle API).
    pub(crate) fn raw(&self) -> &RawQueue<N> {
        &self.raw
    }

    /// Drains every value currently in the queue (exclusive access, so
    /// the drain is exact and terminates).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        let mut h = self.raw.register();
        while let Some(bits) = h.dequeue() {
            // SAFETY: unique ownership — see LocalHandle::dequeue.
            out.push(unsafe { *Box::from_raw(bits as *mut T) });
        }
        out
    }
}

impl<T: Send, const N: usize> LocalHandle<'_, T, N> {
    /// Enqueues `value` at the tail. Wait-free (one allocation for the box,
    /// then the paper's bounded-step algorithm).
    pub fn enqueue(&mut self, value: T) {
        let ptr = Box::into_raw(Box::new(value));
        // A Box pointer is non-null and, being a valid address, never
        // u64::MAX — so it avoids both reserved patterns.
        self.raw.enqueue(ptr as u64);
    }

    /// Enqueues `value`, failing fast with [`Full`] — which returns the
    /// value to the caller — when the queue's segment ceiling is reached
    /// and no headroom can be recovered (see
    /// [`Config::with_segment_ceiling`]). Never fails on an unbounded
    /// queue.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let ptr = Box::into_raw(Box::new(value));
        self.raw.try_enqueue(ptr as u64).map_err(|Full(())| {
            // SAFETY: the rejected value never entered the queue; the box
            // we just leaked is still exclusively ours.
            Full(unsafe { *Box::from_raw(ptr as *mut T) })
        })
    }

    /// Dequeues the value at the head, or `None` if the queue was observed
    /// empty. Wait-free.
    pub fn dequeue(&mut self) -> Option<T> {
        self.raw.dequeue().map(|bits| {
            // SAFETY: every non-sentinel value in the raw queue was created
            // by Box::into_raw in enqueue above, and the raw queue delivers
            // each value exactly once (linearizability), so this is the
            // unique owner.
            unsafe { *Box::from_raw(bits as *mut T) }
        })
    }

    /// Enqueues every value in `values`, in order, claiming all the cells
    /// with **one FAA** (see [`Handle::enqueue_batch`] and DESIGN.md §10).
    /// The batch is contiguous in the FIFO order unless a concurrent
    /// dequeuer poisons a pre-claimed cell, in which case the affected
    /// suffix falls back to element-wise enqueues (still FIFO within the
    /// batch). Wait-free.
    pub fn enqueue_batch(&mut self, values: Vec<T>) {
        let ptrs: Vec<u64> = values
            .into_iter()
            .map(|v| Box::into_raw(Box::new(v)) as u64)
            .collect();
        self.raw.enqueue_batch(&ptrs);
    }

    /// Like [`enqueue_batch`](Self::enqueue_batch), but fails fast with
    /// [`Full`] — handing the whole batch back, in order, with no element
    /// published — when the queue's segment ceiling leaves less than
    /// `⌈values.len() / N⌉` segments of headroom. Never fails on an
    /// unbounded queue.
    pub fn try_enqueue_batch(&mut self, values: Vec<T>) -> Result<(), Full<Vec<T>>> {
        let ptrs: Vec<u64> = values
            .into_iter()
            .map(|v| Box::into_raw(Box::new(v)) as u64)
            .collect();
        self.raw.try_enqueue_batch(&ptrs).map_err(|Full(())| {
            // SAFETY: rejection is all-or-nothing and happens before any
            // cell claim; every box is still exclusively ours.
            Full(
                ptrs.iter()
                    .map(|&p| unsafe { *Box::from_raw(p as *mut T) })
                    .collect(),
            )
        })
    }

    /// Dequeues up to `max` values into `out` with **one FAA**, returning
    /// how many were appended (see [`Handle::dequeue_batch`]). Returns 0
    /// only when the queue was observed empty. Wait-free.
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut bits = Vec::with_capacity(max);
        let n = self.raw.dequeue_batch(&mut bits, max);
        out.extend(bits.into_iter().map(|b| {
            // SAFETY: same unique-ownership argument as `dequeue`.
            unsafe { *Box::from_raw(b as *mut T) }
        }));
        n
    }
}

impl<T, const N: usize> Drop for WfQueue<T, N> {
    fn drop(&mut self) {
        // Drain and drop leftover values. &mut self: no concurrent access,
        // so dequeue-until-EMPTY terminates and misses nothing.
        let mut h = self.raw.register();
        while let Some(bits) = h.dequeue() {
            // SAFETY: same ownership argument as LocalHandle::dequeue.
            unsafe { drop(Box::from_raw(bits as *mut T)) };
        }
        drop(h);
        // RawQueue::drop frees segments and handle nodes.
    }
}

impl<T: Send, const N: usize> core::fmt::Debug for WfQueue<T, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WfQueue")
            .field("raw", &self.raw)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn typed_fifo_roundtrip() {
        let q: WfQueue<u32> = WfQueue::new();
        let mut h = q.handle();
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn owns_heap_values() {
        let q: WfQueue<Vec<String>> = WfQueue::new();
        let mut h = q.handle();
        h.enqueue(vec!["a".into(), "b".into()]);
        assert_eq!(h.dequeue(), Some(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn zero_and_max_like_values_are_fine_when_typed() {
        // The raw sentinels must not leak into the typed API.
        let q: WfQueue<u64> = WfQueue::new();
        let mut h = q.handle();
        h.enqueue(0);
        h.enqueue(u64::MAX);
        assert_eq!(h.dequeue(), Some(0));
        assert_eq!(h.dequeue(), Some(u64::MAX));
    }

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn leftover_values_drop_with_the_queue() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: WfQueue<DropCounter> = WfQueue::new();
            let mut h = q.handle();
            for _ in 0..10 {
                h.enqueue(DropCounter(Arc::clone(&drops)));
            }
            let taken = h.dequeue();
            assert!(taken.is_some());
            drop(taken);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            drop(h);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10, "queue drop must drain");
    }

    #[test]
    fn dequeued_values_drop_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q: WfQueue<DropCounter> = WfQueue::new();
        std::thread::scope(|s| {
            let producers = 2;
            let per = 500;
            for _ in 0..producers {
                let q = &q;
                let drops = &drops;
                s.spawn(move || {
                    let mut h = q.handle();
                    for _ in 0..per {
                        h.enqueue(DropCounter(Arc::clone(drops)));
                    }
                });
            }
            let consumed = AtomicUsize::new(0);
            let consumed = &consumed;
            let deadline = wfq_sync::Deadline::new();
            std::thread::scope(|s2| {
                for _ in 0..2 {
                    let q = &q;
                    s2.spawn(move || {
                        let mut h = q.handle();
                        while consumed.load(Ordering::Relaxed) < producers * per {
                            if h.dequeue().is_some() {
                                consumed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                deadline.check(|| {
                                    let got = consumed.load(Ordering::Relaxed);
                                    format!("{got} of {} values", producers * per)
                                });
                            }
                        }
                    });
                }
            });
        });
        assert_eq!(drops.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn typed_batches_roundtrip_heap_values() {
        let q: WfQueue<String> = WfQueue::new();
        let mut h = q.handle();
        h.enqueue_batch((0..20).map(|i| format!("v{i}")).collect());
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 8);
        assert_eq!(h.dequeue_batch(&mut out, 64), 12);
        let expect: Vec<String> = (0..20).map(|i| format!("v{i}")).collect();
        assert_eq!(out, expect);
        assert_eq!(h.dequeue_batch(&mut out, 4), 0);
    }

    #[test]
    fn typed_try_enqueue_batch_returns_whole_batch_on_full() {
        // Ceiling of 1 segment on a 4-cell queue: a 9-value batch needs
        // ⌈9/4⌉ = 3 segments of headroom and must bounce untouched.
        let q: WfQueue<String, 4> =
            WfQueue::with_config(Config::default().with_segment_ceiling(1));
        let mut h = q.handle();
        let batch: Vec<String> = (0..9).map(|i| format!("b{i}")).collect();
        let Err(Full(back)) = h.try_enqueue_batch(batch.clone()) else {
            panic!("expected Full");
        };
        assert_eq!(back, batch, "rejected batch must come back in order");
        assert!(q.is_empty(), "no element may have been published");
    }

    #[test]
    fn typed_batch_values_drop_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: WfQueue<DropCounter> = WfQueue::new();
            let mut h = q.handle();
            h.enqueue_batch((0..6).map(|_| DropCounter(Arc::clone(&drops))).collect());
            let mut out = Vec::new();
            assert_eq!(h.dequeue_batch(&mut out, 2), 2);
            drop(out);
            assert_eq!(drops.load(Ordering::Relaxed), 2);
            drop(h);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 6, "queue drop drains the rest");
    }

    #[test]
    fn mpmc_string_traffic() {
        let q: WfQueue<String> = WfQueue::new();
        let total = AtomicUsize::new(0);
        let deadline = wfq_sync::Deadline::new();
        std::thread::scope(|s| {
            for t in 0..3 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..300 {
                        h.enqueue(format!("{t}-{i}"));
                    }
                });
            }
            for _ in 0..3 {
                let q = &q;
                let total = &total;
                s.spawn(move || {
                    let mut h = q.handle();
                    let mut got = 0;
                    while got < 300 {
                        if let Some(v) = h.dequeue() {
                            assert!(v.contains('-'));
                            got += 1;
                        } else {
                            deadline.check(|| format!("a consumer's {got} of 300 values"));
                        }
                    }
                    total.fetch_add(got, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 900);
        assert!(q.is_empty());
    }
}
