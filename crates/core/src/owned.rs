//! Owned (Arc-backed) handles.
//!
//! [`crate::Handle`] and [`crate::LocalHandle`] borrow the queue, which is
//! perfect with scoped threads but awkward for detached workers. The owned
//! variants bundle an `Arc` of the queue with the registered ring node, so
//! a handle can be moved into a `std::thread::spawn` closure and the queue
//! lives exactly as long as its last user.
//!
//! ```
//! use std::sync::Arc;
//! use wfqueue::WfQueue;
//!
//! let q = Arc::new(WfQueue::new());
//! let mut producer = wfqueue::OwnedLocalHandle::new(Arc::clone(&q));
//! let worker = std::thread::spawn(move || {
//!     producer.enqueue(7u32);
//! });
//! worker.join().unwrap();
//! let mut h = q.handle();
//! assert_eq!(h.dequeue(), Some(7));
//! ```

use std::sync::Arc;

use crate::full::Full;
use crate::handle::HandleNode;
use crate::raw::RawQueue;
use crate::typed::WfQueue;
use crate::DEFAULT_SEGMENT_SIZE;

/// An owning per-thread handle to an `Arc<RawQueue>`.
pub struct OwnedHandle<const N: usize = DEFAULT_SEGMENT_SIZE> {
    queue: Arc<RawQueue<N>>,
    node: *mut HandleNode<N>,
}

// SAFETY: exclusive capability over the node; &mut receivers prevent
// concurrent use; the Arc keeps the queue (and thus the node) alive.
unsafe impl<const N: usize> Send for OwnedHandle<N> {}

impl<const N: usize> OwnedHandle<N> {
    /// Registers a new owned handle on `queue`.
    pub fn new(queue: Arc<RawQueue<N>>) -> Self {
        let node = queue.acquire_node();
        Self { queue, node }
    }

    /// Enqueues `v`. Wait-free. Panics on the reserved patterns
    /// (`0`, `u64::MAX`).
    #[inline]
    pub fn enqueue(&mut self, v: u64) {
        // SAFETY: node is live while the Arc'd queue lives.
        self.queue.enqueue_internal(unsafe { &*self.node }, v);
    }

    /// Enqueues `v`, failing fast with [`Full`] at the segment ceiling
    /// (see [`Handle::try_enqueue`](crate::Handle::try_enqueue)).
    #[inline]
    pub fn try_enqueue(&mut self, v: u64) -> Result<(), Full> {
        // SAFETY: node is live while the Arc'd queue lives.
        self.queue.try_enqueue_internal(unsafe { &*self.node }, v)
    }

    /// Dequeues the oldest value, or `None` if observed empty. Wait-free.
    #[inline]
    pub fn dequeue(&mut self) -> Option<u64> {
        // SAFETY: as above.
        self.queue.dequeue_internal(unsafe { &*self.node })
    }

    /// Enqueues every value in `vs` with one FAA (see
    /// [`Handle::enqueue_batch`](crate::Handle::enqueue_batch)).
    #[inline]
    pub fn enqueue_batch(&mut self, vs: &[u64]) {
        // SAFETY: node is live while the Arc'd queue lives.
        self.queue.enqueue_batch_internal(unsafe { &*self.node }, vs);
    }

    /// Batch analogue of [`try_enqueue`](Self::try_enqueue): all-or-nothing
    /// admission against the segment ceiling, before any cell is claimed.
    #[inline]
    pub fn try_enqueue_batch(&mut self, vs: &[u64]) -> Result<(), Full> {
        // SAFETY: as above.
        self.queue
            .try_enqueue_batch_internal(unsafe { &*self.node }, vs)
    }

    /// Dequeues up to `max` values into `out` with one FAA, returning how
    /// many were appended (see
    /// [`Handle::dequeue_batch`](crate::Handle::dequeue_batch)).
    #[inline]
    pub fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        // SAFETY: as above.
        self.queue
            .dequeue_batch_internal(unsafe { &*self.node }, out, max)
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &Arc<RawQueue<N>> {
        &self.queue
    }
}

impl<const N: usize> Drop for OwnedHandle<N> {
    fn drop(&mut self) {
        self.queue.release_node(self.node);
    }
}

/// An owning per-thread handle to an `Arc<WfQueue<T>>`.
pub struct OwnedLocalHandle<T: Send, const N: usize = DEFAULT_SEGMENT_SIZE> {
    queue: Arc<WfQueue<T, N>>,
    node: *mut HandleNode<N>,
}

// SAFETY: as for OwnedHandle; values are boxed and uniquely owned in
// transit.
unsafe impl<T: Send, const N: usize> Send for OwnedLocalHandle<T, N> {}

impl<T: Send, const N: usize> OwnedLocalHandle<T, N> {
    /// Registers a new owned handle on `queue`.
    pub fn new(queue: Arc<WfQueue<T, N>>) -> Self {
        let node = queue.raw().acquire_node();
        Self { queue, node }
    }

    /// Enqueues `value` at the tail. Wait-free after the box allocation.
    pub fn enqueue(&mut self, value: T) {
        let ptr = Box::into_raw(Box::new(value));
        // SAFETY: node live while the Arc'd queue lives; box pointers
        // avoid both reserved bit patterns.
        self.queue
            .raw()
            .enqueue_internal(unsafe { &*self.node }, ptr as u64);
    }

    /// Enqueues `value`, failing fast with [`Full`] — which hands the
    /// value back — at the segment ceiling (see
    /// [`LocalHandle::try_enqueue`](crate::LocalHandle::try_enqueue)).
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let ptr = Box::into_raw(Box::new(value));
        // SAFETY: node live while the Arc'd queue lives.
        self.queue
            .raw()
            .try_enqueue_internal(unsafe { &*self.node }, ptr as u64)
            .map_err(|Full(())| {
                // SAFETY: the rejected value never entered the queue; the
                // box is still exclusively ours.
                Full(unsafe { *Box::from_raw(ptr as *mut T) })
            })
    }

    /// Dequeues the oldest value, or `None` if observed empty. Wait-free.
    pub fn dequeue(&mut self) -> Option<T> {
        // SAFETY: node live as above.
        self.queue
            .raw()
            .dequeue_internal(unsafe { &*self.node })
            .map(|bits| {
                // SAFETY: unique ownership — see LocalHandle::dequeue.
                unsafe { *Box::from_raw(bits as *mut T) }
            })
    }

    /// Enqueues every value in `values` with one FAA (see
    /// [`LocalHandle::enqueue_batch`](crate::LocalHandle::enqueue_batch)).
    pub fn enqueue_batch(&mut self, values: Vec<T>) {
        let ptrs: Vec<u64> = values
            .into_iter()
            .map(|v| Box::into_raw(Box::new(v)) as u64)
            .collect();
        // SAFETY: node live while the Arc'd queue lives.
        self.queue
            .raw()
            .enqueue_batch_internal(unsafe { &*self.node }, &ptrs);
    }

    /// Batch analogue of [`try_enqueue`](Self::try_enqueue): on [`Full`]
    /// the whole batch comes back, in order, with no element published.
    pub fn try_enqueue_batch(&mut self, values: Vec<T>) -> Result<(), Full<Vec<T>>> {
        let ptrs: Vec<u64> = values
            .into_iter()
            .map(|v| Box::into_raw(Box::new(v)) as u64)
            .collect();
        // SAFETY: node live while the Arc'd queue lives.
        self.queue
            .raw()
            .try_enqueue_batch_internal(unsafe { &*self.node }, &ptrs)
            .map_err(|Full(())| {
                // SAFETY: rejection happens before any cell claim; every
                // box is still exclusively ours.
                Full(
                    ptrs.iter()
                        .map(|&p| unsafe { *Box::from_raw(p as *mut T) })
                        .collect(),
                )
            })
    }

    /// Dequeues up to `max` values into `out` with one FAA, returning how
    /// many were appended (see
    /// [`LocalHandle::dequeue_batch`](crate::LocalHandle::dequeue_batch)).
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut bits = Vec::with_capacity(max);
        // SAFETY: node live as above.
        let n = self
            .queue
            .raw()
            .dequeue_batch_internal(unsafe { &*self.node }, &mut bits, max);
        out.extend(bits.into_iter().map(|b| {
            // SAFETY: unique ownership — see LocalHandle::dequeue.
            unsafe { *Box::from_raw(b as *mut T) }
        }));
        n
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &Arc<WfQueue<T, N>> {
        &self.queue
    }
}

impl<T: Send, const N: usize> Drop for OwnedLocalHandle<T, N> {
    fn drop(&mut self) {
        self.queue.raw().release_node(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_raw_handle_moves_into_spawned_threads() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let mut producer = OwnedHandle::new(Arc::clone(&q));
        let mut consumer = OwnedHandle::new(Arc::clone(&q));
        let p = std::thread::spawn(move || {
            for v in 1..=1000 {
                producer.enqueue(v);
            }
        });
        let c = std::thread::spawn(move || {
            let deadline = wfq_sync::Deadline::new();
            let mut got = 0u64;
            let mut sum = 0u64;
            while got < 1000 {
                if let Some(v) = consumer.dequeue() {
                    sum += v;
                    got += 1;
                } else {
                    deadline.check(|| format!("{got} of 1000 values"));
                }
            }
            sum
        });
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn owned_typed_handle_roundtrip() {
        let q: Arc<WfQueue<String>> = Arc::new(WfQueue::new());
        let mut h = OwnedLocalHandle::new(Arc::clone(&q));
        h.enqueue("x".to_string());
        assert_eq!(h.dequeue().as_deref(), Some("x"));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn owned_handles_batch_across_spawned_threads() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let mut producer = OwnedHandle::new(Arc::clone(&q));
        let mut consumer = OwnedHandle::new(Arc::clone(&q));
        let p = std::thread::spawn(move || {
            let vals: Vec<u64> = (1..=1000).collect();
            for chunk in vals.chunks(16) {
                producer.enqueue_batch(chunk);
            }
        });
        let c = std::thread::spawn(move || {
            let deadline = wfq_sync::Deadline::new();
            let mut sum = 0u64;
            let mut got = 0usize;
            let mut out = Vec::new();
            while got < 1000 {
                out.clear();
                match consumer.dequeue_batch(&mut out, 16) {
                    0 => deadline.check(|| format!("{got} of 1000 values")),
                    n => got += n,
                }
                sum += out.iter().sum::<u64>();
            }
            sum
        });
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn owned_typed_batch_roundtrip_and_bounce() {
        let q: Arc<WfQueue<String, 4>> = Arc::new(WfQueue::with_config(
            crate::Config::default().with_segment_ceiling(1),
        ));
        let mut h = OwnedLocalHandle::new(Arc::clone(&q));
        let batch: Vec<String> = (0..9).map(|i| format!("o{i}")).collect();
        let Err(Full(back)) = h.try_enqueue_batch(batch.clone()) else {
            panic!("expected Full");
        };
        assert_eq!(back, batch);
        h.enqueue_batch(batch.clone()); // plain batch ignores the gate
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 16), 9);
        assert_eq!(out, batch);
    }

    #[test]
    fn queue_outlives_via_arc_even_after_local_drop() {
        let mut h = {
            let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
            OwnedHandle::new(q) // the only Arc moves in
        };
        h.enqueue(5);
        assert_eq!(h.dequeue(), Some(5));
    }

    #[test]
    fn owned_handles_recycle_nodes() {
        let q: Arc<RawQueue<64>> = Arc::new(RawQueue::new());
        let n1 = {
            let h = OwnedHandle::new(Arc::clone(&q));
            h.node
        };
        let h2 = OwnedHandle::new(Arc::clone(&q));
        assert_eq!(h2.node, n1);
    }
}
