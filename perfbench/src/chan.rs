//! The queue as the workloads see it.
//!
//! Each workload is written once against [`Chan`] and runs on the real
//! queue; the benchmark's tests run the same code on faulty stand-ins to
//! show the delivery check convicts them. Monomorphisation makes the
//! indirection free: a [`Port`] call on [`RawQueue`] is a direct
//! `Handle` call.

use wfqueue::{Gauges, Handle, LocalHandle, QueueStats, RawQueue, WfQueue};

/// The `handoff` payload: the producer's sequence number and the instant
/// (in [`crate::sys::now_ns`] time) the message was due to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    pub seq: u64,
    pub due_ns: u64,
}

/// The queue's own counters, read at phase boundaries.
pub trait Counters {
    fn stats(&self) -> QueueStats;
    fn gauges(&self) -> Gauges;
}

/// A queue carrying values of type `T`.
pub trait Chan<T>: Counters + Sync {
    type Port<'a>: Port<T>
    where
        Self: 'a;

    /// Registers the calling thread.
    fn port(&self) -> Self::Port<'_>;
}

/// One thread's handle on a [`Chan`].
pub trait Port<T> {
    fn send(&mut self, v: T);
    fn recv(&mut self) -> Option<T>;
}

impl Counters for RawQueue {
    fn stats(&self) -> QueueStats {
        RawQueue::stats(self)
    }
    fn gauges(&self) -> Gauges {
        RawQueue::gauges(self)
    }
}

impl Chan<u64> for RawQueue {
    type Port<'a> = Handle<'a>;
    fn port(&self) -> Handle<'_> {
        self.register()
    }
}

impl Port<u64> for Handle<'_> {
    #[inline]
    fn send(&mut self, v: u64) {
        self.enqueue(v);
    }
    #[inline]
    fn recv(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl<T: Send> Counters for WfQueue<T> {
    fn stats(&self) -> QueueStats {
        WfQueue::stats(self)
    }
    fn gauges(&self) -> Gauges {
        WfQueue::gauges(self)
    }
}

impl<T: Send> Chan<T> for WfQueue<T> {
    type Port<'a>
        = LocalHandle<'a, T>
    where
        T: 'a;
    fn port(&self) -> LocalHandle<'_, T> {
        self.handle()
    }
}

impl<T: Send> Port<T> for LocalHandle<'_, T> {
    #[inline]
    fn send(&mut self, v: T) {
        self.enqueue(v);
    }
    #[inline]
    fn recv(&mut self) -> Option<T> {
        self.dequeue()
    }
}

/// Faulty stand-ins for the negative controls.
#[cfg(test)]
pub mod faulty {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// What a stand-in does wrong.
    #[derive(Clone, Copy)]
    pub enum Fault {
        /// Drops every `n`-th value sent.
        DropEvery(u64),
        /// Sends the `k`-th value twice.
        Duplicate(u64),
    }

    /// A queue that mishandles values as `fault` says.
    pub struct Faulty<C> {
        pub inner: C,
        pub fault: Fault,
        sent: AtomicU64,
    }

    impl<C> Faulty<C> {
        pub fn new(inner: C, fault: Fault) -> Self {
            Self {
                inner,
                fault,
                sent: AtomicU64::new(0),
            }
        }
    }

    pub struct FaultyPort<'a, P> {
        inner: P,
        fault: Fault,
        sent: &'a AtomicU64,
    }

    impl<C: Counters> Counters for Faulty<C> {
        fn stats(&self) -> QueueStats {
            self.inner.stats()
        }
        fn gauges(&self) -> Gauges {
            self.inner.gauges()
        }
    }

    impl<T: Copy, C: Chan<T>> Chan<T> for Faulty<C> {
        type Port<'a>
            = FaultyPort<'a, C::Port<'a>>
        where
            Self: 'a;
        fn port(&self) -> Self::Port<'_> {
            FaultyPort {
                inner: self.inner.port(),
                fault: self.fault,
                sent: &self.sent,
            }
        }
    }

    impl<T: Copy, P: Port<T>> Port<T> for FaultyPort<'_, P> {
        fn send(&mut self, v: T) {
            let i = self.sent.fetch_add(1, Ordering::Relaxed) + 1;
            match self.fault {
                Fault::DropEvery(n) if i.is_multiple_of(n) => {}
                Fault::Duplicate(k) if i == k => {
                    self.inner.send(v);
                    self.inner.send(v);
                }
                _ => self.inner.send(v),
            }
        }
        fn recv(&mut self) -> Option<T> {
            self.inner.recv()
        }
    }
}
