//! Epoch-based reclamation (Fraser 2004 / Harris 2001 style).
//!
//! The paper's §3.6 positions its custom scheme against "other epoch-based
//! memory reclamation strategies": classic EBR needs a fence on *every*
//! critical-section entry, while the paper's scheme rides the queue's own
//! FAA on the x86 fast path. This module provides that classic EBR so the
//! comparison is concrete and measurable in-repo (see the `reclaim`
//! criterion group): the MS-Queue baseline can run over either hazard
//! pointers or EBR.
//!
//! Design (three-epoch scheme):
//!
//! - A global epoch counter advances when every *pinned* participant has
//!   been observed in the current epoch.
//! - Threads **pin** before touching shared nodes and unpin after; retired
//!   garbage is tagged with the epoch at retirement and freed once the
//!   global epoch has advanced twice past it (no pinned thread can still
//!   hold a reference).
//! - Unlike hazard pointers, readers never announce *which* nodes they
//!   use — reclamation stalls while any thread stays pinned (the paper's
//!   "thread failure" caveat applies to EBR far more than to HP).

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};

use crate::Deleter;

/// Number of epoch generations garbage must age before freeing.
const GRACE: u64 = 2;
/// Retire-buffer length that triggers a collection attempt.
const COLLECT_THRESHOLD: usize = 64;

struct EbrRecord {
    /// Odd = pinned at epoch `value >> 1`; even = unpinned.
    local: AtomicU64,
    active: AtomicBool,
    next: AtomicPtr<EbrRecord>,
}

struct EbrRetired {
    ptr: *mut u8,
    deleter: Deleter,
    epoch: u64,
}

/// An epoch-based reclamation domain.
pub struct EbrDomain {
    epoch: AtomicU64,
    records: AtomicPtr<EbrRecord>,
}

// SAFETY: record list is append-only and atomic; garbage is owned by one
// participant until freed.
unsafe impl Send for EbrDomain {}
unsafe impl Sync for EbrDomain {}

impl Default for EbrDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl EbrDomain {
    /// Creates an empty domain at epoch 0.
    pub const fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            records: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// Registers a participant.
    pub fn register(&self) -> EbrThread<'_> {
        // Adopt an inactive record if possible.
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live while the domain lives.
            let rec = unsafe { &*cur };
            if !rec.active.load(Ordering::Relaxed)
                && rec
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return EbrThread {
                    domain: self,
                    record: cur,
                    retired: Vec::new(),
                    pins: 0,
                };
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        let rec = Box::into_raw(Box::new(EbrRecord {
            local: AtomicU64::new(0),
            active: AtomicBool::new(true),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }));
        let mut head = self.records.load(Ordering::Acquire);
        loop {
            // SAFETY: rec exclusively owned until published.
            unsafe { (*rec).next.store(head, Ordering::Relaxed) };
            match self
                .records
                .compare_exchange(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        EbrThread {
            domain: self,
            record: rec,
            retired: Vec::new(),
            pins: 0,
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Tries to advance the global epoch: succeeds iff every pinned
    /// participant has been observed in the current epoch.
    fn try_advance(&self) -> u64 {
        let global = self.epoch.load(Ordering::SeqCst);
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live while the domain lives.
            let rec = unsafe { &*cur };
            let local = rec.local.load(Ordering::SeqCst);
            if local & 1 == 1 && local >> 1 != global {
                return global; // a straggler pins an older epoch
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        let _ = self.epoch.compare_exchange(
            global,
            global + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.epoch.load(Ordering::SeqCst)
    }
}

impl Drop for EbrDomain {
    fn drop(&mut self) {
        let mut cur = *self.records.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access at drop.
            let next = unsafe { *(*cur).next.as_ptr() };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

/// A participant in an [`EbrDomain`].
pub struct EbrThread<'d> {
    domain: &'d EbrDomain,
    record: *mut EbrRecord,
    retired: Vec<EbrRetired>,
    pins: u64,
}

// SAFETY: the record is exclusively owned by this participant.
unsafe impl Send for EbrThread<'_> {}

/// RAII guard for a pinned critical section.
pub struct EbrGuard<'a, 'd> {
    thread: &'a EbrThread<'d>,
}

impl EbrThread<'_> {
    /// Pins this thread: shared nodes read under the returned guard stay
    /// valid until the guard drops. This is the operation that costs a
    /// full fence per critical section — the overhead the paper's custom
    /// scheme avoids on x86.
    #[inline]
    pub fn pin(&self) -> EbrGuard<'_, '_> {
        let global = self.domain.epoch.load(Ordering::Relaxed);
        // SAFETY: record lives while the domain lives.
        unsafe {
            (*self.record)
                .local
                .store((global << 1) | 1, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
        // Re-read: if the epoch moved between load and publish, re-publish
        // so try_advance never waits on a stale announcement.
        let fresh = self.domain.epoch.load(Ordering::SeqCst);
        if fresh != global {
            // SAFETY: as above.
            unsafe {
                (*self.record)
                    .local
                    .store((fresh << 1) | 1, Ordering::SeqCst);
            }
            fence(Ordering::SeqCst);
        }
        EbrGuard { thread: self }
    }

    /// Retires `ptr` for deferred freeing.
    ///
    /// # Safety
    /// `ptr` must be unlinked, not retired elsewhere, and valid for
    /// `deleter`.
    pub unsafe fn retire(&mut self, ptr: *mut u8, deleter: Deleter) {
        let epoch = self.domain.epoch();
        self.retired.push(EbrRetired { ptr, deleter, epoch });
        self.pins += 1;
        if self.retired.len() >= COLLECT_THRESHOLD {
            self.collect();
        }
    }

    /// Attempts to advance the epoch and frees sufficiently aged garbage.
    pub fn collect(&mut self) {
        let global = self.domain.try_advance();
        let mut kept = Vec::with_capacity(self.retired.len());
        for r in self.retired.drain(..) {
            if global >= r.epoch + GRACE {
                // SAFETY: retired at epoch r.epoch; every participant has
                // since been observed in a newer epoch twice, so no live
                // reference can remain.
                unsafe { (r.deleter)(r.ptr) };
            } else {
                kept.push(r);
            }
        }
        self.retired = kept;
    }

    /// Number of nodes awaiting reclamation (observability).
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }
}

impl Drop for EbrGuard<'_, '_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: record lives while the domain lives.
        unsafe {
            (*self.thread.record).local.store(
                self.thread.domain.epoch.load(Ordering::Relaxed) << 1,
                Ordering::Release,
            );
        }
    }
}

impl Drop for EbrThread<'_> {
    fn drop(&mut self) {
        // Age out what we can; hand anything left to a best-effort final
        // sweep (same rationale as HazardThread::drop).
        for _ in 0..64 {
            if self.retired.is_empty() {
                break;
            }
            self.collect();
            if !self.retired.is_empty() {
                std::thread::yield_now();
            }
        }
        for r in self.retired.drain(..) {
            // SAFETY: queue teardown quiescence; see HazardThread::drop.
            unsafe { (r.deleter)(r.ptr) };
        }
        // SAFETY: record stays in the domain for reuse.
        unsafe {
            (*self.record).local.store(0, Ordering::Release);
            (*self.record).active.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{boxed, count_deleter, Node};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn unpinned_garbage_ages_out() {
        let drops = AtomicUsize::new(0);
        let d = EbrDomain::new();
        let mut t = d.register();
        for i in 0..10 {
            unsafe { t.retire(boxed(i, &drops), count_deleter) };
        }
        // Each collect may advance the epoch once; after a few, the
        // garbage is two epochs old and freed.
        for _ in 0..4 {
            t.collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pinned_reader_blocks_the_epoch() {
        let drops = AtomicUsize::new(0);
        let d = EbrDomain::new();
        let reader = d.register();
        let mut writer = d.register();

        let guard = reader.pin();
        unsafe { writer.retire(boxed(1, &drops), count_deleter) };
        for _ in 0..8 {
            writer.collect();
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "pinned reader must hold the epoch back"
        );
        drop(guard);
        for _ in 0..4 {
            writer.collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn epoch_advances_with_active_pin_unpin_cycles() {
        let d = EbrDomain::new();
        let t = d.register();
        let e0 = d.epoch();
        for _ in 0..10 {
            let g = t.pin();
            drop(g);
            d.try_advance();
        }
        assert!(d.epoch() > e0);
    }

    #[test]
    fn records_recycle() {
        let d = EbrDomain::new();
        let r1 = {
            let t = d.register();
            t.record as usize
        };
        let t2 = d.register();
        assert_eq!(t2.record as usize, r1);
    }

    #[test]
    fn concurrent_readers_and_reclaimer() {
        let drops = AtomicUsize::new(0);
        let d = EbrDomain::new();
        let shared = AtomicPtr::new(boxed(0, &drops) as *mut Node);
        let iters = 2_000u64;
        std::thread::scope(|s| {
            {
                let d = &d;
                let shared = &shared;
                let drops = &drops;
                s.spawn(move || {
                    let mut t = d.register();
                    for i in 1..=iters {
                        let fresh = boxed(i, drops) as *mut Node;
                        let old = shared.swap(fresh, Ordering::AcqRel);
                        unsafe { t.retire(old as *mut u8, count_deleter) };
                    }
                    for _ in 0..8 {
                        t.collect();
                    }
                });
            }
            for _ in 0..2 {
                let d = &d;
                let shared = &shared;
                s.spawn(move || {
                    let t = d.register();
                    for _ in 0..iters {
                        let g = t.pin();
                        let p = shared.load(Ordering::Acquire);
                        // SAFETY: read under the pin; the swapper retires
                        // but EBR defers the free past our unpin.
                        let v = unsafe { (*p).v };
                        assert!(v <= iters);
                        drop(g);
                    }
                });
            }
        });
        let final_ptr = shared.load(Ordering::Acquire);
        unsafe { drop(Box::from_raw(final_ptr)) };
        assert_eq!(drops.load(Ordering::Relaxed), iters as usize);
    }
}
