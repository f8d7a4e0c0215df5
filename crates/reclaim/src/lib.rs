//! Hazard-pointer memory reclamation (Michael, TPDS 2004).
//!
//! The paper's evaluation insists that *"memory reclamation is an integral
//! responsibility of the queue algorithms"* and retrofits the hazard-pointer
//! scheme onto MS-Queue and LCRQ, which originally leaked (§5.1). This crate
//! is that retrofit substrate: a small, self-contained hazard-pointer
//! domain used by the baselines in `wfq-baselines`.
//!
//! Design:
//!
//! - A [`Domain`] owns a lock-free list of hazard-slot records, each with
//!   `K` pointer slots. Threads acquire a record ([`HazardThread`]) and
//!   recycle it on drop.
//! - [`HazardThread::protect`] publishes a pointer and re-validates it
//!   against the source location (the standard store–fence–reload loop).
//! - [`HazardThread::retire`] buffers a node with its deleter; once the
//!   buffer reaches the scan threshold, a scan collects all published
//!   hazards into a sorted vector and frees every retired node not present.
//!
//! This scheme is lock-free, not wait-free — fitting, since it backs the
//! *lock-free* baselines the paper compares against. A classic epoch-based
//! alternative lives in [`ebr`], so the fence-count comparison the paper
//! makes in §3.6 can be measured in-repo.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ebr;

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, Ordering};
use std::sync::atomic::AtomicUsize;

/// Number of hazard slots per thread record; two suffice for MS-Queue and
/// LCRQ (head + next traversal).
pub const SLOTS_PER_THREAD: usize = 2;

/// Retired-node deleter: reconstructs and frees the erased allocation.
pub type Deleter = unsafe fn(*mut u8);

struct Retired {
    ptr: *mut u8,
    deleter: Deleter,
}

/// One thread's hazard record, linked into the domain's global list.
struct Record {
    slots: [AtomicPtr<u8>; SLOTS_PER_THREAD],
    active: AtomicBool,
    next: AtomicPtr<Record>,
}

impl Record {
    fn new() -> Self {
        Self {
            slots: Default::default(),
            active: AtomicBool::new(true),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
}

/// A hazard-pointer domain. Typically one static or queue-owned domain per
/// data structure.
///
/// ```
/// use wfq_reclaim::Domain;
/// let domain = Domain::new();
/// let thread = domain.register();
/// // ... protect/retire through `thread` ...
/// # drop(thread);
/// ```
pub struct Domain {
    records: AtomicPtr<Record>,
    /// Number of records ever created (drives the scan threshold).
    record_count: AtomicUsize,
}

// SAFETY: all record access is via atomics; retired nodes are owned by
// exactly one HazardThread until freed.
unsafe impl Send for Domain {}
unsafe impl Sync for Domain {}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an empty domain.
    pub const fn new() -> Self {
        Self {
            records: AtomicPtr::new(core::ptr::null_mut()),
            record_count: AtomicUsize::new(0),
        }
    }

    /// Acquires a hazard record for the calling thread, reusing an inactive
    /// record if one exists (lock-free).
    pub fn register(&self) -> HazardThread<'_> {
        // Try to adopt an inactive record.
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records are never freed while the domain lives.
            let rec = unsafe { &*cur };
            if !rec.active.load(Ordering::Relaxed)
                && rec
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return HazardThread {
                    domain: self,
                    record: cur,
                    retired: Vec::new(),
                };
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        // None available: push a fresh record at the head.
        let rec = Box::into_raw(Box::new(Record::new()));
        let mut head = self.records.load(Ordering::Acquire);
        loop {
            // SAFETY: rec is exclusively owned until published.
            unsafe { (*rec).next.store(head, Ordering::Relaxed) };
            match self
                .records
                .compare_exchange(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.record_count.fetch_add(1, Ordering::Relaxed);
        HazardThread {
            domain: self,
            record: rec,
            retired: Vec::new(),
        }
    }

    /// Scan threshold: retire buffers flush when they reach
    /// `2 × slots-in-domain`, the classical H·(1+ε) amortization.
    fn scan_threshold(&self) -> usize {
        (2 * SLOTS_PER_THREAD * self.record_count.load(Ordering::Relaxed)).max(16)
    }

    /// Collects every currently published hazard, sorted.
    fn collect_hazards(&self) -> Vec<*mut u8> {
        let mut hazards = Vec::new();
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records live while the domain lives.
            let rec = unsafe { &*cur };
            for slot in &rec.slots {
                let p = slot.load(Ordering::Acquire);
                if !p.is_null() {
                    hazards.push(p);
                }
            }
            cur = rec.next.load(Ordering::Acquire);
        }
        hazards.sort_unstable();
        hazards
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Free the record list. Retired nodes were flushed by the
        // HazardThread drops (which the 'd borrow sequences before us).
        let mut cur = *self.records.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; records were Box-allocated.
            let next = unsafe { *(*cur).next.as_ptr() };
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

/// A thread's capability to protect and retire pointers in a [`Domain`].
pub struct HazardThread<'d> {
    domain: &'d Domain,
    record: *mut Record,
    retired: Vec<Retired>,
}

// SAFETY: the record is exclusively owned by this HazardThread; retired
// nodes are owned until freed.
unsafe impl Send for HazardThread<'_> {}

impl HazardThread<'_> {
    #[inline]
    fn slots(&self) -> &[AtomicPtr<u8>; SLOTS_PER_THREAD] {
        // SAFETY: record lives while the domain lives; we own it.
        unsafe { &(*self.record).slots }
    }

    /// Publishes `ptr` in hazard slot `slot` and re-validates that `src`
    /// still holds it, looping until the publication is stable. Returns the
    /// protected pointer (which may have changed from the initial read).
    #[inline]
    pub fn protect<T>(&self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        let slots = self.slots();
        let mut ptr = src.load(Ordering::Acquire);
        loop {
            slots[slot].store(ptr as *mut u8, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let cur = src.load(Ordering::Acquire);
            if cur == ptr {
                return ptr;
            }
            ptr = cur;
        }
    }

    /// Publishes a raw pointer without validation (caller revalidates).
    #[inline]
    pub fn set<T>(&self, slot: usize, ptr: *mut T) {
        self.slots()[slot].store(ptr as *mut u8, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Clears hazard slot `slot`.
    #[inline]
    pub fn clear(&self, slot: usize) {
        self.slots()[slot].store(core::ptr::null_mut(), Ordering::Release);
    }

    /// Retires `ptr`: it will be freed with `deleter` once no published
    /// hazard references it.
    ///
    /// # Safety
    /// `ptr` must be unlinked (unreachable for new readers), not retired
    /// elsewhere, and valid for `deleter`.
    pub unsafe fn retire(&mut self, ptr: *mut u8, deleter: Deleter) {
        self.retired.push(Retired { ptr, deleter });
        if self.retired.len() >= self.domain.scan_threshold() {
            self.scan();
        }
    }

    /// Number of nodes currently buffered for reclamation (observability
    /// for tests and benchmarks).
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Frees every buffered node that no published hazard protects.
    pub fn scan(&mut self) {
        let hazards = self.domain.collect_hazards();
        let mut kept = Vec::with_capacity(self.retired.len());
        for r in self.retired.drain(..) {
            if hazards.binary_search(&r.ptr).is_ok() {
                kept.push(r);
            } else {
                // SAFETY: the node was retired (unreachable) and no hazard
                // references it, so this thread is the unique owner.
                unsafe { (r.deleter)(r.ptr) };
            }
        }
        self.retired = kept;
    }
}

impl Drop for HazardThread<'_> {
    fn drop(&mut self) {
        for slot in 0..SLOTS_PER_THREAD {
            self.clear(slot);
        }
        // Flush; anything still protected by other threads gets a brief
        // grace period. Queues drop their HazardThreads after quiescing,
        // so the buffer normally empties on the first scan.
        for _ in 0..64 {
            if self.retired.is_empty() {
                break;
            }
            self.scan();
            if !self.retired.is_empty() {
                std::thread::yield_now();
            }
        }
        for r in self.retired.drain(..) {
            // Post-quiescence fallback: freeing is the lesser evil vs. a
            // guaranteed leak. SAFETY: nodes are unreachable; any hazard
            // still naming them belongs to a thread that already validated
            // against a newer source and will not dereference.
            unsafe { (r.deleter)(r.ptr) };
        }
        // SAFETY: record stays in the domain list for reuse.
        unsafe { (*self.record).active.store(false, Ordering::Release) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A retirable test node that names its own test's drop counter, so
    /// tests running in parallel never share (and never reset) a counter.
    pub(crate) struct Node {
        pub(crate) v: u64,
        drops: *const AtomicUsize,
    }

    /// Frees a [`Node`] and bumps the counter it names.
    pub(crate) unsafe fn count_deleter(p: *mut u8) {
        // SAFETY: `p` came from `boxed`, and every test declares its
        // counter before its domain, so the counter outlives each free.
        let node = unsafe { Box::from_raw(p as *mut Node) };
        unsafe { (*node.drops).fetch_add(1, Ordering::Relaxed) };
    }

    pub(crate) fn boxed(v: u64, drops: &AtomicUsize) -> *mut u8 {
        Box::into_raw(Box::new(Node { v, drops })) as *mut u8
    }

    #[test]
    fn retire_without_hazard_frees_on_scan() {
        let drops = AtomicUsize::new(0);
        let d = Domain::new();
        let mut t = d.register();
        for i in 0..10 {
            unsafe { t.retire(boxed(i, &drops), count_deleter) };
        }
        t.scan();
        assert_eq!(drops.load(Ordering::Relaxed), 10);
        assert_eq!(t.retired_len(), 0);
    }

    #[test]
    fn hazard_blocks_reclamation_until_cleared() {
        let drops = AtomicUsize::new(0);
        let d = Domain::new();
        let t_protect = d.register();
        let mut t_retire = d.register();

        let node = boxed(42, &drops);
        let src = AtomicPtr::new(node as *mut Node);
        let got = t_protect.protect(0, &src);
        assert_eq!(got, node as *mut Node);

        unsafe { t_retire.retire(node, count_deleter) };
        t_retire.scan();
        assert_eq!(drops.load(Ordering::Relaxed), 0, "protected: must survive");
        assert_eq!(t_retire.retired_len(), 1);

        t_protect.clear(0);
        t_retire.scan();
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn protect_revalidates_against_moving_source() {
        let d = Domain::new();
        let t = d.register();
        let a = Box::into_raw(Box::new(1u64));
        let src = AtomicPtr::new(a);
        let p = t.protect(1, &src);
        assert_eq!(p, a);
        unsafe { drop(Box::from_raw(a)) };
    }

    #[test]
    fn records_recycle_after_drop() {
        let d = Domain::new();
        let r1 = {
            let t = d.register();
            t.record as usize
        };
        let t2 = d.register();
        assert_eq!(t2.record as usize, r1, "inactive record must be adopted");
        assert_eq!(d.record_count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threshold_scales_with_records() {
        let d = Domain::new();
        let _a = d.register();
        let _b = d.register();
        assert!(d.scan_threshold() >= 2 * SLOTS_PER_THREAD * 2);
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        let drops = AtomicUsize::new(0);
        let d = Arc::new(Domain::new());
        let shared = Arc::new(AtomicPtr::new(boxed(0, &drops) as *mut Node));
        let iters = 2_000u64;
        std::thread::scope(|s| {
            // Writer: swaps the shared pointer and retires the old one.
            {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                let drops = &drops;
                s.spawn(move || {
                    let mut t = d.register();
                    for i in 1..=iters {
                        let fresh = boxed(i, drops) as *mut Node;
                        let old = shared.swap(fresh, Ordering::AcqRel);
                        unsafe { t.retire(old as *mut u8, count_deleter) };
                    }
                });
            }
            // Readers: protect and read; value must always be sane.
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let t = d.register();
                    for _ in 0..iters {
                        let p = t.protect(0, &shared);
                        // SAFETY: protected by slot 0.
                        let v = unsafe { (*p).v };
                        assert!(v <= iters);
                        t.clear(0);
                    }
                });
            }
        });
        // Everything except the final node is eventually freed.
        let final_ptr = shared.load(Ordering::Acquire);
        unsafe { drop(Box::from_raw(final_ptr)) };
        assert_eq!(drops.load(Ordering::Relaxed), iters as usize);
    }
}
