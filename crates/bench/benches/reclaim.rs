//! Reclamation-scheme overhead (paper §3.6 "Overhead").
//!
//! The paper's claim: its custom scheme adds *no* memory fence to the x86
//! fast path (the operation's own FAA doubles as the barrier), whereas
//! hazard pointers fence per protected pointer and classic EBR fences per
//! critical section. Our wait-free queue keeps that fast path soundly with
//! an asymmetric fence: its hazard store is followed by a compiler fence
//! only, and the rare cleaner issues `membarrier` instead, once per pass
//! plus once per lagging pointer it pushes (`fence(SeqCst)` on both sides
//! where the kernel lacks `membarrier`).
//! This bench makes the claim measurable: the same MS-Queue algorithm
//! under hazard pointers vs. EBR, the wait-free queue under its paper
//! scheme, and the raw primitive costs of each protection action.

use std::time::Duration;

use wfq_baselines::{BenchQueue, MsQueue, MsQueueEbr};
use wfq_bench::microbench::Criterion;
use wfq_reclaim::{ebr::EbrDomain, Domain};
use wfqueue::RawQueue;

fn bench_protection_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("reclaim_primitives");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    // Hazard pointer: publish + fence + revalidate.
    let hp_domain = Domain::new();
    let hp = hp_domain.register();
    let src = core::sync::atomic::AtomicPtr::new(Box::into_raw(Box::new(7u64)));
    g.bench_function("hazard_protect_clear", |b| {
        b.iter(|| {
            let p = hp.protect(0, &src);
            std::hint::black_box(p);
            hp.clear(0);
        })
    });

    // EBR: pin (fence) + unpin.
    let ebr_domain = EbrDomain::new();
    let ebr = ebr_domain.register();
    g.bench_function("ebr_pin_unpin", |b| {
        b.iter(|| {
            let guard = ebr.pin();
            std::hint::black_box(&guard);
        })
    });

    g.finish();
    // SAFETY: test-owned allocation, no longer referenced.
    unsafe { drop(Box::from_raw(src.load(core::sync::atomic::Ordering::Relaxed))) };
}

fn bench_queues_under_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("reclaim_queue_pair");
    g.sample_size(15).measurement_time(Duration::from_secs(1));

    macro_rules! case {
        ($q:ty, $label:expr) => {{
            let q = <$q as BenchQueue>::new();
            let mut h = q.register();
            let mut i = 0u64;
            g.bench_function($label, |b| {
                b.iter(|| {
                    i += 1;
                    h.enqueue(i);
                    std::hint::black_box(h.dequeue())
                })
            });
        }};
    }
    case!(MsQueue, "msqueue_hazard");
    case!(MsQueueEbr, "msqueue_ebr");
    case!(RawQueue, "wfqueue_paper_scheme");
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_protection_primitives(&mut c);
    bench_queues_under_schemes(&mut c);
}
