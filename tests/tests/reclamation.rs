//! Cross-crate reclamation behaviour: the wait-free queue's custom scheme
//! (paper §3.6) and the hazard-pointer domain behind the baselines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wfq_sync::Deadline;
use wfqueue::{Config, RawQueue};

/// Sustained traffic must keep the live-segment count bounded: allocation
/// without reclamation would retain one segment per N operations.
#[test]
fn live_segments_stay_bounded_under_sustained_traffic() {
    let q: RawQueue<16> = RawQueue::with_config(Config::default().with_max_garbage(4));
    let rounds = 300u64;
    let per_round = 16 * 8; // 8 segments worth per round
    let mut h = q.register();
    for r in 0..rounds {
        for v in 0..per_round {
            h.enqueue(r * per_round + v + 1);
        }
        for _ in 0..per_round {
            assert!(h.dequeue().is_some());
        }
    }
    let s = q.stats();
    assert!(s.segs_alloc > 1000, "traffic should churn many segments: {s:?}");
    assert!(
        s.live_segments() < 100,
        "reclamation failed to keep up: {s:?}"
    );
}

/// Concurrent producers/consumers with aggressive reclamation thresholds:
/// correctness must survive constant cleaning.
#[test]
fn aggressive_reclamation_is_transparent_to_values() {
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(1));
    let sum = AtomicU64::new(0);
    let count = AtomicU64::new(0);
    const TOTAL: u64 = 30_000;
    let deadline = Deadline::new();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for v in 0..TOTAL / 3 {
                    h.enqueue(t * (TOTAL / 3) + v + 1);
                }
            });
        }
        for _ in 0..3 {
            let q = &q;
            let sum = &sum;
            let count = &count;
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    let n = count.load(Ordering::Relaxed);
                    if n >= TOTAL {
                        break;
                    }
                    if let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    } else {
                        deadline.check(|| format!("{n} of {TOTAL} values"));
                    }
                }
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=TOTAL).sum::<u64>());
    assert!(q.stats().segs_freed > 0, "cleaning never ran: {:?}", q.stats());
}

/// A long-idle handle must not pin memory forever: the cleaner pushes idle
/// threads' segment pointers forward (paper §3.6 "Update head and tail
/// pointers").
#[test]
fn idle_handles_are_pushed_forward() {
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
    // The idle handle registers and does one op, then sits.
    let mut idle = q.register();
    idle.enqueue(999_999);
    assert_eq!(idle.dequeue(), Some(999_999));

    let mut h = q.register();
    for v in 1..=4_000u64 {
        h.enqueue(v);
        let _ = h.dequeue();
    }
    let s = q.stats();
    assert!(
        s.segs_freed > 100,
        "idle handle should not have pinned reclamation: {s:?}"
    );
    // The idle handle must still work.
    idle.enqueue(42);
    assert_eq!(idle.dequeue(), Some(42));
}

/// Handle churn: registering and dropping handles from short-lived threads
/// must recycle ring nodes instead of growing the ring.
#[test]
fn handle_churn_reuses_ring_slots() {
    let q: RawQueue<64> = RawQueue::new();
    for round in 0..50 {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for v in 0..50 {
                        h.enqueue(round * 1000 + t * 100 + v + 1);
                        let _ = h.dequeue();
                    }
                });
            }
        });
    }
    // 50 rounds × 4 threads but at most 4 concurrent: the ring holds ≤ a
    // few nodes (pool reuse), not 200.
    let stats = q.stats();
    assert_eq!(stats.enqueues(), 50 * 4 * 50);
}

/// Reclamation with a dequeue helper mid-flight: the backward-jump pass
/// (paper: "Visit threads in reverse order") must keep helpers safe. This
/// test drives slow-path dequeues (patience 0) against an aggressive
/// cleaner and checks nothing explodes and values survive.
#[test]
fn reclamation_and_slow_path_dequeues_coexist() {
    let q: RawQueue<8> = RawQueue::with_config(Config::wf0().with_max_garbage(1));
    let stop = AtomicBool::new(false);
    let consumed = AtomicU64::new(0);
    let deadline = Deadline::new();
    std::thread::scope(|s| {
        // One producer keeps values flowing.
        {
            let q = &q;
            let stop = &stop;
            s.spawn(move || {
                let mut h = q.register();
                let mut v = 1;
                while !stop.load(Ordering::Relaxed) {
                    h.enqueue(v);
                    v += 1;
                }
            });
        }
        // Two consumers race on mostly-contended dequeues.
        for _ in 0..2 {
            let q = &q;
            let consumed = &consumed;
            s.spawn(move || {
                let mut h = q.register();
                let mut got = 0u64;
                while got < 15_000 {
                    if h.dequeue().is_some() {
                        got += 1;
                    } else {
                        deadline.check(|| format!("a consumer's {got} of 15000 values"));
                    }
                }
                consumed.fetch_add(got, Ordering::Relaxed);
            });
        }
        // Stop the producer once consumers are done.
        {
            let consumed = &consumed;
            let stop = &stop;
            s.spawn(move || {
                // A consumer past the deadline fails the test; stop the
                // producer then too, or the scope never ends.
                while consumed.load(Ordering::Relaxed) < 30_000 && !deadline.expired() {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    let s = q.stats();
    // Whether deq_slow fires is scheduling-dependent (a fast-path dequeue
    // only fails when its claim CAS loses a race); on a single-CPU host
    // whole runs can complete fast-path-only. The stress suite asserts
    // slow-path coverage under guaranteed oversubscription instead; here
    // the requirement is that reclamation ran concurrently and nothing
    // broke.
    assert!(s.segs_freed > 0, "cleaner should run: {s:?}");
    assert_eq!(
        s.dequeues() - s.deq_empty,
        30_000,
        "successful dequeues must equal the consumers' count: {s:?}"
    );
}

/// The paper §3.6 "Thread failure": a thread suspended *inside* an
/// operation pins reclamation (unbounded leakage is the documented
/// limitation), but must never block other threads' progress — and
/// reclamation must resume once the thread wakes.
#[test]
fn suspended_thread_pins_memory_but_not_progress() {
    use std::sync::atomic::AtomicBool;
    let q: RawQueue<8> = RawQueue::with_config(Config::default().with_max_garbage(2));
    let parked = AtomicBool::new(false);
    let release = AtomicBool::new(false);

    std::thread::scope(|s| {
        // The "suspended" thread: starts a dequeue-like epoch by doing an
        // operation, then parks while still registered (its hazard clears
        // at op end, but its head/tail pointers stay pinned at the front
        // until the cleaner pushes them — this exercises the push path
        // with a live-but-idle peer).
        {
            let q = &q;
            let parked = &parked;
            let release = &release;
            s.spawn(move || {
                let mut h = q.register();
                h.enqueue(1);
                assert_eq!(h.dequeue(), Some(1));
                parked.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Wake up and verify the queue still works for us.
                h.enqueue(2);
                assert_eq!(h.dequeue(), Some(2));
            });
        }
        // The busy thread: must make unhindered progress and reclaim.
        {
            let q = &q;
            let parked = &parked;
            let release = &release;
            s.spawn(move || {
                while !parked.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let mut h = q.register();
                for v in 1..=4_000u64 {
                    h.enqueue(v);
                    assert_eq!(h.dequeue(), Some(v));
                }
                let st = q.stats();
                assert!(
                    st.segs_freed > 0,
                    "an idle (not in-operation) peer must not pin reclamation: {st:?}"
                );
                release.store(true, Ordering::Release);
            });
        }
    });
}
