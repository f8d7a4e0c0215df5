//! Large-scale MPMC stress: value conservation, per-producer FIFO order,
//! and emptiness sanity for every queue, at thread counts that
//! oversubscribe this host (the regime of the paper's Table 2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wfq_baselines::{BenchQueue, CcQueue, KpQueue, Lcrq, MsQueue, MutexQueue, QueueHandle, Wf0};
use wfq_sync::Deadline;
use wfqueue::RawQueue;

const PRODUCERS: usize = 3;
const CONSUMERS: usize = 3;
const PER_PRODUCER: u64 = 20_000;

/// Tag layout: producer id in the top bits, 1-based sequence below.
fn tag(p: usize) -> u64 {
    ((p as u64 + 1) << 40) | 1
}

fn stress<Q: BenchQueue>() {
    let q = Q::new();
    let total = (PRODUCERS as u64) * PER_PRODUCER;
    let consumed = AtomicU64::new(0);
    // Each consumer logs (value) in its own arrival order.
    let logs: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    let deadline = Deadline::new();

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..PER_PRODUCER {
                    h.enqueue(tag(p) + i);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let q = &q;
            let consumed = &consumed;
            let logs = &logs;
            s.spawn(move || {
                let mut h = q.register();
                let mut mine = Vec::new();
                loop {
                    let n = consumed.load(Ordering::Relaxed);
                    if n >= total {
                        break;
                    }
                    if let Some(v) = h.dequeue() {
                        mine.push(v);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        deadline.check(|| format!("{}: {n} of {total} values", Q::NAME));
                    }
                }
                logs.lock().unwrap().push(mine);
            });
        }
    });

    let logs = logs.into_inner().unwrap();
    let all: Vec<u64> = logs.iter().flatten().copied().collect();

    // Conservation: every value exactly once.
    assert_eq!(all.len() as u64, total, "{}: op count", Q::NAME);
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &v in &all {
        *counts.entry(v).or_default() += 1;
    }
    assert_eq!(counts.len() as u64, total, "{}: duplicates", Q::NAME);
    for p in 0..PRODUCERS {
        for i in 0..PER_PRODUCER {
            assert!(
                counts.contains_key(&(tag(p) + i)),
                "{}: lost value p{p}#{i}",
                Q::NAME
            );
        }
    }

    // Per-producer FIFO within each consumer's stream: a single consumer
    // must observe any one producer's values in increasing sequence order
    // (each dequeue of that producer's later value happens after the
    // dequeue of its earlier value completed on the same thread).
    for (ci, log) in logs.iter().enumerate() {
        let mut last: HashMap<u64, u64> = HashMap::new();
        for &v in log {
            let producer = v >> 40;
            let seq = v & ((1 << 40) - 1);
            if let Some(&prev) = last.get(&producer) {
                assert!(
                    seq > prev,
                    "{}: consumer {ci} saw producer {producer} out of order ({prev} then {seq})",
                    Q::NAME
                );
            }
            last.insert(producer, seq);
        }
    }
}

#[test]
fn stress_wf10() {
    stress::<RawQueue>();
}

#[test]
fn stress_wf0() {
    stress::<Wf0>();
}

#[test]
fn stress_msqueue() {
    stress::<MsQueue>();
}

#[test]
fn stress_lcrq() {
    stress::<Lcrq>();
}

#[test]
fn stress_ccqueue() {
    stress::<CcQueue>();
}

#[test]
fn stress_mutex() {
    stress::<MutexQueue>();
}

#[test]
fn stress_kpqueue() {
    stress::<KpQueue>();
}

/// Handle-lifecycle churn under traffic: one thread registers and drops
/// handles (doing a few operations through each) while steady producers
/// and consumers run. Guards the `active_count` accounting that the
/// reclamation threshold and the bounded-mode pool both depend on — a
/// count that drifts under churn either disables reclamation (threshold
/// inflates) or corrupts the node free list.
#[test]
fn handle_churn_under_traffic_conserves_values_and_count() {
    let q = wfqueue::RawQueue::<64>::with_config(
        wfqueue::Config::default()
            .with_max_garbage(2)
            .with_segment_ceiling(512),
    );
    let per = 10_000u64;
    let producers = 2u64;
    let total = producers * per;
    let sum = AtomicU64::new(0);
    let got = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let deadline = Deadline::new();
    let awaited = |got: &AtomicU64| format!("{} of {total} values", got.load(Ordering::Relaxed));
    std::thread::scope(|s| {
        for t in 0..producers {
            let q = &q;
            let done = &done;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..per {
                    // Hold the second half back until the churner has
                    // cycled once: a churner scheduled late could
                    // otherwise find the traffic already over.
                    while i == per / 2 && done.load(Ordering::Relaxed) == 0 {
                        deadline.check(|| "the churner's first cycle".into());
                        std::thread::yield_now();
                    }
                    h.enqueue(t * per + i + 1);
                }
            });
        }
        for _ in 0..2 {
            let q = &q;
            let (sum, got) = (&sum, &got);
            s.spawn(move || {
                let mut h = q.register();
                while got.load(Ordering::Relaxed) < total {
                    if let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        got.fetch_add(1, Ordering::Relaxed);
                    } else {
                        deadline.check(|| awaited(got));
                    }
                }
            });
        }
        // The churner: short-lived handles that only dequeue-probe, so the
        // conservation ledger stays defined by the two steady producers.
        {
            let q = &q;
            let (sum, got, done) = (&sum, &got, &done);
            s.spawn(move || {
                while got.load(Ordering::Relaxed) < total {
                    deadline.check(|| awaited(got));
                    let mut h = q.register();
                    for _ in 0..16 {
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    drop(h);
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=total).sum::<u64>());
    assert!(done.load(Ordering::Relaxed) > 0, "churner never cycled");
    let g = q.gauges();
    assert_eq!(
        g.active_handles, 0,
        "active-handle count drifted under churn: {g:?}"
    );
    // Reclamation must still have run despite the churn (the threshold is
    // computed from *live* handles, so dead registrations cannot stall it).
    let st = q.stats();
    assert!(st.segs_freed > 0, "churn stalled reclamation: {st:?}");
}

/// The paper's Table 2 regime: more threads than hardware threads. The
/// wait-free queue must stay correct when every thread is constantly
/// preempted mid-operation.
#[test]
fn oversubscribed_wf0_conserves_values() {
    let q = wfqueue::RawQueue::<64>::with_config(wfqueue::Config::wf0());
    let threads = 8; // far beyond this host's hardware threads
    let per = 4_000u64;
    let sum = AtomicU64::new(0);
    let got = AtomicU64::new(0);
    let total = threads as u64 / 2 * per;
    let deadline = Deadline::new();
    std::thread::scope(|s| {
        for t in 0..threads / 2 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..per {
                    h.enqueue((t as u64) * per + i + 1);
                }
            });
        }
        for _ in 0..threads / 2 {
            let q = &q;
            let sum = &sum;
            let got = &got;
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    let n = got.load(Ordering::Relaxed);
                    if n >= total {
                        break;
                    }
                    if let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        got.fetch_add(1, Ordering::Relaxed);
                    } else {
                        deadline.check(|| format!("{n} of {total} values"));
                    }
                }
            });
        }
    });
    assert_eq!(sum.load(Ordering::Relaxed), (1..=total).sum::<u64>());
    // Slow-path traffic is scheduling-dependent (a fast path fails only
    // when it loses a race); report coverage rather than asserting it —
    // wf_paths.rs asserts slow-path coverage with a retry loop.
    let st = q.stats();
    eprintln!("oversubscribed WF-0 slow-path coverage: {st:?}");
}
