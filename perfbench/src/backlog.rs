//! `backlog`: two threads, each pinned to its own CPU, closed loop on
//! `RawQueue`. The filler enqueues a burst of [`DEPTH`] values (about 1024
//! segments, 24 MiB of cells — past a per-core L2); then the drainer
//! dequeues the whole burst; then the cycle repeats. Writes and reads of the
//! same layer run one after the other, so this is where segment
//! allocation, `find_cell` walking, bulk cleanup and memory work show, with
//! no contention, no slow path and no boxing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use crate::chan::{Chan, Port};
use crate::check::{decode, encode, key, Delivery, StreamCheck};
use crate::quant::{median, quantile, quantile_ns, ratio};
use crate::sys::{now_ns, peak_rss_bytes, pin_worker, touch};
use crate::trace::{Recorder, Trace, NO_PARENT};
use crate::{handoff, Opts, Outcome, SETUP_TRIALS};

/// Values per burst.
pub const DEPTH: u64 = 1 << 20;
/// Values of the one warm-up cycle (part of set-up).
const WARM_DEPTH: u64 = 1 << 16;
/// A value in this many carries enqueue and dequeue timestamps, for the
/// time it spent queued.
const STAMP_EVERY: u64 = 1024;
/// A traced run records a span around 1 call in this many: prime, so the
/// samples fall on every cell position of a segment alike.
const SAMPLE: u64 = 251;
/// A traced drainer reads the queue's gauges once per this many values.
const GAUGE_EVERY: u64 = 1 << 16;
/// Independent sessions (fresh queue and threads) the untraced window is
/// split into.
const SESSIONS: usize = 4;
/// How long one drain may take before its missing values count as lost.
const DRAIN_DEADLINE_NS: u64 = 1_000_000_000;

/// Buffers the sessions record into, made resident once per run before
/// the peak-RSS baseline, so they do not count as queue memory.
pub struct Buffers {
    /// The values of one drain, in delivery order.
    drained: Vec<u64>,
    enq_stamps: Vec<u64>,
    deq_stamps: Vec<u64>,
    check: StreamCheck,
}

impl Buffers {
    fn new(max_cycles: usize) -> Self {
        let stamps = max_cycles * (DEPTH / STAMP_EVERY) as usize;
        let mut b = Self {
            drained: vec![0; DEPTH as usize],
            enq_stamps: vec![0; stamps],
            deq_stamps: vec![0; stamps],
            check: StreamCheck::new(0, DEPTH),
        };
        touch(&mut b.drained, 1);
        touch(&mut b.enq_stamps, 1);
        touch(&mut b.deq_stamps, 1);
        b.enq_stamps.clear();
        b.deq_stamps.clear();
        b
    }
}

/// What one session measured.
#[derive(Default)]
struct Session {
    setup_ns: u64,
    register_ns: [u64; 2],
    delivery: Delivery,
    drains: u64,
    fill_ns: Vec<u64>,
    drain_ns: Vec<u64>,
    recs: Vec<Recorder>,
    lag_peak: u64,
}

struct Shared {
    start: Barrier,
    /// Bursts filled so far.
    filled: AtomicU64,
    /// Bursts drained (and checked) so far.
    drained: AtomicU64,
    stop: AtomicBool,
}

fn wait_for(counter: &AtomicU64, at_least: u64, stop: Option<&AtomicBool>) -> bool {
    loop {
        if counter.load(Ordering::Acquire) >= at_least {
            return true;
        }
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Set-up (queue, handles, pinned threads, one warm-up cycle of
/// [`WARM_DEPTH`]), then full cycles until `secs` have passed.
fn session<C: Chan<u64>>(
    make: impl FnOnce() -> C,
    key: u64,
    secs: f64,
    traced: bool,
    buf: &mut Buffers,
) -> Session {
    let t0 = now_ns();
    let q = make();
    let sh = Shared {
        start: Barrier::new(2),
        filled: AtomicU64::new(0),
        drained: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    };
    let Buffers {
        drained,
        enq_stamps,
        deq_stamps,
        check,
    } = buf;
    let (q, sh) = (&q, &sh);
    let span = (secs * 1e9) as u64;
    std::thread::scope(|s| {
        let filler = s.spawn(move || {
            pin_worker(0);
            let mut out = Session::default();
            let r0 = now_ns();
            let mut p = q.port();
            out.register_ns[0] = now_ns() - r0;
            let mut rec = Recorder::new(0);
            sh.start.wait();
            let mut seq = 0;
            for _ in 0..WARM_DEPTH {
                p.send(encode(key, seq));
                seq += 1;
            }
            sh.filled.store(1, Ordering::Release);
            wait_for(&sh.drained, 1, None);
            let start = now_ns();
            out.setup_ns = start - t0;
            let mut cycle = 1;
            while span > 0 && (cycle == 1 || now_ns() < start + span) {
                let phase = if traced {
                    rec.open("fill", NO_PARENT)
                } else {
                    NO_PARENT
                };
                if traced {
                    rec.snapshot("fill.begin", phase, q);
                }
                let t = now_ns();
                for i in 0..DEPTH {
                    let v = encode(key, seq);
                    if i % STAMP_EVERY == 0 {
                        enq_stamps.push(now_ns());
                    }
                    if traced && i % SAMPLE == 0 {
                        let a = now_ns();
                        p.send(v);
                        rec.call("raw.enq", a, now_ns(), phase, seq);
                    } else {
                        p.send(v);
                    }
                    seq += 1;
                }
                out.fill_ns.push(now_ns() - t);
                if traced {
                    rec.snapshot("fill.end", phase, q);
                    rec.close(phase);
                }
                cycle += 1;
                sh.filled.store(cycle, Ordering::Release);
                wait_for(&sh.drained, cycle, None);
            }
            sh.stop.store(true, Ordering::Release);
            out.recs.push(rec);
            out
        });
        let drainer = s.spawn(move || {
            pin_worker(1);
            let r0 = now_ns();
            let mut p = q.port();
            let register_ns = now_ns() - r0;
            let mut rec = Recorder::new(1);
            let mut delivery = Delivery::default();
            let (mut drain_ns, mut drains, mut lag) = (Vec::new(), 0, 0);
            sh.start.wait();
            let mut base = 0;
            let mut cycle = 1;
            while wait_for(&sh.filled, cycle, Some(&sh.stop)) {
                let len = if cycle == 1 { WARM_DEPTH } else { DEPTH };
                let phase = if traced && cycle > 1 {
                    rec.open("drain", NO_PARENT)
                } else {
                    NO_PARENT
                };
                let deadline = now_ns() + DRAIN_DEADLINE_NS;
                let mut late = false;
                drained.clear();
                let stamps_at = deq_stamps.len();
                let t = now_ns();
                'drain: for i in 0..len {
                    let v = loop {
                        let got = if phase != NO_PARENT && i % SAMPLE == 0 {
                            let a = now_ns();
                            let got = p.recv();
                            let b = now_ns();
                            let op = got
                                .and_then(|v| decode(key, v))
                                .unwrap_or(crate::trace::NO_OP);
                            rec.call("raw.deq", a, b, phase, op);
                            got
                        } else {
                            p.recv()
                        };
                        match got {
                            Some(v) => break v,
                            // The burst is all in: EMPTY means a missing
                            // value. Retry until the deadline.
                            None if now_ns() < deadline => {}
                            None => {
                                late = true;
                                break 'drain;
                            }
                        }
                    };
                    drained.push(v);
                    // Values come out in order, so once the burst's last
                    // value is in, any still missing is lost.
                    if decode(key, v) == Some(base + len - 1) {
                        break 'drain;
                    }
                    if cycle > 1 && i % STAMP_EVERY == 0 {
                        deq_stamps.push(now_ns());
                    }
                    if phase != NO_PARENT && i % GAUGE_EVERY == 0 {
                        lag = lag.max(q.gauges().hazard_lag_segments);
                    }
                }
                if cycle > 1 {
                    let end = now_ns();
                    drain_ns.push(end - t);
                    // Values a failed drain never delivered stay stamped
                    // with its end, so the stamps stay paired.
                    deq_stamps.resize(stamps_at + (len / STAMP_EVERY) as usize, end);
                }
                if phase != NO_PARENT {
                    rec.snapshot("drain.end", phase, q);
                    rec.close(phase);
                }
                // The delivery check, outside the timed drain.
                check.reset(base, len);
                for &v in drained.iter() {
                    check.deliver(decode(key, v));
                }
                delivery.absorb(&check.finish(late));
                drains += 1;
                base += len;
                sh.drained.store(cycle, Ordering::Release);
                cycle += 1;
            }
            (register_ns, delivery, drain_ns, drains, lag, rec)
        });
        let mut out = filler.join().expect("backlog filler panicked");
        let (reg, delivery, drain_ns, drains, lag, rec) =
            drainer.join().expect("backlog drainer panicked");
        out.register_ns[1] = reg;
        out.delivery = delivery;
        out.drain_ns = drain_ns;
        out.drains = drains;
        out.lag_peak = lag;
        out.recs.push(rec);
        out
    })
}

/// Mops/s of each burst timed at `ns` per burst.
fn rates(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&t| DEPTH as f64 * 1e3 / t as f64).collect()
}

/// Runs `backlog` on the queue `make` builds.
pub fn run<C: Chan<u64>>(make: impl Fn() -> C, o: &Opts) -> Outcome {
    let key = key(o.seed);
    // Room for the stamps of 10 cycles a second; a cycle (2 × 2^20
    // operations) takes about 190 ms on a 2-vCPU host. More cycles only
    // grow the buffers.
    let max_cycles = (o.seconds * 10.0) as usize + 4;
    let mut buf = Buffers::new(max_cycles);
    let rss_base = peak_rss_bytes();
    let mut setups = Vec::new();
    let mut regs = Vec::new();
    let mut delivery = Delivery::default();
    let mut drains = 0;
    let mut sessions = Vec::new();
    for _ in 0..SETUP_TRIALS {
        sessions.push(session(&make, key, 0.0, false, &mut buf));
    }
    // The untraced run pools the cycles of [`SESSIONS`] fresh queues; the
    // traced run times one untraced and one traced session.
    let (plain_sessions, secs) = if o.trace {
        (1, o.seconds * 0.45)
    } else {
        (SESSIONS, o.seconds / SESSIONS as f64)
    };
    // Memory per value is the peak growth through the first burst: later
    // sessions run on fresh threads that may not reuse the first one's
    // allocator arena, and would count it twice.
    let mut first_peak = 0;
    for _ in 0..plain_sessions {
        sessions.push(session(&make, key, secs, false, &mut buf));
        if first_peak == 0 {
            first_peak = peak_rss_bytes();
        }
    }
    let (enq_plain, deq_plain) = (buf.enq_stamps.len(), buf.deq_stamps.len());
    if o.trace {
        sessions.push(session(&make, key, secs, true, &mut buf));
    }
    for s in &sessions {
        setups.push(s.setup_ns as f64);
        regs.extend(s.register_ns.iter().map(|&r| r as f64));
        delivery.absorb(&s.delivery);
        drains += s.drains;
    }
    let mut out = Outcome::new(delivery, drains);
    let plain = &sessions[SETUP_TRIALS..SETUP_TRIALS + plain_sessions];
    let fill_ns: Vec<u64> = plain
        .iter()
        .flat_map(|s| s.fill_ns.iter().copied())
        .collect();
    let drain_ns: Vec<u64> = plain
        .iter()
        .flat_map(|s| s.drain_ns.iter().copied())
        .collect();
    let mut fill = rates(&fill_ns);
    let mut drain = rates(&drain_ns);
    let fill_mops = median(&mut fill);
    out.report("cycles", fill_ns.len() as f64);
    if !o.trace {
        out.metric("setup_s", median(&mut setups) / 1e9);
        let mut cycle: Vec<f64> = fill_ns
            .iter()
            .zip(&drain_ns)
            .map(|(&f, &d)| 2.0 * DEPTH as f64 * 1e3 / (f + d) as f64)
            .collect();
        out.metric("throughput_mops", median(&mut cycle));
        // Time each stamped value spent queued, enqueue call to dequeue return.
        let n = enq_plain.min(deq_plain);
        let mut stay: Vec<f64> = (0..n)
            .map(|i| buf.deq_stamps[i].saturating_sub(buf.enq_stamps[i]) as f64)
            .collect();
        out.metric("latency_p50_us", quantile(&mut stay, 0.5) / 1e3);
        out.metric("latency_p90_us", quantile(&mut stay, 0.9) / 1e3);
        out.report("latency_samples", n as f64);
        out.metric("fill_mops", fill_mops);
        out.metric("drain_mops", median(&mut drain));
        out.metric(
            "bytes_per_value",
            first_peak.saturating_sub(rss_base) as f64 / DEPTH as f64,
        );
        return out;
    }
    let t = sessions.pop().expect("the traced session");
    let mut traced_fill = rates(&t.fill_ns);
    let clock = crate::sys::clock_overhead_ns();
    let trace = Trace { threads: t.recs };
    out.metric("raw.enq_ns", trace.agg("raw.enq").mean_ns(clock));
    out.metric("raw.deq_ns", trace.agg("raw.deq").mean_ns(clock));
    let fills = &trace.threads[0].snapshots;
    let drains = &trace.threads[1].snapshots;
    let live_peak = fills.iter().map(|s| s.live_segments).max().unwrap_or(0);
    let delivered = DEPTH * drains.len() as u64;
    for (k, v) in crate::metrics::counter_metrics(
        &fills[0],
        &drains[drains.len() - 1],
        delivered,
        live_peak,
        t.lag_peak,
    ) {
        out.metric(k, v);
    }
    out.metric("handle.register_us", median(&mut regs) / 1e3);
    out.metric(
        "trace.overhead_frac",
        ratio(fill_mops - median(&mut traced_fill), fill_mops),
    );
    out.report("clock_overhead_ns", clock);
    // The host's share of a two-CPU workload's tail: the null mailbox and
    // the generator under the `handoff` pacing, on the same two CPUs.
    let (mut lat, mut late) = handoff::floor(key, (handoff::RATE * o.seconds * 0.1) as u64);
    out.metric("gen.late_p99_us", quantile_ns(&mut late, 0.99) / 1e3);
    out.metric("floor.p50_us", quantile_ns(&mut lat, 0.5) / 1e3);
    out.metric("floor.p99_us", quantile_ns(&mut lat, 0.99) / 1e3);
    out.not_driven(&[
        "raw.pair_ns",
        "faa.pair_ns",
        "raw.gap_vs_faa",
        "backend.pair_ns",
        "typed.pair_ns",
        "typed.enq_ns",
        "typed.deq_ns",
        "typed.empty_ns",
    ]);
    out.trace = Some(trace);
    out
}
