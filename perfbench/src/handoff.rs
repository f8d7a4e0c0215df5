//! `handoff`: one producer and one consumer, each pinned to its own CPU, on
//! `WfQueue<Msg>`. Open loop: the producer enqueues on a seeded Poisson
//! schedule at a fixed [`RATE`]; the consumer spins on `dequeue`, and a
//! message's latency runs from its due time to the return of the dequeue
//! that delivered it. The consumer keeps overtaking the producer, so this
//! is where sealed cells, enqueue retries, the slow path, helping, EMPTY
//! probes, boxing and the cross-core handoff happen.
//!
//! The traced run adds the null-mailbox floor: the same threads, pinning
//! and schedule, with the queue replaced by one atomic word.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use crate::chan::{Chan, Msg, Port};
use crate::check::{key, mix, Delivery, StreamCheck};
use crate::quant::{median, quantile_ns, ratio};
use crate::sys::{now_ns, pin_worker, spin_until, touch};
use crate::trace::{Recorder, Trace, NO_OP, NO_PARENT};
use crate::{Opts, Outcome, SETUP_TRIALS};

/// Offered load, messages per second.
pub const RATE: f64 = 100_000.0;
/// Messages exchanged before the timed window (part of set-up): 50 ms.
const WARM_MSGS: u64 = (RATE * 0.05) as u64;
/// Independent sessions the untraced window is split into.
const SESSIONS: u64 = 15;
/// How long the consumer waits for missing messages once the producer is
/// done; past it, the rest are lost and the drain fails.
const DRAIN_DEADLINE_NS: u64 = 200_000_000;
/// Delay from the end of set-up to the first due time.
const LEAD_NS: u64 = 100_000;
/// A traced producer records a span around 1 enqueue in this many.
const SAMPLE_ENQ: u64 = 17;
/// A traced consumer records a span around 1 dequeue call in this many.
const SAMPLE_DEQ: u64 = 61;
/// A traced producer reads the queue's gauges once per this many messages.
const GAUGE_EVERY: u64 = 1024;

/// The seeded Poisson schedule: due-time offsets (ns) of successive
/// messages, exponential gaps of mean `1 / RATE`.
struct Schedule {
    key: u64,
    i: u64,
    at: f64,
}

impl Schedule {
    fn new(key: u64) -> Self {
        Self { key, i: 0, at: 0.0 }
    }

    /// The next message's offset from the schedule's origin.
    fn next(&mut self) -> u64 {
        // Uniform in (0, 1]: the top 53 bits of a hash, plus one ulp.
        let u = ((mix(self.key ^ self.i) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        self.i += 1;
        self.at += -u.ln() * 1e9 / RATE;
        self.at as u64
    }
}

/// Buffers one session records into. Allocated and made resident once per
/// run, so no page fault lands in a timed window, and reused by every
/// session.
pub struct Buffers {
    /// Sequence number of each delivery, in delivery order.
    seqs: Vec<u32>,
    /// Due-to-delivery latency (ns) of each timed delivery.
    lat: Vec<u32>,
    /// Producer lateness (ns) of each timed message.
    late: Vec<u32>,
}

impl Buffers {
    fn new(msgs: usize) -> Self {
        let mut b = Self {
            seqs: vec![0; msgs],
            lat: vec![0; msgs],
            late: vec![0; msgs],
        };
        touch(&mut b.seqs, 1);
        touch(&mut b.lat, 1);
        touch(&mut b.late, 1);
        b.clear();
        b
    }

    fn clear(&mut self) {
        self.seqs.clear();
        self.lat.clear();
        self.late.clear();
    }
}

/// What one queue session measured.
#[derive(Default)]
struct Session {
    setup_ns: u64,
    register_ns: [u64; 2],
    delivery: Delivery,
    /// Timed messages sent and delivered.
    sent: u64,
    delivered: u64,
    /// Due time of the first timed message; the last send and delivery.
    origin: u64,
    last_send: u64,
    last_delivery: u64,
    recs: Vec<Recorder>,
    live_peak: u64,
    lag_peak: u64,
}

/// Producer side state shared with the consumer.
struct Shared {
    start: Barrier,
    warm_done: AtomicBool,
    /// Set once the producer has sent its last message.
    done: AtomicBool,
}

fn ns32(d: u64) -> u32 {
    u32::try_from(d).unwrap_or(u32::MAX)
}

/// Set-up (queue, handles, pinned threads, warm-up exchange), then `msgs`
/// timed messages on the schedule.
fn session<C: Chan<Msg>>(
    make: impl FnOnce() -> C,
    key: u64,
    msgs: u64,
    traced: bool,
    buf: &mut Buffers,
) -> Session {
    buf.clear();
    let t0 = now_ns();
    let q = make();
    let sh = Shared {
        start: Barrier::new(2),
        warm_done: AtomicBool::new(false),
        done: AtomicBool::new(false),
    };
    let total = WARM_MSGS + msgs;
    let Buffers { seqs, lat, late } = buf;
    let (q, sh) = (&q, &sh);
    let out = std::thread::scope(|s| {
        let producer = s.spawn(move || {
            pin_worker(0);
            let mut out = Session::default();
            let r0 = now_ns();
            let mut p = q.port();
            out.register_ns[0] = now_ns() - r0;
            sh.start.wait();
            let mut sched = Schedule::new(key);
            let origin = now_ns() + LEAD_NS;
            for seq in 0..WARM_MSGS {
                let due = origin + sched.next();
                spin_until(due);
                p.send(Msg { seq, due_ns: due });
            }
            while !sh.warm_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let ready = now_ns();
            out.setup_ns = ready - t0;
            let mut rec = Recorder::new(0);
            let phase = if traced {
                rec.open("window", NO_PARENT)
            } else {
                NO_PARENT
            };
            if traced {
                rec.snapshot("begin", phase, q);
            }
            let origin = ready + LEAD_NS;
            let base = sched.at as u64;
            out.origin = origin;
            let (mut live, mut lag) = (0, 0);
            for seq in WARM_MSGS..total {
                let due = origin + sched.next() - base;
                spin_until(due);
                let t = now_ns();
                late.push(ns32(t - due));
                if traced && seq.is_multiple_of(SAMPLE_ENQ) {
                    p.send(Msg { seq, due_ns: due });
                    rec.call("typed.enq", t, now_ns(), phase, seq);
                } else {
                    p.send(Msg { seq, due_ns: due });
                }
                if traced && seq.is_multiple_of(GAUGE_EVERY) {
                    let g = q.gauges();
                    live = live.max(g.live_segments);
                    lag = lag.max(g.hazard_lag_segments);
                }
            }
            out.last_send = now_ns();
            sh.done.store(true, Ordering::Release);
            rec.close(phase);
            (out.live_peak, out.lag_peak) = (live, lag);
            out.sent = msgs;
            out.recs.push(rec);
            out
        });
        let consumer = s.spawn(move || {
            pin_worker(1);
            let r0 = now_ns();
            let mut p = q.port();
            let register_ns = now_ns() - r0;
            sh.start.wait();
            let mut rec = Recorder::new(1);
            // Warm-up: take the warm-up messages, or give up at a deadline
            // (a lost one must not hang set-up; the check counts it).
            // Values come out in order, so once the last one is in, any
            // still missing is lost.
            let deadline = now_ns() + 1_000_000_000 + (WARM_MSGS as f64 * 1e9 / RATE) as u64;
            let mut newest = None;
            while newest != Some(WARM_MSGS - 1) && now_ns() < deadline {
                if let Some(m) = p.recv() {
                    seqs.push(m.seq as u32);
                    newest = Some(m.seq);
                }
            }
            sh.warm_done.store(true, Ordering::Release);
            let phase = if traced {
                rec.open("consume", NO_PARENT)
            } else {
                NO_PARENT
            };
            let mut late_drain = false;
            let mut deadline = u64::MAX;
            let mut calls = 0u64;
            let mut last = 0;
            while newest != Some(total - 1) {
                calls += 1;
                let got = if traced && calls.is_multiple_of(SAMPLE_DEQ) {
                    let a = now_ns();
                    let got = p.recv();
                    let b = now_ns();
                    match &got {
                        Some(m) => rec.call("typed.deq", a, b, phase, m.seq),
                        None => rec.call("typed.empty", a, b, phase, NO_OP),
                    };
                    got
                } else {
                    p.recv()
                };
                if let Some(m) = got {
                    let t = now_ns();
                    last = t;
                    newest = Some(m.seq);
                    seqs.push(m.seq as u32);
                    if m.seq >= WARM_MSGS {
                        lat.push(ns32(t.saturating_sub(m.due_ns)));
                    }
                } else if sh.done.load(Ordering::Acquire) {
                    // The producer is done: what has not come out by the
                    // deadline is lost.
                    let now = now_ns();
                    if deadline == u64::MAX {
                        deadline = now + DRAIN_DEADLINE_NS;
                    } else if now > deadline {
                        late_drain = true;
                        break;
                    }
                }
            }
            if traced {
                rec.snapshot("end", phase, q);
                rec.close(phase);
            }
            (register_ns, late_drain, last, rec)
        });
        let mut out = producer.join().expect("handoff producer panicked");
        let (reg, late_drain, last, rec) = consumer.join().expect("handoff consumer panicked");
        out.register_ns[1] = reg;
        out.last_delivery = last;
        out.recs.push(rec);
        (out, late_drain)
    });
    // The delivery check, after the window: every message once, in order.
    let (mut out, late_drain) = out;
    let mut check = StreamCheck::new(0, total);
    for &s in &buf.seqs {
        check.deliver(Some(u64::from(s)));
    }
    out.delivery = check.finish(late_drain);
    out.delivered = buf.lat.len() as u64;
    out
}

/// The null-mailbox floor: the same pinned threads and schedule, with the
/// queue replaced by one atomic word holding the latest due time. Returns
/// (delivery latencies, producer lateness), in ns.
pub fn floor(key: u64, msgs: u64) -> (Vec<u32>, Vec<u32>) {
    let slot = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (slot, done, start) = (&slot, &done, &start);
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            pin_worker(0);
            let mut late = Vec::with_capacity(msgs as usize);
            start.wait();
            let mut sched = Schedule::new(key);
            let origin = now_ns() + LEAD_NS;
            for _ in 0..msgs {
                // Due times are distinct: `max` keeps two equal offsets apart.
                let due = (origin + sched.next()).max(slot.load(Ordering::Relaxed) + 1);
                spin_until(due);
                late.push(ns32(now_ns() - due));
                slot.store(due, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            late
        });
        let consumer = s.spawn(move || {
            pin_worker(1);
            let mut lat = Vec::with_capacity(msgs as usize);
            start.wait();
            let mut seen = 0;
            loop {
                let v = slot.load(Ordering::Acquire);
                if v != seen {
                    lat.push(ns32(now_ns().saturating_sub(v)));
                    seen = v;
                } else if done.load(Ordering::Acquire) && slot.load(Ordering::Acquire) == seen {
                    return lat;
                }
            }
        });
        let late = producer.join().expect("floor producer panicked");
        let lat = consumer.join().expect("floor consumer panicked");
        (lat, late)
    })
}

/// Median over successive 100 ms of deliveries of each stretch's quantile
/// `q`: a stall that spoils a few stretches moves it little.
fn chunked(lat: &[u32], q: f64) -> f64 {
    let chunk = (RATE * 0.1) as usize;
    let mut per: Vec<f64> = lat
        .chunks(chunk)
        .map(|c| quantile_ns(&mut c.to_vec(), q))
        .collect();
    median(&mut per)
}

/// Runs `handoff` on the queue `make` builds.
///
/// The untraced run splits its window into [`SESSIONS`] sessions, each on a
/// fresh queue, and reports the median session: at head a session settles
/// into one of a few regimes (how far the consumer runs ahead of the
/// producer) and keeps it, so sessions, not messages, are the independent
/// samples.
pub fn run<C: Chan<Msg>>(make: impl Fn() -> C, o: &Opts) -> Outcome {
    let key = key(o.seed);
    // Message counts: the traced run splits its window into an untraced
    // session, a traced one and the floor.
    let all = (RATE * o.seconds) as u64;
    let (plain, traced, floor_msgs) = if o.trace {
        (all * 35 / 100, all * 35 / 100, all * 30 / 100)
    } else {
        (all / SESSIONS, 0, 0)
    };
    let mut buf = Buffers::new((WARM_MSGS + plain.max(traced)) as usize + 1024);
    let mut setups = Vec::new();
    let mut regs = Vec::new();
    let mut out = Outcome::new(Delivery::default(), 0);
    let mut note = |s: &Session, out: &mut Outcome| {
        setups.push(s.setup_ns as f64);
        regs.extend(s.register_ns.iter().map(|&r| r as f64));
        out.delivery.absorb(&s.delivery);
        out.drains += 1;
    };
    for _ in 0..SETUP_TRIALS {
        let s = session(&make, key, 0, false, &mut buf);
        note(&s, &mut out);
    }
    let window_ns = |from: u64, to: u64| (to.saturating_sub(from)) as f64;
    if !o.trace {
        let mut per: [Vec<f64>; 8] = Default::default();
        let mut samples = 0;
        for _ in 0..SESSIONS {
            let s = session(&make, key, plain, false, &mut buf);
            note(&s, &mut out);
            let span = window_ns(s.origin, s.last_delivery);
            per[0].push(ratio((s.sent + s.delivered) as f64 * 1e3, span));
            per[1].push(chunked(&buf.lat, 0.5));
            per[2].push(chunked(&buf.lat, 0.9));
            per[3].push(ratio(s.sent as f64 * 1e3, window_ns(s.origin, s.last_send)));
            per[4].push(ratio(s.delivered as f64 * 1e3, span));
            per[5].push(quantile_ns(&mut buf.lat, 0.99));
            per[6].push(quantile_ns(&mut buf.lat, 0.999));
            per[7].push(quantile_ns(&mut buf.late, 0.99));
            samples += buf.lat.len();
        }
        out.report("latency_samples", samples as f64);
        out.metric("setup_s", median(&mut setups) / 1e9);
        out.metric("throughput_mops", median(&mut per[0]));
        out.metric("latency_p50_us", median(&mut per[1]) / 1e3);
        out.metric("latency_p90_us", median(&mut per[2]) / 1e3);
        out.metric("fill_mops", median(&mut per[3]));
        out.metric("drain_mops", median(&mut per[4]));
        let bytes = crate::footprint::bytes_per_value(
            &make(),
            |seq| Msg { seq, due_ns: 0 },
            |m| Some(m.seq),
            &mut out.delivery,
        );
        out.metric("bytes_per_value", bytes);
        out.drains += 1;
        out.report("latency_p99_us", median(&mut per[5]) / 1e3);
        out.report("latency_p999_us", median(&mut per[6]) / 1e3);
        out.report("late_p99_us", median(&mut per[7]) / 1e3);
        return out;
    }
    let s = session(&make, key, plain, false, &mut buf);
    note(&s, &mut out);
    let p50 = chunked(&buf.lat, 0.5);
    let t = session(&make, key, traced, true, &mut buf);
    note(&t, &mut out);
    let p50_traced = chunked(&buf.lat, 0.5);
    let (mut flat, mut flate) = floor(key, floor_msgs);
    let clock = crate::sys::clock_overhead_ns();
    let trace = Trace { threads: t.recs };
    out.metric("typed.enq_ns", trace.agg("typed.enq").mean_ns(clock));
    out.metric("typed.deq_ns", trace.agg("typed.deq").mean_ns(clock));
    out.metric("typed.empty_ns", trace.agg("typed.empty").mean_ns(clock));
    let begin = &trace.threads[0].snapshots[0];
    let end = &trace.threads[1].snapshots[0];
    for (k, v) in crate::metrics::counter_metrics(begin, end, t.delivered, t.live_peak, t.lag_peak)
    {
        out.metric(k, v);
    }
    out.metric("handle.register_us", median(&mut regs) / 1e3);
    out.metric("gen.late_p99_us", quantile_ns(&mut flate, 0.99) / 1e3);
    out.metric("floor.p50_us", quantile_ns(&mut flat, 0.5) / 1e3);
    out.metric("floor.p99_us", quantile_ns(&mut flat, 0.99) / 1e3);
    out.metric("trace.overhead_frac", ratio(p50_traced - p50, p50));
    out.report("floor_samples", flat.len() as f64);
    out.report("untraced_p50_us", p50 / 1e3);
    out.report("traced_p50_us", p50_traced / 1e3);
    out.report("clock_overhead_ns", clock);
    out.not_driven(&[
        "raw.pair_ns",
        "raw.enq_ns",
        "raw.deq_ns",
        "faa.pair_ns",
        "raw.gap_vs_faa",
        "backend.pair_ns",
        "typed.pair_ns",
    ]);
    out.trace = Some(trace);
    out
}
