//! `pairs`: one pinned thread, closed loop, enqueue–dequeue pairs of seeded
//! values on `RawQueue` with the default (WF-10) configuration — the
//! paper's Figure 2 (top) at one thread. The queue is at most one deep, so
//! every operation is fast path plus steady segment turnover.
//!
//! The traced run adds the layer ladder: the same loop, on the same pinned
//! thread, through the fetch-and-add floor, the raw handle, the
//! `QueueBackend` generics and the typed queue.

use std::hint::black_box;

use wfq_baselines::FaaBench;
use wfqueue::{BackendHandle, QueueBackend, RawQueue, WfQueue};

use crate::chan::{Chan, Port};
use crate::check::{decode, encode, key, Delivery};
use crate::quant::{median, quantile, ratio};
use crate::sys::{now_ns, pin_worker, touch};
use crate::trace::{Recorder, Trace, NO_PARENT};
use crate::{Opts, Outcome, SETUP_TRIALS};

/// Pairs run before the timed window (part of set-up).
const WARM_PAIRS: u64 = 200_000;
/// Pairs per timed window; a window is the unit the medians are over.
const WINDOW: u64 = 16_384;
/// A traced run records spans around 1 pair in this many: prime, so the
/// samples fall on every cell position of a 1024-cell segment alike.
const SAMPLE: u64 = 61;
/// Independent sessions the untraced window is split into.
const SESSIONS: usize = 4;
/// How long the drain after the timed window may take.
const DRAIN_DEADLINE_NS: u64 = 200_000_000;

/// Drives a [`BackendHandle`] through the [`Port`] loop.
struct Via<H>(H);

impl<H: BackendHandle> Port<u64> for Via<H> {
    #[inline]
    fn send(&mut self, v: u64) {
        self.0.enqueue(v);
    }
    #[inline]
    fn recv(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

/// `n` closed-loop pairs from sequence number `*seq`. With `CHECK`, each
/// dequeue must return the value just enqueued; the F&A floor moves no
/// values and runs unchecked.
#[inline(always)]
fn pairs<P: Port<u64>, const CHECK: bool>(
    p: &mut P,
    key: u64,
    seq: &mut u64,
    n: u64,
    d: &mut Delivery,
) {
    for _ in 0..n {
        let v = encode(key, *seq);
        *seq += 1;
        p.send(v);
        let got = p.recv();
        if CHECK {
            if got != Some(v) {
                mismatch(p, got, v, d);
            }
        } else {
            black_box(got);
        }
    }
    d.sent += n;
    d.delivered += n;
}

/// A pair whose dequeue did not return its own value: EMPTY is a lost
/// value, another value is a FIFO violation, and whatever else the queue
/// then holds is extra (duplicated) — drained so the loop is one deep again.
#[cold]
#[inline(never)]
fn mismatch<P: Port<u64>>(p: &mut P, got: Option<u64>, v: u64, d: &mut Delivery) {
    match got {
        None => {
            d.lost += 1;
            d.delivered -= 1;
        }
        Some(_) => {
            d.reordered += 1;
            for _ in 0..1 << 20 {
                match p.recv() {
                    None => break,
                    Some(x) if x == v => {}
                    Some(_) => {
                        d.duplicated += 1;
                        d.delivered += 1;
                    }
                }
            }
        }
    }
}

/// Timed windows of [`WINDOW`] pairs until `end_ns`; appends the per-pair
/// ns of each to `w`.
fn windows<P: Port<u64>, const CHECK: bool>(
    p: &mut P,
    key: u64,
    seq: &mut u64,
    end_ns: u64,
    d: &mut Delivery,
    w: &mut Vec<f64>,
    mut after_each: impl FnMut(),
) {
    loop {
        let t0 = now_ns();
        pairs::<P, CHECK>(p, key, seq, WINDOW, d);
        let t1 = now_ns();
        w.push((t1 - t0) as f64 / WINDOW as f64);
        after_each();
        if t1 >= end_ns {
            return;
        }
    }
}

/// Like [`windows`], with spans around one pair in [`SAMPLE`]: a `pair`
/// span (op id = sequence number) parenting `raw.enq` and `raw.deq`.
#[allow(clippy::too_many_arguments)]
fn traced_windows<P: Port<u64>>(
    p: &mut P,
    key: u64,
    seq: &mut u64,
    end_ns: u64,
    d: &mut Delivery,
    rec: &mut Recorder,
    phase: u32,
    mut after_each: impl FnMut(),
) -> Vec<f64> {
    let mut w = Vec::new();
    loop {
        let t0 = now_ns();
        for _ in 0..WINDOW / SAMPLE {
            pairs::<P, true>(p, key, seq, SAMPLE - 1, d);
            let op = *seq;
            let v = encode(key, op);
            *seq += 1;
            let a = now_ns();
            p.send(v);
            let b = now_ns();
            let got = p.recv();
            let c = now_ns();
            d.sent += 1;
            d.delivered += 1;
            if got != Some(v) {
                mismatch(p, got, v, d);
            }
            let pair = rec.call("pair", a, c, phase, op);
            rec.call("raw.enq", a, b, pair, op);
            rec.call("raw.deq", b, c, pair, op);
        }
        let t1 = now_ns();
        w.push((t1 - t0) as f64 / (WINDOW / SAMPLE * SAMPLE) as f64);
        after_each();
        if t1 >= end_ns {
            return w;
        }
    }
}

/// Dequeues until EMPTY: after the window the queue must hold nothing, so
/// every value found is extra.
fn drain_rest<P: Port<u64>>(p: &mut P, d: &mut Delivery) {
    let deadline = now_ns() + DRAIN_DEADLINE_NS;
    while p.recv().is_some() {
        d.duplicated += 1;
        d.delivered += 1;
        if now_ns() > deadline {
            d.late_drains += 1;
            return;
        }
    }
}

/// Per-step windows of the layer ladder.
#[derive(Default)]
struct Ladder {
    faa: Vec<f64>,
    raw: Vec<f64>,
    backend: Vec<f64>,
    typed: Vec<f64>,
}

/// The ladder F&A → raw → backend → typed, `rounds` times in that order,
/// each step timed for `step_ns`.
fn ladder(key: u64, step_ns: u64, rounds: u32, d: &mut Delivery) -> Ladder {
    let faa = FaaBench::new();
    let raw = RawQueue::new();
    let backend = <RawQueue as QueueBackend>::new();
    let typed = WfQueue::<u64>::new();
    let mut hf = Via(QueueBackend::register(&faa));
    let mut hr = raw.register();
    let mut hb = Via(QueueBackend::register(&backend));
    let mut ht = typed.handle();
    let mut seq = 0;
    pairs::<_, false>(&mut hf, key, &mut seq, WARM_PAIRS, d);
    pairs::<_, true>(&mut hr, key, &mut seq, WARM_PAIRS, d);
    pairs::<_, true>(&mut hb, key, &mut seq, WARM_PAIRS, d);
    pairs::<_, true>(&mut ht, key, &mut seq, WARM_PAIRS, d);
    let mut l = Ladder::default();
    for _ in 0..rounds {
        let end = || now_ns() + step_ns;
        windows::<_, false>(&mut hf, key, &mut seq, end(), d, &mut l.faa, || {});
        windows::<_, true>(&mut hr, key, &mut seq, end(), d, &mut l.raw, || {});
        windows::<_, true>(&mut hb, key, &mut seq, end(), d, &mut l.backend, || {});
        windows::<_, true>(&mut ht, key, &mut seq, end(), d, &mut l.typed, || {});
    }
    drain_rest(&mut hr, d);
    drain_rest(&mut hb, d);
    drain_rest(&mut ht, d);
    // The F&A floor moved no values: it has none to account for.
    d.sent -= faa.totals().0;
    d.delivered -= faa.totals().0;
    l
}

/// What one session (set-up, then the plan's timed work) measured.
#[derive(Default)]
struct Session {
    setup_ns: u64,
    register_ns: u64,
    delivery: Delivery,
    /// Per-pair ns of each traced window.
    traced: Vec<f64>,
    ladder: Ladder,
    rec: Option<Recorder>,
    delivered_between_snaps: u64,
    live_peak: u64,
    lag_peak: u64,
}

/// Set-up, then nothing (`secs == 0`), an untraced window of `secs`, or
/// (`traced`) the traced layout: untraced quarter, traced quarter, ladder
/// half. Untraced windows are appended to `win`.
fn session<C: Chan<u64>>(
    make: impl FnOnce() -> C,
    key: u64,
    secs: f64,
    traced: bool,
    win: &mut Vec<f64>,
) -> Session {
    let t0 = now_ns();
    let q = make();
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_worker(0);
            let mut out = Session::default();
            let r0 = now_ns();
            let mut p = q.port();
            out.register_ns = now_ns() - r0;
            let d = &mut out.delivery;
            let mut seq = 0;
            pairs::<_, true>(&mut p, key, &mut seq, WARM_PAIRS, d);
            let start = now_ns();
            out.setup_ns = start - t0;
            let span = (secs * 1e9) as u64;
            if span == 0 {
                drain_rest(&mut p, d);
                return out;
            }
            if !traced {
                windows::<_, true>(&mut p, key, &mut seq, start + span, d, win, || {});
                drain_rest(&mut p, d);
                return out;
            }
            let mut rec = Recorder::new(0);
            let (mut live, mut lag) = (0, 0);
            let mut sample = |q: &C| {
                let g = q.gauges();
                live = live.max(g.live_segments);
                lag = lag.max(g.hazard_lag_segments);
            };
            let ph = rec.open("untraced", NO_PARENT);
            rec.snapshot("begin", ph, &q);
            let seq0 = seq;
            windows::<_, true>(&mut p, key, &mut seq, now_ns() + span / 4, d, win, || {
                sample(&q)
            });
            rec.close(ph);
            let ph = rec.open("traced", NO_PARENT);
            out.traced = traced_windows(
                &mut p,
                key,
                &mut seq,
                now_ns() + span / 4,
                d,
                &mut rec,
                ph,
                || sample(&q),
            );
            rec.snapshot("end", ph, &q);
            rec.close(ph);
            out.delivered_between_snaps = seq - seq0;
            drain_rest(&mut p, d);
            let ph = rec.open("ladder", NO_PARENT);
            out.ladder = ladder(key, span / 2 / 8, 2, d);
            rec.close(ph);
            (out.live_peak, out.lag_peak) = (live, lag);
            out.rec = Some(rec);
            out
        })
        .join()
        .expect("pairs worker panicked")
    })
}

/// Runs `pairs` on the queue `make` builds.
///
/// The untraced run splits its window into [`SESSIONS`] sessions, each on a
/// fresh queue and thread, and pools their windows: how fast a queue
/// instance runs varies with where its segments land, so instances are
/// the independent samples.
pub fn run<C: Chan<u64>>(make: impl Fn() -> C, o: &Opts) -> Outcome {
    let key = key(o.seed);
    let sessions = if o.trace { 1 } else { SESSIONS };
    // Room for every window at well above the rate this host reaches.
    let mut win = vec![0.0; (o.seconds * 4_000.0) as usize + 64];
    touch(&mut win, 1.0);
    win.clear();
    let mut setups = Vec::new();
    let mut regs = Vec::new();
    let mut out = Outcome::new(Delivery::default(), 0);
    let mut last = Session::default();
    for i in 0..SETUP_TRIALS + sessions {
        let secs = if i < SETUP_TRIALS {
            0.0
        } else {
            o.seconds / sessions as f64
        };
        last = session(&make, key, secs, o.trace, &mut win);
        setups.push(last.setup_ns as f64);
        regs.push(last.register_ns as f64);
        out.delivery.absorb(&last.delivery);
        out.drains += 1;
    }
    let mut s = last;
    let pair_ns = median(&mut win);
    out.report("windows", win.len() as f64);
    if !o.trace {
        out.metric("setup_s", median(&mut setups) / 1e9);
        out.metric("throughput_mops", 2e3 / pair_ns);
        out.metric("latency_p50_us", pair_ns / 1e3);
        out.metric("latency_p90_us", quantile(&mut win, 0.9) / 1e3);
        out.metric("fill_mops", 1e3 / pair_ns);
        out.metric("drain_mops", 1e3 / pair_ns);
        let bytes = crate::footprint::bytes_per_value(
            &make(),
            |s| encode(key, s),
            |&v| decode(key, v),
            &mut out.delivery,
        );
        out.metric("bytes_per_value", bytes);
        out.drains += 1;
        return out;
    }
    let rec = s.rec.take().expect("a traced session records");
    let clock = crate::sys::clock_overhead_ns();
    let raw = median(&mut s.ladder.raw);
    let faa = median(&mut s.ladder.faa);
    out.metric("raw.pair_ns", raw);
    out.metric("raw.enq_ns", rec.agg("raw.enq").mean_ns(clock));
    out.metric("raw.deq_ns", rec.agg("raw.deq").mean_ns(clock));
    out.metric("faa.pair_ns", faa);
    out.metric("raw.gap_vs_faa", ratio(raw, faa));
    out.metric("backend.pair_ns", median(&mut s.ladder.backend));
    out.metric("typed.pair_ns", median(&mut s.ladder.typed));
    let snaps = &rec.snapshots;
    for (k, v) in crate::metrics::counter_metrics(
        &snaps[0],
        &snaps[1],
        s.delivered_between_snaps,
        s.live_peak,
        s.lag_peak,
    ) {
        out.metric(k, v);
    }
    out.metric("handle.register_us", median(&mut regs) / 1e3);
    // Throughput is 1 / pair time, so its relative loss under tracing is
    // (traced − untraced) / traced in pair time.
    let traced_ns = median(&mut s.traced);
    out.metric("trace.overhead_frac", ratio(traced_ns - pair_ns, traced_ns));
    out.not_driven(&[
        "typed.enq_ns",
        "typed.deq_ns",
        "typed.empty_ns",
        "gen.late_p99_us",
        "floor.p50_us",
        "floor.p99_us",
    ]);
    out.report("clock_overhead_ns", clock);
    out.trace = Some(Trace { threads: vec![rec] });
    out
}
