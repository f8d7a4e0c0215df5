//! The **cycle ledger**: hardware-counter attribution of the
//! fetch-and-add gap.
//!
//! ```text
//! cargo run -p wfq-bench --release --features cycles --bin cycle_ledger -- \
//!     [--backends faa,mutex,wf] [--backend scq] [--threads T] \
//!     [--pairs N] [--invocations I] [--json out.json] [--md out.md] \
//!     [--metrics-out out.prom] [--commit SHA] [--quick] [--no-pin]
//! ```
//!
//! The paper's claim is structural: the wait-free queue's fast path is one
//! F&A plus one CAS, so its cost should sit within a small constant of the
//! bare-F&A upper bound (§5.2). This binary measures that constant and then
//! *attributes* it: every backend runs the same enqueue–dequeue pair loop
//! under identical pinning while a [`wfq_obs::CounterGroup`] reads cycles,
//! instructions, cache misses, and branch misses around the measured
//! window, and builds carrying `--features cycles` additionally drain the
//! per-phase TSC ledger the `phase!` markers accumulate inside the queue
//! (F&A claim, `find_cell` walk, cell CAS, stats, slow path, hazard
//! bookkeeping, helping, segment allocation). The output is a differential
//! table splitting the WF−F&A cycle delta phase by phase, the normalized
//! `results/BENCH_cycles.json` snapshot, and the `wfq_cycles_*` Prometheus
//! exposition.
//!
//! Runs everywhere: when `perf_event_open` is denied (containers, CI,
//! `WFQ_PERF_DENY=1`) the counter layer degrades to TSC-only mode — cycle
//! numbers become TSC-tick estimates flagged `estimated`, the other
//! counters read 0, and the phase ledger (itself TSC-based) is unaffected.
//!
//! Methodology follows the harness (Georges et al.): `--invocations` fresh
//! queue+thread invocations per backend (plus one discarded warm-up
//! invocation), means with Student-t 95% CIs across invocations. Counter
//! windows cover exactly the measured loop of thread 0; the ledger delta
//! covers all threads' loops, normalized per operation.

use std::sync::Barrier;

use wfq_baselines::{BenchQueue, FaaBench, MutexQueue, QueueHandle, Scq, Wcq, Wf0};
use wfq_bench::Args;
use wfq_harness::cycles::{self, CyclesPoint, CyclesSeries, CyclesSnapshot, PerfMode, PhaseCost};
use wfq_harness::{attribute_gap, render_cycles_prometheus, stats, topology};
use wfq_obs::{
    ledger_totals, probe_overhead_split, CounterGroup, CounterKind, PerfStatus, ALL_COUNTERS,
    ALL_PHASES, NUM_COUNTERS, NUM_PHASES,
};
use wfqueue::RawQueue;

fn die(msg: &str) -> ! {
    eprintln!("cycle_ledger: {msg}");
    std::process::exit(2);
}

#[derive(Clone)]
struct LedgerConfig {
    threads: usize,
    /// Enqueue–dequeue pairs per thread per invocation.
    pairs: u64,
    /// Measured invocations (one extra warm-up invocation is discarded).
    invocations: usize,
    pin: bool,
}

/// One invocation's normalized readings.
struct InvocationSample {
    /// Per-op counter deltas from thread 0's window.
    per_op: [f64; NUM_COUNTERS],
    /// Whether the cycles slot is a true hardware reading.
    cycles_measured: bool,
    /// Per-op phase self-ticks across all threads (all zero for
    /// unledgered backends or hooks-off builds).
    phase_ticks: [f64; NUM_PHASES],
    /// Per-op phase entry counts.
    phase_entries: [f64; NUM_PHASES],
    /// This invocation's `(full, inner)` per-span hook price, probed on
    /// the measurement thread right before the loop (per-invocation
    /// probing tracks TSC/frequency drift a single startup probe misses).
    span_full: f64,
    span_inner: f64,
    /// Counter sourcing reported by thread 0's group.
    perf: PerfMode,
}

fn run_pairs<H: QueueHandle>(h: &mut H, pairs: u64) {
    for i in 1..=pairs {
        h.enqueue(i);
        std::hint::black_box(h.dequeue());
    }
}

fn perf_mode_of(status: &PerfStatus) -> PerfMode {
    match status {
        PerfStatus::Hardware { rdpmc } => PerfMode {
            mode: "hardware".into(),
            rdpmc: *rdpmc,
            reason: String::new(),
        },
        PerfStatus::TscOnly { reason } => PerfMode {
            mode: "tsc-only".into(),
            rdpmc: false,
            reason: reason.clone(),
        },
    }
}

fn run_invocation<Q: BenchQueue>(cfg: &LedgerConfig) -> InvocationSample {
    let q = Q::new();
    // Workers plus the coordinating main thread: the ledger-before
    // snapshot must be taken *after* thread 0's in-situ hook probe (whose
    // spans would otherwise pollute this invocation's Faa ticks) and
    // *before* any measured op.
    let barrier = Barrier::new(cfg.threads + 1);
    let (thread0, ledger_delta) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let q = &q;
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                if cfg.pin {
                    topology::pin_to_cpu(t);
                }
                let mut h = q.register();
                // Everyone touches the queue once before the measured
                // window so registration/first-segment costs land outside
                // the counters (value 1: 0 and u64::MAX are reserved).
                h.enqueue(1);
                std::hint::black_box(h.dequeue());
                if t == 0 {
                    // Probe the hook price here — same thread, same pin,
                    // same moment as the measured loop — rather than once
                    // at startup: the TSC cost of a span drifts with
                    // frequency scaling, and a stale probe over- or
                    // under-subtracts systematically.
                    let probe = probe_overhead_split();
                    let group = CounterGroup::open();
                    let perf = perf_mode_of(group.status());
                    barrier.wait(); // probes done; main snapshots the ledger
                    barrier.wait(); // ledger window open
                    let s0 = group.snapshot();
                    run_pairs(&mut h, cfg.pairs);
                    let s1 = group.snapshot();
                    Some((s1.delta_since(&s0), perf, probe))
                } else {
                    barrier.wait();
                    barrier.wait();
                    run_pairs(&mut h, cfg.pairs);
                    None
                }
            }));
        }
        barrier.wait(); // all threads registered, pre-touched, probed
        let ledger_before = ledger_totals();
        barrier.wait(); // release the measured loops
        let mut t0 = None;
        for h in handles {
            if let Some(r) = h.join().expect("measurement thread panicked") {
                t0 = Some(r);
            }
        }
        let t0 = t0.expect("thread 0 reports the counter window");
        (t0, ledger_totals().delta_since(&ledger_before))
    });

    let (delta, perf, probe) = thread0;
    let ops_thread0 = (2 * cfg.pairs) as f64;
    let ops_all = ops_thread0 * cfg.threads as f64;
    let mut per_op = [0.0; NUM_COUNTERS];
    for kind in ALL_COUNTERS {
        per_op[kind as usize] = delta.count(kind) as f64 / ops_thread0;
    }
    let mut phase_ticks = [0.0; NUM_PHASES];
    let mut phase_entries = [0.0; NUM_PHASES];
    for p in ALL_PHASES {
        phase_ticks[p as usize] = ledger_delta.ticks_of(p) as f64 / ops_all;
        phase_entries[p as usize] = ledger_delta.entries_of(p) as f64 / ops_all;
    }
    InvocationSample {
        per_op,
        cycles_measured: delta.is_measured(CounterKind::Cycles),
        phase_ticks,
        phase_entries,
        span_full: probe.0 as f64,
        span_inner: probe.1 as f64,
        perf,
    }
}

/// Measures one backend: warm-up invocation discarded, then
/// `cfg.invocations` measured invocations aggregated into one
/// [`CyclesPoint`].
///
/// Every sample is de-biased with its own invocation's probed `(full,
/// inner)` per-span hook price before aggregation: each ledgered span
/// added ~`full` ticks to the measured op total and recorded ~`inner`
/// ticks of pure hook time as phase self-time, so subtracting
/// `entries × full` from the total and `entries × inner` from each phase
/// estimates the *uninstrumented* costs — the numbers a hooks-off build
/// would measure, and the ones the WF−F&A attribution is honest against.
/// The de-biased total is then clamped to the de-biased phase sum from
/// below: the Glue envelope brackets every op end to end, so an op's true
/// cost can never be less than what its own ledger accounted — a probe
/// that momentarily overestimates `full` must not push coverage past
/// 100%. Backends without ledger entries (F&A, mutex, hooks-off builds)
/// have zero entries and pass through unchanged.
fn measure_backend<Q: BenchQueue>(cfg: &LedgerConfig) -> (CyclesPoint, PerfMode) {
    eprintln!("  measuring {} ...", Q::NAME);
    let _ = run_invocation::<Q>(cfg); // warm-up (first-touch, calibration)
    let mut raw_cycles_sum = 0.0;
    let mut span_full_sum = 0.0;
    let samples: Vec<InvocationSample> = (0..cfg.invocations)
        .map(|_| {
            let mut s = run_invocation::<Q>(cfg);
            raw_cycles_sum += s.per_op[CounterKind::Cycles as usize];
            span_full_sum += s.span_full;
            // Every span (nested or not) adds ~`full` hook ticks to the
            // outer counter window, and records ~`inner` of them as its
            // own self-time.
            let entries_total: f64 = s.phase_entries.iter().sum();
            for p in ALL_PHASES {
                let i = p as usize;
                s.phase_ticks[i] =
                    (s.phase_ticks[i] - s.phase_entries[i] * s.span_inner).max(0.0);
            }
            // A nested span's remaining `full − inner` edge ticks land in
            // its *parent's* self-time. The nesting is static: every named
            // phase sits under the Glue envelope except SegAlloc, which
            // nests one deeper under FindCell.
            let edge = (s.span_full - s.span_inner).max(0.0);
            let glue = wfq_obs::Phase::Glue as usize;
            if s.phase_entries[glue] > 0.0 {
                let seg = wfq_obs::Phase::SegAlloc as usize;
                let fc = wfq_obs::Phase::FindCell as usize;
                let under_glue = entries_total - s.phase_entries[glue] - s.phase_entries[seg];
                s.phase_ticks[glue] = (s.phase_ticks[glue] - under_glue * edge).max(0.0);
                s.phase_ticks[fc] = (s.phase_ticks[fc] - s.phase_entries[seg] * edge).max(0.0);
            }
            let phase_sum: f64 = s.phase_ticks.iter().sum();
            s.per_op[CounterKind::Cycles as usize] = (s.per_op[CounterKind::Cycles as usize]
                - entries_total * s.span_full)
                .max(phase_sum);
            s
        })
        .collect();

    let cycles: Vec<f64> = samples
        .iter()
        .map(|s| s.per_op[CounterKind::Cycles as usize])
        .collect();
    let (cycles_mean, cycles_ci) = stats::confidence_interval_95(&cycles);
    let mut counters_per_op = [0.0; NUM_COUNTERS];
    for kind in ALL_COUNTERS {
        let xs: Vec<f64> = samples.iter().map(|s| s.per_op[kind as usize]).collect();
        counters_per_op[kind as usize] = stats::mean(&xs);
    }
    counters_per_op[CounterKind::Cycles as usize] = cycles_mean;

    // Phases with no entries anywhere (unledgered backend, hooks-off
    // build, or a phase this run never exercised at all) are omitted; a
    // phase that ran in any invocation is kept even when some invocations
    // saw zero entries, so its mean is over the same n as the totals.
    let mut phases = Vec::new();
    for p in ALL_PHASES {
        let ticks: Vec<f64> = samples.iter().map(|s| s.phase_ticks[p as usize]).collect();
        let entries: Vec<f64> = samples
            .iter()
            .map(|s| s.phase_entries[p as usize])
            .collect();
        if entries.iter().all(|e| *e == 0.0) {
            continue;
        }
        let (mean, ci_half) = stats::confidence_interval_95(&ticks);
        phases.push(PhaseCost {
            phase: p.name().to_string(),
            cycles_per_op: mean,
            ci_half,
            entries_per_op: stats::mean(&entries),
        });
    }
    let phase_sum: f64 = phases.iter().map(|p| p.cycles_per_op).sum();
    let raw_mean = raw_cycles_sum / cfg.invocations as f64;
    if (raw_mean - cycles_mean).abs() > 0.5 {
        eprintln!(
            "    {:.1} cycles/op as measured, {:.1} after hook de-bias \
             ({:.0} ticks/span × entries)",
            raw_mean,
            cycles_mean,
            span_full_sum / cfg.invocations as f64
        );
    }
    let point = CyclesPoint {
        threads: cfg.threads,
        counters_per_op,
        ci_half: cycles_ci,
        estimated: samples.iter().any(|s| !s.cycles_measured),
        attributed_pct: if cycles_mean > 0.0 && !phases.is_empty() {
            100.0 * phase_sum / cycles_mean
        } else {
            0.0
        },
        phases,
    };
    (point, samples[0].perf.clone())
}

fn render_markdown(snap: &CyclesSnapshot, overhead: (u64, u64)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Cycle ledger\n");
    let _ = writeln!(
        out,
        "Counter source: **{}**{}{}. Phase hooks: {}; instrumented backends are \
         de-biased by the per-invocation probed hook price (startup probe ≈ {} \
         ticks/span, {} inside the window) to estimate uninstrumented costs, \
         with the total clamped from below to the phase sum.\n",
        snap.perf.mode,
        if snap.perf.rdpmc { " (rdpmc)" } else { "" },
        if snap.perf.reason.is_empty() {
            String::new()
        } else {
            format!(" — {}", snap.perf.reason)
        },
        if wfq_obs::CYCLES_ENABLED {
            "compiled in"
        } else {
            "compiled out"
        },
        overhead.0,
        overhead.1,
    );
    let _ = writeln!(
        out,
        "| queue | threads | cycles/op | instr/op | L1d miss/op | LLC miss/op | br miss/op | ledger coverage |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for s in &snap.series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} ±{:.1}{} | {:.1} | {:.3} | {:.3} | {:.3} | {} |",
                s.name,
                p.threads,
                p.cycles_per_op(),
                p.ci_half,
                if p.estimated { " (est)" } else { "" },
                p.counter_per_op(CounterKind::Instructions),
                p.counter_per_op(CounterKind::L1dMisses),
                p.counter_per_op(CounterKind::LlcMisses),
                p.counter_per_op(CounterKind::BranchMisses),
                if p.phases.is_empty() {
                    "—".to_string()
                } else {
                    format!("{:.1}%", p.attributed_pct)
                },
            );
        }
    }
    if let Some(d) = &snap.delta {
        let _ = writeln!(
            out,
            "\n## The {} − {} gap, phase by phase\n",
            d.candidate, d.baseline
        );
        let _ = writeln!(
            out,
            "Gap: **{:+.1} cycles/op**; the ledger attributes **{:.1}%** of it.\n",
            d.cycle_delta_per_op, d.attributed_pct
        );
        let _ = writeln!(out, "| phase | cycles/op | gap contribution | share |");
        let _ = writeln!(out, "|---|---|---|---|");
        for p in &d.phases {
            let _ = writeln!(
                out,
                "| {} | {:.1} | {:.1} | {:.1}% |",
                p.phase, p.cycles_per_op, p.gap_contribution, p.share_pct
            );
        }
    }
    out
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let cfg = LedgerConfig {
        threads: args.num("threads", 1) as usize,
        pairs: args.num("pairs", if quick { 20_000 } else { 400_000 }),
        invocations: args.num("invocations", if quick { 3 } else { 10 }) as usize,
        pin: !args.flag("no-pin"),
    };
    if cfg.threads == 0 || cfg.pairs == 0 || cfg.invocations == 0 {
        die("--threads, --pairs, and --invocations must be positive");
    }
    let backends: Vec<String> = args
        .get("backends")
        .unwrap_or("faa,mutex,wf")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .chain(args.get("backend").map(str::to_string))
        .collect();

    let hw = topology::num_cpus();
    let overhead = probe_overhead_split();
    eprintln!(
        "cycle_ledger: {} thread{} ({hw} hardware), {} pairs/invocation, {}+1 invocations, \
         phase hooks {} (probe ≈ {} ticks/span, {} inside the window)",
        cfg.threads,
        if cfg.threads == 1 { "" } else { "s" },
        cfg.pairs,
        cfg.invocations,
        if wfq_obs::CYCLES_ENABLED {
            "on"
        } else {
            "off — rebuild with --features cycles for the per-phase ledger"
        },
        overhead.0,
        overhead.1,
    );

    let mut series: Vec<CyclesSeries> = Vec::new();
    let mut perf: Option<PerfMode> = None;
    macro_rules! backend {
        ($q:ty) => {{
            let (point, mode) = measure_backend::<$q>(&cfg);
            perf.get_or_insert(mode);
            series.push(CyclesSeries {
                name: <$q as BenchQueue>::NAME.to_string(),
                points: vec![point],
            });
        }};
    }
    for b in &backends {
        match b.as_str() {
            "faa" => backend!(FaaBench),
            "mutex" => backend!(MutexQueue),
            "wf" => backend!(RawQueue),
            "wf0" => backend!(Wf0),
            "scq" => backend!(Scq),
            "wcq" => backend!(Wcq),
            other => die(&format!(
                "unknown backend {other:?} (faa, mutex, wf, wf0, scq, wcq)"
            )),
        }
    }
    let perf = perf.unwrap_or_else(|| die("no backend measured"));
    if perf.mode == "tsc-only" {
        eprintln!(
            "  note: perf counters unavailable ({}) — cycles are TSC-tick estimates, \
             cache/branch counters read 0",
            perf.reason
        );
    }

    // The headline artifact: attribute the WF−F&A delta phase by phase.
    let faa_name = <FaaBench as BenchQueue>::NAME;
    let wf_name = <RawQueue as BenchQueue>::NAME;
    let delta = {
        let find = |n: &str| {
            series
                .iter()
                .find(|s| s.name == n)
                .and_then(|s| s.points.first())
        };
        match (find(faa_name), find(wf_name)) {
            (Some(base), Some(cand)) if !cand.phases.is_empty() => {
                Some(attribute_gap(faa_name, base, wf_name, cand))
            }
            _ => None,
        }
    };

    let snap = CyclesSnapshot {
        commit: args.get("commit").map(str::to_string),
        benchmark: "cycle_ledger".into(),
        workload: "pairwise".into(),
        perf,
        series,
        delta,
    };

    print!("{}", render_markdown(&snap, overhead));
    if snap.delta.is_none() && wfq_obs::CYCLES_ENABLED {
        eprintln!(
            "  note: no gap attribution — it needs both the faa and wf backends in --backends"
        );
    }

    if let Some(path) = args.get("json") {
        std::fs::write(path, cycles::document(&snap).render()).expect("write json");
        eprintln!("json written to {path}");
    }
    if let Some(path) = args.get("md") {
        std::fs::write(path, render_markdown(&snap, overhead)).expect("write markdown");
        eprintln!("markdown written to {path}");
    }
    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, render_cycles_prometheus(&snap)).expect("write metrics");
        eprintln!("prometheus exposition written to {path}");
    }
}
