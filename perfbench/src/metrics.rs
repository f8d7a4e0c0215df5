//! Metric names, units, and the derivation of the counter-based layer
//! metrics. The tables here are what the benchmark prints; a test checks
//! them against `BENCHMARK.json`.

use crate::quant::ratio;
use crate::trace::Snapshot;

/// A metric's name, unit, and which direction is better.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds the tables to `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the queue sees; printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("throughput_mops", "Mops/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p90_us", "us", "lower"),
    def("fill_mops", "Mops/s", "higher"),
    def("drain_mops", "Mops/s", "higher"),
    def("bytes_per_value", "B", "lower"),
];

/// One layer each; printed by every traced run.
pub const PER_LAYER: &[Def] = &[
    def("raw.pair_ns", "ns", "lower"),
    def("raw.enq_ns", "ns", "lower"),
    def("raw.deq_ns", "ns", "lower"),
    def("faa.pair_ns", "ns", "lower"),
    def("raw.gap_vs_faa", "ratio", "lower"),
    def("backend.pair_ns", "ns", "lower"),
    def("typed.pair_ns", "ns", "lower"),
    def("typed.enq_ns", "ns", "lower"),
    def("typed.deq_ns", "ns", "lower"),
    def("typed.empty_ns", "ns", "lower"),
    def("raw.empty_per_value", "count/value", "lower"),
    def("raw.sealed_per_value", "count/value", "lower"),
    def("raw.cell_yield", "ratio", "higher"),
    def("raw.enq_slow_frac", "ratio", "lower"),
    def("raw.deq_slow_frac", "ratio", "lower"),
    def("raw.help_per_kop", "count/kop", "lower"),
    def("raw.enq_slow_helped_frac", "ratio", "lower"),
    def("segment.allocs_per_mop", "count/Mop", "lower"),
    def("segment.live_peak", "segments", "lower"),
    def("reclaim.cleanups_per_mop", "count/Mop", "lower"),
    def("reclaim.freed_per_mop", "count/Mop", "higher"),
    def("reclaim.hazard_lag_peak", "segments", "lower"),
    def("handle.register_us", "us", "lower"),
    def("gen.late_p99_us", "us", "lower"),
    def("floor.p50_us", "us", "lower"),
    def("floor.p99_us", "us", "lower"),
    def("trace.overhead_frac", "ratio", "lower"),
];

/// The counter-based layer metrics over the interval between snapshots `a`
/// and `b`, in which `delivered` values came out.
pub fn counter_metrics(
    a: &Snapshot,
    b: &Snapshot,
    delivered: u64,
    live_peak: u64,
    lag_peak: u64,
) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&wfqueue::QueueStats) -> u64| (f(&b.stats) - f(&a.stats)) as f64;
    let enqs = d(|s| s.enqueues());
    let deqs = d(|s| s.dequeues());
    let ops = enqs + deqs;
    let delivered = delivered as f64;
    vec![
        ("raw.empty_per_value", ratio(d(|s| s.deq_empty), delivered)),
        (
            "raw.sealed_per_value",
            ratio(d(|s| s.help_enq_seal), delivered),
        ),
        ("raw.cell_yield", ratio(delivered, (b.tail - a.tail) as f64)),
        ("raw.enq_slow_frac", ratio(d(|s| s.enq_slow), enqs)),
        ("raw.deq_slow_frac", ratio(d(|s| s.deq_slow), deqs)),
        (
            "raw.help_per_kop",
            ratio(d(|s| s.help_enq + s.help_deq), ops / 1e3),
        ),
        (
            "raw.enq_slow_helped_frac",
            ratio(d(|s| s.enq_slow_helped), d(|s| s.enq_slow)),
        ),
        (
            "segment.allocs_per_mop",
            ratio(d(|s| s.segs_alloc), ops / 1e6),
        ),
        ("segment.live_peak", live_peak as f64),
        (
            "reclaim.cleanups_per_mop",
            ratio(d(|s| s.cleanups), ops / 1e6),
        ),
        (
            "reclaim.freed_per_mop",
            ratio(d(|s| s.segs_freed), ops / 1e6),
        ),
        ("reclaim.hazard_lag_peak", lag_peak as f64),
    ]
}

/// Formats a number for JSON: finite values with every digit Rust keeps
/// for an exact round trip.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, where `metrics` holds exactly the metrics of
/// `defs`. Panics when `values` misses or adds a name — a bug in the
/// benchmark, never a property of the run.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &[(&'static str, f64)],
) -> String {
    let mut names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    want.sort_unstable();
    assert_eq!(names, want, "metric set differs from the table");
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
