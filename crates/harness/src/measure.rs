//! The invocation/iteration measurement protocol (Georges et al., §5.1),
//! for both the paper's closed-loop throughput runs and the open-loop
//! latency observatory (quantiles with Student-t CIs over invocations).

use wfq_baselines::BenchQueue;
use wfq_sync::delay::SpinDelay;

use crate::attribution::Attribution;
use crate::histogram::Histogram;
use crate::stats;
use crate::workload::{run_iteration, run_open_loop_iteration, BenchConfig, OpenLoopConfig};

/// Result of measuring one queue at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Mean of the invocation means, Mops/s.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci_half: f64,
    /// Per-invocation steady-state means.
    pub invocations: Vec<f64>,
    /// Per-invocation COV of the chosen steady window (diagnostics).
    pub windows_cov: Vec<f64>,
}

/// Runs one *invocation*: a fresh queue, up to `max_iterations` iterations,
/// steady-state detection, and the mean over the steady window.
///
/// Returns `(steady_mean, window_cov)`.
pub fn measure_invocation<Q: BenchQueue>(
    cfg: &BenchConfig,
    delay: &SpinDelay,
    invocation: u64,
) -> (f64, f64) {
    let q = Q::with_ceiling(cfg.segment_ceiling);
    let mut iters: Vec<f64> = Vec::with_capacity(cfg.max_iterations);
    for i in 0..cfg.max_iterations {
        let round = invocation * 1_000 + i as u64;
        iters.push(run_iteration(&q, cfg, delay, round).mops);
        // Early exit as soon as a steady window exists below threshold
        // (the paper's "determine the iteration s_i in which steady-state
        // performance is reached").
        if iters.len() >= cfg.window {
            let tail = &iters[iters.len() - cfg.window..];
            if stats::cov(tail) < cfg.cov_threshold {
                return (stats::mean(tail), stats::cov(tail));
            }
        }
    }
    // Never settled: lowest-COV window of the full run (paper fallback).
    let (start, c) = stats::steady_state_window(&iters, cfg.window.min(iters.len()), cfg.cov_threshold)
        .expect("at least one window exists");
    let w = &iters[start..start + cfg.window.min(iters.len())];
    (stats::mean(w), c)
}

/// Full protocol: `cfg.invocations` invocations, each reduced to its
/// steady-state mean; returns the grand mean with a 95% CI.
pub fn measure_queue<Q: BenchQueue>(cfg: &BenchConfig) -> Measurement {
    let delay = SpinDelay::calibrate();
    let mut means = Vec::with_capacity(cfg.invocations);
    let mut covs = Vec::with_capacity(cfg.invocations);
    for inv in 0..cfg.invocations {
        let (m, c) = measure_invocation::<Q>(cfg, &delay, inv as u64);
        means.push(m);
        covs.push(c);
    }
    let (mean, ci_half) = stats::confidence_interval_95(&means);
    Measurement {
        mean,
        ci_half,
        invocations: means,
        windows_cov: covs,
    }
}

// ----------------------------------------------------------------------
// Open-loop measurement (latency observatory)
// ----------------------------------------------------------------------

/// One latency quantile with its Student-t 95% CI over invocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileStat {
    /// Mean of the per-invocation quantile values, nanoseconds.
    pub mean_ns: f64,
    /// Half-width of the 95% confidence interval.
    pub ci_half_ns: f64,
}

/// Result of measuring one backend at one offered rate in the open loop.
#[derive(Debug, Clone)]
pub struct OpenLoopMeasurement {
    /// The offered (intended) aggregate arrival rate, ops/s.
    pub offered_rate: f64,
    /// Mean achieved completion rate over invocations, ops/s.
    pub achieved_rate: f64,
    /// p50 across invocations.
    pub p50: QuantileStat,
    /// p90 across invocations.
    pub p90: QuantileStat,
    /// p99 across invocations.
    pub p99: QuantileStat,
    /// p99.9 across invocations.
    pub p999: QuantileStat,
    /// Max across invocations.
    pub max: QuantileStat,
    /// All invocations' samples merged (Prometheus export, reports).
    pub merged: Histogram,
    /// Merged per-path attribution (empty without `op-sample` backends).
    pub attribution: Attribution,
    /// Whether a majority of invocations ended saturated (generator lag
    /// above 10% of the intended span).
    pub saturated: bool,
    /// Total rejected enqueues across invocations (overload mode).
    pub drops: u64,
    /// Worst generator lag seen in any invocation, ns.
    pub max_lag_ns: u64,
    /// Mean end-of-run backlog (enqueues − dequeues delivered).
    pub backlog: i64,
}

/// Open-loop protocol: `cfg.invocations` invocations against fresh
/// queues; each invocation's histogram is reduced to its quantiles, and
/// quantiles get a mean + Student-t 95% CI across invocations (the same
/// machinery as the throughput protocol — a quantile estimate from one
/// run is itself a noisy statistic).
pub fn measure_open_loop<Q: BenchQueue>(cfg: &OpenLoopConfig) -> OpenLoopMeasurement {
    let delay = SpinDelay::calibrate();
    let n = cfg.invocations.max(1);
    let mut q50 = Vec::with_capacity(n);
    let mut q90 = Vec::with_capacity(n);
    let mut q99 = Vec::with_capacity(n);
    let mut q999 = Vec::with_capacity(n);
    let mut qmax = Vec::with_capacity(n);
    let mut rates = Vec::with_capacity(n);
    let mut merged = Histogram::new();
    let mut attribution = Attribution::new();
    let mut saturated_runs = 0usize;
    let (mut drops, mut max_lag) = (0u64, 0u64);
    let mut backlogs = 0i64;
    for inv in 0..n {
        let q = Q::with_ceiling(cfg.segment_ceiling);
        let it = run_open_loop_iteration(&q, cfg, &delay, inv as u64);
        q50.push(it.latency.quantile(0.50) as f64);
        q90.push(it.latency.quantile(0.90) as f64);
        q99.push(it.latency.quantile(0.99) as f64);
        q999.push(it.latency.quantile(0.999) as f64);
        qmax.push(it.latency.max() as f64);
        rates.push(it.achieved_rate);
        merged.merge(&it.latency);
        attribution.merge(&it.attribution);
        saturated_runs += it.saturated() as usize;
        drops += it.drops;
        max_lag = max_lag.max(it.max_lag_ns);
        backlogs += it.backlog;
    }
    let stat = |xs: &[f64]| {
        let (m, ci) = stats::confidence_interval_95(xs);
        QuantileStat {
            mean_ns: m,
            ci_half_ns: ci,
        }
    };
    OpenLoopMeasurement {
        offered_rate: cfg.rate_ops_per_sec,
        achieved_rate: stats::mean(&rates),
        p50: stat(&q50),
        p90: stat(&q90),
        p99: stat(&q99),
        p999: stat(&q999),
        max: stat(&qmax),
        merged,
        attribution,
        saturated: saturated_runs * 2 > n,
        drops,
        max_lag_ns: max_lag,
        backlog: backlogs / n as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use wfq_baselines::MutexQueue;

    fn tiny() -> BenchConfig {
        BenchConfig {
            threads: 2,
            total_ops: 10_000,
            workload: Workload::Pairs,
            delay_ns: (0, 0),
            max_iterations: 6,
            window: 3,
            invocations: 3,
            pin: false,
            ..Default::default()
        }
    }

    #[test]
    fn invocation_produces_a_steady_mean() {
        let delay = SpinDelay::calibrate();
        let (m, c) = measure_invocation::<MutexQueue>(&tiny(), &delay, 0);
        assert!(m > 0.0);
        assert!(c.is_finite());
    }

    #[test]
    fn full_measurement_reports_ci() {
        let m = measure_queue::<MutexQueue>(&tiny());
        assert_eq!(m.invocations.len(), 3);
        assert!(m.mean > 0.0);
        assert!(m.ci_half >= 0.0);
        assert!(m.ci_half.is_finite());
    }

    #[test]
    fn open_loop_measurement_reports_quantile_cis() {
        let cfg = OpenLoopConfig {
            threads: 1,
            rate_ops_per_sec: 2e6,
            total_ops: 3_000,
            invocations: 3,
            pin: false,
            ..Default::default()
        };
        let m = measure_open_loop::<MutexQueue>(&cfg);
        assert_eq!(m.merged.count(), 3 * 3_000);
        assert!(m.p50.mean_ns > 0.0);
        assert!(m.p50.ci_half_ns.is_finite());
        // Quantile means must be ordered p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max.
        assert!(m.p50.mean_ns <= m.p90.mean_ns);
        assert!(m.p90.mean_ns <= m.p99.mean_ns);
        assert!(m.p99.mean_ns <= m.p999.mean_ns);
        assert!(m.p999.mean_ns <= m.max.mean_ns);
        assert!(m.achieved_rate > 0.0);
        assert_eq!(m.drops, 0);
        assert!(m.attribution.counts_are_sound());
    }
}
