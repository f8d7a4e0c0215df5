//! Cycle-ledger results: types, gap attribution, the snapshot records, and
//! the Prometheus exposition.
//!
//! The `cycle_ledger` binary measures per-op hardware-counter costs for
//! each backend and, for the WF queue, the per-phase self-time ledger from
//! `wfq_obs::ledger`. This module owns everything downstream of the
//! measurement: the WF−F&A gap attribution arithmetic ([`attribute_gap`]),
//! the `results/BENCH_cycles.json` snapshot ([`document`], in the one
//! schema of [`crate::regress`]), and the Prometheus exposition
//! ([`render_cycles_prometheus`]).
//!
//! Two drift guards, both by construction rather than by parallel lists:
//! counter-derived fields (`cycles_per_op`, `instructions_per_op`,
//! `l1d_miss_per_op`, …) are stored in an array indexed by
//! `wfq_obs::CounterKind` and the record builder and the exposition loop
//! `wfq_obs::ALL_COUNTERS`, so a new counter kind lands in both in one
//! place; phase names come from `wfq_obs::Phase::name`, and the parity
//! test walks `ALL_PHASES`.

use crate::json::Value;
use crate::regress::{Better, Document, Record};
use wfq_obs::{CounterKind, Phase, ALL_COUNTERS, NUM_COUNTERS};
/// Mean per-op cost of one ledger phase, with a Student-t 95% CI half-width
/// over invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase name (`Phase::name` — `faa`, `find_cell`, …).
    pub phase: String,
    /// Mean phase self-cycles per operation.
    pub cycles_per_op: f64,
    /// 95% CI half-width of `cycles_per_op` over invocations.
    pub ci_half: f64,
    /// Mean phase entries (enter/exit pairs) per operation.
    pub entries_per_op: f64,
}

/// One `(queue, threads)` cycles measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesPoint {
    /// Concurrency level (producer+consumer total, as in BENCH_pairwise).
    pub threads: usize,
    /// Per-op counter means, indexed by `CounterKind as usize`
    /// (`counters_per_op[Cycles]` is the headline cycles/op).
    pub counters_per_op: [f64; NUM_COUNTERS],
    /// 95% CI half-width of cycles/op over invocations.
    pub ci_half: f64,
    /// True when cycles are multiplex-scaled or TSC-derived rather than a
    /// direct hardware measurement.
    pub estimated: bool,
    /// Percent of this point's op cycles the phase ledger accounts for
    /// (Σ phase self-cycles / total op cycles × 100; 0 for unledgered
    /// backends).
    pub attributed_pct: f64,
    /// Per-phase ledger costs (empty for backends without `phase!` hooks).
    pub phases: Vec<PhaseCost>,
}

impl CyclesPoint {
    /// Headline cycles per op.
    pub fn cycles_per_op(&self) -> f64 {
        self.counters_per_op[CounterKind::Cycles as usize]
    }

    /// One counter's per-op mean.
    pub fn counter_per_op(&self, kind: CounterKind) -> f64 {
        self.counters_per_op[kind as usize]
    }

    /// Sum of per-phase self-cycles (the ledger's accounted total).
    pub fn phase_sum(&self) -> f64 {
        self.phases.iter().map(|p| p.cycles_per_op).sum()
    }
}

/// One backend's cycles series.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesSeries {
    /// Backend display name (`FAA`, `Mutex<VecDeque>`, `WF-10`, …).
    pub name: String,
    /// One point per measured thread count.
    pub points: Vec<CyclesPoint>,
}

/// How the perf layer sourced its numbers for this snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMode {
    /// `"hardware"` or `"tsc-only"` (`PerfStatus::mode`).
    pub mode: String,
    /// Whether reads went through user-space `rdpmc`.
    pub rdpmc: bool,
    /// Denial cause in tsc-only mode (empty in hardware mode).
    pub reason: String,
}

/// One phase's contribution to the WF−F&A cycle gap.
#[derive(Debug, Clone, PartialEq)]
pub struct GapPhase {
    /// Phase name.
    pub phase: String,
    /// The phase's per-op self-cycles in the candidate.
    pub cycles_per_op: f64,
    /// The phase's contribution to the gap, per op. For the `faa` phase
    /// this is the *excess* over the baseline's whole op (the baseline IS
    /// a fetch-and-add); for every other phase it is the phase cost itself.
    pub gap_contribution: f64,
    /// `gap_contribution` as a percentage of the total gap.
    pub share_pct: f64,
}

/// The differential table attributing the candidate−baseline cycle delta
/// phase by phase (the tentpole's headline artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct GapAttribution {
    /// Baseline backend name (`FAA`).
    pub baseline: String,
    /// Candidate backend name (`WF-10`).
    pub candidate: String,
    /// Candidate cycles/op − baseline cycles/op.
    pub cycle_delta_per_op: f64,
    /// Percent of the delta the per-phase ledger accounts for (the
    /// acceptance criterion wants ≥ 80 at 1 thread).
    pub attributed_pct: f64,
    /// Per-phase breakdown, in `ALL_PHASES` order.
    pub phases: Vec<GapPhase>,
}

/// One `cycle_ledger` run (its snapshot is [`document`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesSnapshot {
    /// Commit the snapshot measured.
    pub commit: Option<String>,
    /// Benchmark name (`cycle_ledger`).
    pub benchmark: String,
    /// Workload label (`pairwise`).
    pub workload: String,
    /// Counter sourcing for the whole run.
    pub perf: PerfMode,
    /// One series per backend.
    pub series: Vec<CyclesSeries>,
    /// The single-thread gap attribution (absent when the run did not
    /// include both the baseline and the candidate).
    pub delta: Option<GapAttribution>,
}

impl CyclesSnapshot {
    /// Finds a `(queue, threads)` point.
    pub fn point(&self, queue: &str, threads: usize) -> Option<&CyclesPoint> {
        self.series
            .iter()
            .find(|s| s.name == queue)?
            .points
            .iter()
            .find(|p| p.threads == threads)
    }
}

// ----------------------------------------------------------------------
// Gap attribution (pure arithmetic, unit-testable)
// ----------------------------------------------------------------------

/// Attributes the candidate−baseline cycle delta phase by phase.
///
/// The baseline (bare F&A) *is* the candidate's `faa` phase, so the `faa`
/// row contributes only its excess over the baseline's whole op; every
/// other phase is pure overhead relative to the baseline and contributes
/// its full self-cost. `attributed_pct` is the summed contributions over
/// the gap — the ≥80% acceptance bar — and degrades to 0 (never NaN/∞)
/// when the gap is non-positive.
pub fn attribute_gap(
    baseline_name: &str,
    base: &CyclesPoint,
    candidate_name: &str,
    cand: &CyclesPoint,
) -> GapAttribution {
    let gap = cand.cycles_per_op() - base.cycles_per_op();
    let mut phases = Vec::new();
    let mut explained = 0.0;
    for p in &cand.phases {
        let contribution = if p.phase == Phase::Faa.name() {
            (p.cycles_per_op - base.cycles_per_op()).max(0.0)
        } else {
            p.cycles_per_op
        };
        explained += contribution;
        phases.push(GapPhase {
            phase: p.phase.clone(),
            cycles_per_op: p.cycles_per_op,
            gap_contribution: contribution,
            share_pct: if gap > 0.0 {
                100.0 * contribution / gap
            } else {
                0.0
            },
        });
    }
    GapAttribution {
        baseline: baseline_name.to_string(),
        candidate: candidate_name.to_string(),
        cycle_delta_per_op: gap,
        attributed_pct: if gap > 0.0 {
            100.0 * explained / gap
        } else {
            0.0
        },
        phases,
    }
}

// ----------------------------------------------------------------------
// Snapshot records
// ----------------------------------------------------------------------

/// The `cycle_ledger` snapshot. Gated: `cycles_per_op` per `(queue,
/// threads, phase)`, with the whole op under the `total` pseudo-phase
/// (lower is better, bound 10%). Carried: the other counters,
/// `estimated`, the ledger coverage, phase entries, and the gap
/// attribution keyed by `(queue, baseline, phase)`. The counter source
/// goes into the provenance as `perf_mode`, `rdpmc` and `reason`.
pub fn document(snap: &CyclesSnapshot) -> Document {
    let mut provenance = crate::regress::provenance(snap.commit.as_deref());
    provenance.extend([
        ("perf_mode".to_string(), Value::Str(snap.perf.mode.clone())),
        ("rdpmc".to_string(), Value::Bool(snap.perf.rdpmc)),
        ("reason".to_string(), Value::Str(snap.perf.reason.clone())),
    ]);
    let gated = |key: &[(&str, Value)], mean_ci| {
        Record::new(
            key,
            "cycles_per_op",
            "cycles/op",
            mean_ci,
            Better::Lower,
            10.0,
        )
    };
    let mut records = Vec::new();
    for s in &snap.series {
        for p in &s.points {
            let key = |phase: &str| {
                [
                    ("queue", Value::Str(s.name.clone())),
                    ("threads", Value::Num(p.threads as f64)),
                    ("phase", Value::Str(phase.into())),
                ]
            };
            let total = key("total");
            let carried = |metric: &str, unit, v| Record::carried(&total, metric, unit, v);
            records.push(gated(&total, (p.cycles_per_op(), p.ci_half)));
            for kind in ALL_COUNTERS {
                if kind != CounterKind::Cycles {
                    let metric = format!("{}_per_op", kind.name());
                    records.push(carried(&metric, "count/op", p.counter_per_op(kind)));
                }
            }
            records.push(carried(
                "estimated",
                "bool",
                f64::from(u8::from(p.estimated)),
            ));
            records.push(carried("attributed_pct", "%", p.attributed_pct));
            for ph in &p.phases {
                let key = key(&ph.phase);
                records.push(gated(&key, (ph.cycles_per_op, ph.ci_half)));
                records.push(Record::carried(
                    &key,
                    "entries_per_op",
                    "count/op",
                    ph.entries_per_op,
                ));
            }
        }
    }
    if let Some(d) = &snap.delta {
        let carried = |phase: &str, metric, unit, v| {
            let key = [
                ("queue", Value::Str(d.candidate.clone())),
                ("baseline", Value::Str(d.baseline.clone())),
                ("phase", Value::Str(phase.into())),
            ];
            Record::carried(&key, metric, unit, v)
        };
        records.push(carried(
            "total",
            "gap_cycles_per_op",
            "cycles/op",
            d.cycle_delta_per_op,
        ));
        records.push(carried("total", "attributed_pct", "%", d.attributed_pct));
        for p in &d.phases {
            records.push(carried(
                &p.phase,
                "gap_cycles_per_op",
                "cycles/op",
                p.gap_contribution,
            ));
            records.push(carried(&p.phase, "share_pct", "%", p.share_pct));
        }
    }
    Document {
        benchmark: snap.benchmark.clone(),
        workload: snap.workload.clone(),
        provenance,
        records,
    }
}

// ----------------------------------------------------------------------
// Prometheus exposition
// ----------------------------------------------------------------------

/// Renders a cycles snapshot in the Prometheus text format: per-backend
/// `wfq_cycles_per_op` gauges labeled by `phase` (`total` plus each
/// ledgered phase), the companion per-op counter gauges (instructions,
/// branch misses), `wfq_cache_miss_per_op` labeled by cache `level`, the
/// estimated/measured flag, and the ledger's attribution coverage.
pub fn render_cycles_prometheus(snap: &CyclesSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP wfq_cycles_per_op Mean cycles per operation, by protocol phase (total = whole op)\n# TYPE wfq_cycles_per_op gauge\n");
    for s in &snap.series {
        for p in &s.points {
            out.push_str(&format!(
                "wfq_cycles_per_op{{queue=\"{}\",threads=\"{}\",phase=\"total\"}} {:.3}\n",
                s.name,
                p.threads,
                p.cycles_per_op()
            ));
            for ph in &p.phases {
                out.push_str(&format!(
                    "wfq_cycles_per_op{{queue=\"{}\",threads=\"{}\",phase=\"{}\"}} {:.3}\n",
                    s.name, p.threads, ph.phase, ph.cycles_per_op
                ));
            }
        }
    }
    out.push_str("# HELP wfq_cycles_estimated Whether cycle counts are estimates (multiplex-scaled or TSC-derived) rather than direct measurements\n# TYPE wfq_cycles_estimated gauge\n");
    for s in &snap.series {
        for p in &s.points {
            out.push_str(&format!(
                "wfq_cycles_estimated{{queue=\"{}\",threads=\"{}\"}} {}\n",
                s.name,
                p.threads,
                if p.estimated { 1 } else { 0 }
            ));
        }
    }
    out.push_str("# HELP wfq_cycles_attributed_pct Percent of op cycles the phase ledger accounts for\n# TYPE wfq_cycles_attributed_pct gauge\n");
    for s in &snap.series {
        for p in &s.points {
            if !p.phases.is_empty() {
                out.push_str(&format!(
                    "wfq_cycles_attributed_pct{{queue=\"{}\",threads=\"{}\"}} {:.1}\n",
                    s.name, p.threads, p.attributed_pct
                ));
            }
        }
    }
    // Non-cycle counters: the cache-miss kinds share one level-labeled
    // metric; the rest get their own gauge. The match is exhaustive over
    // CounterKind so a new counter cannot silently skip the exposition.
    for kind in ALL_COUNTERS {
        let (metric, label): (&str, Option<&str>) = match kind {
            CounterKind::Cycles => continue, // rendered above, phase-labeled
            CounterKind::Instructions => ("wfq_instructions_per_op", None),
            CounterKind::L1dMisses => ("wfq_cache_miss_per_op", Some("l1d")),
            CounterKind::LlcMisses => ("wfq_cache_miss_per_op", Some("llc")),
            CounterKind::BranchMisses => ("wfq_branch_miss_per_op", None),
        };
        if label.is_none() || label == Some("l1d") {
            // Emit each metric's header once (the two cache levels share).
            let help = match metric {
                "wfq_instructions_per_op" => "Mean retired instructions per operation",
                "wfq_cache_miss_per_op" => "Mean cache read misses per operation, by cache level",
                _ => "Mean branch mispredictions per operation",
            };
            out.push_str(&format!(
                "# HELP {metric} {help}\n# TYPE {metric} gauge\n"
            ));
        }
        for s in &snap.series {
            for p in &s.points {
                match label {
                    Some(level) => out.push_str(&format!(
                        "{metric}{{queue=\"{}\",threads=\"{}\",level=\"{level}\"}} {:.4}\n",
                        s.name,
                        p.threads,
                        p.counter_per_op(kind)
                    )),
                    None => out.push_str(&format!(
                        "{metric}{{queue=\"{}\",threads=\"{}\"}} {:.4}\n",
                        s.name,
                        p.threads,
                        p.counter_per_op(kind)
                    )),
                }
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wfq_obs::ALL_PHASES;

    /// A point with every phase and every counter populated with unique
    /// values — built by walking the canonical enumerations, so adding a
    /// Phase or CounterKind automatically widens every test below.
    fn full_point(threads: usize, scale: f64) -> CyclesPoint {
        let mut counters_per_op = [0.0; NUM_COUNTERS];
        for (i, kind) in ALL_COUNTERS.iter().enumerate() {
            counters_per_op[*kind as usize] = scale * (100.0 + i as f64);
        }
        let phases: Vec<PhaseCost> = ALL_PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| PhaseCost {
                phase: p.name().to_string(),
                cycles_per_op: scale * (10.0 + i as f64),
                ci_half: 0.5,
                entries_per_op: 1.0 + i as f64 * 0.1,
            })
            .collect();
        let total = counters_per_op[CounterKind::Cycles as usize];
        let sum: f64 = phases.iter().map(|p| p.cycles_per_op).sum();
        CyclesPoint {
            threads,
            counters_per_op,
            ci_half: 1.0,
            estimated: true,
            attributed_pct: 100.0 * sum / total,
            phases,
        }
    }

    pub(crate) fn sample_snapshot() -> CyclesSnapshot {
        let faa = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 30.0;
                c
            },
            ci_half: 0.5,
            estimated: true,
            attributed_pct: 0.0,
            phases: Vec::new(),
        };
        let wf = full_point(1, 1.0);
        CyclesSnapshot {
            commit: Some("abc1234".into()),
            benchmark: "cycle_ledger".into(),
            workload: "pairwise".into(),
            perf: PerfMode {
                mode: "tsc-only".into(),
                rdpmc: false,
                reason: "WFQ_PERF_DENY".into(),
            },
            series: vec![
                CyclesSeries {
                    name: "FAA".into(),
                    points: vec![faa.clone()],
                },
                CyclesSeries {
                    name: "WF-10".into(),
                    points: vec![wf.clone()],
                },
            ],
            delta: Some(attribute_gap("FAA", &faa, "WF-10", &wf)),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let d = document(&sample_snapshot());
        let back = crate::regress::parse(&d.render()).expect("rendered snapshot must parse");
        assert_eq!(back, d);
        let perf_mode = back.provenance.iter().find(|(k, _)| k == "perf_mode");
        assert_eq!(perf_mode.map(|(_, v)| v.as_str()), Some(Some("tsc-only")));
        // Gated: two totals plus every WF-10 phase.
        let gated = back
            .records
            .iter()
            .filter(|r| r.better != Better::None)
            .count();
        assert_eq!(gated, 2 + ALL_PHASES.len());
        // The gap attribution rides along, one row per phase plus the total.
        let gap = back
            .records
            .iter()
            .filter(|r| r.metric == "gap_cycles_per_op")
            .count();
        assert_eq!(gap, 1 + ALL_PHASES.len());
    }

    #[test]
    fn counter_fields_cover_the_canonical_enumeration() {
        // Drift guard: every CounterKind surfaces as a `<name>_per_op`
        // record on each point's `total` key.
        let d = document(&sample_snapshot());
        for kind in ALL_COUNTERS {
            let metric = format!("{}_per_op", kind.name());
            let n = d
                .records
                .iter()
                .filter(|r| r.metric == metric && r.key[2].1 == Value::Str("total".into()))
                .count();
            assert_eq!(n, 2, "{metric} missing from a point");
        }
    }

    #[test]
    fn attribution_splits_the_gap_by_phase() {
        // Baseline: 30 cycles/op. Candidate: 100 cycles/op total, ledger
        // says faa=35, find_cell=20, cell_cas=15, stats=10, slow_path=8
        // (sum 88). Gap = 70; contributions: faa excess 5, others full —
        // 5+20+15+10+8 = 58 → 82.86%.
        let base = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 30.0;
                c
            },
            ci_half: 0.1,
            estimated: true,
            attributed_pct: 0.0,
            phases: Vec::new(),
        };
        let mk = |phase: Phase, cyc: f64| PhaseCost {
            phase: phase.name().to_string(),
            cycles_per_op: cyc,
            ci_half: 0.1,
            entries_per_op: 1.0,
        };
        let cand = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 100.0;
                c
            },
            ci_half: 0.2,
            estimated: true,
            attributed_pct: 88.0,
            phases: vec![
                mk(Phase::Faa, 35.0),
                mk(Phase::FindCell, 20.0),
                mk(Phase::CellCas, 15.0),
                mk(Phase::Stats, 10.0),
                mk(Phase::SlowPath, 8.0),
            ],
        };
        let gap = attribute_gap("FAA", &base, "WF-10", &cand);
        assert_eq!(gap.cycle_delta_per_op, 70.0);
        assert!((gap.attributed_pct - 100.0 * 58.0 / 70.0).abs() < 1e-9);
        let faa_row = gap.phases.iter().find(|p| p.phase == "faa").unwrap();
        assert_eq!(faa_row.gap_contribution, 5.0, "faa contributes only its excess");
        let fc = gap.phases.iter().find(|p| p.phase == "find_cell").unwrap();
        assert_eq!(fc.gap_contribution, 20.0);
        assert!((fc.share_pct - 100.0 * 20.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_degrades_on_a_non_positive_gap() {
        let p = full_point(1, 1.0);
        let gap = attribute_gap("A", &p, "B", &p.clone());
        assert_eq!(gap.cycle_delta_per_op, 0.0);
        assert_eq!(gap.attributed_pct, 0.0, "no NaN/∞ on a zero gap");
        for ph in &gap.phases {
            assert_eq!(ph.share_pct, 0.0);
        }
    }

    #[test]
    fn exposition_carries_every_phase_and_counter() {
        // The drift-guarded parity test (satellite): walk the canonical
        // enumerations and require each phase label and each counter
        // metric in the exposition of a fully-populated snapshot.
        let snap = sample_snapshot();
        let out = render_cycles_prometheus(&snap);
        assert!(out.contains("phase=\"total\""));
        for p in ALL_PHASES {
            assert!(
                out.contains(&format!("phase=\"{}\"", p.name())),
                "exposition missing phase {}:\n{out}",
                p.name()
            );
        }
        for kind in ALL_COUNTERS {
            let needle = match kind {
                CounterKind::Cycles => "wfq_cycles_per_op{".to_string(),
                CounterKind::Instructions => "wfq_instructions_per_op{".to_string(),
                CounterKind::L1dMisses => "level=\"l1d\"".to_string(),
                CounterKind::LlcMisses => "level=\"llc\"".to_string(),
                CounterKind::BranchMisses => "wfq_branch_miss_per_op{".to_string(),
            };
            assert!(
                out.contains(&needle),
                "exposition missing counter {} ({needle}):\n{out}",
                kind.name()
            );
        }
        assert!(out.contains("wfq_cycles_estimated{queue=\"WF-10\",threads=\"1\"} 1"));
        assert!(out.contains("wfq_cycles_attributed_pct{queue=\"WF-10\""));
        assert!(
            !out.contains("wfq_cycles_attributed_pct{queue=\"FAA\""),
            "unledgered backends must not claim attribution coverage"
        );
        // Format sanity: every sample line is `name{labels} value`.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn trajectory_line_is_one_parsable_json_line() {
        let d = document(&sample_snapshot());
        let line = d.render_line();
        assert!(!line.contains('\n'));
        let back = crate::regress::parse(&line).expect("trajectory line must parse");
        assert_eq!(back, d);
    }
}
