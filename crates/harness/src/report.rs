//! Result series and renderers (markdown tables for EXPERIMENTS.md, CSV
//! for plotting, and the snapshot records of [`crate::regress`]).

use crate::json::Value;
use crate::regress::{Better, Record};

/// One (thread count → throughput) point of a Figure 2 line.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Concurrency level.
    pub threads: usize,
    /// Mean throughput, Mops/s.
    pub mean_mops: f64,
    /// 95% CI half-width.
    pub ci_half: f64,
}

/// One queue's line in a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Queue display name.
    pub name: String,
    /// Sweep points, ascending thread counts.
    pub points: Vec<SeriesPoint>,
}

/// Renders a set of series as a markdown table: one row per thread count,
/// one column per queue, `mean ± ci`.
pub fn render_markdown(series: &[Series], caption: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("**{caption}** (Mops/s, mean ± 95% CI)\n\n"));
    if series.is_empty() {
        return out;
    }
    let threads: Vec<usize> = series[0].points.iter().map(|p| p.threads).collect();
    out.push_str("| threads |");
    for s in series {
        out.push_str(&format!(" {} |", s.name));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    for (i, t) in threads.iter().enumerate() {
        out.push_str(&format!("| {t} |"));
        for s in series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!(" {:.2} ± {:.2} |", p.mean_mops, p.ci_half)),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out
}

/// The `figure2` snapshot records: one `throughput_mops` record per
/// `(queue, threads)`, higher is better, bound 5%.
pub fn throughput_records(series: &[Series]) -> Vec<Record> {
    let mut records = Vec::new();
    for s in series {
        for p in &s.points {
            let key = [
                ("queue", Value::Str(s.name.clone())),
                ("threads", Value::Num(p.threads as f64)),
            ];
            records.push(Record::new(
                &key,
                "throughput_mops",
                "Mops/s",
                (p.mean_mops, p.ci_half),
                Better::Higher,
                5.0,
            ));
        }
    }
    records
}

// ----------------------------------------------------------------------
// Latency-observatory results
// ----------------------------------------------------------------------

/// One (offered rate → tail latency) point of a latency-observatory
/// frontier line. Quantiles are means over invocations with Student-t 95%
/// half-widths (`*_ci`), all in nanoseconds; `share_*` are the attribution
/// fractions of `sampled` operations (zero when the backend exposes no
/// `op-sample` hooks).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyPoint {
    /// Offered arrival rate, kops/s.
    pub rate_kops: f64,
    /// Achieved completion rate, kops/s.
    pub achieved_kops: f64,
    /// Majority of invocations ended with generator lag > 10% of span.
    pub saturated: bool,
    /// Rejected enqueues (overload mode; 0 otherwise).
    pub drops: u64,
    /// Worst generator lag in any invocation, ns.
    pub max_lag_ns: u64,
    /// Mean end-of-run queue growth (enqueues − dequeues).
    pub backlog: i64,
    /// p50 mean, ns.
    pub p50_ns: f64,
    /// p50 95% CI half-width.
    pub p50_ci: f64,
    /// p90 mean, ns.
    pub p90_ns: f64,
    /// p90 95% CI half-width.
    pub p90_ci: f64,
    /// p99 mean, ns (the regression-gate quantile).
    pub p99_ns: f64,
    /// p99 95% CI half-width.
    pub p99_ci: f64,
    /// p99.9 mean, ns.
    pub p999_ns: f64,
    /// p99.9 95% CI half-width.
    pub p999_ci: f64,
    /// Max mean, ns.
    pub max_ns: f64,
    /// Max 95% CI half-width.
    pub max_ci: f64,
    /// Fraction of sampled ops that completed on the fast path.
    pub share_fast: f64,
    /// Fraction that entered the slow path and finished it themselves.
    pub share_slow: f64,
    /// Fraction completed by a helper.
    pub share_helped: f64,
    /// Operations with a path sample (0 without `op-sample`).
    pub sampled: u64,
}

/// One queue's latency frontier (ascending offered rates).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySeries {
    /// Queue display name.
    pub name: String,
    /// Frontier points, ascending `rate_kops`.
    pub points: Vec<LatencyPoint>,
}

/// The `latency_observatory` snapshot records, keyed by `(queue, threads,
/// rate_kops)`. `p99_ns` (lower is better, bound 10%) and `saturated` (0/1,
/// lower is better, no interval) are gated, so saturation onset trips the
/// gate through the general rule; every other field is carried.
pub fn latency_records(threads: usize, series: &[LatencySeries]) -> Vec<Record> {
    let mut records = Vec::new();
    for s in series {
        for p in &s.points {
            let key = [
                ("queue", Value::Str(s.name.clone())),
                ("threads", Value::Num(threads as f64)),
                ("rate_kops", Value::Num(p.rate_kops)),
            ];
            let carried = |metric, unit, value| Record::carried(&key, metric, unit, value);
            let quantile = |metric, (mean, ci)| {
                let gate = if metric == "p99_ns" {
                    (Better::Lower, 10.0)
                } else {
                    (Better::None, 0.0)
                };
                Record::new(&key, metric, "ns", (mean, ci), gate.0, gate.1)
            };
            let saturated = (f64::from(u8::from(p.saturated)), 0.0);
            records.extend([
                carried("achieved_kops", "kops/s", p.achieved_kops),
                Record::new(&key, "saturated", "bool", saturated, Better::Lower, 10.0),
                carried("drops", "count", p.drops as f64),
                carried("max_lag_ns", "ns", p.max_lag_ns as f64),
                carried("backlog", "count", p.backlog as f64),
                quantile("p50_ns", (p.p50_ns, p.p50_ci)),
                quantile("p90_ns", (p.p90_ns, p.p90_ci)),
                quantile("p99_ns", (p.p99_ns, p.p99_ci)),
                quantile("p999_ns", (p.p999_ns, p.p999_ci)),
                quantile("max_ns", (p.max_ns, p.max_ci)),
                carried("share_fast", "fraction", p.share_fast),
                carried("share_slow", "fraction", p.share_slow),
                carried("share_helped", "fraction", p.share_helped),
                carried("sampled", "count", p.sampled as f64),
            ]);
        }
    }
    records
}

/// Renders series as CSV: `queue,threads,mean_mops,ci_half`.
pub fn render_csv(series: &[Series]) -> String {
    let mut out = String::from("queue,threads,mean_mops,ci_half\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                s.name, p.threads, p.mean_mops, p.ci_half
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::{parse, Document};

    fn sample() -> Vec<Series> {
        vec![
            Series {
                name: "WF-10".into(),
                points: vec![
                    SeriesPoint { threads: 1, mean_mops: 10.0, ci_half: 0.5 },
                    SeriesPoint { threads: 2, mean_mops: 12.0, ci_half: 0.7 },
                ],
            },
            Series {
                name: "MSQUEUE".into(),
                points: vec![
                    SeriesPoint { threads: 1, mean_mops: 9.0, ci_half: 0.1 },
                    SeriesPoint { threads: 2, mean_mops: 5.0, ci_half: 0.2 },
                ],
            },
        ]
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let md = render_markdown(&sample(), "pairs");
        assert!(md.contains("| threads | WF-10 | MSQUEUE |"));
        assert!(md.contains("| 1 | 10.00 ± 0.50 | 9.00 ± 0.10 |"));
        assert!(md.contains("| 2 | 12.00 ± 0.70 | 5.00 ± 0.20 |"));
    }

    #[test]
    fn csv_has_one_line_per_point() {
        let csv = render_csv(&sample());
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("queue,threads,"));
        assert!(csv.contains("WF-10,2,12.000000,0.700000"));
    }

    #[test]
    fn empty_series_render_gracefully() {
        assert!(render_markdown(&[], "x").contains("**x**"));
        assert_eq!(render_csv(&[]).lines().count(), 1);
    }

    fn document(records: Vec<Record>, commit: Option<&str>) -> Document {
        Document {
            benchmark: "figure2".into(),
            workload: "pairwise".into(),
            provenance: crate::regress::provenance(commit),
            records,
        }
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let d = document(throughput_records(&sample()), Some("abc1234"));
        let back = parse(&d.render()).expect("rendered records must parse");
        assert_eq!(back, d);
        assert_eq!(back.records.len(), 4);
        let r = &back.records[1];
        assert_eq!(r.key[0], ("queue".to_string(), Value::Str("WF-10".into())));
        assert_eq!(r.key[1], ("threads".to_string(), Value::Num(2.0)));
        assert_eq!(
            (r.metric.as_str(), r.unit.as_str()),
            ("throughput_mops", "Mops/s")
        );
        assert_eq!(
            (r.mean, r.ci_half, r.better, r.bound_pct),
            (12.0, 0.7, Better::Higher, 5.0)
        );
    }

    #[test]
    fn json_with_commit_carries_the_field_and_still_parses() {
        let d = parse(&document(throughput_records(&sample()), Some("abc1234")).render()).unwrap();
        assert_eq!(d.commit(), Some("abc1234"));
        assert!(d.provenance.iter().any(|(k, _)| k == "nproc"));
        // Without a commit the field is absent, keeping old snapshots and
        // new ones in one schema.
        let d = parse(&document(throughput_records(&sample()), None).render()).unwrap();
        assert_eq!(d.commit(), None);
    }

    #[test]
    fn json_of_empty_series_is_valid() {
        // Valid JSON, but a document the gate refuses: it has nothing to gate.
        let text = document(throughput_records(&[]), None).render();
        assert!(crate::json::parse(&text).is_ok());
        assert!(parse(&text).unwrap_err().contains("no records"));
    }

    fn latency_sample() -> Vec<LatencySeries> {
        let point = |rate: f64, p99: f64| LatencyPoint {
            rate_kops: rate,
            achieved_kops: rate * 0.99,
            saturated: false,
            drops: 0,
            max_lag_ns: 1_200,
            backlog: -1,
            p50_ns: p99 * 0.2,
            p50_ci: 4.0,
            p90_ns: p99 * 0.5,
            p90_ci: 6.0,
            p99_ns: p99,
            p99_ci: 10.0,
            p999_ns: p99 * 2.0,
            p999_ci: 25.0,
            max_ns: p99 * 8.0,
            max_ci: 100.0,
            share_fast: 0.96,
            share_slow: 0.03,
            share_helped: 0.01,
            sampled: 40_000,
        };
        vec![
            LatencySeries {
                name: "WF-10".into(),
                points: vec![point(250.0, 800.0), point(1000.0, 1100.0)],
            },
            LatencySeries {
                name: "FAA".into(),
                points: vec![point(250.0, 700.0), point(1000.0, 900.0)],
            },
        ]
    }

    #[test]
    fn latency_json_roundtrips_through_the_parser() {
        let d = Document {
            benchmark: "latency_observatory".into(),
            workload: "open_loop_pairs".into(),
            provenance: crate::regress::provenance(Some("abc1234")),
            records: latency_records(2, &latency_sample()),
        };
        let back = parse(&d.render()).expect("rendered latency records must parse");
        assert_eq!(back, d);
        // Every LatencyPoint field is a record: 2 queues × 2 rates × 14.
        assert_eq!(back.records.len(), 2 * 2 * 14);
        let at = |metric: &str| {
            back.records
                .iter()
                .find(|r| r.metric == metric)
                .map(|r| (r.mean, r.ci_half, r.better))
                .unwrap()
        };
        assert_eq!(
            back.records[0].key[2],
            ("rate_kops".to_string(), Value::Num(250.0))
        );
        assert_eq!(at("p99_ns"), (800.0, 10.0, Better::Lower));
        assert_eq!(at("saturated"), (0.0, 0.0, Better::Lower));
        assert_eq!(at("backlog"), (-1.0, 0.0, Better::None));
        assert_eq!(at("p50_ns"), (160.0, 4.0, Better::None));
        assert_eq!(at("share_fast"), (0.96, 0.0, Better::None));
    }

    #[test]
    fn ragged_series_render_dashes() {
        let mut s = sample();
        s[1].points.pop();
        let md = render_markdown(&s, "ragged");
        assert!(md.contains("| 2 | 12.00 ± 0.70 | — |"));
    }
}
