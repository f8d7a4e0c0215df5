//! The one benchmark-snapshot schema and the one regression gate — the
//! engine of `wfq-regress`.
//!
//! Every producer (`figure2`, `latency_observatory`, `cycle_ledger`) writes
//! the same document, committed as `results/BENCH_*.json`:
//!
//! ```json
//! {"benchmark": "figure2", "workload": "pairwise",
//!  "provenance": {"commit": "6a3df09", "nproc": 2, "kernel": "6.1.0"},
//!  "records": [{"key": {"queue": "WF-10", "threads": 1},
//!               "metric": "throughput_mops", "unit": "Mops/s",
//!               "mean": 16.5, "ci_half": 0.9, "better": "higher", "bound_pct": 5}]}
//! ```
//!
//! `mean ± ci_half` is a Student-t 95% interval over benchmark invocations
//! (Georges et al., the paper's §5.1 method); `ci_half` is 0 where the
//! producer measures no interval. Two documents are compared record by
//! record on `(key, metric)`, and a record **regresses** when all three
//! hold:
//!
//! 1. it moved in its worse direction (`better` is `higher` or `lower`);
//! 2. the move exceeds `bound_pct` percent of the baseline mean — a move
//!    away from a zero baseline is unbounded;
//! 3. the two 95% CIs do not overlap (`|Δmean| > ci_b + ci_c`).
//!
//! So a noisy run with wide CIs cannot fail the gate, and neither can a
//! significant but sub-bound wobble. Improvements are reported but never
//! fail. Records with `"better": "none"` are carried in the document (and
//! the trajectory) but never gated.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// Which direction of a record's mean is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (latency, cycles, saturation).
    Lower,
    /// Carried for the record, never gated.
    None,
}

impl Better {
    const ALL: [Better; 3] = [Better::Higher, Better::Lower, Better::None];

    /// The schema spelling.
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::None => "none",
        }
    }
}

/// One measured quantity: `mean ± ci_half` of `metric` at `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The measured point (`queue`, `threads`, …): strings and finite
    /// numbers, in producer order.
    pub key: Vec<(String, Value)>,
    /// What was measured (`throughput_mops`, `p99_ns`, …).
    pub metric: String,
    /// Unit of `mean` and `ci_half`.
    pub unit: String,
    /// Mean over invocations.
    pub mean: f64,
    /// 95% CI half-width (0 where the producer measures no interval).
    pub ci_half: f64,
    /// Gate polarity.
    pub better: Better,
    /// Largest worse-direction move, percent, the gate tolerates.
    pub bound_pct: f64,
}

impl Record {
    /// A record with its numbers rounded to the snapshots' 6 decimals.
    pub fn new(
        key: &[(&str, Value)],
        metric: &str,
        unit: &str,
        (mean, ci_half): (f64, f64),
        better: Better,
        bound_pct: f64,
    ) -> Self {
        let round = |x: f64| (x * 1e6).round() / 1e6;
        Self {
            key: key
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            metric: metric.into(),
            unit: unit.into(),
            mean: round(mean),
            ci_half: round(ci_half),
            better,
            bound_pct,
        }
    }

    /// A carried, never-gated record without an interval.
    pub fn carried(key: &[(&str, Value)], metric: &str, unit: &str, value: f64) -> Self {
        Self::new(key, metric, unit, (value, 0.0), Better::None, 0.0)
    }

    /// `queue=WF-10 threads=1`, for reports.
    fn key_label(&self) -> String {
        let parts: Vec<String> = self
            .key
            .iter()
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s}"),
                v => format!("{k}={v}"),
            })
            .collect();
        parts.join(" ")
    }

    fn render(&self) -> String {
        format!(
            "{{\"key\": {}, \"metric\": {}, \"unit\": {}, \"mean\": {}, \"ci_half\": {}, \"better\": \"{}\", \"bound_pct\": {}}}",
            Value::Obj(self.key.clone()),
            Value::Str(self.metric.clone()),
            Value::Str(self.unit.clone()),
            self.mean,
            self.ci_half,
            self.better.name(),
            self.bound_pct
        )
    }
}

/// A benchmark snapshot: what ran, where, and its records.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Producer (`figure2`, `latency_observatory`, `cycle_ledger`).
    pub benchmark: String,
    /// Workload label (`pairwise`, `batch_pairs`, `open_loop_pairs`, …).
    pub workload: String,
    /// Where and how the records were measured: `commit`, `nproc`,
    /// `kernel`, and producer fields such as `schedule` or `perf_mode`.
    pub provenance: Vec<(String, Value)>,
    /// The measurements.
    pub records: Vec<Record>,
}

impl Document {
    /// The commit the records measured, if known.
    pub fn commit(&self) -> Option<&str> {
        self.provenance
            .iter()
            .find(|(k, _)| k == "commit")
            .and_then(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) the provenance commit.
    pub fn set_commit(&mut self, commit: &str) {
        let v = Value::Str(commit.into());
        match self.provenance.iter_mut().find(|(k, _)| k == "commit") {
            Some(slot) => slot.1 = v,
            None => self.provenance.insert(0, ("commit".into(), v)),
        }
    }

    /// The committed form: one record per line.
    pub fn render(&self) -> String {
        let records: Vec<String> = self.records.iter().map(Record::render).collect();
        format!(
            "{{\n  {},\n  \"records\": [\n    {}\n  ]\n}}\n",
            self.header(",\n  "),
            records.join(",\n    ")
        )
    }

    /// The trajectory form: the same document on one line.
    pub fn render_line(&self) -> String {
        let records: Vec<String> = self.records.iter().map(Record::render).collect();
        format!(
            "{{{}, \"records\": [{}]}}",
            self.header(", "),
            records.join(", ")
        )
    }

    /// The record measuring `r`'s `(key, metric)`, if any.
    fn find(&self, r: &Record) -> Option<&Record> {
        self.records
            .iter()
            .find(|x| x.key == r.key && x.metric == r.metric)
    }

    fn header(&self, sep: &str) -> String {
        [
            format!("\"benchmark\": {}", Value::Str(self.benchmark.clone())),
            format!("\"workload\": {}", Value::Str(self.workload.clone())),
            format!("\"provenance\": {}", Value::Obj(self.provenance.clone())),
        ]
        .join(sep)
    }
}

/// The host provenance every producer stamps: `commit` (when given),
/// `nproc`, and the kernel release (when readable).
pub fn provenance(commit: Option<&str>) -> Vec<(String, Value)> {
    let mut p = Vec::new();
    if let Some(c) = commit {
        p.push(("commit".into(), Value::Str(c.into())));
    }
    p.push((
        "nproc".into(),
        Value::Num(crate::topology::num_cpus() as f64),
    ));
    if let Ok(k) = std::fs::read_to_string("/proc/sys/kernel/osrelease") {
        p.push(("kernel".into(), Value::Str(k.trim().into())));
    }
    p
}

/// Parses a snapshot document.
///
/// Rejects, rather than accepts, documents a gate could never meaningfully
/// compare: no records, non-finite or negative numbers, an unknown
/// polarity, and duplicate `(key, metric)` pairs. A truncated or
/// mis-generated snapshot must fail loudly here — a comparison over zero
/// records would otherwise print `PASS` and mean nothing.
pub fn parse(doc: &str) -> Result<Document, String> {
    let v = json::parse(doc)?;
    let text = |v: &Value, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("snapshot missing string field {k:?}"))
    };
    let number = |v: &Value, k: &str| -> Result<f64, String> {
        let n = v
            .get(k)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("record missing number field {k:?}"))?;
        if !n.is_finite() {
            return Err(format!("record field {k:?} is not a finite number"));
        }
        Ok(n)
    };
    let Some(Value::Obj(provenance)) = v.get("provenance") else {
        return Err("snapshot missing provenance object".into());
    };
    let mut records = Vec::new();
    for r in v
        .get("records")
        .and_then(Value::as_arr)
        .ok_or("snapshot missing records array")?
    {
        let Some(Value::Obj(key)) = r.get("key") else {
            return Err("record missing key object".into());
        };
        if let Some((k, _)) = key
            .iter()
            .find(|(_, v)| !matches!(v, Value::Str(_)) && !v.as_num().is_some_and(f64::is_finite))
        {
            return Err(format!(
                "record key {k:?} is not a string or a finite number"
            ));
        }
        let better = text(r, "better")?;
        let better = Better::ALL
            .into_iter()
            .find(|b| b.name() == better)
            .ok_or_else(|| format!("record polarity {better:?} is not higher, lower or none"))?;
        let record = Record {
            key: key.clone(),
            metric: text(r, "metric")?,
            unit: text(r, "unit")?,
            mean: number(r, "mean")?,
            ci_half: number(r, "ci_half")?,
            better,
            bound_pct: number(r, "bound_pct")?,
        };
        if record.ci_half < 0.0 || record.bound_pct < 0.0 {
            return Err(format!(
                "record {} {} has a negative ci_half or bound_pct",
                record.key_label(),
                record.metric
            ));
        }
        if records
            .iter()
            .any(|p: &Record| p.key == record.key && p.metric == record.metric)
        {
            return Err(format!(
                "duplicate record {} {}",
                record.key_label(),
                record.metric
            ));
        }
        records.push(record);
    }
    if records.is_empty() {
        return Err("snapshot has no records — refusing a snapshot the gate cannot compare".into());
    }
    Ok(Document {
        benchmark: text(&v, "benchmark")?,
        workload: text(&v, "workload")?,
        provenance: provenance.clone(),
        records,
    })
}

/// One matched, gated record.
struct Delta {
    /// `key=value` pairs of the record's key.
    key: String,
    metric: String,
    /// Baseline `(mean, ci_half)`.
    base: (f64, f64),
    /// Candidate `(mean, ci_half)`.
    cand: (f64, f64),
    /// Relative mean change, percent (±∞ away from a zero baseline).
    pct_change: f64,
    /// Whether the 95% CIs do not overlap.
    significant: bool,
    /// Significant move in the worse direction past the bound: fails.
    regressed: bool,
    /// Significant move in the better direction past the bound.
    improved: bool,
}

impl Delta {
    fn verdict(&self) -> &'static str {
        if self.regressed {
            "REGRESSION"
        } else if self.improved {
            "improved"
        } else if self.significant {
            "within threshold"
        } else {
            "ok"
        }
    }
}

/// The result of comparing a candidate snapshot against a baseline.
struct Comparison {
    /// Every gated record present in both documents.
    deltas: Vec<Delta>,
    /// Gated records present in only one document.
    unmatched: Vec<String>,
    /// Baseline records with `better: none`.
    carried: usize,
}

impl Comparison {
    /// Human-readable comparison table.
    fn render(&self) -> String {
        let interval = |(mean, ci): (f64, f64)| format!("{mean:.3} ±{ci:.3}");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:<16} {:>22} {:>22} {:>9}  verdict",
            "key", "metric", "baseline", "candidate", "delta"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{:<40} {:<16} {:>22} {:>22} {:>+8.1}%  {}",
                d.key,
                d.metric,
                interval(d.base),
                interval(d.cand),
                d.pct_change,
                d.verdict()
            );
        }
        for u in &self.unmatched {
            let _ = writeln!(out, "unmatched: {u}");
        }
        if self.carried > 0 {
            let _ = writeln!(
                out,
                "carried: {} ungated records (better: none)",
                self.carried
            );
        }
        out
    }
}

/// Compares candidate against baseline record by record. Polarity and
/// bound come from the baseline record, the blessed reference;
/// `threshold_pct`, when given, replaces every bound.
fn compare(base: &Document, cand: &Document, threshold_pct: Option<f64>) -> Comparison {
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    let mut carried = 0;
    for b in &base.records {
        if b.better == Better::None {
            carried += 1;
            continue;
        }
        let Some(c) = cand.find(b) else {
            unmatched.push(format!("{} {} (baseline only)", b.key_label(), b.metric));
            continue;
        };
        let diff = c.mean - b.mean;
        let pct_change = if diff == 0.0 {
            0.0
        } else {
            100.0 * diff / b.mean.abs()
        };
        let worse_pct = if b.better == Better::Higher {
            -pct_change
        } else {
            pct_change
        };
        let bound = threshold_pct.unwrap_or(b.bound_pct);
        let significant = diff.abs() > b.ci_half + c.ci_half;
        deltas.push(Delta {
            key: b.key_label(),
            metric: b.metric.clone(),
            base: (b.mean, b.ci_half),
            cand: (c.mean, c.ci_half),
            pct_change,
            significant,
            regressed: significant && worse_pct > bound,
            improved: significant && worse_pct < -bound,
        });
    }
    for c in &cand.records {
        if c.better != Better::None && base.find(c).is_none() {
            unmatched.push(format!("{} {} (candidate only)", c.key_label(), c.metric));
        }
    }
    Comparison {
        deltas,
        unmatched,
        carried,
    }
}

/// `benchmark`, `workload` and every provenance field but `commit` (which
/// always differs between the runs a gate compares).
fn described(doc: &Document) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("benchmark".to_string(), Value::Str(doc.benchmark.clone())),
        ("workload".to_string(), Value::Str(doc.workload.clone())),
    ];
    fields.extend(
        doc.provenance
            .iter()
            .filter(|(k, _)| k != "commit")
            .map(|(k, v)| (format!("provenance.{k}"), v.clone())),
    );
    fields
}

/// The described fields that differ, as `name (baseline vs candidate)`.
fn differences(base: &Document, cand: &Document) -> Vec<String> {
    let (b, c) = (described(base), described(cand));
    let get = |fields: &[(String, Value)], name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.to_string())
    };
    let mut names: Vec<&String> = b.iter().map(|(k, _)| k).collect();
    names.extend(c.iter().map(|(k, _)| k).filter(|k| get(&b, k).is_none()));
    names
        .into_iter()
        .filter_map(|name| {
            let (x, y) = (get(&b, name), get(&c, name));
            let show = |v: Option<String>| v.unwrap_or_else(|| "absent".into());
            (x != y).then(|| format!("{name} ({} vs {})", show(x), show(y)))
        })
        .collect()
}

/// What one `wfq-regress --baseline B --candidate C [--threshold T]` run
/// reports.
#[derive(Debug)]
pub struct Outcome {
    /// Exit code: 0 pass, 1 regression, 2 usage or parse error or nothing
    /// gated.
    pub code: u8,
    /// The report (stdout).
    pub out: String,
    /// Warnings and errors (stderr), one per line.
    pub err: String,
}

/// Runs the gate on two snapshot documents. `threshold` is the raw
/// `--threshold` argument: absent keeps each record's `bound_pct`; a
/// present but garbled value is a usage error, never a silent fall-back
/// to the bounds.
pub fn gate(base: &str, cand: &str, threshold: Option<&str>) -> Outcome {
    let fail = |err: String| Outcome {
        code: 2,
        out: String::new(),
        err: err + "\n",
    };
    let threshold = match threshold {
        None => None,
        Some(t) => match t.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Some(v),
            _ => {
                return fail(format!(
                    "--threshold must be a non-negative percentage, got {t:?}"
                ))
            }
        },
    };
    let base = match parse(base) {
        Ok(d) => d,
        Err(e) => return fail(format!("baseline: {e}")),
    };
    let cand = match parse(cand) {
        Ok(d) => d,
        Err(e) => return fail(format!("candidate: {e}")),
    };
    let mut err = String::new();
    let diffs = differences(&base, &cand);
    if !diffs.is_empty() {
        let _ = writeln!(
            err,
            "warning: baseline and candidate differ in {}",
            diffs.join(", ")
        );
    }

    let cmp = compare(&base, &cand, threshold);
    let mut out = format!(
        "wfq-regress: {} / {} — baseline {} vs candidate {} ({})\n",
        base.benchmark,
        base.workload,
        base.commit().unwrap_or("?"),
        cand.commit().unwrap_or("?"),
        match threshold {
            Some(t) => format!("threshold {t}% overrides every bound"),
            None => "per-record bounds".into(),
        }
    );
    out.push_str(&cmp.render());
    if cmp.deltas.is_empty() {
        err.push_str("no overlapping gated records between the snapshots — nothing was gated\n");
        return Outcome { code: 2, out, err };
    }
    let n = cmp.deltas.len();
    let r = cmp.deltas.iter().filter(|d| d.regressed).count();
    let code = if r == 0 {
        let _ = writeln!(
            out,
            "PASS: no significant regression past its bound across {n} gated records"
        );
        0
    } else {
        let _ = writeln!(
            out,
            "FAIL: {r} of {n} gated records regressed (a significant move in the worse direction past its bound)"
        );
        1
    };
    Outcome { code, out, err }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles;
    use crate::report::{latency_records, throughput_records, LatencyPoint, LatencySeries};
    use crate::report::{Series, SeriesPoint};

    fn doc(benchmark: &str, workload: &str, records: Vec<Record>) -> String {
        Document {
            benchmark: benchmark.into(),
            workload: workload.into(),
            provenance: vec![("commit".into(), Value::Str("deadbee".into()))],
            records,
        }
        .render()
    }

    fn series(scale: f64, ci: f64) -> Vec<Series> {
        let point = |threads, mops: f64| SeriesPoint {
            threads,
            mean_mops: mops * scale,
            ci_half: ci,
        };
        vec![Series {
            name: "WF-10".into(),
            points: vec![point(1, 10.0), point(2, 8.0)],
        }]
    }

    fn tput(scale: f64, ci: f64) -> String {
        doc(
            "figure2",
            "pairwise",
            throughput_records(&series(scale, ci)),
        )
    }

    fn lat_point(rate: f64, p99: f64, ci: f64, saturated: bool) -> LatencyPoint {
        LatencyPoint {
            rate_kops: rate,
            achieved_kops: rate,
            saturated,
            drops: 0,
            max_lag_ns: 0,
            backlog: 0,
            p50_ns: p99 * 0.3,
            p50_ci: ci,
            p90_ns: p99 * 0.6,
            p90_ci: ci,
            p99_ns: p99,
            p99_ci: ci,
            p999_ns: p99 * 2.0,
            p999_ci: ci,
            max_ns: p99 * 5.0,
            max_ci: ci,
            share_fast: 1.0,
            share_slow: 0.0,
            share_helped: 0.0,
            sampled: 10_000,
        }
    }

    fn lat_series(scale: f64, ci: f64) -> Vec<LatencySeries> {
        vec![LatencySeries {
            name: "WF-10".into(),
            points: vec![
                lat_point(250.0, 800.0 * scale, ci, false),
                lat_point(1000.0, 1200.0 * scale, ci, false),
            ],
        }]
    }

    fn lat_doc(series: &[LatencySeries]) -> String {
        doc(
            "latency_observatory",
            "open_loop_pairs",
            latency_records(2, series),
        )
    }

    fn lat(scale: f64, ci: f64) -> String {
        lat_doc(&lat_series(scale, ci))
    }

    /// The latency sweep with its 1000 kops/s point saturated (p99 flat).
    fn lat_saturated() -> String {
        let mut s = lat_series(1.0, 10.0);
        s[0].points[1].saturated = true;
        lat_doc(&s)
    }

    /// The cycle ledger's sample snapshot with WF-10's `find_cell` phase
    /// scaled.
    fn cyc_snapshot(find_cell: f64) -> cycles::CyclesSnapshot {
        let mut s = cycles::tests::sample_snapshot();
        let phase = s.series[1].points[0]
            .phases
            .iter_mut()
            .find(|p| p.phase == "find_cell")
            .unwrap();
        phase.cycles_per_op *= find_cell;
        s
    }

    fn cyc(find_cell: f64) -> String {
        cycles::document(&cyc_snapshot(find_cell)).render()
    }

    fn check(base: &str, cand: &str, threshold: Option<&str>, code: u8, says: &[&[&str]]) {
        let o = gate(base, cand, threshold);
        let all = format!("{}{}", o.out, o.err);
        assert_eq!(o.code, code, "exit code\n{all}");
        for parts in says {
            assert!(
                all.lines().any(|l| parts.iter().all(|p| l.contains(p))),
                "no line with all of {parts:?}:\n{all}"
            );
        }
    }

    /// The gate table: each row is
    /// `name: baseline, candidate, --threshold => exit code, [[a, b, …], …]`,
    /// where every `[a, b, …]` names a report line containing all of its
    /// strings. Each row expands to its own test.
    macro_rules! gate_table {
        ($($name:ident: $base:expr, $cand:expr, $threshold:expr => $code:expr,
           [$([$($part:expr),+ $(,)?]),* $(,)?];)*) => {$(
            #[test]
            fn $name() {
                check(&$base, &$cand, $threshold, $code, &[$(&[$($part),+]),*]);
            }
        )*};
    }

    gate_table! {
        // Throughput: higher is better, bound 5%.
        self_comparison_of_identical_runs_passes:
            tput(1.0, 0.2), tput(1.0, 0.2), None => 0,
            [["threads=1", "ok"], ["PASS", "across 2 gated records"]];
        a_twenty_percent_slowdown_with_tight_cis_regresses:
            tput(1.0, 0.1), tput(0.8, 0.1), None => 1,
            [["threads=1", "REGRESSION"], ["threads=2", "REGRESSION"], ["FAIL", "2 of 2"]];
        wide_cis_mask_even_large_deltas:
            tput(1.0, 1.5), tput(0.8, 1.5), None => 0,
            [["threads=1", "ok"]];
        a_significant_but_sub_threshold_drop_passes:
            tput(1.0, 0.01), tput(0.97, 0.01), None => 0,
            [["threads=1", "within threshold"]];
        improvements_are_reported_but_never_fail:
            tput(1.0, 0.05), tput(1.5, 0.05), None => 0,
            [["threads=1", "improved"], ["threads=2", "improved"]];
        a_threshold_overrides_every_bound:
            tput(1.0, 0.01), tput(0.97, 0.01), Some("2") => 1,
            [["threads=1", "REGRESSION"], ["threshold 2%", "overrides every bound"]];
        a_garbled_threshold_is_a_usage_error:
            tput(1.0, 0.2), tput(1.0, 0.2), Some("five") => 2,
            [["--threshold", "\"five\""]];
        legacy_snapshots_without_commit_still_parse:
            tput(1.0, 0.2).replace("\"commit\": \"deadbee\"", ""),
            tput(1.0, 0.2), None => 0,
            [["baseline ?", "candidate deadbee"]];
        missing_points_surface_as_unmatched_not_panics:
            tput(1.0, 0.2),
            {
                let mut s = series(1.0, 0.2);
                s[0].points.pop();
                s.push(Series { name: "EXTRA".into(), points: series(1.0, 0.2)[0].points.clone() });
                doc("figure2", "pairwise", throughput_records(&s))
            }, None => 0,
            [["unmatched", "queue=WF-10 threads=2 throughput_mops (baseline only)"],
             ["unmatched", "queue=EXTRA threads=1 throughput_mops (candidate only)"]];
        provenance_differences_warn_once:
            tput(1.0, 0.2),
            tput(1.0, 0.2)
                .replace("\"deadbee\"", "\"deadbee\", \"nproc\": 4")
                .replace("pairwise", "batch_pairs"), None => 0,
            [["warning", "workload (\"pairwise\" vs \"batch_pairs\"), provenance.nproc (absent vs 4)"]];
        no_overlapping_keys_exits_2:
            tput(1.0, 0.2), lat(1.0, 10.0), None => 2,
            [["nothing was gated", ""], ["warning", "benchmark (\"figure2\" vs \"latency_observatory\")"]];

        // Documents the gate cannot compare are refused with exit 2.
        malformed_snapshots_return_errors:
            "not json", tput(1.0, 0.2), None => 2,
            [["baseline", ""]];
        truncated_point_missing_ci_half_is_a_parse_error:
            tput(1.0, 0.2), tput(1.0, 0.2).replacen("\"ci_half\": 0.2, ", "", 1), None => 2,
            [["candidate", "ci_half"]];
        empty_series_and_empty_points_are_parse_errors_not_vacuous_passes:
            doc("figure2", "pairwise", Vec::new()), tput(1.0, 0.2), None => 2,
            [["baseline", "no records"]];
        non_finite_numbers_are_parse_errors:
            tput(1.0, 0.2).replacen("\"mean\": 10", "\"mean\": 1e999", 1), tput(1.0, 0.2), None => 2,
            [["baseline", "finite"]];
        duplicate_records_are_parse_errors:
            tput(1.0, 0.2).replace("\"threads\": 2", "\"threads\": 1"), tput(1.0, 0.2), None => 2,
            [["baseline", "duplicate record queue=WF-10 threads=1 throughput_mops"]];
        malformed_latency_snapshots_return_errors:
            "{\"benchmark\": \"latency_observatory\", \"workload\": \"open_loop_pairs\", \
              \"series\": [{\"queue\": \"WF-10\", \"points\": []}]}",
            lat(1.0, 10.0), None => 2,
            [["baseline", "provenance"]];
        empty_latency_series_and_points_are_parse_errors:
            lat(1.0, 10.0), lat_doc(&[]), None => 2,
            [["candidate", "no records"]];

        // Latency: p99 and saturation are lower-is-better, bound 10%.
        latency_self_comparison_passes:
            lat(1.0, 10.0), lat(1.0, 10.0), None => 0,
            [["PASS", "across 4 gated records"]];
        a_significant_p99_inflation_regresses:
            lat(1.0, 10.0), lat(1.5, 10.0), None => 1,
            [["rate_kops=250 ", "REGRESSION"], ["rate_kops=1000 ", "REGRESSION"], ["FAIL", "2 of 4"]];
        a_p99_drop_is_an_improvement_not_a_regression:
            lat(1.0, 10.0), lat(0.5, 10.0), None => 0,
            [["p99_ns", "improved"]];
        overlapping_cis_mask_latency_deltas:
            lat(1.0, 500.0), lat(1.2, 500.0), None => 0,
            [["rate_kops=250 ", "ok"], ["rate_kops=1000 ", "ok"]];
        sub_threshold_latency_inflation_passes:
            lat(1.0, 0.5), lat(1.05, 0.5), None => 0,
            [["p99_ns", "within threshold"]];
        saturation_onset_regresses_even_with_equal_p99:
            lat(1.0, 10.0), lat_saturated(), None => 1,
            [["rate_kops=1000", "saturated", "REGRESSION"], ["rate_kops=1000", "p99_ns", "ok"],
             ["FAIL", "1 of 4"]];
        desaturation_never_fails:
            lat_saturated(), lat(1.0, 10.0), None => 0,
            [["saturated", "improved"]];
        ungated_records_are_carried_not_gated:
            lat(1.0, 10.0), lat(1.0, 10.0).replace("\"p50_ns\", \"unit\": \"ns\", \"mean\": 240", "\"p50_ns\", \"unit\": \"ns\", \"mean\": 2400"), None => 0,
            [["carried", "ungated records"], ["PASS", "4 gated"]];
        latency_rate_mismatches_surface_as_unmatched:
            lat(1.0, 10.0),
            {
                let mut s = lat_series(1.0, 10.0);
                s[0].points[1].rate_kops = 4000.0;
                lat_doc(&s)
            }, None => 0,
            [["unmatched", "rate_kops=1000 p99_ns (baseline only)"],
             ["unmatched", "rate_kops=4000 p99_ns (candidate only)"]];

        // Cycles: per-phase and total cycles/op, lower is better, bound 10%.
        comparison_gates_on_total_and_phases_with_higher_is_worse:
            cyc(1.0), cyc(2.0), None => 1,
            [["phase=find_cell", "REGRESSION"], ["queue=WF-10 threads=1 phase=total", "ok"]];
        cycles_improvements_never_fail:
            cyc(2.0), cyc(1.0), None => 0,
            [["phase=find_cell", "improved"]];
        comparison_reports_unmatched_keys:
            cyc(1.0),
            {
                let mut s = cyc_snapshot(1.0);
                s.series[1].points[0].phases.pop();
                s.series.push(cycles::CyclesSeries { name: "SCQ".into(), points: s.series[0].points.clone() });
                cycles::document(&s).render()
            }, None => 0,
            [["unmatched", "phase=glue cycles_per_op (baseline only)"],
             ["unmatched", "queue=SCQ threads=1 phase=total cycles_per_op (candidate only)"]];
        cycles_non_finite_numbers_are_parse_errors:
            cyc(1.0), cyc(1.0).replacen("\"ci_half\": 1,", "\"ci_half\": 1e999,", 1), None => 2,
            [["candidate", "finite"]];
    }

    #[test]
    fn snapshots_roundtrip_through_render_and_parse() {
        let text = tput(1.0, 0.2);
        let back = parse(&text).unwrap();
        assert_eq!(back.commit(), Some("deadbee"));
        assert_eq!(
            (back.benchmark.as_str(), back.workload.as_str()),
            ("figure2", "pairwise")
        );
        assert_eq!(back.records, throughput_records(&series(1.0, 0.2)));
        assert_eq!(back.render(), text, "rendering is a fixed point");
    }

    #[test]
    fn latency_snapshots_roundtrip_through_render_and_parse() {
        let back = parse(&lat(1.0, 10.0)).unwrap();
        assert_eq!(back.records, latency_records(2, &lat_series(1.0, 10.0)));
    }

    #[test]
    fn trajectory_line_is_one_line_of_valid_json() {
        let mut d = parse(&tput(1.0, 0.2)).unwrap();
        d.set_commit("cafef00d");
        let line = d.render_line();
        assert_eq!(line.lines().count(), 1);
        let back = parse(&line).unwrap();
        assert_eq!(back.commit(), Some("cafef00d"));
        assert_eq!(back, d);
    }

    #[test]
    fn latency_trajectory_line_is_one_line_of_valid_json() {
        // Unlike the old compacted line, the trajectory keeps every record.
        let d = parse(&lat(1.0, 10.0)).unwrap();
        assert_eq!(parse(&d.render_line()).unwrap(), d);
    }

    /// Every committed snapshot and trajectory line parses and passes a
    /// self-comparison, so schema drift fails tier-1, not only CI.
    #[test]
    fn committed_snapshots_parse_and_self_compare_to_pass() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut docs = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                docs.push((name, std::fs::read_to_string(&path).unwrap()));
            }
        }
        let trajectory = std::fs::read_to_string(format!("{dir}/trajectory.jsonl")).unwrap();
        for (i, line) in trajectory.lines().enumerate() {
            docs.push((format!("trajectory.jsonl:{}", i + 1), line.to_string()));
        }
        assert!(
            docs.len() >= 9,
            "expected 4 snapshots and 5 trajectory lines"
        );
        for (name, text) in &docs {
            let o = gate(text, text, None);
            assert_eq!(o.code, 0, "{name}:\n{}{}", o.out, o.err);
            assert!(o.err.is_empty(), "{name}: {}", o.err);
        }
    }
}
