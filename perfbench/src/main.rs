//! The wait-free queue's benchmark: three workloads run against the public
//! API of `wfqueue`, with `wfq_baselines::FaaBench` as the fetch-and-add
//! floor. See README.md for what each workload and metric is for.
//!
//! ```text
//! wfq-perfbench --workload pairs|handoff|backlog --seed N --seconds S --trace 0|1
//!               [--commit SHA] [--source-digest HEX] [--trace-dir DIR]
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer ones traced). Lines before it give provenance,
//! the delivery check's breakdown, and figures that are reported but not
//! gated.

mod backlog;
mod chan;
mod check;
#[cfg(test)]
mod controls;
mod footprint;
mod handoff;
#[cfg(test)]
mod json;
mod metrics;
mod pairs;
mod quant;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use check::Delivery;
use metrics::{num, result_line, END_TO_END, PER_LAYER};
use trace::Trace;

/// Set-up runs in addition to the timed session's own; `setup_s` is the
/// median of all of them.
pub const SETUP_TRIALS: usize = 5;

/// The workloads, and the worker threads each runs.
const WORKLOADS: &[(&str, usize)] = &[("pairs", 1), ("handoff", 2), ("backlog", 2)];

/// Checked command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    pub source_digest: String,
    pub trace_dir: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            commit: "unknown".into(),
            source_digest: "unknown".into(),
            trace_dir: PathBuf::from("perfbench/traces"),
        };
        let mut it = args.iter();
        let mut seen_seconds = false;
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => o.workload = val.clone(),
                "--seed" => o.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
                "--seconds" => {
                    o.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                    seen_seconds = true;
                }
                "--trace" => {
                    o.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                    }
                }
                "--commit" => o.commit = val.clone(),
                "--source-digest" => o.source_digest = val.clone(),
                "--trace-dir" => o.trace_dir = PathBuf::from(val),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !WORKLOADS.iter().any(|(w, _)| *w == o.workload) {
            return Err(format!(
                "--workload must be one of pairs, handoff, backlog (got {:?})",
                o.workload
            ));
        }
        if !(seen_seconds && o.seconds > 0.0 && o.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(o)
    }

    fn threads(&self) -> usize {
        WORKLOADS
            .iter()
            .find(|(w, _)| *w == self.workload)
            .map_or(0, |(_, t)| *t)
    }
}

/// What a workload measured.
pub struct Outcome {
    pub delivery: Delivery,
    /// Drains run (each is one operation that can fail by its deadline).
    pub drains: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures printed but not gated.
    pub report: Vec<(&'static str, f64)>,
    /// Layer metrics this workload does not drive (printed as 0).
    pub not_driven: Vec<&'static str>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn new(delivery: Delivery, drains: u64) -> Self {
        Self {
            delivery,
            drains,
            metrics: Vec::new(),
            report: Vec::new(),
            not_driven: Vec::new(),
            trace: None,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn report(&mut self, name: &'static str, value: f64) {
        self.report.push((name, value));
    }

    pub fn not_driven(&mut self, names: &[&'static str]) {
        for &n in names {
            self.metric(n, 0.0);
            self.not_driven.push(n);
        }
    }
}

/// Runs the workload `o` names and returns its outcome.
fn run(o: &Opts) -> Outcome {
    match o.workload.as_str() {
        "pairs" => pairs::run(wfqueue::RawQueue::new, o),
        "handoff" => handoff::run(wfqueue::WfQueue::<chan::Msg>::new, o),
        "backlog" => backlog::run(wfqueue::RawQueue::new, o),
        w => unreachable!("workload {w} passed the option check"),
    }
}

/// Why a workload of `threads` worker threads must not run on a host
/// offering `usable` CPUs: every worker needs a CPU of its own, or the
/// figures measure the scheduler instead of the queue.
fn refusal(workload: &str, threads: usize, usable: usize) -> Option<String> {
    (threads > usable).then(|| {
        format!("refusing {workload}: it needs {threads} threads, each on its own CPU, and this host offers {usable}")
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(o: &Opts, cpus: &[usize]) -> String {
    let pinned: Vec<String> = cpus
        .iter()
        .take(o.threads())
        .map(|c| c.to_string())
        .collect();
    format!(
        "{{\"commit\": {}, \"source_digest\": {}, \"nproc\": {}, \"kernel\": {}, \"workload\": {}, \"threads\": {}, \"pinned_cpus\": [{}], \"trace\": {}, \"seed\": {}, \"seconds\": {}}}",
        json_str(&o.commit),
        json_str(&o.source_digest),
        sys::nproc(),
        json_str(&sys::kernel()),
        json_str(&o.workload),
        o.threads(),
        pinned.join(", "),
        o.trace,
        o.seed,
        num(o.seconds),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wfq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = sys::allowed_cpus();
    if let Some(why) = refusal(&o.workload, o.threads(), sys::nproc().min(cpus.len())) {
        eprintln!("wfq-perfbench: {why}");
        return ExitCode::from(3);
    }
    println!("provenance: {}", provenance(&o, &cpus));
    let out = run(&o);
    let d = out.delivery;
    println!(
        "delivery: {{\"sent\": {}, \"delivered\": {}, \"lost\": {}, \"duplicated\": {}, \"reordered\": {}, \"invented\": {}, \"late_drains\": {}, \"drains\": {}}}",
        d.sent, d.delivered, d.lost, d.duplicated, d.reordered, d.invented, d.late_drains, out.drains
    );
    let report: Vec<String> = out
        .report
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), num(*v)))
        .collect();
    println!("report: {{{}}}", report.join(", "));
    if let Some(trace) = &out.trace {
        // One file per workload, overwritten by the next traced run.
        let path = o.trace_dir.join(format!("{}.jsonl", o.workload));
        if let Err(e) = trace.write(&path) {
            eprintln!("wfq-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        let (kept, dropped) = trace.span_counts();
        let not_driven: Vec<String> = out.not_driven.iter().map(|n| json_str(n)).collect();
        println!(
            "trace: {{\"file\": {}, \"spans\": {kept}, \"spans_dropped\": {dropped}, \"not_driven\": [{}]}}",
            json_str(&path.display().to_string()),
            not_driven.join(", ")
        );
    }
    let defs = if o.trace { PER_LAYER } else { END_TO_END };
    // `correct`: every value that came out was one the generator made, so
    // the accounting below is sound. Values lost, duplicated or reordered
    // are failed operations, counted in `failed`.
    let correct = d.invented == 0;
    println!(
        "{}",
        result_line(correct, d.sent + out.drains, d.failed(), defs, &out.metrics)
    );
    ExitCode::SUCCESS
}
