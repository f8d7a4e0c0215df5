//! `wfq-regress` — the statistical performance-regression gate.
//!
//! Compares two benchmark snapshots (the one record schema written by
//! `figure2 --json`, `latency_observatory --json` and `cycle_ledger
//! --json`, committed under `results/`) record by record on `(key,
//! metric)`, using the harness's Student-t 95% CI machinery (Georges et
//! al. §5.1). A record regresses when it moved in its worse direction by
//! more than its `bound_pct` **and** the two confidence intervals do not
//! overlap — wide CIs (noisy hosts, quick runs) cannot trip the gate, and
//! significant-but-tiny wobbles cannot either. The document describes
//! itself: each record carries its polarity and bound, so one command
//! gates throughput, latency and cycles snapshots alike.
//!
//! ```text
//! # gate: exit 0 on pass, 1 on regression, 2 on usage/parse error or
//! # when no gated record appears in both snapshots
//! wfq-regress --baseline results/BENCH_pairwise.json \
//!             --candidate /tmp/head.json [--threshold PCT]
//!
//! # record: append the snapshot, on one line, to the perf trajectory
//! wfq-regress --record /tmp/head.json [--out results/trajectory.jsonl] \
//!             [--commit SHA]
//! ```
//!
//! `--threshold` replaces every record's `bound_pct`. `--record` appends
//! the parsed snapshot as one line to `results/trajectory.jsonl`, so the
//! repository accumulates a `git diff`-able perf history; `--commit`
//! sets the snapshot's provenance commit at record time. See
//! EXPERIMENTS.md ("Benchmark snapshots and the regression gate") for how
//! to bless an intentional perf change.

use std::process::ExitCode;

use wfq_bench::Args;
use wfq_harness::regress;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wfq-regress --baseline BASE.json --candidate CAND.json [--threshold PCT]\n       \
         wfq-regress --record SNAP.json [--out results/trajectory.jsonl] [--commit SHA]"
    );
    ExitCode::from(2)
}

fn die(msg: &str) -> ExitCode {
    eprintln!("wfq-regress: {msg}");
    usage()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn record(args: &Args, path: &str) -> Result<String, String> {
    let mut doc = regress::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    if let Some(c) = args.get("commit") {
        doc.set_commit(c);
    }
    let out = args.get("out").unwrap_or("results/trajectory.jsonl");
    let mut body = std::fs::read_to_string(out).unwrap_or_default();
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    body.push_str(&doc.render_line());
    body.push('\n');
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "recorded {} / {} ({} records) to {out}",
        doc.benchmark,
        doc.workload,
        doc.records.len()
    ))
}

fn main() -> ExitCode {
    let args = Args::parse();

    if let Some(path) = args.get("record") {
        return match record(&args, path) {
            Ok(msg) => {
                eprintln!("wfq-regress: {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => die(&e),
        };
    }

    let (Some(base_path), Some(cand_path)) = (args.get("baseline"), args.get("candidate")) else {
        return die("need --baseline and --candidate (or --record)");
    };
    let (base, cand) = match (read(base_path), read(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return die(&e),
    };
    // A `--threshold` without a usable value is garbled, not absent.
    let threshold = args
        .flag("threshold")
        .then(|| args.get("threshold").unwrap_or(""));
    let outcome = regress::gate(&base, &cand, threshold);
    print!("{}", outcome.out);
    for line in outcome.err.lines() {
        eprintln!("wfq-regress: {line}");
    }
    if outcome.code == 2 {
        return usage();
    }
    ExitCode::from(outcome.code)
}
