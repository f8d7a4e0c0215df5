//! Negative and positive controls: the delivery check must convict a queue
//! that drops or duplicates values and pass a clean one, and the metric
//! tables must be the ones `BENCHMARK.json` declares. `tests/cli.rs`
//! checks what the binary prints.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use wfqueue::{Gauges, QueueStats, RawQueue};

use crate::chan::faulty::{Fault, Faulty};
use crate::chan::{Chan, Counters, Msg, Port};
use crate::json;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::{backlog, handoff, pairs, Opts, Outcome};

/// The workloads pin spinning threads to the same CPUs; running two at once
/// would only slow both, so the tests here take turns.
fn cpus() -> MutexGuard<'static, ()> {
    static CPUS: Mutex<()> = Mutex::new(());
    CPUS.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts(workload: &str) -> Opts {
    Opts {
        workload: workload.into(),
        seed: 7,
        seconds: 0.2,
        trace: false,
        commit: "test".into(),
        source_digest: "test".into(),
        trace_dir: PathBuf::from("unused"),
    }
}

/// A correct FIFO built on a lock: the clean stand-in for a workload the
/// real queue cannot yet run cleanly.
struct LockedFifo<T>(Mutex<VecDeque<T>>);

impl<T> LockedFifo<T> {
    fn new() -> Self {
        Self(Mutex::new(VecDeque::new()))
    }
}

impl<T> Counters for LockedFifo<T> {
    fn stats(&self) -> QueueStats {
        QueueStats::default()
    }
    fn gauges(&self) -> Gauges {
        Gauges::default()
    }
}

impl<T: Send> Chan<T> for LockedFifo<T> {
    type Port<'a>
        = &'a LockedFifo<T>
    where
        T: 'a;
    fn port(&self) -> &LockedFifo<T> {
        self
    }
}

impl<T: Send> Port<T> for &LockedFifo<T> {
    fn send(&mut self, v: T) {
        self.0.lock().expect("fifo lock").push_back(v);
    }
    fn recv(&mut self) -> Option<T> {
        self.0.lock().expect("fifo lock").pop_front()
    }
}

fn assert_clean(out: &Outcome) {
    let d = out.delivery;
    assert_eq!(d.failed(), 0, "{d:?}");
    assert!(d.sent > 0 && d.invented == 0, "{d:?}");
}

#[test]
fn clean_runs_report_no_failures() {
    let _g = cpus();
    assert_clean(&pairs::run(RawQueue::new, &opts("pairs")));
    assert_clean(&backlog::run(RawQueue::new, &opts("backlog")));
    assert_clean(&handoff::run(LockedFifo::<Msg>::new, &opts("handoff")));
}

#[test]
fn a_queue_that_drops_values_fails_operations() {
    let _g = cpus();
    let drop = Fault::DropEvery(1000);
    let p = pairs::run(|| Faulty::new(RawQueue::new(), drop), &opts("pairs")).delivery;
    assert!(p.lost > 0 && p.failed() >= p.lost, "{p:?}");
    let b = backlog::run(|| Faulty::new(RawQueue::new(), drop), &opts("backlog")).delivery;
    assert!(b.lost > 0 && b.failed() >= b.lost, "{b:?}");
    let h = handoff::run(
        || Faulty::new(LockedFifo::<Msg>::new(), drop),
        &opts("handoff"),
    )
    .delivery;
    assert!(h.lost > 0 && h.failed() >= h.lost, "{h:?}");
}

#[test]
fn a_queue_that_duplicates_a_value_fails_operations() {
    let _g = cpus();
    let dup = Fault::Duplicate(500);
    let p = pairs::run(|| Faulty::new(RawQueue::new(), dup), &opts("pairs")).delivery;
    assert!(p.failed() > 0 && p.lost == 0, "{p:?}");
    let b = backlog::run(|| Faulty::new(RawQueue::new(), dup), &opts("backlog")).delivery;
    assert!(b.duplicated > 0, "{b:?}");
    let h = handoff::run(
        || Faulty::new(LockedFifo::<Msg>::new(), dup),
        &opts("handoff"),
    )
    .delivery;
    assert!(h.duplicated > 0 && h.lost == 0, "{h:?}");
}

fn declared(doc: &json::Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

fn table(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text);
    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    let names: Vec<String> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(names, ["pairs", "backlog"]);
}

#[test]
fn more_threads_than_cpus_is_refused() {
    assert!(crate::refusal("handoff", 2, 1).is_some());
    assert!(crate::refusal("pairs", 1, 1).is_none());
    assert!(crate::refusal("backlog", 2, 2).is_none());
}
