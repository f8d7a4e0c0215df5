//! Spans and counter snapshots of a traced run.
//!
//! Each worker thread owns a [`Recorder`]. A span is recorded around a call
//! into one layer of the queue (`raw.enq`, `typed.deq`, ...) or around a
//! phase of the workload (`fill`, `drain`, `window`, ...); call spans name
//! their phase as parent and carry the op id of the value they moved.
//! Calls are sampled 1 in k. Spans stay in memory until the run ends and
//! are then written out as JSON lines (see README.md, "Reading a traced
//! run").
//!
//! Every recorded call span also feeds a per-name aggregate, so the layer
//! costs stay exact after the in-memory store fills up.

use std::collections::BTreeMap;
use std::io::Write;

use wfqueue::QueueStats;

/// Span id: the recording thread in the top byte, its index below.
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// Op id of a span that moved no value (an EMPTY dequeue, a phase).
pub const NO_OP: u64 = u64::MAX;

/// A span longer than this is a preemption of the thread, not work of the
/// layer; it is kept in the file but left out of the layer averages.
pub const TRIM_NS: u64 = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u64,
}

/// Count and summed duration of one span name's samples up to
/// [`TRIM_NS`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub sum_ns: u64,
}

impl Agg {
    /// Mean duration, less the cost `clock_ns` of one clock read.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_ns as f64 / self.count as f64 - clock_ns).max(0.0)
    }
}

/// A counter snapshot taken at a phase boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub at_ns: u64,
    pub phase: SpanId,
    pub label: &'static str,
    pub stats: QueueStats,
    pub head: u64,
    pub tail: u64,
    pub live_segments: u64,
}

/// Call spans one thread keeps in memory; later ones still feed the
/// aggregates.
const CAP: usize = 1 << 16;

/// One thread's span store.
pub struct Recorder {
    thread: u8,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
    pub snapshots: Vec<Snapshot>,
}

impl Recorder {
    /// A store for thread `thread` that keeps at most [`CAP`] call spans.
    pub fn new(thread: u8) -> Self {
        Self {
            thread,
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
            snapshots: Vec::new(),
        }
    }

    fn push(&mut self, span: Span, keep: bool) -> SpanId {
        if !keep && self.spans.len() >= CAP {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (u32::from(self.thread) << 24) | (self.spans.len() - 1) as u32
    }

    /// Opens a phase span; close it with [`Self::close`]. Phase spans are
    /// kept even when the store is full of call spans.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let span = Span {
            name,
            start_ns: crate::sys::now_ns(),
            end_ns: 0,
            parent,
            op: NO_OP,
        };
        self.push(span, true)
    }

    /// Closes phase span `id`, opened on this recorder.
    pub fn close(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[(id & 0x00FF_FFFF) as usize].end_ns = crate::sys::now_ns();
        }
    }

    /// Records a call span and adds it to its name's aggregate.
    #[inline]
    pub fn call(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        op: u64,
    ) -> SpanId {
        let d = end_ns.saturating_sub(start_ns);
        if d <= TRIM_NS {
            let agg = self.aggs.entry(name).or_default();
            agg.count += 1;
            agg.sum_ns += d;
        }
        self.push(
            Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
            },
            false,
        )
    }

    /// Takes a counter snapshot labelled `label` inside phase `phase`.
    pub fn snapshot(&mut self, label: &'static str, phase: SpanId, c: &impl crate::chan::Counters) {
        let g = c.gauges();
        self.snapshots.push(Snapshot {
            at_ns: crate::sys::now_ns(),
            phase,
            label,
            stats: c.stats(),
            head: g.head_index,
            tail: g.tail_index,
            live_segments: g.live_segments,
        });
    }

    /// The aggregate of span name `name`.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }
}

/// The spans of every thread of a run, written out when the run ends.
pub struct Trace {
    pub threads: Vec<Recorder>,
}

impl Trace {
    /// Aggregate of span name `name` over every thread.
    pub fn agg(&self, name: &str) -> Agg {
        let mut a = Agg::default();
        for r in &self.threads {
            let b = r.agg(name);
            a.count += b.count;
            a.sum_ns += b.sum_ns;
        }
        a
    }

    /// Spans kept, and spans dropped because a store was full.
    pub fn span_counts(&self) -> (usize, u64) {
        let kept = self.threads.iter().map(|r| r.spans.len()).sum();
        let dropped = self.threads.iter().map(|r| r.dropped).sum();
        (kept, dropped)
    }

    /// Writes every span and snapshot to `path` as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.threads {
            for (i, s) in r.spans.iter().enumerate() {
                let id = (u32::from(r.thread) << 24) | i as u32;
                write!(
                    w,
                    "{{\"kind\":\"span\",\"id\":{id},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                    r.thread, s.name, s.start_ns, s.end_ns
                )?;
                write_opt(&mut w, s.parent != NO_PARENT, u64::from(s.parent))?;
                write!(w, ",\"op\":")?;
                write_opt(&mut w, s.op != NO_OP, s.op)?;
                writeln!(w, "}}")?;
            }
            for s in &r.snapshots {
                write!(
                    w,
                    "{{\"kind\":\"counters\",\"thread\":{},\"label\":\"{}\",\"at_ns\":{},\"phase\":{},\"head\":{},\"tail\":{},\"live_segments\":{}",
                    r.thread, s.label, s.at_ns, s.phase, s.head, s.tail, s.live_segments
                )?;
                let mut res = Ok(());
                s.stats.for_each_counter(|k, v| {
                    if res.is_ok() {
                        res = write!(w, ",\"{k}\":{v}");
                    }
                });
                res?;
                writeln!(w, "}}")?;
            }
        }
        w.flush()
    }
}

fn write_opt(w: &mut impl Write, some: bool, v: u64) -> std::io::Result<()> {
    if some {
        write!(w, "{v}")
    } else {
        write!(w, "null")
    }
}
