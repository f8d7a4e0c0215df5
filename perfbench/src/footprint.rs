//! Memory per queued value on a workload that keeps about one value
//! queued (`pairs`, `handoff`): after the timed window, a fresh queue of
//! the workload's type takes a burst of [`DEPTH`] values from one thread,
//! and the resident-set growth while they sit there, per value, is the
//! figure. The burst is then drained and checked like any other.

use crate::chan::{Chan, Port};
use crate::check::{Delivery, StreamCheck};
use crate::sys::{now_ns, rss_bytes};

/// Values in the burst: 1024 segments, far above what a depth-one run
/// leaves cached in the allocator.
pub const DEPTH: u64 = 1 << 20;

/// How long the drain may take before its missing values count as lost.
const DRAIN_DEADLINE_NS: u64 = 2_000_000_000;

/// Bytes of resident memory per value while [`DEPTH`] values built by
/// `value(seq)` sit in `q`; `seq_of` reads a dequeued value's sequence
/// number back. The drain's delivery check is added to `d`.
pub fn bytes_per_value<T, C: Chan<T>>(
    q: &C,
    value: impl Fn(u64) -> T,
    seq_of: impl Fn(&T) -> Option<u64>,
    d: &mut Delivery,
) -> f64 {
    let mut p = q.port();
    let before = rss_bytes();
    for seq in 0..DEPTH {
        p.send(value(seq));
    }
    let grown = rss_bytes().saturating_sub(before);
    let mut check = StreamCheck::new(0, DEPTH);
    let deadline = now_ns() + DRAIN_DEADLINE_NS;
    let mut late = false;
    loop {
        match p.recv() {
            Some(v) => {
                let seq = seq_of(&v);
                check.deliver(seq);
                // In FIFO order: once the last value is out, any still
                // missing is lost.
                if seq == Some(DEPTH - 1) {
                    break;
                }
            }
            None if now_ns() < deadline => {}
            None => {
                late = true;
                break;
            }
        }
    }
    d.absorb(&check.finish(late));
    grown as f64 / DEPTH as f64
}
