//! Seeded values and the delivery check.
//!
//! Every value a workload enqueues carries its producer's sequence number.
//! After the timed window the consumer's record of delivered sequence
//! numbers is checked: each value must come out exactly once and in the
//! order it went in. Every value that does not is a failed operation.

/// Low bits of a value that hold a seeded tag; the rest hold `seq + 1`.
const TAG_BITS: u32 = 20;

/// SplitMix64 finaliser: a well-mixed hash of `x`. Turns a seed into the
/// generator's key.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generator's key for `seed`.
pub fn key(seed: u64) -> u64 {
    mix(seed)
}

/// The raw-queue value for sequence number `seq` under `key`: `seq + 1`
/// in the high bits and a keyed tag in the low ones, so a value is never
/// one of the queue's reserved patterns (`0`, `u64::MAX`) and a corrupted
/// value is caught by its tag. One multiply: the generator stays cheap
/// beside a queue operation.
#[inline]
pub fn encode(key: u64, seq: u64) -> u64 {
    ((seq + 1) << TAG_BITS) | ((seq ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TAG_BITS))
}

/// The sequence number `v` encodes under `key`, or `None` if `v` is not a
/// value this generator made.
#[inline]
pub fn decode(key: u64, v: u64) -> Option<u64> {
    let seq = (v >> TAG_BITS).checked_sub(1)?;
    (seq < 1 << (64 - TAG_BITS - 1) && v == encode(key, seq)).then_some(seq)
}

/// What the delivery check found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Values the producer enqueued.
    pub sent: u64,
    /// Values the consumer dequeued, anomalies included.
    pub delivered: u64,
    /// Sent values that never came out before the deadline.
    pub lost: u64,
    /// Deliveries of a value that had already come out.
    pub duplicated: u64,
    /// First deliveries that came after a later value (FIFO violations).
    pub reordered: u64,
    /// Dequeued values no producer made (corrupt or invented).
    pub invented: u64,
    /// Drains that hit their deadline with values still missing.
    pub late_drains: u64,
}

impl Delivery {
    /// Failed operations: every value not delivered exactly once in order,
    /// and every drain past its deadline.
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.reordered + self.invented + self.late_drains
    }

    /// Adds `other`'s counts to `self`.
    pub fn absorb(&mut self, other: &Delivery) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.invented += other.invented;
        self.late_drains += other.late_drains;
    }
}

/// Exactly-once, in-order check of one producer's stream over the sequence
/// range `base .. base + len`.
pub struct StreamCheck {
    base: u64,
    len: u64,
    seen: Vec<u64>,
    /// One past the highest sequence number delivered so far.
    frontier: u64,
    found: Delivery,
}

impl StreamCheck {
    /// A check expecting sequence numbers `base .. base + len`.
    pub fn new(base: u64, len: u64) -> Self {
        let mut c = Self {
            base,
            len,
            seen: Vec::new(),
            frontier: base,
            found: Delivery::default(),
        };
        c.reset(base, len);
        c
    }

    /// Re-arms the check for a new range, reusing its memory.
    pub fn reset(&mut self, base: u64, len: u64) {
        let words = len.div_ceil(64) as usize;
        self.seen.clear();
        self.seen.resize(words, 0);
        self.base = base;
        self.len = len;
        self.frontier = base;
        self.found = Delivery::default();
    }

    /// Records one delivery of `seq` (`None`: a value no producer made).
    #[inline]
    pub fn deliver(&mut self, seq: Option<u64>) {
        self.found.delivered += 1;
        let Some(seq) = seq else {
            self.found.invented += 1;
            return;
        };
        if seq < self.base {
            // A value of an earlier range that came out only now.
            self.found.reordered += 1;
            return;
        }
        let off = seq - self.base;
        if off >= self.len {
            self.found.invented += 1;
            return;
        }
        let (w, bit) = ((off / 64) as usize, 1u64 << (off % 64));
        if self.seen[w] & bit != 0 {
            self.found.duplicated += 1;
            return;
        }
        self.seen[w] |= bit;
        if seq < self.frontier {
            self.found.reordered += 1;
        } else {
            self.frontier = seq + 1;
        }
    }

    /// Ends the check: every value of the range that never came out is
    /// lost. `late_drain` marks a drain that hit its deadline.
    pub fn finish(&mut self, late_drain: bool) -> Delivery {
        let distinct: u64 = self.seen.iter().map(|w| u64::from(w.count_ones())).sum();
        let mut d = self.found;
        d.sent = self.len;
        d.lost = self.len - distinct;
        d.late_drains = u64::from(late_drain);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_avoid_reserved_patterns() {
        for seq in [0, 1, 2, 1 << 20, (1 << 40) + 7] {
            let v = encode(key(99), seq);
            assert!(v != 0 && v != u64::MAX);
            assert_eq!(decode(key(99), v), Some(seq));
            assert_eq!(
                decode(key(98), v),
                None,
                "a tag from another seed must not pass"
            );
        }
        assert_eq!(decode(key(99), 0), None);
        assert_eq!(decode(key(99), u64::MAX), None);
    }

    fn run(seqs: &[Option<u64>], len: u64) -> Delivery {
        let mut c = StreamCheck::new(10, len);
        for &s in seqs {
            c.deliver(s.map(|x| x + 10));
        }
        c.finish(false)
    }

    #[test]
    fn clean_stream_has_no_failures() {
        let seqs: Vec<_> = (0..200).map(Some).collect();
        let d = run(&seqs, 200);
        assert_eq!(d.failed(), 0);
        assert_eq!((d.sent, d.delivered), (200, 200));
    }

    #[test]
    fn each_anomaly_is_one_failure() {
        // 2 lost, 1 duplicated, 1 reordered, 1 invented.
        let d = run(&[Some(0), Some(3), Some(1), Some(3), None, Some(4)], 6);
        assert_eq!(d.lost, 2, "{d:?}"); // 2 and 5
        assert_eq!(d.duplicated, 1);
        assert_eq!(d.reordered, 1); // 1 after 3
        assert_eq!(d.invented, 1);
        assert_eq!(d.failed(), 5);
    }

    #[test]
    fn out_of_range_values_fail() {
        let mut c = StreamCheck::new(100, 4);
        c.deliver(Some(99)); // left over from an earlier range
        c.deliver(Some(104)); // beyond the range
        for s in 100..104 {
            c.deliver(Some(s));
        }
        let d = c.finish(true);
        assert_eq!(
            (d.reordered, d.invented, d.lost, d.late_drains),
            (1, 1, 0, 1)
        );
    }
}
