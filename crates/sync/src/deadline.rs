//! A wall-clock bound for the spin-waits in concurrent tests.
//!
//! A consumer that spins until it has seen N values never returns if the
//! queue under test loses one, and one such loop stalls the whole suite.
//! Every count-waiting loop in the tests checks a [`Deadline`] instead, so
//! a lost value fails its own test, with the count it reached.

use std::time::{Duration, Instant};

/// How long a test may spin-wait: far above a healthy run (each finishes
/// in well under a second, debug build, oversubscribed on 2 vCPUs) and far
/// below a CI job's timeout.
pub const TEST_TIME_LIMIT: Duration = Duration::from_secs(30);

/// A point in time after which [`Deadline::check`] panics.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Instant);

impl Default for Deadline {
    fn default() -> Self {
        Self::new()
    }
}

impl Deadline {
    /// A deadline [`TEST_TIME_LIMIT`] from now.
    pub fn new() -> Self {
        Self(Instant::now() + TEST_TIME_LIMIT)
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.0
    }

    /// Panics once the deadline has passed, naming what was still awaited.
    #[track_caller]
    pub fn check(&self, awaited: impl FnOnce() -> String) {
        if self.expired() {
            panic!(
                "time limit of {TEST_TIME_LIMIT:?} exceeded while awaiting {}",
                awaited()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_passes_and_expired_one_panics() {
        assert!(!Deadline::new().expired());
        Deadline::new().check(|| unreachable!("a fresh deadline must not fire"));
        let expired = Deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.expired());
        let err = std::panic::catch_unwind(|| expired.check(|| "7 of 9 values".into()))
            .expect_err("an expired deadline must panic");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("7 of 9 values"), "{msg}");
    }
}
