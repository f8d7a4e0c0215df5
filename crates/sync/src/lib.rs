//! Low-level synchronization substrate shared by the `wfqueue` reproduction.
//!
//! This crate collects the small, orthogonal primitives that the paper's
//! algorithms assume of the platform:
//!
//! - [`CachePadded`]: false-sharing avoidance for hot shared words
//!   (head/tail indices, per-thread handles).
//! - [`Backoff`]: bounded exponential backoff for retry loops in the
//!   *baseline* algorithms (the wait-free queue itself never needs it).
//! - [`cas2`](dwcas::AtomicU128): double-width compare-and-swap, the CAS2
//!   primitive LCRQ requires (`lock cmpxchg16b` on x86_64).
//! - [`XorShift64`]: a tiny deterministic PRNG for per-thread workload
//!   decisions (50%-enqueues coin flips, random "work" amounts) that stays
//!   off the allocator and out of the measured path.
//! - [`SpinDelay`](delay::SpinDelay): a calibrated busy-wait used to
//!   reproduce the paper's 50–100 ns inter-operation "work".
//! - [`fault`]: the deterministic fault-injection layer behind the
//!   [`inject!`] macro — a compiled-out no-op by default, a seeded
//!   schedule perturbator under `--features fault-injection`.
//! - [`AsymFence`](asym_fence::AsymFence): a store→load barrier split
//!   between a near-free frequent side and a `membarrier` rare side (the
//!   queue's hazard publication vs. its reclamation pass).
//! - [`Deadline`]: the time bound on the test suites' spin-waits, so a
//!   lost value fails a test instead of hanging it.

#![warn(missing_docs)]

pub mod asym_fence;
pub mod backoff;
pub mod deadline;
pub mod delay;
pub mod dwcas;
pub mod fault;
pub mod pad;
pub mod rng;

pub use asym_fence::AsymFence;
pub use backoff::Backoff;
pub use deadline::Deadline;
pub use pad::CachePadded;
pub use rng::XorShift64;
