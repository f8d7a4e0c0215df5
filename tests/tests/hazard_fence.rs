//! Store-buffering litmus for the hazard handshake's asymmetric fence
//! (docs/MEMORY_ORDERING.md, Subtlety 1).
//!
//! Each round pairs an *owner*, which publishes a hazard and then reads a
//! segment pointer (`store; light(); load`), with a *cleaner*, which pushes
//! that pointer and then re-reads the hazard (`CAS; heavy(); load`). The
//! forbidden outcome is **both stale**: the owner misses the push *and*
//! the cleaner misses the hazard — in the queue, the cleaner would free the
//! segment the owner is about to traverse. Both real modes must never show
//! it. Two controls must show it, or this test could not tell a working
//! fence from none: the `membarrier` mode with the cleaner's heavy barrier
//! taken out (neither side orders its store before its load), and the
//! same mode with the heavy barrier replaced by `fence(SeqCst)` — the
//! reason a cleaner whose `membarrier` fails must abandon its pass rather
//! than fall back to a plain fence.
//!
//! It lives here rather than in `wfq-sync`'s unit tests because the
//! sanitizer job runs those, and a sanitizer's atomics need not reorder,
//! so the control could not convict there.

use std::io::Write;
use std::sync::atomic::{compiler_fence, AtomicU64, Ordering};
use std::sync::Mutex;

use wfq_sync::{AsymFence, Deadline, XorShift64};

/// Rounds per run.
const ROUNDS: usize = 100_000;

/// Upper bound, in spins, of the random pause before each round's accesses.
const STAGGER: u64 = 16;

/// The rounds of one run need both threads on a CPU at once; two runs at a
/// time would oversubscribe a small host and stall every round barrier.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Reads both of the round's locations, so each side's cache holds a
/// shared copy of both, then waits until the partner has arrived at
/// `round` too. With both lines shared, each side's write waits on an
/// invalidation while its read hits the stale local copy: the window the
/// fences must close.
fn meet(
    locations: [&AtomicU64; 2],
    me: &AtomicU64,
    partner: &AtomicU64,
    round: u64,
    deadline: &Deadline,
) {
    for l in locations {
        std::hint::black_box(l.load(Ordering::Relaxed));
    }
    me.store(round, Ordering::Release);
    let mut spins = 0u32;
    while partner.load(Ordering::Acquire) < round {
        spins += 1;
        if spins % 1024 == 0 {
            // The partner may be descheduled; let it run.
            std::thread::yield_now();
            deadline.check(|| format!("the partner at round {round}"));
        }
        std::hint::spin_loop();
    }
}

/// A random pause after each meeting, so the two sides' start offsets vary
/// across rounds instead of repeating the meeting's systematic skew.
fn stagger(rng: &mut XorShift64) {
    for _ in 0..rng.next_below(STAGGER) {
        std::hint::spin_loop();
    }
}

/// Runs [`ROUNDS`] rounds of the handshake, the owner issuing `owner`'s
/// light side and the cleaner `cleaner`'s heavy side (a compiler fence if
/// `None`), and returns how many rounds ended both stale. Every round
/// uses fresh locations, so none needs a reset. The fences are called inline, not through a helper: in a debug build
/// one more call between the owner's store and load lets the store drain
/// first, and the control convicted in none of 100 000 rounds.
fn both_stale(owner: AsymFence, cleaner: Option<AsymFence>) -> usize {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let hazard: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
    let pointer: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
    let (owner_at, cleaner_at) = (AtomicU64::new(0), AtomicU64::new(0));
    let deadline = Deadline::new();
    let (owner_saw, cleaner_saw) = std::thread::scope(|s| {
        let owner_side = s.spawn(|| {
            let mut saw_push = Vec::with_capacity(ROUNDS);
            let mut rng = XorShift64::new(1);
            for r in 0..ROUNDS {
                let (h, p) = (&hazard[r], &pointer[r]);
                meet([h, p], &owner_at, &cleaner_at, r as u64 + 1, &deadline);
                stagger(&mut rng);
                h.store(1, Ordering::Relaxed);
                owner.light();
                saw_push.push(p.load(Ordering::Acquire) == 1);
            }
            saw_push
        });
        let cleaner_side = s.spawn(|| {
            let mut saw_hazard = Vec::with_capacity(ROUNDS);
            let mut rng = XorShift64::new(2);
            for r in 0..ROUNDS {
                let (h, p) = (&hazard[r], &pointer[r]);
                meet([h, p], &cleaner_at, &owner_at, r as u64 + 1, &deadline);
                stagger(&mut rng);
                let pushed = p.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
                match cleaner {
                    Some(f) => f.heavy().expect("heavy barrier failed"),
                    None => compiler_fence(Ordering::SeqCst),
                }
                saw_hazard.push(h.load(Ordering::SeqCst) == 1);
                assert!(pushed.is_ok());
            }
            saw_hazard
        });
        (owner_side.join().unwrap(), cleaner_side.join().unwrap())
    });
    let stale = owner_saw
        .iter()
        .zip(&cleaner_saw)
        .filter(|&(&push, &hzd)| !push && !hzd)
        .count();
    // Written past the harness's output capture, so every run's log shows
    // which mode the probe chose and what each run saw.
    let _ = writeln!(
        std::io::stderr(),
        "hazard_fence: owner {owner:?}, cleaner {cleaner:?}: {stale} both-stale \
         outcomes in {ROUNDS} rounds (probed mode: {:?})",
        AsymFence::probe()
    );
    stale
}

#[test]
fn probed_mode_never_leaves_both_sides_stale() {
    let mode = AsymFence::probe();
    assert_eq!(both_stale(mode, Some(mode)), 0);
}

#[test]
fn fallback_mode_never_leaves_both_sides_stale() {
    assert_eq!(both_stale(AsymFence::Fence, Some(AsymFence::Fence)), 0);
}

/// Batches of [`ROUNDS`] a control may take to show one both-stale round
/// (a batch showed 13–1099 on a 2-vCPU x86_64 KVM guest, debug to release).
const CONTROL_BATCHES: usize = 5;

/// Whether a control pair shows a both-stale round within
/// [`CONTROL_BATCHES`]; trivially true on one CPU, where the two sides
/// never overlap and no control can convict.
fn control_convicts(owner: AsymFence, cleaner: Option<AsymFence>) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        let _ = writeln!(
            std::io::stderr(),
            "hazard_fence: control skipped: {cpus} CPU, the two sides cannot overlap"
        );
        return true;
    }
    (0..CONTROL_BATCHES).any(|_| both_stale(owner, cleaner) > 0)
}

/// The owner's light side is a compiler fence only, and without the
/// cleaner's heavy barrier store buffering lets both reads miss.
#[test]
fn control_without_the_heavy_barrier_is_convicted() {
    assert!(
        control_convicts(AsymFence::Membarrier, None),
        "no both-stale outcome in {CONTROL_BATCHES} × {ROUNDS} rounds without any \
         store→load barrier; the litmus cannot tell a fence from none"
    );
}

/// A full fence on the cleaner alone does not order the owner's store
/// before its load, so it cannot stand in for a failed `membarrier`.
#[test]
fn control_with_a_plain_fence_for_the_heavy_barrier_is_convicted() {
    assert!(
        control_convicts(AsymFence::Membarrier, Some(AsymFence::Fence)),
        "no both-stale outcome in {CONTROL_BATCHES} × {ROUNDS} rounds with a \
         cleaner-only fence"
    );
}
