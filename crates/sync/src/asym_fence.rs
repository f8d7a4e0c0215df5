//! Asymmetric store→load fences: a cheap side for the frequent party and
//! an expensive side for the rare one.
//!
//! Dekker-style handshakes (each side stores its flag, then loads the
//! other's) need a store→load barrier on *both* sides. When one side runs
//! on every operation and the other once in a long while, the barrier can
//! be split unevenly: the frequent side only stops the compiler from
//! reordering ([`AsymFence::light`]), and the rare side forces a full
//! memory barrier on every thread of the process at once
//! ([`AsymFence::heavy`], Linux `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`).
//!
//! The kernel's guarantee: when `membarrier` returns, every thread of the
//! process that was running has executed a full memory barrier (sent by
//! IPI), and every thread that was not running has been through a context
//! switch, which implies one. So for each light-side thread the barrier
//! falls somewhere in its instruction stream. If it falls after the
//! light side's store, the store is globally visible before the heavy side
//! loads; if it falls before, the light side's later load comes after the
//! barrier and sees everything the heavy side stored before calling it.
//! Either way the "both sides read stale" outcome is excluded, exactly as
//! with a full fence on each side. The compiler fence on the light side
//! keeps its store and load in program order, so the barrier has an
//! order to split.
//!
//! Where the syscall is not available (other OS or architecture, a
//! seccomp filter, an old kernel) [`AsymFence::probe`] picks
//! [`AsymFence::Fence`], in which both sides issue `fence(SeqCst)`.
//! Both parties of one handshake must use the same mode, so callers probe
//! once and store the mode next to the data the handshake protects.

use core::sync::atomic::{compiler_fence, fence, Ordering};
use std::sync::OnceLock;

/// Which barrier pair a handshake uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsymFence {
    /// Light side: compiler fence. Heavy side: process-wide `membarrier`.
    Membarrier,
    /// Both sides: `fence(SeqCst)`.
    Fence,
}

impl AsymFence {
    /// The best mode this process supports, probed on the first call (which
    /// registers the process for private expedited `membarrier`) and cached
    /// for every later one.
    pub fn probe() -> Self {
        static MODE: OnceLock<AsymFence> = OnceLock::new();
        *MODE.get_or_init(|| {
            if sys::register_private_expedited() {
                Self::Membarrier
            } else {
                Self::Fence
            }
        })
    }

    /// The frequent side's barrier, between its store and its load.
    #[inline(always)]
    pub fn light(self) {
        match self {
            Self::Membarrier => compiler_fence(Ordering::SeqCst),
            Self::Fence => fence(Ordering::SeqCst),
        }
    }

    /// The rare side's barrier, between its store and its load. An error
    /// means no barrier was issued: the caller must not rely on the
    /// handshake and must back out of whatever it protects.
    pub fn heavy(self) -> std::io::Result<()> {
        match self {
            Self::Membarrier => sys::private_expedited(),
            Self::Fence => {
                fence(Ordering::SeqCst);
                Ok(())
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use core::arch::asm;

    const SYS_MEMBARRIER: i64 = 324;
    const CMD_QUERY: i64 = 0;
    const CMD_PRIVATE_EXPEDITED: i64 = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: i64 = 1 << 4;

    /// `membarrier(cmd, 0, 0)`; the kernel's return value (negative errno
    /// on error). The asm block clobbers memory, so it is also a compiler
    /// barrier.
    fn membarrier(cmd: i64) -> i64 {
        let ret: i64;
        // SAFETY: membarrier takes no pointers; flags and cpu_id are 0.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER => ret,
                in("rdi") cmd,
                in("rsi") 0i64,
                in("rdx") 0i64,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn register_private_expedited() -> bool {
        let needed = CMD_PRIVATE_EXPEDITED | CMD_REGISTER_PRIVATE_EXPEDITED;
        let supported = membarrier(CMD_QUERY);
        supported >= 0
            && supported & needed == needed
            && membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0
    }

    pub fn private_expedited() -> std::io::Result<()> {
        match membarrier(CMD_PRIVATE_EXPEDITED) {
            0 => Ok(()),
            e => Err(std::io::Error::from_raw_os_error(-e as i32)),
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sys {
    pub fn register_private_expedited() -> bool {
        false
    }

    pub fn private_expedited() -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_stable_and_its_heavy_side_succeeds() {
        let mode = AsymFence::probe();
        assert_eq!(AsymFence::probe(), mode);
        mode.light();
        mode.heavy()
            .expect("the probed mode's heavy barrier must work");
        AsymFence::Fence.light();
        AsymFence::Fence.heavy().unwrap();
    }
}
