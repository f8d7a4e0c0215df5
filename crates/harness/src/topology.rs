//! Platform introspection and thread pinning.
//!
//! The paper pins software threads compactly — "each software thread is
//! mapped to the hardware thread that is closest to previously mapped
//! threads" — and reports platform characteristics in Table 1. This module
//! provides both: [`pin_to_cpu`] via `sched_setaffinity`, and
//! [`PlatformInfo::detect`] from `/proc/cpuinfo`.

use std::fs;

/// Summary of the machine, i.e. one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformInfo {
    /// CPU model string.
    pub model: String,
    /// Number of online logical CPUs (hardware threads).
    pub logical_cpus: usize,
    /// Number of distinct physical packages (sockets), if reported.
    pub sockets: usize,
    /// Number of distinct physical cores, if reported.
    pub cores: usize,
    /// Whether the target natively supports fetch-and-add (x86_64 does;
    /// the paper's Power7 does not and pays for it).
    pub native_faa: bool,
    /// Whether double-width CAS is lock-free here (LCRQ eligibility).
    pub native_cas2: bool,
}

impl PlatformInfo {
    /// Reads `/proc/cpuinfo`; falls back to conservative defaults off-Linux.
    pub fn detect() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let mut model = String::from("unknown");
        let mut logical = 0usize;
        let mut sockets = std::collections::BTreeSet::new();
        let mut cores = std::collections::BTreeSet::new();
        let mut cur_socket = 0u64;
        for line in cpuinfo.lines() {
            let mut parts = line.splitn(2, ':');
            let key = parts.next().unwrap_or("").trim();
            let val = parts.next().unwrap_or("").trim();
            match key {
                "processor" => logical += 1,
                "model name" if model == "unknown" => model = val.to_string(),
                "physical id" => {
                    cur_socket = val.parse().unwrap_or(0);
                    sockets.insert(cur_socket);
                }
                "core id" => {
                    cores.insert((cur_socket, val.parse::<u64>().unwrap_or(0)));
                }
                _ => {}
            }
        }
        if logical == 0 {
            logical = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
        }
        Self {
            model,
            logical_cpus: logical,
            sockets: sockets.len().max(1),
            cores: cores.len().max(1),
            native_faa: cfg!(target_arch = "x86_64") || cfg!(target_arch = "aarch64"),
            native_cas2: wfq_sync::dwcas::IS_LOCK_FREE,
        }
    }

    /// Renders the Table 1 row as markdown.
    pub fn markdown_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} |",
            self.model,
            self.sockets,
            self.cores,
            self.logical_cpus,
            if self.native_faa { "yes" } else { "no" },
            if self.native_cas2 { "yes" } else { "no" },
        )
    }
}

// Minimal libc surface declared directly (the build must work without the
// `libc` crate): `cpu_set_t` is a 1024-bit mask on Linux, and both symbols
// live in the libc every Rust binary already links against.
#[cfg(target_os = "linux")]
mod ffi {
    /// `CPU_SETSIZE / (8 * sizeof(unsigned long))` on 64-bit Linux.
    pub const CPU_SET_WORDS: usize = 1024 / 64;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn sched_setaffinity(
            pid: i32,
            cpusetsize: usize,
            mask: *const u64,
        ) -> i32;
    }

    /// `_SC_NPROCESSORS_ONLN` on Linux.
    pub const SC_NPROCESSORS_ONLN: i32 = 84;
}

/// Number of online logical CPUs.
pub fn num_cpus() -> usize {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: plain libc query, no preconditions.
        let n = unsafe { ffi::sysconf(ffi::SC_NPROCESSORS_ONLN) };
        if n > 0 {
            return n as usize;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `cpu mod num_cpus` — the paper's compact
/// mapping degenerates to this on a machine whose logical CPUs are already
/// enumerated core-adjacent (Linux enumerates SMT siblings together on the
/// platforms we target). Returns false if the affinity call failed
/// (e.g. restricted container), in which case the thread runs unpinned.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let ncpu = num_cpus();
    let target = cpu % ncpu;
    #[cfg(target_os = "linux")]
    {
        let mut set = [0u64; ffi::CPU_SET_WORDS];
        set[target / 64] |= 1u64 << (target % 64);
        // SAFETY: the mask is a plain bitmask of the documented size; pid 0
        // means the calling thread.
        return unsafe {
            ffi::sched_setaffinity(0, core::mem::size_of_val(&set), set.as_ptr()) == 0
        };
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = target;
        false
    }
}

/// CPU time the calling thread has consumed, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). A timed window's wall time minus its
/// thread's CPU time is how long the thread was off the CPU: waiting on the
/// run queue, blocked, or, where the kernel accounts steal, stolen. `None`
/// where the clock is unavailable.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec.
        if unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return Some(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        if let Some(a) = thread_cpu_ns() {
            let mut x = 0u64;
            for i in 0..1_000_000u64 {
                x = core::hint::black_box(x.wrapping_add(i));
            }
            let b = thread_cpu_ns().expect("readable once, readable twice");
            assert!(b > a, "no CPU time charged for a busy loop ({x})");
        }
    }

    #[test]
    fn detect_reports_at_least_one_cpu() {
        let p = PlatformInfo::detect();
        assert!(p.logical_cpus >= 1);
        assert!(p.sockets >= 1);
        assert!(p.cores >= 1);
        assert!(!p.model.is_empty());
    }

    #[test]
    fn x86_has_native_primitives() {
        if cfg!(target_arch = "x86_64") {
            let p = PlatformInfo::detect();
            assert!(p.native_faa);
            assert!(p.native_cas2);
        }
    }

    #[test]
    fn num_cpus_positive() {
        assert!(num_cpus() >= 1);
    }

    #[test]
    fn pinning_to_each_cpu_succeeds_or_degrades_gracefully() {
        // In a containerized environment pinning may be restricted; the
        // call must never panic and must wrap around ncpus.
        for cpu in 0..2 * num_cpus() {
            let _ = pin_to_cpu(cpu);
        }
    }

    #[test]
    fn markdown_row_has_six_columns() {
        let p = PlatformInfo::detect();
        let row = p.markdown_row();
        assert_eq!(row.matches('|').count(), 7, "6 columns need 7 pipes");
    }
}
