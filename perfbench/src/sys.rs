//! Host facilities: the monotonic clock, CPU pinning, peak RSS and the
//! provenance fields every report carries.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Median cost of one clock read, measured as the gap between two
/// back-to-back reads. Span durations are de-biased by this amount.
pub fn clock_overhead_ns() -> f64 {
    let mut gaps: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = now_ns();
            let b = now_ns();
            (b - a) as f64
        })
        .collect();
    crate::quant::median(&mut gaps)
}

/// Spins until `now_ns() >= t`.
#[inline]
pub fn spin_until(t: u64) {
    while now_ns() < t {
        std::hint::spin_loop();
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Room for 1024 CPUs, the glibc `cpu_set_t` size.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) -> Result<(), String> {
        if cpu >= WORDS * 64 {
            return Err(format!("cpu {cpu} is beyond the affinity mask"));
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity(cpu {cpu}): {}",
                std::io::Error::last_os_error()
            ))
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> Result<(), String> {
        Err("CPU pinning needs Linux".into())
    }
}

/// CPUs this process may run on, in ascending order. Worker `i` of a
/// workload is pinned to `allowed_cpus()[i]`.
pub fn allowed_cpus() -> Vec<usize> {
    affinity::allowed()
}

/// Pins the calling thread to worker slot `slot`. A workload never runs
/// more workers than there are allowed CPUs (checked before it starts),
/// so a failure here is a host fault and ends the run.
pub fn pin_worker(slot: usize) {
    let cpus = allowed_cpus();
    let cpu = *cpus
        .get(slot)
        .unwrap_or_else(|| panic!("worker slot {slot} has no CPU of its own ({cpus:?})"));
    affinity::pin(cpu).unwrap_or_else(|e| panic!("pinning worker {slot}: {e}"));
}

fn status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kib| kib * 1024)
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Resident set size of this process now (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Writes to every page of `v`, so its memory is resident before timing
/// starts or a peak-RSS baseline is taken.
pub fn touch<T: Copy>(v: &mut [T], fill: T) {
    for x in v.iter_mut() {
        *x = fill;
    }
    std::hint::black_box(v);
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| std::env::consts::OS.to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
