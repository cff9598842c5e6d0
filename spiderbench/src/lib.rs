//! The SpiderNet repository benchmark.
//!
//! Four workloads run through SpiderNet's public entry points: three on
//! the in-process simulator ([`sim`]) and one on a loopback cluster of
//! `spidernet-node` daemons ([`daemon`]). A run prints every end-to-end
//! metric (untraced) or every per-layer metric (traced) that
//! `BENCHMARK.json` lists, checks the program's outputs, and writes a full
//! result file carrying the run stamp and the exact work-counter block
//! that [`compare`] diffs.

pub mod compare;
pub mod daemon;
pub mod json;
pub mod report;
pub mod sim;
pub mod trace;

/// Order statistics over wall and model-time samples.
pub mod stats {
    /// Nearest-rank percentile (`q` in 0..=100) of `v`: always an observed
    /// sample, so model-time percentiles keep their exact bits. 0 when
    /// empty, so a result file never holds NaN.
    pub fn percentile(v: &mut [f64], q: f64) -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// Median of `v`; 0 when empty.
    pub fn median(v: &[f64]) -> f64 {
        percentile(&mut v.to_vec(), 50.0)
    }

    /// Arithmetic mean of `v`; 0 when empty.
    pub fn mean(v: &[f64]) -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// `a / b`, or 0 when `b` is 0.
    pub fn ratio(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            0.0
        } else {
            a / b
        }
    }
}

/// CPU time this process has used so far, in seconds.
///
/// The simulator workloads time their single caller with this clock
/// rather than with wall time. On a shared host, wall time also counts
/// the time the kernel gave other processes the CPU; on an idle host the
/// two agree, because the caller never blocks.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU affinity of the calling thread (Linux `cpu_set_t`, 1024 CPUs).
pub mod affinity {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, ascending; empty if the kernel
    /// will not say.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; false if the kernel refused.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["open_steady", "open_churn", "paper_grid", "daemon_stream"];

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    spidernet_util::bench::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}
