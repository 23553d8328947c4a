//! Process-wide CPU time, context switches and peak RSS from
//! `getrusage(2)` (on an oversubscribed box CPU time per request, not
//! wall time, is the cost of a request), and the CPU affinity every
//! run pins itself to.

use std::os::raw::{c_int, c_long};

/// `struct rusage` of Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss_kb: c_long,
    unused: [c_long; 11],
    nvcsw: c_long,
    nivcsw: c_long,
}

/// A `cpu_set_t` of Linux: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Pins the calling thread, and every thread it or its descendants
/// spawn from here on (reactors, generators), to one CPU: the highest
/// the process is allowed to run on. Returns that CPU, or `None` where
/// the kernel refuses (the run then floats, and its result says so).
///
/// Why: on the small shared boxes this benchmark runs on, the run-to-run
/// spread of every timing was dominated not by the program but by where
/// the scheduler happened to put four mostly-busy threads on two virtual
/// CPUs (a wake-up that crosses CPUs costs a VM exit: ≈ 34 µs against
/// ≈ 4 µs). Floating, `pipe-mixed` read 64–83k req/s run to run (19 %
/// spread); on one CPU 76–82k (3 %). One CPU holds no parallel speed-up,
/// so what the timings measure is the CPU cost of a request plus its
/// hand-offs between threads, which is what a change to the code moves.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte cpu set and its size is
    // passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let (word, bits) = set.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: as above, read-only.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

const RUSAGE_SELF: c_int = 0;

/// One reading of the process's resource usage (all threads, exited
/// ones included).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User + system CPU time so far, µs.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches so far.
    pub ctx_switches: u64,
    /// Peak resident set size so far, MB.
    pub rss_peak_mb: f64,
}

impl ProcSample {
    /// Reads the counters now (all zero if the call fails).
    pub fn now() -> ProcSample {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage`-shaped value
        // (repr(C), two timevals of two longs each followed by fourteen
        // longs, as Linux defines it) and getrusage writes nothing
        // beyond it; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return ProcSample::default();
        }
        let tv = |t: [c_long; 2]| t[0] as f64 * 1e6 + t[1] as f64;
        ProcSample {
            cpu_us: tv(ru.utime) + tv(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            rss_peak_mb: ru.maxrss_kb as f64 / 1024.0,
        }
    }

    /// CPU µs spent since `earlier`.
    pub fn cpu_us_since(&self, earlier: &ProcSample) -> f64 {
        self.cpu_us - earlier.cpu_us
    }

    /// Context switches since `earlier`.
    pub fn ctx_switches_since(&self, earlier: &ProcSample) -> u64 {
        self.ctx_switches.saturating_sub(earlier.ctx_switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_allowed_cpu_and_threads_inherit_it() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread pin itself");
            let allowed = || {
                let mut set: CpuSet = [0; 16];
                // SAFETY: a live, writable cpu set of the size passed.
                assert_eq!(
                    unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) },
                    0
                );
                set
            };
            let mut want: CpuSet = [0; 16];
            want[cpu / 64] = 1 << (cpu % 64);
            assert_eq!(allowed(), want);
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), want);
            // Pinning again picks the same (only) CPU.
            assert_eq!(pin_to_one_cpu(), Some(cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cpu_time_advances_and_rss_is_plausible() {
        let before = ProcSample::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        let after = ProcSample::now();
        assert!(after.cpu_us_since(&before) > 0.0);
        assert!(after.rss_peak_mb > 1.0 && after.rss_peak_mb < 1e6);
    }
}
