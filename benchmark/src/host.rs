//! Host-side measurement plumbing: CPU pinning, the process CPU clock and its
//! calibration, peak RSS, and the order statistics every reported host
//! number goes through.

/// Pin the whole process to one CPU — the highest-numbered one it is allowed
/// to run on — and return `(pinned, cpus allowed before pinning)`.
///
/// The simulator runs one proc at a time by construction, so one CPU measures
/// the program's own hand-off path instead of the host scheduler's thread
/// migration (seed finding: `train-lr-ps2` takes 24 s unpinned, 5.2 s pinned).
/// Must run before any thread is spawned: affinity is inherited at creation.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> (bool, usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A 1024-bit cpu_set_t, the glibc default.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return (false, 1);
    }
    let allowed: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
    let Some(cpu) = (0..mask.len() * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
    else {
        return (false, 1);
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the byte size passed, only read.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0, allowed)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> (bool, usize) {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (false, n)
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used since it started. Unlike wall time it leaves out what the
/// hypervisor steals (a third of the time in a busy hour of the sandbox).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), which is all `clock_gettime` touches.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Without a process CPU clock: wall seconds since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// CPU seconds the calibration kernel takes on the reference machine (a
/// quiet run of the sandbox the seed commit was measured on). Host seconds
/// are reported as `cpu seconds × CALIBRATION_REFERENCE_S ÷ calibrate()`.
pub const CALIBRATION_REFERENCE_S: f64 = 0.008;

/// How fast the machine is running right now: the median CPU time of a fixed
/// kernel over 16 slices (≈ 0.15 s). A slice does the three kinds of work
/// the workloads' host time is made of, in about equal parts — arithmetic
/// over a cache-resident array, page faults on fresh mappings, and thread
/// hand-offs — because a noisy neighbour slows each by a different factor
/// (measured: normalising by the mix leaves 3–9 % run-to-run spread where
/// raw wall time has 17–30 %, arithmetic alone 8–12 %).
pub fn calibrate() -> f64 {
    use std::hint::black_box;
    use std::sync::mpsc::channel;
    let mut lcg: Vec<u64> = (0..65_536u64).collect();
    let mut slices = Vec::new();
    for _ in 0..16 {
        let c0 = process_cpu_s();
        for r in 0..48u64 {
            let mut acc = r;
            for x in lcg.iter_mut() {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(*x);
                *x = acc >> 7;
            }
            black_box(acc);
        }
        // Above glibc's largest mmap threshold, so every round maps fresh
        // zero pages; touching one page in 32 keeps the resident set at 2 MB.
        for _ in 0..4 {
            let mut fresh = vec![0u8; 64 << 20];
            for i in (0..fresh.len()).step_by(128 << 10) {
                fresh[i] = 1;
            }
            black_box(&fresh);
        }
        let (to_peer, peer_inbox) = channel::<u32>();
        let (to_main, main_inbox) = channel::<u32>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Ok(n) = peer_inbox.recv() {
                    if to_main.send(n).is_err() {
                        break;
                    }
                }
            });
            for n in 0..1000u32 {
                to_peer.send(n).expect("calibration peer is alive");
                main_inbox.recv().expect("calibration peer is alive");
            }
            // Ends the peer's loop; the scope joins it.
            drop(to_peer);
        });
        slices.push(process_cpu_s() - c0);
    }
    Stat::of(&slices).median
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median, minimum, maximum and count of one metric's samples within a run.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a reported metric needs a sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        Stat {
            median,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// A value that is exact (deterministic) rather than sampled.
    pub fn exact(value: f64) -> Stat {
        Stat {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_median_even_and_odd() {
        assert_eq!(Stat::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let s = Stat::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
    }
}
