//! Host measurements the standard library does not expose: process CPU
//! time and peak resident memory, read from the C library the standard
//! library already links.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    counters: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn getrusage(who: i32, out: *mut Rusage) -> i32;
}

/// `RUSAGE_SELF`: every thread of this process.
const RUSAGE_SELF: i32 = 0;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system CPU of every thread
/// of this process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed by the whole process so far.
///
/// # Panics
///
/// Panics if the clock cannot be read, which on Linux only happens for an
/// invalid clock id.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds fit in u32"),
    )
}

/// Peak resident set size of this process so far (`ru_maxrss`), in MiB.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it only does for an invalid `who`.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (144 bytes of
    // `long`-sized fields on the 64-bit Linux targets this benchmark builds
    // for), and `getrusage` writes only through the pointer it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.counters[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before, "{x}");
        assert!(peak_rss_mib() > 0.0);
    }
}
